// Simulated statistics as comparable key/value lines, and the correctness
// gate built on them.
//
// A pass of a workload reduces everything it simulated (RMR tallies,
// protocol messages and cycles, search counters, fitted growth classes) to
// a Digest: ordered "key<TAB>value" entries with deterministically
// formatted numbers. Two passes agree iff their digests are equal, so the
// same comparison serves the pinned expectations of the default seed, pass
// to pass determinism, and the traced-versus-untraced identity check.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rmrsim {
class MetricsRegistry;
}

namespace perfbench {

/// Checks attempted and failed in one run (the top-level "attempted" and
/// "failed" of the result line). The first failures are kept for stderr.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what);
};

class Digest {
 public:
  using Entry = std::pair<std::string, std::string>;

  void add(const std::string& key, double value);
  void add(const std::string& key, const std::string& value);
  /// Every counter and gauge of `reg` under `prefix`, plus a hash of its
  /// full JSON form so summaries and histograms are covered too.
  void add_registry(const std::string& prefix,
                    const rmrsim::MetricsRegistry& reg);

  const std::vector<Entry>& entries() const { return entries_; }

  /// Reads/writes the "key<TAB>value" line format. load() returns false on
  /// a missing file or a malformed line.
  bool load(const std::string& path);
  bool save(const std::string& path) const;

  /// Copy with the value of entry `index` altered (the gate's self-test).
  Digest perturbed(std::size_t index) const;

 private:
  std::vector<Entry> entries_;
};

/// One check per expected entry (present in `observed`, equal value) plus
/// one check that `observed` has no entries `expected` lacks. `what` names
/// the comparison in failure messages.
void compare_digests(const Digest& expected, const Digest& observed,
                     const std::string& what, Checks& checks);

}  // namespace perfbench
