// SnoopingCache: the shared chassis of the coherence-protocol fleet.
//
// Each protocol (MESI, MESIF, MOESI, Dragon) is an explicit per-line state
// machine over the states below, driven by the CoherenceEvent stream
// SharedMemory publishes. This base class owns everything the protocols
// share — per-(line, processor) state storage, the line's processor sets
// (which copies are valid, which hold the latest write: every valid copy
// must, however the protocol arranges that), the memory-staleness bit,
// message tallies, and the cycle ledger — so a concrete protocol is nothing
// but its read() / write() transition functions plus its invariant checker.
//
// The processor sets are bitmasks of (nprocs + 63) / 64 words (the
// memory/store.h idiom), so counting, finding and invalidating the other
// copies costs O(P/64) plus one step per copy, not a scan of every
// processor.
//
// Two deliberate modeling choices, both inherited from the pricing layer:
//  * one variable == one cache line == one word (no false sharing, no
//    capacity or conflict misses — caches only lose copies to coherence
//    actions and crashes, matching the paper's Section 2 ideal cache);
//  * a crash powers the processor's cache down. A dirty owner's line is
//    treated as flushed-then-lost (memory becomes current, no cycles
//    charged): pricing state only, the store always holds real values.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coherence/protocols.h"
#include "coherence/stats.h"
#include "memory/cost_model.h"

namespace rmrsim {

/// Union of the fleet's per-line states. Each protocol uses its own subset
/// (checked by its invariant checker); kInvalid doubles as "not present".
enum class LineState : std::uint8_t {
  kInvalid,         ///< I — no valid copy
  kShared,          ///< S — clean(ish) copy, others may share
  kExclusive,       ///< E — sole copy, clean
  kModified,        ///< M — sole copy, dirty
  kOwned,           ///< O — dirty copy responsible for the line (MOESI)
  kForward,         ///< F — the designated clean responder (MESIF)
  kSharedClean,     ///< Sc — Dragon shared, not the updater
  kSharedModified,  ///< Sm — Dragon shared, owns update duty, dirty
};

std::string_view to_string(LineState s);

/// Base of the four protocol state machines. Consumes CoherenceEvents (or
/// direct access() injections in unit tests), drives the per-line states,
/// and accounts messages + cycles.
class SnoopingCache : public MessageCounter {
 public:
  SnoopingCache(std::string name, int nprocs, CycleCosts costs);

  /// Routes the event into the state machine: nontrivial operations are
  /// writes, everything else (reads, failed comparisons) read-like.
  void on_event(const CoherenceEvent& e) override;

  /// Unit-test injection: one access without a SharedMemory behind it.
  void access(ProcId p, VarId v, bool write);

  /// Drops every copy `p` held. A dirty owner's line counts as flushed
  /// (memory becomes current) so later fills never resurrect stale data.
  void on_crash(ProcId p) override;

  void reset() override;

  std::string_view name() const override { return name_; }
  std::uint64_t update_messages() const override { return updates_; }

  const ProtocolStats& stats() const { return stats_; }
  std::uint64_t total_cycles() const { return stats_.cycles; }
  /// Cycles charged to accesses performed by `p`.
  std::uint64_t proc_cycles(ProcId p) const;
  int nprocs() const { return nprocs_; }

  /// State of p's copy of v (kInvalid when the line was never touched).
  LineState state(ProcId p, VarId v) const;

  /// Checks every line against the protocol's transition-diagram
  /// invariants plus the fleet-wide ones (single writer-owner, every valid
  /// copy current, the valid set agreeing with the state lane, tally
  /// consistency). nullopt = all hold; otherwise a human-readable
  /// description of the first violation.
  std::optional<std::string> check_invariants() const;

  /// Opts into per-event cycle logging: every on_event()/access() appends
  /// the cycles it charged, in order, enabling per-call cycle attribution
  /// (trace/call_stats.h). Off by default (costs a vector push per event).
  void enable_cycle_log() { cycle_log_enabled_ = true; }
  const std::vector<std::uint64_t>& cycle_log() const { return cycle_log_; }

 protected:
  /// Protocols move copies between valid states by writing `st`
  /// directly; only fill(), invalidate_others() and on_crash() change
  /// which copies are valid, so they alone maintain `valid`.
  struct Line {
    std::vector<LineState> st;            ///< per-proc state, size nprocs
    std::vector<std::uint64_t> valid;     ///< procs whose st is not I
    std::vector<std::uint64_t> current;   ///< procs holding the last write
    bool memory_stale = false;            ///< memory lags a dirty owner
  };

  // The protocol: how `p`'s read / write transitions `l` and what it
  // charges. Implementations use the charge_* helpers below.
  virtual void read(Line& l, ProcId p) = 0;
  virtual void write(Line& l, ProcId p) = 0;

  /// Protocol-specific line invariants (legal state subset, owner
  /// uniqueness rules). The base adds the protocol-independent checks.
  virtual std::optional<std::string> check_line(const Line& l,
                                                VarId v) const = 0;

  // ---- transition vocabulary (message + cycle accounting) --------------
  void charge_hit(ProcId p);
  void charge_memory_fetch(ProcId p);    ///< +1 transfer message
  void charge_cache_transfer(ProcId p);  ///< +1 transfer message
  void charge_bus_signal(ProcId p);      ///< address-only, no message
  void charge_bus_update(ProcId p);      ///< one update transaction
  void charge_write_back(ProcId p);      ///< snoop-forced dirty flush

  /// Invalidates every valid copy but p's: one invalidation message per
  /// copy destroyed (all useful — a snooping cache never invalidates a
  /// copy that does not exist; superfluity is a directory pathology).
  void invalidate_others(Line& l, ProcId p);

  /// Refreshes every valid copy but p's with the line's latest write,
  /// one update message per copy refreshed.
  void update_others(Line& l, ProcId p);

  /// Gives `p` a copy holding the latest write, in state `s`.
  void fill(Line& l, ProcId p, LineState s) {
    l.st[static_cast<std::size_t>(p)] = s;
    l.valid[static_cast<std::size_t>(p / 64)] |= bit_of(p);
    l.current[static_cast<std::size_t>(p / 64)] |= bit_of(p);
  }

  /// Records a write by `p`: its copy becomes the only current one (call
  /// on write).
  void bump_version(Line& l, ProcId p) {
    std::fill(l.current.begin(), l.current.end(), 0);
    l.current[static_cast<std::size_t>(p / 64)] = bit_of(p);
  }

  int count_valid_others(const Line& l, ProcId p) const {
    int n = 0;
    for (const std::uint64_t w : l.valid) n += std::popcount(w);
    return mask_test(l.valid, p) ? n - 1 : n;
  }
  bool any_valid_other(const Line& l, ProcId p) const {
    return count_valid_others(l, p) > 0;
  }

  /// Lowest-numbered other proc whose state is `s` (not kInvalid);
  /// kNoProc if none.
  ProcId find_other(const Line& l, ProcId p, LineState s) const {
    for (int w = 0; w < mask_words_; ++w) {
      std::uint64_t bits = l.valid[static_cast<std::size_t>(w)];
      if (w == p / 64) bits &= ~bit_of(p);
      while (bits != 0) {
        const int q = w * 64 + std::countr_zero(bits);
        if (l.st[static_cast<std::size_t>(q)] == s) return q;
        bits &= bits - 1;
      }
    }
    return kNoProc;
  }

  /// Calls f(q) for every proc q != p holding a valid copy, ascending.
  template <class F>
  void for_each_valid_other(const Line& l, ProcId p, F&& f) const {
    for (int w = 0; w < mask_words_; ++w) {
      std::uint64_t bits = l.valid[static_cast<std::size_t>(w)];
      if (w == p / 64) bits &= ~bit_of(p);
      while (bits != 0) {
        f(static_cast<ProcId>(w * 64 + std::countr_zero(bits)));
        bits &= bits - 1;
      }
    }
  }

  Line& line_mut(VarId v) {
    if (v >= 0 && static_cast<std::size_t>(v) < lines_.size()) {
      Line& l = lines_[static_cast<std::size_t>(v)];
      if (!l.st.empty()) return l;
    }
    return add_line(v);
  }
  const Line* line(VarId v) const;

  static std::uint64_t bit_of(ProcId p) {
    return std::uint64_t{1} << (p % 64);
  }
  static bool mask_test(const std::vector<std::uint64_t>& m, ProcId p) {
    return (m[static_cast<std::size_t>(p / 64)] & bit_of(p)) != 0;
  }

  int nprocs_;
  int mask_words_;  ///< (nprocs + 63) / 64 words per processor set
  CycleCosts costs_;
  ProtocolStats stats_;
  std::uint64_t updates_ = 0;

 private:
  void charge_cycles(ProcId p, std::uint64_t cycles);
  /// line_mut's slow path: allocates v's line on first touch.
  Line& add_line(VarId v);

  std::string name_;
  std::vector<Line> lines_;  // index = VarId, grown lazily
  std::vector<std::uint64_t> proc_cycles_;
  std::vector<std::uint64_t> cycle_log_;
  bool cycle_log_enabled_ = false;
  std::uint64_t event_cycles_ = 0;  // cycles charged by the current event
};

}  // namespace rmrsim
