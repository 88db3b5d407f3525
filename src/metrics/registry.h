// Metrics registry: named counters, summaries, fixed-bucket histograms, and
// labeled series.
//
// Every bench and experiment used to keep its measurements in ad-hoc locals
// and print them straight into a TextTable, which made the numbers
// human-only. The registry is the machine-readable middle layer: simulation
// components (the RMR ledger, histories, per-call cost slices, coherence
// counters — see publish.h) publish into a registry, the sweep engine
// (harness/sweep.h) carries one registry per grid point, and the artifact
// writer (harness/artifact.h) serializes them as BENCH_*.json. Iteration
// order is name-sorted everywhere, so serialized output is deterministic —
// the property the parallel sweep engine's bit-identical-merge guarantee
// rests on.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rmrsim {

class MetricsRegistry {
 public:
  // ---- counters (monotonic integers) ---------------------------------
  void add(std::string_view name, std::uint64_t delta = 1);
  std::uint64_t counter(std::string_view name) const;

  // ---- gauges (set-valued doubles) -----------------------------------
  void set(std::string_view name, double value);
  double gauge(std::string_view name) const;

  /// Counter or gauge value by name (counters win on a name clash);
  /// 0 if absent. The flat view the sweep engine extracts series from.
  double value(std::string_view name) const;
  bool has_value(std::string_view name) const;

  // ---- summaries (count / sum / min / max over observations) ---------
  struct Summary {
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    double mean() const { return count == 0 ? 0.0 : sum / count; }
  };
  void observe(std::string_view name, double value);
  /// Merges a pre-aggregated summary into `name`: the same result as
  /// observing each of its values (exactly so for integer-valued sums).
  void merge_summary(std::string_view name, const Summary& s);
  /// nullptr if nothing was observed under `name`.
  const Summary* summary(std::string_view name) const;

  // ---- histograms (fixed upper-bound buckets, last bucket = +inf) ----
  struct Histogram {
    std::vector<double> bounds;        ///< ascending upper bounds
    std::vector<std::uint64_t> counts; ///< size = bounds.size() + 1
    std::uint64_t total = 0;
  };
  /// Observes `value` into the histogram `name`, creating it with `bounds`
  /// on first use. Later calls must pass identical bounds (checked).
  void histogram_observe(std::string_view name, std::span<const double> bounds,
                         double value);
  /// Adds pre-counted buckets (`counts.size() == bounds.size() + 1`) into
  /// `name`, with the same creation and bounds rules as histogram_observe.
  void histogram_merge(std::string_view name, std::span<const double> bounds,
                       std::span<const std::uint64_t> counts);
  const Histogram* histogram(std::string_view name) const;

  // ---- labeled series (x/y points with an optional label) ------------
  struct SeriesPoint {
    double x = 0;
    double y = 0;
    std::string label;
  };
  struct Series {
    std::vector<SeriesPoint> points;
  };
  void series_append(std::string_view name, double x, double y,
                     std::string label = {});
  const Series* series(std::string_view name) const;

  // ---- aggregation / output ------------------------------------------
  /// Adds counters, merges summaries/histograms, concatenates series and
  /// overwrites gauges from `other` — used when one logical experiment
  /// point is assembled from several component publishers.
  void merge_from(const MetricsRegistry& other);

  /// All counter and gauge names, sorted (the flat scalar view).
  std::vector<std::string> value_names() const;

  bool empty() const;

  /// One JSON object with sorted keys:
  ///   {"metrics":{...},"summaries":{...},"histograms":{...},"series":{...}}
  /// Sections with no entries are omitted. Numbers are formatted
  /// deterministically (integers without a decimal point); no external
  /// JSON dependency.
  std::string to_json() const;

 private:
  /// The histogram `name`, created empty with `bounds` on first use;
  /// later uses must pass identical bounds (checked).
  Histogram& histogram_slot(std::string_view name,
                            std::span<const double> bounds);

  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Summary, std::less<>> summaries_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, Series, std::less<>> series_;
};

/// Deterministic number formatting shared by the registry and the artifact
/// writer: integral values (within 2^53) print with no decimal point;
/// everything else uses shortest-roundtrip-ish "%.10g".
std::string format_metric_number(double value);

}  // namespace rmrsim
