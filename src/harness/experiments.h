// The E1–E9 experiment registry.
//
// Each paper experiment is one declarative entry: a SweepSpec (the grid),
// a PointRunner (how one grid point is measured, publishing into a
// MetricsRegistry), and the series the artifact must carry — some pinned
// to the asymptotic class the paper claims (E1 flag-in-CC must fit O(1),
// E2's forced amortized cost must fit super-constant, E5's Yang–Anderson
// must fit Theta(log N), ...), and the metric columns of its per-point
// table. `rmrsim_cli sweep` is each experiment's one entry point, and CI
// gates it; the grid, the claims and the table layout live in exactly one
// place.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "harness/artifact.h"
#include "harness/sweep.h"

namespace rmrsim {

/// One series the artifact reports; `expected` pins the growth class the
/// fit must land in (CI fails the run on a mismatch).
struct SeriesDecl {
  SeriesSelector selector;
  std::optional<Expectation> expected;
};

struct Experiment {
  std::string name;   ///< "e1" ... "e9", "e4_<protocol>", "t1_*"
  std::string title;  ///< one-line description (artifact title)
  SweepSpec spec;
  PointRunner runner;
  std::vector<SeriesDecl> series;
  /// Metric names printed per grid point by render_point_table, in order.
  /// Display only: the artifact carries every metric regardless.
  std::vector<std::string> columns;
};

/// All registered experiments, in e1..e9 order.
const std::vector<Experiment>& all_experiments();

/// Lookup by name; nullptr if unknown.
const Experiment* find_experiment(const std::string& name);

/// Runs the experiment's grid (capped at `max_n` when > 0) on `workers`
/// threads, extracts and fits every declared series, and assembles the
/// artifact. `generator` names the producing binary.
BenchArtifact run_experiment(const Experiment& exp, int workers,
                             const std::string& generator, int max_n = 0);

/// Fits `result` against the experiment's declared series (the tail of
/// run_experiment, split out so callers can reuse a sweep they already
/// ran).
BenchArtifact make_artifact(const Experiment& exp, SweepResult result,
                            const std::string& generator);

/// True iff every series with a pinned expectation fitted a matching
/// class — the `rmrsim_cli sweep --check` / CI gate.
bool artifact_matches(const BenchArtifact& artifact);

/// One row per grid point in canonical order: model / algorithm / N (plus
/// the fault plan when the grid has one), then the value of each of
/// `exp.columns` — "-" where a point did not publish that metric.
std::string render_point_table(const Experiment& exp,
                               const SweepResult& result);

/// The fitted-series text table (metric / model / algorithm / fitted class
/// / slope / expected / match) the CLI prints after the point table. Empty
/// string when the artifact has no series.
std::string render_fit_table(const BenchArtifact& artifact);

}  // namespace rmrsim
