// explore: the DPOR reference search — registration signaling in DSM with
// 3 waiters x 2 polls, depth 32, snapshot mode, counters-only history, on
// 2 worker threads. Untraced, explore_dpor gets a plain ExploreBuilder
// and ExploreChecker; traced, it gets them wrapped, and the ExploreBuilder
// hands the decorated cost model to every world it builds.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "decorators.h"
#include "harness/drive.h"
#include "signaling/algorithm.h"
#include "verify/dpor.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace rmrsim;

constexpr int kWaiters = 3;
constexpr int kPolls = 2;
constexpr int kWorkers = 2;

ExploreBuilder make_builder(bool traced) {
  const SignalingFactory factory =
      make_signal_factory_by_name("registration", kWaiters);
  return [factory, traced]() {
    ExploreInstance inst;
    inst.mem = make_memory("dsm", kWaiters + 1, traced);
    std::shared_ptr<SignalingAlgorithm> alg{factory(*inst.mem)};
    std::vector<Program> programs;
    for (int i = 0; i < kWaiters; ++i) {
      programs.emplace_back([a = alg.get()](ProcCtx& ctx) {
        return polling_waiter(ctx, a, kPolls);
      });
    }
    programs.emplace_back(
        [a = alg.get()](ProcCtx& ctx) { return signaler(ctx, a); });
    inst.sim = std::make_unique<Simulation>(*inst.mem, std::move(programs));
    inst.keepalive = alg;
    return inst;
  };
}

/// Section 7's DSM cost claim for the registration algorithm, checked at
/// every node from the history's counters: a waiter pays at most two RMRs
/// (registering, then reading S once), and the signaler one RMR for S plus
/// one per waiter it delivers to.
std::optional<std::string> check_costs(const History& h) {
  for (ProcId p = 0; p < kWaiters; ++p) {
    if (h.rmrs(p) > 2) {
      return "waiter " + std::to_string(p) + " paid " +
             std::to_string(h.rmrs(p)) + " RMRs (bound 2)";
    }
  }
  if (h.rmrs(kWaiters) > 1 + kWaiters) {
    return "signaler paid " + std::to_string(h.rmrs(kWaiters)) +
           " RMRs (bound " + std::to_string(1 + kWaiters) + ")";
  }
  return std::nullopt;
}

class Explore final : public Workload {
 public:
  const char* throughput_name() const override { return "dpor_nodes_per_s"; }
  bool seeded() const override { return false; }

  /// What a user's run does before it calls explore_dpor: the options, the
  /// builder and the checker. The search builds every world itself, so
  /// this set-up takes microseconds.
  void setup() override {
    options_ = DporOptions{};
    options_.max_depth = 32;
    options_.max_nodes = 3'000'000;
    options_.workers = kWorkers;
    options_.snapshot_mode = SnapshotMode::kSnapshot;
    options_.counters_only_history = true;
    build_ = make_builder(tracing());
    check_ = check_costs;
    if (tracing()) {
      build_ = timed_builder(build_);
      check_ = timed_checker(check_);
    }
  }

  PassResult pass(bool traced, Checks& checks) override {
    ensure(traced == tracing(), "explore: set-up and pass disagree on tracing");
    ExploreResult r;
    {
      const Frame f(Layer::kVerifyDpor, "verify.explore_dpor", kWorkers);
      r = explore_dpor(build_, check_, options_);
    }
    checks.expect(r.exhausted, "explore: the search did not exhaust the tree");
    checks.expect(!r.violation.has_value(),
                  "explore: violation: " + r.violation.value_or(""));
    checks.expect(r.quarantined_items.empty(),
                  "explore: work items were quarantined");

    const ExploreStats& s = r.stats;
    PassResult out;
    Digest& d = out.digest;
    d.add("nodes_visited", static_cast<double>(r.nodes_visited));
    d.add("complete_schedules", static_cast<double>(r.complete_schedules));
    d.add("truncated_schedules", static_cast<double>(r.truncated_schedules));
    d.add("exhausted", r.exhausted ? "yes" : "no");
    d.add("violation", r.violation.value_or("none"));
    d.add("replayed_steps", static_cast<double>(s.replayed_steps));
    d.add("sleep_set_prunes", static_cast<double>(s.sleep_set_prunes));
    d.add("backtrack_points", static_cast<double>(s.backtrack_points));
    d.add("sleep_blocked_paths", static_cast<double>(s.sleep_blocked_paths));
    d.add("naive_tree_estimate", s.naive_tree_estimate);
    d.add("rounds", static_cast<double>(s.rounds));
    d.add("work_items", static_cast<double>(s.work_items));
    d.add("snapshot_hits", static_cast<double>(s.snapshot_hits));
    d.add("snapshot_misses", static_cast<double>(s.snapshot_misses));
    d.add("snapshots_taken", static_cast<double>(s.snapshots_taken));
    d.add("snapshot_evictions", static_cast<double>(s.snapshot_evictions));
    d.add("snapshot_delta_steps", static_cast<double>(s.snapshot_delta_steps));
    d.add("snapshot_peak_bytes", static_cast<double>(s.snapshot_peak_bytes));
    out.items = static_cast<double>(r.nodes_visited);
    if (traced) {
      const double lookups =
          static_cast<double>(s.snapshot_hits + s.snapshot_misses);
      out.counts = {
          {"verify.nodes", static_cast<double>(r.nodes_visited)},
          {"verify.replayed_steps", static_cast<double>(s.replayed_steps)},
          {"verify.sleep_prunes", static_cast<double>(s.sleep_set_prunes)},
          {"verify.backtracks", static_cast<double>(s.backtrack_points)},
          {"verify.work_items", static_cast<double>(s.work_items)},
          {"verify.snapshot_hits", static_cast<double>(s.snapshot_hits)},
          {"verify.snapshot_misses", static_cast<double>(s.snapshot_misses)},
          {"verify.snapshot_hit_rate",
           lookups > 0 ? static_cast<double>(s.snapshot_hits) / lookups : 0},
      };
    }
    return out;
  }

 private:
  DporOptions options_;
  ExploreBuilder build_;
  ExploreChecker check_;
};

}  // namespace

std::unique_ptr<Workload> make_explore() { return std::make_unique<Explore>(); }

}  // namespace perfbench
