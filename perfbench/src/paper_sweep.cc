// paper_sweep: the E1 and E2 grids of the experiment registry, on one
// sweep worker.
//
// Untraced, a pass is what `rmrsim_cli sweep --exp e1` and `--exp e2` do:
// run_sweep over the registry's own point runners, make_artifact, and the
// deterministic artifact JSON. Traced, the same grids run through copies of
// the registry's E1 and E2 point runners that hand the decorated cost model
// to SharedMemory (E1) or to the adversary's memory factory (E2), and the
// decorated round-robin scheduler to Simulation::run (E1).
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/crc32.h"
#include "decorators.h"
#include "harness/artifact.h"
#include "harness/drive.h"
#include "harness/experiments.h"
#include "harness/fitter.h"
#include "harness/sweep.h"
#include "lowerbound/adversary.h"
#include "metrics/publish.h"
#include "sched/schedulers.h"
#include "signaling/cc_flag.h"
#include "signaling/checker.h"
#include "signaling/dsm_fixed.h"
#include "signaling/dsm_registration.h"
#include "signaling/workload.h"
#include "trace/call_stats.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace rmrsim;

std::string point_label(const SweepPoint& p) {
  return p.model + "/" + p.algorithm + "/" + std::to_string(p.n);
}

/// E1's world for one grid point as run_signaling_workload builds it
/// (e1_runner's options), with the cost model decorated.
SignalingRun build_e1_world(const SweepPoint& p,
                            SignalingWorkloadOptions* opt) {
  opt->n_waiters = p.n;
  opt->signaler_idle_polls = p.algorithm == "flag-spin-n" ? p.n : 64;
  SignalingRun run;
  run.n_waiters = opt->n_waiters;
  run.mem = make_memory(p.model, opt->n_waiters + 1, /*traced=*/true);
  run.alg = make_signal_factory_by_name("flag", p.n)(*run.mem);
  SignalingAlgorithm* alg = run.alg.get();
  std::vector<Program> programs;
  for (int i = 0; i < opt->n_waiters; ++i) {
    programs.emplace_back([alg, max_polls = opt->max_polls_per_waiter](
                              ProcCtx& ctx) {
      return polling_waiter(ctx, alg, max_polls);
    });
  }
  programs.emplace_back([alg, idle = opt->signaler_idle_polls](ProcCtx& ctx) {
    return signaler(ctx, alg, idle);
  });
  run.sim = std::make_unique<Simulation>(
      *run.mem,
      std::make_shared<const std::vector<Program>>(std::move(programs)));
  return run;
}

/// The registry's E1 point (e1_runner + run_signaling_point), with the
/// decorated round-robin scheduler handed to Simulation::run.
MetricsRegistry traced_e1_point(const SweepPoint& p, std::uint64_t* steps) {
  const Frame point(Layer::kHarnessE1, "e1 " + point_label(p));
  SignalingWorkloadOptions opt;
  SignalingRun run = build_e1_world(p, &opt);
  RoundRobinScheduler round_robin;
  TimedScheduler sched(round_robin);
  Simulation::RunResult result;
  {
    const Frame f(Layer::kRuntimeStep);
    result = run.sim->run(sched, opt.step_budget);
  }
  ensure(result.all_terminated, "signaling workload did not complete");
  *steps += result.steps;

  MetricsRegistry reg;
  publish_simulation(reg, *run.sim);
  publish_call_costs(reg, per_call_costs(run.sim->history()));
  reg.set("rmrs.max_waiter", static_cast<double>(run.max_waiter_rmrs()));
  reg.set("rmrs.signaler", static_cast<double>(run.signaler_rmrs()));
  reg.set("rmrs.amortized", run.amortized_rmrs());
  reg.set("spec.ok",
          check_polling_spec(run.sim->history()).has_value() ? 0.0 : 1.0);
  return reg;
}

/// E2's adversary for one grid point as e2_runner configures it, its
/// memory factory building decorated cost models.
SignalingAdversary build_e2_adversary(const SweepPoint& p) {
  const int n = p.n;
  AdversaryConfig c;
  c.nprocs = n;
  c.construction = Construction::kStrict;
  std::string model = "dsm";
  SignalingFactory factory;
  if (p.algorithm == "registration") {
    factory = [n](SharedMemory& m) {
      return std::make_unique<DsmRegistrationSignal>(
          m, static_cast<ProcId>(n - 2));
    };
  } else if (p.algorithm == "fixed-waiters") {
    factory = [n](SharedMemory& m) {
      std::vector<ProcId> ws;
      for (int i = 0; i < n - 1; ++i) ws.push_back(i);
      return std::make_unique<DsmFixedWaitersSignal>(m, std::move(ws));
    };
  } else if (p.algorithm == "flag-dsm") {
    c.unstable_extension_rounds = std::max(4, n / 4);
    factory = [](SharedMemory& m) { return std::make_unique<CcFlagSignal>(m); };
  } else if (p.algorithm == "flag-cc-control") {
    c.construction = Construction::kLenient;
    c.erase_during_chase = false;
    model = "cc";
    factory = [](SharedMemory& m) { return std::make_unique<CcFlagSignal>(m); };
  } else {
    fail("e2: unknown algorithm '" + p.algorithm + "'");
  }
  c.make_memory = [model](int k) {
    return make_memory(model, k, /*traced=*/true);
  };
  return SignalingAdversary(factory, c);
}

/// The registry's E2 point (e2_runner + run_adversary_point).
MetricsRegistry traced_e2_point(const SweepPoint& p, std::uint64_t* rounds) {
  const Frame point(Layer::kHarnessE2, "e2 " + point_label(p));
  AdversaryReport r;
  {
    const Frame f(Layer::kLowerboundAdversary);
    SignalingAdversary adv = build_e2_adversary(p);
    r = adv.run();
  }
  *rounds += static_cast<std::uint64_t>(r.rounds);

  MetricsRegistry reg;
  reg.set("adv.amortized",
          r.stabilized ? r.amortized_final : r.unstable_amortized_end);
  reg.set("adv.signaler_rmrs", static_cast<double>(r.signaler_rmrs));
  reg.set("adv.stabilized", r.stabilized ? 1.0 : 0.0);
  reg.set("adv.stable_waiters", static_cast<double>(r.stable_waiters));
  reg.set("adv.participants", static_cast<double>(r.participants_final));
  reg.set("adv.rounds", static_cast<double>(r.rounds));
  reg.set("adv.in_scope", r.in_scope ? 1.0 : 0.0);
  reg.set("spec.ok", r.spec_violation ? 0.0 : 1.0);
  return reg;
}

class PaperSweep final : public Workload {
 public:
  const char* throughput_name() const override {
    return "sweep_points_per_s";
  }
  bool seeded() const override { return false; }

  /// What `rmrsim_cli sweep` does before it runs a grid: look the
  /// experiments up in the registry and copy their specs. A sweep builds
  /// each point's world inside the pass, so this set-up takes microseconds.
  void setup() override {
    e1_ = find_experiment("e1");
    e2_ = find_experiment("e2");
    ensure(e1_ != nullptr && e2_ != nullptr,
           "paper_sweep: e1/e2 missing from the experiment registry");
    e1_spec_ = e1_->spec;
    e2_spec_ = e2_->spec;
  }

  PassResult pass(bool traced, Checks& checks) override {
    PassResult out;
    std::uint64_t steps = 0;
    std::uint64_t rounds = 0;
    PointRunner e1_runner = e1_->runner;
    PointRunner e2_runner = e2_->runner;
    if (traced) {
      e1_runner = [&steps](const SweepPoint& p) {
        return traced_e1_point(p, &steps);
      };
      e2_runner = [&rounds](const SweepPoint& p) {
        return traced_e2_point(p, &rounds);
      };
    }
    SweepResult e1_result;
    {
      const Frame f(Layer::kHarnessE1, "harness.e1");
      e1_result = run_sweep(e1_spec_, e1_runner, /*workers=*/1);
    }
    SweepResult e2_result;
    {
      const Frame f(Layer::kHarnessE2, "harness.e2");
      e2_result = run_sweep(e2_spec_, e2_runner, /*workers=*/1);
    }
    BenchArtifact e1_artifact;
    BenchArtifact e2_artifact;
    {
      const Frame f(Layer::kHarnessFit, "harness.fit");
      e1_artifact = make_artifact(*e1_, std::move(e1_result), "perfbench");
      e2_artifact = make_artifact(*e2_, std::move(e2_result), "perfbench");
    }
    std::string e1_json;
    std::string e2_json;
    {
      const Frame f(Layer::kHarnessArtifact, "harness.artifact");
      e1_json = artifact_to_json(e1_artifact, /*include_wall_time=*/false);
      e2_json = artifact_to_json(e2_artifact, /*include_wall_time=*/false);
    }

    for (const BenchArtifact* a : {&e1_artifact, &e2_artifact}) {
      for (const SweepPointResult& pr : a->result.points) {
        const std::string key = a->name + "/" + point_label(pr.point) + "/";
        out.digest.add_registry(key, pr.metrics);
        checks.expect(pr.metrics.value("spec.ok") == 1.0,
                      key + "spec.ok: the signaling spec was violated");
      }
      for (const FittedSeries& s : a->series) {
        const std::string key = "fit/" + a->name + "/" + s.selector.metric +
                                "/" + s.selector.model + "/" +
                                s.selector.algorithm;
        out.digest.add(key + "/class", to_string(s.fit.cls));
        out.digest.add(key + "/slope", s.fit.loglog_slope);
        if (s.expected.has_value()) {
          checks.expect(s.matches_expectation,
                        key + " fitted " + to_string(s.fit.cls) +
                            ", the paper claims " + to_string(*s.expected));
        }
      }
    }
    out.digest.add("artifact/e1.fnv1a64", std::to_string(fnv1a64(e1_json)));
    out.digest.add("artifact/e2.fnv1a64", std::to_string(fnv1a64(e2_json)));
    out.items = static_cast<double>(e1_spec_.grid_size() +
                                    e2_spec_.grid_size());
    if (traced) {
      out.counts = {{"runtime.steps", static_cast<double>(steps)},
                    {"lowerbound.rounds", static_cast<double>(rounds)}};
    }
    return out;
  }

 private:
  const Experiment* e1_ = nullptr;
  const Experiment* e2_ = nullptr;
  SweepSpec e1_spec_;
  SweepSpec e2_spec_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_sweep() {
  return std::make_unique<PaperSweep>();
}

}  // namespace perfbench
