// Online folds vs the record-backed analyses they replace.
//
// A signaling sweep point runs counters-only and folds per-call costs
// (CallCostFold) and the Specification 4.1 verdict (SpecFold) as
// Simulation::run records each step. These tests pin that the folds see
// exactly what per_call_costs and check_*_spec see on a full history of the
// same schedule — every algorithm (the broken one included), both memory
// models, polling and blocking, round-robin and seeded-random schedules, and
// a crash/recovery fault plan — and pin the span rules on hand-built
// histories.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "harness/drive.h"
#include "metrics/publish.h"
#include "sched/fault.h"
#include "sched/schedulers.h"
#include "signaling/checker.h"
#include "signaling/workload.h"
#include "trace/call_stats.h"

namespace rmrsim {
namespace {

/// Both folds behind one sink, keeping every call for field-by-field
/// comparison with per_call_costs.
struct Folds final : StepSink {
  CallCostFold calls{/*keep_calls=*/true};
  SpecFold spec;
  void on_step(const StepRecord& r) override {
    calls.on_step(r);
    spec.on_step(r);
  }
};

/// What a signaling point reports from its calls and its spec check.
struct Observed {
  std::vector<CallCost> calls;
  std::string totals_json;  ///< publish_call_* registry JSON
  std::optional<SpecViolation> violation;
  std::uint64_t steps = 0;
};

std::string call_totals_json(const std::vector<CallCodeTotals>& totals) {
  MetricsRegistry reg;
  publish_call_totals(reg, totals);
  return reg.to_json();
}

Observed from_history(const History& h, bool blocking) {
  Observed o;
  o.calls = per_call_costs(h);
  MetricsRegistry reg;
  publish_call_costs(reg, o.calls);
  o.totals_json = reg.to_json();
  o.violation = blocking ? check_blocking_spec(h) : check_polling_spec(h);
  o.steps = h.size();
  return o;
}

Observed from_folds(Folds& f, const History& h, bool blocking) {
  f.calls.finish();
  Observed o;
  o.calls = f.calls.calls();
  o.totals_json = call_totals_json(f.calls.totals());
  o.violation =
      blocking ? f.spec.blocking_violation() : f.spec.polling_violation();
  o.steps = h.size();
  return o;
}

void expect_same(const Observed& full, const Observed& folded) {
  EXPECT_EQ(full.steps, folded.steps);
  EXPECT_EQ(full.totals_json, folded.totals_json);
  ASSERT_EQ(full.calls.size(), folded.calls.size());
  for (std::size_t i = 0; i < full.calls.size(); ++i) {
    const CallCost& a = full.calls[i];
    const CallCost& b = folded.calls[i];
    EXPECT_EQ(a.proc, b.proc) << "call " << i;
    EXPECT_EQ(a.call_code, b.call_code) << "call " << i;
    EXPECT_EQ(a.call_index, b.call_index) << "call " << i;
    EXPECT_EQ(a.returned, b.returned) << "call " << i;
    EXPECT_EQ(a.completed, b.completed) << "call " << i;
    EXPECT_EQ(a.mem_steps, b.mem_steps) << "call " << i;
    EXPECT_EQ(a.rmrs, b.rmrs) << "call " << i;
  }
  ASSERT_EQ(full.violation.has_value(), folded.violation.has_value());
  if (full.violation) {
    EXPECT_EQ(full.violation->step_index, folded.violation->step_index);
    EXPECT_EQ(full.violation->what, folded.violation->what);
  }
}

// ---- run_signaling_workload twins ---------------------------------------

using Case = std::tuple<std::string /*alg*/, std::string /*model*/,
                        bool /*blocking*/, std::uint64_t /*seed*/>;

class FoldParity : public ::testing::TestWithParam<Case> {};

TEST_P(FoldParity, CountersOnlyFoldsMatchFullHistory) {
  const auto& [alg, model, blocking, seed] = GetParam();
  // single-waiter's protocol admits one waiter; everyone else gets three.
  const int waiters = alg == "single-waiter" ? 1 : 3;
  SignalingWorkloadOptions opt;
  opt.n_waiters = waiters;
  opt.blocking = blocking;
  opt.signaler_idle_polls = blocking ? 0 : 6;
  opt.max_polls_per_waiter = 40;
  opt.scheduler_seed = seed;
  const auto factory = make_signal_factory_by_name(alg, waiters);

  const SignalingRun full = run_signaling_workload(
      make_model_by_name(model, waiters + 1), factory, opt);

  Folds folds;
  opt.history_mode = HistoryMode::kCountersOnly;
  opt.step_sink = &folds;
  const SignalingRun counters = run_signaling_workload(
      make_model_by_name(model, waiters + 1), factory, opt);

  expect_same(from_history(full.sim->history(), blocking),
              from_folds(folds, counters.sim->history(), blocking));
  if (alg == "broken") {
    // The mutant is convicted on every schedule (clause 2), both ways.
    EXPECT_TRUE(folds.spec.polling_violation().has_value());
  }
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const char* alg :
       {"flag", "single-waiter", "registration", "queue", "cas", "llsc",
        "rw-cas", "blocking-leader", "broken"}) {
    for (const char* model : {"dsm", "cc"}) {
      for (const bool blocking : {false, true}) {
        // blocking-leader implements Wait() only; broken's Poll() never
        // sees the signal, so its Wait() never returns.
        if (!blocking && std::string(alg) == "blocking-leader") continue;
        if (blocking && std::string(alg) == "broken") continue;
        for (const std::uint64_t seed : {0u, 11u}) {
          out.emplace_back(alg, model, blocking, seed);
        }
      }
    }
  }
  return out;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto& [alg, model, blocking, seed] = info.param;
  std::string name = alg + "_" + model + (blocking ? "_blocking" : "_polling") +
                     (seed == 0 ? "_rr" : "_random");
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, FoldParity,
                         ::testing::ValuesIn(cases()), case_name);

// ---- crash/recovery through Simulation::run's sink ----------------------

/// Three polling waiters and a signaler under a random crash/recovery plan.
/// Crash and recovery records reach the sink from inside the scheduler.
struct CrashyRun {
  std::unique_ptr<SharedMemory> mem;
  std::unique_ptr<SignalingAlgorithm> alg;
  std::unique_ptr<Simulation> sim;
};

CrashyRun run_crashy(HistoryMode mode, StepSink* sink) {
  constexpr int kWaiters = 3;
  CrashyRun r;
  r.mem = make_model_by_name("dsm", kWaiters + 1);
  r.alg = make_signal_factory_by_name("flag", kWaiters)(*r.mem);
  SignalingAlgorithm* alg = r.alg.get();
  std::vector<Program> programs;
  for (int i = 0; i < kWaiters; ++i) {
    programs.emplace_back(
        [alg](ProcCtx& ctx) { return polling_waiter(ctx, alg, 30); });
  }
  programs.emplace_back(
      [alg](ProcCtx& ctx) { return signaler(ctx, alg, 10); });
  r.sim = std::make_unique<Simulation>(*r.mem, std::move(programs));
  r.sim->set_history_mode(mode);
  RoundRobinScheduler rr;
  FaultScheduler faulty(rr, FaultPlan::random(5, 0.05, 12, 6));
  const auto result = r.sim->run(faulty, 100'000, sink);
  EXPECT_TRUE(result.all_terminated);
  return r;
}

/// Keeps every step the sink is handed.
struct Recorder final : StepSink {
  std::vector<StepRecord> seen;
  void on_step(const StepRecord& r) override { seen.push_back(r); }
};

TEST(FoldParity, CrashRecoveryPlanMatchesFullHistory) {
  const CrashyRun full = run_crashy(HistoryMode::kFull, nullptr);
  ASSERT_GT(full.sim->history().crash_events(), 0u);
  ASSERT_GT(full.sim->history().recovery_events(), 0u);
  Folds folds;
  const CrashyRun counters = run_crashy(HistoryMode::kCountersOnly, &folds);
  expect_same(from_history(full.sim->history(), false),
              from_folds(folds, counters.sim->history(), false));

  // The sink of a counters-only run sees exactly the records a full run
  // stores, crash and recovery events included.
  Recorder recorder;
  run_crashy(HistoryMode::kCountersOnly, &recorder);
  const std::vector<StepRecord>& stored = full.sim->history().records();
  ASSERT_EQ(recorder.seen.size(), stored.size());
  for (std::size_t i = 0; i < stored.size(); ++i) {
    EXPECT_EQ(recorder.seen[i].to_string(), stored[i].to_string())
        << "record " << i;
  }
}

TEST(FoldParity, SinkIsScopedToOneRun) {
  // A sink sees the steps of the run() it was passed to, and no later ones.
  CallCostFold fold;
  std::unique_ptr<SharedMemory> mem = make_model_by_name("cc", 2);
  auto alg = make_signal_factory_by_name("flag", 1)(*mem);
  SignalingAlgorithm* a = alg.get();
  std::vector<Program> programs;
  programs.emplace_back(
      [a](ProcCtx& ctx) { return polling_waiter(ctx, a, 5); });
  programs.emplace_back([a](ProcCtx& ctx) { return signaler(ctx, a, 0); });
  Simulation sim(*mem, std::move(programs));
  RoundRobinScheduler rr;
  sim.run(rr, 3, &fold);
  sim.run(rr, 1'000);
  fold.finish();
  std::uint64_t calls = 0;
  for (const CallCodeTotals& t : fold.totals()) calls += t.count;
  EXPECT_EQ(calls, 2u);  // the two calls begun within the first 3 steps
}

// ---- span rules on hand-built histories ---------------------------------

StepRecord event_rec(ProcId p, EventKind e, Word code = 0, Word value = 0) {
  StepRecord r;
  r.proc = p;
  r.kind = StepRecord::Kind::kEvent;
  r.event = e;
  r.code = code;
  r.value = value;
  return r;
}

StepRecord mem_rec(ProcId p, bool rmr) {
  StepRecord r;
  r.proc = p;
  r.kind = StepRecord::Kind::kMemOp;
  r.op = MemOp::read(0);
  r.outcome.rmr = rmr;
  return r;
}

TEST(CallCostFold, TotalsMatchPerCallCostsOnNestedAndMismatchedSpans) {
  History h;
  h.append(event_rec(0, EventKind::kCallBegin, calls::kAcquire));
  h.append(mem_rec(0, true));
  h.append(event_rec(0, EventKind::kCallBegin, calls::kPoll));
  h.append(mem_rec(0, true));
  h.append(mem_rec(0, true));
  // The acquire's end closes the nested poll above it, unfinished.
  h.append(event_rec(0, EventKind::kCallEnd, calls::kAcquire, 1));
  // An end with no begin is ignored.
  h.append(event_rec(1, EventKind::kCallEnd, calls::kPoll, 1));
  h.append(event_rec(1, EventKind::kCallBegin, calls::kPoll));
  for (int i = 0; i < 70; ++i) h.append(mem_rec(1, true));
  h.append(event_rec(1, EventKind::kCallEnd, calls::kPoll, 0));

  CallCostFold fold;
  for (const StepRecord& r : h.records()) fold.on_step(r);
  fold.finish();
  ASSERT_EQ(fold.totals().size(), 2u);
  const CallCodeTotals& acquire = fold.totals()[0];
  const CallCodeTotals& poll = fold.totals()[1];
  EXPECT_EQ(acquire.call_code, calls::kAcquire);
  EXPECT_EQ(acquire.count, 1u);
  EXPECT_EQ(acquire.completed, 1u);
  EXPECT_EQ(acquire.rmrs, 1u);
  EXPECT_EQ(poll.count, 2u);
  EXPECT_EQ(poll.completed, 1u);  // the nested one was closed unfinished
  EXPECT_EQ(poll.rmrs, 72u);
  EXPECT_EQ(poll.rmrs_min, 2u);
  EXPECT_EQ(poll.rmrs_max, 70u);
  EXPECT_EQ(poll.rmrs_per_call[2], 1u);  // 2 RMRs: bucket "<= 2"
  EXPECT_EQ(poll.rmrs_per_call[8], 1u);  // 70 RMRs: the unbounded bucket
  EXPECT_EQ(call_totals_json(fold.totals()),
            call_totals_json(call_code_totals(per_call_costs(h))));
}

TEST(CallCostFold, CrashLeavesTheCutCallOpenUntilFinish) {
  // A crash closes nothing: the abandoned call keeps accruing its process's
  // steps (here the recovery's first step) until the recovered program's
  // next call nests above it; finish() closes it unfinished.
  History h;
  h.append(event_rec(0, EventKind::kCallBegin, calls::kPoll));
  h.append(mem_rec(0, true));
  h.append(event_rec(0, EventKind::kCrash));
  h.append(event_rec(0, EventKind::kRecover));
  h.append(mem_rec(0, true));
  h.append(event_rec(0, EventKind::kCallBegin, calls::kPoll));
  h.append(mem_rec(0, false));
  h.append(event_rec(0, EventKind::kCallEnd, calls::kPoll, 1));
  const auto costs = per_call_costs(h);
  ASSERT_EQ(costs.size(), 2u);
  EXPECT_FALSE(costs[0].completed);
  EXPECT_EQ(costs[0].mem_steps, 2u);
  EXPECT_EQ(costs[0].rmrs, 2u);
  EXPECT_TRUE(costs[1].completed);
  EXPECT_EQ(costs[1].call_index, 1);
  EXPECT_EQ(costs[1].mem_steps, 1u);
  EXPECT_EQ(costs[1].rmrs, 0u);
}

TEST(SpecFold, ReportsTheEarliestBegunViolationNotTheFirstEnded) {
  History h;
  h.append(event_rec(0, EventKind::kCallBegin, calls::kSignal));   // 0
  h.append(event_rec(0, EventKind::kCallEnd, calls::kSignal));     // 1
  h.append(event_rec(1, EventKind::kCallBegin, calls::kPoll));     // 2
  h.append(event_rec(2, EventKind::kCallBegin, calls::kPoll));     // 3
  h.append(event_rec(2, EventKind::kCallEnd, calls::kPoll, 0));    // 4
  h.append(event_rec(1, EventKind::kCallEnd, calls::kPoll, 0));    // 5
  const auto v = check_polling_spec(h);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->step_index, 5);  // proc 1's poll began first
  EXPECT_EQ(v->what,
            "Poll() returned false although a Signal() completed before it "
            "began");
}

TEST(SpecFold, CrashAbandonsOpenCallsAndACutSignalNeverCompletes) {
  History h;
  h.append(event_rec(0, EventKind::kCallBegin, calls::kSignal));  // 0
  h.append(event_rec(0, EventKind::kCrash));                      // 1
  // The signal began (clause 1 is satisfied from here on) but never
  // completed, so a false Poll() is legal.
  h.append(event_rec(1, EventKind::kCallBegin, calls::kPoll));    // 2
  h.append(event_rec(1, EventKind::kCallEnd, calls::kPoll, 0));   // 3
  h.append(event_rec(1, EventKind::kCallBegin, calls::kPoll));    // 4
  h.append(event_rec(1, EventKind::kCallEnd, calls::kPoll, 1));   // 5
  // An end after the crash matches no open span and completes nothing.
  h.append(event_rec(0, EventKind::kCallEnd, calls::kSignal));    // 6
  h.append(event_rec(2, EventKind::kCallBegin, calls::kPoll));    // 7
  h.append(event_rec(2, EventKind::kCallEnd, calls::kPoll, 0));   // 8
  // A crashed waiter's open Poll() imposes nothing.
  h.append(event_rec(3, EventKind::kCallBegin, calls::kWait));    // 9
  h.append(event_rec(3, EventKind::kCrash));                      // 10
  h.append(event_rec(3, EventKind::kCallEnd, calls::kWait));      // 11
  EXPECT_FALSE(check_polling_spec(h).has_value());
  EXPECT_FALSE(check_blocking_spec(h).has_value());

  History early;
  early.append(event_rec(1, EventKind::kCallBegin, calls::kWait));
  early.append(event_rec(1, EventKind::kCallEnd, calls::kWait));
  early.append(event_rec(1, EventKind::kCallBegin, calls::kPoll));
  early.append(event_rec(1, EventKind::kCallEnd, calls::kPoll, 1));
  const auto wait = check_blocking_spec(early);
  ASSERT_TRUE(wait.has_value());
  EXPECT_EQ(wait->step_index, 1);
  EXPECT_EQ(wait->what, "Wait() returned but no Signal() had begun");
  const auto poll = check_polling_spec(early);
  ASSERT_TRUE(poll.has_value());
  EXPECT_EQ(poll->step_index, 3);
  EXPECT_EQ(poll->what, "Poll() returned true but no Signal() had begun");
}

}  // namespace
}  // namespace rmrsim
