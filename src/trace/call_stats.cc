#include "trace/call_stats.h"

#include <algorithm>

namespace rmrsim {

void CallCodeTotals::add(const CallCost& c) {
  rmrs_min = count == 0 ? c.rmrs : std::min(rmrs_min, c.rmrs);
  rmrs_max = count == 0 ? c.rmrs : std::max(rmrs_max, c.rmrs);
  ++count;
  if (c.completed) ++completed;
  rmrs += c.rmrs;
  mem_steps += c.mem_steps;
  cycles += c.cycles;
  // Inclusive upper bounds: the first bound >= rmrs names the bucket.
  ++rmrs_per_call[static_cast<std::size_t>(
      std::lower_bound(kRmrsPerCallBounds.begin(), kRmrsPerCallBounds.end(),
                       c.rmrs) -
      kRmrsPerCallBounds.begin())];
}

namespace {

CallCodeTotals& totals_for(std::vector<CallCodeTotals>& totals, Word code) {
  for (CallCodeTotals& t : totals) {
    if (t.call_code == code) return t;
  }
  totals.push_back(CallCodeTotals{.call_code = code});
  return totals.back();
}

}  // namespace

std::vector<CallCodeTotals> call_code_totals(
    const std::vector<CallCost>& costs) {
  std::vector<CallCodeTotals> out;
  for (const CallCost& c : costs) totals_for(out, c.call_code).add(c);
  return out;
}

CallCostFold::ProcState& CallCostFold::proc_state(ProcId p) {
  const auto idx = static_cast<std::size_t>(p);
  if (idx >= procs_.size()) procs_.resize(idx + 1);
  return procs_[idx];
}

void CallCostFold::close(const OpenCall& call) {
  totals_for(totals_, call.cost.call_code).add(call.cost);
  if (keep_calls_) calls_[call.slot] = call.cost;
}

void CallCostFold::on_priced_step(const StepRecord& r, std::uint64_t cycles) {
  if (r.kind == StepRecord::Kind::kMemOp) {
    // Exclusive attribution to the proc's innermost open call, if any.
    const auto idx = static_cast<std::size_t>(r.proc);
    if (idx >= procs_.size() || procs_[idx].open.empty()) return;
    CallCost& c = procs_[idx].open.back().cost;
    ++c.mem_steps;
    if (r.outcome.rmr) ++c.rmrs;
    c.cycles += cycles;
    return;
  }
  if (r.event == EventKind::kCallBegin) {
    ProcState& ps = proc_state(r.proc);
    OpenCall call;
    call.cost.proc = r.proc;
    call.cost.call_code = r.code;
    auto begun = std::find_if(ps.begun.begin(), ps.begun.end(),
                              [&](const auto& e) { return e.first == r.code; });
    if (begun == ps.begun.end()) {
      ps.begun.emplace_back(r.code, 0);
      begun = ps.begun.end() - 1;
    }
    call.cost.call_index = begun->second++;
    if (keep_calls_) {
      call.slot = calls_.size();
      calls_.push_back(call.cost);
    }
    ps.open.push_back(call);
  } else if (r.event == EventKind::kCallEnd) {
    // Close the innermost open call of this code, and with it everything
    // nested above it: a call cannot outlive its end record's position.
    const auto idx = static_cast<std::size_t>(r.proc);
    if (idx >= procs_.size()) return;
    std::vector<OpenCall>& open = procs_[idx].open;
    for (std::size_t i = open.size(); i-- > 0;) {
      if (open[i].cost.call_code != r.code) continue;
      open[i].cost.completed = true;
      open[i].cost.returned = r.value;
      for (std::size_t j = i; j < open.size(); ++j) close(open[j]);
      open.resize(i);
      break;
    }
  }
}

void CallCostFold::finish() {
  for (ProcState& ps : procs_) {
    for (const OpenCall& call : ps.open) close(call);
    ps.open.clear();
  }
}

std::vector<CallCost> per_call_costs(const History& h) {
  CallCostFold fold(/*keep_calls=*/true);
  for (const StepRecord& r : h.records()) fold.on_step(r);
  fold.finish();
  return std::move(fold.calls());
}

std::vector<CallCost> per_call_costs(
    const History& h, const std::vector<std::uint64_t>& cycle_log) {
  CallCostFold fold(/*keep_calls=*/true);
  std::size_t mem_step = 0;  // k-th memory step == k-th cycle_log entry
  for (const StepRecord& r : h.records()) {
    std::uint64_t cycles = 0;
    if (r.kind == StepRecord::Kind::kMemOp) {
      if (mem_step < cycle_log.size()) cycles = cycle_log[mem_step];
      ++mem_step;
    }
    fold.on_priced_step(r, cycles);
  }
  fold.finish();
  return std::move(fold.calls());
}

std::vector<CallCost> calls_of(const std::vector<CallCost>& costs, ProcId p,
                               Word call_code) {
  std::vector<CallCost> out;
  for (const CallCost& c : costs) {
    if (c.proc == p && c.call_code == call_code) out.push_back(c);
  }
  return out;
}

std::uint64_t max_rmrs_from_index(const std::vector<CallCost>& costs,
                                  Word call_code, int from_index) {
  std::uint64_t best = 0;
  for (const CallCost& c : costs) {
    if (c.call_code == call_code && c.call_index >= from_index) {
      best = std::max(best, c.rmrs);
    }
  }
  return best;
}

}  // namespace rmrsim
