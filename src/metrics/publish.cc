#include "metrics/publish.h"

#include <array>
#include <string>

#include "coherence/cache_controller.h"
#include "coherence/protocols.h"
#include "coherence/write_buffer.h"
#include "history/history.h"
#include "memory/ledger.h"
#include "runtime/simulation.h"
#include "trace/call_stats.h"

namespace rmrsim {

namespace {

std::string call_name(Word code) {
  switch (code) {
    case calls::kPoll: return "poll";
    case calls::kSignal: return "signal";
    case calls::kWait: return "wait";
    case calls::kAcquire: return "acquire";
    case calls::kRelease: return "release";
    case calls::kCritical: return "critical";
    case calls::kGmeEnter: return "gme_enter";
    case calls::kGmeExit: return "gme_exit";
    case calls::kRecover: return "recover";
  }
  return "code" + std::to_string(code);
}

}  // namespace

void publish_ledger(MetricsRegistry& reg, const RmrLedger& ledger) {
  reg.add("ledger.total_ops", ledger.total_ops());
  reg.add("ledger.total_rmrs", ledger.total_rmrs());
  reg.add("ledger.max_rmrs", ledger.max_rmrs());
  reg.add("ledger.local_ops", ledger.total_ops() - ledger.total_rmrs());
  for (ProcId p = 0; p < ledger.nprocs(); ++p) {
    if (ledger.ops(p) == 0) continue;
    reg.observe("ledger.proc_rmrs", static_cast<double>(ledger.rmrs(p)));
  }
}

void publish_history(MetricsRegistry& reg, const History& h) {
  reg.add("history.steps", h.size());
  reg.add("history.participants", h.participants().size());
  reg.add("history.finished", h.finished().size());
  // Counter-backed so counters-only histories publish too; the counts are
  // identical to scanning the records for kCrash/kRecover events.
  reg.add("history.crashes", h.crash_events());
  reg.add("history.recoveries", h.recovery_events());
}

void publish_simulation(MetricsRegistry& reg, const Simulation& sim) {
  publish_ledger(reg, sim.memory().ledger());
  publish_history(reg, sim.history());
  reg.add("sim.schedule_entries", sim.schedule().size());
  reg.add("sim.clock", sim.now());
}

void publish_call_totals(MetricsRegistry& reg,
                         const std::vector<CallCodeTotals>& totals) {
  static constexpr auto kRmrBounds = [] {
    std::array<double, kRmrsPerCallBounds.size()> b{};
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<double>(kRmrsPerCallBounds[i]);
    }
    return b;
  }();
  for (const CallCodeTotals& t : totals) {
    if (t.count == 0) continue;
    const std::string base = "calls." + call_name(t.call_code);
    reg.add(base + ".count", t.count);
    if (t.completed > 0) reg.add(base + ".completed", t.completed);
    reg.add(base + ".rmrs", t.rmrs);
    reg.add(base + ".mem_steps", t.mem_steps);
    reg.add(base + ".cycles", t.cycles);
    reg.merge_summary(base + ".rmrs_summary",
                      {.count = t.count,
                       .sum = static_cast<double>(t.rmrs),
                       .min = static_cast<double>(t.rmrs_min),
                       .max = static_cast<double>(t.rmrs_max)});
    reg.histogram_merge(base + ".rmrs_per_call", kRmrBounds, t.rmrs_per_call);
  }
}

void publish_call_costs(MetricsRegistry& reg,
                        const std::vector<CallCost>& costs) {
  publish_call_totals(reg, call_code_totals(costs));
}

void publish_messages(MetricsRegistry& reg, const MessageCounter& counter) {
  const std::string base = "msgs." + std::string(counter.name());
  reg.add(base + ".transfers", counter.transfer_messages());
  reg.add(base + ".invalidations", counter.invalidation_messages());
  reg.add(base + ".useful", counter.useful_invalidations());
  reg.add(base + ".superfluous", counter.superfluous_invalidations());
  reg.add(base + ".updates", counter.update_messages());
  reg.add(base + ".total", counter.total_messages());
}

void publish_protocol(MetricsRegistry& reg, const SnoopingCache& cache) {
  publish_messages(reg, cache);
  const ProtocolStats& s = cache.stats();
  const std::string base = "cycles." + std::string(cache.name());
  reg.add(base + ".total", s.cycles);
  reg.add(base + ".hits", s.cache_hits);
  reg.add(base + ".memory_fetches", s.memory_fetches);
  reg.add(base + ".cache_transfers", s.cache_transfers);
  reg.add(base + ".bus_signals", s.bus_signals);
  reg.add(base + ".bus_updates", s.bus_updates);
  reg.add(base + ".write_backs", s.write_backs);
  for (ProcId p = 0; p < cache.nprocs(); ++p) {
    const std::uint64_t cy = cache.proc_cycles(p);
    if (cy == 0) continue;
    reg.observe(base + ".proc_cycles", static_cast<double>(cy));
  }
}

void publish_write_buffer(MetricsRegistry& reg, const WriteBuffer& wb) {
  reg.add("wb.buffered", wb.buffered_writes());
  reg.add("wb.coalesced", wb.coalesced_writes());
  reg.add("wb.forwarded", wb.forwarded_reads());
  reg.add("wb.drained", wb.drained_writes());
}

}  // namespace rmrsim
