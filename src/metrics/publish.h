// Publishers: one function per measurement source, pushing into a
// MetricsRegistry under a stable naming scheme.
//
// These replace the ad-hoc locals benches used to keep ("total RMRs here,
// max waiter RMRs there"): a simulation run is measured once, into a
// registry, and every consumer — text tables, BENCH_*.json artifacts, the
// asymptotic fitter — reads the same numbers under the same names.
//
// Naming scheme (all counters/gauges, flat keys):
//   ledger.total_ops, ledger.total_rmrs, ledger.max_rmrs, ledger.local_ops
//   history.steps, history.participants, history.finished,
//   history.crashes, history.recoveries
//   calls.<name>.count / .completed / .rmrs / .mem_steps  (+ summaries and
//     a per-call RMR histogram under calls.<name>.rmrs_per_call)
//   msgs.<protocol>.transfers / .invalidations / .useful / .superfluous /
//     .updates / .total
//   cycles.<protocol>.total / .hits / .memory_fetches / .cache_transfers /
//     .bus_signals / .bus_updates / .write_backs (+ a per-proc cycle
//     summary under cycles.<protocol>.proc_cycles)
#pragma once

#include <vector>

#include "metrics/registry.h"

namespace rmrsim {

class RmrLedger;
class History;
class Simulation;
class MessageCounter;
class SnoopingCache;
class WriteBuffer;
struct CallCost;
struct CallCodeTotals;

/// ledger.* totals plus a per-process RMR summary (ledger.proc_rmrs).
void publish_ledger(MetricsRegistry& reg, const RmrLedger& ledger);

/// history.* step and participation counts, including crash/recovery event
/// tallies on crashy histories.
void publish_history(MetricsRegistry& reg, const History& h);

/// Ledger + history of a finished simulation, plus sim.steps / sim.clock.
void publish_simulation(MetricsRegistry& reg, const Simulation& sim);

/// Per-call-code cost aggregates: counts, completion counts, RMR/mem-step/
/// cycle totals, an RMR summary, and a fixed-bucket histogram of RMRs per
/// call (bounds 0,1,2,4,8,16,32,64). One registry entry per code and
/// metric, however many calls the totals cover.
void publish_call_totals(MetricsRegistry& reg,
                         const std::vector<CallCodeTotals>& totals);

/// publish_call_totals over a per_call_costs slice.
void publish_call_costs(MetricsRegistry& reg,
                        const std::vector<CallCost>& costs);

/// msgs.<counter-name>.* tallies from a coherence message counter.
void publish_messages(MetricsRegistry& reg, const MessageCounter& counter);

/// cycles.<protocol>.* cost-model tallies from a protocol state machine
/// (implies publish_messages for its msgs.* side).
void publish_protocol(MetricsRegistry& reg, const SnoopingCache& cache);

/// wb.buffered / wb.coalesced / wb.forwarded / wb.drained tallies from a
/// store-buffer front end (call after flush() so drains are complete).
void publish_write_buffer(MetricsRegistry& reg, const WriteBuffer& wb);

}  // namespace rmrsim
