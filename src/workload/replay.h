// Trace replay: a parsed or generated trace driven through the simulator.
//
// The trace's global op order becomes the schedule (ScriptedScheduler) and
// its per-processor subsequences become coroutine programs, so a replay is
// an ordinary Simulation run: every op is priced by whatever cost model
// the SharedMemory carries (DSM or any CC policy), the RMR ledger
// accumulates as usual, and any attached CoherenceListener — a single
// protocol, the whole ProtocolFleet, a write buffer in front of either —
// sees the exact event stream. History runs in counters-only mode, so
// million-op traces cost memory proportional to the processor count, not
// the op count.
//
// FENCE ops are replayed as a 0-valued FAA on a per-processor variable
// homed at that processor: local under DSM, cache-resident under CC, and
// an atomic primitive — which is precisely the write-buffer drain barrier
// the trace format means by "fence". Fences are counted in trace.fences
// and in the ledger's op totals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coherence/stats.h"
#include "metrics/registry.h"
#include "workload/trace.h"

namespace rmrsim {

class SharedMemory;
class CoherenceListener;

struct ReplayOptions {
  AddrMapSpec addr_map{};
  /// Protocol state machines to ride the replay ("mesi", ...); empty = none.
  std::vector<std::string> protocols;
  /// Also attach the legacy Section 8 message counters (bus/ideal/coarse).
  /// Refused together with write_buffer > 0: they price each store with
  /// the sharer set it was applied against, not the one it drains into.
  bool legacy_counters = false;
  /// Per-processor store-buffer entries in front of the protocols; 0 = off.
  int write_buffer = 0;
  CycleCosts costs{};
};

/// Low-level replay: drives `trace` through `mem` exactly as configured by
/// the caller — any listener already attached to `mem` stays attached and
/// sees the event stream (the caller owns attaching and flushing it).
/// `mem` must be freshly constructed for trace.nprocs processors with no
/// variables allocated. Publishes the simulation (ledger.*, history.*,
/// sim.*) plus the trace.* gauges and rmrs.per_op; throws if the replay
/// fails to run every op to completion.
MetricsRegistry replay_trace_core(const Trace& trace, SharedMemory& mem,
                                  const AddrMapSpec& addr_map = {});

/// Full replay: builds the protocol rig requested by `opts` (state
/// machines, optional legacy counters, optional write buffer), attaches
/// it, replays, flushes, and publishes everything — the core metrics plus
/// msgs.<proto>.* / cycles.<proto>.* with per-op gauges, wb.* when
/// buffered, and protocol.invariants_ok (1.0 iff every state machine's
/// invariants held). Throws on unknown protocol names.
MetricsRegistry replay_trace(const Trace& trace, SharedMemory& mem,
                             const ReplayOptions& opts = {});

}  // namespace rmrsim
