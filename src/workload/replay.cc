#include "workload/replay.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "coherence/fleet.h"
#include "coherence/protocols.h"
#include "coherence/write_buffer.h"
#include "common/check.h"
#include "memory/shared_memory.h"
#include "metrics/publish.h"
#include "runtime/simulation.h"
#include "sched/schedulers.h"

namespace rmrsim {

namespace {

ProcTask replay_program(ProcCtx& ctx, const std::vector<MemOp>* ops) {
  for (const MemOp& op : *ops) (void)co_await ctx.apply(op);
}

ProcId home_for(const AddrMapSpec& map, std::uint64_t addr, ProcId toucher,
                int nprocs) {
  switch (map.policy) {
    case AddrMapSpec::Policy::kGlobal:
      return kNoProc;
    case AddrMapSpec::Policy::kFirstTouch:
      return toucher;
    case AddrMapSpec::Policy::kInterleave:
      return static_cast<ProcId>((addr / map.block) %
                                 static_cast<std::uint64_t>(nprocs));
  }
  return kNoProc;
}

MemOp to_mem_op(const TraceOp& t, VarId var) {
  switch (t.kind) {
    case TraceOpKind::kRead:
      return MemOp::read(var);
    case TraceOpKind::kWrite:
      return MemOp::write(var, t.arg0);
    case TraceOpKind::kCas:
      return MemOp::cas(var, t.arg0, t.arg1);
    case TraceOpKind::kFaa:
      return MemOp::faa(var, t.arg0);
    case TraceOpKind::kFas:
      return MemOp::fas(var, t.arg0);
    case TraceOpKind::kTas:
      return MemOp::tas(var);
    case TraceOpKind::kFence:
      break;  // handled by the caller (per-proc fence variable)
  }
  fail("replay: unexpected trace op kind");
}

}  // namespace

MetricsRegistry replay_trace_core(const Trace& trace, SharedMemory& mem,
                                  const AddrMapSpec& addr_map) {
  ensure(trace.nprocs >= 1, "replay: trace has no processors");
  ensure(mem.nprocs() == trace.nprocs,
         "replay: memory was built for a different processor count");
  ensure(addr_map.block > 0, "replay: address-map block must be positive");

  // Fence barriers first (fixed ids), then trace variables in first-touch
  // order — the allocation order, and with it every VarId, is a pure
  // function of (trace, addr_map), which byte-stable artifacts need.
  std::vector<VarId> fence(trace.nprocs);
  for (int p = 0; p < trace.nprocs; ++p) {
    fence[p] = mem.allocate_local(static_cast<ProcId>(p), 0);
  }
  std::unordered_map<std::uint64_t, VarId> vars;
  vars.reserve(1024);
  std::vector<std::vector<MemOp>> per_proc(trace.nprocs);
  std::vector<ProcId> script;
  script.reserve(trace.ops.size());
  std::uint64_t fences = 0;
  for (const TraceOp& t : trace.ops) {
    ensure(t.proc >= 0 && t.proc < trace.nprocs,
           "replay: trace op proc out of range");
    script.push_back(t.proc);
    if (t.kind == TraceOpKind::kFence) {
      ++fences;
      per_proc[t.proc].push_back(MemOp::faa(fence[t.proc], 0));
      continue;
    }
    auto [it, inserted] = vars.try_emplace(t.addr, kNoVar);
    if (inserted) {
      it->second = mem.allocate(
          0, home_for(addr_map, t.addr, t.proc, trace.nprocs));
    }
    per_proc[t.proc].push_back(to_mem_op(t, it->second));
  }

  std::vector<Program> programs;
  programs.reserve(trace.nprocs);
  for (int p = 0; p < trace.nprocs; ++p) {
    const std::vector<MemOp>* ops = &per_proc[p];
    programs.emplace_back(
        [ops](ProcCtx& ctx) { return replay_program(ctx, ops); });
  }
  Simulation sim(mem, std::move(programs));
  sim.set_history_mode(HistoryMode::kCountersOnly);
  ScriptedScheduler sched(std::move(script));
  const Simulation::RunResult run = sim.run(sched, trace.ops.size() + 1);
  ensure(run.steps == trace.ops.size() && run.all_terminated,
         "replay: trace did not run to completion");

  MetricsRegistry reg;
  publish_simulation(reg, sim);
  reg.set("trace.ops", static_cast<double>(trace.ops.size()));
  reg.set("trace.procs", static_cast<double>(trace.nprocs));
  reg.set("trace.vars", static_cast<double>(vars.size()));
  reg.set("trace.fences", static_cast<double>(fences));
  reg.set("rmrs.per_op",
          static_cast<double>(mem.ledger().total_rmrs()) /
              std::max<double>(1.0,
                               static_cast<double>(mem.ledger().total_ops())));
  return reg;
}

MetricsRegistry replay_trace(const Trace& trace, SharedMemory& mem,
                             const ReplayOptions& opts) {
  // The legacy counters price each access from the SharedMemory outcome
  // computed when it was applied; a drained (or coalesced) store reaches
  // them later, against a different sharer set, so their tallies would be
  // silently wrong.
  ensure(!(opts.legacy_counters && opts.write_buffer > 0),
         "replay: the legacy message counters cannot run behind a write "
         "buffer (they would price drained stores with stale sharer sets)");
  std::vector<std::unique_ptr<SnoopingCache>> caches;
  ListenerFanout fanout;
  for (const std::string& name : opts.protocols) {
    auto cache = make_protocol(name, trace.nprocs, opts.costs);
    ensure(cache != nullptr, "replay: unknown protocol '" + name +
                                 "' (want mesi|mesif|moesi|dragon)");
    fanout.add(cache.get());
    caches.push_back(std::move(cache));
  }
  BusBroadcastCounter bus;
  IdealDirectoryCounter ideal;
  CoarseDirectoryCounter coarse(trace.nprocs);
  if (opts.legacy_counters) {
    fanout.add(&bus);
    fanout.add(&ideal);
    fanout.add(&coarse);
  }
  std::unique_ptr<WriteBuffer> wb;
  const bool any_listener = !caches.empty() || opts.legacy_counters;
  if (any_listener && opts.write_buffer > 0) {
    wb = std::make_unique<WriteBuffer>(&fanout, trace.nprocs,
                                       opts.write_buffer);
  }
  if (any_listener) {
    mem.set_listener(wb != nullptr ? static_cast<CoherenceListener*>(wb.get())
                                   : &fanout);
  }

  MetricsRegistry reg = replay_trace_core(trace, mem, opts.addr_map);

  if (any_listener) {
    mem.listener()->flush();
    mem.set_listener(nullptr);
  }
  const double ops =
      std::max<double>(1.0, static_cast<double>(trace.ops.size()));
  bool invariants_ok = true;
  for (const auto& cache : caches) {
    publish_protocol(reg, *cache);
    const std::string name(cache->name());
    reg.set("msgs." + name + ".per_op",
            static_cast<double>(cache->total_messages()) / ops);
    reg.set("cycles." + name + ".per_op",
            static_cast<double>(cache->total_cycles()) / ops);
    if (cache->check_invariants().has_value()) invariants_ok = false;
  }
  if (!caches.empty()) {
    reg.set("protocol.invariants_ok", invariants_ok ? 1.0 : 0.0);
  }
  if (opts.legacy_counters) {
    for (const MessageCounter* c : {static_cast<MessageCounter*>(&bus),
                                    static_cast<MessageCounter*>(&ideal),
                                    static_cast<MessageCounter*>(&coarse)}) {
      publish_messages(reg, *c);
      reg.set("msgs." + std::string(c->name()) + ".per_op",
              static_cast<double>(c->total_messages()) / ops);
    }
  }
  if (wb != nullptr) publish_write_buffer(reg, *wb);
  return reg;
}

}  // namespace rmrsim
