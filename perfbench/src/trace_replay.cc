// trace_zipf: a generated 64-processor trace, encoded to the binary format
// in set-up, then parsed and replayed under the cc and dsm cost models with
// all four protocol state machines attached behind an 8-entry write buffer.
//
// Untraced, a pass calls parse_trace_binary and replay_trace, which builds
// the protocol rig itself. Traced, the benchmark builds the same rig around
// replay_trace_core so it can put a TimedListener around each protocol,
// around the fan-out that feeds them, and around the write buffer.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "coherence/fleet.h"
#include "coherence/protocols.h"
#include "coherence/write_buffer.h"
#include "common/check.h"
#include "decorators.h"
#include "harness/drive.h"
#include "metrics/publish.h"
#include "workload.h"
#include "workload/generators.h"
#include "workload/replay.h"
#include "workload/trace.h"

namespace perfbench {

namespace {

using namespace rmrsim;

constexpr int kProcs = 64;
constexpr int kWriteBuffer = 8;
const char* const kModels[] = {"cc", "dsm"};

Layer protocol_layer(const std::string& name) {
  if (name == "mesi") return Layer::kCoherenceMesi;
  if (name == "mesif") return Layer::kCoherenceMesif;
  if (name == "moesi") return Layer::kCoherenceMoesi;
  if (name == "dragon") return Layer::kCoherenceDragon;
  fail("perfbench: no layer for protocol '" + name + "'");
}

/// Self-test fault: answers one classify_rmr call wrongly.
class MispricingModel final : public CostModel {
 public:
  explicit MispricingModel(std::unique_ptr<CostModel> inner)
      : inner_(std::move(inner)) {}
  std::unique_ptr<CostModel> clone() const override {
    return std::make_unique<MispricingModel>(inner_->clone());
  }
  bool classify_rmr(ProcId p, const MemOp& op,
                    const MemoryStore& store) const override {
    return inner_->classify_rmr(p, op, store) != (++calls_ == 1000);
  }
  void on_applied(ProcId p, const MemOp& op, bool wrote,
                  const MemoryStore& store, int* remote) override {
    inner_->on_applied(p, op, wrote, store, remote);
  }
  void reset() override { inner_->reset(); }
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<CostModel> inner_;
  mutable std::uint64_t calls_ = 0;
};

/// Self-test fault: delivers the first pair of consecutive conflicting
/// events (same variable, different processors, one of them a write) in
/// swapped order.
class ReorderingListener final : public CoherenceListener {
 public:
  explicit ReorderingListener(CoherenceListener* inner) : inner_(inner) {}
  void on_event(const CoherenceEvent& e) override {
    if (!held_) {
      held_ = e;
      return;
    }
    if (!swapped_ && held_->var == e.var && held_->proc != e.proc &&
        held_->nontrivial != e.nontrivial) {
      swapped_ = true;
      inner_->on_event(e);
    } else {
      inner_->on_event(*held_);
      held_ = e;
      return;
    }
    inner_->on_event(*held_);
    held_.reset();
  }
  void on_crash(ProcId p) override { inner_->on_crash(p); }
  void flush() override {
    if (held_) inner_->on_event(*held_);
    held_.reset();
    inner_->flush();
  }

 private:
  CoherenceListener* inner_;
  std::optional<CoherenceEvent> held_;
  bool swapped_ = false;
};

class TraceReplay final : public Workload {
 public:
  TraceReplay(std::uint64_t ops, std::uint64_t seed, Sabotage sabotage)
      : ops_(ops),
        seed_(seed),
        sabotage_(sabotage) {}

  const char* throughput_name() const override { return "trace_ops_per_s"; }
  bool seeded() const override { return true; }

  void setup() override {
    std::string().swap(bytes_);  // a user's run holds one trace, not two
    Trace trace;
    {
      const Frame f(Layer::kWorkloadGenerate, "workload.generate");
      trace = generate_trace(GenSpec{"zipf", kProcs, ops_, seed_});
    }
    const Frame f(Layer::kWorkloadEncode, "workload.encode");
    bytes_ = trace_to_binary(trace);
  }

  PassResult pass(bool traced, Checks& checks) override {
    PassResult out;
    Trace trace;
    {
      const Frame f(Layer::kWorkloadParse, "workload.parse");
      trace = parse_trace_binary(bytes_);
    }
    Counts counts;
    for (const char* model : kModels) {
      MetricsRegistry reg;
      if (traced) {
        reg = traced_replay(trace, model, counts);
      } else {
        auto mem = make_model_by_name(model, trace.nprocs);
        ReplayOptions opts;
        opts.protocols = protocol_names();
        opts.write_buffer = kWriteBuffer;
        reg = replay_trace(trace, *mem, opts);
      }
      checks.expect(reg.value("protocol.invariants_ok") == 1.0,
                    std::string(model) + ": a protocol invariant failed");
      out.digest.add_registry(std::string(model) + "/", reg);
      out.items += static_cast<double>(trace.ops.size());
    }
    out.counts = std::move(counts);
    return out;
  }

 private:
  /// replay_trace's rig, decorated: the same protocols in the same fan-out
  /// order, the same write buffer, the same publication.
  MetricsRegistry traced_replay(const Trace& trace, const std::string& model,
                                Counts& counts) {
    std::unique_ptr<SharedMemory> mem;
    if (sabotage_ == Sabotage::kPricing) {
      mem = std::make_unique<SharedMemory>(
          trace.nprocs,
          std::make_unique<MispricingModel>(
              std::make_unique<TimedCostModel>(make_cost_model(model))));
    } else {
      mem = make_memory(model, trace.nprocs, /*traced=*/true);
    }
    std::vector<std::unique_ptr<SnoopingCache>> caches;
    std::vector<std::unique_ptr<TimedListener>> timed;
    ListenerFanout fanout;
    for (const std::string& name : protocol_names()) {
      caches.push_back(make_protocol(name, trace.nprocs));
      timed.push_back(std::make_unique<TimedListener>(caches.back().get(),
                                                      protocol_layer(name)));
      fanout.add(timed.back().get());
    }
    TimedListener fleet(&fanout, Layer::kCoherenceFleet);
    ReorderingListener reordered(&fleet);
    CoherenceListener* front = &fleet;
    if (sabotage_ == Sabotage::kEventOrder) front = &reordered;
    WriteBuffer wb(front, trace.nprocs, kWriteBuffer);
    TimedListener timed_wb(&wb, Layer::kCoherenceWb);
    mem->set_listener(&timed_wb);

    MetricsRegistry reg;
    {
      const Frame f(Layer::kWorkloadReplay, "workload.replay " + model);
      reg = replay_trace_core(trace, *mem);
    }
    timed_wb.flush();
    mem->set_listener(nullptr);

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
      add_count(counts, "coherence." + name + "_invalidations",
           static_cast<double>(cache->invalidation_messages()));
    }
    reg.set("protocol.invariants_ok", invariants_ok ? 1.0 : 0.0);
    publish_write_buffer(reg, wb);

    add_count(counts, "coherence.events",
              static_cast<double>(timed_wb.events()));
    add_count(counts, "runtime.steps", reg.value("history.steps"));
    return reg;
  }

  std::uint64_t ops_;
  std::uint64_t seed_;
  Sabotage sabotage_;
  std::string bytes_;
};

}  // namespace

std::unique_ptr<Workload> make_trace_replay(std::uint64_t ops,
                                            std::uint64_t seed,
                                            Sabotage sabotage) {
  return std::make_unique<TraceReplay>(ops, seed, sabotage);
}

}  // namespace perfbench
