// Timing decorators for the interfaces the modules take.
//
// Each decorator forwards every call to the object it wraps, unchanged and
// in order, and opens a Frame around the forwarded call. Nothing else: a
// traced pass must produce byte-identical simulated statistics to an
// untraced one, and the benchmark checks that it does.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "memory/cost_model.h"
#include "runtime/simulation.h"
#include "tracer.h"
#include "verify/explorer.h"

namespace perfbench {

/// Wraps the CostModel handed to SharedMemory. A clone is wrapped again,
/// so forked and snapshot-restored worlds stay traced.
class TimedCostModel final : public rmrsim::CostModel {
 public:
  explicit TimedCostModel(std::unique_ptr<rmrsim::CostModel> inner)
      : inner_(std::move(inner)) {}

  std::unique_ptr<rmrsim::CostModel> clone() const override {
    const Frame f(Layer::kMemoryClone);
    return std::make_unique<TimedCostModel>(inner_->clone());
  }
  bool classify_rmr(rmrsim::ProcId p, const rmrsim::MemOp& op,
                    const rmrsim::MemoryStore& store) const override {
    const Frame f(Layer::kMemoryClassify);
    const bool rmr = inner_->classify_rmr(p, op, store);
    if (rmr) note_rmr();
    return rmr;
  }
  void on_applied(rmrsim::ProcId p, const rmrsim::MemOp& op, bool wrote,
                  const rmrsim::MemoryStore& store,
                  int* remote_copies_before) override {
    const Frame f(Layer::kMemoryOnApplied);
    inner_->on_applied(p, op, wrote, store, remote_copies_before);
  }
  void reset() override { inner_->reset(); }
  void on_crash(rmrsim::ProcId p) override { inner_->on_crash(p); }
  std::string_view name() const override { return inner_->name(); }
  void save_state(std::string& out) const override {
    inner_->save_state(out);
  }
  void load_state(rmrsim::ByteReader& r) override { inner_->load_state(r); }
  bool pricing_is_stateless() const override {
    return inner_->pricing_is_stateless();
  }

 private:
  std::unique_ptr<rmrsim::CostModel> inner_;
};

/// Wraps the Scheduler handed to Simulation::run.
class TimedScheduler final : public rmrsim::Scheduler {
 public:
  explicit TimedScheduler(rmrsim::Scheduler& inner) : inner_(inner) {}

  rmrsim::ProcId next(rmrsim::Simulation& sim) override {
    const Frame f(Layer::kSchedNext);
    return inner_.next(sim);
  }

 private:
  rmrsim::Scheduler& inner_;
};

/// Wraps a CoherenceListener (one protocol state machine, the fan-out in
/// front of them, or the write buffer) and counts the events it forwards.
class TimedListener final : public rmrsim::CoherenceListener {
 public:
  TimedListener(rmrsim::CoherenceListener* inner, Layer layer)
      : inner_(inner), layer_(layer) {}

  void on_event(const rmrsim::CoherenceEvent& event) override {
    ++events_;
    const Frame f(layer_);
    inner_->on_event(event);
  }
  void on_crash(rmrsim::ProcId p) override {
    const Frame f(layer_);
    inner_->on_crash(p);
  }
  void flush() override {
    const Frame f(layer_);
    inner_->flush();
  }

  std::uint64_t events() const { return events_; }

 private:
  rmrsim::CoherenceListener* inner_;
  Layer layer_;
  std::uint64_t events_ = 0;
};

/// Wraps the ExploreBuilder handed to explore_dpor.
inline rmrsim::ExploreBuilder timed_builder(rmrsim::ExploreBuilder inner) {
  return [inner = std::move(inner)]() {
    const Frame f(Layer::kVerifyBuild);
    return inner();
  };
}

/// Wraps the ExploreChecker handed to explore_dpor.
inline rmrsim::ExploreChecker timed_checker(rmrsim::ExploreChecker inner) {
  return [inner = std::move(inner)](const rmrsim::History& h) {
    const Frame f(Layer::kVerifyCheck);
    return inner(h);
  };
}

}  // namespace perfbench
