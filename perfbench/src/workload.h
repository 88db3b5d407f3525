// The benchmark's workloads.
//
// A workload builds its inputs in setup() and then runs passes over them.
// An untraced pass calls the modules' own public entry points exactly as a
// user of rmrsim does (the sweep registry's runners, replay_trace,
// explore_dpor). A traced pass does the same work through the timing
// decorators, assembling the pieces those entry points would assemble
// themselves wherever a decorator has to be slipped in; the digest check
// between the two passes is what keeps that assembly faithful.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "digest.h"
#include "memory/shared_memory.h"

namespace perfbench {

/// Counts a traced pass reports at module boundaries ("runtime.steps",
/// "verify.nodes", ...), beside the tracer's per-layer calls and times.
using Counts = std::vector<std::pair<std::string, double>>;

/// Adds `value` to the count `name`, appending it when new.
inline void add_count(Counts& counts, const std::string& name, double value) {
  for (auto& [n, total] : counts) {
    if (n == name) {
      total += value;
      return;
    }
  }
  counts.emplace_back(name, value);
}

struct PassResult {
  Digest digest;      ///< every simulated statistic of the pass
  double items = 0;   ///< work completed: grid points, trace ops or nodes
  Counts counts;      ///< traced passes only
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Name of the workload's throughput, e.g. "sweep_points_per_s".
  virtual const char* throughput_name() const = 0;
  /// True when the inputs depend on the seed, so the pinned statistics of
  /// the default seed do not apply to other seeds.
  virtual bool seeded() const = 0;

  /// Does what a user's run does before the timed phase: builds the
  /// pass's inputs (set-up time). Called many times; each call replaces
  /// the inputs of the last.
  virtual void setup() = 0;
  /// One pass over the inputs. Checks the pass's own invariants (fitted
  /// classes, protocol invariants, search verdict) into `checks`.
  virtual PassResult pass(bool traced, Checks& checks) = 0;
};

/// Deliberate decorator faults for the self-test: a traced pass must then
/// fail the traced-versus-untraced comparison.
enum class Sabotage { kNone, kPricing, kEventOrder };

std::unique_ptr<Workload> make_paper_sweep();
/// trace_zipf over a zipf trace of `ops` operations.
std::unique_ptr<Workload> make_trace_replay(
    std::uint64_t ops, std::uint64_t seed,
    Sabotage sabotage = Sabotage::kNone);
std::unique_ptr<Workload> make_explore();

/// Cost model by name, as make_model_by_name builds it: "dsm" or "cc"
/// (write-through).
std::unique_ptr<rmrsim::CostModel> make_cost_model(const std::string& model);

/// SharedMemory for the named model (make_cost_model), its cost model
/// wrapped in a TimedCostModel when `traced`.
std::unique_ptr<rmrsim::SharedMemory> make_memory(const std::string& model,
                                                  int nprocs, bool traced);

}  // namespace perfbench
