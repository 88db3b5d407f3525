// Outside-in tracing for the benchmark.
//
// Every layer is timed from the benchmark's side of a module boundary: a
// Frame opens around a call into a module's public function (or inside a
// decorator that forwards an interface call unchanged) and closes when the
// call returns. Each thread keeps a stack of open frames, so a frame's self
// time is its duration minus the durations of the frames nested in it, and
// the self times of all layers plus the root frames' own time ("other")
// add up to the traced wall time exactly.
//
// Frames opened on threads a module starts by itself (explore_dpor's worker
// pool) have no enclosing frame on their thread. Their time is kept apart
// and folded into the frame that spawned the threads when it closes,
// divided by the number of threads it ran: the spawning frame then reports
// wall-equivalent time, and its own self time is whatever the workers'
// instrumented calls did not cover (the module's own code on the workers,
// plus load imbalance).
//
// Named frames on the main thread are also kept as spans (name, start, end,
// parent span, run id) and written out as JSON lines at the end of a run.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layers whose self time the trace reports. The names are the per-layer
/// metric names minus the "_ns" suffix.
enum class Layer : int {
  kOther,  ///< root frames: the benchmark's own glue between module calls
  kMemoryClassify,
  kMemoryOnApplied,
  kMemoryClone,
  kSchedNext,
  kRuntimeStep,  ///< Simulation::run minus scheduler, memory and listener
  kLowerboundAdversary,
  kHarnessE1,
  kHarnessE2,
  kHarnessFit,
  kHarnessArtifact,
  kWorkloadGenerate,
  kWorkloadEncode,
  kWorkloadParse,
  kWorkloadReplay,
  kCoherenceFleet,
  kCoherenceMesi,
  kCoherenceMesif,
  kCoherenceMoesi,
  kCoherenceDragon,
  kCoherenceWb,
  kVerifyDpor,  ///< explore_dpor minus ExploreBuilder/Checker and memory
  kVerifyBuild,
  kVerifyCheck,
  kCount,
};

constexpr int kLayers = static_cast<int>(Layer::kCount);

/// Metric stem of a layer ("memory.classify", "coherence.mesi", ...).
const char* layer_name(Layer layer);

/// Per-layer totals accumulated by the trace.
struct LayerTotals {
  std::array<std::uint64_t, kLayers> calls{};
  std::array<double, kLayers> self_ns{};
  std::uint64_t rmrs = 0;  ///< classify_rmr answers that were "RMR"
};

/// Turns tracing on or off for frames opened from now on. Only the main
/// thread calls this, and only while no module runs.
void set_tracing(bool on);
bool tracing();

/// Marks the calling thread as the one that owns root frames and spans.
void init_main_thread();

/// Sets the run id stamped on spans recorded from now on.
void set_run_id(int run);

/// A timed call into one layer. No-op while tracing is off.
class Frame {
 public:
  /// `span` names the frame in the span log (main thread only; nullptr
  /// keeps it out). `threads` > 1 marks a frame whose callee runs its work
  /// on that many threads of its own (see the header comment).
  explicit Frame(Layer layer, const char* span = nullptr, int threads = 1);
  Frame(Layer layer, const std::string& span, int threads = 1)
      : Frame(layer, span.c_str(), threads) {}
  ~Frame();

  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

 private:
  bool active_ = false;
};

/// Counts one classify_rmr answer that was "RMR" on the calling thread.
void note_rmr();

/// Main-thread totals since the last reset_totals(), worker-thread frames
/// included once their spawning frame has closed.
LayerTotals totals();
void reset_totals();

/// Writes the recorded spans as JSON lines to `path` (parent = -1 for a
/// root span). Returns false when the file cannot be written.
bool write_spans(const std::string& path);

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::int64_t now_ns();

}  // namespace perfbench
