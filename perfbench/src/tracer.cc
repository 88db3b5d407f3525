#include "tracer.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace perfbench {

namespace {

struct Span {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  int run = 0;
};

struct OpenFrame {
  Layer layer = Layer::kOther;
  std::int64_t start = 0;
  double child_ns = 0;  ///< durations of the frames nested in this one
  int span = -1;
  int prev_span = -1;
  int threads = 1;
};

struct Shared {
  std::atomic<bool> tracing{false};
  std::mutex mu;
  LayerTotals workers;  ///< guarded by mu: frames of module-owned threads
  // Main thread only.
  std::vector<Span> spans;
  int run_id = 0;
};

Shared& shared() {
  static Shared s;
  return s;
}

void add_into(LayerTotals& to, const LayerTotals& from) {
  for (int l = 0; l < kLayers; ++l) {
    to.calls[l] += from.calls[l];
    to.self_ns[l] += from.self_ns[l];
  }
  to.rmrs += from.rmrs;
}

struct ThreadState {
  bool main = false;
  int current_span = -1;
  std::vector<OpenFrame> stack;
  LayerTotals totals;

  ThreadState() { stack.reserve(64); }
  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;
  // A module-owned thread hands its totals over when it exits; the frame
  // that spawned it folds them in when it closes.
  ~ThreadState() {
    if (main) return;
    Shared& s = shared();
    const std::lock_guard<std::mutex> lock(s.mu);
    add_into(s.workers, totals);
  }
};

thread_local ThreadState t_state;

const char* const kLayerNames[kLayers] = {
    "other",
    "memory.classify",
    "memory.on_applied",
    "memory.clone",
    "sched.next",
    "runtime.step_self",
    "lowerbound.adversary",
    "harness.e1",
    "harness.e2",
    "harness.fit",
    "harness.artifact",
    "workload.generate",
    "workload.encode",
    "workload.parse",
    "workload.replay",
    "coherence.fleet",
    "coherence.mesi",
    "coherence.mesif",
    "coherence.moesi",
    "coherence.dragon",
    "coherence.wb_self",
    "verify.dpor_self",
    "verify.build",
    "verify.check",
};

}  // namespace

const char* layer_name(Layer layer) {
  return kLayerNames[static_cast<int>(layer)];
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_tracing(bool on) {
  shared().tracing.store(on, std::memory_order_relaxed);
}

bool tracing() { return shared().tracing.load(std::memory_order_relaxed); }

void init_main_thread() { t_state.main = true; }

void set_run_id(int run) { shared().run_id = run; }

Frame::Frame(Layer layer, const char* span, int threads) {
  if (!tracing()) return;
  active_ = true;
  ThreadState& t = t_state;
  OpenFrame f;
  f.layer = layer;
  f.threads = threads;
  f.prev_span = t.current_span;
  if (span != nullptr && t.main) {
    Shared& s = shared();
    f.span = static_cast<int>(s.spans.size());
    s.spans.push_back(Span{span, 0, 0, t.current_span, s.run_id});
    t.current_span = f.span;
  }
  t.stack.push_back(f);
  // Last, so the bookkeeping above is not charged to this layer.
  const std::int64_t start = now_ns();
  t.stack.back().start = start;
  if (f.span >= 0) shared().spans[f.span].start = start;
}

Frame::~Frame() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  ThreadState& t = t_state;
  const OpenFrame f = t.stack.back();
  t.stack.pop_back();
  const double duration = static_cast<double>(end - f.start);
  double child_ns = f.child_ns;
  if (f.threads > 1) {
    LayerTotals workers;
    {
      Shared& s = shared();
      const std::lock_guard<std::mutex> lock(s.mu);
      workers = s.workers;
      s.workers = LayerTotals{};
    }
    // Thread time becomes wall-equivalent time: the callee kept `threads`
    // threads busy for this frame's duration.
    for (int l = 0; l < kLayers; ++l) {
      workers.self_ns[l] /= f.threads;
      child_ns += workers.self_ns[l];
    }
    add_into(t.totals, workers);
  }
  const int l = static_cast<int>(f.layer);
  ++t.totals.calls[l];
  t.totals.self_ns[l] += duration - child_ns;
  if (!t.stack.empty()) t.stack.back().child_ns += duration;
  if (f.span >= 0) shared().spans[f.span].end = end;
  t.current_span = f.prev_span;
}

void note_rmr() { ++t_state.totals.rmrs; }

LayerTotals totals() { return t_state.totals; }

void reset_totals() {
  t_state.totals = LayerTotals{};
  Shared& s = shared();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.workers = LayerTotals{};
}

bool write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span>& spans = shared().spans;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"run\":%d,\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.run, i, s.parent, s.name.c_str(),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
