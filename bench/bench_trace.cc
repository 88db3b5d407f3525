// Trace-workload throughput bench: how fast the workload engine parses,
// serializes, and replays traces.
//
// Not a paper experiment — this times the trace machinery itself (ops/sec
// through the bare cost models, through the full protocol fleet, and
// through the text/binary codecs) so regressions in replay throughput are
// visible. Complexity claims live in the bench_e* binaries and in the
// t1_* experiments.
//
// Two modes:
//  - default: run each config briefly and print the table.
//  - --perf-suite: times each pinned config kPerfRepeats (5) times, each
//    timing accumulating `--min-time` seconds of wall clock, and writes a
//    schema-v1 BENCH_PERF_TRACE.json through the artifact writer (the
//    median of the timings, plus `_min` and `_max`). `--gate-ref R` exits
//    nonzero when the reference config (bare cc zipf replay, 32 procs)
//    measures a median below R ops/sec — the CI perf-smoke gate for the
//    workload engine.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "coherence/fleet.h"
#include "harness/artifact.h"
#include "harness/drive.h"
#include "harness/sweep.h"
#include "perf_timing.h"
#include "workload/generators.h"
#include "workload/replay.h"
#include "workload/trace.h"

namespace rmrsim {
namespace {

/// The reference config for the CI gate: bare cc replay of the zipf trace
/// at this many processors.
constexpr int kReferenceProcs = 32;
constexpr const char* kReferenceAlgorithm = "replay_cc";

constexpr std::uint64_t kTraceOps = 50'000;

Trace make_bench_trace(int procs) {
  GenSpec g;
  g.kind = "zipf";
  g.procs = procs;
  g.ops = kTraceOps;
  g.seed = 1;
  return generate_trace(g);
}

MetricsRegistry time_replay(const Trace& trace, const std::string& model,
                            const ReplayOptions& opts, double min_seconds) {
  const auto [ops, seconds] = run_timed(min_seconds, [&]() -> std::uint64_t {
    auto mem = make_model_by_name(model, trace.nprocs);
    replay_trace(trace, *mem, opts);
    return trace.ops.size();
  });
  MetricsRegistry reg;
  reg.set("trace_replay_ops_per_sec", static_cast<double>(ops) / seconds);
  reg.set("ns_per_trace_op", seconds * 1e9 / static_cast<double>(ops));
  return reg;
}

MetricsRegistry time_codec(const Trace& trace, bool binary,
                           double min_seconds) {
  const std::string blob =
      binary ? trace_to_binary(trace) : trace_to_text(trace);
  const auto [ops, seconds] = run_timed(min_seconds, [&]() -> std::uint64_t {
    const Trace parsed = binary ? parse_trace_binary(blob, "<bench>")
                                : parse_trace_text(blob, "<bench>");
    if (parsed.ops.size() != trace.ops.size()) std::abort();
    return trace.ops.size();
  });
  MetricsRegistry reg;
  reg.set("parse_ops_per_sec", static_cast<double>(ops) / seconds);
  reg.set("bytes_per_op",
          static_cast<double>(blob.size()) /
              static_cast<double>(trace.ops.size()));
  return reg;
}

int run_suite(const std::string& out_dir, double min_seconds,
              double gate_ref_ops_per_sec, bool write_json) {
  // Axes reused from the sweep schema: `algorithm` names the config, `n`
  // the processor count, `model` the memory model it exercises.
  SweepSpec spec;
  spec.name = "PERF_TRACE";
  spec.models = {"cc"};
  spec.algorithms = {"replay_cc",       "replay_dsm", "replay_fleet",
                     "replay_fleet_wb", "parse_text", "parse_binary"};
  spec.ns = {kReferenceProcs};

  SweepResult result;
  result.spec = spec;
  result.workers = 1;
  const auto wall0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < spec.grid_size(); ++i) {
    SweepPointResult pr;
    pr.point = spec.point_at(i);
    const Trace trace = make_bench_trace(pr.point.n);
    const std::string& alg = pr.point.algorithm;
    ReplayOptions fleet;
    fleet.protocols = protocol_names();
    ReplayOptions fleet_wb = fleet;
    fleet_wb.write_buffer = 8;
    pr.metrics = time_repeated([&]() -> MetricsRegistry {
      if (alg == "replay_cc") return time_replay(trace, "cc", {}, min_seconds);
      if (alg == "replay_dsm") {
        return time_replay(trace, "dsm", {}, min_seconds);
      }
      if (alg == "replay_fleet") {
        return time_replay(trace, "cc", fleet, min_seconds);
      }
      if (alg == "replay_fleet_wb") {
        return time_replay(trace, "cc", fleet_wb, min_seconds);
      }
      if (alg == "parse_text") {
        return time_codec(trace, /*binary=*/false, min_seconds);
      }
      if (alg == "parse_binary") {
        return time_codec(trace, /*binary=*/true, min_seconds);
      }
      return {};
    });
    result.points.push_back(std::move(pr));
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall0)
                       .count();

  double ref = 0;
  for (const SweepPointResult& pr : result.points) {
    if (pr.point.algorithm == kReferenceAlgorithm &&
        pr.point.n == kReferenceProcs) {
      ref = pr.metrics.value("trace_replay_ops_per_sec");
    }
    for (const char* m : {"trace_replay_ops_per_sec", "ns_per_trace_op",
                          "parse_ops_per_sec", "bytes_per_op"}) {
      if (pr.metrics.has_value(m)) {
        const std::string name(m);
        std::printf("perf %-16s n=%-3d %-24s %14.0f  (%.0f..%.0f)\n",
                    pr.point.algorithm.c_str(), pr.point.n, m,
                    pr.metrics.value(name), pr.metrics.value(name + "_min"),
                    pr.metrics.value(name + "_max"));
      }
    }
  }
  if (write_json) {
    BenchArtifact artifact;
    artifact.name = spec.name;
    artifact.title = "trace workload perf suite (wall-clock throughput)";
    artifact.generator = "bench_trace --perf-suite";
    artifact.git = git_describe();
    artifact.result = result;
    const std::string path = write_artifact(artifact, out_dir);
    std::printf("perf suite written: %s\n", path.c_str());
  }
  std::printf("reference config (%s, n=%d): median %.0f ops/sec\n",
              kReferenceAlgorithm, kReferenceProcs, ref);
  if (gate_ref_ops_per_sec > 0 && ref < gate_ref_ops_per_sec) {
    std::fprintf(stderr,
                 "PERF GATE FAILED: reference %.0f ops/sec < required %.0f\n",
                 ref, gate_ref_ops_per_sec);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rmrsim

int main(int argc, char** argv) {
  bool perf_suite = false;
  std::string out_dir = ".";
  double min_seconds = 0.5;
  double gate_ref = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--perf-suite") == 0) {
      perf_suite = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--min-time") == 0 && i + 1 < argc) {
      min_seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--gate-ref") == 0 && i + 1 < argc) {
      gate_ref = std::atof(argv[++i]);
    }
  }
  // Default mode: same configs, one short pass, no JSON.
  if (!perf_suite) min_seconds = 0.1;
  return rmrsim::run_suite(out_dir, min_seconds, gate_ref, perf_suite);
}
