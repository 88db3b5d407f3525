// perfbench: rmrsim's benchmark program.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --pins-dir DIR [--spans FILE]
//   perfbench --workload W --write-pins FILE   (default seed only)
//   perfbench --selftest --pins-dir DIR
//
// --trace 0 measures the end-to-end metrics over S seconds of untraced
// passes with batches of set-ups between them: the work of all passes over
// their time, and the median batch's set-up time. --trace 1 alternates
// untraced and traced iterations (set-up plus pass) for S seconds and
// reports the per-layer split of the traced ones. Either way every pass is
// checked: its own invariants, pass-to-pass determinism, the pinned
// statistics of the default seed (for workloads whose inputs do not depend
// on the seed, at every seed), and, when traced passes run, traced ==
// untraced. The last line of stdout is the result as one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "digest.h"
#include "tracer.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kTraceOps = 200'000;
// Set-up is timed in batches of about kSetupBatchNs, so that a set-up of
// a fraction of a microsecond is not lost in the clock's own cost: each
// batch gives one sample, its time over its repetitions. The batches are
// spread over the run, kSetupShare of its time, between the passes, and
// there are at least kSetupMinSamples of them.
constexpr std::int64_t kSetupBatchNs = 20'000'000;
constexpr std::size_t kSetupMinSamples = 11;
constexpr double kSetupShare = 0.05;

const char* const kWorkloads[] = {"paper_sweep", "trace_zipf", "explore"};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper_sweep") return make_paper_sweep();
  if (name == "trace_zipf") return make_trace_replay(kTraceOps, seed);
  if (name == "explore") return make_explore();
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  int trace = 0;
  std::string pins_dir;
  std::string spans;
  std::string write_pins;
  bool selftest = false;
};

bool parse_uint(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      if (!parse_uint(value, &a->seed)) return false;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, &n) || n < 1 || n > 3600) return false;
      a->seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!parse_uint(value, &n) || n > 1) return false;
      a->trace = static_cast<int>(n);
    } else if (flag == "--pins-dir") {
      a->pins_dir = value;
    } else if (flag == "--spans") {
      a->spans = value;
    } else if (flag == "--write-pins") {
      a->write_pins = value;
    } else {
      return false;
    }
  }
  return true;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string pins_path(const std::string& dir, const std::string& workload) {
  return dir + "/" + workload + ".tsv";
}

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

/// Runs `body`; an exception from a module becomes a failed check rather
/// than a crash, so the result line still reports what happened.
template <typename F>
bool guarded(Checks& checks, const char* what, F&& body) {
  try {
    body();
    return true;
  } catch (const std::exception& e) {
    checks.expect(false, std::string(what) + ": " + e.what());
    return false;
  }
}

class Runner {
 public:
  Runner(const Args& args, Workload& w) : args_(args), w_(w) {}

  std::vector<Metric> end_to_end();
  std::vector<Metric> per_layer();

  Checks& checks() { return checks_; }

 private:
  /// Every pass after the first must reproduce the first pass exactly.
  void note_pass(const Digest& d) {
    if (!first_.has_value()) {
      first_ = d;
      return;
    }
    compare_digests(*first_, d, "pass vs first pass", checks_);
  }

  bool pins_apply() const {
    return !w_.seeded() || args_.seed == kDefaultSeed;
  }

  void check_pins() {
    if (!first_.has_value() || !pins_apply()) return;
    Digest pins;
    const std::string path = pins_path(args_.pins_dir, args_.workload);
    checks_.expect(pins.load(path), "cannot read pinned statistics " + path);
    compare_digests(pins, *first_, "pinned statistics", checks_);
  }

  /// One traced iteration (set-up plus pass) under a root span.
  std::int64_t traced_iteration(int run, PassResult* out) {
    set_tracing(true);
    set_run_id(run);
    const std::int64_t t0 = now_ns();
    guarded(checks_, "traced pass", [&] {
      const Frame root(Layer::kOther, "iteration");
      w_.setup();
      *out = w_.pass(/*traced=*/true, checks_);
    });
    const std::int64_t wall = now_ns() - t0;
    set_tracing(false);
    return wall;
  }

  const Args& args_;
  Workload& w_;
  Checks checks_;
  std::optional<Digest> first_;
};

std::vector<Metric> Runner::end_to_end() {
  // Repetitions per batch: doubled until a batch takes kSetupBatchNs, so
  // the clock is read twice per batch, not once per set-up.
  std::int64_t repeats = 1;
  std::int64_t setup_ns = 0;
  auto batch = [&] {
    const std::int64_t t0 = now_ns();
    for (std::int64_t i = 0; i < repeats; ++i) w_.setup();
    return now_ns() - t0;
  };
  std::vector<double> setups;
  auto sample_setup = [&] {
    const std::int64_t ns = batch();
    setup_ns += ns;
    setups.push_back(static_cast<double>(ns) / 1e9 /
                     static_cast<double>(repeats));
  };
  if (!guarded(checks_, "set-up", [&] {
        while (batch() < kSetupBatchNs) repeats *= 2;
      })) {
    return {};
  }

  // Passes and set-up batches share the run, so that both see the host as
  // it is over the whole run rather than in one moment of it.
  std::vector<double> pass_ns;
  double items = 0;
  const std::int64_t start = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(args_.seconds * 1e9);
  do {
    const std::int64_t t0 = now_ns();
    PassResult r;
    if (!guarded(checks_, "pass", [&] { r = w_.pass(false, checks_); })) {
      return {};
    }
    pass_ns.push_back(static_cast<double>(now_ns() - t0));
    items = r.items;
    note_pass(r.digest);
    if (!guarded(checks_, "set-up", [&] {
          while (static_cast<double>(setup_ns) <
                 kSetupShare * static_cast<double>(now_ns() - start)) {
            sample_setup();
          }
        })) {
      return {};
    }
  } while (now_ns() - start < budget);
  if (!guarded(checks_, "set-up", [&] {
        while (setups.size() < kSetupMinSamples) sample_setup();
      })) {
    return {};
  }
  std::printf("timed passes: %zu, %s per pass:", pass_ns.size(),
              w_.throughput_name());
  for (const double ns : pass_ns) std::printf(" %.6g", items / (ns / 1e9));
  std::printf("\n");

  // Before the verification pass below, which only some seeds run.
  const double rss_mb = peak_rss_mb();
  check_pins();
  if (!pins_apply()) {
    // No pins for this seed: the traced pass must reproduce the untraced
    // ones instead.
    PassResult traced;
    traced_iteration(0, &traced);
    compare_digests(*first_, traced.digest, "traced vs untraced", checks_);
  }
  // All the work of the timed passes over all their time: the mean pass.
  // Passes differ by the host's moment-to-moment speed, not by their
  // work, and over a handful of passes the mean is the steadier figure.
  double total_ns = 0;
  for (const double ns : pass_ns) total_ns += ns;
  const double passes = static_cast<double>(pass_ns.size());
  const double throughput = items * passes / (total_ns / 1e9);
  std::printf("%s: %.6g over all passes (%.6g over the median pass), "
              "set-up %zu batches\n",
              w_.throughput_name(), throughput,
              items / (median(pass_ns) / 1e9), setups.size());
  return {{"throughput_per_s", throughput, "1/s"},
          {"setup_s", median(setups), "s"},
          {"peak_rss_mb", rss_mb, "MB"}};
}

std::vector<Metric> Runner::per_layer() {
  reset_totals();
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  Counts counts;
  int iterations = 0;
  const std::int64_t start = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(args_.seconds * 1e9);
  do {
    PassResult plain;
    const std::int64_t t0 = now_ns();
    if (!guarded(checks_, "untraced pass", [&] {
          w_.setup();
          plain = w_.pass(false, checks_);
        })) {
      return {};
    }
    untraced_walls.push_back(static_cast<double>(now_ns() - t0));
    note_pass(plain.digest);

    PassResult traced;
    traced_walls.push_back(
        static_cast<double>(traced_iteration(iterations, &traced)));
    compare_digests(plain.digest, traced.digest, "traced vs untraced",
                    checks_);
    for (const auto& [name, value] : traced.counts) {
      add_count(counts, name, value);
    }
    ++iterations;
  } while (now_ns() - start < budget);
  check_pins();

  const LayerTotals t = totals();
  const double n = iterations;
  auto count = [&](const char* name) {
    for (const auto& [c, v] : counts) {
      if (c == name) return v / n;
    }
    return 0.0;
  };
  auto ns = [&](Layer l) { return t.self_ns[static_cast<int>(l)] / n; };
  auto calls = [&](Layer l) {
    return static_cast<double>(t.calls[static_cast<int>(l)]) / n;
  };

  std::vector<Metric> m;
  auto push_ns = [&](Layer l) {
    m.push_back({std::string(layer_name(l)) + "_ns", ns(l), "ns"});
  };
  auto push_calls = [&](Layer l) {
    m.push_back({std::string(layer_name(l)) + "_calls", calls(l), "count"});
  };
  auto push_count = [&](const char* name) {
    m.push_back({name, count(name), "count"});
  };
  push_calls(Layer::kMemoryClassify);
  push_ns(Layer::kMemoryClassify);
  push_calls(Layer::kMemoryOnApplied);
  push_ns(Layer::kMemoryOnApplied);
  push_calls(Layer::kMemoryClone);
  push_ns(Layer::kMemoryClone);
  m.push_back({"memory.rmrs", static_cast<double>(t.rmrs) / n, "count"});
  push_calls(Layer::kSchedNext);
  push_ns(Layer::kSchedNext);
  push_count("runtime.steps");
  push_ns(Layer::kRuntimeStep);
  push_ns(Layer::kLowerboundAdversary);
  push_count("lowerbound.rounds");
  push_ns(Layer::kHarnessE1);
  push_ns(Layer::kHarnessE2);
  push_ns(Layer::kHarnessFit);
  push_ns(Layer::kHarnessArtifact);
  push_ns(Layer::kWorkloadGenerate);
  push_ns(Layer::kWorkloadEncode);
  push_ns(Layer::kWorkloadParse);
  push_ns(Layer::kWorkloadReplay);
  push_count("coherence.events");
  push_ns(Layer::kCoherenceFleet);
  for (const Layer l : {Layer::kCoherenceMesi, Layer::kCoherenceMesif,
                        Layer::kCoherenceMoesi, Layer::kCoherenceDragon}) {
    push_ns(l);
  }
  push_count("coherence.mesi_invalidations");
  push_count("coherence.mesif_invalidations");
  push_count("coherence.moesi_invalidations");
  push_count("coherence.dragon_invalidations");
  push_ns(Layer::kCoherenceWb);
  push_ns(Layer::kVerifyDpor);
  push_calls(Layer::kVerifyBuild);
  push_ns(Layer::kVerifyBuild);
  push_calls(Layer::kVerifyCheck);
  push_ns(Layer::kVerifyCheck);
  for (const char* c :
       {"verify.nodes", "verify.replayed_steps", "verify.sleep_prunes",
        "verify.backtracks", "verify.work_items", "verify.snapshot_hits",
        "verify.snapshot_misses"}) {
    push_count(c);
  }
  m.push_back({"verify.snapshot_hit_rate", count("verify.snapshot_hit_rate"),
               "frac"});

  // The layers' self times plus the residual add up to the traced wall
  // time; the residual is the root frames' own time (benchmark glue) and
  // can only be negative if the accounting double-counted something.
  const double wall = mean(traced_walls);
  double layers = 0;
  for (int l = 1; l < kLayers; ++l) layers += t.self_ns[l] / n;
  const double other = wall - layers;
  checks_.expect(other >= 0, "layer self times exceed the traced wall time");
  const double untraced = median(untraced_walls);
  m.push_back({"other_ns", other, "ns"});
  m.push_back({"traced_wall_ns", wall, "ns"});
  m.push_back({"untraced_wall_ns", mean(untraced_walls), "ns"});
  m.push_back({"trace_overhead_frac",
               (median(traced_walls) - untraced) / untraced, "frac"});
  std::printf("traced iterations: %d, wall %.6g ns, layers %.6g ns, "
              "other %.6g ns\n",
              iterations, wall, layers, other);

  if (!args_.spans.empty() && !write_spans(args_.spans)) {
    std::fprintf(stderr, "warning: cannot write spans to %s\n",
                 args_.spans.c_str());
  }
  return m;
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  std::printf("checks: %llu attempted, %llu failed (failed_frac %.6g)\n",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed),
              checks.attempted == 0
                  ? 0.0
                  : static_cast<double>(checks.failed) /
                        static_cast<double>(checks.attempted));
  for (const Metric& m : metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += checks.failed == 0 && checks.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof value, "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// The gate must catch a perturbed expectation and a decorator that
/// changes pricing or event order.
int selftest(const Args& args) {
  int cases = 0;
  int missed = 0;
  auto expect_caught = [&](bool caught, const std::string& what) {
    ++cases;
    if (!caught) {
      ++missed;
      std::printf("selftest MISSED: %s\n", what.c_str());
    }
  };
  for (const char* name : kWorkloads) {
    Digest pins;
    if (!pins.load(pins_path(args.pins_dir, name)) || pins.entries().empty()) {
      expect_caught(false, std::string("pins for ") + name + " readable");
      continue;
    }
    Checks same;
    compare_digests(pins, pins, "same", same);
    expect_caught(same.failed == 0, std::string(name) + ": pins match pins");
    const std::size_t size = pins.entries().size();
    for (const std::size_t i : {std::size_t{0}, size / 2, size - 1}) {
      Checks c;
      compare_digests(pins.perturbed(i), pins, "perturbed", c);
      expect_caught(c.failed > 0, std::string(name) + ": perturbed entry " +
                                      pins.entries()[i].first);
    }
  }
  for (const Sabotage s :
       {Sabotage::kNone, Sabotage::kPricing, Sabotage::kEventOrder}) {
    auto w = make_trace_replay(20'000, kDefaultSeed, s);
    Checks c;
    w->setup();
    const PassResult plain = w->pass(false, c);
    set_tracing(true);
    const PassResult traced = w->pass(true, c);
    set_tracing(false);
    Checks cmp;
    compare_digests(plain.digest, traced.digest, "traced", cmp);
    const bool faulty = s != Sabotage::kNone;
    expect_caught(c.failed == 0 && (cmp.failed > 0) == faulty,
                  faulty ? "a sabotaged decorator changes the statistics"
                         : "the faithful decorators change nothing");
  }
  std::printf("selftest: %d cases, %d missed\n", cases, missed);
  return missed == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_sweep|trace_zipf|"
               "explore --seed N --seconds S --trace 0|1 "
               "--pins-dir DIR [--spans FILE]\n"
               "       perfbench --workload W --write-pins FILE\n"
               "       perfbench --selftest --pins-dir DIR\n");
  return 2;
}

}  // namespace

int run_main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  // Artifacts are stamped with this instead of running `git describe`.
  setenv("RMRSIM_GIT_DESCRIBE", "perfbench", 1);
  init_main_thread();
  if (args.selftest) {
    if (args.pins_dir.empty()) return usage();
    return selftest(args);
  }
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (w == nullptr) return usage();

  if (!args.write_pins.empty()) {
    if (args.seed != kDefaultSeed) return usage();
    Checks checks;
    w->setup();
    const PassResult r = w->pass(false, checks);
    if (checks.failed != 0 || !r.digest.save(args.write_pins)) {
      std::fprintf(stderr, "not writing pins: %llu checks failed\n",
                   static_cast<unsigned long long>(checks.failed));
      return 1;
    }
    std::printf("wrote %zu entries to %s\n", r.digest.entries().size(),
                args.write_pins.c_str());
    return 0;
  }
  if (args.pins_dir.empty()) return usage();

  std::printf("perfbench %s: seed %llu, %.0f s, trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  Runner runner(args, *w);
  const std::vector<Metric> metrics =
      args.trace == 0 ? runner.end_to_end() : runner.per_layer();
  print_result(runner.checks(), metrics);
  return runner.checks().failed == 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
