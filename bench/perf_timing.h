// Wall-clock timing shared by the bench_micro and bench_trace perf suites.
//
// One timing of a config on a shared host moves by 10-40% from run to run,
// so a single reading cannot tell a code change from machine noise. Each
// config is therefore timed kPerfRepeats times; its artifact row records
// the median under the metric's own name (what the gates compare) plus
// `<metric>_min` and `<metric>_max`, the spread.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "metrics/registry.h"

namespace rmrsim {

constexpr int kPerfRepeats = 5;

/// Runs `body` (which returns items processed) repeatedly until at least
/// `min_seconds` of wall clock is accumulated, after one warmup run.
template <typename Body>
std::pair<std::uint64_t, double> run_timed(double min_seconds, Body&& body) {
  using clock = std::chrono::steady_clock;
  body();  // warmup: page in code, fault in allocations
  std::uint64_t items = 0;
  double seconds = 0;
  while (seconds < min_seconds) {
    const auto t0 = clock::now();
    items += body();
    seconds += std::chrono::duration<double>(clock::now() - t0).count();
  }
  return {items, seconds};
}

/// Calls `timer` (which returns one timing's metrics) kPerfRepeats times
/// and returns, for every metric it reported, the median under the same
/// name plus `_min` and `_max`.
template <typename Timer>
MetricsRegistry time_repeated(Timer&& timer) {
  std::map<std::string, std::vector<double>> samples;
  for (int i = 0; i < kPerfRepeats; ++i) {
    const MetricsRegistry one = timer();
    for (const std::string& name : one.value_names()) {
      samples[name].push_back(one.value(name));
    }
  }
  MetricsRegistry out;
  for (auto& [name, xs] : samples) {
    std::sort(xs.begin(), xs.end());
    out.set(name, xs[xs.size() / 2]);
    out.set(name + "_min", xs.front());
    out.set(name + "_max", xs.back());
  }
  return out;
}

}  // namespace rmrsim
