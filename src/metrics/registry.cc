#include "metrics/registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "trace/export.h"

namespace rmrsim {

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::set(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

double MetricsRegistry::gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

double MetricsRegistry::value(std::string_view name) const {
  auto it = counters_.find(name);
  if (it != counters_.end()) return static_cast<double>(it->second);
  return gauge(name);
}

bool MetricsRegistry::has_value(std::string_view name) const {
  return counters_.find(name) != counters_.end() ||
         gauges_.find(name) != gauges_.end();
}

void MetricsRegistry::observe(std::string_view name, double value) {
  auto it = summaries_.find(name);
  if (it == summaries_.end()) {
    Summary s;
    s.count = 1;
    s.sum = s.min = s.max = value;
    summaries_.emplace(std::string(name), s);
    return;
  }
  Summary& s = it->second;
  ++s.count;
  s.sum += value;
  s.min = std::min(s.min, value);
  s.max = std::max(s.max, value);
}

void MetricsRegistry::merge_summary(std::string_view name, const Summary& s) {
  auto it = summaries_.find(name);
  if (it == summaries_.end()) {
    summaries_.emplace(std::string(name), s);
    return;
  }
  Summary& into = it->second;
  into.count += s.count;
  into.sum += s.sum;
  into.min = std::min(into.min, s.min);
  into.max = std::max(into.max, s.max);
}

const MetricsRegistry::Summary* MetricsRegistry::summary(
    std::string_view name) const {
  auto it = summaries_.find(name);
  return it == summaries_.end() ? nullptr : &it->second;
}

MetricsRegistry::Histogram& MetricsRegistry::histogram_slot(
    std::string_view name, std::span<const double> bounds) {
  ensure(!bounds.empty(), "histogram needs at least one bucket bound");
  ensure(std::is_sorted(bounds.begin(), bounds.end()),
         "histogram bounds must be ascending");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    Histogram h;
    h.bounds.assign(bounds.begin(), bounds.end());
    h.counts.assign(bounds.size() + 1, 0);
    return histograms_.emplace(std::string(name), std::move(h)).first->second;
  }
  ensure(it->second.bounds.size() == bounds.size() &&
             std::equal(bounds.begin(), bounds.end(),
                        it->second.bounds.begin()),
         "histogram re-observed with different bounds");
  return it->second;
}

void MetricsRegistry::histogram_observe(std::string_view name,
                                        std::span<const double> bounds,
                                        double value) {
  Histogram& h = histogram_slot(name, bounds);
  // Inclusive upper bounds (value <= bounds[i] lands in bucket i), so a
  // bound of 0 catches exactly-zero observations.
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(h.bounds.begin(), h.bounds.end(), value) -
      h.bounds.begin());
  ++h.counts[bucket];
  ++h.total;
}

void MetricsRegistry::histogram_merge(std::string_view name,
                                      std::span<const double> bounds,
                                      std::span<const std::uint64_t> counts) {
  ensure(counts.size() == bounds.size() + 1,
         "histogram merge needs one count per bucket");
  Histogram& h = histogram_slot(name, bounds);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    h.counts[i] += counts[i];
    h.total += counts[i];
  }
}

const MetricsRegistry::Histogram* MetricsRegistry::histogram(
    std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::series_append(std::string_view name, double x, double y,
                                    std::string label) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(std::string(name), Series{}).first;
  }
  it->second.points.push_back({x, y, std::move(label)});
}

const MetricsRegistry::Series* MetricsRegistry::series(
    std::string_view name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, v] : other.counters_) add(name, v);
  for (const auto& [name, v] : other.gauges_) set(name, v);
  for (const auto& [name, s] : other.summaries_) merge_summary(name, s);
  for (const auto& [name, h] : other.histograms_) {
    histogram_merge(name, h.bounds, h.counts);
  }
  for (const auto& [name, s] : other.series_) {
    auto it = series_.find(name);
    if (it == series_.end()) {
      series_.emplace(name, s);
    } else {
      it->second.points.insert(it->second.points.end(), s.points.begin(),
                               s.points.end());
    }
  }
}

std::vector<std::string> MetricsRegistry::value_names() const {
  std::vector<std::string> out;
  out.reserve(counters_.size() + gauges_.size());
  for (const auto& [name, v] : counters_) out.push_back(name);
  for (const auto& [name, v] : gauges_) {
    if (counters_.find(name) == counters_.end()) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool MetricsRegistry::empty() const {
  return counters_.empty() && gauges_.empty() && summaries_.empty() &&
         histograms_.empty() && series_.empty();
}

std::string format_metric_number(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", value);
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

namespace {

void append_kv(std::string& out, std::string_view name, bool& first) {
  if (!first) out += ',';
  first = false;
  out += '"';
  out += json_escape(name);
  out += "\":";
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::string out = "{";
  bool first_section = true;
  if (!counters_.empty() || !gauges_.empty()) {
    append_kv(out, "metrics", first_section);
    out += '{';
    bool first = true;
    for (const std::string& name : value_names()) {
      append_kv(out, name, first);
      out += format_metric_number(value(name));
    }
    out += '}';
  }
  if (!summaries_.empty()) {
    append_kv(out, "summaries", first_section);
    out += '{';
    bool first = true;
    for (const auto& [name, s] : summaries_) {
      append_kv(out, name, first);
      out += "{\"count\":" + std::to_string(s.count) +
             ",\"sum\":" + format_metric_number(s.sum) +
             ",\"min\":" + format_metric_number(s.min) +
             ",\"max\":" + format_metric_number(s.max) +
             ",\"mean\":" + format_metric_number(s.mean()) + "}";
    }
    out += '}';
  }
  if (!histograms_.empty()) {
    append_kv(out, "histograms", first_section);
    out += '{';
    bool first = true;
    for (const auto& [name, h] : histograms_) {
      append_kv(out, name, first);
      out += "{\"bounds\":[";
      for (std::size_t i = 0; i < h.bounds.size(); ++i) {
        if (i) out += ',';
        out += format_metric_number(h.bounds[i]);
      }
      out += "],\"counts\":[";
      for (std::size_t i = 0; i < h.counts.size(); ++i) {
        if (i) out += ',';
        out += std::to_string(h.counts[i]);
      }
      out += "],\"total\":" + std::to_string(h.total) + "}";
    }
    out += '}';
  }
  if (!series_.empty()) {
    append_kv(out, "series", first_section);
    out += '{';
    bool first = true;
    for (const auto& [name, s] : series_) {
      append_kv(out, name, first);
      out += '[';
      for (std::size_t i = 0; i < s.points.size(); ++i) {
        if (i) out += ',';
        const SeriesPoint& p = s.points[i];
        out += "{\"x\":" + format_metric_number(p.x) +
               ",\"y\":" + format_metric_number(p.y);
        if (!p.label.empty()) {
          out += ",\"label\":\"" + json_escape(p.label) + "\"";
        }
        out += '}';
      }
      out += ']';
    }
    out += '}';
  }
  out += '}';
  return out;
}

}  // namespace rmrsim
