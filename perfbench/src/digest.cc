#include "digest.h"

#include <fstream>
#include <map>

#include "common/crc32.h"
#include "metrics/registry.h"

namespace perfbench {

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

void Digest::add(const std::string& key, double value) {
  entries_.emplace_back(key, rmrsim::format_metric_number(value));
}

void Digest::add(const std::string& key, const std::string& value) {
  entries_.emplace_back(key, value);
}

void Digest::add_registry(const std::string& prefix,
                          const rmrsim::MetricsRegistry& reg) {
  for (const std::string& name : reg.value_names()) {
    add(prefix + name, reg.value(name));
  }
  add(prefix + "json.fnv1a64", std::to_string(rmrsim::fnv1a64(reg.to_json())));
}

bool Digest::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  entries_.clear();
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos || tab == 0) return false;
    entries_.emplace_back(line.substr(0, tab), line.substr(tab + 1));
  }
  return true;
}

bool Digest::save(const std::string& path) const {
  std::ofstream out(path);
  for (const Entry& e : entries_) out << e.first << '\t' << e.second << '\n';
  return static_cast<bool>(out);
}

Digest Digest::perturbed(std::size_t index) const {
  Digest d = *this;
  d.entries_.at(index).second += "1";
  return d;
}

void compare_digests(const Digest& expected, const Digest& observed,
                     const std::string& what, Checks& checks) {
  std::map<std::string, const std::string*> seen;
  for (const Digest::Entry& e : observed.entries()) {
    seen.emplace(e.first, &e.second);
  }
  std::size_t matched = 0;
  for (const Digest::Entry& e : expected.entries()) {
    const auto it = seen.find(e.first);
    if (it == seen.end()) {
      checks.expect(false, what + ": missing " + e.first);
      continue;
    }
    ++matched;
    checks.expect(*it->second == e.second,
                  what + ": " + e.first + " = " + *it->second +
                      ", expected " + e.second);
  }
  checks.expect(matched == observed.entries().size(),
                what + ": " +
                    std::to_string(observed.entries().size() - matched) +
                    " unexpected entries");
}

}  // namespace perfbench
