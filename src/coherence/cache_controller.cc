#include "coherence/cache_controller.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace rmrsim {

std::string_view to_string(LineState s) {
  switch (s) {
    case LineState::kInvalid: return "I";
    case LineState::kShared: return "S";
    case LineState::kExclusive: return "E";
    case LineState::kModified: return "M";
    case LineState::kOwned: return "O";
    case LineState::kForward: return "F";
    case LineState::kSharedClean: return "Sc";
    case LineState::kSharedModified: return "Sm";
  }
  return "?";
}

SnoopingCache::SnoopingCache(std::string name, int nprocs, CycleCosts costs)
    : nprocs_(nprocs), mask_words_((nprocs + 63) / 64), costs_(costs),
      name_(std::move(name)),
      proc_cycles_(static_cast<std::size_t>(nprocs), 0) {
  ensure(nprocs > 0, "SnoopingCache needs at least one processor");
}

SnoopingCache::Line& SnoopingCache::add_line(VarId v) {
  ensure(v >= 0, "variable id out of range");
  if (static_cast<std::size_t>(v) >= lines_.size()) {
    lines_.resize(static_cast<std::size_t>(v) + 1);
  }
  Line& l = lines_[static_cast<std::size_t>(v)];
  if (l.st.empty()) {
    l.st.assign(static_cast<std::size_t>(nprocs_), LineState::kInvalid);
    l.valid.assign(static_cast<std::size_t>(mask_words_), 0);
    l.current.assign(static_cast<std::size_t>(mask_words_), 0);
  }
  return l;
}

const SnoopingCache::Line* SnoopingCache::line(VarId v) const {
  if (v < 0 || static_cast<std::size_t>(v) >= lines_.size()) return nullptr;
  const Line& l = lines_[static_cast<std::size_t>(v)];
  return l.st.empty() ? nullptr : &l;
}

LineState SnoopingCache::state(ProcId p, VarId v) const {
  const Line* l = line(v);
  if (l == nullptr || p < 0 || p >= nprocs_) return LineState::kInvalid;
  return l->st[static_cast<std::size_t>(p)];
}

std::uint64_t SnoopingCache::proc_cycles(ProcId p) const {
  ensure(p >= 0 && p < nprocs_, "proc id out of range");
  return proc_cycles_[static_cast<std::size_t>(p)];
}

void SnoopingCache::on_event(const CoherenceEvent& e) {
  access(e.proc, e.var, e.nontrivial);
}

void SnoopingCache::access(ProcId p, VarId v, bool write_access) {
  ensure(p >= 0 && p < nprocs_, "access by out-of-range proc");
  Line& l = line_mut(v);
  event_cycles_ = 0;
  if (write_access) {
    write(l, p);
  } else {
    read(l, p);
  }
  if (cycle_log_enabled_) cycle_log_.push_back(event_cycles_);
}

void SnoopingCache::on_crash(ProcId p) {
  ensure(p >= 0 && p < nprocs_, "crash of out-of-range proc");
  for (Line& l : lines_) {
    if (l.st.empty() || !mask_test(l.valid, p)) continue;
    LineState& s = l.st[static_cast<std::size_t>(p)];
    // A dirty owner's copy is treated as flushed before the power-off, so
    // memory is current again and later fills cannot see stale data. No
    // cycles are charged: crashes are free in the pricing model.
    const bool dirty_owner = s == LineState::kModified ||
                             s == LineState::kOwned ||
                             s == LineState::kSharedModified;
    s = LineState::kInvalid;
    l.valid[static_cast<std::size_t>(p / 64)] &= ~bit_of(p);
    if (dirty_owner) l.memory_stale = false;
  }
}

void SnoopingCache::reset() {
  MessageCounter::reset();
  updates_ = 0;
  stats_.reset();
  lines_.clear();
  proc_cycles_.assign(static_cast<std::size_t>(nprocs_), 0);
  cycle_log_.clear();
}

void SnoopingCache::charge_cycles(ProcId p, std::uint64_t cycles) {
  stats_.cycles += cycles;
  proc_cycles_[static_cast<std::size_t>(p)] += cycles;
  event_cycles_ += cycles;
}

void SnoopingCache::charge_hit(ProcId p) {
  ++stats_.cache_hits;
  (void)p;  // hits are free; the tally still names the proc's access
}

void SnoopingCache::charge_memory_fetch(ProcId p) {
  ++stats_.memory_fetches;
  ++transfers_;
  charge_cycles(p, costs_.memory_fetch);
}

void SnoopingCache::charge_cache_transfer(ProcId p) {
  ++stats_.cache_transfers;
  ++transfers_;
  charge_cycles(p, costs_.cache_transfer);
}

void SnoopingCache::charge_bus_signal(ProcId p) {
  ++stats_.bus_signals;
  charge_cycles(p, costs_.bus_signal);
}

void SnoopingCache::charge_bus_update(ProcId p) {
  ++stats_.bus_updates;
  charge_cycles(p, costs_.bus_update);
}

void SnoopingCache::charge_write_back(ProcId p) {
  ++stats_.write_backs;
  charge_cycles(p, costs_.write_back);
}

void SnoopingCache::invalidate_others(Line& l, ProcId p) {
  // A snooping cache only invalidates copies that exist: every message is
  // useful.
  const int n = count_valid_others(l, p);
  invalidations_ += static_cast<std::uint64_t>(n);
  useful_ += static_cast<std::uint64_t>(n);
  if (n == 0) return;
  for_each_valid_other(l, p, [&l](ProcId q) {
    l.st[static_cast<std::size_t>(q)] = LineState::kInvalid;
  });
  const bool kept = mask_test(l.valid, p);
  std::fill(l.valid.begin(), l.valid.end(), 0);
  if (kept) l.valid[static_cast<std::size_t>(p / 64)] = bit_of(p);
}

void SnoopingCache::update_others(Line& l, ProcId p) {
  updates_ += static_cast<std::uint64_t>(count_valid_others(l, p));
  for (int w = 0; w < mask_words_; ++w) {
    l.current[static_cast<std::size_t>(w)] |=
        l.valid[static_cast<std::size_t>(w)];
  }
}

std::optional<std::string> SnoopingCache::check_invariants() const {
  // Tally consistency first: it catches miscounting even on empty lines.
  if (useful_ > invalidations_) {
    return "useful invalidations exceed invalidation messages";
  }
  if (total_messages() != transfers_ + invalidations_ + updates_) {
    return "total_messages out of sync with its components";
  }
  for (VarId v = 0; static_cast<std::size_t>(v) < lines_.size(); ++v) {
    const Line& l = lines_[static_cast<std::size_t>(v)];
    if (l.st.empty()) continue;
    for (int q = 0; q < nprocs_; ++q) {
      const bool valid =
          l.st[static_cast<std::size_t>(q)] != LineState::kInvalid;
      if (mask_test(l.valid, q) != valid) {
        return "valid set disagrees with the state lane: proc " +
               std::to_string(q) + " is " +
               std::string(to_string(l.st[static_cast<std::size_t>(q)])) +
               " on v" + std::to_string(v);
      }
      // Every valid copy must hold the latest value — invalidation
      // protocols guarantee it by destroying stale copies, Dragon by
      // refreshing them.
      if (valid && !mask_test(l.current, q)) {
        return "stale valid copy: proc " + std::to_string(q) + " holds v" +
               std::to_string(v) + " from before its latest write";
      }
    }
    if (auto err = check_line(l, v)) return err;
  }
  return std::nullopt;
}

}  // namespace rmrsim
