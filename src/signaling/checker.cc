#include "signaling/checker.h"

#include <map>

namespace rmrsim {

void SpecFold::convict(Verdict& v, std::int64_t begin, std::int64_t end,
                       const char* what) {
  if (v.begin >= 0 && v.begin < begin) return;
  v.begin = begin;
  v.violation = SpecViolation{end, what};
}

void SpecFold::on_step(const StepRecord& r) {
  if (r.kind != StepRecord::Kind::kEvent) return;
  const bool begin = r.event == EventKind::kCallBegin;
  const bool end = r.event == EventKind::kCallEnd;
  if (!begin && !end && r.event != EventKind::kCrash) return;
  const auto idx = static_cast<std::size_t>(r.proc);
  if (idx >= procs_.size()) procs_.resize(idx + 1);
  ProcSpans& ps = procs_[idx];
  if (r.event == EventKind::kCrash) {
    // The victim's open calls never return, so they impose no obligations.
    ps = ProcSpans{};
    return;
  }
  switch (r.code) {
    case calls::kSignal:
      if (begin) {
        signal_begun_ = true;
        ps.signal_open = true;
      } else if (ps.signal_open) {
        signal_completed_ = true;
        ps.signal_open = false;
      }
      break;
    case calls::kPoll:
      if (begin) {
        ps.poll = {.begin = r.index, .signal_completed = signal_completed_};
      } else if (ps.poll.begin >= 0) {
        if (r.value != 0 && !signal_begun_) {
          // Clause 1: some Signal() must have begun before this return.
          convict(polling_, ps.poll.begin, r.index,
                  "Poll() returned true but no Signal() had begun");
        } else if (r.value == 0 && ps.poll.signal_completed) {
          // Clause 2: no Signal() may have completed before it began.
          convict(polling_, ps.poll.begin, r.index,
                  "Poll() returned false although a Signal() completed "
                  "before it began");
        }
        ps.poll = {};
      }
      break;
    case calls::kWait:
      if (begin) {
        ps.wait = {.begin = r.index};
      } else if (ps.wait.begin >= 0) {
        if (!signal_begun_) {
          convict(blocking_, ps.wait.begin, r.index,
                  "Wait() returned but no Signal() had begun");
        }
        ps.wait = {};
      }
      break;
    default:
      break;
  }
}

std::optional<SpecViolation> SpecFold::polling_violation() const {
  if (polling_.begin < 0) return std::nullopt;
  return polling_.violation;
}

std::optional<SpecViolation> SpecFold::blocking_violation() const {
  if (blocking_.begin < 0) return std::nullopt;
  return blocking_.violation;
}

namespace {

SpecFold fold_records(const History& h) {
  SpecFold fold;
  for (const StepRecord& r : h.records()) fold.on_step(r);
  return fold;
}

}  // namespace

std::optional<SpecViolation> check_polling_spec(const History& h) {
  return fold_records(h).polling_violation();
}

std::optional<SpecViolation> check_blocking_spec(const History& h) {
  return fold_records(h).blocking_violation();
}

std::optional<SpecViolation> check_signal_once(const History& h) {
  std::map<ProcId, int> begun;
  for (const StepRecord& r : h.records()) {
    if (r.kind != StepRecord::Kind::kEvent) continue;
    if (r.event == EventKind::kCrash) {
      // RME re-execution: a recovered program runs from the top, so a
      // signaler that crashed mid-Signal() legitimately calls it again.
      begun[r.proc] = 0;
      continue;
    }
    if (r.event == EventKind::kCallBegin && r.code == calls::kSignal) {
      if (++begun[r.proc] > 1) {
        return SpecViolation{r.index, "process called Signal() twice"};
      }
    }
  }
  return std::nullopt;
}

}  // namespace rmrsim
