// Executable Specification 4.1 (and its blocking analogue).
//
// Polling semantics, checked over a recorded history:
//   (1) if a Poll() returns true, some Signal() has already *begun* (its
//       begin precedes the Poll's return);
//   (2) if a Poll() returns false, no Signal() *completed* before that
//       Poll() *began*.
// Blocking semantics: a Wait() may return only after some Signal() began.
//
// The checker works purely off call-boundary records, so it applies to every
// algorithm uniformly — including the deliberately broken one used to prove
// the checker has teeth.
//
// Crash-aware: a crash (EventKind::kCrash) abandons the victim's open call —
// the call never returns, so it imposes no obligations — and resets the
// once-per-process Signal() budget, since a recovered program re-executes
// from the top (the RME failure model).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "history/history.h"

namespace rmrsim {

struct SpecViolation {
  std::int64_t step_index = -1;  ///< offending record's history position
  std::string what;
};

/// Online Specification 4.1 check: consumes one StepRecord at a time, in
/// history order, and judges each Poll()/Wait() as it returns.
///   * Polling: a Poll() returning true violates clause (1) if no Signal()
///     has begun by its end; one returning false violates clause (2) if a
///     Signal() had completed before it began.
///   * Blocking: a Wait() violates if no Signal() has begun by its end.
/// Spans pair a begin with the next end of the same code on the same
/// process; a crash abandons the victim's open calls (an abandoned Signal()
/// still counts as begun, never as completed). Each verdict is the
/// violating call that *began* earliest, reported at its end record.
/// check_polling_spec/check_blocking_spec are this fold over stored
/// records; a counters-only run feeds it through Simulation::run's sink.
class SpecFold final : public StepSink {
 public:
  void on_step(const StepRecord& r) override;

  std::optional<SpecViolation> polling_violation() const;
  std::optional<SpecViolation> blocking_violation() const;

 private:
  struct OpenSpan {
    std::int64_t begin = -1;  ///< -1: no open call of this code
    bool signal_completed = false;  ///< some Signal() completed before begin
  };
  struct ProcSpans {
    OpenSpan poll, wait;
    bool signal_open = false;
  };
  struct Verdict {
    std::int64_t begin = -1;  ///< the violating call's begin; -1 = none
    SpecViolation violation;
  };

  static void convict(Verdict& v, std::int64_t begin, std::int64_t end,
                      const char* what);

  std::vector<ProcSpans> procs_;
  bool signal_begun_ = false;
  bool signal_completed_ = false;
  Verdict polling_, blocking_;
};

/// Checks Specification 4.1 over all Poll/Signal call records in `h`.
/// Returns the earliest-begun violating Poll(), or nullopt if the history
/// is legal.
std::optional<SpecViolation> check_polling_spec(const History& h);

/// Checks the blocking-semantics safety property over Wait/Signal records.
std::optional<SpecViolation> check_blocking_spec(const History& h);

/// Checks the "at most one Signal() call per process" usage rule of
/// Section 4 (a harness sanity check rather than an algorithm property).
std::optional<SpecViolation> check_signal_once(const History& h);

}  // namespace rmrsim
