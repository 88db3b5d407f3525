// One step of a history.
//
// Section 2: "A history is a finite or infinite sequence of steps... each
// step entails a memory access and some local computation." Our records also
// retain procedure-call boundaries (begin/end with return values) because the
// signaling specification (Specification 4.1) and the lower-bound proof are
// stated in terms of when calls begin and complete, and termination markers
// for the Fin/Act partition of Definition 6.3.
#pragma once

#include <string>

#include "common/types.h"
#include "memory/memop.h"

namespace rmrsim {

/// Non-memory step payloads.
enum class EventKind {
  kCallBegin,  ///< a procedure call begins; code identifies the procedure
  kCallEnd,    ///< a procedure call completes; value = its return value
  kDirective,  ///< the client driver consumed a scheduling directive
  kMark,       ///< free-form annotation from algorithm/driver code
  kDelay,      ///< a delay(ticks) completed; value = requested ticks
  kCrash,      ///< the process crashed mid-call (Simulation::crash)
  kRecover,    ///< the process recovered: program restarted, locals lost
};

/// Well-known procedure codes used in kCallBegin/kCallEnd records. Kept in
/// one registry so checkers in different modules agree.
namespace calls {
inline constexpr Word kPoll = 1;     ///< signaling: Poll() -> bool
inline constexpr Word kSignal = 2;   ///< signaling: Signal()
inline constexpr Word kWait = 3;     ///< signaling: Wait()
inline constexpr Word kAcquire = 4;  ///< mutex: lock acquisition
inline constexpr Word kRelease = 5;  ///< mutex: lock release
inline constexpr Word kCritical = 6; ///< mutex/GME: inside the critical section
inline constexpr Word kGmeEnter = 7; ///< GME: enter(session)
inline constexpr Word kGmeExit = 8;  ///< GME: exit()
inline constexpr Word kRecover = 9;  ///< RME: a lock's crash-recovery section
}  // namespace calls

/// True for event kinds that checkers may order *across* processes:
/// procedure-call boundaries (Specification 4.1, ME, GME are all phrased
/// over begin/end order) and free-form marks. The model checker treats steps
/// that record an observable event as mutually dependent, so the relative
/// order of call boundaries is preserved within every equivalence class of
/// schedules it reduces over — checkers phrased over memory-op values and/or
/// call-boundary order therefore see identical verdicts on every
/// representative. Directives and delay completions are process-local
/// bookkeeping and stay invisible to the independence relation.
constexpr bool observable_event(EventKind e) {
  return e == EventKind::kCallBegin || e == EventKind::kCallEnd ||
         e == EventKind::kMark;
}

/// What a client driver should do next (supplied by the scheduler/adversary
/// through the simulation's directive policy).
struct Directive {
  /// Driver-defined action. Conventions used by the built-in drivers:
  /// 0 = terminate, positive values select a procedure to call.
  int action = 0;
  /// Optional argument (e.g. a GME session id).
  Word arg = 0;

  static constexpr int kTerminate = 0;
};

struct StepRecord {
  enum class Kind { kMemOp, kEvent };

  std::int64_t index = 0;  ///< position in the global history
  ProcId proc = kNoProc;
  Kind kind = Kind::kMemOp;

  // kMemOp payload.
  MemOp op{};
  OpOutcome outcome{};
  ProcId var_home = kNoProc;  ///< home module of op.var (for `touches`)

  // kEvent payload.
  EventKind event = EventKind::kMark;
  Word code = 0;   ///< e.g. calls::kPoll, or Directive.action
  Word value = 0;  ///< e.g. a call's return value, or Directive.arg

  /// True if the process terminated immediately after this step (its program
  /// ran to completion).
  bool terminated_after = false;

  std::string to_string() const;
};

/// Receives every step a Simulation records during Simulation::run, in
/// history order and with its history index set — including the crash and
/// recovery events a fault-injecting scheduler appends. Online folds (call
/// costs, the Specification 4.1 check) implement it so a counters-only run
/// still yields results that would otherwise be read off stored records.
class StepSink {
 public:
  virtual ~StepSink() = default;
  virtual void on_step(const StepRecord& r) = 0;
};

}  // namespace rmrsim
