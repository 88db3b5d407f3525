// Group mutual exclusion (GME) — the problem behind the separation the
// paper builds on (Sections 1, 3).
//
// GME generalizes ME: each request carries a session id, and processes may
// share the critical section iff they requested the same session. The
// Hadzilacos–Danek result [8] — two-session GME costs Theta(N) RMRs in DSM
// but O(log N) in CC — was the first CC/DSM separation and the direct
// inspiration for the paper's signaling result. This module provides the
// problem (interface + safety checker + drivers) and two algorithms:
//
//  * MutexGme       — degenerate baseline: a plain mutex, ignoring the
//                     sharing opportunity (correct, zero concurrency);
//  * SessionGme     — a Keane–Moir-style session lock: a small state
//                     machine (current session, occupancy count, FIFO wait
//                     queue) guarded by an internal mutex; blocked
//                     processes spin on per-process flags in their own
//                     modules, and an exiting process that empties the room
//                     admits the whole next session batch.
//
// gme_test's GmeConcurrency/GmeRmr cases contrast their concurrency and RMR
// bills.
#pragma once

#include <optional>
#include <string>

#include "history/history.h"
#include "runtime/coro.h"
#include "runtime/proc_ctx.h"
#include "runtime/simulation.h"

namespace rmrsim {

class GmeAlgorithm {
 public:
  virtual ~GmeAlgorithm() = default;

  /// Enters the critical section for `session`; returns holding it.
  virtual SubTask<void> enter(ProcCtx& ctx, Word session) = 0;

  /// Leaves the critical section.
  virtual SubTask<void> exit(ProcCtx& ctx) = 0;

  virtual std::string_view name() const = 0;
};

/// Worker: `passages` enter/exit cycles; the session of passage i is
/// sessions[i % sessions.size()]. Records kGmeEnter (value = session) and
/// kGmeExit call spans for the checker. `cs_dwell` free local steps are
/// spent inside the critical section, giving same-session peers a window to
/// share the room.
ProcTask gme_worker(ProcCtx& ctx, GmeAlgorithm* alg, int passages,
                    std::vector<Word> sessions, int cs_dwell = 0);

struct GmeViolation {
  std::int64_t step_index = -1;
  std::string what;
};

/// GME safety over the recorded history: at every moment the set of
/// processes inside the CS (between kGmeEnter end and kGmeExit begin) is
/// single-session.
std::optional<GmeViolation> check_gme_safety(const History& h);

/// Maximum number of processes simultaneously inside the CS — the
/// concurrency a GME algorithm actually extracted (1 for a plain mutex).
int max_cs_occupancy(const History& h);

}  // namespace rmrsim
