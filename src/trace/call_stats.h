// Per-procedure-call cost breakdowns.
//
// The Section 7 algorithms all share one fingerprint: an expensive *first*
// Poll() (registration) followed by free local spins. This module slices a
// history into procedure-call spans and attributes memory steps and RMRs to
// each, so tests and benches can assert per-call shapes ("first call pays
// <= 3 RMRs, every later call pays 0") rather than only totals.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "history/history.h"

namespace rmrsim {

struct CallCost {
  ProcId proc = kNoProc;
  Word call_code = 0;       ///< calls::kPoll etc.
  int call_index = 0;       ///< per-process index among calls of this code
  Word returned = 0;        ///< value from the kCallEnd record
  bool completed = false;   ///< false if the call never ended in the history
  std::uint64_t mem_steps = 0;
  std::uint64_t rmrs = 0;
  std::uint64_t cycles = 0;  ///< coherence-protocol cycles (overload below)
};

/// Inclusive upper bounds of the RMRs-per-call histogram buckets (a last,
/// unbounded bucket follows): calls.<name>.rmrs_per_call.
inline constexpr std::array<std::uint64_t, 8> kRmrsPerCallBounds = {
    0, 1, 2, 4, 8, 16, 32, 64};

/// Aggregates over every call of one code — what publish_call_totals
/// reports. All fields are integers, so totals are exact and independent of
/// the order calls are added in.
struct CallCodeTotals {
  Word call_code = 0;
  std::uint64_t count = 0;
  std::uint64_t completed = 0;
  std::uint64_t rmrs = 0;  ///< sum over calls
  std::uint64_t mem_steps = 0;
  std::uint64_t cycles = 0;
  std::uint64_t rmrs_min = 0;  ///< over calls; meaningful when count > 0
  std::uint64_t rmrs_max = 0;
  std::array<std::uint64_t, kRmrsPerCallBounds.size() + 1> rmrs_per_call{};

  void add(const CallCost& c);
};

/// Per-code totals over a list of calls, in first-seen code order.
std::vector<CallCodeTotals> call_code_totals(const std::vector<CallCost>& costs);

/// Online call-span slicer: consumes one StepRecord at a time, in history
/// order, and attributes each memory step to the call it occurred in.
/// Attribution rules:
///   * steps outside any call span are ignored;
///   * nested calls attribute exclusively to the innermost open span (a
///     nested call's steps never double-count into its parent);
///   * a kCallEnd closes the innermost open call with a matching code
///     (anything nested above it is closed unfinished); an end with no
///     matching open call is ignored;
///   * crash and recovery events close nothing: a call a crash cut short
///     stays open, so it keeps accruing its process's steps until a
///     matching end or finish();
///   * finish() closes every call still open as completed == false, with
///     the costs accrued so far.
/// Open calls live on per-process stacks indexed by ProcId; each closed
/// call is folded into its code's totals() and, with keep_calls, also kept
/// in calls() in begin order. per_call_costs is this fold run over stored
/// records; a counters-only run feeds it through Simulation::run's sink.
class CallCostFold final : public StepSink {
 public:
  explicit CallCostFold(bool keep_calls = false) : keep_calls_(keep_calls) {}

  void on_step(const StepRecord& r) override { on_priced_step(r, 0); }
  /// As on_step, attributing `cycles` protocol cycles to a memory step.
  void on_priced_step(const StepRecord& r, std::uint64_t cycles);

  /// Closes every call still open; call once, after the last step.
  void finish();

  const std::vector<CallCodeTotals>& totals() const { return totals_; }
  /// Every call in begin order (keep_calls only).
  std::vector<CallCost>& calls() { return calls_; }

 private:
  struct OpenCall {
    CallCost cost;
    std::size_t slot = 0;  ///< index into calls_ (keep_calls only)
  };
  struct ProcState {
    std::vector<OpenCall> open;  ///< innermost call last
    std::vector<std::pair<Word, int>> begun;  ///< per-code call counts
  };

  ProcState& proc_state(ProcId p);
  void close(const OpenCall& call);

  bool keep_calls_;
  std::vector<ProcState> procs_;
  std::vector<CallCodeTotals> totals_;
  std::vector<CallCost> calls_;
};

/// Slices the history into call spans and attributes each memory step to
/// the call it occurred in (CallCostFold's rules), one CallCost per call in
/// begin order. Requires a full-mode history.
std::vector<CallCost> per_call_costs(const History& h);

/// As above, but additionally attributes protocol cycles to each call.
/// `cycle_log` is a SnoopingCache's cycle log (enable_cycle_log() before the
/// run): SharedMemory::apply publishes exactly one CoherenceEvent per
/// applied op, so the log's k-th entry prices the history's k-th memory-step
/// record. Requires the listener attached for the whole run, and not behind
/// a WriteBuffer (buffering breaks the 1:1 correspondence). A log shorter
/// than the history attributes only the steps it covers.
std::vector<CallCost> per_call_costs(const History& h,
                                     const std::vector<std::uint64_t>& cycle_log);

/// Convenience filters over per_call_costs.
std::vector<CallCost> calls_of(const std::vector<CallCost>& costs, ProcId p,
                               Word call_code);

/// Maximum RMRs across calls of `call_code` with call_index >= `from_index`
/// (e.g. from_index = 1 to ask "what do steady-state polls cost?").
std::uint64_t max_rmrs_from_index(const std::vector<CallCost>& costs,
                                  Word call_code, int from_index);

}  // namespace rmrsim
