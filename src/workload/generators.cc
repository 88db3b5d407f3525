#include "workload/generators.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace rmrsim {

namespace {

// Address-space layout. Each generator draws from its own region; the
// only deliberate overlap is hotset's private stream reusing the private
// region. Private addresses satisfy addr % procs == p, so the default
// interleave map homes each processor's stream in its own module — the
// DSM best case the private generator exists to exhibit.
constexpr std::uint64_t kPrivateSalt = 1000;  ///< keeps addr >= procs*1000
constexpr std::uint64_t kPrivateSlots = 64;
constexpr std::uint64_t kHotWords = 4;
constexpr std::uint64_t kZipfBase = 1u << 20;
constexpr std::uint64_t kZipfUniverse = 1024;
constexpr std::uint64_t kRingBase = 1u << 24;
constexpr std::uint64_t kRingSlots = 8;
constexpr std::uint64_t kMigratoryBase = 1u << 28;
constexpr int kMigratoryGroup = 4;

std::uint64_t private_addr(int procs, ProcId p, std::uint64_t slot) {
  return static_cast<std::uint64_t>(procs) *
             (kPrivateSalt + slot % kPrivateSlots) +
         static_cast<std::uint64_t>(p);
}

TraceOp private_op(SplitMix64& rng, int procs, ProcId p, std::uint64_t slot) {
  TraceOp op;
  op.proc = p;
  op.addr = private_addr(procs, p, slot);
  if (rng.chance(1, 4)) {
    op.kind = TraceOpKind::kWrite;
    op.arg0 = static_cast<Word>(rng.below(1000));
  } else {
    op.kind = TraceOpKind::kRead;
  }
  return op;
}

/// An empty trace with room for all of `s`'s ops: every generator emits
/// exactly s.ops, so one allocation of the final size replaces the
/// doubling chain, whose last step holds the old and the new buffer (up
/// to three times the trace) and which leaves freed blocks of every size
/// behind.
Trace sized_trace(const GenSpec& s) {
  Trace t;
  t.nprocs = s.procs;
  t.ops.reserve(s.ops);
  return t;
}

Trace gen_private(const GenSpec& s) {
  Trace t = sized_trace(s);
  SplitMix64 rng(s.seed);
  std::vector<std::uint64_t> slot(s.procs, 0);
  for (std::uint64_t i = 0; i < s.ops; ++i) {
    const ProcId p = static_cast<ProcId>(i % s.procs);
    t.ops.push_back(private_op(rng, s.procs, p, slot[p]++));
  }
  return t;
}

Trace gen_hotset(const GenSpec& s) {
  Trace t = sized_trace(s);
  SplitMix64 rng(s.seed);
  std::vector<std::uint64_t> slot(s.procs, 0);
  for (std::uint64_t i = 0; i < s.ops; ++i) {
    const ProcId p = static_cast<ProcId>(i % s.procs);
    TraceOp op;
    op.proc = p;
    if (rng.chance(1, 64)) {
      op.kind = TraceOpKind::kFence;
    } else if (rng.chance(3, 4)) {
      op.addr = rng.below(kHotWords);
      switch (rng.below(6)) {
        case 0:
        case 1:
          op.kind = TraceOpKind::kRead;
          break;
        case 2:
        case 3:
          op.kind = TraceOpKind::kWrite;
          op.arg0 = static_cast<Word>(rng.below(1000));
          break;
        case 4:
          op.kind = TraceOpKind::kFaa;
          op.arg0 = 1;
          break;
        default:
          op.kind = TraceOpKind::kCas;
          op.arg0 = static_cast<Word>(rng.below(4));
          op.arg1 = static_cast<Word>(rng.below(1000));
          break;
      }
    } else {
      op = private_op(rng, s.procs, p, slot[p]++);
    }
    t.ops.push_back(op);
  }
  return t;
}

Trace gen_zipf(const GenSpec& s) {
  Trace t = sized_trace(s);
  SplitMix64 rng(s.seed);
  for (std::uint64_t i = 0; i < s.ops; ++i) {
    const ProcId p = static_cast<ProcId>(i % s.procs);
    TraceOp op;
    op.proc = p;
    if (rng.chance(1, 128)) {
      op.kind = TraceOpKind::kFence;
      t.ops.push_back(op);
      continue;
    }
    // Integer-only heavy tail: rank bucket b is reached with probability
    // 2^-(b+1), and the op lands uniformly inside bucket [2^b - 1, 2^(b+1)
    // - 1) — rank r is drawn with probability ~ 1/(r+1), the zipf(1) shape,
    // without touching libm.
    std::uint64_t b = 0;
    while (b < 9 && rng.chance(1, 2)) ++b;
    const std::uint64_t idx = (std::uint64_t{1} << b) - 1 +
                              rng.below(std::uint64_t{1} << b);
    op.addr = kZipfBase + std::min(idx, kZipfUniverse - 1);
    const std::uint64_t r = rng.below(40);
    if (r < 24) {
      op.kind = TraceOpKind::kRead;
    } else if (r < 34) {
      op.kind = TraceOpKind::kWrite;
      op.arg0 = static_cast<Word>(rng.below(1000));
    } else if (r < 36) {
      op.kind = TraceOpKind::kFaa;
      op.arg0 = 1;
    } else if (r < 38) {
      op.kind = TraceOpKind::kCas;
      op.arg0 = static_cast<Word>(rng.below(8));
      op.arg1 = static_cast<Word>(rng.below(1000));
    } else if (r < 39) {
      op.kind = TraceOpKind::kTas;
    } else {
      op.kind = TraceOpKind::kFas;
      op.arg0 = static_cast<Word>(rng.below(1000));
    }
    t.ops.push_back(op);
  }
  return t;
}

Trace gen_ring(const GenSpec& s) {
  Trace t = sized_trace(s);
  SplitMix64 rng(s.seed);
  const int pairs = s.procs / 2;
  std::vector<std::uint64_t> produced(std::max(pairs, 1), 0);
  std::vector<std::uint64_t> consumed(std::max(pairs, 1), 0);
  std::vector<std::uint64_t> turn(s.procs, 0);
  std::vector<std::uint64_t> slot(s.procs, 0);
  for (std::uint64_t i = 0; i < s.ops; ++i) {
    const ProcId p = static_cast<ProcId>(i % s.procs);
    const int q = p / 2;
    TraceOp op;
    op.proc = p;
    if (q >= pairs) {
      // Odd processor count: the unpaired straggler streams privately.
      t.ops.push_back(private_op(rng, s.procs, p, slot[p]++));
      continue;
    }
    const std::uint64_t head = kRingBase + static_cast<std::uint64_t>(q) * 16;
    const bool second_half = (turn[p]++ % 2) == 1;
    if (p % 2 == 0) {  // producer: fill a slot, then publish via the head
      if (!second_half) {
        op.kind = TraceOpKind::kWrite;
        op.addr = head + 1 + produced[q] % kRingSlots;
        op.arg0 = static_cast<Word>(rng.below(1000));
      } else {
        op.kind = TraceOpKind::kFaa;
        op.addr = head;
        op.arg0 = 1;
        ++produced[q];
      }
    } else {  // consumer: poll the head, then read the next slot
      if (!second_half) {
        op.kind = TraceOpKind::kRead;
        op.addr = head;
      } else {
        op.kind = TraceOpKind::kRead;
        op.addr = head + 1 + consumed[q] % kRingSlots;
        ++consumed[q];
      }
    }
    t.ops.push_back(op);
  }
  return t;
}

Trace gen_migratory(const GenSpec& s) {
  Trace t = sized_trace(s);
  SplitMix64 rng(s.seed);
  const int groups = (s.procs + kMigratoryGroup - 1) / kMigratoryGroup;
  // Round-robin over groups; within a group the object is held for a
  // 4-op read-modify-write burst, then migrates to the next member. The
  // global order is burst-contiguous on purpose: that is what gives the
  // holder temporal ownership for MOESI/Dragon to exploit.
  std::uint64_t round = 0;
  while (t.ops.size() < s.ops) {
    for (int g = 0; g < groups && t.ops.size() < s.ops; ++g) {
      const int base = g * kMigratoryGroup;
      const int size = std::min(kMigratoryGroup, s.procs - base);
      const ProcId holder =
          static_cast<ProcId>(base + static_cast<int>(round) % size);
      const std::uint64_t obj =
          kMigratoryBase + static_cast<std::uint64_t>(g);
      for (int k = 0; k < 4 && t.ops.size() < s.ops; ++k) {
        TraceOp op;
        op.proc = holder;
        op.addr = obj;
        if (k % 2 == 0) {
          op.kind = TraceOpKind::kRead;
        } else {
          op.kind = TraceOpKind::kWrite;
          op.arg0 = static_cast<Word>(rng.below(1000));
        }
        t.ops.push_back(op);
      }
    }
    ++round;
  }
  return t;
}

}  // namespace

const std::vector<std::string>& generator_names() {
  static const std::vector<std::string> kNames = {
      "private", "hotset", "zipf", "ring", "migratory"};
  return kNames;
}

bool is_generator_name(const std::string& kind) {
  const auto& names = generator_names();
  return std::find(names.begin(), names.end(), kind) != names.end();
}

Trace generate_trace(const GenSpec& spec) {
  ensure(spec.procs >= 1 &&
             static_cast<std::uint64_t>(spec.procs) <= kMaxTraceProcs,
         "generate_trace: procs out of range");
  ensure(spec.ops > 0 && spec.ops <= kMaxTraceOps,
         "generate_trace: ops out of range");
  if (spec.kind == "private") return gen_private(spec);
  if (spec.kind == "hotset") return gen_hotset(spec);
  if (spec.kind == "zipf") return gen_zipf(spec);
  if (spec.kind == "ring") return gen_ring(spec);
  if (spec.kind == "migratory") return gen_migratory(spec);
  fail("unknown trace generator '" + spec.kind +
       "' (want private|hotset|zipf|ring|migratory)");
}

}  // namespace rmrsim
