#include "workload/trace.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/check.h"
#include "common/crc32.h"
#include "common/fsio.h"

namespace rmrsim {

namespace {

constexpr std::string_view kBinaryMagic = "RMRTRC1\n";

/// Upper bound on the reserve() taken on the header's say-so alone. The
/// text header is untrusted input: a 40-byte file declaring
/// ops=1000000000 must die at the end-of-file op-count check, not in a
/// 30 GB up-front allocation. Past this cap the vector grows as real op
/// lines actually arrive. (The binary parser needs no such cap — it
/// validates the file length against the declared count before reserving.)
constexpr std::uint64_t kSpeculativeReserveCap = 1u << 20;

[[noreturn]] void parse_fail(std::string_view origin, std::size_t line,
                             const std::string& what) {
  fail(std::string(origin) + ":" + std::to_string(line) + ": " + what);
}

/// Strict uint64 parse: decimal or 0x-hex, full consumption, no sign, no
/// overflow. Reports against `origin:line` on any violation.
std::uint64_t parse_u64(std::string_view tok, std::string_view origin,
                        std::size_t line, const std::string& what) {
  if (tok.empty() || tok[0] == '-' || tok[0] == '+') {
    parse_fail(origin, line,
               what + " expects an unsigned integer, got '" +
                   std::string(tok) + "'");
  }
  const std::string buf(tok);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, 0);
  if (errno != 0 || end == nullptr || *end != '\0') {
    parse_fail(origin, line,
               what + " expects an unsigned integer, got '" + buf + "'" +
                   (errno == ERANGE ? " (out of 64-bit range)" : ""));
  }
  return v;
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < s.size() && s[j] != ' ' && s[j] != '\t') ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

/// `key=value` field of the header; the key must match exactly.
std::uint64_t header_field(std::string_view tok, std::string_view key,
                           std::string_view origin, std::size_t line) {
  const std::size_t eq = tok.find('=');
  if (eq == std::string_view::npos || tok.substr(0, eq) != key) {
    parse_fail(origin, line,
               "header expects '" + std::string(key) + "=<count>', got '" +
                   std::string(tok) + "'");
  }
  return parse_u64(tok.substr(eq + 1), origin, line,
                   "header " + std::string(key));
}

struct KindInfo {
  std::string_view mnemonic;
  bool has_addr;
  int args;  ///< operands after the address
};

constexpr KindInfo kKinds[] = {
    {"RD", true, 0},  {"WR", true, 1},  {"CAS", true, 2}, {"FAA", true, 1},
    {"FAS", true, 1}, {"TAS", true, 0}, {"FENCE", false, 0},
};

const KindInfo& kind_info(TraceOpKind k) {
  return kKinds[static_cast<int>(k)];
}

// ---- binary encoding helpers -------------------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t get_u32(std::string_view b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[at + i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(std::string_view b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[at + i]))
         << (8 * i);
  }
  return v;
}

[[noreturn]] void binary_fail(std::string_view origin, std::size_t offset,
                              const std::string& what) {
  fail(std::string(origin) + ": binary trace malformed at byte offset " +
       std::to_string(offset) + ": " + what);
}

/// One binary record: kind u8, proc u32, addr u64, arg0 u64, arg1 u64.
constexpr std::size_t kRecordSize = 1 + 4 + 8 + 8 + 8;
constexpr std::size_t kBinaryHeaderSize = kBinaryMagic.size() + 4 + 8;

}  // namespace

std::string_view to_string(TraceOpKind k) { return kind_info(k).mnemonic; }

Trace parse_trace_text(std::string_view text, std::string_view origin) {
  Trace trace;
  std::uint64_t declared_ops = 0;
  bool saw_header = false;
  std::vector<std::uint64_t> next_seq;  // per-proc expected sequence number

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view raw =
        text.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    const std::vector<std::string_view> toks = split_ws(raw);
    if (toks.empty() || toks[0][0] == '#') continue;

    if (!saw_header) {
      if (toks[0] != "rmrsim-trace") {
        parse_fail(origin, line_no,
                   "expected header 'rmrsim-trace v1 procs=<P> ops=<K>', "
                   "got '" + std::string(toks[0]) + "...'");
      }
      if (toks.size() != 4 || toks[1] != "v1") {
        parse_fail(origin, line_no,
                   toks.size() > 1 && toks[1] != "v1"
                       ? "unsupported trace version '" + std::string(toks[1]) +
                             "' (this parser reads v1)"
                       : "header expects exactly 'rmrsim-trace v1 procs=<P> "
                         "ops=<K>'");
      }
      const std::uint64_t procs =
          header_field(toks[2], "procs", origin, line_no);
      declared_ops = header_field(toks[3], "ops", origin, line_no);
      if (procs == 0 || procs > kMaxTraceProcs) {
        parse_fail(origin, line_no,
                   "procs=" + std::to_string(procs) + " out of range [1, " +
                       std::to_string(kMaxTraceProcs) + "]");
      }
      if (declared_ops > kMaxTraceOps) {
        parse_fail(origin, line_no,
                   "ops=" + std::to_string(declared_ops) +
                       " exceeds the maximum trace size (" +
                       std::to_string(kMaxTraceOps) + ")");
      }
      trace.nprocs = static_cast<int>(procs);
      trace.ops.reserve(std::min(declared_ops, kSpeculativeReserveCap));
      next_seq.assign(procs, 0);
      saw_header = true;
      continue;
    }

    if (trace.ops.size() == declared_ops) {
      parse_fail(origin, line_no,
                 "more ops than the header's ops=" +
                     std::to_string(declared_ops) + " declared");
    }

    // <proc> <seq> <MNEMONIC> [<addr> [args...]]
    if (toks.size() < 3) {
      parse_fail(origin, line_no,
                 "op line expects '<proc> <seq> <MNEMONIC> ...', got " +
                     std::to_string(toks.size()) + " token(s)");
    }
    TraceOp op;
    const std::uint64_t proc = parse_u64(toks[0], origin, line_no, "proc");
    if (proc >= static_cast<std::uint64_t>(trace.nprocs)) {
      parse_fail(origin, line_no,
                 "proc " + std::to_string(proc) + " out of range [0, " +
                     std::to_string(trace.nprocs) + ")");
    }
    op.proc = static_cast<ProcId>(proc);
    const std::uint64_t seq = parse_u64(toks[1], origin, line_no, "seq");
    if (seq != next_seq[proc]) {
      parse_fail(origin, line_no,
                 "non-monotonic sequence for proc " + std::to_string(proc) +
                     ": expected seq " + std::to_string(next_seq[proc]) +
                     ", got " + std::to_string(seq));
    }
    ++next_seq[proc];

    int kind = -1;
    for (int k = 0; k < static_cast<int>(std::size(kKinds)); ++k) {
      if (toks[2] == kKinds[k].mnemonic) kind = k;
    }
    if (kind < 0) {
      parse_fail(origin, line_no,
                 "unknown op mnemonic '" + std::string(toks[2]) +
                     "' (want RD|WR|CAS|FAA|FAS|TAS|FENCE)");
    }
    op.kind = static_cast<TraceOpKind>(kind);
    const KindInfo& info = kKinds[kind];
    const std::size_t want = 3 + (info.has_addr ? 1 : 0) + info.args;
    if (toks.size() != want) {
      parse_fail(origin, line_no,
                 std::string(info.mnemonic) + " expects " +
                     std::to_string(want - 3) + " operand(s), got " +
                     std::to_string(toks.size() - 3));
    }
    std::size_t t = 3;
    if (info.has_addr) op.addr = parse_u64(toks[t++], origin, line_no, "addr");
    if (info.args >= 1) {
      op.arg0 = static_cast<Word>(
          parse_u64(toks[t++], origin, line_no, "operand"));
    }
    if (info.args >= 2) {
      op.arg1 = static_cast<Word>(
          parse_u64(toks[t++], origin, line_no, "operand"));
    }
    trace.ops.push_back(op);
  }

  if (!saw_header) {
    parse_fail(origin, line_no, "empty input: no trace header found");
  }
  if (trace.ops.size() != declared_ops) {
    parse_fail(origin, line_no,
               "truncated trace: header declares ops=" +
                   std::to_string(declared_ops) + " but the file ends after " +
                   std::to_string(trace.ops.size()) + " op(s)");
  }
  return trace;
}

std::string trace_to_text(const Trace& trace) {
  std::string out = "rmrsim-trace v1 procs=" + std::to_string(trace.nprocs) +
                    " ops=" + std::to_string(trace.ops.size()) + "\n";
  std::vector<std::uint64_t> seq(trace.nprocs, 0);
  for (const TraceOp& op : trace.ops) {
    const KindInfo& info = kind_info(op.kind);
    out += std::to_string(op.proc);
    out += ' ';
    out += std::to_string(seq[op.proc]++);
    out += ' ';
    out += info.mnemonic;
    if (info.has_addr) {
      out += ' ';
      out += std::to_string(op.addr);
    }
    if (info.args >= 1) {
      out += ' ';
      out += std::to_string(static_cast<std::uint64_t>(op.arg0));
    }
    if (info.args >= 2) {
      out += ' ';
      out += std::to_string(static_cast<std::uint64_t>(op.arg1));
    }
    out += '\n';
  }
  return out;
}

Trace parse_trace_binary(std::string_view bytes, std::string_view origin) {
  if (bytes.size() < kBinaryMagic.size() ||
      bytes.substr(0, kBinaryMagic.size()) != kBinaryMagic) {
    binary_fail(origin, 0, "bad magic (expected RMRTRC1)");
  }
  if (bytes.size() < kBinaryHeaderSize + 4) {
    binary_fail(origin, bytes.size(), "truncated header");
  }
  const std::uint64_t procs = get_u32(bytes, kBinaryMagic.size());
  const std::uint64_t ops = get_u64(bytes, kBinaryMagic.size() + 4);
  if (procs == 0 || procs > kMaxTraceProcs) {
    binary_fail(origin, kBinaryMagic.size(),
                "procs=" + std::to_string(procs) + " out of range [1, " +
                    std::to_string(kMaxTraceProcs) + "]");
  }
  if (ops > kMaxTraceOps) {
    binary_fail(origin, kBinaryMagic.size() + 4,
                "ops=" + std::to_string(ops) +
                    " exceeds the maximum trace size (" +
                    std::to_string(kMaxTraceOps) + ")");
  }
  const std::size_t body_end = kBinaryHeaderSize + ops * kRecordSize;
  if (bytes.size() != body_end + 4) {
    binary_fail(origin, bytes.size(),
                bytes.size() < body_end + 4
                    ? "truncated: header declares " + std::to_string(ops) +
                          " record(s) but the file is " +
                          std::to_string(bytes.size()) + " bytes, want " +
                          std::to_string(body_end + 4)
                    : "trailing bytes after the checksum");
  }
  const std::uint32_t want_crc = get_u32(bytes, body_end);
  const std::uint32_t got_crc = crc32(bytes.substr(0, body_end));
  if (want_crc != got_crc) {
    binary_fail(origin, body_end,
                "CRC mismatch (file is torn or corrupted)");
  }

  Trace trace;
  trace.nprocs = static_cast<int>(procs);
  trace.ops.reserve(ops);
  std::size_t at = kBinaryHeaderSize;
  for (std::uint64_t i = 0; i < ops; ++i, at += kRecordSize) {
    TraceOp op;
    const auto kind = static_cast<unsigned>(
        static_cast<unsigned char>(bytes[at]));
    if (kind >= std::size(kKinds)) {
      binary_fail(origin, at,
                  "record " + std::to_string(i) + " has unknown op kind " +
                      std::to_string(kind));
    }
    op.kind = static_cast<TraceOpKind>(kind);
    const std::uint64_t proc = get_u32(bytes, at + 1);
    if (proc >= procs) {
      binary_fail(origin, at + 1,
                  "record " + std::to_string(i) + " proc " +
                      std::to_string(proc) + " out of range [0, " +
                      std::to_string(procs) + ")");
    }
    op.proc = static_cast<ProcId>(proc);
    op.addr = get_u64(bytes, at + 5);
    op.arg0 = static_cast<Word>(get_u64(bytes, at + 13));
    op.arg1 = static_cast<Word>(get_u64(bytes, at + 21));
    trace.ops.push_back(op);
  }
  return trace;
}

std::string trace_to_binary(const Trace& trace) {
  std::string out(kBinaryMagic);
  out.reserve(kBinaryHeaderSize + trace.ops.size() * kRecordSize + 4);
  put_u32(out, static_cast<std::uint32_t>(trace.nprocs));
  put_u64(out, trace.ops.size());
  for (const TraceOp& op : trace.ops) {
    out.push_back(static_cast<char>(op.kind));
    put_u32(out, static_cast<std::uint32_t>(op.proc));
    put_u64(out, op.addr);
    put_u64(out, static_cast<std::uint64_t>(op.arg0));
    put_u64(out, static_cast<std::uint64_t>(op.arg1));
  }
  put_u32(out, crc32(out));
  return out;
}

Trace load_trace_file(const std::string& path) {
  const std::optional<std::string> bytes = read_file(path);
  ensure(bytes.has_value(), "cannot read trace file '" + path + "'");
  if (bytes->size() >= kBinaryMagic.size() &&
      std::string_view(*bytes).substr(0, kBinaryMagic.size()) ==
          kBinaryMagic) {
    return parse_trace_binary(*bytes, path);
  }
  return parse_trace_text(*bytes, path);
}

void save_trace_file(const std::string& path, const Trace& trace,
                     bool binary) {
  write_file_atomic(path,
                    binary ? trace_to_binary(trace) : trace_to_text(trace));
}

AddrMapSpec parse_addr_map(const std::string& spec) {
  AddrMapSpec m;
  if (spec.empty() || spec == "interleave") return m;
  if (spec == "global") {
    m.policy = AddrMapSpec::Policy::kGlobal;
    return m;
  }
  if (spec == "first-touch") {
    m.policy = AddrMapSpec::Policy::kFirstTouch;
    return m;
  }
  const std::string prefix = "interleave:";
  if (spec.rfind(prefix, 0) == 0) {
    const std::string blk = spec.substr(prefix.size());
    char* end = nullptr;
    errno = 0;
    const unsigned long long b = std::strtoull(blk.c_str(), &end, 10);
    ensure(!blk.empty() && end != nullptr && *end == '\0' && errno == 0 &&
               b > 0,
           "--addr-map interleave:<block> expects a positive integer, got '" +
               blk + "'");
    m.block = b;
    return m;
  }
  fail("unknown address map '" + spec +
       "' (want interleave[:<block>]|global|first-touch)");
}

std::string to_string(const AddrMapSpec& spec) {
  switch (spec.policy) {
    case AddrMapSpec::Policy::kGlobal:
      return "global";
    case AddrMapSpec::Policy::kFirstTouch:
      return "first-touch";
    case AddrMapSpec::Policy::kInterleave:
      return spec.block == 1 ? "interleave"
                             : "interleave:" + std::to_string(spec.block);
  }
  return "?";
}

}  // namespace rmrsim
