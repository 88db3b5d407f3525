// Little-endian byte-stream codec shared by every durable/wire format.
//
// The checkpoint file format (verify/checkpoint.cc), the snapshot wire
// codec (runtime/snapshot_codec.cc), and the sharded-exploration pipe
// protocol (verify/dist/protocol.cc) all speak the same primitive
// vocabulary: fixed-width little-endian integers, bit-cast doubles,
// length-prefixed strings and schedules, and CRC-32-framed records. One
// implementation means one set of malformation tests covers them all, and
// a record written by any producer is rejected identically by any
// consumer when torn, truncated, or bit-flipped.
//
// Layout is byte-for-byte the format PR 6 shipped in the checkpoint files;
// factoring it out must not (and does not) change a single byte on disk.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace rmrsim {

// ---- little-endian byte stream helpers ---------------------------------

void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_double(std::string& out, double v);

/// u32 length prefix + raw bytes.
void put_string(std::string& out, std::string_view s);

/// u32 count + one u32 per ProcId.
void put_schedule(std::string& out, const std::vector<ProcId>& s);

/// Sequential reader over an encoded byte range. Every accessor bounds-
/// checks and throws std::runtime_error("record truncated") rather than
/// reading past the end; decoders call done() last to reject trailing
/// garbage explicitly.
struct ByteReader {
  const char* p;
  const char* end;

  explicit ByteReader(std::string_view bytes)
      : p(bytes.data()), end(bytes.data() + bytes.size()) {}

  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end - p) < n) {
      throw std::runtime_error("record truncated");
    }
  }
  std::uint32_t u32();
  /// A u32 element count, bounded by what the input can hold: throws
  /// std::runtime_error when count * `min_elem_bytes` exceeds the bytes
  /// left. Every decoder reads its counts through here before it reserves
  /// or resizes, so a hostile count fails loudly instead of allocating.
  std::uint32_t count(std::size_t min_elem_bytes);
  std::uint64_t u64();
  double dbl();
  std::string str();
  std::vector<ProcId> schedule();
  bool done() const { return p == end; }
};

// ---- record framing -----------------------------------------------------

/// Appends one CRC-framed record: u32 payload length, payload, u32 CRC of
/// the payload.
void put_record(std::string& out, std::string_view payload);

/// Extracts and CRC-verifies the next framed record. Throws
/// std::runtime_error on truncation or CRC mismatch.
std::string take_record(ByteReader& r);

}  // namespace rmrsim
