#include "common/codec.h"

#include <bit>

#include "common/crc32.h"

namespace rmrsim {

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_double(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

void put_schedule(std::string& out, const std::vector<ProcId>& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  for (const ProcId p : s) {
    put_u32(out, static_cast<std::uint32_t>(p));
  }
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  p += 4;
  return v;
}

std::uint32_t ByteReader::count(std::size_t min_elem_bytes) {
  const std::uint32_t n = u32();
  if (static_cast<std::size_t>(end - p) / min_elem_bytes < n) {
    throw std::runtime_error("count " + std::to_string(n) +
                             " exceeds the remaining " +
                             std::to_string(end - p) + " bytes");
  }
  return n;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  p += 8;
  return v;
}

double ByteReader::dbl() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint32_t n = count(1);
  std::string s(p, n);
  p += n;
  return s;
}

std::vector<ProcId> ByteReader::schedule() {
  const std::uint32_t n = count(4);
  std::vector<ProcId> s;
  s.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    s.push_back(static_cast<ProcId>(u32()));
  }
  return s;
}

void put_record(std::string& out, std::string_view payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out += payload;
  put_u32(out, crc32(payload));
}

std::string take_record(ByteReader& r) {
  const std::uint32_t len = r.u32();
  r.need(len);
  std::string payload(r.p, len);
  r.p += len;
  const std::uint32_t want = r.u32();
  if (crc32(payload) != want) {
    throw std::runtime_error("record CRC mismatch");
  }
  return payload;
}

}  // namespace rmrsim
