// Unit tests for the common substrate: deterministic RNG, invariant
// checking, table rendering, the slope fitters' edge cases, the CRC-32
// checksum, and atomic file replacement under concurrent writers.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/crc32.h"
#include "common/fsio.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace rmrsim {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowRespectsBound) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(Rng, ChanceIsRoughlyCalibrated) {
  SplitMix64 rng(99);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.chance(1, 4)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(Check, EnsureThrowsWithLocation) {
  try {
    ensure(false, "deliberate failure");
    FAIL() << "ensure did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("deliberate failure"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("common_test"), std::string::npos);
  }
  EXPECT_NO_THROW(ensure(true, "fine"));
}

TEST(Check, FailAlwaysThrows) {
  EXPECT_THROW(fail("boom"), std::logic_error);
}

TEST(Table, AlignsColumnsAndRules) {
  TextTable t;
  t.set_header({"a", "long-header", "c"});
  t.add_row({"xxxxx", "1", "2"});
  t.add_row({"y", "22", "333"});
  const std::string out = t.render();
  // Header line, rule line, two rows.
  int lines = 0;
  for (const char c : out) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4);
  // Every row starts at column 0 and the rule is dashes.
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_NE(out.find("long-header"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(Fixed, FormatsDigits) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
  EXPECT_EQ(fixed(-1.5, 1), "-1.5");
}

TEST(Stats, LinearSlope) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {10, 12, 14, 16};
  EXPECT_NEAR(linear_slope(xs, ys), 2.0, 1e-12);
}

TEST(Stats, LogLogRejectsNonPositive) {
  const std::vector<double> xs = {1, 2};
  const std::vector<double> ys = {0, 1};
  EXPECT_THROW(loglog_slope(xs, ys), std::logic_error);
}

TEST(Stats, SlopeNeedsTwoPoints) {
  const std::vector<double> one = {1};
  EXPECT_THROW(linear_slope(one, one), std::logic_error);
}

TEST(Stats, QuadraticHasSlopeTwoOnLogLog) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = 2; x <= 64; x *= 2) {
    xs.push_back(x);
    ys.push_back(x * x);
  }
  EXPECT_NEAR(loglog_slope(xs, ys), 2.0, 1e-9);
}

// The textbook one-bit-at-a-time CRC-32 (reflected, polynomial 0xEDB88320):
// the reference the table-driven crc32() must agree with byte for byte.
std::uint32_t crc32_bitwise(std::string_view bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, CheckValue) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

// Every length 0..300 at every start offset 0..7, so each length meets the
// eight-byte fold at every alignment and every tail length.
TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  SplitMix64 rng(42);
  std::string buf(300 + 8, '\0');
  for (char& ch : buf) ch = static_cast<char>(rng.below(256));
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::string_view s(buf.data() + off, len);
      ASSERT_EQ(crc32(s), crc32_bitwise(s)) << "offset " << off << " length "
                                            << len;
    }
  }
}

// Concurrent writers of one path must never share a staging file: the
// final file is one writer's whole payload, and no staging file is left.
TEST(Fsio, ConcurrentAtomicWritersLeaveOneWholePayload) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("rmrsim-fsio-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "artifact.json").string();

  constexpr int kThreads = 8;
  constexpr int kWrites = 50;
  // Distinct payloads of distinct lengths, long enough that a shared
  // staging file would interleave or truncate them.
  auto payload = [](int t, int i) {
    return std::string(static_cast<std::size_t>(4096 + t * kWrites + i),
                       static_cast<char>('a' + t)) +
           "|" + std::to_string(t) + "." + std::to_string(i);
  };
  std::set<std::string> all;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kWrites; ++i) all.insert(payload(t, i));
  }

  std::vector<std::thread> writers;
  std::vector<std::string> errors(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      try {
        for (int i = 0; i < kWrites; ++i) {
          write_file_atomic(path, payload(t, i));
        }
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(t)] = e.what();
      }
    });
  }
  for (std::thread& w : writers) w.join();
  for (const std::string& e : errors) EXPECT_EQ(e, "");

  const auto final_bytes = read_file(path);
  ASSERT_TRUE(final_bytes.has_value());
  EXPECT_EQ(all.count(*final_bytes), 1u) << "torn or foreign final file";
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    ++entries;
    EXPECT_NE(e.path().extension(), ".tmp") << e.path();
  }
  EXPECT_EQ(entries, 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rmrsim
