#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/bytes.hpp"
#include "util/crc64.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/table.hpp"

namespace ckpt::util {
namespace {

TEST(Crc64, EmptyIsZero) { EXPECT_EQ(crc64(nullptr, 0), 0u); }

TEST(Crc64, DetectsSingleBitFlip) {
  std::vector<std::byte> data(1024);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i & 0xFF);
  const std::uint64_t clean = crc64(data.data(), data.size());
  data[512] ^= std::byte{0x01};
  EXPECT_NE(clean, crc64(data.data(), data.size()));
}

TEST(Crc64, SeedChaining) {
  const char part1[] = "hello ";
  const char part2[] = "world";
  const char whole[] = "hello world";
  const std::uint64_t chained =
      crc64(part2, 5, crc64(part1, 6));
  EXPECT_EQ(chained, crc64(whole, 11));
}

TEST(Crc64, Deterministic) {
  const char data[] = "checkpoint";
  EXPECT_EQ(crc64(data, 10), crc64(data, 10));
}

// --- slicing-by-8 vs bytewise reference equivalence -------------------------
//
// crc64() is now slicing-by-8; crc64_bytewise() keeps the original loop.
// The two must agree on every length (head/tail handling), every alignment,
// and under seeding/chaining — exhaustively over the sizes that matter.

std::vector<std::byte> patterned(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::byte>(rng.next_u64() & 0xFF);
  }
  return data;
}

TEST(Crc64, SlicedMatchesBytewiseOnEveryLengthUpTo512) {
  const std::vector<std::byte> data = patterned(512, 0xC0FFEE);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::span<const std::byte> view(data.data(), len);
    ASSERT_EQ(crc64(view), crc64_bytewise(view)) << "len " << len;
  }
}

TEST(Crc64, SlicedMatchesBytewiseOnUnalignedHeadsAndTails) {
  const std::vector<std::byte> data = patterned(4096 + 16, 0xA11CE);
  for (std::size_t head = 0; head < 8; ++head) {
    for (std::size_t tail = 0; tail < 8; ++tail) {
      const std::span<const std::byte> view(data.data() + head,
                                            data.size() - head - tail);
      ASSERT_EQ(crc64(view), crc64_bytewise(view)) << "head " << head << " tail " << tail;
    }
  }
}

TEST(Crc64, SlicedMatchesBytewiseUnderSeeding) {
  const std::vector<std::byte> data = patterned(1000, 0x5EED);
  for (std::uint64_t seed : {0ULL, 1ULL, 0xDEADBEEFULL, ~0ULL}) {
    ASSERT_EQ(crc64(data, seed), crc64_bytewise(data, seed)) << "seed " << seed;
  }
}

TEST(Crc64, SlicedChainsAtEverySplitPoint) {
  const std::vector<std::byte> data = patterned(96, 0xBEEF);
  const std::uint64_t whole = crc64(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::span<const std::byte> a(data.data(), split);
    const std::span<const std::byte> b(data.data() + split, data.size() - split);
    ASSERT_EQ(crc64(b, crc64(a)), whole) << "split " << split;
  }
}

TEST(Crc64, CombineJoinsIndependentChecksums) {
  const std::vector<std::byte> data = patterned(777, 0xFACADE);
  const std::uint64_t whole = crc64(data);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                            std::size_t{100}, std::size_t{776}, std::size_t{777}}) {
    const std::span<const std::byte> a(data.data(), split);
    const std::span<const std::byte> b(data.data() + split, data.size() - split);
    ASSERT_EQ(crc64_combine(crc64(a), crc64(b), b.size()), whole) << "split " << split;
  }
}

TEST(Crc64, CombineFoldsManyShardsInOrder) {
  const std::vector<std::byte> data = patterned(10000, 0x10AD);
  constexpr std::size_t kShard = 333;  // deliberately not a multiple of 8
  std::uint64_t folded = 0;  // crc of the empty prefix
  for (std::size_t off = 0; off < data.size(); off += kShard) {
    const std::size_t len = std::min(kShard, data.size() - off);
    const std::span<const std::byte> shard(data.data() + off, len);
    folded = crc64_combine(folded, crc64(shard), len);
  }
  EXPECT_EQ(folded, crc64(data));
}

TEST(Crc64, CombineHandlesLargeLengthsWithoutADataPass) {
  // Sanity: combine(x, crc(0^n), n) must equal crc(A ++ 0^n) for a huge-ish
  // n we can still afford to check directly once.
  const std::vector<std::byte> a = patterned(64, 0xAB);
  std::vector<std::byte> padded = a;
  padded.resize(a.size() + (1 << 20));  // 1 MiB of zeros appended
  const std::span<const std::byte> zeros(padded.data() + a.size(), 1 << 20);
  EXPECT_EQ(crc64_combine(crc64(a), crc64(zeros), zeros.size()), crc64(padded));
}

// --- crc64_combine vs the GF(2) matrix oracle --------------------------------
//
// Advancing the CRC register across n zero bytes is a linear operator on the
// 64-bit register; column i of `Gf2Matrix` is the operator applied to basis
// vector 1<<i.  matrix_combine raises the one-zero-byte operator to the n-th
// power by square-and-multiply, zlib's crc32_combine technique adapted to
// the non-reflected ECMA-182 register.  It shares no code with the kernels'
// multiply mod P, so it pins every kernel's shift.

using Gf2Matrix = std::array<std::uint64_t, 64>;

std::uint64_t gf2_apply(const Gf2Matrix& m, std::uint64_t v) {
  std::uint64_t out = 0;
  while (v != 0) {
    out ^= m[static_cast<std::size_t>(std::countr_zero(v))];
    v &= v - 1;
  }
  return out;
}

Gf2Matrix gf2_multiply(const Gf2Matrix& a, const Gf2Matrix& b) {
  Gf2Matrix out{};
  for (std::size_t i = 0; i < 64; ++i) out[i] = gf2_apply(a, b[i]);
  return out;
}

Gf2Matrix make_zero_byte_matrix() {
  // One zero bit: r' = (r << 1) ^ (msb(r) ? poly : 0).
  Gf2Matrix bit{};
  for (std::size_t i = 0; i < 63; ++i) bit[i] = 1ULL << (i + 1);
  bit[63] = 0x42F0E1EBA9EA3693ULL;  // ECMA-182
  // One zero byte = eight zero bits: square three times.
  Gf2Matrix byte = gf2_multiply(bit, bit);  // 2 bits
  byte = gf2_multiply(byte, byte);          // 4 bits
  return gf2_multiply(byte, byte);          // 8 bits
}

std::uint64_t matrix_combine(std::uint64_t crc_a, std::uint64_t crc_b, std::uint64_t len_b) {
  static const Gf2Matrix kZeroByte = make_zero_byte_matrix();
  std::uint64_t shifted = crc_a;
  Gf2Matrix power = kZeroByte;
  for (std::uint64_t n = len_b; n != 0; n >>= 1) {
    if ((n & 1) != 0) shifted = gf2_apply(power, shifted);
    if (n > 1) power = gf2_multiply(power, power);
  }
  return shifted ^ crc_b;
}

TEST(Crc64, CombineMatchesMatrixOracle) {
  std::vector<std::uint64_t> lens = {0, 1, std::uint64_t{1} << 63, ~std::uint64_t{0}};
  for (unsigned k = 1; k < 64; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    lens.insert(lens.end(), {p - 1, p, p + 1});
  }
  struct Triple {
    std::uint64_t crc_a, crc_b, len_b, expect;
  };
  std::vector<Triple> triples;
  Rng rng(0xC0B1);
  const auto add = [&](std::uint64_t crc_a, std::uint64_t len_b) {
    const std::uint64_t crc_b = rng.next_u64();
    triples.push_back({crc_a, crc_b, len_b, matrix_combine(crc_a, crc_b, len_b)});
  };
  for (const std::uint64_t len : lens) {
    add(0, len);
    add(~std::uint64_t{0}, len);
  }
  for (int i = 0; i < 2000; ++i) {
    // Half full-width lengths, half the sizes images and chunks really have.
    const std::uint64_t crc_a = rng.next_u64();
    add(crc_a, i % 2 == 0 ? rng.next_u64() : rng.next_below(std::uint64_t{1} << 26));
  }

  // The portable kernel runs wherever the clmul one does, so both are pinned.
  std::size_t kernels_run = 0;
  for (const Crc64Kernel& kernel : crc64_kernels()) {
    if (!kernel.supported) continue;
    ++kernels_run;
    for (const Triple& t : triples) {
      ASSERT_EQ(kernel.shift(t.crc_a, t.len_b) ^ t.crc_b, t.expect)
          << kernel.name << " crc_a " << t.crc_a << " len_b " << t.len_b;
    }
  }
  EXPECT_GE(kernels_run, 1u);
  for (const Triple& t : triples) {
    ASSERT_EQ(crc64_combine(t.crc_a, t.crc_b, t.len_b), t.expect)
        << "dispatched crc_a " << t.crc_a << " len_b " << t.len_b;
  }
}

// --- Every compiled kernel vs the bytewise oracle ----------------------------
//
// Each kernel crc64_kernels() lists runs by name ("dispatched" is crc64()
// itself), skipped where the build or the CPU lacks it.  The folding kernel
// switches paths at one 128-byte round and at every whole 16-byte lane, so
// lengths sweep across all of those at every 64-byte misalignment.

class Crc64Kernels : public ::testing::TestWithParam<const char*> {
 protected:
  using Fn = std::uint64_t (*)(std::span<const std::byte>, std::uint64_t);

  void SetUp() override {
    const std::string_view name = GetParam();
    if (name == "dispatched") {
      fn_ = [](std::span<const std::byte> data, std::uint64_t seed) { return crc64(data, seed); };
      return;
    }
    for (const Crc64Kernel& kernel : crc64_kernels()) {
      if (name != kernel.name) continue;
      if (!kernel.supported) GTEST_SKIP() << name << ": this CPU lacks the instructions";
      fn_ = kernel.fn;
      return;
    }
    GTEST_SKIP() << name << ": not compiled for this target";
  }

  Fn fn_ = nullptr;
};

TEST_P(Crc64Kernels, MatchesBytewiseOnEveryLengthToTwoKiBAtEveryMisalignment) {
  constexpr std::size_t kMaxLen = 2048;
  const std::vector<std::byte> data = patterned(kMaxLen + 64, 0x5EA7);
  for (std::size_t misalign = 0; misalign < 64; ++misalign) {
    // The oracle grows one byte at a time by seed chaining.
    std::uint64_t expect = 0;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::span<const std::byte> view(data.data() + misalign, len);
      ASSERT_EQ(fn_(view, 0), expect) << "misalign " << misalign << " len " << len;
      expect = crc64_bytewise(std::span(data.data() + misalign + len, 1), expect);
    }
  }
}

TEST_P(Crc64Kernels, MatchesBytewiseAroundFoldBoundaries) {
  const std::vector<std::byte> data = patterned(4096 + 64, 0xB0DA);
  for (const std::size_t boundary : {128, 256, 1024, 4096}) {
    for (const std::size_t len : {boundary - 1, boundary, boundary + 1}) {
      for (const std::uint64_t seed : {0ULL, 1ULL, 0xDEADBEEFULL, ~0ULL}) {
        const std::span<const std::byte> view(data.data() + 3, len);
        ASSERT_EQ(fn_(view, seed), crc64_bytewise(view, seed))
            << "len " << len << " seed " << seed;
      }
    }
  }
}

TEST_P(Crc64Kernels, SeededChainingMatchesAtEverySplitPoint) {
  const std::vector<std::byte> data = patterned(1100, 0xC4A1);
  const std::uint64_t whole = crc64_bytewise(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::span<const std::byte> a(data.data(), split);
    const std::span<const std::byte> b(data.data() + split, data.size() - split);
    ASSERT_EQ(fn_(b, fn_(a, 0)), whole) << "split " << split;
  }
}

TEST_P(Crc64Kernels, MatchesBytewiseOnSixtyFourMiB) {
  const std::vector<std::byte> data = patterned(std::size_t{64} << 20, 0x64);
  EXPECT_EQ(fn_(data, 0x1234), crc64_bytewise(data, 0x1234));
}

INSTANTIATE_TEST_SUITE_P(ByName, Crc64Kernels,
                         ::testing::Values("dispatched", "sliced", "pclmul"),
                         [](const auto& info) { return std::string(info.param); });

TEST(Crc64, DispatchRunsTheLastSupportedKernel) {
  const char* expected = nullptr;
  for (const Crc64Kernel& kernel : crc64_kernels()) {
    if (kernel.supported) expected = kernel.name;
  }
  ASSERT_NE(expected, nullptr);
  EXPECT_STREQ(crc64_kernel_name(), expected);
  EXPECT_STREQ(crc64_kernels().front().name, "sliced");
  EXPECT_TRUE(crc64_kernels().front().supported);
}

TEST(Crc64, BytesHashedCountsEveryDispatchedByte) {
  const std::vector<std::byte> data = patterned(1000, 0xC0);
  const std::uint64_t before = crc64_bytes_hashed();
  crc64(data);
  crc64(data.data(), 10);
  EXPECT_EQ(crc64_bytes_hashed() - before, 1010u);
  // The named kernels are test and bench entry points, not work.
  crc64_sliced(data);
  crc64_bytewise(data);
  EXPECT_EQ(crc64_bytes_hashed() - before, 1010u);
}

TEST(Crc64, BytesHashedSumsEveryThread) {
  // More threads than the counter has slots, so some threads share one.
  constexpr std::size_t kThreads = 72;
  constexpr std::size_t kCallsPerThread = 50;
  const std::vector<std::byte> data = patterned(kThreads, 0x5A);
  const std::uint64_t before = crc64_bytes_hashed();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&data, t] {
      for (std::size_t i = 0; i < kCallsPerThread; ++i) crc64(std::span(data).first(t + 1));
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(crc64_bytes_hashed() - before, kCallsPerThread * kThreads * (kThreads + 1) / 2);
}

// --- Byte kernels and the zero-run codec vs byte-loop oracles ----------------
//
// The kernels step a word (first_nonzero four words) at a time and finish
// the tail a byte at a time, so every length to 72 at every start
// misalignment to 7 crosses both paths.  The bytes just outside each span
// hold what would change the answer if a kernel read or wrote past an end.

constexpr std::size_t kMaxKernelLen = 72;
constexpr std::size_t kMisalignments = 8;
constexpr std::size_t kKernelBuf = kMaxKernelLen + 2 * kMisalignments;

std::size_t first_nonzero_bytewise(std::span<const std::byte> bytes) {
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] != std::byte{0}) return i;
  }
  return bytes.size();
}

std::size_t first_zero_bytewise(std::span<const std::byte> bytes) {
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == std::byte{0}) return i;
  }
  return bytes.size();
}

/// The byte-at-a-time encoder util::rle_encode replaced.  Its records are
/// the on-media delta format, so the word-wide encoder must match it byte
/// for byte.
std::vector<std::byte> rle_encode_bytewise(std::span<const std::byte> xored) {
  Serializer s;
  std::size_t pos = 0;
  const std::size_t n = xored.size();
  while (pos < n) {
    const std::size_t zero_start = pos;
    while (pos < n && xored[pos] == std::byte{0}) ++pos;
    const std::size_t zero_run = pos - zero_start;
    const std::size_t lit_start = pos;
    while (pos < n) {
      if (xored[pos] != std::byte{0}) {
        ++pos;
        continue;
      }
      std::size_t z = pos;
      while (z < n && xored[z] == std::byte{0}) ++z;
      if (z - pos >= kMinZeroRun || z == n) break;
      pos = z;
    }
    s.put<std::uint32_t>(static_cast<std::uint32_t>(zero_run));
    s.put<std::uint32_t>(static_cast<std::uint32_t>(pos - lit_start));
    s.put_raw(xored.subspan(lit_start, pos - lit_start));
  }
  return std::move(s).take();
}

/// A byte that is never zero, biased to the values that stress the
/// zero-byte word test (0x01 and 0x80 borrow, 0xFF).
std::byte nonzero_byte(Rng& rng) {
  constexpr std::array<std::uint8_t, 4> kEdges = {0x01, 0x80, 0x81, 0xFF};
  if (rng.next_below(2) == 0) return static_cast<std::byte>(kEdges[rng.next_below(4)]);
  return static_cast<std::byte>(1 + rng.next_below(255));
}

TEST(ByteKernels, XorMatchesTheByteLoopAtEveryLengthAndMisalignment) {
  const std::vector<std::byte> src = patterned(kKernelBuf, 0x0A);
  const std::vector<std::byte> base = patterned(kKernelBuf, 0x0B);
  for (std::size_t dst_at = 0; dst_at < kMisalignments; ++dst_at) {
    for (std::size_t src_at = 0; src_at < kMisalignments; ++src_at) {
      for (std::size_t len = 0; len <= kMaxKernelLen; ++len) {
        std::vector<std::byte> got = base;
        std::vector<std::byte> want = base;
        xor_bytes(std::span(got.data() + dst_at, len), std::span(src.data() + src_at, len));
        for (std::size_t i = 0; i < len; ++i) want[dst_at + i] ^= src[src_at + i];
        ASSERT_EQ(got, want) << "dst+" << dst_at << " src+" << src_at << " len " << len;
      }
    }
  }
}

TEST(ByteKernels, FirstNonzeroMatchesTheByteLoopAtEveryLengthAndMisalignment) {
  Rng rng(0xF1F0);
  for (std::size_t at = 0; at < kMisalignments; ++at) {
    for (std::size_t len = 0; len <= kMaxKernelLen; ++len) {
      for (std::size_t first = 0; first <= len; ++first) {  // len: all zero
        std::vector<std::byte> buf(kKernelBuf, std::byte{0xFF});
        const std::span<std::byte> view(buf.data() + at, len);
        for (std::size_t i = 0; i < len; ++i) {
          view[i] = i < first ? std::byte{0} : static_cast<std::byte>(rng.next_u64());
        }
        if (first < len) view[first] = nonzero_byte(rng);
        ASSERT_EQ(first_nonzero(view), first) << "at " << at << " len " << len;
        ASSERT_EQ(first_nonzero(view), first_nonzero_bytewise(view));
      }
    }
  }
}

TEST(ByteKernels, FirstZeroMatchesTheByteLoopAtEveryLengthAndMisalignment) {
  Rng rng(0xF1F1);
  for (std::size_t at = 0; at < kMisalignments; ++at) {
    for (std::size_t len = 0; len <= kMaxKernelLen; ++len) {
      for (std::size_t first = 0; first <= len; ++first) {  // len: none zero
        std::vector<std::byte> buf(kKernelBuf, std::byte{0});
        const std::span<std::byte> view(buf.data() + at, len);
        for (std::size_t i = 0; i < len; ++i) {
          view[i] = i < first ? nonzero_byte(rng) : static_cast<std::byte>(rng.next_u64());
        }
        if (first < len) view[first] = std::byte{0};
        ASSERT_EQ(first_zero(view), first) << "at " << at << " len " << len;
        ASSERT_EQ(first_zero(view), first_zero_bytewise(view));
      }
    }
  }
}

TEST(ByteKernels, BytesEqualComparesSizeThenEveryByte) {
  const std::vector<std::byte> a = patterned(kKernelBuf, 0xE0);
  for (std::size_t len = 0; len <= kMaxKernelLen; ++len) {
    const std::span<const std::byte> view(a.data() + 1, len);
    std::vector<std::byte> b(view.begin(), view.end());
    EXPECT_TRUE(bytes_equal(view, b)) << "len " << len;
    EXPECT_FALSE(bytes_equal(view, std::span(a.data() + 1, len + 1))) << "len " << len;
    for (std::size_t i = 0; i < len; ++i) {
      b[i] ^= std::byte{0x80};
      ASSERT_FALSE(bytes_equal(view, b)) << "len " << len << " byte " << i;
      b[i] ^= std::byte{0x80};
    }
  }
}

TEST(ZeroRle, EncoderMatchesTheOracleAroundTheRunThreshold) {
  // One zero run of exactly 8, 9 or 10 bytes (either side of kMinZeroRun)
  // inside nonzero bytes, at every offset of every length and misalignment.
  static_assert(kMinZeroRun == 9);
  Rng rng(0x2E10);
  for (const std::size_t run : {8, 9, 10}) {
    for (std::size_t at = 0; at < kMisalignments; ++at) {
      for (std::size_t len = run; len <= kMaxKernelLen; ++len) {
        for (std::size_t zeros = 0; zeros + run <= len; ++zeros) {
          std::vector<std::byte> buf(kKernelBuf, std::byte{0});
          const std::span<std::byte> view(buf.data() + at, len);
          for (std::size_t i = 0; i < len; ++i) {
            view[i] = i >= zeros && i < zeros + run ? std::byte{0} : nonzero_byte(rng);
          }
          ASSERT_EQ(rle_encode(view), rle_encode_bytewise(view))
              << "run " << run << " at " << at << " len " << len << " zeros@" << zeros;
        }
      }
    }
  }
}

TEST(ZeroRle, EncoderMatchesTheOracleOnTenThousandMixedDensityBuffers) {
  // Half the buffers draw each byte nonzero with one of seven densities;
  // half alternate zero and nonzero runs of 1-24 bytes, which puts run
  // boundaries at every word offset.  Each encoding must also decode, over
  // an arbitrary base, to that base XOR the buffer.
  Rng rng(0x2E11);
  constexpr std::array<std::uint64_t, 7> kPermille = {0, 1, 10, 100, 500, 900, 1000};
  for (int round = 0; round < 10000; ++round) {
    const std::size_t len = rng.next_below(4) == 0 ? rng.next_below(4097) : rng.next_below(300);
    const std::size_t at = rng.next_below(kMisalignments);
    std::vector<std::byte> buf(len + kMisalignments, std::byte{0});
    const std::span<std::byte> view(buf.data() + at, len);
    if (rng.next_below(2) == 0) {
      const std::uint64_t permille = kPermille[rng.next_below(kPermille.size())];
      for (std::byte& b : view) {
        if (rng.next_below(1000) < permille) b = nonzero_byte(rng);
      }
    } else {
      bool zero = rng.next_below(2) == 0;
      for (std::size_t i = 0; i < len; zero = !zero) {
        const std::size_t stretch = std::min(len - i, 1 + rng.next_below(24));
        for (std::size_t j = 0; j < stretch; ++j, ++i) {
          view[i] = zero ? std::byte{0} : nonzero_byte(rng);
        }
      }
    }
    const std::vector<std::byte> encoded = rle_encode(view);
    ASSERT_EQ(encoded, rle_encode_bytewise(view)) << "round " << round << " len " << len;

    std::vector<std::byte> out = patterned(len, static_cast<std::uint64_t>(round));
    std::vector<std::byte> want = out;
    for (std::size_t i = 0; i < len; ++i) want[i] ^= view[i];
    Deserializer d(encoded);
    rle_apply(d, out);
    ASSERT_EQ(out, want) << "round " << round;
    ASSERT_TRUE(d.at_end()) << "round " << round;
  }
}

TEST(Serializer, RoundTripPrimitives) {
  Serializer s;
  s.put<std::uint8_t>(0xAB);
  s.put<std::int32_t>(-12345);
  s.put<std::uint64_t>(0xDEADBEEFCAFEF00DULL);
  s.put_double(3.14159);
  s.put_string("hello");

  Deserializer d(s.bytes());
  EXPECT_EQ(d.get<std::uint8_t>(), 0xAB);
  EXPECT_EQ(d.get<std::int32_t>(), -12345);
  EXPECT_EQ(d.get<std::uint64_t>(), 0xDEADBEEFCAFEF00DULL);
  EXPECT_DOUBLE_EQ(d.get_double(), 3.14159);
  EXPECT_EQ(d.get_string(), "hello");
  EXPECT_TRUE(d.at_end());
}

TEST(Serializer, RoundTripVectors) {
  Serializer s;
  const std::vector<std::uint32_t> values{1, 2, 3, 42};
  s.put_vector(values, [](Serializer& s2, std::uint32_t v) { s2.put(v); });

  Deserializer d(s.bytes());
  const auto out =
      d.get_vector<std::uint32_t>([](Deserializer& d2) { return d2.get<std::uint32_t>(); });
  EXPECT_EQ(out, values);
}

TEST(Serializer, UnderrunThrows) {
  Serializer s;
  s.put<std::uint16_t>(7);
  Deserializer d(s.bytes());
  EXPECT_EQ(d.get<std::uint16_t>(), 7);
  EXPECT_THROW(d.get<std::uint64_t>(), SerializeError);
}

TEST(Serializer, BogusLengthPrefixThrows) {
  Serializer s;
  s.put<std::uint64_t>(1ULL << 60);  // vector "length"
  Deserializer d(s.bytes());
  EXPECT_THROW(
      d.get_vector<std::uint8_t>([](Deserializer& d2) { return d2.get<std::uint8_t>(); }),
      SerializeError);
}

TEST(Serializer, WrappingLengthPrefixThrows) {
  // A byte-string length near 2^64 must not wrap the bounds check into
  // "fits" and hand get_bytes a range past the buffer.
  Serializer s;
  s.put<std::uint32_t>(7);
  s.put<std::uint64_t>(~std::uint64_t{0} - 2);
  s.put<std::uint32_t>(9);
  Deserializer d(s.bytes());
  EXPECT_EQ(d.get<std::uint32_t>(), 7u);
  EXPECT_THROW(d.get_bytes(), SerializeError);
}

TEST(Serializer, CountPrefixIsBoundedByRemainingBytes) {
  Serializer s;
  s.put<std::uint64_t>(3);
  s.put<std::uint8_t>(1);
  s.put<std::uint8_t>(2);
  s.put<std::uint8_t>(3);
  s.put<std::uint64_t>(2);  // claims two items, only one byte follows
  s.put<std::uint8_t>(4);
  Deserializer d(s.bytes());
  EXPECT_EQ(d.get_count(), 3u);
  d.get_raw(3);
  EXPECT_THROW(d.get_count(), SerializeError);
}

TEST(Serializer, SizeCounterPredictsExactOutputSize) {
  auto encode = [](auto& s) {
    s.template put<std::uint8_t>(7);
    s.template put<std::uint64_t>(1234567);
    s.put_double(2.71828);
    s.put_string("size estimation");
    const std::vector<std::byte> raw(37, std::byte{0xEE});
    s.put_bytes(raw);
    s.put_raw(std::span<const std::byte>(raw.data(), 5));
    const std::vector<std::uint32_t> values{9, 8, 7, 6};
    s.put_vector(values, [](auto& s2, std::uint32_t v) { s2.put(v); });
  };
  SizeCounter counter;
  encode(counter);
  Serializer s;
  encode(s);
  EXPECT_EQ(counter.size(), s.size());
}

TEST(Serializer, ReuseConstructorKeepsCapacityAndStartsEmpty) {
  std::vector<std::byte> scratch(4096, std::byte{0xAA});
  const std::size_t capacity = scratch.capacity();
  Serializer s(std::move(scratch));
  EXPECT_EQ(s.size(), 0u);
  s.put<std::uint32_t>(42);
  Deserializer d(s.bytes());
  EXPECT_EQ(d.get<std::uint32_t>(), 42u);
  EXPECT_GE(std::move(s).take().capacity(), capacity);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) any_diff |= a.next_u64() != b.next_u64();
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, ExponentialMean) {
  Rng rng(42);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.next_exponential(100.0);
  const double mean = sum / kSamples;
  EXPECT_NEAR(mean, 100.0, 5.0);
}

TEST(Rng, WeibullShapeOneIsExponential) {
  Rng rng(42);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.next_weibull(1.0, 50.0);
  EXPECT_NEAR(sum / kSamples, 50.0, 3.0);  // scale == mean when shape == 1
}

TEST(TextTable, RendersAligned) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
}

TEST(TextTable, FormatHelpers) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_time_ns(1500), "1.500 us");
  EXPECT_EQ(format_double(1.2345, 2), "1.23");
}

}  // namespace
}  // namespace ckpt::util
