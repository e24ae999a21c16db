#include "util/crc64.hpp"

#include <array>
#include <atomic>
#include <bit>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CKPT_CRC64_CLMUL 1
#endif

namespace ckpt::util {
namespace {

constexpr std::uint64_t kPoly = 0x42F0E1EBA9EA3693ULL;  // ECMA-182

constexpr std::array<std::uint64_t, 256> make_table() {
  std::array<std::uint64_t, 256> table{};
  for (std::uint64_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i << 56;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & (1ULL << 63)) != 0 ? (crc << 1) ^ kPoly : crc << 1;
    }
    table[static_cast<std::size_t>(i)] = crc;
  }
  return table;
}

const std::array<std::uint64_t, 256> kTable = make_table();

// Slicing-by-8: kSliced[k][b] is the register contribution of byte value b
// advanced through k further zero bytes, so an aligned 8-byte block needs
// eight independent lookups instead of eight dependent shift-xor rounds.
constexpr std::array<std::array<std::uint64_t, 256>, 8> make_sliced_tables() {
  std::array<std::array<std::uint64_t, 256>, 8> tables{};
  tables[0] = make_table();
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint64_t prev = tables[k - 1][i];
      tables[k][i] = (prev << 8) ^ tables[0][static_cast<std::size_t>(prev >> 56)];
    }
  }
  return tables;
}

const std::array<std::array<std::uint64_t, 256>, 8> kSliced = make_sliced_tables();

/// Advance the raw register `crc` (no pre/post inversion) over `n` bytes.
std::uint64_t sliced_update(std::uint64_t crc, const std::byte* p, std::size_t n) {
  while (n >= 8) {
    // Fold the whole register into this 8-byte block (big-endian: the first
    // message byte meets the register's top byte), then one lookup per lane.
    const std::uint64_t block =
        (std::to_integer<std::uint64_t>(p[0]) << 56) |
        (std::to_integer<std::uint64_t>(p[1]) << 48) |
        (std::to_integer<std::uint64_t>(p[2]) << 40) |
        (std::to_integer<std::uint64_t>(p[3]) << 32) |
        (std::to_integer<std::uint64_t>(p[4]) << 24) |
        (std::to_integer<std::uint64_t>(p[5]) << 16) |
        (std::to_integer<std::uint64_t>(p[6]) << 8) |
        std::to_integer<std::uint64_t>(p[7]);
    const std::uint64_t y = crc ^ block;
    crc = kSliced[7][(y >> 56) & 0xFF] ^ kSliced[6][(y >> 48) & 0xFF] ^
          kSliced[5][(y >> 40) & 0xFF] ^ kSliced[4][(y >> 32) & 0xFF] ^
          kSliced[3][(y >> 24) & 0xFF] ^ kSliced[2][(y >> 16) & 0xFF] ^
          kSliced[1][(y >> 8) & 0xFF] ^ kSliced[0][y & 0xFF];
    p += 8;
    n -= 8;
  }
  for (; n != 0; ++p, --n) {
    const auto idx = static_cast<std::size_t>(
        (crc >> 56) ^ std::to_integer<std::uint64_t>(*p));
    crc = (crc << 8) ^ kTable[idx & 0xFF];
  }
  return crc;
}

/// x^k mod P, the 64-bit remainder.
constexpr std::uint64_t xpow_mod(std::uint32_t k) {
  std::uint64_t r = 1;
  for (; k != 0; --k) r = (r & (1ULL << 63)) != 0 ? (r << 1) ^ kPoly : r << 1;
  return r;
}

// --- Shifting a register across zero bytes, for crc64_combine --------------
//
// Advancing the raw register r over n zero bytes gives r·x^(8n) mod P, and
// x^(8n) is the product of x^(8·2^k) mod P over the set bits k of n.  So a
// shift is one multiply mod P per set bit of n, by a 64-entry table.

/// a·b mod P, 64 shift-and-add steps (Horner over b's bits, reducing as it
/// goes).  The portable kernel's multiply, and what builds the tables.
constexpr std::uint64_t mulmod_sliced(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  for (int i = 63; i >= 0; --i) {
    r = (r & (1ULL << 63)) != 0 ? (r << 1) ^ kPoly : r << 1;
    if (((b >> i) & 1) != 0) r ^= a;
  }
  return r;
}

/// kShiftPow[k] = x^(8·2^k) mod P: one zero byte, squared k times.
constexpr std::array<std::uint64_t, 64> make_shift_powers() {
  std::array<std::uint64_t, 64> powers{};
  powers[0] = xpow_mod(8);
  for (std::size_t k = 1; k < powers.size(); ++k) {
    powers[k] = mulmod_sliced(powers[k - 1], powers[k - 1]);
  }
  return powers;
}

constexpr std::array<std::uint64_t, 64> kShiftPow = make_shift_powers();

std::uint64_t shift_sliced(std::uint64_t crc, std::uint64_t len) {
  for (; len != 0; len &= len - 1) {
    crc = mulmod_sliced(crc, kShiftPow[static_cast<std::size_t>(std::countr_zero(len))]);
  }
  return crc;
}

#ifdef CKPT_CRC64_CLMUL
// --- Carry-less-multiply folding -------------------------------------------
//
// The CRC register after a message M of n bytes (seed folded into the first
// 8 bytes, as sliced_update's `crc ^ block` does) is M(x)·x^64 mod P, so any
// prefix may be replaced by a shorter polynomial congruent to it mod P.  A
// 128-bit big-endian lane X = Xh·x^64 + Xl that sits D bytes before the lane
// it is folded into contributes
//
//   X·x^(8D) ≡ Xh·(x^(8D+64) mod P) + Xl·(x^(8D) mod P)
//
// which is two 64×64 carry-less products of at most 127 bits: one 128-bit
// lane again.  Eight independent lanes cover 128 bytes per round (fold by
// x^1024), enough to keep the multiplier busy; they are then folded into one
// lane 16 bytes at a time, and that lane's 16 bytes plus the sub-16-byte
// tail finish on the byte tables.  The register is non-reflected, so the
// products need no bit-reversal fix-up.

struct FoldConstants {
  std::uint64_t lo;  ///< x^(8D) mod P, multiplies the low half
  std::uint64_t hi;  ///< x^(8D+64) mod P, multiplies the high half
};

constexpr FoldConstants fold_by(std::uint32_t bytes) {
  return {xpow_mod(8 * bytes), xpow_mod(8 * bytes + 64)};
}

constexpr std::size_t kLanes = 8;
constexpr std::size_t kRoundBytes = kLanes * 16;
constexpr FoldConstants kFoldRound = fold_by(kRoundBytes);  // x^1024
constexpr FoldConstants kFoldLane = fold_by(16);            // x^128

__attribute__((target("pclmul,ssse3"))) inline __m128i byte_reverse(__m128i v) {
  return _mm_shuffle_epi8(v, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

__attribute__((target("pclmul,ssse3"))) inline __m128i load_be(const std::byte* at) {
  return byte_reverse(_mm_loadu_si128(reinterpret_cast<const __m128i*>(at)));
}

__attribute__((target("pclmul,ssse3"))) inline __m128i fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11), _mm_clmulepi64_si128(x, k, 0x00));
}

__attribute__((target("pclmul,ssse3"))) std::uint64_t crc64_clmul(
    std::span<const std::byte> data, std::uint64_t seed) {
  if (data.size() < kRoundBytes) return crc64_sliced(data, seed);
  const std::byte* p = data.data();
  std::size_t n = data.size();

  __m128i lane[kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) lane[i] = load_be(p + 16 * i);
  lane[0] = _mm_xor_si128(lane[0], _mm_set_epi64x(static_cast<long long>(~seed), 0));
  p += kRoundBytes;
  n -= kRoundBytes;

  const __m128i k_round = _mm_set_epi64x(static_cast<long long>(kFoldRound.hi),
                                         static_cast<long long>(kFoldRound.lo));
  for (; n >= kRoundBytes; p += kRoundBytes, n -= kRoundBytes) {
    for (std::size_t i = 0; i < kLanes; ++i) {
      lane[i] = _mm_xor_si128(fold(lane[i], k_round), load_be(p + 16 * i));
    }
  }

  const __m128i k_lane = _mm_set_epi64x(static_cast<long long>(kFoldLane.hi),
                                        static_cast<long long>(kFoldLane.lo));
  __m128i acc = lane[0];
  for (std::size_t i = 1; i < kLanes; ++i) acc = _mm_xor_si128(fold(acc, k_lane), lane[i]);
  for (; n >= 16; p += 16, n -= 16) acc = _mm_xor_si128(fold(acc, k_lane), load_be(p));

  // acc ≡ every byte before p: hash it as 16 message bytes from a zero
  // register, then the tail.
  std::byte folded[16];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(folded), byte_reverse(acc));
  return ~sliced_update(sliced_update(0, folded, sizeof folded), p, n);
}

/// Barrett's μ = floor(x^128 / P) without its x^64 term, by long division
/// of x^128.  Quotient bit i is the remainder's x^(64+i) coefficient, and no
/// subtraction moves a coefficient upwards, so only x^64..x^127 are kept.
constexpr std::uint64_t barrett_mu_low() {
  std::uint64_t rem = kPoly;  // x^128 - x^64·P
  std::uint64_t mu = 0;
  for (int i = 63; i >= 0; --i) {
    if (((rem >> i) & 1) == 0) continue;
    mu |= 1ULL << i;
    rem ^= (1ULL << i) ^ (i != 0 ? kPoly >> (64 - i) : 0);  // x^i·P
  }
  return mu;
}

constexpr std::uint64_t kBarrettMu = barrett_mu_low();

/// shift_sliced with each multiply one 64×64 carry-less product C = H·x^64
/// + L, reduced by Barrett: q = H + floor(H·μ / x^64), C mod P = L + q·P's
/// low half.  The register stays in the low lane of an XMM register.
__attribute__((target("pclmul,ssse3"))) std::uint64_t shift_clmul(std::uint64_t crc,
                                                                   std::uint64_t len) {
  const __m128i mu = _mm_set_epi64x(0, static_cast<long long>(kBarrettMu));
  const __m128i poly = _mm_set_epi64x(0, static_cast<long long>(kPoly));
  __m128i r = _mm_set_epi64x(0, static_cast<long long>(crc));
  for (; len != 0; len &= len - 1) {
    const __m128i power = _mm_set_epi64x(
        0, static_cast<long long>(kShiftPow[static_cast<std::size_t>(std::countr_zero(len))]));
    const __m128i product = _mm_clmulepi64_si128(r, power, 0x00);
    const __m128i high = _mm_srli_si128(product, 8);
    const __m128i q = _mm_xor_si128(high, _mm_srli_si128(_mm_clmulepi64_si128(high, mu, 0x00), 8));
    r = _mm_xor_si128(product, _mm_clmulepi64_si128(q, poly, 0x00));
  }
  std::uint64_t out = 0;
  _mm_storel_epi64(reinterpret_cast<__m128i*>(&out), r);
  return out;
}
#endif

/// The kernel crc64() runs, chosen at the first call: the last one
/// crc64_kernels() lists as supported ("sliced" always is).
const Crc64Kernel& active_kernel() {
  static const Crc64Kernel* const kernel = [] {
    const Crc64Kernel* best = nullptr;
    for (const Crc64Kernel& k : crc64_kernels()) {
      if (k.supported) best = &k;
    }
    return best;
  }();
  return *kernel;
}

// crc64() runs on every pool worker at once (a fleet window hashes thousands
// of small blobs in parallel), so the work counter is split into one
// cache line per slot and each thread adds to its own.  A single shared
// counter bounced its line between cores on every call, and with it the
// kernel pointer the linker placed on the same line: a cost that depended
// on how the workers' calls happened to interleave.
constexpr std::size_t kCounterSlots = 64;

struct alignas(64) CounterSlot {
  std::atomic<std::uint64_t> bytes{0};
};

CounterSlot counter_slots[kCounterSlots];
std::atomic<std::size_t> next_counter_slot{0};

/// This thread's slot, handed out round-robin at its first crc64() call.
CounterSlot& own_counter_slot() {
  thread_local CounterSlot& slot =
      counter_slots[next_counter_slot.fetch_add(1, std::memory_order_relaxed) % kCounterSlots];
  return slot;
}

}  // namespace

std::uint64_t crc64(std::span<const std::byte> data, std::uint64_t seed) {
  own_counter_slot().bytes.fetch_add(data.size(), std::memory_order_relaxed);
  return active_kernel().fn(data, seed);
}

std::uint64_t crc64(const void* data, std::size_t size, std::uint64_t seed) {
  return crc64(std::span(static_cast<const std::byte*>(data), size), seed);
}

std::uint64_t crc64_sliced(std::span<const std::byte> data, std::uint64_t seed) {
  return ~sliced_update(~seed, data.data(), data.size());
}

std::uint64_t crc64_bytewise(std::span<const std::byte> data, std::uint64_t seed) {
  std::uint64_t crc = ~seed;
  for (std::byte b : data) {
    const auto idx = static_cast<std::size_t>(
        (crc >> 56) ^ static_cast<std::uint64_t>(std::to_integer<unsigned>(b)));
    crc = (crc << 8) ^ kTable[idx & 0xFF];
  }
  return ~crc;
}

std::span<const Crc64Kernel> crc64_kernels() {
  static const auto kernels = [] {
#ifdef CKPT_CRC64_CLMUL
    __builtin_cpu_init();
    const bool clmul = __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("ssse3");
    return std::array{Crc64Kernel{"sliced", true, &crc64_sliced, &shift_sliced},
                      Crc64Kernel{"pclmul", clmul, &crc64_clmul, &shift_clmul}};
#else
    return std::array{Crc64Kernel{"sliced", true, &crc64_sliced, &shift_sliced}};
#endif
  }();
  return kernels;
}

const char* crc64_kernel_name() { return active_kernel().name; }

std::uint64_t crc64_bytes_hashed() {
  std::uint64_t total = 0;
  for (const CounterSlot& slot : counter_slots) total += slot.bytes.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t crc64_combine(std::uint64_t crc_a, std::uint64_t crc_b,
                            std::uint64_t len_b) {
  // crc(A ++ B) = shift(crc(A), len_b) ^ crc(B): the pre/post inversions of
  // the two halves cancel under the shift's linearity.
  return active_kernel().shift(crc_a, len_b) ^ crc_b;
}

}  // namespace ckpt::util
