#include "util/bytes.hpp"

#include <bit>
#include <cstdint>
#include <cstring>

namespace ckpt::util {

namespace {

constexpr bool kWordScan = std::endian::native == std::endian::little;
constexpr std::size_t kWord = sizeof(std::uint64_t);
constexpr std::uint64_t kLowBits = 0x0101010101010101ULL;
constexpr std::uint64_t kHighBits = 0x8080808080808080ULL;

std::uint64_t load(const std::byte* p) {
  std::uint64_t w;
  std::memcpy(&w, p, kWord);
  return w;
}

/// Byte index of the lowest set bit of a nonzero little-endian word.
std::size_t lowest_byte(std::uint64_t w) {
  return static_cast<std::size_t>(std::countr_zero(w)) / 8;
}

}  // namespace

bool bytes_equal(std::span<const std::byte> a, std::span<const std::byte> b) {
  return a.size() == b.size() && (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

void xor_bytes(std::span<std::byte> dst, std::span<const std::byte> src) {
  std::byte* d = dst.data();
  const std::byte* s = src.data();
  const std::size_t n = dst.size();
  std::size_t i = 0;
  for (; i + kWord <= n; i += kWord) {
    const std::uint64_t w = load(d + i) ^ load(s + i);
    std::memcpy(d + i, &w, kWord);
  }
  for (; i < n; ++i) d[i] ^= s[i];
}

std::size_t first_nonzero(std::span<const std::byte> bytes) {
  const std::byte* p = bytes.data();
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  if constexpr (kWordScan) {
    // Long zero runs are the common case in a sparse delta: test four words
    // per step, then find the word that broke the run.
    for (; i + 4 * kWord <= n; i += 4 * kWord) {
      if ((load(p + i) | load(p + i + kWord) | load(p + i + 2 * kWord) |
           load(p + i + 3 * kWord)) != 0) {
        break;
      }
    }
    for (; i + kWord <= n; i += kWord) {
      if (const std::uint64_t w = load(p + i); w != 0) return i + lowest_byte(w);
    }
  }
  for (; i < n; ++i) {
    if (p[i] != std::byte{0}) return i;
  }
  return n;
}

std::size_t first_zero(std::span<const std::byte> bytes) {
  const std::byte* p = bytes.data();
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  if constexpr (kWordScan) {
    for (; i + kWord <= n; i += kWord) {
      // The high bit of byte k is set when byte k is zero, and may also be
      // set above a zero byte by the borrow; the lowest set bit is exact.
      const std::uint64_t w = load(p + i);
      if (const std::uint64_t zeros = (w - kLowBits) & ~w & kHighBits; zeros != 0) {
        return i + lowest_byte(zeros);
      }
    }
  }
  for (; i < n; ++i) {
    if (p[i] == std::byte{0}) return i;
  }
  return n;
}

std::vector<std::byte> rle_encode(std::span<const std::byte> bytes) {
  Serializer s;
  std::size_t pos = 0;
  const std::size_t n = bytes.size();
  while (pos < n) {
    const std::size_t zero_start = pos;
    pos += first_nonzero(bytes.subspan(pos));
    const std::size_t zero_run = pos - zero_start;
    const std::size_t lit_start = pos;
    while (pos < n) {
      pos += first_zero(bytes.subspan(pos));
      if (pos == n) break;
      const std::size_t z = pos + first_nonzero(bytes.subspan(pos));
      if (z - pos >= kMinZeroRun || z == n) break;  // long run: start a record
      pos = z;                                      // short run: keep literal
    }
    s.put<std::uint32_t>(static_cast<std::uint32_t>(zero_run));
    s.put<std::uint32_t>(static_cast<std::uint32_t>(pos - lit_start));
    s.put_raw(bytes.subspan(lit_start, pos - lit_start));
  }
  return std::move(s).take();
}

void rle_apply(Deserializer& d, std::span<std::byte> out) {
  std::size_t pos = 0;
  while (pos < out.size()) {
    const auto zero_run = d.get<std::uint32_t>();
    const auto literal = d.get<std::uint32_t>();
    if (zero_run == 0 && literal == 0) throw SerializeError("rle: empty record");
    if (pos + zero_run + static_cast<std::uint64_t>(literal) > out.size()) {
      throw SerializeError("rle: record overruns raw size");
    }
    pos += zero_run;
    xor_bytes(out.subspan(pos, literal), d.get_raw(literal));
    pos += literal;
  }
}

}  // namespace ckpt::util
