// Word-at-a-time byte kernels for the dedup page paths (storage/dedup), and
// the zero-run codec of its XOR deltas, built on them.
//
// Page bytes are std::byte, and on std::byte the obvious loops are slow:
// libstdc++ does not lower std::vector<std::byte>::operator== to memcmp
// (std::byte is not an integer type to its std::equal dispatch), and GCC
// vectorizes neither the XOR nor the zero-scan byte loop.  These kernels
// read and write 8-byte words through memcpy, so any alignment is defined
// behaviour, and finish the sub-word tail one byte at a time.
//
// The zero scans find a byte's position from the lowest set bit of a word,
// which is the first byte in memory only on little-endian hosts; elsewhere
// they take the byte loop.  Every kernel returns exactly what its byte loop
// returns, for every length and alignment, so the codec's records are the
// same bytes on every host.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/serialize.hpp"

namespace ckpt::util {

/// True when `a` and `b` have the same size and the same bytes.
bool bytes_equal(std::span<const std::byte> a, std::span<const std::byte> b);

/// dst[i] ^= src[i] for every i < dst.size().  `src` must be at least as
/// long as `dst`.
void xor_bytes(std::span<std::byte> dst, std::span<const std::byte> src);

/// Index of the first nonzero byte of `bytes`; bytes.size() when all are zero.
std::size_t first_nonzero(std::span<const std::byte> bytes);

/// Index of the first zero byte of `bytes`; bytes.size() when none is zero.
std::size_t first_zero(std::span<const std::byte> bytes);

/// A zero run shorter than this stays inside the literal record: a run
/// record costs 8 bytes of framing, so breaking the literal earlier loses.
inline constexpr std::size_t kMinZeroRun = 9;

/// Zero-run-length encode: alternating (u32 zero_run, u32 literal_len,
/// literal bytes) records covering `bytes` exactly.  Deterministic function
/// of the input bytes.
std::vector<std::byte> rle_encode(std::span<const std::byte> bytes);

/// Inverse of rle_encode fused with an XOR: reads records from `d` until
/// `out` is covered, skipping each zero run and XORing each literal into
/// `out` in place.  Throws SerializeError on an empty record, a record that
/// overruns out.size(), or a truncated one.
void rle_apply(Deserializer& d, std::span<std::byte> out);

}  // namespace ckpt::util
