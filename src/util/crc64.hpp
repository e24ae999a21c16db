// CRC64 (ECMA-182) used for checkpoint-image integrity and for the
// probabilistic-checkpointing block hashes [Nam et al., "Probabilistic
// Checkpointing"].
//
// crc64() dispatches once, at its first call, to the fastest kernel this CPU
// runs (crc64_kernel_name() says which):
//
//   * "pclmul" (x86 with PCLMULQDQ and SSSE3): carry-less-multiply folding.
//     Eight independent 128-bit lanes each fold 16 input bytes per step by
//     x^1024 mod P; the lanes then fold into one, whose 16 bytes and the
//     sub-16-byte tail finish on the byte tables.  The fold constants
//     x^k mod P are derived from the polynomial in crc64.cpp.  The kernel
//     is compiled with a per-function target attribute, so the build needs
//     no global -m flags and still runs on CPUs without the instruction.
//   * "sliced": slicing-by-8, eight 256-entry tables, one lookup per input
//     byte position of an 8-byte block.  The portable fallback, and what the
//     folding kernel uses for inputs shorter than one 128-byte round.
//
// Each kernel also shifts a register across n zero bytes, which is all
// crc64_combine() needs: a multiply mod P by x^(8·2^k) mod P for each set
// bit k of n, from a 64-entry table.  "pclmul" multiplies with one carry-less
// product and reduces it by Barrett; "sliced" runs a 64-step shift-and-add.
//
// crc64_bytewise() keeps the original one-table loop as the reference the
// equivalence tests pin every kernel against.  Every kernel returns the same
// value for every input, so which one runs never reaches a stored byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ckpt::util {

/// Compute the CRC64/ECMA-182 checksum of `data`, seeded with `seed`.
///
/// The seed parameter allows chaining: crc64(b, crc64(a)) == crc64(a ++ b).
std::uint64_t crc64(std::span<const std::byte> data, std::uint64_t seed = 0);

/// Convenience overload for raw buffers.
std::uint64_t crc64(const void* data, std::size_t size, std::uint64_t seed = 0);

/// Slicing-by-8, the portable kernel.  Bit-identical to crc64().
std::uint64_t crc64_sliced(std::span<const std::byte> data, std::uint64_t seed = 0);

/// Reference single-table, byte-at-a-time implementation.  Bit-identical to
/// crc64(); kept for equivalence tests and as the serial baseline in
/// bench_pipeline.
std::uint64_t crc64_bytewise(std::span<const std::byte> data, std::uint64_t seed = 0);

/// One compiled crc64() kernel.  `supported` says whether this CPU can run
/// it; calling `fn` or `shift` when it is false is undefined.
struct Crc64Kernel {
  const char* name;
  bool supported;
  std::uint64_t (*fn)(std::span<const std::byte> data, std::uint64_t seed);
  /// The raw register `crc` advanced across `len` zero bytes:
  /// crc·x^(8·len) mod P.  crc64_combine() is shift(crc_a, len_b) ^ crc_b.
  std::uint64_t (*shift)(std::uint64_t crc, std::uint64_t len);
};

/// Every kernel compiled into this build, slowest first.  crc64() runs the
/// last supported one.
std::span<const Crc64Kernel> crc64_kernels();

/// Name of the kernel crc64() dispatches to.
const char* crc64_kernel_name();

/// Bytes passed through crc64() by every thread since process start: a
/// deterministic work counter (relaxed, never reset), not a tuning knob.
/// Each thread counts into its own cache line and this sums them, so it is
/// exact for every call that happens-before it (a joined pool run, say).
std::uint64_t crc64_bytes_hashed();

/// Combine independently computed checksums of adjacent buffers:
///
///   crc64_combine(crc64(A), crc64(B), B.size()) == crc64(A ++ B)
///
/// with one multiply mod P per set bit of len_b and no data pass.  This is
/// what lets the parallel serializer CRC its shards on workers
/// *concurrently* and still join them into the exact envelope checksum a
/// serial pass produces — seed-chaining alone would force shard i to wait
/// for shard i-1's result.
std::uint64_t crc64_combine(std::uint64_t crc_a, std::uint64_t crc_b,
                            std::uint64_t len_b);

}  // namespace ckpt::util
