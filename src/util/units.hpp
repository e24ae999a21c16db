// Common scalar types and unit helpers used throughout the simulator.
//
// Simulated time is measured in integer nanoseconds (SimTime).  All cost
// accounting in the simulated kernel, storage and network models is in this
// unit, so overhead comparisons between checkpointing strategies are exact
// and deterministic.
#pragma once

#include <cstdint>

namespace ckpt {

/// Simulated time in nanoseconds.
using SimTime = std::uint64_t;

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1000 * kNanosecond;
inline constexpr SimTime kMillisecond = 1000 * kMicrosecond;
inline constexpr SimTime kSecond = 1000 * kMillisecond;

inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;

/// Convert simulated nanoseconds to fractional milliseconds (reporting only).
constexpr double to_millis(SimTime t) { return static_cast<double>(t) / 1e6; }

}  // namespace ckpt
