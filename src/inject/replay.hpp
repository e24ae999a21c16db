// Exhaustive crash-point replay for the log-structured journal.
//
// The journal's correctness claim (storage/journal) is a single sentence:
// after a crash at ANY point in the append stream, recovery reconstructs
// exactly the newest fully-committed prefix — no torn commit survives, no
// committed image before the damage is lost.  This harness proves the claim
// by construction rather than by sampling:
//
//   1. Record a >= 30-commit sequence into a journal (migration off, so the
//      append ledger maps every byte of the logical log) and remember each
//      image's serialized truth plus the log offset where its commit record
//      ends.
//   2. Truncate the media at EVERY record boundary (simulating power loss
//      with the device cache dropped at that point), adopt the bytes into a
//      fresh backend, recover, and assert the surviving ids and their
//      re-loaded payloads equal exactly the commits whose end offset fits
//      the prefix.
//   3. Flip one byte at >= 200 rng-chosen intra-record offsets (silent
//      corruption), recover, and assert the survivors equal the commits
//      that ended before the damaged record began.
//
// Flight records ride the recorded stream too: every commit is bracketed by
// kFlightRecord appends (a serialized obs::FlightRecorder under a small key
// set), and every case additionally asserts that recovery surfaces exactly
// the newest flight payload per key whose append ended inside the surviving
// prefix — the journal-side half of the fleet's post-mortem claim.
//
// Every Nth case additionally drains the recovered journal's migrator into
// a fresh home store and re-verifies the payloads through the migrated
// path, so recovery-then-migrate is covered as well as recovery-then-load.
//
// The report is a pure function of the harness's fixed geometry (32 commits,
// 220 fuzzed offsets, a 24 x 48 KiB ring).  Every step runs on
// the caller's thread: the journal has no worker pool, and the harness's
// home stores are plain LocalDiskBackends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "storage/journal.hpp"

namespace ckpt::inject {

struct CrashReplayReport {
  std::uint64_t commits_recorded = 0;
  std::uint64_t log_bytes_recorded = 0;
  std::uint64_t boundary_cases = 0;  ///< one per record boundary, plus offset 0
  std::uint64_t fuzz_cases = 0;
  std::uint64_t torn_tails = 0;          ///< recoveries that reported damage
  std::uint64_t images_reverified = 0;   ///< payloads byte-compared to truth
  std::uint64_t flight_appends = 0;      ///< kFlightRecord records in the recorded stream
  std::uint64_t flight_reverified = 0;   ///< newest-per-key flight payload matches
  std::uint64_t migrations_checked = 0;  ///< cases re-verified through migrate()
  std::uint64_t failures = 0;            ///< violations of the prefix claim
  /// First few failures, human-rendered (empty when the claim held).
  std::vector<std::string> diagnostics;
  /// CRC64 over every case outcome (cut point, survivors, torn flag) — a
  /// single value two runs can compare to prove identical behaviour.
  std::uint64_t outcome_digest = 0;

  /// The harness verdict: every crash point recovered exactly the newest
  /// fully-committed prefix, over a sequence long enough to count.
  [[nodiscard]] bool ok() const { return failures == 0 && commits_recorded >= 30; }
  [[nodiscard]] std::string summary() const;

  friend bool operator==(const CrashReplayReport&, const CrashReplayReport&) = default;
};

class JournalCrashReplay {
 public:
  /// Record, then replay every crash point.  Deterministic: the seed is
  /// fixed.  Throws std::logic_error if the ring cannot hold the recorded
  /// sequence (a journal defect, never an input).
  CrashReplayReport run();
};

// ---------------------------------------------------------------------------
// mpi_uncoordinated mode
// ---------------------------------------------------------------------------
//
// The uncoordinated-MPI correctness claim (cluster/uncoordinated,
// DESIGN.md §14): for any injected node failure, restarting only the ranks
// on the recovery line from their images + logged message suffixes loses no
// message, delivers no message twice, and reproduces guest state
// byte-identically for any pool width.  Each case builds a
// fresh deterministic scenario, runs it under per-rank cadence, kills a
// node at a case-specific point (optionally two nodes at once), recovers,
// runs forward, and folds rank iterations + order-sensitive receive digests
// into the outcome digest.  The determinism tests run workers=1 vs
// workers=8 and require operator== on the reports.

/// Every case runs 8 ranks on 4 nodes, each rank checkpointing every 20 ms
/// (adaptation off) with a 32 KiB array and 512-byte halos.
struct MpiReplayOptions {
  /// Crash cases; case k kills node k % 4 after k-dependent progress.
  std::uint64_t crash_points = 8;
  /// ReplicatedStore pool width for the engines' store: 0 commits on the
  /// caller's thread, N gives the store a private N-worker pool.  The
  /// report must be identical for every value.
  std::uint32_t workers = 0;
  /// Persist sender logs through a log-structured journal at every commit
  /// (the concurrent-failure depth-1 configuration).
  bool journal_logs = false;
  /// Kill two nodes at once (exercises domino vs journal-restored logs).
  bool double_failure = false;
};

struct MpiReplayReport {
  std::uint64_t cases = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t commits = 0;
  std::uint64_t replayed_messages = 0;
  /// Sequence gaps observed by any receiver — a lost message.  Must be 0.
  std::uint64_t lost_messages = 0;
  /// Re-sent messages receivers correctly deduplicated (nonzero is healthy:
  /// it proves re-execution re-sends happened and were absorbed).
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t journal_restored_logs = 0;
  std::uint32_t max_rollback_depth = 0;
  std::uint64_t failures = 0;
  std::vector<std::string> diagnostics;
  /// CRC64 over every case outcome (rank iterations, receive digests,
  /// replay counts, line depth/width) — two runs compare equal iff recovered
  /// state was byte-identical.
  std::uint64_t outcome_digest = 0;

  [[nodiscard]] bool ok() const {
    return failures == 0 && cases > 0 && lost_messages == 0;
  }
  [[nodiscard]] std::string summary() const;

  friend bool operator==(const MpiReplayReport&, const MpiReplayReport&) = default;
};

class MpiCrashReplay {
 public:
  explicit MpiCrashReplay(MpiReplayOptions options) : options_(options) {}

  /// Run every crash case.  Deterministic, and invariant in
  /// options_.workers.
  MpiReplayReport run();

 private:
  MpiReplayOptions options_;
};

}  // namespace ckpt::inject
