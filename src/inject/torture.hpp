// Crash/restart torture harness.
//
// Drives any catalog CheckpointEngine through randomized
// checkpoint–crash–restart soak cycles under a seed-deterministic FaultPlan:
// advance the guest a random number of steps, inject the planned fault
// (store rejection, torn write, silent corruption, storage outage,
// fail-stop), crash the process, restart from the newest *surviving* image
// and byte-compare the restored state against an independent reconstruction
// from the raw stored blobs.  The harness maintains its own model of which
// images must still be loadable, so three failure classes are detected and
// counted separately:
//
//   * divergences         — restored state differs from the stored image,
//   * corrupt_restarts    — a restart "succeeded" although no intact image
//                           existed (restarting from garbage),
//   * unexpected_failures — a restart failed although an intact image
//                           survived (lost more work than the faults cost).
//
// In replicated-storage mode (TortureOptions::replicated_storage) the
// engine writes through a ReplicatedStore fanned over N replicas, storage
// faults target one rng-chosen replica per cycle, and a fourth violation
// class is tracked:
//
//   * scrub_failures      — the end-of-cycle scrub left injected damage
//                           unrepaired although a healthy peer existed.
//
// Because commit requires read-back verification on at least one replica,
// the invariant under test sharpens to: a restart may NEVER fail while any
// committed image exists — zero unrecoverable restarts whenever >= 1 intact
// replica survives.
//
// All violation counters must be zero for TortureReport::ok().  Every run
// is bit-reproducible from TortureOptions::seed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "inject/fault.hpp"
#include "mechanisms/mechanism.hpp"
#include "sim/kernel.hpp"
#include "storage/retry.hpp"

namespace ckpt::inject {

struct TortureOptions {
  std::uint64_t seed = 1;
  /// Soak cycles per engine (each cycle = run, fault, crash, restart).
  std::uint64_t cycles = 100;
  /// Fault vocabulary; empty selects FaultPlan::default_mix().
  std::vector<FaultPlan::Weighted> fault_mix;
  /// Guest working-set size (bytes) — keeps image sizes bounded.
  std::uint64_t array_bytes = 16 * 1024;
  /// Replicated stable-storage mode: the engine's backend becomes a
  /// ReplicatedStore over `replicas` blob stores (node-local disk plus
  /// remotes) with atomic two-phase publish and `retry`.  Storage faults
  /// then hit one rng-chosen replica per cycle, every cycle ends with a
  /// scrub, and injected single-replica damage must be repaired.
  bool replicated_storage = false;
  /// Replica fan-out in replicated mode; must be >= 2 (one replica is just
  /// the unreplicated harness).
  std::uint32_t replicas = 2;
  /// Retry schedule the ReplicatedStore applies per staged write and per
  /// load sweep in replicated mode.
  storage::RetryPolicy retry = storage::RetryPolicy::bounded(3, 50 * kMillisecond);
  /// Commit-pipeline worker count in replicated mode: 0 commits on the
  /// caller's thread; N gives the store a private N-worker pool.  The soak
  /// must be bit-identical for every value — the pipeline determinism tests
  /// run the battery at 1 and 8 workers and diff the reports.
  std::uint32_t workers = 0;
  /// Content-addressed dedup on the torture store (storage/dedup).  Only
  /// valid together with replicated_storage: with a single media copy, one
  /// corrupt *shared* chunk can invalidate several committed images at
  /// once, which breaks the harness's corruption model (a silent-corruption
  /// fault damages at most the newest image) — and is exactly the
  /// amplification replication exists to absorb.  The harness throws
  /// std::invalid_argument on dedup without replication.  The soak
  /// invariants (and the 1-vs-8-worker identity) must hold unchanged.
  bool dedup = false;
  /// Log-structured append-commit mode (storage/journal): the engines write
  /// through a LogStructuredBackend whose home store is the ReplicatedStore,
  /// and every checkpoint step ends with a migrator drain while the cycle's
  /// replica fault is still armed — so the two-phase publish absorbs it.
  /// Adds two fault kinds to the schedule when present in the mix:
  /// kJournalTornAppend (power-fail mid-append; the commit must fail and
  /// recovery must keep the previous prefix) and kJournalCorrupt (silent log
  /// corruption + crash; recovery discards the damaged suffix and the model
  /// is re-derived from what survived).  Requires replicated_storage — the
  /// migrator needs a durable home store to drain into; the harness throws
  /// std::invalid_argument otherwise.
  bool journal = false;
  /// Streaming-COW commit mode: checkpoints and restarts run through a
  /// harness-owned SyscallEngine (by-pid, fork-and-copy, streaming) writing
  /// chunk-by-chunk into the replicated store, instead of the catalog
  /// mechanism's engine.  Storage faults are armed with an rng-drawn
  /// skip-op count so they land *mid-stream* — between chunk appends, not
  /// at the whole-blob write.  Requires replicated_storage without dedup or
  /// journal (the streamed path needs a flat ReplicatedStore); the engine's
  /// constructor throws std::invalid_argument otherwise.  All soak
  /// invariants — and the 1-vs-8-worker report identity — must hold
  /// unchanged.
  bool streaming = false;
  /// Observability sink (null = disabled).  Attached to the per-engine
  /// kernel and the replicated store, so a soak produces a per-cycle
  /// lifecycle timeline plus fault/ckpt/store/scrub metrics.  The exported
  /// trace is part of the determinism contract: byte-identical for any
  /// `workers` value.
  obs::Observer* observer = nullptr;
};

/// Everything one soak produced.  Pure function of TortureOptions (seed
/// included): equality of two reports is the determinism check the
/// reproducibility and worker-count tests rely on.
struct TortureReport {
  std::string engine;
  std::uint64_t cycles = 0;
  std::uint64_t checkpoints_ok = 0;
  std::uint64_t checkpoints_failed = 0;
  std::uint64_t restarts_ok = 0;
  std::uint64_t restarts_refused = 0;  ///< correctly refused (nothing intact)
  std::uint64_t scrub_repairs = 0;     ///< replica copies healed by scrub
  std::map<FaultKind, std::uint64_t> faults;

  // --- Violations (all must be zero) ---------------------------------------
  std::uint64_t divergences = 0;
  std::uint64_t corrupt_restarts = 0;
  std::uint64_t unexpected_failures = 0;
  std::uint64_t scrub_failures = 0;  ///< scrub left injected damage in place
  std::vector<std::string> diagnostics;

  /// True iff every violation counter is zero — the soak verdict.
  [[nodiscard]] bool ok() const {
    return divergences == 0 && corrupt_restarts == 0 && unexpected_failures == 0 &&
           scrub_failures == 0;
  }
  /// One-line human rendering (engine, cycles, counters) for SCOPED_TRACE
  /// and the standalone soak binary.
  [[nodiscard]] std::string summary() const;

  friend bool operator==(const TortureReport&, const TortureReport&) = default;
};

/// One engine under torture.  `reattach` re-runs the mechanism's required
/// registration on a restarted pid (CHPOX /proc registration, BLCR
/// initialization phase); null when the mechanism needs none.
struct TortureTarget {
  std::string catalog_name;
  std::function<bool(mechanisms::Mechanism&, sim::SimKernel&, sim::Pid)> reattach;
};

/// The default battery: every catalog mechanism that can externally
/// checkpoint an arbitrary (possibly restarted) pid to real stable storage —
/// CRAK, UCLik, CHPOX, BLCR, PsncR/C.  (EPCKPT only checkpoints processes
/// started through its launcher tool and LAM/MPI only mpirun ranks, so
/// neither can re-adopt a restarted process; the migration-only and
/// self-checkpointing mechanisms have no external restartable path at all.)
std::vector<TortureTarget> default_targets();

class TortureHarness {
 public:
  explicit TortureHarness(TortureOptions options) : options_(options) {}

  /// Torture one engine; fresh kernel + storage per call.  All simulated
  /// time (guest steps, storage I/O, retry backoff) is charged through the
  /// per-run kernel, and every random draw derives from options.seed, so
  /// the same options replay the identical soak bit-for-bit — including
  /// under any `workers` value and with any observer attached.  Throws
  /// std::invalid_argument on an unknown mechanism or inconsistent options
  /// (replicas < 2 in replicated mode, dedup or journal without
  /// replicated_storage, an unreplicated engine with no blob-store backend).
  TortureReport run(const TortureTarget& target);

  /// run() for each target in order, each from the same seed (targets are
  /// independent soaks, not a shared schedule).
  std::vector<TortureReport> run_all(const std::vector<TortureTarget>& targets);

 private:
  TortureOptions options_;
};

}  // namespace ckpt::inject
