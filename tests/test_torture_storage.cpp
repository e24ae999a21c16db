// Replicated stable-storage torture soak (ctest label: torture-storage).
//
// Re-runs the crash/restart torture battery with the engines writing
// through a ReplicatedStore (atomic two-phase publish + retry + scrub),
// storage faults targeting one replica at a time.  The sharpened verdicts:
//
//   * a restart NEVER fails while >= 1 intact replica of a committed image
//     exists (zero unexpected_failures — the tentpole invariant);
//   * under a storage-fault-only schedule, single-replica faults are fully
//     absorbed: no checkpoint is ever lost and no restart is ever refused;
//   * every injected single-replica corruption is repaired by the
//     end-of-cycle scrub (zero scrub_failures);
//   * the whole soak replays bit-identically from the seed.
#include <gtest/gtest.h>

#include "inject/torture.hpp"

namespace ckpt::inject {
namespace {

constexpr std::uint64_t kSoakSeed = 0x5eed2026;
constexpr std::uint64_t kCyclesPerEngine = 110;

TortureOptions replicated_options(std::uint32_t replicas = 2) {
  TortureOptions options;
  options.seed = kSoakSeed;
  options.cycles = kCyclesPerEngine;
  options.replicated_storage = true;
  options.replicas = replicas;
  return options;
}

/// Storage faults only — the schedule the survivability claim is about.
std::vector<FaultPlan::Weighted> storage_only_mix() {
  return {
      {FaultKind::kNone, 2},          {FaultKind::kStoreReject, 2},
      {FaultKind::kTornStore, 2},     {FaultKind::kCorruptImage, 2},
      {FaultKind::kStorageOutage, 2},
  };
}

TEST(TortureStorage, FiveHundredFiftyCyclesAcrossTheBattery) {
  const std::vector<TortureTarget> targets = default_targets();
  ASSERT_EQ(targets.size(), 5u);

  TortureHarness harness(replicated_options());
  const std::vector<TortureReport> reports = harness.run_all(targets);

  std::uint64_t total_cycles = 0;
  std::uint64_t total_repairs = 0;
  for (const TortureReport& report : reports) {
    SCOPED_TRACE(report.summary());
    total_cycles += report.cycles;
    total_repairs += report.scrub_repairs;

    EXPECT_GT(report.checkpoints_ok, 0u) << report.engine;
    EXPECT_GT(report.restarts_ok, 0u) << report.engine;

    // The tentpole invariant: zero unrecoverable restarts while an intact
    // replica of a committed image exists, zero restarts from garbage, zero
    // divergences, and scrub healed every injected single-replica wound.
    EXPECT_EQ(report.divergences, 0u);
    EXPECT_EQ(report.corrupt_restarts, 0u);
    EXPECT_EQ(report.unexpected_failures, 0u);
    EXPECT_EQ(report.scrub_failures, 0u);
    EXPECT_TRUE(report.ok());
    for (const std::string& diagnostic : report.diagnostics) {
      ADD_FAILURE() << report.engine << ": " << diagnostic;
    }
  }
  EXPECT_GE(total_cycles, 550u);
  EXPECT_GT(total_repairs, 0u) << "scrub never repaired anything: injectors dead?";
}

TEST(TortureStorage, SingleReplicaStorageFaultsAreFullyAbsorbed) {
  // With >= 2 replicas and faults hitting one replica per cycle, the
  // storage layer must be transparent to the engine: every checkpoint
  // commits (retry + quorum) and every restart succeeds (failover).
  TortureOptions options = replicated_options();
  options.fault_mix = storage_only_mix();
  TortureHarness harness(options);
  for (const TortureReport& report : harness.run_all(default_targets())) {
    SCOPED_TRACE(report.summary());
    EXPECT_EQ(report.checkpoints_failed, 0u) << report.engine;
    EXPECT_EQ(report.restarts_refused, 0u) << report.engine;
    EXPECT_EQ(report.unexpected_failures, 0u) << report.engine;
    EXPECT_TRUE(report.ok());
  }
}

TEST(TortureStorage, UnreplicatedStorageLosesWhatReplicationKeeps) {
  // The control: the identical storage-fault schedule against a single
  // backend must visibly hurt (failed checkpoints or refused restarts) —
  // otherwise the absorption result above proves nothing.
  TortureOptions options = replicated_options();
  options.replicated_storage = false;
  options.fault_mix = storage_only_mix();
  TortureHarness harness(options);
  std::uint64_t lost = 0;
  for (const TortureReport& report : harness.run_all(default_targets())) {
    SCOPED_TRACE(report.summary());
    EXPECT_TRUE(report.ok());  // the harness model itself must stay sound
    lost += report.checkpoints_failed + report.restarts_refused;
  }
  EXPECT_GT(lost, 0u);
}

TEST(TortureStorage, ThreeWayReplicationHoldsTheSameInvariants) {
  TortureOptions options = replicated_options(/*replicas=*/3);
  options.fault_mix = storage_only_mix();
  TortureHarness harness(options);
  const TortureReport report = harness.run(TortureTarget{"CRAK", nullptr});
  SCOPED_TRACE(report.summary());
  EXPECT_EQ(report.checkpoints_failed, 0u);
  EXPECT_EQ(report.restarts_refused, 0u);
  EXPECT_TRUE(report.ok());
}

TEST(TortureStorage, ReproducibleFromSeed) {
  TortureOptions options = replicated_options();
  options.seed = 77;
  options.cycles = 40;

  const TortureTarget crak{"CRAK", nullptr};
  const TortureReport first = TortureHarness(options).run(crak);
  const TortureReport second = TortureHarness(options).run(crak);
  EXPECT_EQ(first, second) << "same seed must replay the identical soak";

  options.seed = 78;
  const TortureReport other = TortureHarness(options).run(crak);
  EXPECT_NE(first, other) << "different seeds must produce different schedules";
}

TEST(TortureStorage, WorkerCountNeverChangesTheSoak) {
  // The parallel commit pipeline must be invisible to the simulation: the
  // full battery replays bit-identically whether the store commits through
  // one worker or eight.
  TortureOptions options = replicated_options(/*replicas=*/3);
  options.cycles = 35;

  options.workers = 1;
  const std::vector<TortureReport> serial = TortureHarness(options).run_all(default_targets());
  options.workers = 8;
  const std::vector<TortureReport> pooled = TortureHarness(options).run_all(default_targets());

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], pooled[i]) << serial[i].engine;
  }
}

TEST(TortureStorage, DedupReplicatedSoakHoldsTheSameInvariants) {
  // The content-addressed store must not introduce any new violation class:
  // shared chunks mean one corrupt blob can sit under several images, and
  // the replicated closure-aware scrub must still heal every single-replica
  // wound before it can spread.
  TortureOptions options = replicated_options();
  options.dedup = true;
  const std::vector<TortureReport> reports =
      TortureHarness(options).run_all(default_targets());
  std::uint64_t total_repairs = 0;
  for (const TortureReport& report : reports) {
    SCOPED_TRACE(report.summary());
    total_repairs += report.scrub_repairs;
    EXPECT_GT(report.checkpoints_ok, 0u) << report.engine;
    EXPECT_GT(report.restarts_ok, 0u) << report.engine;
    EXPECT_EQ(report.divergences, 0u);
    EXPECT_EQ(report.corrupt_restarts, 0u);
    EXPECT_EQ(report.unexpected_failures, 0u);
    EXPECT_EQ(report.scrub_failures, 0u);
    EXPECT_TRUE(report.ok());
    for (const std::string& diagnostic : report.diagnostics) {
      ADD_FAILURE() << report.engine << ": " << diagnostic;
    }
  }
  EXPECT_GT(total_repairs, 0u) << "scrub never repaired anything: injectors dead?";
}

TEST(TortureStorage, DedupWorkerCountNeverChangesTheSoak) {
  // Dedup staging fans chunk writes across the pool; the per-replica charge
  // ledgers must keep the soak bit-identical for any worker count.
  TortureOptions options = replicated_options(/*replicas=*/3);
  options.cycles = 35;
  options.dedup = true;

  options.workers = 1;
  const std::vector<TortureReport> serial = TortureHarness(options).run_all(default_targets());
  options.workers = 8;
  const std::vector<TortureReport> pooled = TortureHarness(options).run_all(default_targets());

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], pooled[i]) << serial[i].engine;
  }
}

/// The journal schedule: every storage fault the replicated battery runs,
/// plus the two log-specific kinds (power-fail mid-append, silent log
/// corruption + crash + recovery).
std::vector<FaultPlan::Weighted> journal_mix() {
  std::vector<FaultPlan::Weighted> mix = storage_only_mix();
  mix.push_back({FaultKind::kNone, 2});
  mix.push_back({FaultKind::kKillProcess, 2});
  mix.push_back({FaultKind::kJournalTornAppend, 2});
  mix.push_back({FaultKind::kJournalCorrupt, 2});
  return mix;
}

TEST(TortureStorage, JournalReplicatedSoakHoldsTheSameInvariants) {
  // Append-commit mode: engines write through the LogStructuredBackend, the
  // migrator drains into the ReplicatedStore every cycle (while that cycle's
  // replica fault is still armed), and the log-specific faults join the
  // schedule.  A torn append must cost exactly the in-flight commit, a
  // corrupt+crash must cost at most the discarded suffix — never a
  // divergence, a restart from garbage, or a restart refusal while intact
  // state exists.
  TortureOptions options = replicated_options();
  options.journal = true;
  options.fault_mix = journal_mix();
  const std::vector<TortureReport> reports =
      TortureHarness(options).run_all(default_targets());
  std::uint64_t total_cycles = 0;
  std::uint64_t torn_appends = 0;
  std::uint64_t log_corruptions = 0;
  for (const TortureReport& report : reports) {
    SCOPED_TRACE(report.summary());
    total_cycles += report.cycles;
    const auto torn = report.faults.find(FaultKind::kJournalTornAppend);
    const auto corrupt = report.faults.find(FaultKind::kJournalCorrupt);
    torn_appends += torn == report.faults.end() ? 0 : torn->second;
    log_corruptions += corrupt == report.faults.end() ? 0 : corrupt->second;
    EXPECT_GT(report.checkpoints_ok, 0u) << report.engine;
    EXPECT_GT(report.restarts_ok, 0u) << report.engine;
    EXPECT_EQ(report.divergences, 0u);
    EXPECT_EQ(report.corrupt_restarts, 0u);
    EXPECT_EQ(report.unexpected_failures, 0u);
    EXPECT_EQ(report.scrub_failures, 0u);
    EXPECT_TRUE(report.ok());
    for (const std::string& diagnostic : report.diagnostics) {
      ADD_FAILURE() << report.engine << ": " << diagnostic;
    }
  }
  EXPECT_GE(total_cycles, 550u);
  EXPECT_GT(torn_appends, 0u) << "the schedule never tore an append";
  EXPECT_GT(log_corruptions, 0u) << "the schedule never corrupted the log";
}

TEST(TortureStorage, JournalWorkerCountNeverChangesTheSoak) {
  // Every migrator drain stores into the replicated home store, whose
  // serialize and replica staging fan out on the pool; the soak — including
  // every mid-cycle drain, crash and recovery — must replay bit-identically
  // for one worker and eight.
  TortureOptions options = replicated_options(/*replicas=*/3);
  options.cycles = 35;
  options.journal = true;
  options.fault_mix = journal_mix();

  options.workers = 1;
  const std::vector<TortureReport> serial = TortureHarness(options).run_all(default_targets());
  options.workers = 8;
  const std::vector<TortureReport> pooled = TortureHarness(options).run_all(default_targets());

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], pooled[i]) << serial[i].engine;
  }
}

/// The streaming schedule: every storage fault, plus process kills — the
/// fault skip-op draws land rejections and torn writes between chunk
/// appends, mid-stream.
std::vector<FaultPlan::Weighted> streaming_mix() {
  std::vector<FaultPlan::Weighted> mix = storage_only_mix();
  mix.push_back({FaultKind::kKillProcess, 2});
  return mix;
}

TEST(TortureStorage, StreamingSoakHoldsTheSameInvariants) {
  // Streaming-COW commits: chunks land on the replicas as they are encoded,
  // with rejections and torn writes detonating mid-stream.  The manifest is
  // written last, so a wounded stream must either fall back and commit
  // intact or fail without trace — never data loss while an intact replica
  // of a committed image exists.
  TortureOptions options = replicated_options();
  options.streaming = true;
  options.fault_mix = streaming_mix();
  const std::vector<TortureReport> reports =
      TortureHarness(options).run_all(default_targets());
  std::uint64_t total_cycles = 0;
  for (const TortureReport& report : reports) {
    SCOPED_TRACE(report.summary());
    total_cycles += report.cycles;
    EXPECT_GT(report.checkpoints_ok, 0u) << report.engine;
    EXPECT_GT(report.restarts_ok, 0u) << report.engine;
    EXPECT_EQ(report.divergences, 0u);
    EXPECT_EQ(report.corrupt_restarts, 0u);
    EXPECT_EQ(report.unexpected_failures, 0u);
    EXPECT_EQ(report.scrub_failures, 0u);
    EXPECT_TRUE(report.ok());
    for (const std::string& diagnostic : report.diagnostics) {
      ADD_FAILURE() << report.engine << ": " << diagnostic;
    }
  }
  EXPECT_GE(total_cycles, 550u);
}

TEST(TortureStorage, StreamingWorkerCountNeverChangesTheSoak) {
  // The streamed commit runs on the caller, so the store's pool width must
  // never reach the soak: including the mid-stream fault fallbacks, it
  // replays bit-identically for one worker and eight.
  TortureOptions options = replicated_options(/*replicas=*/3);
  options.cycles = 35;
  options.streaming = true;
  options.fault_mix = streaming_mix();

  options.workers = 1;
  const std::vector<TortureReport> serial = TortureHarness(options).run_all(default_targets());
  options.workers = 8;
  const std::vector<TortureReport> pooled = TortureHarness(options).run_all(default_targets());

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], pooled[i]) << serial[i].engine;
  }
}

TEST(TortureStorage, StreamingRequiresFlatReplication) {
  // The streamed commit path appends into a flat ReplicatedStore; the
  // streaming engine refuses a bare disk, a dedup store or a journal at
  // construction instead of demoting the claim under test.
  TortureOptions options = replicated_options();
  options.streaming = true;
  options.replicated_storage = false;
  EXPECT_THROW(TortureHarness(options).run(TortureTarget{"CRAK", nullptr}),
               std::invalid_argument);
  options.replicated_storage = true;
  options.dedup = true;
  EXPECT_THROW(TortureHarness(options).run(TortureTarget{"CRAK", nullptr}),
               std::invalid_argument);
  options.dedup = false;
  options.journal = true;
  EXPECT_THROW(TortureHarness(options).run(TortureTarget{"CRAK", nullptr}),
               std::invalid_argument);
}

TEST(TortureStorage, JournalWithoutReplicationIsRejected) {
  // The migrator needs a durable home store to drain into; an unreplicated
  // journal would quietly demote the survivability claim under test.
  TortureOptions options = replicated_options();
  options.replicated_storage = false;
  options.journal = true;
  EXPECT_THROW(TortureHarness(options).run(TortureTarget{"CRAK", nullptr}),
               std::invalid_argument);
}

TEST(TortureStorage, DedupWithoutReplicationIsRejected) {
  // A shared chunk on a single media copy would let one silent corruption
  // damage several committed images at once, breaking the harness's
  // newest-image corruption model — the combination is refused outright.
  TortureOptions options = replicated_options();
  options.replicated_storage = false;
  options.dedup = true;
  EXPECT_THROW(TortureHarness(options).run(TortureTarget{"CRAK", nullptr}),
               std::invalid_argument);
}

TEST(TortureStorage, SingleReplicaConfigurationIsRejected) {
  TortureOptions options = replicated_options(/*replicas=*/1);
  EXPECT_THROW(TortureHarness(options).run(TortureTarget{"CRAK", nullptr}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ckpt::inject
