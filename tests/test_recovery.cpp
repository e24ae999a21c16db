// RecoveryManager: the degradation ladder, structured RecoveryReports, the
// data-loss-with-intact-replica gate, and post-failover self-healing.
#include <gtest/gtest.h>

#include "cluster/recovery.hpp"
#include "storage/journal.hpp"
#include "test_common.hpp"

namespace ckpt::cluster {
namespace {

using ckpt::test::SimTest;

class RecoveryTest : public SimTest {
 protected:
  Cluster cluster_{2, NodeConfig{}};
  RecoveryManager manager_{cluster_};

  RecoveryManager::JobId launch_and_checkpoint(int home, std::uint64_t steps = 50) {
    const RecoveryManager::JobId job =
        manager_.launch(home, sim::CounterGuest::kTypeName, {});
    ckpt::test::run_steps(cluster_.node(home).kernel(), manager_.pid_of(job), steps);
    EXPECT_TRUE(manager_.checkpoint(job));
    return job;
  }

  static const RecoveryAttempt* find_attempt(const RecoveryReport& report,
                                             RecoveryStep step) {
    for (const RecoveryAttempt& attempt : report.attempts) {
      if (attempt.step == step) return &attempt;
    }
    return nullptr;
  }
};

TEST_F(RecoveryTest, LocalRungRestoresWhenHomeDiskIsReachable) {
  // The process dies but the node survives: the newest committed image is
  // readable from the local replica — the ladder's fast path.
  const auto job = launch_and_checkpoint(0);
  sim::SimKernel& kernel = cluster_.node(0).kernel();
  kernel.terminate(kernel.process(manager_.pid_of(job)), 9);
  kernel.reap(manager_.pid_of(job));

  const RecoveryReport report = manager_.recover(job);
  EXPECT_TRUE(report.recovered);
  EXPECT_TRUE(report.from_image);
  EXPECT_FALSE(report.cold_started);
  EXPECT_FALSE(report.data_loss_with_intact_replica);
  const RecoveryAttempt* local = find_attempt(report, RecoveryStep::kLocalNewest);
  ASSERT_NE(local, nullptr);
  EXPECT_TRUE(local->ok);
  EXPECT_EQ(report.attempts.size(), 1u);  // no deeper rung was needed
  EXPECT_TRUE(kernel.process(report.restored_pid).alive());
}

TEST_F(RecoveryTest, RemoteRungSurvivesHomeNodeFailure) {
  const auto job = launch_and_checkpoint(0);
  cluster_.fail_node(0);

  const RecoveryReport report = manager_.recover(job);
  EXPECT_TRUE(report.recovered);
  EXPECT_TRUE(report.from_image);
  EXPECT_EQ(report.target_node, 1);
  EXPECT_EQ(manager_.home_of(job), 1);
  EXPECT_FALSE(report.data_loss_with_intact_replica);

  const RecoveryAttempt* local = find_attempt(report, RecoveryStep::kLocalNewest);
  ASSERT_NE(local, nullptr);
  EXPECT_FALSE(local->ok);  // home disk went down with the node
  const RecoveryAttempt* remote = find_attempt(report, RecoveryStep::kRemoteNewest);
  ASSERT_NE(remote, nullptr);
  EXPECT_TRUE(remote->ok);
  EXPECT_TRUE(cluster_.node(1).kernel().process(report.restored_pid).alive());
}

TEST_F(RecoveryTest, OlderSurvivingRungFallsBackPastCorruptNewest) {
  const auto job = launch_and_checkpoint(0);
  ckpt::test::run_steps(cluster_.node(0).kernel(), manager_.pid_of(job), 100);
  ASSERT_TRUE(manager_.checkpoint(job));
  cluster_.fail_node(0);
  // Damage the newest image's only reachable (remote) copy.
  ASSERT_TRUE(cluster_.remote_storage().corrupt_blob(
      cluster_.remote_storage().newest_id(), 21, 3));

  const RecoveryReport report = manager_.recover(job);
  EXPECT_TRUE(report.recovered);
  EXPECT_TRUE(report.from_image);
  EXPECT_FALSE(report.data_loss_with_intact_replica);
  const RecoveryAttempt* older = find_attempt(report, RecoveryStep::kOlderSurviving);
  ASSERT_NE(older, nullptr);
  EXPECT_TRUE(older->ok);
  EXPECT_EQ(report.restored_sequence, 1u);  // fell back one sequence point
}

TEST_F(RecoveryTest, ColdStartOnlyWhenNothingWasEverCommitted) {
  const RecoveryManager::JobId job =
      manager_.launch(0, sim::CounterGuest::kTypeName, {});
  cluster_.fail_node(0);

  const RecoveryReport report = manager_.recover(job);
  EXPECT_TRUE(report.recovered);
  EXPECT_TRUE(report.cold_started);
  EXPECT_FALSE(report.from_image);
  // The gate must NOT fire: there was no committed image to lose.
  EXPECT_FALSE(report.data_loss_with_intact_replica);
  const RecoveryAttempt* cold = find_attempt(report, RecoveryStep::kColdStart);
  ASSERT_NE(cold, nullptr);
  EXPECT_TRUE(cold->ok);
  EXPECT_TRUE(cluster_.node(1).kernel().process(report.restored_pid).alive());
}

TEST_F(RecoveryTest, NoSurvivingNodeIsReportedNotRecovered) {
  const auto job = launch_and_checkpoint(0);
  cluster_.fail_node(0);
  cluster_.fail_node(1);
  const RecoveryReport report = manager_.recover(job);
  EXPECT_FALSE(report.recovered);
  EXPECT_EQ(report.target_node, -1);
  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_FALSE(report.attempts[0].ok);
}

TEST_F(RecoveryTest, FailoverRetargetsAndScrubReplicatesOntoNewHome) {
  const auto job = launch_and_checkpoint(0);
  cluster_.fail_node(0);
  const RecoveryReport report = manager_.recover(job);
  ASSERT_TRUE(report.from_image);

  // Self-healing: the local replica slot now points at node 1's disk and
  // the post-recovery scrub re-replicated the committed history onto it.
  storage::ReplicatedStore& store = manager_.store(job);
  const storage::ImageId newest = store.newest_committed();
  ASSERT_NE(newest, storage::kBadImageId);
  EXPECT_TRUE(
      store.load_from(RecoveryManager::kLocalReplica, newest, nullptr).has_value());
  EXPECT_EQ(store.intact_replicas(newest), 2u);
  EXPECT_FALSE(cluster_.node(1).disk().list().empty());

  // The healed job checkpoints and recovers again — the loop is closed.
  ckpt::test::run_steps(cluster_.node(1).kernel(), manager_.pid_of(job), 50);
  EXPECT_TRUE(manager_.checkpoint(job));
  cluster_.fail_node(1);
  cluster_.repair_node(0);
  const RecoveryReport second = manager_.recover(job);
  EXPECT_TRUE(second.recovered);
  EXPECT_TRUE(second.from_image);
  EXPECT_FALSE(second.data_loss_with_intact_replica);
  EXPECT_EQ(manager_.home_of(job), 0);
}

TEST_F(RecoveryTest, WatchRecoversEveryJobOnTheFailedNode) {
  const auto job_a = launch_and_checkpoint(0);
  const auto job_b = launch_and_checkpoint(0);
  const auto job_other = launch_and_checkpoint(1);
  manager_.watch();

  cluster_.fail_node(0);
  ASSERT_EQ(manager_.reports().size(), 2u);
  for (const RecoveryReport& report : manager_.reports()) {
    EXPECT_TRUE(report.recovered);
    EXPECT_TRUE(report.from_image);
    EXPECT_FALSE(report.data_loss_with_intact_replica);
  }
  EXPECT_EQ(manager_.home_of(job_a), 1);
  EXPECT_EQ(manager_.home_of(job_b), 1);
  EXPECT_EQ(manager_.home_of(job_other), 1);  // untouched
  EXPECT_EQ(manager_.checkpoints_taken(job_other), 1u);
}

TEST_F(RecoveryTest, OverlappingFailuresEachResolveOwnLadderRung) {
  // Two nodes failing back-to-back inside one detection window: every
  // affected job walks its own ladder without cross-talk — each restores
  // its own image, never a co-hosted neighbour's.
  Cluster cluster(3, NodeConfig{});
  RecoveryManager manager(cluster);
  const auto job_a = manager.launch(0, sim::CounterGuest::kTypeName, {});
  const auto job_b = manager.launch(1, sim::CounterGuest::kTypeName, {});
  ckpt::test::run_steps(cluster.node(0).kernel(), manager.pid_of(job_a), 60);
  ckpt::test::run_steps(cluster.node(1).kernel(), manager.pid_of(job_b), 120);
  ASSERT_TRUE(manager.checkpoint(job_a));
  ASSERT_TRUE(manager.checkpoint(job_b));
  manager.watch();

  cluster.fail_node(0);  // A fails over (to node 1)
  cluster.fail_node(1);  // ...which immediately dies too: A again, plus B

  ASSERT_EQ(manager.reports().size(), 3u);
  for (const RecoveryReport& report : manager.reports()) {
    EXPECT_TRUE(report.recovered);
    EXPECT_TRUE(report.from_image);
    EXPECT_FALSE(report.data_loss_with_intact_replica);
    const RecoveryAttempt* remote = find_attempt(report, RecoveryStep::kRemoteNewest);
    ASSERT_NE(remote, nullptr);
    EXPECT_TRUE(remote->ok);  // home disk died every time
  }
  EXPECT_EQ(manager.home_of(job_a), 2);
  EXPECT_EQ(manager.home_of(job_b), 2);

  // No cross-talk: each survivor carries exactly its own checkpointed
  // progress (the counters were deliberately distinct).
  sim::SimKernel& survivor = cluster.node(2).kernel();
  const std::uint64_t counter_a = sim::CounterGuest::read_counter(
      survivor, survivor.process(manager.pid_of(job_a)));
  const std::uint64_t counter_b = sim::CounterGuest::read_counter(
      survivor, survivor.process(manager.pid_of(job_b)));
  EXPECT_GE(counter_a, 60u);
  EXPECT_LT(counter_a, 120u);
  EXPECT_GE(counter_b, 120u);
}

TEST_F(RecoveryTest, OverlappingFailuresResolveDifferentRungsIndependently) {
  // Two jobs co-homed on one failing node where only one job's newest
  // remote copy is damaged: that job degrades to older-surviving while its
  // neighbour still takes the remote-newest fast path.
  const auto job_a = launch_and_checkpoint(0);
  ckpt::test::run_steps(cluster_.node(0).kernel(), manager_.pid_of(job_a), 100);
  ASSERT_TRUE(manager_.checkpoint(job_a));
  const auto job_b = launch_and_checkpoint(0);
  manager_.watch();

  const storage::ImageId newest_a = manager_.store(job_a).newest_committed();
  ASSERT_TRUE(cluster_.remote_storage().corrupt_blob(newest_a, 21, 3));
  cluster_.fail_node(0);

  ASSERT_EQ(manager_.reports().size(), 2u);
  for (const RecoveryReport& report : manager_.reports()) {
    EXPECT_TRUE(report.recovered);
    EXPECT_TRUE(report.from_image);
    EXPECT_FALSE(report.data_loss_with_intact_replica);
    if (report.job == job_a) {
      const RecoveryAttempt* older = find_attempt(report, RecoveryStep::kOlderSurviving);
      ASSERT_NE(older, nullptr);
      EXPECT_TRUE(older->ok);
      EXPECT_EQ(report.restored_sequence, 1u);
    } else {
      EXPECT_EQ(report.job, job_b);
      const RecoveryAttempt* remote = find_attempt(report, RecoveryStep::kRemoteNewest);
      ASSERT_NE(remote, nullptr);
      EXPECT_TRUE(remote->ok);
      EXPECT_EQ(find_attempt(report, RecoveryStep::kOlderSurviving), nullptr);
    }
  }
}

TEST_F(RecoveryTest, ReportSummaryNamesTheLadderOutcome) {
  const auto job = launch_and_checkpoint(0);
  cluster_.fail_node(0);
  const std::string summary = manager_.recover(job).summary();
  EXPECT_NE(summary.find("local-newest=fail"), std::string::npos) << summary;
  EXPECT_NE(summary.find("remote-newest=ok"), std::string::npos) << summary;
  EXPECT_EQ(summary.find("DATA LOSS"), std::string::npos) << summary;
}

TEST_F(RecoveryTest, AdoptRequiresASharedStoreAndItsJournal) {
  storage::RemoteBackend remote{sim::CostModel{}};
  storage::ReplicatedStore store({&cluster_.node(0).disk(), &remote},
                                 storage::ReplicatedOptions{});
  storage::LogStructuredBackend journal(&store, {});
  const sim::SpawnOptions spawn;
  using Binding = RecoveryManager::ExternalStoreBinding;
  const auto adopt = [&](Binding binding) {
    return manager_.adopt(0, sim::CounterGuest::kTypeName, {}, spawn, binding);
  };
  EXPECT_THROW(adopt(Binding{&store, nullptr}), std::invalid_argument);
  EXPECT_THROW(adopt(Binding{nullptr, &journal}), std::invalid_argument);

  // A bound job commits by appending to the journal; the caller migrates.
  const RecoveryManager::JobId job = adopt(Binding{&store, &journal});
  ckpt::test::run_steps(cluster_.node(0).kernel(), manager_.pid_of(job), 20);
  ASSERT_TRUE(manager_.checkpoint(job));
  EXPECT_EQ(journal.resident_images(), 1u);
  EXPECT_TRUE(store.list().empty());
}

TEST_F(RecoveryTest, UnknownJobIsRejected) {
  EXPECT_THROW(manager_.recover(999), std::invalid_argument);
  EXPECT_THROW(manager_.launch(0, "no-such-guest", {}), std::exception);
  EXPECT_EQ(manager_.pid_of(999), sim::kNoPid);
  EXPECT_EQ(manager_.home_of(999), -1);
}

}  // namespace
}  // namespace ckpt::cluster
