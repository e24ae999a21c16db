// FleetManager: heartbeat-based failure detection, CRAFT-style replacement
// from the spare pool, sharded/staggered autonomic commits, and the fleet
// determinism contract (byte-identical reports for any worker count).
//
// The 500+-node soak lives in test_fleet_soak.cpp (label `fleet`); this
// file is the fast tier-1 battery.
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/fleet.hpp"
#include "obs/observer.hpp"
#include "test_common.hpp"

namespace ckpt::cluster {
namespace {

using ckpt::test::SimTest;

class FleetTest : public SimTest {};

/// Small, fast fleet: commits every window so every scenario below has
/// images to re-seed from almost immediately.
FleetOptions small_options() {
  FleetOptions options;
  options.active_nodes = 12;
  options.spare_nodes = 3;
  options.shards = 3;
  options.seed = 11;
  options.policy.initial_interval = options.window;  // due every window
  options.policy.adapt_interval = false;
  options.guest_steps_min = 1;
  options.guest_steps_max = 3;
  options.array_bytes = 4 * 1024;
  return options;
}

/// Fail `node` on the cluster event clock `windows_in` windows from now.
void fail_later(FleetManager& fleet, int node, std::uint64_t windows_in) {
  const SimTime when =
      fleet.cluster().now() + static_cast<SimTime>(windows_in) * fleet.options().window;
  fleet.cluster().add_event(when, [node](Cluster& c) {
    if (c.node(node).up()) c.fail_node(node);
  });
}

TEST_F(FleetTest, SmallFleetCommitsDeterministically) {
  FleetTortureOptions torture;
  torture.failure_models.push_back(
      {FailureModel::Kind::kExponential, 40 * kSecond, 0.7, 0, 21});
  torture.heartbeat_drop_per_window = 0.02;
  torture.heartbeat_drop_beats = 5;
  torture.storage_fault_per_window = 0.2;

  FleetManager a(small_options());
  FleetManager b(small_options());
  a.arm_torture(torture);
  b.arm_torture(torture);
  const FleetReport ra = a.run(24);
  const FleetReport rb = b.run(24);

  EXPECT_GT(ra.commits_ok, 0u);
  EXPECT_TRUE(ra == rb);
  EXPECT_EQ(ra.digest(), rb.digest());
}

TEST_F(FleetTest, StaggeredCommitsBoundPerWindowLoad) {
  // 16 slots, 4 shards, a fixed 4-window interval: the stagger slices the
  // interval one window per shard, so any window commits exactly one
  // shard's 4 slots — never a 16-slot stampede.
  FleetOptions options;
  options.active_nodes = 16;
  options.spare_nodes = 2;
  options.shards = 4;
  options.policy.initial_interval = 4 * options.window;
  options.policy.adapt_interval = false;
  options.guest_steps_min = 1;
  options.guest_steps_max = 2;
  options.array_bytes = 4 * 1024;

  FleetManager fleet(options);
  const FleetReport report = fleet.run(8);

  EXPECT_EQ(fleet.interval_windows(), 4u);
  EXPECT_EQ(report.commits_scheduled, 16u * 2u);  // each slot due twice
  EXPECT_EQ(report.commits_ok, report.commits_scheduled);
  EXPECT_EQ(report.max_commits_one_window, 4u);
}

TEST_F(FleetTest, DetectorConfirmsInjectedFailureAndReplacesFromImage) {
  FleetManager fleet(small_options());
  fleet.run(3);  // every slot commits at least once
  ASSERT_GT(fleet.report().commits_ok, 0u);

  fail_later(fleet, 5, 1);
  const FleetReport report = fleet.run(10);

  EXPECT_EQ(report.failures_injected, 1u);
  EXPECT_EQ(report.confirmed_dead, 1u);
  EXPECT_EQ(report.false_confirms, 0u);
  EXPECT_EQ(report.replacements, 1u);
  EXPECT_EQ(report.reseeds_from_image, 1u);
  EXPECT_EQ(report.cold_starts, 0u);
  EXPECT_TRUE(report.ok()) << report.summary();

  // The slot moved onto the lowest spare and is tracked alive again.
  const int slot = 5;  // slot i starts on node i
  EXPECT_EQ(fleet.slot_node(slot), fleet.options().active_nodes);
  EXPECT_EQ(fleet.detector().state(fleet.slot_node(slot)),
            FailureDetector::NodeState::kAlive);

  // Detection is window-quantized heartbeat counting: a node failing at
  // time t in (beat_k, beat_k+1] is confirmed at beat_k + confirm*window,
  // so the latency lands in [(confirm-1), confirm] windows.
  ASSERT_EQ(report.detect_latency.size(), 1u);
  const SimTime window = fleet.options().window;
  EXPECT_GE(report.detect_latency.front(),
            (FailureDetector::kConfirmAfterMissed - 1) * window);
  EXPECT_LE(report.detect_latency.front(), FailureDetector::kConfirmAfterMissed * window);
  ASSERT_EQ(report.recover_latency.size(), 1u);
  EXPECT_GE(report.recover_latency.front(), report.detect_latency.front());
}

TEST_F(FleetTest, FalseSuspicionIsFencedNeverSplitBrained) {
  FleetManager fleet(small_options());
  fleet.run(3);

  // Drop enough beats from a perfectly healthy node to force a confirm.
  fleet.suppress_heartbeats(7, FailureDetector::kConfirmAfterMissed + 2);
  const FleetReport report = fleet.run(10);

  EXPECT_EQ(report.false_confirms, 1u);
  EXPECT_EQ(report.confirmed_dead, 1u);
  // The fence *is* a fail-stop: ground truth records it, so the old
  // incarnation can never commit again.
  EXPECT_EQ(report.failures_injected, 1u);
  EXPECT_FALSE(fleet.cluster().node(7).up());
  EXPECT_EQ(report.replacements, 1u);
  EXPECT_EQ(report.reseeds_from_image, 1u);
  // A false confirm costs work since the last checkpoint — never data.
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(FleetTest, StorageHomeFailureRetargetsReplicaAndScrubs) {
  FleetManager fleet(small_options());
  fleet.run(3);
  ASSERT_EQ(fleet.storage_home(0), 0);

  fail_later(fleet, 0, 1);  // node 0 anchors shard 0's local replica
  const FleetReport report = fleet.run(12);

  EXPECT_EQ(report.replacements, 1u);
  EXPECT_EQ(report.retargets, 1u);
  EXPECT_EQ(fleet.storage_home(0), fleet.slot_node(0));
  EXPECT_NE(fleet.storage_home(0), 0);
  // The scrub re-replicated committed history onto the fresh disk and the
  // shard kept committing for every survivor afterwards.
  EXPECT_GT(report.scrub_repairs, 0u);
  EXPECT_EQ(report.commits_failed, 0u);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(FleetTest, SpareExhaustionQueuesSlotsUntilRepair) {
  FleetOptions options = small_options();
  options.spare_nodes = 1;
  FleetManager fleet(options);
  fleet.run(3);

  // Three concurrent failures against a one-deep pool: one slot replaces
  // immediately, two queue until their old nodes repair and re-enter the
  // pool as spares.
  for (int node : {2, 4, 6}) fail_later(fleet, node, 1);
  const SimTime repair_at = fleet.cluster().now() + 14 * fleet.options().window;
  for (int node : {2, 4}) {
    fleet.cluster().add_event(repair_at, [node](Cluster& c) {
      if (!c.node(node).up()) c.repair_node(node);
    });
  }
  const FleetReport report = fleet.run(30);

  EXPECT_EQ(report.confirmed_dead, 3u);
  EXPECT_EQ(report.replacements, 3u);
  EXPECT_GT(report.spares_exhausted_windows, 0u);
  EXPECT_EQ(report.pending_at_end, 0u);
  EXPECT_EQ(report.repairs, 2u);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(FleetTest, WorkerCountNeverChangesReportsMetricsOrTraces) {
  // The 1-vs-8 identity gate: pinned pools of different widths, observers
  // attached, torture armed — reports, digests, metrics snapshots and
  // trace exports must all be byte-identical.
  FleetTortureOptions torture;
  torture.failure_models.push_back(
      {FailureModel::Kind::kWeibull, 30 * kSecond, 0.7, 0, 33});
  torture.heartbeat_drop_per_window = 0.03;
  torture.heartbeat_drop_beats = 6;
  torture.storage_fault_per_window = 0.25;

  obs::Observer obs1;
  obs::Observer obs8;
  FleetOptions o1 = small_options();
  o1.workers = 1;
  o1.observer = &obs1;
  FleetOptions o8 = small_options();
  o8.workers = 8;
  o8.observer = &obs8;

  FleetManager f1(o1);
  FleetManager f8(o8);
  f1.arm_torture(torture);
  f8.arm_torture(torture);
  const FleetReport r1 = f1.run(20);
  const FleetReport r8 = f8.run(20);

  EXPECT_TRUE(r1 == r8);
  EXPECT_EQ(r1.digest(), r8.digest());
  EXPECT_EQ(obs1.metrics().snapshot_json(), obs8.metrics().snapshot_json());
  EXPECT_EQ(obs1.trace().export_chrome_json(), obs8.trace().export_chrome_json());
}

TEST_F(FleetTest, GeometryItCannotHonourIsRejected) {
  const auto rejects = [](auto&& edit) {
    FleetOptions options = small_options();
    edit(options);
    EXPECT_THROW(FleetManager{options}, std::invalid_argument);
  };
  rejects([](FleetOptions& o) { o.active_nodes = 0; });
  rejects([](FleetOptions& o) { o.spare_nodes = -1; });
  rejects([](FleetOptions& o) { o.shards = 0; });
  rejects([](FleetOptions& o) { o.shards = -2; });
  // More shards than active nodes: a shard with no slot and no storage home.
  rejects([](FleetOptions& o) { o.shards = o.active_nodes + 1; });
  rejects([](FleetOptions& o) { o.shards = o.active_nodes + o.spare_nodes + 1; });

  FleetOptions one_slot_per_shard = small_options();
  one_slot_per_shard.shards = one_slot_per_shard.active_nodes;
  FleetManager fleet(one_slot_per_shard);
  EXPECT_TRUE(fleet.run(2).ok());
}

TEST_F(FleetTest, ReportSummaryAndMetricsNameTheOutcome) {
  obs::Observer observer;
  FleetOptions options = small_options();
  options.observer = &observer;
  FleetManager fleet(options);
  fail_later(fleet, 3, 1);
  const FleetReport report = fleet.run(12);

  const std::string summary = report.summary();
  EXPECT_NE(summary.find("replacements"), std::string::npos);
  EXPECT_EQ(observer.metrics().counter("fleet.replacements"), report.replacements);
  EXPECT_EQ(observer.metrics().counter("fleet.confirmed_dead"), report.confirmed_dead);
  EXPECT_EQ(observer.metrics().counter("fleet.windows"), report.windows);
}

}  // namespace
}  // namespace ckpt::cluster
