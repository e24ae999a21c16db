// Fleet torture soak (label `fleet`): a 500+-node fleet under combined
// stochastic fail-stop (exponential AND Weibull infant-mortality models,
// never-repaired), detector false-suspicions and storage faults must
// complete with zero data-loss-with-intact-replica violations, every
// confirmed-dead slot replaced from the spare pool and re-seeded to a
// verified-restorable image — and the whole thing byte-identical for any
// worker count.
#include <gtest/gtest.h>

#include "cluster/fleet.hpp"
#include "obs/observer.hpp"
#include "test_common.hpp"

namespace ckpt::cluster {
namespace {

using ckpt::test::SimTest;

class FleetSoak : public SimTest {};

FleetTortureOptions soak_torture() {
  FleetTortureOptions torture;
  // Exponential + Weibull superposition.  Weibull shape 0.7 front-loads
  // failures (infant mortality), so its mean must be read against the short
  // soak horizon: ~5% of the fleet fails in the first 10 simulated seconds.
  torture.failure_models.push_back(
      {FailureModel::Kind::kExponential, 300 * kSecond, 0.7, 0, 101});
  torture.failure_models.push_back(
      {FailureModel::Kind::kWeibull, 900 * kSecond, 0.7, 0, 202});
  torture.heartbeat_drop_per_window = 0.0005;
  torture.heartbeat_drop_beats = 6;
  torture.storage_fault_per_window = 0.3;
  return torture;
}

TEST_F(FleetSoak, FiveHundredNodeTortureSoakHoldsEveryInvariant) {
  FleetOptions options;
  options.active_nodes = 520;
  options.spare_nodes = 72;
  options.shards = 16;
  options.seed = 77;
  options.policy.initial_interval = 4 * options.window;
  options.policy.initial_mtbf = 10 * kSecond;
  options.guest_steps_min = 1;
  options.guest_steps_max = 3;
  options.array_bytes = 4 * 1024;

  FleetManager fleet(options);
  fleet.run(3);  // every slot commits before the faults start
  ASSERT_EQ(fleet.report().commits_failed, 0u);
  ASSERT_GT(fleet.report().commits_ok, 0u);

  fleet.arm_torture(soak_torture());
  const FleetReport report = fleet.run(40);
  SCOPED_TRACE(report.summary());

  // The storm actually happened.
  EXPECT_GT(report.failures_injected, 10u);
  EXPECT_GT(report.confirmed_dead, 10u);
  EXPECT_GT(report.storage_faults_injected, 5u);
  EXPECT_GT(report.heartbeats_suppressed, 0u);

  // THE gates: nothing recoverable was lost, every replacement re-seeded
  // to an image that byte-verified against the restored process, and no
  // slot was left waiting.
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.data_loss_with_intact_replica, 0u);
  EXPECT_EQ(report.verify_failures, 0u);
  EXPECT_EQ(report.unrecovered, 0u);
  EXPECT_EQ(report.pending_at_end, 0u);
  EXPECT_GT(report.replacements, 0u);
  EXPECT_EQ(report.replacements, report.reseeds_from_image + report.cold_starts);
  EXPECT_EQ(report.cold_starts, 0u);  // warm-up committed everywhere

  // The fleet kept making durable progress throughout.
  EXPECT_GT(report.commits_ok, 1000u);
  EXPECT_GT(report.group_commits, 0u);
  EXPECT_GT(report.durable_bytes, 0u);
}

TEST_F(FleetSoak, WorkerCountInvarianceAtScale) {
  struct Outcome {
    FleetReport report;
    std::string rollup;
    std::string ledger;
    std::map<int, std::string> post_mortems;
  };
  auto run_with = [](std::uint32_t workers, obs::Observer& observer) {
    FleetOptions options;
    options.active_nodes = 128;
    options.spare_nodes = 16;
    options.shards = 8;
    options.seed = 55;
    options.policy.initial_interval = 2 * options.window;
    options.policy.initial_mtbf = 10 * kSecond;
    options.guest_steps_min = 1;
    options.guest_steps_max = 3;
    options.array_bytes = 4 * 1024;
    options.workers = workers;
    options.observer = &observer;
    FleetManager fleet(options);
    FleetTortureOptions torture = soak_torture();
    torture.failure_models[0].mtbf = 60 * kSecond;
    torture.failure_models[1].mtbf = 60 * kSecond;
    fleet.arm_torture(torture);
    Outcome outcome;
    outcome.report = fleet.run(24);
    outcome.rollup = fleet.telemetry().rollup_json("node.commit_latency_ns");
    outcome.ledger = fleet.accountant().table();
    outcome.post_mortems = fleet.post_mortems();
    return outcome;
  };

  obs::Observer obs1;
  obs::Observer obs8;
  const Outcome o1 = run_with(1, obs1);
  const Outcome o8 = run_with(8, obs8);
  const FleetReport& r1 = o1.report;
  const FleetReport& r8 = o8.report;

  EXPECT_GT(r1.replacements, 0u);
  EXPECT_TRUE(r1 == r8);
  EXPECT_EQ(r1.digest(), r8.digest());
  EXPECT_EQ(obs1.metrics().snapshot_json(), obs8.metrics().snapshot_json());
  EXPECT_EQ(obs1.trace().export_chrome_json(), obs8.trace().export_chrome_json());

  // The fleet observability surfaces are part of the determinism contract
  // too: telemetry rollups, the overhead ledger, and every journal-recovered
  // post-mortem must render byte-identically for any worker count.
  EXPECT_GT(r1.flight_records_persisted, 0u);
  EXPECT_GT(r1.post_mortems, 0u);
  ASSERT_FALSE(o1.post_mortems.empty());
  EXPECT_EQ(o1.rollup, o8.rollup);
  EXPECT_EQ(o1.ledger, o8.ledger);
  EXPECT_EQ(o1.post_mortems, o8.post_mortems);
  // Dead slots got a black box recovered from the shard journal, not just
  // the in-memory fallback.
  bool journal_sourced = false;
  for (const auto& [slot, text] : o1.post_mortems) {
    EXPECT_NE(text.find("post-mortem slot " + std::to_string(slot)), std::string::npos);
    if (text.find("journal black box") != std::string::npos) journal_sourced = true;
  }
  EXPECT_TRUE(journal_sourced);
}

// Closed-loop acceptance: with the interval estimator fed purely from
// detector confirmations (measured MTBF) and measured commit cost, the
// fleet's adapted interval must converge to within 20% of the analytic
// Young optimum computed from injector ground truth — starting from a
// deliberately wrong (30x) MTBF prior.
TEST_F(FleetSoak, MeasuredMtbfIntervalConvergesOnAnalyticYoung) {
  FleetOptions options;
  options.active_nodes = 64;
  options.spare_nodes = 16;
  options.shards = 8;
  options.seed = 909;
  options.policy.initial_interval = 2 * options.window;
  options.policy.initial_mtbf = 3600 * kSecond;  // wrong prior: real fleet MTBF is ~1.5s
  options.policy.min_interval = 1;               // let Young's answer through unclamped
  options.policy.smoothing = 0.05;
  options.guest_steps_min = 1;
  options.guest_steps_max = 3;
  options.array_bytes = 4 * 1024;

  FleetManager fleet(options);
  fleet.run(3);  // warm-up: every slot commits, cost estimate seeds
  ASSERT_EQ(fleet.report().failures_injected, 0u);
  const SimTime torture_start = fleet.report().sim_elapsed;

  // Pure fail-stop process, no detector noise: ground truth and detector
  // confirmations describe the same failures.  repair_time refills the
  // spare pool so the failure process never starves.
  FleetTortureOptions torture;
  torture.failure_models.push_back(
      {FailureModel::Kind::kExponential, 120 * kSecond, 0.7, 3 * kSecond, 404});
  fleet.arm_torture(torture);
  const FleetReport report = fleet.run(600);
  SCOPED_TRACE(report.summary());

  ASSERT_TRUE(report.ok());
  ASSERT_GT(report.failures_injected, 40u);
  ASSERT_GT(report.confirmed_dead, 40u);

  // Analytic MTBF from injector ground truth over the torture phase.
  const SimTime analytic_mtbf =
      (report.sim_elapsed - torture_start) / report.failures_injected;
  const core::IntervalEstimator& estimator = fleet.estimator();
  EXPECT_GT(estimator.cost_estimate(), 0u);
  EXPECT_GT(estimator.failures_seen(), 0u);
  const SimTime analytic =
      core::young_interval(estimator.cost_estimate(), analytic_mtbf);
  const SimTime converged = estimator.interval();
  ASSERT_GT(analytic, 0u);

  // Within 20% — and decisively off the wrong prior, which would have put
  // the interval sqrt(3600s / ~1.5s) ~ 49x higher.
  const double ratio = static_cast<double>(converged) / static_cast<double>(analytic);
  EXPECT_GT(ratio, 0.8) << "converged=" << converged << " analytic=" << analytic;
  EXPECT_LT(ratio, 1.2) << "converged=" << converged << " analytic=" << analytic;
  const SimTime prior_interval =
      core::young_interval(estimator.cost_estimate(), options.policy.initial_mtbf);
  EXPECT_LT(converged * 4, prior_interval);

  // The overhead ledger's measured MTBF tracks the same ground truth (gap
  // collapsing across same-window confirmations biases it high, but it must
  // stay the right order of magnitude).
  const SimTime measured = fleet.accountant().measured_mtbf();
  EXPECT_GT(measured, analytic_mtbf / 2);
  EXPECT_LT(measured, analytic_mtbf * 3);
}

}  // namespace
}  // namespace ckpt::cluster
