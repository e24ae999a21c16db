// Fleet-scale autonomic checkpointing: node-count sweep + torture gates.
//
// The survey's §4.1 scalability claim is that autonomic (node-initiated,
// staggered) checkpointing keeps per-window storage load flat as the fleet
// grows, where centralized batch initiation stampedes.  This bench sweeps
// FleetManager over node counts under an identical per-node policy and
// fault environment, and measures commit throughput, storage bandwidth,
// detection-to-recovered latency distributions and the data-loss gate.
//
// Gates, checked by the bench itself (non-zero exit on a miss; writes
// BENCH_fleet.json, path = argv[1]):
//   * data_loss_with_intact_replica == 0 and verify_failures == 0 across
//     the whole sweep,
//   * commit efficiency (ok/scheduled) >= 0.9 at the largest fleet,
//   * >= 4x commit scaling from 32 -> 512 active nodes,
//   * 1-vs-8-worker byte-identical fleet report digests (torture on).
//
// Deterministic (sim + seeded rng; no host timing).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "cluster/fleet.hpp"

using namespace ckpt;

namespace {

constexpr std::uint64_t kWindows = 32;

struct SweepPoint {
  int nodes = 0;
  cluster::FleetReport report;
  double commits_per_sim_s = 0;
  double mb_per_sim_s = 0;
  SimTime detect_p50 = 0;
  SimTime detect_p99 = 0;
  SimTime recover_p50 = 0;
  SimTime recover_p99 = 0;
};

SimTime percentile(std::vector<SimTime> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(values.size() - 1));
  return values[rank];
}

cluster::FleetOptions options_for(int nodes) {
  cluster::FleetOptions options;
  options.active_nodes = nodes;
  options.spare_nodes = std::max(4, nodes / 8);
  options.shards = std::max(4, nodes / 32);
  options.seed = 97;
  options.policy.initial_interval = 4 * options.window;
  options.policy.initial_mtbf = 10 * kSecond;
  options.guest_steps_min = 1;
  options.guest_steps_max = 3;
  options.array_bytes = 4 * 1024;
  return options;
}

cluster::FleetTortureOptions torture_for() {
  cluster::FleetTortureOptions torture;
  torture.failure_models.push_back(
      {cluster::FailureModel::Kind::kExponential, 600 * kSecond, 0.7, 0, 101});
  torture.failure_models.push_back(
      {cluster::FailureModel::Kind::kWeibull, 1800 * kSecond, 0.7, 0, 202});
  torture.heartbeat_drop_per_window = 0.0005;
  torture.heartbeat_drop_beats = 6;
  torture.storage_fault_per_window = 0.25;
  return torture;
}

SweepPoint run_point(int nodes) {
  cluster::FleetManager fleet(options_for(nodes));
  fleet.run(3);  // warm-up: every slot commits once before the faults
  fleet.arm_torture(torture_for());
  SweepPoint point;
  point.nodes = nodes;
  point.report = fleet.run(kWindows);
  const double sim_s = static_cast<double>(point.report.sim_elapsed) / 1e9;
  point.commits_per_sim_s = static_cast<double>(point.report.commits_ok) / sim_s;
  point.mb_per_sim_s =
      static_cast<double>(point.report.durable_bytes) / (1024.0 * 1024.0) / sim_s;
  point.detect_p50 = percentile(point.report.detect_latency, 0.50);
  point.detect_p99 = percentile(point.report.detect_latency, 0.99);
  point.recover_p50 = percentile(point.report.recover_latency, 0.50);
  point.recover_p99 = percentile(point.report.recover_latency, 0.99);
  return point;
}

/// 1-vs-8-worker identity under full torture at a mid-size fleet.
bool identical_1v8() {
  const auto digest_with = [](std::uint32_t workers) {
    cluster::FleetOptions options = options_for(64);
    options.workers = workers;
    cluster::FleetManager fleet(options);
    cluster::FleetTortureOptions torture = torture_for();
    torture.failure_models[0].mtbf = 120 * kSecond;
    fleet.arm_torture(torture);
    return fleet.run(24).digest();
  };
  return digest_with(1) == digest_with(8);
}

double ms(SimTime t) { return static_cast<double>(t) / 1e6; }

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_fleet.json";
  bench::print_header(
      "bench_fleet -- autonomic fleet checkpointing across node counts",
      "staggered per-node initiation keeps commit efficiency flat as the fleet "
      "grows 16x, detection/recovery latencies stay window-bounded, and no "
      "recoverable state is ever lost");

  std::vector<SweepPoint> sweep;
  for (const int nodes : {32, 128, 512}) sweep.push_back(run_point(nodes));
  const bool invariant = identical_1v8();

  util::TextTable table({"nodes", "commits", "commits/sim-s", "MB/sim-s", "peak/window",
                         "replaced", "detect p50/p99 (ms)", "recover p50/p99 (ms)",
                         "data loss"});
  for (const SweepPoint& point : sweep) {
    table.add_row(
        {std::to_string(point.nodes), std::to_string(point.report.commits_ok),
         util::format_double(point.commits_per_sim_s, 1),
         util::format_double(point.mb_per_sim_s, 1),
         std::to_string(point.report.max_commits_one_window),
         std::to_string(point.report.replacements),
         util::format_double(ms(point.detect_p50), 0) + "/" +
             util::format_double(ms(point.detect_p99), 0),
         util::format_double(ms(point.recover_p50), 0) + "/" +
             util::format_double(ms(point.recover_p99), 0),
         std::to_string(point.report.data_loss_with_intact_replica)});
  }
  bench::print_table(table);

  std::uint64_t data_loss = 0;
  std::uint64_t verify_failures = 0;
  for (const SweepPoint& point : sweep) {
    data_loss += point.report.data_loss_with_intact_replica;
    verify_failures += point.report.verify_failures;
  }
  const SweepPoint& small = sweep.front();
  const SweepPoint& large = sweep.back();
  const double efficiency =
      static_cast<double>(large.report.commits_ok) /
      static_cast<double>(std::max<std::uint64_t>(1, large.report.commits_scheduled));
  const double scaling = static_cast<double>(large.report.commits_ok) /
                         static_cast<double>(std::max<std::uint64_t>(1, small.report.commits_ok));

  bench::Report report("bench_fleet");
  std::vector<bench::Fields> rows;
  for (const SweepPoint& point : sweep) {
    rows.push_back(bench::Fields()
                       .put("nodes", point.nodes)
                       .put("commits_ok", point.report.commits_ok)
                       .put("commits_scheduled", point.report.commits_scheduled)
                       .put("commits_per_sim_s", point.commits_per_sim_s, 1)
                       .put("storage_mb_per_sim_s", point.mb_per_sim_s, 2)
                       .put("max_commits_one_window", point.report.max_commits_one_window)
                       .put("replacements", point.report.replacements)
                       .put("reseeds_from_image", point.report.reseeds_from_image)
                       .put("detect_p50_ms", ms(point.detect_p50), 1)
                       .put("detect_p99_ms", ms(point.detect_p99), 1)
                       .put("recover_p50_ms", ms(point.recover_p50), 1)
                       .put("recover_p99_ms", ms(point.recover_p99), 1)
                       .put("data_loss", point.report.data_loss_with_intact_replica));
  }
  report.put("windows", kWindows)
      .put("sweep", rows)
      .put("data_loss_with_intact_replica", data_loss)
      .put("verify_failures", verify_failures)
      .put("efficiency_at_512", efficiency, 4)
      .put("scaling_32_to_512", scaling, 4)
      .put("identical_1v8", invariant);
  report.gate("data_loss_with_intact_replica", static_cast<double>(data_loss), bench::Op::kEq, 0)
      .gate("verify_failures", static_cast<double>(verify_failures), bench::Op::kEq, 0)
      .gate("efficiency_at_512", efficiency, bench::Op::kGe, 0.9)
      .gate("scaling_32_to_512", scaling, bench::Op::kGe, 4.0)
      .gate("identical_1v8", invariant);
  return report.finish(json_path,
                       "autonomic initiation scales: staggered shards keep the "
                       "commit stream level while detection, replacement and "
                       "re-seeding absorb continuous failures without data loss");
}
