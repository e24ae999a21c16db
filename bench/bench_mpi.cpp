// Coordinated drain vs uncoordinated sender-logged checkpointing for MPI
// jobs, across a rank-count x message-rate sweep (DESIGN.md §14, M1).
//
// The survey's coordinated lineage (CoCheck/CLIP/LAM-MPI; claim C12) pays a
// global quiesce-and-drain whose latency grows with rank count and traffic
// before ANY image can be cut.  Sender-based message logging removes that
// barrier: each rank commits alone at a per-rank latency that does not grow
// with job size, and recovery restarts only the failed rank from its newest
// image plus the logged message suffix.  The price is the log itself —
// bandwidth at send time and resident bytes between checkpoints — which this
// bench reports alongside the latency win.
//
// Gates, checked by the bench itself (non-zero exit on a miss; writes
// BENCH_mpi.json, path = argv[1]):
//   * uncoordinated mean commit latency < the coordinated barrier
//     (quiesce-to-resume: drain + serialized images) at every sweep point
//     with >= 128 ranks, and flat in rank count (the barrier grows ~linearly
//     while the per-rank commit does not),
//   * zero lost messages (receiver sequence gaps) across every injected
//     crash point of the mpi_uncoordinated replay harness — including the
//     double-failure + journal-persisted-logs configuration,
//   * 1-vs-8-worker byte-identical crash-replay report digests,
//   * rollback depth 1 for single failures and journaled double failures;
//     the unbounded metadata-only domino is detected and refused.
//
// Deterministic (sim + seeded rng; no host timing).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "cluster/mpi.hpp"
#include "cluster/uncoordinated.hpp"
#include "core/systemlevel.hpp"
#include "inject/replay.hpp"
#include "storage/journal.hpp"

using namespace ckpt;

namespace {

constexpr int kNodes = 8;
constexpr SimTime kWarmup = 40 * kMillisecond;
constexpr SimTime kInterval = 20 * kMillisecond;

struct Engines {
  std::vector<std::unique_ptr<core::CheckpointEngine>> owned;
  std::vector<core::CheckpointEngine*> raw;
};

Engines make_engines(cluster::Cluster& cluster) {
  Engines engines;
  for (int i = 0; i < cluster.size(); ++i) {
    sim::SimKernel& kernel = cluster.node(i).kernel();
    sim::KernelModule& module = kernel.load_module("blcr");
    engines.owned.push_back(std::make_unique<core::KernelThreadEngine>(
        "blcr", &cluster.remote_storage(), core::EngineOptions{}, kernel,
        core::KernelThreadEngine::ThreadConfig{}, &module));
    engines.raw.push_back(engines.owned.back().get());
  }
  return engines;
}

cluster::MpiRankGuest::Config guest_config(std::uint64_t halo_bytes) {
  cluster::MpiRankGuest::Config config;
  config.array_bytes = 32 * 1024;
  config.halo_bytes = halo_bytes;
  return config;
}

struct SweepPoint {
  int nranks = 0;
  std::uint64_t halo_bytes = 0;
  // Coordinated arm.
  SimTime drain_time = 0;
  SimTime coordinated_total = 0;
  std::uint64_t messages_drained = 0;
  bool coordinated_ok = false;
  // Uncoordinated arm.
  SimTime commit_mean = 0;
  SimTime commit_max = 0;
  std::uint64_t commits = 0;
  std::uint64_t log_bytes_peak = 0;
  std::uint64_t messages_logged = 0;
  std::uint64_t messages_trimmed = 0;
};

SweepPoint run_point(int nranks, std::uint64_t halo_bytes) {
  SweepPoint point;
  point.nranks = nranks;
  point.halo_bytes = halo_bytes;

  {  // Coordinated: quiesce + drain + per-rank images, one global barrier.
    cluster::Cluster cluster(kNodes, cluster::NodeConfig{});
    cluster::MpiJob job(cluster, nranks, guest_config(halo_bytes));
    job.launch();
    cluster.run_until(kWarmup);
    Engines engines = make_engines(cluster);
    const auto result = job.coordinated_checkpoint(engines.raw);
    point.coordinated_ok = result.ok;
    point.drain_time = result.drain_time;
    point.coordinated_total = result.total_time;
    point.messages_drained = result.messages_drained;
  }

  {  // Uncoordinated: per-rank cadence, no barrier, sender-based logging.
    // The cadence scales with ranks-per-node: one engine serves each node's
    // ranks, so a fixed interval would oversubscribe checkpoint capacity at
    // the large points and starve the application — a deployment tunes the
    // interval to capacity, and so does the sweep.  Per-commit latency (the
    // gated metric) is interval-independent.
    const SimTime interval =
        kInterval * std::max<SimTime>(1, nranks / kNodes / 2);
    cluster::Cluster cluster(kNodes, cluster::NodeConfig{});
    cluster::MpiFabric::FabricOptions fabric;
    fabric.latency = cluster.node(0).kernel().costs().net_latency_ns;
    fabric.sender_logging = true;
    cluster::MpiJob job(cluster, nranks, guest_config(halo_bytes), fabric);
    job.launch();
    Engines engines = make_engines(cluster);
    cluster::UncoordinatedOptions options;
    options.policy.initial_interval = interval;
    options.policy.adapt_interval = false;
    options.epoch = 2 * kMillisecond;
    cluster::UncoordinatedMpi manager(cluster, job, engines.raw, options);
    manager.run_until(kWarmup + interval);
    point.commit_mean = manager.stats().mean_commit_latency();
    point.commit_max = manager.stats().commit_latency_max;
    point.commits = manager.stats().commits;
    point.log_bytes_peak = manager.stats().log_bytes_peak;
    point.messages_logged = job.fabric().log().total_recorded();
    point.messages_trimmed = manager.stats().messages_trimmed;
  }
  return point;
}

/// Rollback-depth scenarios: the domino story, measured.
struct DepthReport {
  std::uint32_t single_volatile = 0;  ///< 1 node dies, peers' volatile logs live
  std::uint32_t double_journal = 0;   ///< 2 nodes die, logs journal-restored
  std::uint32_t double_volatile = 0;  ///< 2 nodes die, their logs die too (planned)
  std::uint32_t double_volatile_width = 0;
  bool metadata_only_refused = false;  ///< no payloads: unbounded domino detected
  std::uint64_t lost_messages = 0;     ///< sequence gaps across the executed arms
};

DepthReport run_depth_scenarios() {
  DepthReport report;
  struct Scenario {
    cluster::Cluster cluster{4, cluster::NodeConfig{}};
    std::unique_ptr<cluster::MpiJob> job;
    Engines engines;
    std::unique_ptr<storage::LogStructuredBackend> journal;
    std::unique_ptr<cluster::UncoordinatedMpi> manager;

    Scenario(bool log_payloads, bool with_journal) {
      cluster::MpiFabric::FabricOptions fabric;
      fabric.latency = cluster.node(0).kernel().costs().net_latency_ns;
      fabric.sender_logging = true;
      fabric.log_payloads = log_payloads;
      job = std::make_unique<cluster::MpiJob>(cluster, 8, guest_config(512), fabric);
      job->launch();
      engines = make_engines(cluster);
      cluster::UncoordinatedOptions options;
      options.policy.initial_interval = kInterval;
      options.policy.adapt_interval = false;
      options.epoch = 2 * kMillisecond;
      if (with_journal) {
        journal = std::make_unique<storage::LogStructuredBackend>(
            &cluster.remote_storage());
        options.log_journal = journal.get();
      }
      manager = std::make_unique<cluster::UncoordinatedMpi>(cluster, *job,
                                                            engines.raw, options);
      manager->run_until(50 * kMillisecond);
    }
  };

  {  // Single node failure, volatile peer logs cover the suffix: depth 1.
    Scenario s(/*log_payloads=*/true, /*with_journal=*/false);
    s.cluster.fail_node(2);
    const auto result = s.manager->recover_failed_node(2, /*target=*/1);
    if (result.ok) report.single_volatile = result.line.depth;
    report.lost_messages += s.job->fabric().sequence_violations();
  }
  {  // Concurrent double failure with journal-persisted logs: still depth 1.
    Scenario s(/*log_payloads=*/true, /*with_journal=*/true);
    s.cluster.fail_node(1);
    s.cluster.fail_node(2);
    const auto result = s.manager->recover_failed_node(1, /*target=*/0);
    if (result.ok) report.double_journal = result.line.depth;
    report.lost_messages += s.job->fabric().sequence_violations();
  }
  {  // Same double failure, logs volatile: the cascade extends (planned
     // line only — measuring the domino, not executing it).
    Scenario s(/*log_payloads=*/true, /*with_journal=*/false);
    const cluster::RecoveryLine line =
        s.manager->plan_recovery({1, 2, 5, 6}, {1, 2, 5, 6});
    report.double_volatile = line.depth;
    report.double_volatile_width = line.width;
  }
  {  // Metadata-only logging: dependencies tracked, nothing replayable —
     // recovery must detect the unbounded domino and refuse.
    Scenario s(/*log_payloads=*/false, /*with_journal=*/false);
    s.cluster.fail_node(2);
    const auto result = s.manager->recover_failed_node(2, /*target=*/1);
    report.metadata_only_refused = !result.ok && !result.line.bounded;
  }
  return report;
}

double ms(SimTime t) { return static_cast<double>(t) / 1e6; }

}  // namespace

int main(int argc, char** argv) {
  sim::register_standard_guests();
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_mpi.json";
  bench::print_header(
      "bench_mpi -- coordinated drain vs uncoordinated sender-logged commit",
      "message logging removes the drain barrier: per-rank commit latency "
      "stays flat while the coordinated drain grows with rank count, and "
      "recovery restarts only the failed rank with zero lost messages");

  std::vector<SweepPoint> sweep;
  for (const int nranks : {16, 64, 128}) {
    for (const std::uint64_t halo : {std::uint64_t{512}, std::uint64_t{4096}}) {
      sweep.push_back(run_point(nranks, halo));
    }
  }

  util::TextTable table({"ranks", "halo", "drain", "coord total", "uncoord mean",
                         "uncoord max", "commits", "log peak", "logged", "trimmed"});
  bool all_ok = true;
  bool beats_at_128 = true;
  SimTime commit_mean_min = 0;
  SimTime commit_mean_max = 0;
  for (const SweepPoint& point : sweep) {
    all_ok = all_ok && point.coordinated_ok && point.commits > 0;
    if (point.nranks >= 128 && point.commit_mean >= point.coordinated_total) {
      beats_at_128 = false;
    }
    commit_mean_min = commit_mean_min == 0 ? point.commit_mean
                                           : std::min(commit_mean_min, point.commit_mean);
    commit_mean_max = std::max(commit_mean_max, point.commit_mean);
    table.add_row({std::to_string(point.nranks), util::format_bytes(point.halo_bytes),
                   util::format_time_ns(point.drain_time),
                   util::format_time_ns(point.coordinated_total),
                   util::format_time_ns(point.commit_mean),
                   util::format_time_ns(point.commit_max), std::to_string(point.commits),
                   util::format_bytes(point.log_bytes_peak),
                   std::to_string(point.messages_logged),
                   std::to_string(point.messages_trimmed)});
  }
  bench::print_table(table);

  // Crash-point replay: every injected failure recovers with zero sequence
  // gaps, and the report is byte-identical for any worker-pool width.
  inject::MpiReplayOptions replay_options;
  replay_options.crash_points = 6;
  replay_options.workers = 1;
  const inject::MpiReplayReport serial = inject::MpiCrashReplay(replay_options).run();
  replay_options.workers = 8;
  const inject::MpiReplayReport wide = inject::MpiCrashReplay(replay_options).run();
  const bool identical_1v8 = serial == wide;

  inject::MpiReplayOptions double_options;
  double_options.crash_points = 4;
  double_options.double_failure = true;
  double_options.journal_logs = true;
  const inject::MpiReplayReport doubled = inject::MpiCrashReplay(double_options).run();

  const DepthReport depth = run_depth_scenarios();
  const std::uint64_t lost = serial.lost_messages + wide.lost_messages +
                             doubled.lost_messages + depth.lost_messages;

  std::printf("crash replay: %s\n", serial.summary().c_str());
  std::printf("double failure + journal: %s\n", doubled.summary().c_str());
  std::printf(
      "rollback depth: single/volatile=%u double/journal=%u double/volatile=%u "
      "(width %u) metadata-only refused=%s\n",
      depth.single_volatile, depth.double_journal, depth.double_volatile,
      depth.double_volatile_width, depth.metadata_only_refused ? "yes" : "NO");

  // The per-rank commit must not grow with job size the way the barrier
  // does: allow 50% spread across the whole sweep.
  const bool commit_flat = commit_mean_max * 2 <= commit_mean_min * 3;
  std::printf("uncoordinated commit mean across sweep: %.3f..%.3f ms (flat: %s)\n",
              ms(commit_mean_min), ms(commit_mean_max), commit_flat ? "yes" : "NO");

  bench::Report report("bench_mpi");
  std::vector<bench::Fields> rows;
  for (const SweepPoint& point : sweep) {
    rows.push_back(bench::Fields()
                       .put("nranks", point.nranks)
                       .put("halo_bytes", point.halo_bytes)
                       .put("drain_ms", ms(point.drain_time), 3)
                       .put("coordinated_total_ms", ms(point.coordinated_total), 3)
                       .put("uncoordinated_commit_mean_ms", ms(point.commit_mean), 3)
                       .put("uncoordinated_commit_max_ms", ms(point.commit_max), 3)
                       .put("commits", point.commits)
                       .put("log_bytes_peak", point.log_bytes_peak)
                       .put("messages_logged", point.messages_logged)
                       .put("messages_trimmed", point.messages_trimmed));
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(serial.outcome_digest));
  report.put("sweep", rows)
      .put("uncoordinated_beats_coordinated_at_128", beats_at_128)
      .put("commit_latency_flat", commit_flat)
      .put("lost_messages", lost)
      .put("duplicates_dropped", serial.duplicates_dropped + doubled.duplicates_dropped)
      .put("replayed_messages", serial.replayed_messages)
      .put("identical_1v8", identical_1v8)
      .put("outcome_digest", digest)
      .put("rollback_depth_single_volatile", depth.single_volatile)
      .put("rollback_depth_double_journal", depth.double_journal)
      .put("rollback_depth_double_volatile", depth.double_volatile)
      .put("metadata_only_refused", depth.metadata_only_refused);
  report.gate("coordinated_runs_ok", all_ok)
      .gate("uncoordinated_beats_coordinated_at_128", beats_at_128)
      .gate("commit_latency_flat", commit_flat)
      .gate("crash_replay_ok", serial.ok())
      .gate("double_failure_replay_ok", doubled.ok())
      .gate("identical_1v8", identical_1v8)
      .gate("lost_messages", static_cast<double>(lost), bench::Op::kEq, 0)
      .gate("rollback_depth_single_volatile", depth.single_volatile, bench::Op::kEq, 1)
      .gate("rollback_depth_double_journal", depth.double_journal, bench::Op::kEq, 1)
      .gate("metadata_only_refused", depth.metadata_only_refused);
  return report.finish(json_path,
                       "sender-based logging converts the growing drain barrier into "
                       "a flat per-rank commit, keeps every crash point lossless and "
                       "worker-count invariant, and bounds rollback at depth 1 "
                       "whenever a covering log survives");
}
