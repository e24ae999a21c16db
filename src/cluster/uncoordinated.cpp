#include "cluster/uncoordinated.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace ckpt::cluster {
namespace {

/// Flight-record key for rank r's sender log is kJournalKeyBase + r; the
/// base keeps these keys disjoint from other flight-record users.
constexpr std::uint64_t kJournalKeyBase = 0x4D4C4F47'00000000ULL;  // "MLOG"

}  // namespace

UncoordinatedMpi::UncoordinatedMpi(Cluster& cluster, MpiJob& job,
                                   std::vector<core::CheckpointEngine*> engines_by_node,
                                   UncoordinatedOptions options)
    : cluster_(cluster),
      job_(job),
      engines_(std::move(engines_by_node)),
      options_(options) {
  const int nranks = fabric().nranks();
  estimators_.reserve(static_cast<std::size_t>(nranks));
  next_due_.reserve(static_cast<std::size_t>(nranks));
  const SimTime interval = options_.policy.initial_interval;
  for (int r = 0; r < nranks; ++r) {
    estimators_.emplace_back(options_.policy);
    // Stagger: rank r's first commit lands at interval*(r+1)/nranks, so
    // per-epoch commit load is flat instead of a thundering herd — the
    // same discipline as the fleet scheduler's seed-staggered shards.
    next_due_.push_back(cluster_.now() + (interval * static_cast<SimTime>(r + 1)) /
                                             static_cast<SimTime>(nranks));
  }
}

void UncoordinatedMpi::run_until(SimTime deadline) {
  while (cluster_.now() < deadline) {
    const SimTime target = std::min(deadline, cluster_.now() + options_.epoch);
    cluster_.run_until(target, options_.epoch);
    const SimTime now = cluster_.now();
    for (int r = 0; r < fabric().nranks(); ++r) {
      auto idx = static_cast<std::size_t>(r);
      if (now < next_due_[idx]) continue;
      if (checkpoint_rank(r)) {
        estimators_[idx].update();
      } else {
        ++stats_.failed_commits;
      }
      next_due_[idx] = cluster_.now() + estimators_[idx].interval();
    }
  }
}

bool UncoordinatedMpi::checkpoint_rank(int rank) {
  const MpiJob::Placement placement =
      job_.placements().at(static_cast<std::size_t>(rank));
  if (placement.node < 0) return false;
  Node& node = cluster_.node(placement.node);
  if (!node.up()) return false;
  sim::SimKernel& kernel = node.kernel();
  sim::Process* proc = kernel.find_process(placement.pid);
  if (proc == nullptr || !proc->alive()) return false;

  obs::SpanGuard span(obs::tracer(options_.observer), "mpi.uncoordinated_ckpt",
                      "cluster", obs::kControlTrack,
                      {obs::TraceArg::num("rank", static_cast<std::uint64_t>(rank))});

  // Freeze the rank so its image and its channel cut are one consistent
  // snapshot; every other rank keeps computing — this is the whole point.
  kernel.stop_process(*proc);
  const ChannelCut channels = fabric().channel_cut(rank);

  core::CheckpointEngine* engine = engines_.at(static_cast<std::size_t>(placement.node));
  engine->attach(kernel, placement.pid);
  const core::CheckpointResult ckpt = engine->request_checkpoint(kernel, placement.pid);
  if (sim::Process* still = kernel.find_process(placement.pid)) {
    kernel.resume_process(*still);
  }
  if (!ckpt.ok) {
    span.end({obs::TraceArg::str("error", ckpt.error)});
    return false;
  }

  const storage::CheckpointChain* chain = engine->chain_of(placement.pid);
  if (chain == nullptr) return false;  // engine reported ok but kept no chain
  CheckpointCut cut;
  cut.sequence = chain->newest_sequence();
  cut.taken_at = cluster_.now();
  cut.node = placement.node;
  cut.pid = placement.pid;
  cut.channels = channels;
  cuts_[rank].push_back(cut);

  // Entries this checkpoint made unnecessary go: the log holds roughly one
  // interval of traffic.
  stats_.messages_trimmed += fabric().log().trim_delivered(rank, channels.delivered);
  if (options_.log_journal != nullptr && fabric().sender_logging()) {
    persist_sender_log(rank, kernel);
  }

  ++stats_.commits;
  stats_.commit_latency_total += ckpt.total_latency();
  stats_.commit_latency_max = std::max(stats_.commit_latency_max, ckpt.total_latency());
  stats_.log_bytes_peak = std::max(stats_.log_bytes_peak, fabric().log().resident_bytes());
  estimators_[static_cast<std::size_t>(rank)].observe_cost(ckpt.total_latency());

  if (options_.observer != nullptr) {
    auto& metrics = options_.observer->metrics();
    metrics.add("mpi.commits");
    metrics.observe("mpi.commit_ns", static_cast<std::uint64_t>(ckpt.total_latency()),
                    obs::MetricsRegistry::latency_bounds());
    metrics.set_gauge("mpi.log_bytes",
                      static_cast<std::int64_t>(fabric().log().resident_bytes()));
  }
  span.end({obs::TraceArg::num("sequence", cut.sequence),
            obs::TraceArg::num("latency_ns", static_cast<std::uint64_t>(ckpt.total_latency()))});
  return true;
}

void UncoordinatedMpi::persist_sender_log(int rank, sim::SimKernel& kernel) {
  const std::vector<std::byte> blob = fabric().log().encode_sender(rank);
  const bool ok = options_.log_journal->append_flight_record(
      kJournalKeyBase + static_cast<std::uint64_t>(rank), blob,
      [&](SimTime t) { kernel.charge_time(t); });
  if (!ok) {
    util::logf(util::LogLevel::kWarn, "mpi",
               "rank %d sender-log persist failed (journal full/crashed)", rank);
  }
}

RecoveryLine UncoordinatedMpi::plan_recovery(const std::vector<int>& failed_ranks,
                                             const std::set<int>& dead_logs) const {
  RollbackResolver resolver(fabric().log(), cuts_, fabric().current_sent());
  return resolver.resolve(failed_ranks, dead_logs);
}

UncoordinatedMpi::RecoverResult UncoordinatedMpi::recover_failed_node(int failed_node,
                                                                      int target_node) {
  RecoverResult result;
  const SimTime started = cluster_.now();
  obs::SpanGuard span(obs::tracer(options_.observer), "mpi.recover", "cluster",
                      obs::kControlTrack,
                      {obs::TraceArg::num("failed_node",
                                          static_cast<std::uint64_t>(failed_node))});
  Node& target = cluster_.node(target_node);
  if (!target.up()) {
    result.error = "recovery target node is down";
    span.end({obs::TraceArg::str("error", result.error)});
    return result;
  }

  // Which ranks died?  Every rank on ANY down node (a second node failing
  // concurrently is recovered in the same line — its logs are just as dead).
  std::vector<int> failed_ranks;
  for (int r = 0; r < fabric().nranks(); ++r) {
    const int home = job_.placements()[static_cast<std::size_t>(r)].node;
    if (home < 0 || !cluster_.node(home).up()) failed_ranks.push_back(r);
  }
  if (failed_ranks.empty()) {
    result.error = "no ranks were placed on a down node";
    span.end({obs::TraceArg::str("error", result.error)});
    return result;
  }

  // The failed ranks' volatile sender logs died with them; restore from the
  // journal where configured, otherwise mark them dead for the resolver.
  std::set<int> dead_logs;
  for (int r : failed_ranks) {
    fabric().log().drop_sender(r);
    bool restored = false;
    if (options_.log_journal != nullptr) {
      const auto blob = options_.log_journal->flight_record_of(
          kJournalKeyBase + static_cast<std::uint64_t>(r));
      if (blob.has_value()) {
        try {
          fabric().log().restore_sender(r, *blob);
          restored = true;
          ++result.journal_restored_logs;
        } catch (const util::SerializeError& err) {
          util::logf(util::LogLevel::kWarn, "mpi",
                     "rank %d journal log corrupt (%s); treating as lost", r,
                     err.what());
        }
      }
    }
    if (!restored) dead_logs.insert(r);
  }

  result.line = plan_recovery(failed_ranks, dead_logs);
  stats_.max_rollback_depth = std::max(stats_.max_rollback_depth, result.line.depth);
  util::logf(util::LogLevel::kInfo, "mpi", "node %d failed: %s", failed_node,
             result.line.describe().c_str());
  if (options_.observer != nullptr) {
    auto& metrics = options_.observer->metrics();
    metrics.observe("mpi.rollback_depth", result.line.depth,
                    obs::MetricsRegistry::size_bounds());
    metrics.observe("mpi.rollback_width", result.line.width,
                    obs::MetricsRegistry::size_bounds());
  }
  if (!result.line.bounded) {
    // The cascade escaped every checkpoint some rank holds.  Refuse: the
    // caller must cold-start the job (or re-run with journal-persisted
    // logs).  Reported loudly — an unbounded domino is the protocol's
    // failure mode, not a crash.
    result.error = "unbounded domino cascade: " + result.line.describe();
    span.end({obs::TraceArg::str("error", result.error)});
    return result;
  }

  // Execute the line: roll each rank on it back to its cut.
  for (const auto& [rank, cut_index] : result.line.restart_cut) {
    const MpiJob::Placement placement =
        job_.placements()[static_cast<std::size_t>(rank)];
    const bool rank_died = placement.node < 0 || !cluster_.node(placement.node).up();
    const int home = rank_died ? target_node : placement.node;
    sim::SimKernel& home_kernel = cluster_.node(home).kernel();

    if (!rank_died) {
      // Cascade victim on a live node: kill the running process before
      // restarting it from its cut (its present state is being discarded).
      sim::Process* proc = cluster_.node(placement.node).kernel().find_process(
          placement.pid);
      if (proc != nullptr && proc->alive()) {
        cluster_.node(placement.node).kernel().terminate(*proc, 0);
      }
    }

    if (cut_index == RecoveryLine::kToStart) {
      // Never-checkpointed rank: cold-start it fresh; replay (below) will
      // re-feed everything its peers' logs still hold.
      job_.respawn_rank(rank, home);
      fabric().rewind_for_restart(rank, ChannelCut{});
      cuts_[rank].clear();
      ++stats_.ranks_rolled_back;
      continue;
    }

    const CheckpointCut& cut =
        cuts_.at(rank).at(static_cast<std::size_t>(cut_index));
    core::CheckpointEngine* engine = engines_.at(static_cast<std::size_t>(cut.node));
    const storage::CheckpointChain* chain = engine->chain_of(cut.pid);
    std::optional<storage::CheckpointImage> image;
    if (chain != nullptr) {
      image = chain->reconstruct_at(cut.sequence,
                                    [&](SimTime t) { home_kernel.charge_time(t); });
    }
    if (!image.has_value()) {
      result.error = "rank " + std::to_string(rank) + " image at sequence " +
                     std::to_string(cut.sequence) + " did not reconstruct";
      span.end({obs::TraceArg::str("error", result.error)});
      return result;
    }
    const core::RestartResult restarted = core::restart_from_image(home_kernel, *image);
    if (!restarted.ok) {
      result.error = "rank " + std::to_string(rank) + " restart failed: " +
                     restarted.error;
      span.end({obs::TraceArg::str("error", result.error)});
      return result;
    }
    job_.rehome_rank(rank, home, restarted.pid);
    fabric().rewind_for_restart(rank, cut.channels);
    // Cuts newer than the restart point describe a rolled-back future;
    // they must never anchor a later recovery line.
    cuts_.at(rank).resize(static_cast<std::size_t>(cut_index) + 1);
    ++stats_.ranks_rolled_back;
  }

  // Replay logged suffixes into every rolled-back rank.  The receive side
  // pays normal delivery; the replay injection itself is charged as a
  // memory copy out of the log on the rank's new home.
  for (const auto& [rank, cut_index] : result.line.restart_cut) {
    const ChannelCut channels =
        cut_index == RecoveryLine::kToStart
            ? ChannelCut{}
            : cuts_.at(rank).at(static_cast<std::size_t>(cut_index)).channels;
    const int home = job_.placements()[static_cast<std::size_t>(rank)].node;
    const MpiFabric::ReplayStats replay =
        fabric().replay_into(rank, channels, cluster_.now());
    if (replay.bytes > 0) {
      // Copying the suffix back out of the log is the replay injection cost;
      // redelivery itself then pays normal fabric latency.
      cluster_.node(home).kernel().charge_time(
          sim::CostModel{}.mem_copy_cost(replay.bytes));
    }
    result.replayed_messages += replay.messages;
    result.replayed_bytes += replay.bytes;
  }

  ++stats_.recoveries;
  stats_.replayed_messages += result.replayed_messages;
  result.recovery_time = cluster_.now() - started;
  result.ok = true;
  if (options_.observer != nullptr) {
    auto& metrics = options_.observer->metrics();
    metrics.add("mpi.recoveries");
    metrics.add("mpi.replayed_messages", result.replayed_messages);
    metrics.observe("mpi.replay_bytes", result.replayed_bytes,
                    obs::MetricsRegistry::size_bounds());
  }
  span.end({obs::TraceArg::num("depth", result.line.depth),
            obs::TraceArg::num("width", result.line.width),
            obs::TraceArg::num("replayed", result.replayed_messages)});
  return result;
}

}  // namespace ckpt::cluster
