// Uncoordinated per-rank checkpointing with sender-based message logging.
//
// The counterpoint to MpiJob::coordinated_checkpoint: no global quiesce, no
// drain.  Each rank checkpoints on its OWN cadence (a per-rank
// core::IntervalEstimator, seed-staggered so commits spread over the
// interval instead of thundering together), stopping only itself for the
// capture.  Consistency across ranks is recovered, not enforced: the fabric
// logs every message at the sender (cluster/msglog), and on failure a
// RollbackResolver computes the recovery line — in the common case the
// newest image of ONLY the failed rank, with the logged message suffix
// replayed into it (CRAFT's restart-only-the-failed-participant mode, which
// the fleet layer's NodeReplacer serves with a spare node).
//
// Domino cascades (possible when sender logs are lost with their rank, or
// when logging is metadata-only) are detected and bounded: the resolver
// reports consecutive-rollback depth, the manager publishes it through
// obs metrics and refuses to execute an *unbounded* line — never silent.
// DESIGN.md §14 derives the protocol; bench_mpi measures it against the
// coordinated drain.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/mpi.hpp"
#include "cluster/msglog.hpp"
#include "core/autonomic.hpp"
#include "obs/observer.hpp"
#include "storage/journal.hpp"

namespace ckpt::cluster {

struct UncoordinatedOptions {
  /// Per-rank interval policy (each rank gets its own IntervalEstimator).
  core::AutonomicPolicy policy;
  /// Cluster stepping granularity inside run_until.
  SimTime epoch = 10 * kMillisecond;
  /// When set, each rank's sender log is persisted here (flight-record
  /// path, newest-per-key) at every checkpoint — surviving the rank's
  /// death and keeping even concurrent-node failures at rollback depth 1.
  storage::LogStructuredBackend* log_journal = nullptr;
  /// Spans + metrics sink (null = silent, zero overhead).
  obs::Observer* observer = nullptr;
};

/// Drives one MpiJob's uncoordinated checkpoint/restart lifecycle.
///
/// Pre (ctor): `engines_by_node[n]` is the engine for node n, storing to
/// storage that survives node n's death (the remote/replicated store);
/// job.launch() already ran; the fabric was created with sender_logging on
/// (without it, recover_failed_node degenerates to pure rollback and will
/// report the resulting domino depth).
class UncoordinatedMpi {
 public:
  UncoordinatedMpi(Cluster& cluster, MpiJob& job,
                   std::vector<core::CheckpointEngine*> engines_by_node,
                   UncoordinatedOptions options = {});

  /// Step the cluster to `deadline`, checkpointing each rank as its own
  /// interval elapses.  No global synchronization: one rank's commit stops
  /// only that rank.  Post: stats().commits grew by the number of due
  /// checkpoints; failures inside a rank checkpoint are counted
  /// (stats().failed_commits) and retried next interval, never fatal.
  void run_until(SimTime deadline);

  /// Checkpoint one rank now: stop it, sample its channel cut, capture its
  /// image through its node's engine, optionally persist its sender log,
  /// resume it.  Other ranks keep running throughout.
  ///
  /// Pre: the rank's node is up and its process alive (else returns false).
  /// Post (true): cuts()[rank] gained one entry whose image/channel
  /// frontier are mutually consistent (sampled while the rank was frozen).
  bool checkpoint_rank(int rank);

  struct RecoverResult {
    bool ok = false;
    std::string error;
    RecoveryLine line;
    std::uint64_t replayed_messages = 0;
    std::uint64_t replayed_bytes = 0;
    std::uint64_t journal_restored_logs = 0;
    SimTime recovery_time = 0;
  };

  /// Recover from `failed_node`'s death: restore what sender logs survive
  /// (journal or live peers), resolve the recovery line, roll back exactly
  /// the ranks on it (dead ranks restart on `target_node`; cascade victims
  /// are killed and restarted in place), rewind their fabric state, and
  /// replay logged suffixes.  Every rank on ANY down node joins the line —
  /// a concurrent second node failure is recovered in the same call
  /// (`failed_node` names the triggering failure for reporting).
  ///
  /// Pre: failed_node is down, target_node is up.  Failure modes, all
  /// reported via RecoverResult.error and obs, never silent: an UNBOUNDED
  /// domino line (some rank would roll past its first checkpoint while
  /// holding checkpoints — refused, job must cold-start), a missing/corrupt
  /// image on the line, or a dead target.  Post (ok): every rank on the
  /// line runs again with placements rebound, rolled-back cut history
  /// truncated, and line.depth/width published (mpi.rollback_depth).
  RecoverResult recover_failed_node(int failed_node, int target_node);

  /// Side-effect-free what-if: the recovery line that WOULD be used if
  /// `failed_ranks` died and `dead_logs`' sender logs were unavailable.
  /// bench_mpi uses this to measure domino depth without executing it.
  [[nodiscard]] RecoveryLine plan_recovery(const std::vector<int>& failed_ranks,
                                           const std::set<int>& dead_logs) const;

  struct Stats {
    std::uint64_t commits = 0;
    std::uint64_t failed_commits = 0;
    SimTime commit_latency_total = 0;
    SimTime commit_latency_max = 0;
    std::uint64_t log_bytes_peak = 0;
    std::uint64_t messages_trimmed = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t replayed_messages = 0;
    std::uint64_t ranks_rolled_back = 0;
    std::uint32_t max_rollback_depth = 0;

    [[nodiscard]] SimTime mean_commit_latency() const {
      return commits == 0 ? 0 : commit_latency_total / static_cast<SimTime>(commits);
    }
  };

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const std::map<int, std::vector<CheckpointCut>>& cuts() const {
    return cuts_;
  }

 private:
  [[nodiscard]] MpiFabric& fabric() const { return job_.fabric(); }
  void persist_sender_log(int rank, sim::SimKernel& kernel);

  Cluster& cluster_;
  MpiJob& job_;
  std::vector<core::CheckpointEngine*> engines_;
  UncoordinatedOptions options_;
  std::vector<core::IntervalEstimator> estimators_;  ///< one per rank
  std::vector<SimTime> next_due_;                    ///< per rank
  std::map<int, std::vector<CheckpointCut>> cuts_;   ///< oldest first
  Stats stats_;
};

}  // namespace ckpt::cluster
