// Coordinated restart after node failure: the degradation ladder.
//
// §4's argument is that restart success is decided by *placement*: a
// checkpoint on the failed node's local disk is unreachable exactly when it
// is needed.  The RecoveryManager runs jobs whose checkpoints fan out
// through a ReplicatedStore (home-node local disk + cluster remote
// storage) and, when the home node fail-stops, walks a fixed degradation
// ladder on a surviving node:
//
//   1. newest committed image, local replica   (fast path after e.g. reboot)
//   2. newest committed image, remote replica  (the survivable copy)
//   3. reconstruct_newest_surviving()          (an older sequence point —
//      trade lost work for availability)
//   4. cold start                              (all storage lost; restart
//      the application from scratch)
//
// Every recovery emits a structured RecoveryReport recording what was
// tried, what failed and how much work was lost.  The report's
// data_loss_with_intact_replica flag is the CI gate: it may never be set,
// because losing state while an intact replica of a committed image exists
// means the ladder — not the fault — destroyed the work.
//
// After a successful failover the manager retargets the job's local
// replica slot to the new home's disk and scrubs, re-replicating committed
// history onto it — the self-healing closed loop.
//
// This ladder restarts a *whole job*.  Message-passing jobs under
// sender-based logging instead recover through
// UncoordinatedMpi::recover_failed_node (uncoordinated.hpp), which reuses
// the same engines and stores but restarts only the failed ranks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "storage/chain.hpp"
#include "storage/replicated.hpp"

namespace ckpt::storage {
class LogStructuredBackend;
}

namespace ckpt::cluster {

enum class RecoveryStep : std::uint8_t {
  kLocalNewest,
  kRemoteNewest,
  kOlderSurviving,
  kColdStart,
};

const char* to_string(RecoveryStep step);

struct RecoveryAttempt {
  RecoveryStep step = RecoveryStep::kLocalNewest;
  bool ok = false;
  std::string detail;
};

struct RecoveryReport {
  std::uint64_t job = 0;
  int failed_node = -1;
  int target_node = -1;  ///< -1: no surviving node to restart on
  sim::Pid restored_pid = sim::kNoPid;
  bool recovered = false;    ///< the job is running again (any rung)
  bool from_image = false;   ///< rungs 1-3: checkpoint state survived
  bool cold_started = false; ///< rung 4: restarted from scratch
  std::uint64_t restored_sequence = 0;  ///< chain sequence restored (rungs 1-3)
  SimTime failed_at = 0;
  /// Simulated work discarded: failure time minus the restored state's
  /// capture time (everything since job launch for a cold start).
  SimTime work_lost = 0;
  /// THE gate: state was lost (cold start or no recovery) although some
  /// committed image still had an intact replica.  Always a bug.
  bool data_loss_with_intact_replica = false;
  std::vector<RecoveryAttempt> attempts;

  [[nodiscard]] std::string summary() const;
};

struct RecoveryManagerOptions {
  /// Quorum / retry / verification for each job's replicated store.
  storage::ReplicatedOptions store;
};

class RecoveryManager {
 public:
  using JobId = std::uint64_t;

  explicit RecoveryManager(Cluster& cluster, RecoveryManagerOptions options = {});

  /// Spawn `guest_type` on node `home` and manage it: checkpoints fan out
  /// to {home local disk, cluster remote storage}.
  JobId launch(int home, const std::string& guest_type, std::vector<std::byte> config,
               const sim::SpawnOptions& spawn = {});

  /// Storage a fleet-managed job checkpoints through: a *shared* per-shard
  /// ReplicatedStore (replica 0 = the shard's storage-home disk, replica 1
  /// = the shard remote) fronted by the shard's log-structured journal, so
  /// commits ride its group-commit append path and the caller's migrator
  /// publishes them home.  Both are required.  The manager owns neither;
  /// replica placement (retarget + scrub) and migration stay with the
  /// caller, because retargeting a shared store per job would fight between
  /// the jobs sharing it.
  struct ExternalStoreBinding {
    storage::ReplicatedStore* store = nullptr;
    storage::LogStructuredBackend* journal = nullptr;
  };

  /// Like launch(), but the job checkpoints through a caller-owned shared
  /// store/journal (see ExternalStoreBinding).  The degradation ladder and
  /// the data-loss gate still apply, scoped to this job's own chain.
  JobId adopt(int home, const std::string& guest_type, std::vector<std::byte> config,
              const sim::SpawnOptions& spawn, const ExternalStoreBinding& binding);

  /// Take a full checkpoint of the job through its replicated store.
  /// Returns false when the job's process is gone or the store refused.
  bool checkpoint(JobId job);

  /// Walk the degradation ladder for a job whose home node is down (or
  /// whose process died).  Appends to reports() and returns the report.
  /// `preferred_target` >= 0 restarts on that node when it is up (the
  /// fleet's freshly-allocated spare); otherwise the first up node is used.
  RecoveryReport recover(JobId job, int preferred_target = -1);

  /// Register a cluster failure observer that recovers every managed job
  /// homed on the failed node.
  void watch();

  /// Current pid (kNoPid for an unknown job; changes across recoveries).
  [[nodiscard]] sim::Pid pid_of(JobId job) const;
  /// Current home node (-1 for an unknown job; changes across recoveries).
  [[nodiscard]] int home_of(JobId job) const;
  /// Successful checkpoint() calls for the job (0 for an unknown job).
  [[nodiscard]] std::uint64_t checkpoints_taken(JobId job) const;
  /// The job's store / chain.  Pre: `job` was returned by launch()/adopt();
  /// throws std::invalid_argument otherwise.
  [[nodiscard]] storage::ReplicatedStore& store(JobId job);
  [[nodiscard]] storage::CheckpointChain& chain(JobId job);
  /// Every recover() outcome, oldest first (watch()-triggered included).
  [[nodiscard]] const std::vector<RecoveryReport>& reports() const { return reports_; }

  /// Replica slot layout of every job's store.
  static constexpr std::size_t kLocalReplica = 0;
  static constexpr std::size_t kRemoteReplica = 1;

 private:
  struct Job {
    sim::Pid pid = sim::kNoPid;
    int home = -1;
    std::string guest_type;
    std::vector<std::byte> config;
    sim::SpawnOptions spawn;
    std::unique_ptr<storage::ReplicatedStore> owned_store;  ///< launch() jobs only
    storage::ReplicatedStore* store = nullptr;  ///< owned_store or the shared store
    /// adopt() jobs only: shared store, caller-managed placement.
    storage::LogStructuredBackend* journal = nullptr;
    std::unique_ptr<storage::CheckpointChain> chain;
    std::uint64_t checkpoints = 0;
  };

  Job& job_ref(JobId job);
  [[nodiscard]] const Job* find_job(JobId job) const;
  /// Per-job data-loss-gate input for external jobs: does any image of
  /// *this job's chain* still have an intact copy (journal-resident or on a
  /// home-store replica)?
  [[nodiscard]] bool external_intact_committed(const Job& job) const;

  Cluster& cluster_;
  RecoveryManagerOptions options_;
  std::map<JobId, Job> jobs_;
  JobId next_job_ = 1;
  std::vector<RecoveryReport> reports_;
};

}  // namespace ckpt::cluster
