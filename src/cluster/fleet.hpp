// Fleet-scale autonomic checkpointing with failure detection and
// CRAFT-style automatic node replacement.
//
// The survey's central scalability argument (§4.1) is that *autonomic*,
// per-node-initiated checkpointing scales where centralized batch
// initiation collapses.  FleetManager makes that claim load-bearing: it
// runs hundreds-to-thousands of simulated nodes — each an independent
// SimKernel with its own guest and checkpoint chain — under one autonomic
// policy (a fleet-wide core::IntervalEstimator), and keeps the fleet
// correct and live under *continuous* stochastic failures instead of
// restarting once after one.
//
// The pieces:
//
//   * FailureDetector — fail-stop is *detected*, not announced by fiat.
//     Every up node heartbeats once per scheduling window; a node that
//     misses kSuspectAfterMissed consecutive beats is suspected, and at
//     kConfirmAfterMissed it is confirmed dead.  The underlying
//     FailureInjector still decides ground truth; the detector only ever
//     sees (possibly injector-suppressed) heartbeats.
//
//   * NodeReplacer — the CRAFT spare pool.  On confirmed death the lowest
//     up spare is allocated, a still-up-but-confirmed node is *fenced*
//     (fail-stopped — a false suspicion costs work, never a split brain),
//     the dead node's slot is re-seeded from the newest recoverable image
//     via the RecoveryManager ladder targeted at the spare, and — when the
//     dead node was a shard's storage home — the shard store's local
//     replica is retargeted to the spare's disk and scrubbed back to full
//     width.  Repaired nodes rejoin the pool.
//
//   * Sharded, staggered scheduling — slots are partitioned into shards;
//     the commit interval (in windows) is divided into per-shard slices
//     and each slot commits at a seed-deterministic offset inside its
//     shard's slice, so the stores see a level commit stream instead of a
//     stampede.  Each shard owns a ReplicatedStore (storage-home disk +
//     shard remote) fronted by a log-structured journal whose
//     begin_group()/end_group() amortizes one sync across the shard's
//     due slots per window.
//
// Determinism contract: guest windows run in parallel over the fleet's
// own pool when FleetOptions::workers > 1 (per-node kernels share nothing
// and carry no observer), every random draw happens on the main thread
// before the parallel section, and all commits / detection / replacement /
// metrics run serially between windows, the shard stores on the caller's
// thread — so reports, metrics and traces are byte-identical for any pool
// width.  Tick-level time: the fleet advances in fixed windows;
// node kernels may individually run past a window boundary (commit
// charges), which only ever feeds back through their own future windows.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/failure.hpp"
#include "cluster/node.hpp"
#include "cluster/recovery.hpp"
#include "core/autonomic.hpp"
#include "inject/injectors.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/overhead.hpp"
#include "obs/rollup.hpp"
#include "storage/journal.hpp"
#include "storage/replicated.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace ckpt::cluster {

/// Heartbeat-based failure detector.  Knows nothing about ground truth:
/// state is a pure function of the beats it was (not) shown.
class FailureDetector {
 public:
  enum class NodeState : std::uint8_t { kAlive, kSuspected, kConfirmedDead };

  /// Consecutive missed beats before a node is suspected.
  static constexpr std::uint32_t kSuspectAfterMissed = 2;
  /// Consecutive missed beats before a node is confirmed dead.
  static constexpr std::uint32_t kConfirmAfterMissed = 4;

  /// Pre: nodes >= 0; node ids passed below must be in [0, nodes);
  /// heartbeat_interval (the expected beat cadence) > 0.
  FailureDetector(int nodes, SimTime heartbeat_interval);

  /// A beat arrived; an alive-or-suspected node returns to kAlive.  A
  /// confirmed-dead node stays dead until reset() — confirmation is a
  /// one-way door, matching the fencing discipline.
  void observe_heartbeat(int node, SimTime at);
  /// Advance suspicion state to `now`; newly-confirmed nodes queue for
  /// take_confirmed().
  void tick(SimTime now);
  /// Drain nodes confirmed dead since the last call (ascending id).
  [[nodiscard]] std::vector<int> take_confirmed();
  /// Re-admit a node (repaired, or a spare entering service).
  void reset(int node, SimTime now);

  [[nodiscard]] NodeState state(int node) const;
  [[nodiscard]] std::uint64_t suspicions() const { return suspicions_; }
  [[nodiscard]] std::uint64_t confirmations() const { return confirmations_; }

 private:
  struct Tracked {
    SimTime last_beat = 0;
    NodeState state = NodeState::kAlive;
  };

  SimTime heartbeat_interval_;
  std::vector<Tracked> nodes_;
  std::vector<int> confirmed_queue_;
  std::uint64_t suspicions_ = 0;
  std::uint64_t confirmations_ = 0;
};

/// CRAFT-style spare pool: lowest-id-first allocation (deterministic),
/// repaired nodes rejoin, dead spares drop out.
class NodeReplacer {
 public:
  explicit NodeReplacer(std::vector<int> spares);

  /// Lowest up spare, removed from the pool; nullopt when none is up.
  std::optional<int> allocate(Cluster& cluster);
  void release(int node);  ///< a repaired / surplus node rejoins the pool
  void remove(int node);   ///< a pooled spare died: drop it

  [[nodiscard]] std::size_t available(Cluster& cluster) const;  ///< up spares
  [[nodiscard]] const std::set<int>& pool() const { return pool_; }

 private:
  std::set<int> pool_;
};

struct FleetOptions {
  /// Active compute nodes; each hosts exactly one guest slot.
  int active_nodes = 64;
  /// Spare nodes (ids follow the active range) forming the replacement pool.
  int spare_nodes = 8;
  /// Storage shards; shard s's storage home starts as node s.
  int shards = 8;
  std::uint64_t seed = 1;
  /// Scheduling window: heartbeat cadence, detector tick, commit slot.
  static constexpr SimTime window = 250 * kMillisecond;
  /// The one autonomic policy the whole fleet runs under (fleet-wide
  /// IntervalEstimator; interval is quantized to whole windows).
  core::AutonomicPolicy policy;
  /// Guest work per window: steps drawn uniformly in [min, max] per slot.
  std::uint64_t guest_steps_min = 2;
  std::uint64_t guest_steps_max = 6;
  /// Dense-writer guest array size (the checkpointed state).
  std::uint64_t array_bytes = 16 * 1024;
  /// Worker-pool width for the guest phase only (0 or 1 = the caller's
  /// thread).  Shard commits always run on the caller: a fleet image is
  /// tens of pages, too small for a fan-out to pay.
  std::uint32_t workers = 0;
  /// Observability sink (null = disabled): fleet.* metrics and spans, plus
  /// checkpoint/recovery spans from the RecoveryManager.  The trace clock
  /// is bound to cluster time.
  obs::Observer* observer = nullptr;
};

/// Concurrent-fault soak configuration (arm_torture()).
struct FleetTortureOptions {
  /// Stochastic fail-stop processes; every model is armed over the whole
  /// fleet (spares included), so e.g. one exponential + one Weibull model
  /// yields their superposition.  repair_time = 0 drains the spare pool.
  std::vector<FailureModel> failure_models;
  /// Per-node per-window probability of a heartbeat-suppression burst.
  double heartbeat_drop_per_window = 0.0;
  /// Burst length in beats (>= FailureDetector::kConfirmAfterMissed forces a
  /// false confirm).
  std::uint32_t heartbeat_drop_beats = 0;
  /// Per-window probability of one storage fault (random shard, random
  /// replica; rotates reject / corrupt-newest / one-window outage).
  double storage_fault_per_window = 0.0;
};

struct FleetReport {
  std::uint64_t windows = 0;
  std::uint64_t commits_scheduled = 0;  ///< due & live commit attempts
  std::uint64_t commits_ok = 0;
  std::uint64_t commits_failed = 0;
  std::uint64_t group_commits = 0;      ///< per-shard journal groups synced
  std::uint64_t max_commits_one_window = 0;  ///< stampede ceiling actually seen
  std::uint64_t heartbeats = 0;
  std::uint64_t heartbeats_suppressed = 0;
  std::uint64_t failures_injected = 0;  ///< ground truth (incl. fencings)
  std::uint64_t confirmed_dead = 0;     ///< detector confirmations acted on
  std::uint64_t false_confirms = 0;     ///< confirmed while actually up (fenced)
  std::uint64_t replacements = 0;       ///< slots re-seeded onto a spare
  std::uint64_t reseeds_from_image = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t local_restarts = 0;     ///< process gone but node up (fast repair)
  std::uint64_t retargets = 0;          ///< storage-home replica retargets
  std::uint64_t scrub_repairs = 0;
  std::uint64_t scrub_unrepairable = 0;
  std::uint64_t storage_faults_injected = 0;
  std::uint64_t migrated_images = 0;
  std::uint64_t migrated_bytes = 0;
  std::uint64_t flight_records_persisted = 0;  ///< kFlightRecord appends that landed
  std::uint64_t post_mortems = 0;       ///< black-box reports rendered for dead slots
  std::uint64_t repairs = 0;            ///< nodes rejoining as spares
  std::uint64_t spares_exhausted_windows = 0;  ///< windows with slots waiting
  std::uint64_t pending_at_end = 0;     ///< slots still waiting at run end
  std::uint64_t durable_bytes = 0;      ///< shard stores + resident journal bytes
  SimTime sim_elapsed = 0;
  /// Distributions (window-quantized detection; recovery includes the
  /// restore work charged to the target kernel).
  std::vector<SimTime> detect_latency;
  std::vector<SimTime> recover_latency;

  // --- Violations (the soak gate) -------------------------------------------
  std::uint64_t data_loss_with_intact_replica = 0;
  std::uint64_t verify_failures = 0;    ///< restored state != restored image
  std::uint64_t unrecovered = 0;        ///< ladder failed outright

  [[nodiscard]] bool ok() const {
    return data_loss_with_intact_replica == 0 && verify_failures == 0 &&
           unrecovered == 0;
  }
  /// CRC64 over a canonical serialization of every field — the byte-identity
  /// digest the 1-vs-8-worker gate compares.
  [[nodiscard]] std::uint64_t digest() const;
  [[nodiscard]] std::string summary() const;

  friend bool operator==(const FleetReport&, const FleetReport&) = default;
};

class FleetManager {
 public:
  explicit FleetManager(FleetOptions options = {});

  /// Arm the concurrent-fault soak; call before run().  Arming twice
  /// replaces the previous torture configuration.
  void arm_torture(const FleetTortureOptions& torture);

  /// Drop the next `beats` heartbeats of `node` (deterministic targeted
  /// false-suspicion seam for tests; arm_torture() drives it stochastically).
  void suppress_heartbeats(int node, std::uint32_t beats);

  /// Run `windows` scheduling windows and return the cumulative report.
  /// Callable repeatedly: each call continues from the current fleet state
  /// and the report keeps accumulating (report() returns the same totals).
  FleetReport run(std::uint64_t windows);

  [[nodiscard]] Cluster& cluster() { return cluster_; }
  [[nodiscard]] RecoveryManager& recovery() { return recovery_; }
  [[nodiscard]] const FailureDetector& detector() const { return detector_; }
  [[nodiscard]] const NodeReplacer& replacer() const { return replacer_; }
  [[nodiscard]] const FleetReport& report() const { return report_; }
  [[nodiscard]] const FleetOptions& options() const { return options_; }
  /// Current commit interval in windows (>= 1), from the fleet estimator.
  [[nodiscard]] std::uint64_t interval_windows() const;
  /// The fleet-wide autonomic estimator (continuous interval, pre-quantize).
  [[nodiscard]] const core::IntervalEstimator& estimator() const { return estimator_; }
  /// Useful/checkpoint/rework ledger fed from measured charges and detector
  /// confirmations — the closed loop's measured MTBF and commit cost.
  [[nodiscard]] const obs::OverheadAccountant& accountant() const { return accountant_; }
  /// Per-slot metric rollups, refreshed at the end of every run().
  [[nodiscard]] const obs::FleetTelemetry& telemetry() const { return telemetry_; }
  /// Post-mortem reports rendered on confirmed death, keyed by slot index.
  [[nodiscard]] const std::map<int, std::string>& post_mortems() const {
    return post_mortems_;
  }
  /// Node currently hosting slot `slot` (-1 while awaiting a spare).
  /// Pre for all three: the index is in range (slot < active_nodes,
  /// shard < shards); they are bounds-checked and throw otherwise.
  [[nodiscard]] int slot_node(int slot) const;
  /// RecoveryManager job id of slot `slot` (stable across replacements).
  [[nodiscard]] RecoveryManager::JobId slot_job(int slot) const;
  /// Node whose disk is shard `shard`'s replica 0 (moves on retarget).
  [[nodiscard]] int storage_home(int shard) const;

 private:
  struct Slot {
    RecoveryManager::JobId job = 0;
    int node = -1;       ///< current home (-1: pending replacement)
    int prev_node = -1;  ///< home it left when confirmed dead
    int shard = 0;
    std::uint64_t stagger = 0;  ///< seed-deterministic phase hash
    std::uint64_t commits = 0;
    bool pending = false;
    SimTime truth_failed_at = 0;
    SimTime confirmed_at = 0;
    SimTime last_commit_at = 0;  ///< rework baseline (restore point after a reseed)
    obs::FlightRecorder flight;  ///< the black box; persists via the shard journal
    obs::MetricsRegistry node_metrics;  ///< per-slot rollup input
  };
  struct Shard {
    std::unique_ptr<storage::RemoteBackend> remote;
    std::unique_ptr<storage::ReplicatedStore> store;
    std::unique_ptr<storage::LogStructuredBackend> journal;
    int storage_home = -1;  ///< node whose disk is replica 0
    std::vector<int> slots;
  };

  void step_window(std::uint64_t window_index);
  void heartbeat_phase();
  void on_confirmed_dead(int node_id);
  void process_pending();
  bool replace_slot(int slot_index);
  void sweep_dead_processes();
  void guest_phase(SimTime window_end, const std::vector<std::uint64_t>& steps);
  void commit_phase(std::uint64_t window_index);
  void maintenance_phase(std::uint64_t window_index);
  void inject_storage_fault();
  void persist_flight(int slot_index, sim::SimKernel& kernel);
  void render_post_mortem(int slot_index);
  void ingest_telemetry();
  void verify_restored(Slot& slot, const RecoveryReport& rr);
  [[nodiscard]] bool due_this_window(const Slot& slot, std::uint64_t window_index,
                                     std::uint64_t interval) const;
  void finalize_window(std::uint64_t window_index, std::uint64_t window_commits);

  FleetOptions options_;
  Cluster cluster_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< guest phase only; null = inline
  util::Rng rng_;
  core::IntervalEstimator estimator_;
  FailureDetector detector_;
  NodeReplacer replacer_;
  RecoveryManager recovery_;
  inject::HeartbeatInjector heartbeat_injector_;
  std::vector<Shard> shards_;
  std::vector<Slot> slots_;
  std::map<int, int> node_slot_;          ///< node id -> slot index
  std::deque<int> pending_;               ///< slot indices awaiting a spare
  std::map<int, SimTime> truth_failed_at_;
  std::vector<std::unique_ptr<FailureInjector>> injectors_;
  FleetTortureOptions torture_;
  bool torture_armed_ = false;
  /// Outages armed this window, to end at the next window boundary.
  std::vector<storage::BlobStoreBackend*> open_outages_;
  obs::OverheadAccountant accountant_;
  obs::FleetTelemetry telemetry_;
  std::map<int, std::string> post_mortems_;
  FleetReport report_;
};

}  // namespace ckpt::cluster
