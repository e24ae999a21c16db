// Checkpoint/restart engines: the taxonomy of Figure 1 as running code.
//
// A CheckpointEngine owns the policy of *one* point in the design space —
// who initiates, in which context capture runs, how consistency is ensured,
// whether deltas are tracked — and delegates the mechanics to the capture,
// incremental and storage layers.  The twelve surveyed mechanisms
// (src/mechanisms) are thin configurations of these engines.
//
// Initiation is asynchronous by nature (a signal is deferred until the
// target runs; a kernel thread runs when scheduled), so the core API is
// request_checkpoint_async() + poll; request_checkpoint() is a convenience
// that drives the simulation until the request completes, which is how the
// initiation-latency benchmark (C6) measures the deferral the survey
// describes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/capture.hpp"
#include "core/incremental.hpp"
#include "core/taxonomy.hpp"
#include "sim/kernel.hpp"
#include "storage/backend.hpp"
#include "storage/chain.hpp"
#include "storage/retry.hpp"

namespace ckpt::obs {
class MetricsRegistry;
}

namespace ckpt::core {

/// How a non-cooperative checkpointer keeps the image consistent while the
/// application may be running (survey §4.1).
enum class ConsistencyMode : std::uint8_t {
  kStopTarget,   ///< remove the target from the runqueue for the duration
  kForkAndCopy,  ///< fork(); checkpoint the frozen COW child; app keeps running
  kConcurrent,   ///< no protection: copy while the app runs (tearing risk)
};

const char* to_string(ConsistencyMode mode);

struct EngineOptions {
  CaptureOptions capture;
  ConsistencyMode consistency = ConsistencyMode::kStopTarget;
  /// Take incremental checkpoints (after an initial full one).
  bool incremental = false;
  /// Factory for the dirty tracker used when incremental is set.
  std::function<std::unique_ptr<DirtyTracker>()> tracker_factory;
  /// Force a full image every N checkpoints to bound chain length.
  std::uint64_t full_every = 8;
  /// Retry schedule for transient storage faults on both the store path
  /// (the backend rejected the image) and the load path (the chain did not
  /// reconstruct).  Backoff is charged through the sim clock.  The default
  /// performs no retries — identical to the pre-retry behaviour.  Every
  /// engine family honours it: all of them commit through the shared
  /// CheckpointEngine::store_step.
  storage::RetryPolicy store_retry;
  /// After each successful *full* checkpoint, prune the chain down to its
  /// fallback-keep set (CheckpointChain::live_set) and, when the backend is
  /// ChunkReclaimable (a dedup ReplicatedStore, a journal), collect
  /// unreferenced content chunks — so dropping old sequence points actually
  /// returns media bytes.  The verification loads and GC charge sim time
  /// through the checkpointing context like every other storage access, but
  /// after the commit point, so they never count toward total_latency.
  /// Honoured by every engine family (kernel-mode, kernel-thread and
  /// user-level).
  bool prune_after_full = false;
  /// Streaming commit (requires kForkAndCopy): capture pages from the
  /// frozen COW shadow, encode them in chunks and append each chunk to the
  /// replicas *as it is produced* (ReplicatedStore::store_streamed), instead
  /// of capture → serialize → store running phase-sequential.  The guest
  /// resumes after the fork's page-table walk; the whole transfer overlaps
  /// its execution.  Requires a backend with a stream target (a flat,
  /// non-dedup ReplicatedStore); the constructor throws for any other.
  /// Kernel-mode engines only (perform_kernel_checkpoint: syscall and
  /// kernel-signal engines); KernelThreadEngine and UserLevelEngine refuse
  /// it at construction.  Chunks hold 64 page payloads each.
  bool streaming = false;
};

struct CheckpointResult {
  bool ok = false;
  std::string error;
  storage::ImageId image_id = storage::kBadImageId;
  storage::ImageKind kind = storage::ImageKind::kFull;
  SimTime initiated_at = 0;  ///< when the request was made
  SimTime started_at = 0;    ///< when capture actually began (deferral!)
  SimTime completed_at = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t pages = 0;
  /// Store retries the engine's RetryPolicy granted before success/giving up.
  std::uint64_t store_retries = 0;
  /// Guest-visible pause: how long the application was kept off the CPU for
  /// consistency.  kStopTarget: stop → resume (the whole capture+store).
  /// kForkAndCopy: the fork's page-table walk only.  kConcurrent: 0.
  SimTime pause_ns = 0;

  [[nodiscard]] SimTime initiation_latency() const { return started_at - initiated_at; }
  [[nodiscard]] SimTime total_latency() const { return completed_at - initiated_at; }
};

struct RestartOptions {
  /// Restore the original PID (UCLiK); fails over to a fresh PID with a
  /// warning when taken, unless `require_original_pid`.
  bool restore_original_pid = false;
  bool require_original_pid = false;
  /// When the newest checkpoint is unreadable (corrupt, torn, missing),
  /// fall back to the newest older state that still reconstructs instead
  /// of refusing outright.  Restarting from a corrupt image is never an
  /// option either way — fallback trades lost work for availability.
  bool fall_back_to_older_images = false;
};

struct RestartResult {
  bool ok = false;
  std::string error;
  sim::Pid pid = sim::kNoPid;
  std::vector<std::string> warnings;
};

/// Restore an image into `kernel` as a fresh, runnable process — the common
/// restart path every engine and mechanism shares.  The ports the process
/// held are rebound; a port already taken is a warning, not a failure.
RestartResult restart_from_image(sim::SimKernel& kernel,
                                 const storage::CheckpointImage& image,
                                 const RestartOptions& options = {});

class CheckpointEngine {
 public:
  CheckpointEngine(std::string name, storage::StorageBackend* backend,
                   EngineOptions options);
  virtual ~CheckpointEngine();

  CheckpointEngine(const CheckpointEngine&) = delete;
  CheckpointEngine& operator=(const CheckpointEngine&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] virtual TaxonomyPath taxonomy() const = 0;

  /// Prepare a process for checkpointing by this engine.  The default is a
  /// no-op; engines that *require* attachment (library linking, BLCR's
  /// registration phase, trackers) override it — and their transparency
  /// probe fails when checkpointing an unattached process.
  virtual bool attach(sim::SimKernel& kernel, sim::Pid pid);
  virtual void detach(sim::SimKernel& kernel, sim::Pid pid);

  /// Can an agent other than the application itself initiate a checkpoint?
  [[nodiscard]] virtual bool supports_external_initiation() const = 0;

  /// Begin an externally initiated checkpoint.  Returns a ticket, or 0 on
  /// refusal (unsupported / unknown pid).
  virtual std::uint64_t request_checkpoint_async(sim::SimKernel& kernel, sim::Pid pid) = 0;

  [[nodiscard]] bool is_complete(std::uint64_t ticket) const;
  [[nodiscard]] CheckpointResult result(std::uint64_t ticket) const;

  /// Synchronous convenience: request and drive the simulation until the
  /// checkpoint completes (or `timeout` of simulated time passes).
  CheckpointResult request_checkpoint(sim::SimKernel& kernel, sim::Pid pid,
                                      SimTime timeout = 60 * kSecond);

  /// Restart the newest state of `original_pid` recorded by this engine.
  virtual RestartResult restart(sim::SimKernel& kernel, sim::Pid original_pid,
                                const RestartOptions& options = {});

  /// Restart onto a different kernel (migration / failover).
  RestartResult restart_on(sim::SimKernel& target_kernel, sim::Pid original_pid,
                           const RestartOptions& options = {});

  [[nodiscard]] storage::StorageBackend* backend() const { return backend_; }
  [[nodiscard]] const EngineOptions& options() const { return options_; }
  [[nodiscard]] const std::vector<CheckpointResult>& history() const { return history_; }

  /// Number of completed checkpoints for a pid.
  [[nodiscard]] std::uint64_t checkpoints_taken(sim::Pid pid) const;

  /// The checkpoint chain recorded for `original_pid`, or nullptr if this
  /// engine never checkpointed it.  Chains stay keyed by the ORIGINAL pid
  /// even after restart_on() produced a fresh pid — callers doing
  /// older-image rollback (uncoordinated MPI recovery) reconstruct through
  /// this and then restart_from_image directly.
  [[nodiscard]] const storage::CheckpointChain* chain_of(sim::Pid original_pid) const;

 protected:
  struct ProcState {
    storage::CheckpointChain chain;
    std::unique_ptr<DirtyTracker> tracker;
    bool attached = false;
    std::uint64_t taken = 0;
    explicit ProcState(storage::StorageBackend* backend) : chain(backend) {}
  };

  ProcState& state_for(sim::Pid pid);
  [[nodiscard]] const ProcState* find_state(sim::Pid pid) const;

  /// The shared kernel-mode checkpoint step: applies the consistency mode,
  /// captures (full or delta), stores, restarts the tracking interval.
  /// `initiated_at` feeds the latency accounting.  Runs synchronously in
  /// the current execution context.
  CheckpointResult perform_kernel_checkpoint(sim::SimKernel& kernel, sim::Process& proc,
                                             SimTime initiated_at);

  /// The next image's kind and capture options under the full-vs-delta
  /// policy every family shares: a delta is due when incremental tracking
  /// is on, a full image exists and full_every does not force a full one,
  /// and it captures only the ranges the tracker collects from `proc`.
  struct CapturePlan {
    CaptureOptions options;
    storage::ImageKind kind = storage::ImageKind::kFull;
  };
  CapturePlan plan_capture(sim::SimKernel& kernel, sim::Process& proc, ProcState& state);

  /// Kernel clock and in-step charge at a store step's commit point: after
  /// the tracking interval restarted, before prune/GC — where every
  /// family's total_latency() closes.
  struct CommitPoint {
    SimTime clock = 0;
    SimTime step_charge = 0;
  };

  /// The one store step every engine family commits through, once its own
  /// capture and consistency handling are done.  In order:
  ///  1. append `image` to `state.chain` under options().store_retry, with
  ///     `stream_fn` as the StoreFn when set (a streamed commit) and a
  ///     classic backend store otherwise; record image_id, store_retries,
  ///     ok and error in `result`, then release the image's pages so nothing
  ///     below holds them;
  ///  2. run `settle` — the family releases its consistency protection and
  ///     closes its store span there, before any bookkeeping charges time;
  ///  3. on success count the checkpoint and restart `proc`'s tracking
  ///     interval (`proc` may be null when the target is gone), then stamp
  ///     the commit point;
  ///  4. prune + GC after a full image (prune_after_full) — charged after
  ///     the commit point, so it never counts toward total_latency().
  CommitPoint store_step(sim::SimKernel& kernel, ProcState& state, sim::Pid pid,
                         sim::Process* proc, storage::CheckpointImage&& image,
                         const storage::CheckpointChain::StoreFn& stream_fn,
                         CheckpointResult& result, const std::function<void()>& settle);

  /// The outcome metrics every engine family reports: ckpt.failed, or
  /// ckpt.completed with the kind, size and latency series.
  static void record_outcome(obs::MetricsRegistry& metrics, const CheckpointResult& result);

  std::uint64_t record_result(CheckpointResult result);
  std::uint64_t new_ticket();
  void record_pending(std::uint64_t ticket);
  void complete_ticket(std::uint64_t ticket, CheckpointResult result);

  std::string name_;
  storage::StorageBackend* backend_;
  EngineOptions options_;
  /// backend_->stream_target(), resolved once; non-null iff streaming.
  storage::ReplicatedStore* stream_store_ = nullptr;
  std::map<sim::Pid, std::unique_ptr<ProcState>> states_;
  std::map<std::uint64_t, std::optional<CheckpointResult>> tickets_;
  std::uint64_t next_ticket_ = 1;
  std::vector<CheckpointResult> history_;
};

}  // namespace ckpt::core
