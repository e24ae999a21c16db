// Message-passing runtime with coordinated AND uncoordinated checkpointing.
//
// A small MPI-like layer sufficient to reproduce the parallel-application
// concerns of the survey: ranks spread over cluster nodes exchange halo
// messages through a fabric with transfer latency, so messages can be
// *in flight* when a checkpoint is requested.  Two protocols are modeled:
//
//   * Coordinated (CoCheck / CLIP / LAM-MPI lineage): quiesce senders and
//     drain the network before per-process images are taken; the drain cost
//     grows with rank count and traffic, which claim C12 and bench_mpi
//     measure.  MpiJob::coordinated_checkpoint.
//
//   * Uncoordinated with sender-based message logging (Johnson & Zwaenepoel
//     lineage): FabricOptions::sender_logging makes every send() append a
//     CRC64-enveloped, sequence-numbered entry to a MessageLog before the
//     message is visible (pessimistic logging), charged through the sim
//     clock.  Ranks then checkpoint independently (cluster/uncoordinated)
//     and a failure restarts ONLY the failed rank from its newest image,
//     replaying the logged suffix — see cluster/msglog for the recovery-line
//     math and DESIGN.md §14 for the protocol.
//
// The fabric object itself is reconnected (not serialized) at restart,
// exactly as LAM/MPI re-establishes communication channels around BLCR
// per-process images.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/msglog.hpp"
#include "cluster/node.hpp"
#include "core/engine.hpp"
#include "sim/guests.hpp"

namespace ckpt::cluster {

/// The interconnect for one job.  Registered globally by id so rank guests
/// (whose config must be immutable plain data) can look it up.
///
/// Failure modes: get() on an unknown id throws std::runtime_error; the
/// delivery path itself never fails — loss is impossible by construction,
/// so any sequence gap observed by try_recv is an internal-invariant
/// violation, counted in sequence_violations() (asserted zero by the
/// crash-replay harness and bench_mpi gate).
class MpiFabric {
 public:
  struct Message {
    int src = 0;
    int dst = 0;
    std::uint64_t seq = 0;  ///< per-(src,dst) channel sequence, 1-based
    std::uint64_t tag = 0;
    std::vector<std::byte> payload;
    SimTime visible_at = 0;  ///< delivery time (send time + latency)
  };

  struct FabricOptions {
    SimTime latency = 0;
    /// Log every send in a sender-based MessageLog (pessimistic: the append
    /// charge is returned by send() and must be paid before progress).
    bool sender_logging = false;
    /// Retain payloads in the log (replay-capable).  false = metadata-only:
    /// dependency tracking for domino *detection* without replay ability.
    bool log_payloads = true;
  };

  /// Create a fabric and register it globally; returns its id.
  /// Post: get(id) returns it until destroy(id).
  static std::uint64_t create(int nranks, SimTime latency);
  static std::uint64_t create(int nranks, const FabricOptions& options);
  /// Pre: `id` was returned by create() and not yet destroyed; throws
  /// std::runtime_error otherwise.
  static MpiFabric& get(std::uint64_t id);
  static void destroy(std::uint64_t id);

  /// Enqueue a message for delivery at now+latency, assigning the next
  /// sequence number on the (src,dst) channel.
  ///
  /// Pre: 0 <= src,dst < nranks.  Post: the message is in dst's inbox and,
  /// with sender_logging, a CRC-stamped copy is in log() — the returned
  /// SimTime is that append's charge (0 when logging is off), which the
  /// caller must charge to the sending rank's clock (pessimistic logging is
  /// synchronous with the send).
  SimTime send(int src, int dst, std::uint64_t tag, std::vector<std::byte> payload,
               SimTime now);

  /// Deliver the oldest visible message for `dst`, if any.
  ///
  /// Post: monotone per-channel delivery — a message with seq <= the
  /// channel's delivered frontier is dropped silently (duplicates_dropped();
  /// this is what makes replay + re-execution re-sends safe), and a message
  /// that would *skip* sequences bumps sequence_violations() (lost message:
  /// must never happen) but is still delivered.
  std::optional<Message> try_recv(int dst, SimTime now);

  /// Quiesce: ranks stop sending; receives continue (the drain phase).
  void set_quiescing(bool value) { quiescing_ = value; }
  [[nodiscard]] bool quiescing() const { return quiescing_; }

  // --- Uncoordinated-checkpointing surface ----------------------------------

  /// Channel frontier of `rank` at this instant: highest seq sent per
  /// destination, highest seq delivered per source.  Only meaningful while
  /// the rank is not mid-step (the uncoordinated manager samples it while
  /// the rank is stopped for its checkpoint).
  [[nodiscard]] ChannelCut channel_cut(int rank) const;

  /// Live send frontier of every channel (src,dst) -> highest seq sent.
  [[nodiscard]] std::map<std::pair<int, int>, std::uint64_t> current_sent() const;

  /// Reset `rank`'s fabric state to checkpoint cut `cut`: clear its inbox,
  /// rewind its per-destination send counters to cut.sent, and rewind its
  /// per-source delivered frontiers to cut.delivered.
  ///
  /// Pre: the rank's process is stopped/dead (nothing concurrently sending
  /// as it).  Post: the rank's re-execution re-assigns the same sequence
  /// numbers it used the first time, so receivers dedup the re-sends.
  void rewind_for_restart(int rank, const ChannelCut& cut);

  struct ReplayStats {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };

  /// Re-enqueue, for `rank`, every logged message past its cut's delivered
  /// frontier (per source), CRC-verified, visible at now+latency.
  ///
  /// Pre: rewind_for_restart(rank, cut) was called; sender_logging with
  /// payloads is on (otherwise there is nothing to replay and the result is
  /// empty — the resolver will have rolled senders back instead).
  /// Post: the restarted rank re-receives exactly the suffix it needs, in
  /// per-channel sequence order.
  ReplayStats replay_into(int rank, const ChannelCut& cut, SimTime now);

  // --- Introspection ---------------------------------------------------------
  [[nodiscard]] std::uint64_t in_flight() const;
  [[nodiscard]] std::uint64_t total_sent() const { return total_sent_; }
  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] bool sender_logging() const { return options_.sender_logging; }
  [[nodiscard]] MessageLog& log() { return log_; }
  [[nodiscard]] const MessageLog& log() const { return log_; }
  [[nodiscard]] std::uint64_t duplicates_dropped() const { return duplicates_dropped_; }
  [[nodiscard]] std::uint64_t sequence_violations() const { return sequence_violations_; }

 private:
  int nranks_ = 0;
  FabricOptions options_;
  bool quiescing_ = false;
  std::map<int, std::deque<Message>> inboxes_;
  std::map<std::pair<int, int>, std::uint64_t> next_seq_;       ///< (src,dst) -> last assigned
  std::map<std::pair<int, int>, std::uint64_t> delivered_seq_;  ///< (src,dst) -> last delivered
  MessageLog log_;
  std::uint64_t total_sent_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
  std::uint64_t sequence_violations_ = 0;
};

/// One MPI rank: computes on a local array, exchanges halo records with its
/// ring neighbours each iteration.  All rank state (iteration counter,
/// array, receive staging) lives in guest memory — so a restarted image plus
/// the replayed message suffix reproduces the state exactly (the
/// piecewise-deterministic assumption; DESIGN.md §14).
class MpiRankGuest : public sim::GuestProgram {
 public:
  static constexpr const char* kTypeName = "mpi_rank";

  struct Config {
    std::uint64_t fabric_id = 0;
    int rank = 0;
    int nranks = 1;
    std::uint64_t array_bytes = 64 * 1024;
    std::uint64_t halo_bytes = 1024;
    SimTime compute_ns = 50 * kMicrosecond;

    [[nodiscard]] std::vector<std::byte> encode() const;
    static Config decode(const std::vector<std::byte>& blob);
  };

  explicit MpiRankGuest(Config config) : config_(config) {}

  void on_start(sim::UserApi& api) override;
  sim::GuestStatus on_step(sim::UserApi& api) override;

  static void register_type();

  /// Iteration counter of a rank process (progress metric).
  static std::uint64_t read_iteration(sim::Process& proc);
  /// Fold of every byte the rank has received (order-sensitive state
  /// digest input; used by the crash-replay determinism checks).
  static std::uint64_t read_recv_digest(sim::Process& proc);

 private:
  Config config_;
};

/// A parallel job: ranks placed round-robin over cluster nodes (so ring
/// neighbours land on *different* nodes — a single node failure never takes
/// out both a sender and the only copy of its log's consumer).
class MpiJob {
 public:
  struct Placement {
    int node = -1;
    sim::Pid pid = sim::kNoPid;
  };

  /// Pre: cluster has >= 1 up node; nranks >= 1.  The fabric is created
  /// immediately (latency from node 0's cost model unless `fabric` given);
  /// ranks spawn on launch().
  MpiJob(Cluster& cluster, int nranks, MpiRankGuest::Config base_config);
  MpiJob(Cluster& cluster, int nranks, MpiRankGuest::Config base_config,
         const MpiFabric::FabricOptions& fabric);
  ~MpiJob();

  MpiJob(const MpiJob&) = delete;
  MpiJob& operator=(const MpiJob&) = delete;

  /// Spawn all ranks round-robin over the currently-up nodes.
  /// Post: placements()[r] names each rank's node and pid.
  void launch();

  struct CoordinatedResult {
    bool ok = false;
    std::string error;
    SimTime drain_time = 0;
    SimTime total_time = 0;
    std::uint64_t messages_drained = 0;
    std::uint64_t payload_bytes = 0;
  };

  /// CoCheck/LAM-MPI-style coordinated checkpoint: quiesce, drain, then
  /// checkpoint every rank through its node's engine (engines indexed by
  /// node id; they should store to the cluster's remote backend so images
  /// survive node failures).
  ///
  /// Pre: not already quiescing (re-entry fails with an error rather than
  /// deadlocking the drain).  Failure modes reported via CoordinatedResult:
  /// drain timeout after 60 sim-seconds, a rank's node down, or a per-rank
  /// checkpoint failure — quiescing is always cleared on exit.
  CoordinatedResult coordinated_checkpoint(const std::vector<core::CheckpointEngine*>&
                                               engines_by_node);

  /// After `failed_node` died, restart its ranks on `target_node` from the
  /// engines' chains (the job-level knowledge lives with mpirun, which
  /// survives on the head node).  Other ranks keep running — but NOTE: with
  /// plain coordinated images this is only consistent if all ranks restart
  /// from the same coordinated cut; the uncoordinated manager
  /// (cluster/uncoordinated) is the path that makes restart-only-the-failed-
  /// rank actually correct via log replay.
  ///
  /// Pre: target node is up.  Returns false (job unrecoverable by this
  /// method) if the target is down or any per-rank restart fails.
  bool restart_ranks_of_failed_node(const std::vector<core::CheckpointEngine*>&
                                        engines_by_node,
                                    int failed_node, int target_node);

  /// Record that `rank` now runs as `pid` on `node` (the uncoordinated
  /// recovery path rebinds placements one rank at a time).
  /// Pre: 0 <= rank < nranks.
  void rehome_rank(int rank, int node, sim::Pid pid);

  /// Spawn a FRESH process for `rank` on `node` (initial application state
  /// — the cold-start arm of recovery for a rank that has no usable
  /// checkpoint yet).  Pre: node is up.  Post: placements()[rank] names the
  /// new process.
  sim::Pid respawn_rank(int rank, int node);

  [[nodiscard]] const std::vector<Placement>& placements() const { return placements_; }
  [[nodiscard]] std::uint64_t fabric_id() const { return fabric_id_; }
  [[nodiscard]] MpiFabric& fabric() const { return MpiFabric::get(fabric_id_); }

  /// Minimum iteration across ranks (the job's true progress).  Returns 0
  /// if any rank's node is down or its process is dead.
  [[nodiscard]] std::uint64_t min_iteration(Cluster& cluster) const;

 private:
  Cluster& cluster_;
  int nranks_;
  MpiRankGuest::Config base_config_;
  std::uint64_t fabric_id_ = 0;
  std::vector<Placement> placements_;
};

}  // namespace ckpt::cluster
