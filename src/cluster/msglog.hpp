// Sender-based message logging and recovery-line computation for
// uncoordinated MPI checkpointing.
//
// The coordinated protocol (cluster/mpi) pays a global drain before any
// image is cut; the cost grows with rank count and traffic, which is the
// survey's scalability complaint about CoCheck/CLIP/LAM-MPI.  The classic
// alternative (Johnson & Zwaenepoel's sender-based logging) lets every rank
// checkpoint *independently* and makes a single failure recoverable without
// touching any other rank:
//
//   * every message is logged at the SENDER, synchronously with the send
//     (pessimistic logging: the log entry exists before the message is
//     visible), sequence-numbered per (src,dst) channel and CRC64-enveloped;
//   * execution is piecewise deterministic: a rank's state between received
//     messages is a pure function of its last checkpoint and the sequence
//     of messages delivered since — so replaying the logged suffix into a
//     restarted rank reproduces the lost state exactly;
//   * a restarted rank re-executes and re-SENDS messages its peers already
//     delivered; receivers drop those duplicates by channel sequence number
//     (MpiFabric::try_recv), so replay never double-delivers.
//
// When a needed suffix is NOT in the log (metadata-only logging, or the
// sender died and its volatile log died with it), the receiver's checkpoint
// is an orphan and the sender must roll back far enough to regenerate the
// missing messages — which can cascade: the domino effect.  RollbackResolver
// computes that recovery line explicitly and reports its depth; a cascade is
// *detected and bounded*, never silently executed.
//
// Persistence: a rank's sender log is volatile (it lives in the rank's
// memory and dies with it).  MessageLog::encode_sender/restore_sender
// serialize one rank's log so callers can persist it through the
// log-structured journal's flight-record path (storage/journal), which is
// what keeps concurrent failures at rollback depth 1 (see bench_mpi).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/costs.hpp"

namespace ckpt::cluster {

/// Per-rank channel frontier at one instant: the consistent cut metadata
/// recorded with every uncoordinated checkpoint.
///
/// `sent[dst]` is the highest sequence this rank has sent on (rank -> dst);
/// `delivered[src]` the highest sequence delivered to it on (src -> rank).
/// Channels never used are simply absent (frontier 0).
struct ChannelCut {
  std::map<int, std::uint64_t> sent;
  std::map<int, std::uint64_t> delivered;

  friend bool operator==(const ChannelCut&, const ChannelCut&) = default;
};

/// One logged message: the CRC64-enveloped unit of the sender-based log.
struct LoggedMessage {
  int src = 0;
  int dst = 0;
  std::uint64_t seq = 0;  ///< per-(src,dst) channel sequence, 1-based
  std::uint64_t tag = 0;
  SimTime sent_at = 0;
  std::vector<std::byte> payload;  ///< empty in metadata-only logging
  std::uint64_t crc = 0;           ///< crc64 over the serialized envelope

  /// Serialized envelope size (header + payload), the unit the log append
  /// charge and the log-volume metrics are measured in.
  [[nodiscard]] std::uint64_t envelope_bytes() const;
  /// CRC64 over the envelope with the crc field zeroed; record() stamps it
  /// and suffix() re-verifies it before offering the entry for replay.
  [[nodiscard]] std::uint64_t compute_crc() const;
};

struct MessageLogOptions {
  /// Retain payload bytes (replay-capable sender-based log).  false keeps
  /// only dependency metadata — enough for RollbackResolver to *compute*
  /// the domino cascade, never enough to replay (models uncoordinated
  /// checkpointing without message logging).
  bool log_payloads = true;
};

/// The sender-based log: per-(src,dst) channel deques in sequence order.
///
/// One MessageLog object serves the whole fabric, but entries are owned
/// per-sender: drop_sender() models the volatile log dying with its rank,
/// and encode_sender()/restore_sender() serialize exactly one rank's
/// entries for journal persistence.
class MessageLog {
 public:
  explicit MessageLog(MessageLogOptions options = {}) : options_(options) {}

  /// Append one entry (payload dropped in metadata-only mode), stamping its
  /// CRC.  Pre: entries per channel arrive in ascending `seq` order (the
  /// fabric assigns them).  Returns the sim-time append charge the sender
  /// must pay before the message becomes visible: a memory copy plus a CRC
  /// pass over the envelope under the default sim::CostModel (pessimistic
  /// logging is synchronous with the send).
  SimTime record(LoggedMessage message);

  /// Is every message on (src,dst) with sequence in [from_seq, to_seq]
  /// present, payload-bearing and CRC-clean?  `dead_logs` names ranks whose
  /// volatile logs are assumed lost (the resolver's what-if seam; entries
  /// physically present are still unavailable when src is dead).
  /// from_seq > to_seq is an empty range and trivially covered.
  [[nodiscard]] bool covers(int src, int dst, std::uint64_t from_seq,
                            std::uint64_t to_seq,
                            const std::set<int>& dead_logs = {}) const;

  /// Entries on (src,dst) with seq > after_seq, ascending, CRC-verified.
  /// Entries failing their CRC are skipped and counted (crc_failures()) —
  /// replaying a corrupt envelope would be worse than losing it loudly.
  [[nodiscard]] std::vector<const LoggedMessage*> suffix(int src, int dst,
                                                         std::uint64_t after_seq) const;

  /// Discard entries destined to `dst` that `dst`'s newest checkpoint has
  /// made unnecessary: on (src,dst), everything with seq <= delivered_up_to
  /// at that src.  Called when dst checkpoints; returns entries trimmed.
  std::uint64_t trim_delivered(int dst, const std::map<int, std::uint64_t>& delivered_up_to);

  /// The volatile log of `src` dies with its rank: drop every entry it
  /// owns.  Returns entries dropped.
  std::uint64_t drop_sender(int src);

  /// Serialize every entry owned by `src` (all (src,*) channels) for
  /// journal persistence.  Deterministic: channels ascending, seq ascending.
  [[nodiscard]] std::vector<std::byte> encode_sender(int src) const;

  /// Replace `src`'s entries with a previously encoded blob (post-failure
  /// restore from the journal).  Returns entries restored.  Throws
  /// util::SerializeError on a corrupt blob — the caller decides whether to
  /// fall back to drop_sender() semantics.
  std::uint64_t restore_sender(int src, const std::vector<std::byte>& blob);

  // --- Introspection ---------------------------------------------------------
  [[nodiscard]] std::uint64_t message_count() const;
  /// Resident envelope bytes (the log-volume metric).
  [[nodiscard]] std::uint64_t resident_bytes() const;
  [[nodiscard]] std::uint64_t total_recorded() const { return total_recorded_; }
  [[nodiscard]] std::uint64_t total_trimmed() const { return total_trimmed_; }
  [[nodiscard]] std::uint64_t crc_failures() const { return crc_failures_; }

 private:
  MessageLogOptions options_;
  /// (src,dst) -> entries in ascending seq order.
  std::map<std::pair<int, int>, std::deque<LoggedMessage>> channels_;
  std::uint64_t total_recorded_ = 0;
  std::uint64_t total_trimmed_ = 0;
  mutable std::uint64_t crc_failures_ = 0;
};

/// Metadata of one uncoordinated per-rank checkpoint: which image (chain
/// sequence under which engine/pid) and the channel frontier at the cut.
struct CheckpointCut {
  std::uint64_t sequence = 0;  ///< chain sequence of the image
  SimTime taken_at = 0;
  int node = -1;               ///< node whose engine holds the chain
  std::uint64_t pid = 0;       ///< pid key of the chain in that engine
  ChannelCut channels;
};

/// The computed recovery line: which ranks restart, from which checkpoint,
/// and how far the cascade reached.
struct RecoveryLine {
  /// A rank rolling back past its first checkpoint restarts from the
  /// initial application state — the unbounded-domino terminal.
  static constexpr int kToStart = -1;

  /// rank -> index into that rank's cut vector (newest = size-1), or
  /// kToStart.  Ranks absent keep running untouched.
  std::map<int, int> restart_cut;
  /// Max checkpoints walked back from the newest (1 = newest image only; a
  /// pessimistically-logged single failure is always exactly 1).
  std::uint32_t depth = 0;
  /// Ranks rolled back (1 = restart-only-the-failed-rank).
  std::uint32_t width = 0;
  /// Fixpoint iterations that extended the line (0 = no cascade).
  std::uint32_t cascade_rounds = 0;
  /// Messages needed for replay but unavailable in the log — each one is a
  /// reason some sender had to roll back instead.
  std::uint64_t missing_messages = 0;
  /// false iff some rank hit kToStart (the cascade escaped every
  /// checkpoint: the classic unbounded domino).
  bool bounded = true;

  [[nodiscard]] std::string describe() const;
};

/// Computes the recovery line for a set of failed ranks against the cut
/// history and the (possibly partial) sender log.
///
/// Pure function of its inputs — no side effects, so callers can plan
/// what-if lines (e.g. "suppose the failed ranks' logs died") before
/// executing anything.  UncoordinatedMpi::recover_failed_node executes the
/// line it returns; bench_mpi plans lines to measure domino depth.
class RollbackResolver {
 public:
  /// `cuts`: per-rank checkpoint history, oldest first.  `current_sent`:
  /// the live send frontier per (src,dst) channel (MpiFabric::current_sent).
  RollbackResolver(const MessageLog& log,
                   const std::map<int, std::vector<CheckpointCut>>& cuts,
                   std::map<std::pair<int, int>, std::uint64_t> current_sent)
      : log_(log), cuts_(cuts), current_sent_(std::move(current_sent)) {}

  /// Compute the line for `failed_ranks` (each restarts from, at best, its
  /// newest cut).  `dead_logs` marks ranks whose volatile sender logs are
  /// unavailable (usually == failed_ranks unless journal-restored).
  /// Postcondition: every failed rank appears in restart_cut; a live rank
  /// appears only when the cascade reached it; depth/width/bounded reflect
  /// the returned line exactly.
  [[nodiscard]] RecoveryLine resolve(const std::vector<int>& failed_ranks,
                                     const std::set<int>& dead_logs = {}) const;

 private:
  [[nodiscard]] std::uint64_t sent_frontier(int src, int dst,
                                            const std::map<int, int>& line) const;
  [[nodiscard]] const ChannelCut* cut_channels(int rank, int index) const;

  const MessageLog& log_;
  const std::map<int, std::vector<CheckpointCut>>& cuts_;
  std::map<std::pair<int, int>, std::uint64_t> current_sent_;
};

}  // namespace ckpt::cluster
