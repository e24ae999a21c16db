// Self-healing replicated stable storage.
//
// Table 1's "stable storage" column and §4's critique say the same thing
// from two sides: capture mechanics decide whether a checkpoint *exists*,
// storage placement decides whether it *survives*.  ReplicatedStore is the
// survivability half: one logical blob store fanned out over N replica
// backends (typically the node's local disk plus one or more remote
// stores), in the spirit of SCR-style multi-level checkpointing.
//
// Three mechanisms make it self-healing rather than merely redundant:
//
//  1. **Atomic two-phase publish.**  store() stages the serialized blob on
//     each replica, reads it back and CRC64-verifies it, and only then
//     publishes a manifest entry (the commit point).  A crash, torn write
//     or rejection mid-store can never yield a half-visible image: readers
//     enumerate and load *committed* entries only, and a failed store rolls
//     its staged blobs back.  The manifest entry records the canonical
//     CRC64, so every later read is verified against the value certified at
//     commit time — a quorum certificate, not a vote among replicas.
//
//  2. **Retry with backoff.**  Each per-replica stage and each load sweep
//     runs under a RetryPolicy (bounded exponential backoff + jitter +
//     deadline, charged through the sim clock), so transient StoreFaults —
//     one-shot rejections, torn writes, short outages — are absorbed
//     instead of surfacing as lost checkpoints.
//
//  3. **Scrub.**  scrub() audits every committed entry on every replica,
//     detects corrupt or missing copies by CRC64, and repairs them from a
//     healthy peer.  Combined with retarget_replica() this also
//     re-replicates history onto a replacement disk after failover.
//
// All three commit modes — flat, dedup and streamed — run through one core.
// A commit is a manifest blob plus the content chunks each replica is
// missing: a flat commit is a placement with no chunks whose "manifest" is
// the serialized image, a dedup commit stages each replica's missing chunks
// and then the manifest.  One per-replica stage routine (chunks first,
// manifest last, roll back on failure) serves every mode, including the
// streamed path's whole-blob fallback, and one publish routine applies the
// write quorum: publish the manifest entry, or roll every stage back.
//
// store() is a *parallel pipeline* (paper §4.1's concurrent kernel-thread
// direction, mapped onto host threads) when its owner passes a pool in
// ReplicatedOptions::pool: the image is serialized in per-segment shards on
// that pool, and the N replica stage+verify fan-out runs concurrently (one
// task per replica).  Those are the two fan-outs bench_pipeline shows paying
// off on large images; without a pool both run on the caller's thread.
// Determinism is preserved — ordered joins, per-replica charge ledgers
// replayed in replica order, per-replica retry salt — so an inline, a
// 1-worker and an 8-worker run produce bit-identical replica contents,
// manifests and simulated-clock charges.  store_streamed(), load and
// scrub() always run on the caller's thread.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/backend.hpp"
#include "storage/dedup.hpp"
#include "storage/retry.hpp"

namespace ckpt::util {
class ThreadPool;
}

namespace ckpt::obs {
class Observer;
}

namespace ckpt::storage {

/// Why a store/load step failed — the "last underlying StoreFault" a caller
/// sees when retries are exhausted.  kRejected and kTornWrite correspond
/// one-to-one to the injectable StoreFaults; the rest are observed states.
enum class StoreErrorKind : std::uint8_t {
  kNone,
  kUnreachable,  ///< replica outage / failed node (StoreFault outage analogue)
  kRejected,     ///< replica refused the write (StoreFault::kReject)
  kTornWrite,    ///< staged bytes failed read-back CRC (StoreFault::kTornWrite)
  kCorrupt,      ///< committed bytes no longer match the manifest CRC
  kMissing,      ///< replica has no copy of a committed entry
  kNoQuorum,     ///< fewer than write_quorum replicas verified
};

const char* to_string(StoreErrorKind kind);

struct ReplicatedOptions {
  /// Replicas that must stage *and verify* before the entry commits.
  /// 1 favours availability (any surviving copy commits); N forces full
  /// replication at store time.
  std::uint32_t write_quorum = 1;
  /// Retry schedule for per-replica staging and for load sweeps.
  RetryPolicy retry;
  /// Worker pool for store()'s commit pipeline: sharded serialize and
  /// concurrent replica staging.  nullptr (the default) runs the whole
  /// commit on the caller's thread; only an owner that hands in a pool gets
  /// host threads.  Parallelism is host wall-clock only — per-replica
  /// sim-time charges are ledgered on the workers and replayed through the
  /// caller's ChargeFn in replica order, so sim cost accounting, retry
  /// jitter and every stored byte are identical to the inline commit for
  /// any pool width.  Staged bytes are always read back and CRC64-verified
  /// before the commit point.
  util::ThreadPool* pool = nullptr;
  /// Observability sink (null = disabled).  Store/scrub phases emit spans on
  /// the storage track; per-replica events are recorded with explicit
  /// timestamps derived from the replayed charge ledgers, so traces are
  /// byte-identical across worker counts.
  obs::Observer* observer = nullptr;
  /// Content-addressed dedup mode (storage/dedup): images are split by a
  /// shared ChunkTable into a manifest plus content chunks, and store()
  /// stages on each replica only the chunks *that replica* is missing —
  /// a replica that sat out an earlier store (outage, retarget) catches up
  /// via later stores and scrub().  All determinism guarantees of the flat
  /// path carry over: per-replica charge ledgers are replayed in replica
  /// order, so replica contents, traces and sim-time are byte-identical for
  /// any worker count.
  bool dedup = false;
};

/// Outcome detail for one logical store (store() itself keeps the plain
/// StorageBackend signature; store_verbose() returns this).
struct StoreReceipt {
  ImageId id = kBadImageId;
  std::uint32_t committed_replicas = 0;
  std::uint64_t retries = 0;
  StoreErrorKind last_error = StoreErrorKind::kNone;

  [[nodiscard]] bool ok() const { return id != kBadImageId; }
};

/// scrub() audit/repair summary.
struct ScrubReport {
  std::uint64_t entries = 0;            ///< committed entries audited
  std::uint64_t chunks = 0;             ///< live content chunks audited (dedup)
  std::uint64_t copies_checked = 0;     ///< replica copies CRC-verified
  std::uint64_t corrupt_found = 0;      ///< copies failing the manifest CRC
  std::uint64_t missing_found = 0;      ///< replicas lacking a copy
  std::uint64_t repaired = 0;           ///< copies rewritten from a healthy peer
  std::uint64_t unrepairable = 0;       ///< damage with no healthy peer left
  std::uint64_t skipped_unreachable = 0;  ///< replica down: not auditable now

  [[nodiscard]] bool clean() const { return corrupt_found == 0 && missing_found == 0; }
  [[nodiscard]] std::string summary() const;
};

class ReplicatedStore final : public StorageBackend, public ChunkReclaimable {
 public:
  ReplicatedStore(std::vector<BlobStoreBackend*> replicas, ReplicatedOptions options = {});

  // --- StorageBackend ---------------------------------------------------------
  /// Two-phase replicated store; commits iff >= write_quorum replicas
  /// verified.  A failed store leaves no trace on any replica.
  ImageId store(const CheckpointImage& image, const ChargeFn& charge) override;
  /// Load a committed entry: replicas are tried in order, each copy CRC64-
  /// verified against the manifest before deserialization; a corrupt or
  /// unreachable replica silently fails over to the next.  The whole sweep
  /// retries under the RetryPolicy (transient outages).
  std::optional<CheckpointImage> load(ImageId id, const ChargeFn& charge) override;
  /// Flat mode: load's sweep, retries and charges, but each copy is checked
  /// in place by CheckpointImage::loads against the manifest CRC instead of
  /// being decoded.  Dedup mode keeps the default (a full load).
  bool verify(ImageId id, const ChargeFn& charge) override;
  /// Drop the committed entry and its replica blobs (charge-free, like any
  /// backend erase).  Dedup mode releases the entry's chunk references;
  /// shared chunk blobs stay on media until gc().
  bool erase(ImageId id) override;
  /// Committed logical ids in ascending order (deterministic).
  [[nodiscard]] std::vector<ImageId> list() const override;
  /// Best survivability among replicas: remote beats local beats memory.
  [[nodiscard]] StorageLocality locality() const override;
  /// True while at least one replica is reachable.
  [[nodiscard]] bool reachable() const override;
  /// Durable bytes summed across replicas (dedup mode: manifests + chunk
  /// blobs, including not-yet-collected garbage).
  [[nodiscard]] std::uint64_t stored_bytes() const override;
  /// This store in flat mode; null in dedup mode, whose chunking needs the
  /// whole image before anything is staged.
  [[nodiscard]] ReplicatedStore* stream_target() override {
    return dedup_enabled() ? nullptr : this;
  }

  // --- Replication-aware paths ------------------------------------------------
  StoreReceipt store_verbose(const CheckpointImage& image, const ChargeFn& charge);

  /// One chunk of a streamed commit: pre-encoded body bytes plus the
  /// producer-side capture cost (the page copies out of the COW shadow that
  /// built the bytes), ledgered and replayed like every other charge.
  struct StreamChunk {
    std::vector<std::byte> bytes;
    SimTime capture_ns = 0;
  };
  /// A streamed image: fixed prelude/trailer plus `chunk_count` body chunks
  /// produced on demand.  `produce` must be pure — it runs again when a
  /// faulted replica falls back to a whole-blob retry, and must return
  /// byte-identical chunks every call.  prelude ++ chunks ++ trailer must
  /// equal the serialize() body of the image being stored, so a streamed
  /// blob is bit-identical to a classic one.
  struct StreamSource {
    std::vector<std::byte> prelude;
    std::vector<std::byte> trailer;
    std::size_t chunk_count = 0;
    std::function<StreamChunk(std::size_t)> produce;
  };
  /// Streaming two-phase store (flat mode only; throws in dedup mode).
  /// Shares the stage routine (for fallbacks) and the quorum/rollback/
  /// publish tail with store_verbose().
  /// Chunks are appended to a per-replica append stage *as they are
  /// produced* — capture, encode and replica appends interleave chunk by
  /// chunk, and the whole blob is never assembled — and the manifest entry
  /// still commits last, so a crash or fault mid-stream leaves the previous
  /// image authoritative.  Runs on the caller: each chunk is produced, its
  /// capture charged, and appended to every healthy replica in turn, so
  /// charges land in chunk-then-replica order.  A replica whose stage dies
  /// mid-stream falls back to the classic whole-blob stage+verify under the
  /// retry policy: a mid-stream fault costs that replica the streaming win,
  /// not the commit.
  StoreReceipt store_streamed(const StreamSource& source, const ChargeFn& charge);

  /// Load from one specific replica only (no failover, no retry) — the
  /// RecoveryManager's degradation ladder probes replicas individually.
  std::optional<CheckpointImage> load_from(std::size_t replica, ImageId id,
                                           const ChargeFn& charge);

  /// Audit every committed entry on every replica; repair corrupt/missing
  /// copies from a healthy peer.
  ScrubReport scrub(const ChargeFn& charge);

  /// Swap the backend behind one replica slot (failover to a replacement
  /// disk).  Committed history is *not* copied here — the next scrub()
  /// re-replicates it, which is the self-healing path under test.
  void retarget_replica(std::size_t index, BlobStoreBackend* backend);

  [[nodiscard]] std::size_t replica_count() const { return replicas_.size(); }
  /// Direct access to one replica backend (tests and fault injectors aim
  /// per-replica damage through this).
  [[nodiscard]] BlobStoreBackend& replica(std::size_t index) { return *replicas_.at(index); }

  /// Dedup mode only: reclaim content chunks no committed entry references,
  /// erasing their blobs on every replica holding a copy.  No-op (empty
  /// report) in flat mode.
  GcReport gc(const ChargeFn& charge) override;

  /// Dedup accounting (zeroed stats in flat mode).
  [[nodiscard]] const DedupStats& dedup_stats() const;
  [[nodiscard]] bool dedup_enabled() const { return table_ != nullptr; }

  /// Copies of `id` that are reachable right now and pass the manifest CRC.
  /// In dedup mode a replica only counts as intact when the manifest *and*
  /// every chunk in the entry's closure verify on that replica — an image is
  /// only as durable as its closure.
  [[nodiscard]] std::uint32_t intact_replicas(ImageId id) const;
  /// True when any committed entry still has >= 1 intact copy — the bound
  /// the torture harness and the RecoveryReport data-loss gate check
  /// against.
  [[nodiscard]] bool any_intact_committed() const;
  [[nodiscard]] ImageId newest_committed() const;

  [[nodiscard]] const ReplicatedOptions& options() const { return options_; }

 private:
  struct Entry {
    std::uint64_t crc = 0;    ///< blob CRC (dedup mode: the manifest blob's)
    std::uint64_t bytes = 0;  ///< blob size (dedup mode: the manifest blob's)
    std::map<std::size_t, ImageId> placements;  ///< replica index -> physical id
    /// Dedup mode: the chunk closure pinned at commit (empty in flat mode).
    std::vector<ChunkKey> chunks;
  };

  /// One replica's staged share of a commit: the verified manifest blob
  /// (flat mode: the serialized image itself), the content chunks newly
  /// staged under it (always empty in flat mode), and the ledger of what the
  /// staging charged.  The caller replays `charges` through its ChargeFn in
  /// replica order and renders the replica-stage span from `spent` and the
  /// retry marks — identically whether staging ran inline or on a worker,
  /// which is what keeps charges and traces invariant for any pool width.
  struct ReplicaStage {
    ImageId manifest_id = kBadImageId;
    std::vector<std::pair<ChunkKey, ImageId>> chunks;
    std::uint64_t retries = 0;
    StoreErrorKind error = StoreErrorKind::kNone;  ///< last failed attempt's error
    std::vector<SimTime> charges;
    SimTime spent = 0;
    std::vector<std::pair<SimTime, StoreErrorKind>> retry_marks;  ///< (offset, error)
  };

  /// The one per-replica stage routine every commit mode uses: writes the
  /// chunks replica `r` is missing (closure order), then the manifest, each
  /// staged and read-back verified under the retry policy.  Any failure
  /// rolls this replica's newly staged blobs back (manifest_id stays
  /// kBadImageId).  Touches only replica `r` and charges only its ledger,
  /// so stages of distinct replicas may run concurrently.
  ReplicaStage stage_replica(std::size_t r, const std::vector<std::byte>& manifest,
                             std::uint64_t manifest_crc, const std::vector<ChunkKey>& missing,
                             std::uint64_t salt);

  /// Replay one stage's ledger through `charge` and fold its retries and
  /// error into `receipt`.
  static void replay(const ReplicaStage& stage, const ChargeFn& charge, StoreReceipt& receipt);

  /// Render one replica-stage span from its replayed ledger.
  void emit_stage(std::size_t r, SimTime base, const ReplicaStage& stage);

  /// Load's read sweep over the committed entry `id`: each placed copy, in
  /// replica order, is viewed (and charged) and handed to `take` until
  /// `take` accepts one; a sweep that finds none is retried under the load
  /// RetryPolicy.  False when `id` is unknown or the retries run out.
  template <typename Take>
  bool sweep(ImageId id, const ChargeFn& charge, const Take& take) const;
  /// Decode replica `r`'s copy of an entry whose manifest CRC is `crc`, or
  /// nullopt when the copy fails that CRC or does not decode.  Dedup chunks
  /// come from replica `r` first and, with `chunk_failover`, from any other
  /// replica holding a verified copy.
  std::optional<CheckpointImage> decode_copy(std::size_t r, std::span<const std::byte> blob,
                                             std::uint64_t crc, const ChargeFn& charge,
                                             bool chunk_failover) const;

  /// What a commit publishes once its replicas are staged.
  struct Publish {
    std::uint64_t crc = 0;                     ///< manifest blob CRC (the certificate)
    std::uint64_t bytes = 0;                   ///< manifest blob size
    ChunkTable::EncodedImage* enc = nullptr;   ///< dedup commits only
    std::optional<std::size_t> stream_chunks;  ///< streamed commits only
  };
  /// The shared commit tail: publish the manifest entry iff >= write_quorum
  /// replicas verified, otherwise roll every stage back.
  StoreReceipt publish(StoreReceipt receipt, std::vector<ReplicaStage>& stages,
                       const Publish& what);

  std::vector<BlobStoreBackend*> replicas_;
  ReplicatedOptions options_;
  bool distinct_replicas_ = true;  ///< replica slots never share a backend
  std::map<ImageId, Entry> manifest_;
  std::unique_ptr<ChunkTable> table_;  ///< non-null iff options_.dedup
  /// chunk → (replica index → physical blob id); a replica missing from a
  /// chunk's map simply has no copy yet (stores and scrub top it up).
  std::map<ChunkKey, std::map<std::size_t, ImageId>> chunk_placements_;
  ImageId next_id_ = 1;
  std::uint64_t op_counter_ = 0;  ///< salt so every operation's jitter differs
};

}  // namespace ckpt::storage
