// Log-structured checkpoint journal with a background migrator.
//
// The survey's closing argument (§4) is that commit *initiation* — not image
// encoding — limits checkpoint frequency: every commit through the two-phase
// replicated path pays stage → read-back verify → manifest publish per
// replica.  The CapROS/EROS direction decouples the two: a commit is a pure
// sequential append of CRC64-enveloped records into a circular log (one
// device sync per group commit), and a *migrator* later drains committed
// images into their home store (typically a ReplicatedStore) off the
// critical path, reclaiming log segments once nothing resident needs them.
//
// Record format (all integers little-endian):
//
//   [magic u32][type u8][body_len u64][body ...][crc64 u64]
//
// where the trailing CRC64 covers every preceding byte of the record.  The
// log is a ring of fixed-size segments; every segment opens with a
// kSegmentOpen{epoch, id generation floor} record and a sealed segment ends
// with kSeal{next epoch}, so recovery can re-chain segments in append order
// without any out-of-band superblock.  Records never span segments.  The
// floor field makes the id-generation bump durable: recover() derives the
// next generation from max(stamped floor, surviving ids) and re-stamps the
// surviving open records, so ids discarded by one recovery are never
// reissued even when a later crash tears every commit of the new generation.
//
// Commit groups are self-contained: store() runs the image through a fresh
// dedup ChunkTable, appends each fresh chunk as a kChunk record and then one
// kCommit record carrying the manifest and the chunk closure.  Recovery is a
// strict prefix scan: parse records in append order, stop at the first
// envelope that fails to validate (torn tail, corruption, epoch gap), and
// discard everything at or after it — a commit survives iff its kCommit
// record lies wholly inside the valid prefix, which is exactly the
// "newest fully-committed prefix" claim the JournalCrashReplay harness
// proves at every record boundary and at fuzzed intra-record offsets.
//
// Determinism contract: appends, recovery, migration and reclaim all run on
// the caller's thread (migrate() decodes each resident image just before it
// publishes it), so log contents and every ChargeFn sequence depend on no
// worker count; home-store contents are as worker-invariant as the home
// store itself.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "sim/costs.hpp"
#include "storage/dedup.hpp"

namespace ckpt::obs {
class Observer;
}

namespace ckpt::storage {

struct JournalOptions {
  /// Capacity of one log segment; records never span segments, so this
  /// bounds the largest single record (chunk blobs are <= page-sized).
  std::uint64_t segment_bytes = 256 * 1024;
  /// Segments in the ring.  Log capacity = segment_bytes * segments.
  std::uint32_t segments = 8;
  /// When a store() does not fit in the remaining free segments, drain the
  /// migrator inline to reclaim space before failing the store.
  bool migrate_on_demand = true;
  /// Observability sink (null = disabled): journal.* spans and counters.
  /// Append, sync and scan charges follow the default sim::CostModel disk.
  obs::Observer* observer = nullptr;
};

/// Byte image of the log media: fixed-size zero-filled segment slots.  This
/// is the only state that survives simulate_crash() — everything else the
/// backend knows is rebuilt from these bytes by recover().
struct JournalMedia {
  std::uint64_t segment_bytes = 0;
  std::vector<std::vector<std::byte>> slots;

  friend bool operator==(const JournalMedia&, const JournalMedia&) = default;
};

enum class JournalRecordType : std::uint8_t {
  kSegmentOpen = 1,  ///< first record of every segment; body = epoch + id floor
  kChunk = 2,        ///< body = chunk key + blob crc + blob
  kCommit = 3,       ///< body = id, pid, sequence, manifest, chunk closure
  kMigrate = 4,      ///< body = id, home-store id, pid, sequence (publish)
  kErase = 5,        ///< body = id
  kSeal = 6,         ///< last record of a sealed segment; body = next epoch
  kFlightRecord = 7, ///< body = key + opaque flight-recorder payload
};

const char* to_string(JournalRecordType type);

/// Append-ledger entry: where one record landed.  `log_offset` is the
/// record's position in the logical append stream (the concatenation of live
/// segments in epoch order) — the coordinate system the crash-replay harness
/// truncates and fuzzes in.
struct JournalRecordInfo {
  JournalRecordType type = JournalRecordType::kSegmentOpen;
  ImageId id = kBadImageId;  ///< owning image for kChunk/kCommit/kMigrate/kErase
  std::uint32_t slot = 0;
  std::uint64_t slot_offset = 0;
  std::uint64_t log_offset = 0;
  std::uint64_t bytes = 0;  ///< full envelope size

  friend bool operator==(const JournalRecordInfo&, const JournalRecordInfo&) = default;
};

/// recover() result.
struct JournalRecoveryReport {
  std::uint64_t slots_scanned = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t resident_recovered = 0;   ///< commits still living in the log
  std::uint64_t migrated_recovered = 0;   ///< commits republished as kMigrate
  std::uint64_t bytes_discarded = 0;      ///< torn/corrupt/unreachable bytes zeroed
  std::uint64_t orphans_reclaimed = 0;    ///< home images erased by reconcile
  std::uint64_t flight_recovered = 0;     ///< flight-record keys replayed
  bool tail_torn = false;                 ///< scan stopped at a damaged record
  std::vector<ImageId> recovered_ids;     ///< surviving ids, ascending

  friend bool operator==(const JournalRecoveryReport&, const JournalRecoveryReport&) = default;
};

/// StorageBackend adapter implementing the append-commit path.  Owns the log
/// media; `home` is the durable store the migrator drains into (the journal
/// assumes exclusive ownership of `home`'s id space — recovery reconciles it
/// against the log's publish records).
class LogStructuredBackend final : public StorageBackend, public ChunkReclaimable {
 public:
  LogStructuredBackend(StorageBackend* home, JournalOptions options = {});
  /// Adopt a post-crash media image: the backend starts in the crashed
  /// state and refuses I/O until recover() rebuilt its bookkeeping.
  LogStructuredBackend(StorageBackend* home, JournalOptions options, JournalMedia media);

  // --- StorageBackend -------------------------------------------------------
  /// Append-commit: encode, append chunk + commit records, charge streaming
  /// bandwidth for the appended bytes plus one device sync (deferred to
  /// end_group() inside a group commit).  Returns kBadImageId when crashed
  /// or when the log is full and on-demand migration could not free space.
  ImageId store(const CheckpointImage& image, const ChargeFn& charge) override;
  /// Resident images decode straight from the log bytes (so silent media
  /// corruption surfaces here, as with any CRC-validated store); migrated
  /// images delegate to the home store.
  std::optional<CheckpointImage> load(ImageId id, const ChargeFn& charge) override;
  bool erase(ImageId id) override;
  [[nodiscard]] std::vector<ImageId> list() const override;
  [[nodiscard]] StorageLocality locality() const override;
  [[nodiscard]] bool reachable() const override;
  [[nodiscard]] std::uint64_t stored_bytes() const override;

  /// Forwarded to the home store when it is ChunkReclaimable (the journal
  /// itself reclaims space in segment units, not chunk units).
  GcReport gc(const ChargeFn& charge) override;

  // --- Flight records -------------------------------------------------------
  /// Persist a node's flight-recorder snapshot under `key` (newest record
  /// per key wins — the record type the post-mortem path recovers).  The
  /// payload is opaque to the journal: it is CRC64-enveloped like any other
  /// record and charged as append bandwidth; inside a group commit the
  /// device sync is deferred with the group.  Returns false when crashed or
  /// when the log is full even after on-demand migration.
  bool append_flight_record(std::uint64_t key, std::span<const std::byte> payload,
                            const ChargeFn& charge);
  /// Keys with a live flight record, ascending.
  [[nodiscard]] std::vector<std::uint64_t> flight_keys() const;
  /// The newest surviving payload appended under `key`.
  [[nodiscard]] std::optional<std::vector<std::byte>> flight_record_of(
      std::uint64_t key) const;

  // --- Group commit ---------------------------------------------------------
  /// Begin a group commit: stores until end_group() append records but defer
  /// the device sync, so N concurrent engines share one sync charge.
  void begin_group();
  /// Charge the single deferred sync (0 when the group appended nothing).
  SimTime end_group(const ChargeFn& charge);

  // --- Migrator -------------------------------------------------------------
  struct MigrateReport {
    std::uint64_t images_drained = 0;
    std::uint64_t bytes_drained = 0;       ///< logical image bytes published
    std::uint64_t segments_reclaimed = 0;
    std::uint64_t compacted_records = 0;   ///< kMigrate records rewritten forward
    std::uint64_t decode_failures = 0;     ///< resident entries that no longer decode
    bool complete = false;                 ///< every resident entry drained
  };
  /// Drain resident commits (oldest first) into the home store, publish each
  /// with a kMigrate record, then reclaim every sealed segment no resident
  /// entry touches.  Safe to call at any time; stops early (complete=false)
  /// when the home store rejects a publish so the next run can retry.  An
  /// entry whose log bytes no longer decode is skipped and stays resident,
  /// counted in decode_failures by every run.
  MigrateReport migrate(const ChargeFn& charge);

  // --- Crash / recovery -----------------------------------------------------
  /// Power-fail: forget every byte of host-side bookkeeping; only the media
  /// bytes survive.  All I/O fails until recover().
  void simulate_crash();
  [[nodiscard]] bool crashed() const { return crashed_; }
  /// Scan the ring, re-chain segments by epoch, replay the longest valid
  /// record prefix, zero everything after it, and reconcile the home store
  /// against the surviving publish records (erasing drained-but-unpublished
  /// orphans so scrub and journal recovery agree).
  JournalRecoveryReport recover(const ChargeFn& charge);

  // --- Fault hooks (src/inject) ---------------------------------------------
  /// Arm a torn append: of the next store()'s record stream, persist only
  /// `at % planned_bytes` bytes, then crash mid-append.
  void tear_next_append(std::uint64_t at);
  /// Flip `count` bytes of the logical append stream starting at
  /// `log_offset % live bytes` (wraps).  Returns false when the log is empty.
  bool corrupt_log(std::uint64_t log_offset, std::uint64_t count,
                   std::byte mask = std::byte{0xFF});
  /// Arm the migrator-window crash: the next migrate() stores one image into
  /// the home store and crashes *before* appending its kMigrate record —
  /// the drained-but-unpublished state recovery must reconcile.
  void crash_between_drain_and_publish();

  // --- Introspection (tests / harness seams) --------------------------------
  /// Every record of the live segments, in append order.  A reclaimed
  /// segment's records leave with it, so the ledger is bounded by the ring.
  [[nodiscard]] const std::vector<JournalRecordInfo>& appended_records() const {
    return ledger_;
  }
  [[nodiscard]] JournalMedia media_snapshot() const { return media_; }
  /// Live bytes of the logical append stream (epoch-ordered used regions).
  [[nodiscard]] std::uint64_t log_live_bytes() const;
  [[nodiscard]] std::uint64_t resident_images() const;
  [[nodiscard]] std::uint64_t migrated_images() const;
  /// Home-store id a migrated image was published under (nullopt while the
  /// image is still log-resident or unknown).
  [[nodiscard]] std::optional<ImageId> home_id_of(ImageId id) const;
  /// (pid, sequence) the journal recorded for an image — preserved across
  /// migration and recovery (kMigrate records republish both).
  [[nodiscard]] std::optional<std::pair<sim::Pid, std::uint64_t>> identity_of(
      ImageId id) const;
  [[nodiscard]] StorageBackend* home() const { return home_; }

 private:
  /// Where one record's bytes live on the media.
  struct RecordLoc {
    std::uint32_t slot = 0;
    std::uint64_t offset = 0;  ///< within the slot
    std::uint64_t bytes = 0;   ///< full envelope size
  };
  struct Entry {
    bool migrated = false;
    ImageId home_id = kBadImageId;
    sim::Pid pid = sim::kNoPid;
    std::uint64_t sequence = 0;
    RecordLoc commit;                                     ///< kCommit record
    std::vector<std::pair<ChunkKey, RecordLoc>> chunks;   ///< closure, ref order
    std::uint64_t group_bytes = 0;   ///< envelope bytes of the commit group
    std::uint64_t epoch_min = 0;     ///< segments the resident group touches
    std::uint64_t epoch_max = 0;
    std::uint64_t migrate_epoch = 0; ///< epoch of the newest kMigrate record
  };
  struct Slot {
    std::uint64_t epoch = 0;  ///< 0 = free
    std::uint64_t used = 0;
    bool sealed = false;
  };
  /// Newest flight record per key (payload cached host-side; the media
  /// bytes are the durable copy recovery replays).
  struct FlightSlot {
    std::vector<std::byte> payload;
    std::uint64_t epoch = 0;  ///< segment the newest record lives in
  };
  struct ParsedRecord {
    JournalRecordType type;
    RecordLoc loc;
    std::vector<std::byte> body;
  };

  [[nodiscard]] std::uint64_t envelope_bytes(std::uint64_t body) const;
  /// Decode a resident entry straight from the log bytes.  Pure function of
  /// the media: it charges nothing and emits nothing.
  [[nodiscard]] std::optional<CheckpointImage> decode_resident(const Entry& entry) const;
  /// Append one record; returns its location or nullopt on log-full / torn
  /// crash.  Handles seal + segment-open rollover internally.
  std::optional<RecordLoc> append_record(JournalRecordType type, ImageId id,
                                         std::span<const std::byte> body,
                                         const ChargeFn& charge);
  /// Serialize a kSegmentOpen{epoch, generation_} envelope — shared by the
  /// fresh-slot path and the recovery re-stamp of the generation floor.
  [[nodiscard]] std::vector<std::byte> open_record_env(std::uint64_t epoch) const;
  /// Write one framed record at the end of `slot`: the single place a record
  /// reaches the media, so every append honours the torn-append hook, enters
  /// the ledger and is charged.  nullopt = torn (the journal has crashed).
  std::optional<RecordLoc> write_envelope(std::uint32_t slot, JournalRecordType type,
                                          ImageId id, std::span<const std::byte> env,
                                          const ChargeFn& charge);
  bool open_fresh_slot(const ChargeFn& charge);
  void charge_sync(const ChargeFn& charge);
  /// Parse the record starting at `offset` in `slot`; nullopt when the bytes
  /// there do not validate (torn, corrupt, or clean zero-filled end).
  [[nodiscard]] std::optional<ParsedRecord> parse_record_at(std::uint32_t slot,
                                                            std::uint64_t offset) const;
  /// Slots holding live bytes, in epoch (append) order.
  [[nodiscard]] std::vector<std::uint32_t> slots_by_epoch() const;
  /// Map a logical append-stream offset to (slot, slot offset).
  [[nodiscard]] std::optional<std::pair<std::uint32_t, std::uint64_t>> locate(
      std::uint64_t log_offset) const;
  void reclaim_segments(MigrateReport& report, const ChargeFn& charge);
  [[nodiscard]] std::uint64_t free_capacity() const;
  void note_counter(const char* name, std::uint64_t delta = 1) const;

  StorageBackend* home_;
  JournalOptions options_;
  JournalMedia media_;
  std::vector<Slot> slots_;
  std::map<ImageId, Entry> entries_;
  std::map<std::uint64_t, FlightSlot> flight_;
  std::vector<JournalRecordInfo> ledger_;
  std::uint64_t next_epoch_ = 1;
  std::int32_t active_slot_ = -1;
  ImageId next_id_ = 1;
  /// High id bits; bumped by every recover() and persisted as the floor
  /// field of every kSegmentOpen record so the bump survives later crashes.
  std::uint64_t generation_ = 0;
  bool crashed_ = false;
  std::uint32_t group_depth_ = 0;
  bool group_sync_pending_ = false;
  std::optional<std::uint64_t> tear_next_append_;
  bool drain_publish_crash_armed_ = false;
};

}  // namespace ckpt::storage
