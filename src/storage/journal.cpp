#include "storage/journal.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>
#include <utility>

#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "util/crc64.hpp"
#include "util/serialize.hpp"

namespace ckpt::storage {
namespace {

/// Device cost model for append/sync/scan charges.
constexpr sim::CostModel kDevice{};

/// 'J' 'R' 'N' 'L' read back as a little-endian u32.
constexpr std::uint32_t kRecordMagic = 0x4C4E524Au;
/// magic u32 + type u8 + body_len u64 + trailing crc64 u64.
constexpr std::uint64_t kEnvelopeOverhead = 4 + 1 + 8 + 8;
/// kSegmentOpen carries {epoch u64, id-generation floor u64}.
constexpr std::uint64_t kOpenRecordBytes = kEnvelopeOverhead + 16;
/// kSeal carries {next epoch u64}.
constexpr std::uint64_t kSealRecordBytes = kEnvelopeOverhead + 8;
/// Ids are (generation << kGenerationShift) | counter; every recover() bumps
/// the generation so ids discarded with a torn tail are never reissued to a
/// different image (a chain holding the old id must not load the new one).
/// The generation in force is stamped into every kSegmentOpen record (and
/// re-stamped by recover()), so the bump survives even a second crash that
/// tears every commit of the new generation — a survivors-only scan would
/// recompute the old generation and reissue its ids.
constexpr std::uint32_t kGenerationShift = 48;

/// Frame `body` as one record: [magic][type][body_len][body][crc64], the CRC
/// covering every preceding byte.
std::vector<std::byte> envelope(JournalRecordType type, std::span<const std::byte> body) {
  util::Serializer env;
  env.reserve(kEnvelopeOverhead + body.size());
  env.put<std::uint32_t>(kRecordMagic);
  env.put<JournalRecordType>(type);
  env.put<std::uint64_t>(body.size());
  env.put_raw(body);
  env.put<std::uint64_t>(util::crc64(env.bytes()));
  return std::move(env).take();
}

bool record_type_known(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(JournalRecordType::kSegmentOpen) &&
         raw <= static_cast<std::uint8_t>(JournalRecordType::kFlightRecord);
}

}  // namespace

const char* to_string(JournalRecordType type) {
  switch (type) {
    case JournalRecordType::kSegmentOpen: return "segment-open";
    case JournalRecordType::kChunk: return "chunk";
    case JournalRecordType::kCommit: return "commit";
    case JournalRecordType::kMigrate: return "migrate";
    case JournalRecordType::kErase: return "erase";
    case JournalRecordType::kSeal: return "seal";
    case JournalRecordType::kFlightRecord: return "flight-record";
  }
  return "?";
}

LogStructuredBackend::LogStructuredBackend(StorageBackend* home, JournalOptions options)
    : home_(home), options_(options) {
  if (home_ == nullptr) throw std::invalid_argument("journal requires a home store");
  if (options_.segments < 2) throw std::invalid_argument("journal needs >= 2 segments");
  if (options_.segment_bytes < 2 * (kOpenRecordBytes + kSealRecordBytes)) {
    throw std::invalid_argument("journal segment_bytes too small");
  }
  media_.segment_bytes = options_.segment_bytes;
  media_.slots.assign(options_.segments,
                      std::vector<std::byte>(options_.segment_bytes, std::byte{0}));
  slots_.assign(options_.segments, Slot{});
}

LogStructuredBackend::LogStructuredBackend(StorageBackend* home, JournalOptions options,
                                           JournalMedia media)
    : LogStructuredBackend(home, options) {
  if (media.segment_bytes != options_.segment_bytes ||
      media.slots.size() != options_.segments) {
    throw std::invalid_argument("adopted journal media does not match the geometry");
  }
  media_ = std::move(media);
  crashed_ = true;  // adopted media is a post-crash image: recover() first
}

std::uint64_t LogStructuredBackend::envelope_bytes(std::uint64_t body) const {
  return kEnvelopeOverhead + body;
}

void LogStructuredBackend::note_counter(const char* name, std::uint64_t delta) const {
  if (options_.observer != nullptr && delta > 0) {
    options_.observer->metrics().add(name, delta);
  }
}

void LogStructuredBackend::charge_sync(const ChargeFn& charge) {
  if (charge) charge(kDevice.disk_latency_ns);
  note_counter("journal.syncs");
}

std::vector<std::uint32_t> LogStructuredBackend::slots_by_epoch() const {
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].epoch != 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return slots_[a].epoch < slots_[b].epoch;
  });
  return order;
}

std::uint64_t LogStructuredBackend::log_live_bytes() const {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.used;
  return total;
}

std::optional<std::pair<std::uint32_t, std::uint64_t>> LogStructuredBackend::locate(
    std::uint64_t log_offset) const {
  for (std::uint32_t index : slots_by_epoch()) {
    if (log_offset < slots_[index].used) return std::make_pair(index, log_offset);
    log_offset -= slots_[index].used;
  }
  return std::nullopt;
}

std::vector<std::byte> LogStructuredBackend::open_record_env(std::uint64_t epoch) const {
  util::Serializer body;
  body.put<std::uint64_t>(epoch);
  body.put<std::uint64_t>(generation_);  // the durable id-generation floor
  return envelope(JournalRecordType::kSegmentOpen, body.bytes());
}

std::optional<LogStructuredBackend::RecordLoc> LogStructuredBackend::write_envelope(
    std::uint32_t slot, JournalRecordType type, ImageId id, std::span<const std::byte> env,
    const ChargeFn& charge) {
  std::byte* at = media_.slots[slot].data() + slots_[slot].used;
  if (tear_next_append_) {
    if (*tear_next_append_ < env.size()) {
      std::memcpy(at, env.data(), *tear_next_append_);
      tear_next_append_.reset();
      simulate_crash();
      return std::nullopt;
    }
    *tear_next_append_ -= env.size();
  }
  const RecordLoc loc{slot, slots_[slot].used, env.size()};
  ledger_.push_back({type, id, slot, loc.offset, log_live_bytes(), loc.bytes});
  std::memcpy(at, env.data(), env.size());
  slots_[slot].used += env.size();
  if (charge) {
    charge(static_cast<SimTime>(static_cast<double>(env.size()) /
                                kDevice.disk_bandwidth_bps * 1e9));
  }
  return loc;
}

bool LogStructuredBackend::open_fresh_slot(const ChargeFn& charge) {
  std::int32_t fresh = -1;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].epoch == 0) {
      fresh = static_cast<std::int32_t>(i);
      break;
    }
  }
  if (fresh < 0) return false;
  const auto slot_index = static_cast<std::uint32_t>(fresh);
  const std::uint64_t epoch = next_epoch_++;
  slots_[slot_index] = Slot{epoch, 0, false};
  active_slot_ = fresh;
  // Not through append_record, which would recurse into the rollover logic
  // this function is the bottom of.
  return write_envelope(slot_index, JournalRecordType::kSegmentOpen, kBadImageId,
                        open_record_env(epoch), charge)
      .has_value();
}

std::optional<LogStructuredBackend::RecordLoc> LogStructuredBackend::append_record(
    JournalRecordType type, ImageId id, std::span<const std::byte> body,
    const ChargeFn& charge) {
  if (crashed_) return std::nullopt;
  const std::vector<std::byte> env = envelope(type, body);
  // Every slot must keep room for its seal record, or the chain pointer to
  // the successor segment could never be written.
  if (env.size() + kOpenRecordBytes + kSealRecordBytes > options_.segment_bytes) {
    return std::nullopt;
  }
  if (active_slot_ < 0 && !open_fresh_slot(charge)) return std::nullopt;
  if (slots_[static_cast<std::uint32_t>(active_slot_)].used + env.size() +
          kSealRecordBytes > options_.segment_bytes) {
    // Seal the active segment and continue in a fresh one — but only when a
    // fresh one exists, so a full log never strands a half-sealed chain.
    bool have_free = false;
    for (const Slot& slot : slots_) have_free = have_free || slot.epoch == 0;
    if (!have_free) return std::nullopt;
    util::Serializer seal_body;
    seal_body.put<std::uint64_t>(next_epoch_);  // epoch the successor will open with
    const auto active = static_cast<std::uint32_t>(active_slot_);
    if (!write_envelope(active, JournalRecordType::kSeal, kBadImageId,
                        envelope(JournalRecordType::kSeal, seal_body.bytes()), charge)) {
      return std::nullopt;
    }
    slots_[active].sealed = true;
    if (!open_fresh_slot(charge)) return std::nullopt;
  }
  return write_envelope(static_cast<std::uint32_t>(active_slot_), type, id, env, charge);
}

std::optional<LogStructuredBackend::ParsedRecord> LogStructuredBackend::parse_record_at(
    std::uint32_t slot, std::uint64_t offset) const {
  const std::vector<std::byte>& bytes = media_.slots[slot];
  if (offset + kEnvelopeOverhead > bytes.size()) return std::nullopt;
  util::Deserializer header(std::span<const std::byte>(bytes).subspan(offset));
  std::uint32_t magic = 0;
  std::uint8_t raw_type = 0;
  std::uint64_t body_len = 0;
  try {
    magic = header.get<std::uint32_t>();
    raw_type = header.get<std::uint8_t>();
    body_len = header.get<std::uint64_t>();
  } catch (const util::SerializeError&) {
    return std::nullopt;
  }
  if (magic != kRecordMagic || !record_type_known(raw_type)) return std::nullopt;
  // A corrupted body_len near 2^64 would wrap `total` (and the subspan
  // arithmetic below); reject any length that cannot fit between here and
  // the end of the slot before doing arithmetic with it.  The subtraction
  // is underflow-safe: the envelope check above guarantees
  // offset + kEnvelopeOverhead <= bytes.size().
  if (body_len > bytes.size() - offset - kEnvelopeOverhead) return std::nullopt;
  const std::uint64_t total = kEnvelopeOverhead + body_len;
  const auto record = std::span<const std::byte>(bytes).subspan(offset, total);
  const std::uint64_t stored_crc =
      util::Deserializer(record.subspan(total - 8)).get<std::uint64_t>();
  if (util::crc64(record.first(total - 8)) != stored_crc) return std::nullopt;
  ParsedRecord parsed;
  parsed.type = static_cast<JournalRecordType>(raw_type);
  parsed.loc = RecordLoc{slot, offset, total};
  const auto body = record.subspan(kEnvelopeOverhead - 8, body_len);
  parsed.body.assign(body.begin(), body.end());
  return parsed;
}

std::uint64_t LogStructuredBackend::free_capacity() const {
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].epoch == 0) {
      total += options_.segment_bytes - (kOpenRecordBytes + kSealRecordBytes);
    } else if (static_cast<std::int32_t>(i) == active_slot_ && !slots_[i].sealed) {
      const std::uint64_t reserved = slots_[i].used + kSealRecordBytes;
      total += reserved < options_.segment_bytes ? options_.segment_bytes - reserved : 0;
    }
  }
  return total;
}

ImageId LogStructuredBackend::store(const CheckpointImage& image, const ChargeFn& charge) {
  if (crashed_) return kBadImageId;
  obs::TraceRecorder* trace = obs::tracer(options_.observer);
  obs::SpanGuard span(trace, "journal.append", "storage", obs::kStorageTrack,
                      {obs::TraceArg::num("pid", static_cast<std::uint64_t>(image.pid))});
  // A fresh table per commit keeps the group self-contained: every chunk the
  // manifest references is a kChunk record inside the same contiguous run,
  // so recovery never needs cross-group state.  Cross-image dedup happens at
  // the home store after migration.
  ChunkTable table;
  const ChunkTable::EncodedImage enc = table.encode(image);
  util::Serializer commit_body;
  const ImageId id = next_id_;
  commit_body.put<ImageId>(id);
  commit_body.put<std::uint64_t>(static_cast<std::uint64_t>(image.pid));
  commit_body.put<std::uint64_t>(image.sequence);
  commit_body.put_bytes(enc.manifest);
  commit_body.put_vector(enc.refs, [](util::Serializer& s, const ChunkKey& key) {
    s.put<std::uint64_t>(key.crc);
    s.put<std::uint32_t>(key.size);
    s.put<std::uint32_t>(key.ordinal);
  });
  std::uint64_t planned = envelope_bytes(commit_body.size());
  for (const ChunkTable::FreshChunk& chunk : enc.fresh) {
    planned += envelope_bytes(8 + 4 + 4 + 8 + 8 + chunk.blob.size());
  }
  if (tear_next_append_ && planned > 0) *tear_next_append_ %= planned;
  if (planned + kSealRecordBytes > free_capacity()) {
    if (options_.migrate_on_demand) migrate(charge);
    if (planned + kSealRecordBytes > free_capacity()) {
      note_counter("journal.full_rejects");
      span.end({obs::TraceArg::str("outcome", "log-full")});
      return kBadImageId;
    }
  }
  Entry entry;
  entry.pid = image.pid;
  entry.sequence = image.sequence;
  bool failed = false;
  for (const ChunkTable::FreshChunk& chunk : enc.fresh) {
    util::Serializer body;
    body.put<std::uint64_t>(chunk.key.crc);
    body.put<std::uint32_t>(chunk.key.size);
    body.put<std::uint32_t>(chunk.key.ordinal);
    body.put<std::uint64_t>(chunk.blob_crc);
    body.put_bytes(chunk.blob);
    const auto loc = append_record(JournalRecordType::kChunk, id, body.bytes(), charge);
    if (!loc) {
      failed = true;
      break;
    }
    entry.chunks.emplace_back(chunk.key, *loc);
  }
  if (!failed) {
    const auto loc = append_record(JournalRecordType::kCommit, id, commit_body.bytes(), charge);
    if (loc) {
      entry.commit = *loc;
    } else {
      failed = true;
    }
  }
  if (failed) {
    // Torn append (or an unexpectedly full log): the half-written group has
    // no commit record, so recovery — and every reader — ignores it.
    span.end({obs::TraceArg::str("outcome", crashed_ ? "torn" : "log-full")});
    return kBadImageId;
  }
  entry.group_bytes = entry.commit.bytes;
  entry.epoch_min = slots_[entry.commit.slot].epoch;
  entry.epoch_max = entry.epoch_min;
  for (const auto& [key, loc] : entry.chunks) {
    entry.group_bytes += loc.bytes;
    entry.epoch_min = std::min(entry.epoch_min, slots_[loc.slot].epoch);
    entry.epoch_max = std::max(entry.epoch_max, slots_[loc.slot].epoch);
  }
  entries_.emplace(id, std::move(entry));
  next_id_ = id + 1;
  if (group_depth_ > 0) {
    group_sync_pending_ = true;
  } else {
    charge_sync(charge);
  }
  note_counter("journal.commits");
  note_counter("journal.append_bytes", planned);
  span.end({obs::TraceArg::num("id", id), obs::TraceArg::num("bytes", planned),
            obs::TraceArg::num("chunks", enc.fresh.size())});
  return id;
}

bool LogStructuredBackend::append_flight_record(std::uint64_t key,
                                                std::span<const std::byte> payload,
                                                const ChargeFn& charge) {
  if (crashed_) return false;
  obs::TraceRecorder* trace = obs::tracer(options_.observer);
  obs::SpanGuard span(trace, "journal.flight", "storage", obs::kStorageTrack,
                      {obs::TraceArg::num("key", key)});
  util::Serializer body;
  body.put<std::uint64_t>(key);
  body.put_bytes(payload);
  const std::uint64_t planned = envelope_bytes(body.size());
  if (tear_next_append_ && planned > 0) *tear_next_append_ %= planned;
  if (planned + kSealRecordBytes > free_capacity()) {
    if (options_.migrate_on_demand) migrate(charge);
    if (planned + kSealRecordBytes > free_capacity()) {
      note_counter("journal.full_rejects");
      span.end({obs::TraceArg::str("outcome", "log-full")});
      return false;
    }
  }
  const auto loc =
      append_record(JournalRecordType::kFlightRecord, kBadImageId, body.bytes(), charge);
  if (!loc) {
    // Torn append: the half-written record fails its CRC on recovery, so the
    // previously persisted flight record for this key stays authoritative.
    span.end({obs::TraceArg::str("outcome", crashed_ ? "torn" : "log-full")});
    return false;
  }
  FlightSlot& slot = flight_[key];
  slot.payload.assign(payload.begin(), payload.end());
  slot.epoch = slots_[loc->slot].epoch;
  if (group_depth_ > 0) {
    group_sync_pending_ = true;
  } else {
    charge_sync(charge);
  }
  note_counter("journal.flight_appends");
  note_counter("journal.append_bytes", planned);
  span.end({obs::TraceArg::num("bytes", planned)});
  return true;
}

std::vector<std::uint64_t> LogStructuredBackend::flight_keys() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(flight_.size());
  for (const auto& [key, slot] : flight_) keys.push_back(key);
  return keys;
}

std::optional<std::vector<std::byte>> LogStructuredBackend::flight_record_of(
    std::uint64_t key) const {
  const auto it = flight_.find(key);
  if (it == flight_.end()) return std::nullopt;
  return it->second.payload;
}

std::optional<CheckpointImage> LogStructuredBackend::decode_resident(const Entry& entry) const {
  const auto commit = parse_record_at(entry.commit.slot, entry.commit.offset);
  if (!commit || commit->type != JournalRecordType::kCommit) return std::nullopt;
  std::vector<std::byte> manifest;
  try {
    util::Deserializer body(commit->body);
    body.get<ImageId>();
    body.get<std::uint64_t>();  // pid
    body.get<std::uint64_t>();  // sequence
    manifest = body.get_bytes();
  } catch (const util::SerializeError&) {
    return std::nullopt;
  }
  const ChunkTable::ChunkFetch fetch =
      [&](const ChunkKey& key, std::uint64_t expected_blob_crc)
      -> std::optional<std::vector<std::byte>> {
    for (const auto& [chunk_key, loc] : entry.chunks) {
      if (chunk_key != key) continue;
      const auto record = parse_record_at(loc.slot, loc.offset);
      if (!record || record->type != JournalRecordType::kChunk) return std::nullopt;
      try {
        util::Deserializer body(record->body);
        const ChunkKey stored{body.get<std::uint64_t>(), body.get<std::uint32_t>(),
                              body.get<std::uint32_t>()};
        const auto blob_crc = body.get<std::uint64_t>();
        auto blob = body.get_bytes();
        if (stored != key || blob_crc != expected_blob_crc) return std::nullopt;
        return blob;
      } catch (const util::SerializeError&) {
        return std::nullopt;
      }
    }
    return std::nullopt;
  };
  return ChunkTable::decode(manifest, fetch);
}

std::optional<CheckpointImage> LogStructuredBackend::load(ImageId id, const ChargeFn& charge) {
  if (crashed_) return std::nullopt;
  const auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  if (it->second.migrated) return home_->load(it->second.home_id, charge);
  if (charge) charge(kDevice.disk_cost(it->second.group_bytes));
  return decode_resident(it->second);
}

bool LogStructuredBackend::erase(ImageId id) {
  if (crashed_) return false;
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  util::Serializer body;
  body.put<ImageId>(id);
  if (!append_record(JournalRecordType::kErase, id, body.bytes(), ChargeFn{})) {
    return false;
  }
  if (it->second.migrated) home_->erase(it->second.home_id);
  entries_.erase(it);
  return true;
}

std::vector<ImageId> LogStructuredBackend::list() const {
  std::vector<ImageId> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  return ids;
}

StorageLocality LogStructuredBackend::locality() const { return home_->locality(); }

bool LogStructuredBackend::reachable() const { return !crashed_; }

std::uint64_t LogStructuredBackend::stored_bytes() const {
  return log_live_bytes() + home_->stored_bytes();
}

GcReport LogStructuredBackend::gc(const ChargeFn& charge) {
  if (auto* reclaimable = dynamic_cast<ChunkReclaimable*>(home_)) {
    return reclaimable->gc(charge);
  }
  return {};
}

void LogStructuredBackend::begin_group() { ++group_depth_; }

SimTime LogStructuredBackend::end_group(const ChargeFn& charge) {
  if (group_depth_ > 0) --group_depth_;
  if (group_depth_ > 0 || !group_sync_pending_) return 0;
  group_sync_pending_ = false;
  charge_sync(charge);
  return kDevice.disk_latency_ns;
}

std::uint64_t LogStructuredBackend::resident_images() const {
  std::uint64_t count = 0;
  for (const auto& [id, entry] : entries_) count += entry.migrated ? 0 : 1;
  return count;
}

std::uint64_t LogStructuredBackend::migrated_images() const {
  return entries_.size() - resident_images();
}

std::optional<ImageId> LogStructuredBackend::home_id_of(ImageId id) const {
  const auto it = entries_.find(id);
  if (it == entries_.end() || !it->second.migrated) return std::nullopt;
  return it->second.home_id;
}

std::optional<std::pair<sim::Pid, std::uint64_t>> LogStructuredBackend::identity_of(
    ImageId id) const {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  return std::make_pair(it->second.pid, it->second.sequence);
}

void LogStructuredBackend::reclaim_segments(MigrateReport& report, const ChargeFn& charge) {
  // Oldest-first: a segment is reclaimable once no resident commit group
  // touches it; migrated entries whose publish record lives there are first
  // compacted forward so the mapping survives the wipe.
  while (true) {
    const std::vector<std::uint32_t> order = slots_by_epoch();
    if (order.size() <= 1) return;  // never reclaim the only (active) segment
    const std::uint32_t victim = order.front();
    if (!slots_[victim].sealed) return;
    const std::uint64_t epoch = slots_[victim].epoch;
    for (const auto& [id, entry] : entries_) {
      if (!entry.migrated && entry.epoch_min <= epoch && epoch <= entry.epoch_max) {
        return;  // resident data still lives here
      }
    }
    bool compacted_all = true;
    for (auto& [id, entry] : entries_) {
      if (!entry.migrated || entry.migrate_epoch != epoch) continue;
      util::Serializer body;
      body.put<ImageId>(id);
      body.put<ImageId>(entry.home_id);
      body.put<std::uint64_t>(static_cast<std::uint64_t>(entry.pid));
      body.put<std::uint64_t>(entry.sequence);
      const auto loc = append_record(JournalRecordType::kMigrate, id, body.bytes(), charge);
      if (!loc) {
        compacted_all = false;  // log too full to compact; try again later
        break;
      }
      entry.migrate_epoch = slots_[loc->slot].epoch;
      ++report.compacted_records;
    }
    // Flight records ride the same compaction: the newest record per key is
    // the only live one, so it hops forward before its segment is wiped.
    for (auto& [key, slot] : flight_) {
      if (!compacted_all) break;
      if (slot.epoch != epoch) continue;
      util::Serializer body;
      body.put<std::uint64_t>(key);
      body.put_bytes(slot.payload);
      const auto loc =
          append_record(JournalRecordType::kFlightRecord, kBadImageId, body.bytes(), charge);
      if (!loc) {
        compacted_all = false;
        break;
      }
      slot.epoch = slots_[loc->slot].epoch;
      ++report.compacted_records;
    }
    if (!compacted_all || crashed_) return;
    std::fill(media_.slots[victim].begin(), media_.slots[victim].end(), std::byte{0});
    slots_[victim] = Slot{};
    // The wiped records leave the ledger too, so it holds live segments
    // only instead of one entry per record ever appended.
    std::erase_if(ledger_, [victim](const JournalRecordInfo& r) { return r.slot == victim; });
    ++report.segments_reclaimed;
    note_counter("journal.segments_reclaimed");
  }
}

LogStructuredBackend::MigrateReport LogStructuredBackend::migrate(const ChargeFn& charge) {
  MigrateReport report;
  if (crashed_) return report;
  obs::TraceRecorder* trace = obs::tracer(options_.observer);
  obs::SpanGuard span(trace, "journal.migrate", "storage", obs::kStorageTrack,
                      {obs::TraceArg::num("resident", resident_images())});
  report.complete = true;
  bool published = false;
  for (auto& [id, entry] : entries_) {
    if (entry.migrated) continue;
    // Decoding is a pure function of the log bytes: it charges nothing and
    // emits nothing.
    const std::optional<CheckpointImage> image = decode_resident(entry);
    if (!image) {
      ++report.decode_failures;
      report.complete = false;
      continue;
    }
    if (charge) charge(kDevice.disk_cost(entry.group_bytes));
    const ImageId home_id = home_->store(*image, charge);
    if (home_id == kBadImageId) {
      report.complete = false;  // home store refused; retry on the next drain
      break;
    }
    if (drain_publish_crash_armed_) {
      // The injector window: the image is durable in the home store but its
      // kMigrate record never lands — recovery must reconcile the orphan.
      drain_publish_crash_armed_ = false;
      simulate_crash();
      report.complete = false;
      span.end({obs::TraceArg::str("outcome", "crashed-before-publish")});
      return report;
    }
    util::Serializer body;
    body.put<ImageId>(id);
    body.put<ImageId>(home_id);
    body.put<std::uint64_t>(static_cast<std::uint64_t>(entry.pid));
    body.put<std::uint64_t>(entry.sequence);
    const auto loc = append_record(JournalRecordType::kMigrate, id, body.bytes(), charge);
    if (!loc) {
      // No room (or torn) for the publish record: undo the home copy so a
      // crash cannot leave a mapping that exists nowhere in the log.
      home_->erase(home_id);
      report.complete = false;
      break;
    }
    entry.migrated = true;
    entry.home_id = home_id;
    entry.chunks.clear();
    entry.chunks.shrink_to_fit();
    entry.migrate_epoch = slots_[loc->slot].epoch;
    ++report.images_drained;
    report.bytes_drained += image->payload_bytes();
    published = true;
  }
  if (published) charge_sync(charge);
  if (!crashed_) reclaim_segments(report, charge);
  note_counter("journal.migrated_images", report.images_drained);
  note_counter("journal.migrated_bytes", report.bytes_drained);
  span.end({obs::TraceArg::num("drained", report.images_drained),
            obs::TraceArg::num("reclaimed", report.segments_reclaimed)});
  return report;
}

void LogStructuredBackend::simulate_crash() {
  entries_.clear();
  flight_.clear();
  ledger_.clear();
  slots_.assign(options_.segments, Slot{});
  active_slot_ = -1;
  next_epoch_ = 1;
  group_depth_ = 0;
  group_sync_pending_ = false;
  tear_next_append_.reset();
  drain_publish_crash_armed_ = false;
  crashed_ = true;
}

void LogStructuredBackend::tear_next_append(std::uint64_t at) { tear_next_append_ = at; }

bool LogStructuredBackend::corrupt_log(std::uint64_t log_offset, std::uint64_t count,
                                       std::byte mask) {
  const std::uint64_t total = log_live_bytes();
  if (total == 0 || count == 0) return false;
  log_offset %= total;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto where = locate((log_offset + i) % total);
    if (!where) return false;
    media_.slots[where->first][where->second] ^= mask;
  }
  return true;
}

void LogStructuredBackend::crash_between_drain_and_publish() {
  drain_publish_crash_armed_ = true;
}

JournalRecoveryReport LogStructuredBackend::recover(const ChargeFn& charge) {
  JournalRecoveryReport report;
  // Forget everything host-side and rebuild from the media bytes alone.
  simulate_crash();
  if (charge) {
    charge(kDevice.disk_cost(options_.segment_bytes * options_.segments));
  }

  struct SlotScan {
    bool empty = true;
    bool head_valid = false;
    bool damaged = false;
    bool sealed = false;
    std::uint64_t epoch = 0;
    std::uint64_t id_floor = 0;  ///< generation floor stamped into the head
    std::uint64_t next_epoch = 0;
    std::uint64_t valid_bytes = 0;
    std::uint64_t extent = 0;  ///< 1 + index of the last nonzero byte
    std::vector<ParsedRecord> records;
  };
  std::vector<SlotScan> scans(slots_.size());
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    SlotScan& scan = scans[i];
    const std::vector<std::byte>& bytes = media_.slots[i];
    for (std::size_t b = bytes.size(); b > 0; --b) {
      if (bytes[b - 1] != std::byte{0}) {
        scan.extent = b;
        break;
      }
    }
    if (scan.extent == 0) continue;
    scan.empty = false;
    ++report.slots_scanned;
    std::uint64_t off = 0;
    while (true) {
      auto record = parse_record_at(i, off);
      if (!record) {
        scan.damaged = off < scan.extent;  // nonzero bytes past the valid prefix
        break;
      }
      if (off == 0) {
        if (record->type != JournalRecordType::kSegmentOpen || record->body.size() != 16) {
          scan.damaged = true;
          break;
        }
        util::Deserializer head(record->body);
        scan.epoch = head.get<std::uint64_t>();
        scan.id_floor = head.get<std::uint64_t>();
        scan.head_valid = scan.epoch != 0;
        if (!scan.head_valid) {
          scan.damaged = true;
          break;
        }
      } else if (record->type == JournalRecordType::kSegmentOpen) {
        scan.damaged = true;  // an open record anywhere but the head is garbage
        break;
      }
      off += record->loc.bytes;
      scan.valid_bytes = off;
      const bool is_seal = record->type == JournalRecordType::kSeal;
      if (is_seal) {
        if (record->body.size() != 8) {
          scan.sealed = false;
          scan.damaged = true;
          scan.records.push_back(std::move(*record));
          break;
        }
        scan.next_epoch = util::Deserializer(record->body).get<std::uint64_t>();
        scan.sealed = true;
      }
      scan.records.push_back(std::move(*record));
      if (is_seal) break;
    }
  }

  std::map<std::uint64_t, std::uint32_t> by_epoch;
  bool any_head_damaged = false;
  for (std::uint32_t i = 0; i < scans.size(); ++i) {
    if (scans[i].empty) continue;
    if (!scans[i].head_valid) {
      any_head_damaged = true;
    } else {
      by_epoch[scans[i].epoch] = i;
    }
  }

  // Walk the seal chain from the lowest epoch, replaying records until the
  // first anomaly.  A slot whose head is unreadable is position-ambiguous:
  // if the chain of valid slots ends at an *unsealed* (active) slot, the
  // damaged slot can only be the oldest segment — and a log whose head is
  // gone proves nothing about any later record, so nothing is recovered.
  std::vector<std::uint32_t> chain;
  bool stopped_torn = false;
  bool discard_all = by_epoch.empty();
  if (!by_epoch.empty()) {
    std::uint64_t epoch = by_epoch.begin()->first;
    while (true) {
      const SlotScan& scan = scans[by_epoch.at(epoch)];
      chain.push_back(by_epoch.at(epoch));
      if (scan.damaged) {
        stopped_torn = true;
        break;
      }
      if (!scan.sealed) {
        if (any_head_damaged) discard_all = true;
        break;
      }
      const auto next = by_epoch.find(scan.next_epoch);
      if (next == by_epoch.end() || scans[next->second].epoch <= epoch) {
        stopped_torn = true;  // successor segment lost
        break;
      }
      epoch = scan.next_epoch;
    }
  }
  if (discard_all) chain.clear();

  // Replay: chunk records are pending until the next commit record adopts
  // them; a commit-less group at the tail is exactly a torn commit.
  std::map<ChunkKey, std::pair<RecordLoc, std::uint64_t>> pending;
  for (const std::uint32_t index : chain) {
    const SlotScan& scan = scans[index];
    for (const ParsedRecord& record : scan.records) {
      ++report.records_replayed;
      try {
        util::Deserializer body(record.body);
        switch (record.type) {
          case JournalRecordType::kSegmentOpen:
          case JournalRecordType::kSeal:
            break;
          case JournalRecordType::kChunk: {
            const ChunkKey key{body.get<std::uint64_t>(), body.get<std::uint32_t>(),
                               body.get<std::uint32_t>()};
            const auto blob_crc = body.get<std::uint64_t>();
            pending[key] = {record.loc, blob_crc};
            break;
          }
          case JournalRecordType::kCommit: {
            Entry entry;
            const ImageId id = body.get<ImageId>();
            entry.pid = static_cast<sim::Pid>(body.get<std::uint64_t>());
            entry.sequence = body.get<std::uint64_t>();
            body.get_bytes();  // manifest stays on media; re-read at load
            const auto refs = body.get_vector<ChunkKey>([](util::Deserializer& d) {
              return ChunkKey{d.get<std::uint64_t>(), d.get<std::uint32_t>(),
                              d.get<std::uint32_t>()};
            });
            entry.commit = record.loc;
            entry.group_bytes = record.loc.bytes;
            entry.epoch_min = scans[record.loc.slot].epoch;
            entry.epoch_max = entry.epoch_min;
            bool complete = true;
            for (const ChunkKey& key : refs) {
              const auto found = pending.find(key);
              if (found == pending.end()) {
                complete = false;
                break;
              }
              entry.chunks.emplace_back(key, found->second.first);
              entry.group_bytes += found->second.first.bytes;
              const std::uint64_t chunk_epoch = scans[found->second.first.slot].epoch;
              entry.epoch_min = std::min(entry.epoch_min, chunk_epoch);
              entry.epoch_max = std::max(entry.epoch_max, chunk_epoch);
            }
            pending.clear();
            if (complete) entries_[id] = std::move(entry);
            break;
          }
          case JournalRecordType::kMigrate: {
            const ImageId id = body.get<ImageId>();
            const ImageId home_id = body.get<ImageId>();
            Entry entry;
            entry.migrated = true;
            entry.home_id = home_id;
            entry.pid = static_cast<sim::Pid>(body.get<std::uint64_t>());
            entry.sequence = body.get<std::uint64_t>();
            entry.migrate_epoch = scan.epoch;
            entries_[id] = std::move(entry);
            break;
          }
          case JournalRecordType::kErase:
            entries_.erase(body.get<ImageId>());
            break;
          case JournalRecordType::kFlightRecord: {
            // Newest record per key wins; flight records interleave freely
            // inside commit groups, so they must not disturb `pending`.
            const std::uint64_t key = body.get<std::uint64_t>();
            FlightSlot& slot = flight_[key];
            slot.payload = body.get_bytes();
            slot.epoch = scans[record.loc.slot].epoch;
            break;
          }
        }
      } catch (const util::SerializeError&) {
        // A record whose envelope validated but whose body does not parse is
        // still an anomaly: treat like any other damaged record (skip; the
        // envelope CRC makes this effectively unreachable).
        report.tail_torn = true;
      }
    }
  }

  // Adopt slot bookkeeping for the replayed prefix, zero everything else.
  std::set<std::uint32_t> kept(chain.begin(), chain.end());
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    const SlotScan& scan = scans[i];
    if (kept.count(i) != 0) {
      slots_[i] = Slot{scan.epoch, scan.valid_bytes, scan.sealed};
      if (scan.valid_bytes < media_.slots[i].size()) {
        report.bytes_discarded += scan.extent > scan.valid_bytes
                                      ? scan.extent - scan.valid_bytes
                                      : 0;
        std::fill(media_.slots[i].begin() +
                      static_cast<std::ptrdiff_t>(scan.valid_bytes),
                  media_.slots[i].end(), std::byte{0});
      }
    } else {
      report.bytes_discarded += scan.extent;
      if (!scan.empty) {
        std::fill(media_.slots[i].begin(), media_.slots[i].end(), std::byte{0});
      }
    }
  }
  if (!chain.empty()) {
    const std::uint32_t last = chain.back();
    if (!slots_[last].sealed) {
      active_slot_ = static_cast<std::int32_t>(last);
      next_epoch_ = scans[last].epoch + 1;
    } else {
      // The chain ends at a seal whose successor was lost: honor the pointer
      // so the next opened segment carries the epoch the seal promised.
      active_slot_ = -1;
      next_epoch_ = scans[last].next_epoch;
    }
  } else {
    active_slot_ = -1;
    next_epoch_ = 1;
  }

  // Rebuild the append ledger for the surviving prefix.
  std::uint64_t log_offset = 0;
  for (const std::uint32_t index : chain) {
    for (const ParsedRecord& record : scans[index].records) {
      ledger_.push_back({record.type, kBadImageId, record.loc.slot, record.loc.offset,
                         log_offset, record.loc.bytes});
      log_offset += record.loc.bytes;
    }
  }

  // Ids are never reissued across a recovery: bump the generation past every
  // id that could ever have been handed out from this media image.  The
  // survivors alone are not enough — a generation whose every commit was
  // torn by a second crash leaves no surviving id, so the floor stamped
  // into the segment-open records is consulted too (any parsed head counts,
  // even from slots the prefix scan is about to discard).
  std::uint64_t floor = 0;
  for (const SlotScan& scan : scans) floor = std::max(floor, scan.id_floor);
  std::uint64_t max_id = 0;
  for (const auto& [id, entry] : entries_) max_id = std::max(max_id, id);
  generation_ = std::max(floor, max_id >> kGenerationShift) + 1;
  next_id_ = (generation_ << kGenerationShift) | 1;
  // Re-stamp the surviving open records with the bumped generation before
  // any new-generation id can be issued: the floor is only as durable as
  // the records that carry it, so recovery republishes it across the whole
  // surviving chain (losing it would take damage that discards the chain —
  // and with it every commit the retired generations could collide with).
  for (const std::uint32_t index : chain) {
    const std::vector<std::byte> env = open_record_env(scans[index].epoch);
    std::memcpy(media_.slots[index].data(), env.data(), env.size());
  }

  report.tail_torn = report.tail_torn || stopped_torn || any_head_damaged;
  report.flight_recovered = flight_.size();
  for (const auto& [id, entry] : entries_) {
    report.recovered_ids.push_back(id);
    ++(entry.migrated ? report.migrated_recovered : report.resident_recovered);
  }

  crashed_ = false;

  // Reconcile the home store: the journal owns its id space, so any home
  // image no surviving kMigrate record references is a drained-but-never-
  // published orphan (the crash-between-drain-and-publish window) — erase it
  // before scrub can count it as committed data the journal disowns.
  std::set<ImageId> published;
  for (const auto& [id, entry] : entries_) {
    if (entry.migrated) published.insert(entry.home_id);
  }
  for (const ImageId home_id : home_->list()) {
    if (published.count(home_id) == 0 && home_->erase(home_id)) {
      ++report.orphans_reclaimed;
    }
  }

  note_counter("journal.recoveries");
  note_counter("journal.recovered_images", report.recovered_ids.size());
  note_counter("journal.discarded_bytes", report.bytes_discarded);
  note_counter("journal.orphans_reclaimed", report.orphans_reclaimed);
  if (options_.observer != nullptr) {
    options_.observer->trace().instant(
        "journal.recover", "storage", obs::kStorageTrack,
        {obs::TraceArg::num("recovered", report.recovered_ids.size()),
         obs::TraceArg::num("discarded_bytes", report.bytes_discarded),
         obs::TraceArg::num("torn", report.tail_torn ? 1 : 0)});
  }
  return report;
}

}  // namespace ckpt::storage
