#include "storage/replicated.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "obs/observer.hpp"
#include "util/crc64.hpp"
#include "util/serialize.hpp"
#include "util/threadpool.hpp"

namespace ckpt::storage {

const char* to_string(StoreErrorKind kind) {
  switch (kind) {
    case StoreErrorKind::kNone: return "none";
    case StoreErrorKind::kUnreachable: return "unreachable";
    case StoreErrorKind::kRejected: return "rejected";
    case StoreErrorKind::kTornWrite: return "torn-write";
    case StoreErrorKind::kCorrupt: return "corrupt";
    case StoreErrorKind::kMissing: return "missing";
    case StoreErrorKind::kNoQuorum: return "no-quorum";
  }
  return "?";
}

std::string ScrubReport::summary() const {
  std::ostringstream out;
  out << entries << " entries";
  if (chunks > 0) out << " + " << chunks << " chunks";
  out << " / " << copies_checked << " copies audited: " << corrupt_found << " corrupt, "
      << missing_found << " missing, " << repaired << " repaired, " << unrepairable
      << " unrepairable, " << skipped_unreachable << " unreachable";
  return out.str();
}

ReplicatedStore::ReplicatedStore(std::vector<BlobStoreBackend*> replicas,
                                 ReplicatedOptions options)
    : replicas_(std::move(replicas)), options_(options) {
  if (replicas_.empty()) {
    throw std::invalid_argument("ReplicatedStore: at least one replica required");
  }
  for (BlobStoreBackend* replica : replicas_) {
    if (replica == nullptr) throw std::invalid_argument("ReplicatedStore: null replica");
  }
  if (options_.write_quorum == 0 || options_.write_quorum > replicas_.size()) {
    throw std::invalid_argument("ReplicatedStore: write_quorum out of range");
  }
  const std::unordered_set<const BlobStoreBackend*> distinct(replicas_.begin(),
                                                             replicas_.end());
  distinct_replicas_ = distinct.size() == replicas_.size();
  if (options_.dedup) {
    // The table is pure host-side identity bookkeeping shared by all
    // replicas; metrics go through options_.observer from this layer.
    table_ = std::make_unique<ChunkTable>();
  }
}

ReplicatedStore::ReplicaStage ReplicatedStore::stage_replica(
    std::size_t r, const std::vector<std::byte>& manifest, std::uint64_t manifest_crc,
    const std::vector<ChunkKey>& missing, std::uint64_t salt) {
  BlobStoreBackend& replica = *replicas_[r];
  ReplicaStage stage;
  const ChargeFn charge = [&stage](SimTime t) {
    stage.spent += t;
    stage.charges.push_back(t);
  };
  // Stage + read-back verify one blob, retrying per policy.
  const auto stage_blob = [&](const std::vector<std::byte>& blob, std::uint64_t crc) {
    Retrier retrier(options_.retry, salt ^ (r + 1));
    while (true) {
      StoreErrorKind attempt_error;
      if (!replica.reachable()) {
        attempt_error = StoreErrorKind::kUnreachable;
      } else {
        const ImageId id = replica.put_raw(blob, charge);
        if (id == kBadImageId) {
          // put_raw fails for exactly two reasons on a reachable replica: an
          // armed rejection fault, or an outage that began mid-call.
          attempt_error = replica.reachable() ? StoreErrorKind::kRejected
                                              : StoreErrorKind::kUnreachable;
        } else {
          // Read-back verify in place: the simulated media is read in full
          // (same charge as read_blob) but no host-side copy is made.
          const auto staged_crc = replica.blob_crc64(id, charge);
          if (staged_crc == crc) return id;
          // Torn or vanished: roll the stage back so nothing half-written
          // survives under a live id.
          replica.erase(id);
          attempt_error = staged_crc.has_value() ? StoreErrorKind::kTornWrite
                                                 : StoreErrorKind::kMissing;
        }
      }
      stage.error = attempt_error;
      stage.retry_marks.emplace_back(stage.spent, attempt_error);
      const std::optional<SimTime> delay = retrier.next_delay();
      if (!delay.has_value()) return kBadImageId;
      charge(*delay);
      ++stage.retries;
    }
  };

  // Chunks first (closure order), manifest last — a reader can only see the
  // manifest once every chunk it references is durable on this replica.
  for (const ChunkKey& key : missing) {
    const ImageId id = stage_blob(table_->blob(key), table_->blob_crc(key));
    if (id == kBadImageId) break;
    stage.chunks.emplace_back(key, id);
  }
  if (stage.chunks.size() == missing.size()) {
    stage.manifest_id = stage_blob(manifest, manifest_crc);
  }
  if (stage.manifest_id == kBadImageId) {
    for (auto it = stage.chunks.rbegin(); it != stage.chunks.rend(); ++it) {
      replica.erase(it->second);
    }
    stage.chunks.clear();
  }
  return stage;
}

void ReplicatedStore::replay(const ReplicaStage& stage, const ChargeFn& charge,
                             StoreReceipt& receipt) {
  if (charge) {
    for (SimTime t : stage.charges) charge(t);
  }
  receipt.retries += stage.retries;
  if (stage.error != StoreErrorKind::kNone) receipt.last_error = stage.error;
}

void ReplicatedStore::emit_stage(std::size_t r, SimTime base, const ReplicaStage& stage) {
  obs::Observer* observer = options_.observer;
  if (observer == nullptr) return;
  obs::TraceRecorder& trace = observer->trace();
  std::vector<obs::TraceArg> begin_args{obs::TraceArg::num("replica", r)};
  if (table_ != nullptr) begin_args.push_back(obs::TraceArg::num("chunks", stage.chunks.size()));
  trace.begin_at(base, "replica-stage", "storage", obs::kStorageTrack, std::move(begin_args));
  std::uint64_t outages = 0;
  for (const auto& [offset, kind] : stage.retry_marks) {
    if (kind == StoreErrorKind::kUnreachable) ++outages;
    trace.instant_at(base + offset, "stage-retry", "storage", obs::kStorageTrack,
                     {obs::TraceArg::num("replica", r),
                      obs::TraceArg::str("error", to_string(kind))});
  }
  const bool verified = stage.manifest_id != kBadImageId;
  std::vector<obs::TraceArg> end_args{
      obs::TraceArg::num("replica", r),
      obs::TraceArg::str("outcome", verified ? "verified" : "failed"),
      obs::TraceArg::num("retries", stage.retry_marks.size())};
  if (!verified && !stage.retry_marks.empty()) {
    end_args.push_back(obs::TraceArg::str("error", to_string(stage.retry_marks.back().second)));
  }
  trace.end_at(base + stage.spent, "replica-stage", obs::kStorageTrack, std::move(end_args));
  if (outages > 0) observer->metrics().add("store.replica_outages", outages);
}

StoreReceipt ReplicatedStore::publish(StoreReceipt receipt, std::vector<ReplicaStage>& stages,
                                      const Publish& what) {
  obs::Observer* observer = options_.observer;
  const bool streamed = what.stream_chunks.has_value();
  // Durable bytes this commit added: the image blob, or in dedup mode the
  // manifest plus the fresh chunks.
  const std::uint64_t committed_bytes = what.enc != nullptr ? what.enc->stored_bytes : what.bytes;
  std::map<std::size_t, ImageId> placements;
  for (std::size_t r = 0; r < stages.size(); ++r) {
    if (stages[r].manifest_id != kBadImageId) placements.emplace(r, stages[r].manifest_id);
  }

  // Short of the write quorum: roll every replica's staged blobs back
  // (manifest, then its chunks newest-first) so a failed store leaves no
  // trace, and forget the encode.
  if (placements.size() < options_.write_quorum) {
    for (std::size_t r = 0; r < stages.size(); ++r) {
      if (stages[r].manifest_id == kBadImageId) continue;
      replicas_[r]->erase(stages[r].manifest_id);
      for (auto it = stages[r].chunks.rbegin(); it != stages[r].chunks.rend(); ++it) {
        replicas_[r]->erase(it->second);
      }
    }
    if (what.enc != nullptr) table_->abort(*what.enc);
    if (receipt.last_error == StoreErrorKind::kNone) {
      receipt.last_error = StoreErrorKind::kNoQuorum;
    }
    if (observer != nullptr) {
      if (streamed) {
        observer->trace().end("stream", obs::kStorageTrack,
                              {obs::TraceArg::str("outcome", "failed"),
                               obs::TraceArg::str("error", to_string(receipt.last_error))});
      } else {
        observer->trace().instant(
            "commit-failed", "storage", obs::kStorageTrack,
            {obs::TraceArg::str("error", to_string(receipt.last_error)),
             obs::TraceArg::num("staged", placements.size()),
             obs::TraceArg::num("quorum", options_.write_quorum)});
      }
      observer->metrics().add("store.commit_failed");
      observer->metrics().add("store.stage_retries", receipt.retries);
    }
    return receipt;
  }

  // The commit point: the manifest entry.  A replica whose manifest did not
  // verify keeps no placement; scrub re-replicates it.
  receipt.id = next_id_++;
  receipt.committed_replicas = static_cast<std::uint32_t>(placements.size());
  std::vector<ChunkKey> closure;
  if (what.enc != nullptr) {
    for (std::size_t r = 0; r < stages.size(); ++r) {
      if (stages[r].manifest_id == kBadImageId) continue;
      for (const auto& [key, physical] : stages[r].chunks) {
        chunk_placements_[key].emplace(r, physical);
      }
    }
    table_->commit(*what.enc);
    closure = what.enc->refs;
  }
  manifest_.emplace(receipt.id,
                    Entry{what.crc, what.bytes, std::move(placements), std::move(closure)});
  if (observer == nullptr) return receipt;
  if (streamed) {
    observer->trace().end("stream", obs::kStorageTrack,
                          {obs::TraceArg::num("id", receipt.id),
                           obs::TraceArg::num("bytes", what.bytes),
                           obs::TraceArg::num("chunks", *what.stream_chunks)});
  }
  observer->trace().instant("commit", "storage", obs::kStorageTrack,
                            {obs::TraceArg::num("id", receipt.id),
                             obs::TraceArg::num("replicas", receipt.committed_replicas),
                             obs::TraceArg::num("bytes", committed_bytes)});
  obs::MetricsRegistry& metrics = observer->metrics();
  metrics.add("store.committed");
  if (streamed) {
    metrics.add("store.streamed");
    metrics.add("store.stream_chunks", *what.stream_chunks);
  }
  metrics.add("store.stage_retries", receipt.retries);
  metrics.add("store.bytes_committed", committed_bytes);
  if (what.enc != nullptr) {
    const ChunkTable::EncodedImage& enc = *what.enc;
    metrics.add("dedup.images");
    metrics.add("dedup.chunks_new", enc.fresh.size());
    metrics.add("dedup.chunks_reused", enc.reused_refs);
    metrics.add("dedup.delta_chunks", enc.delta_fresh);
    metrics.add("dedup.bytes_logical", enc.logical_bytes);
    metrics.add("dedup.bytes_stored", enc.stored_bytes);
    const std::uint64_t permille =
        enc.logical_bytes == 0 ? 1000 : enc.stored_bytes * 1000 / enc.logical_bytes;
    metrics.observe("dedup.stored_permille", permille,
                    obs::MetricsRegistry::permille_bounds());
    metrics.set_gauge("dedup.chunks_live", static_cast<std::int64_t>(table_->live_count()));
  }
  return receipt;
}

StoreReceipt ReplicatedStore::store_verbose(const CheckpointImage& image,
                                            const ChargeFn& charge) {
  StoreReceipt receipt;
  obs::TraceRecorder* trace = obs::tracer(options_.observer);

  // Encode.  A flat commit is a placement with no chunks: its "manifest" is
  // the serialized image.  A dedup commit's manifest references content
  // chunks, each staged only on the replicas still missing it.
  if (trace != nullptr) {
    trace->begin("serialize", "storage", obs::kStorageTrack,
                 {obs::TraceArg::num("replicas", replicas_.size())});
  }
  std::optional<ChunkTable::EncodedImage> enc;
  std::vector<std::byte> blob;
  if (table_ != nullptr) {
    enc = table_->encode(image);
  } else {
    blob = options_.pool != nullptr ? image.serialize(*options_.pool) : image.serialize();
  }
  const std::vector<std::byte>& manifest = enc.has_value() ? enc->manifest : blob;
  // The flat blob's CRC comes from its envelope: serialize() already hashed
  // the body.
  const std::uint64_t crc =
      enc.has_value() ? enc->manifest_crc : *CheckpointImage::envelope_crc(blob);
  if (trace != nullptr) {
    if (enc.has_value()) {
      trace->end("serialize", obs::kStorageTrack,
                 {obs::TraceArg::num("bytes", enc->stored_bytes),
                  obs::TraceArg::num("logical_bytes", enc->logical_bytes),
                  obs::TraceArg::num("fresh_chunks", enc->fresh.size()),
                  obs::TraceArg::num("reused_refs", enc->reused_refs)});
    } else {
      trace->end("serialize", obs::kStorageTrack, {obs::TraceArg::num("bytes", blob.size())});
    }
  }
  const std::uint64_t salt = ++op_counter_;

  // Per-replica diff against the placement map, computed up front so the
  // fan-out only ever reads shared state.  Fresh chunks are missing
  // everywhere by definition; reused chunks are missing only on replicas
  // that sat out the store that created them.
  std::vector<std::vector<ChunkKey>> missing(replicas_.size());
  if (enc.has_value()) {
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      for (const ChunkKey& key : enc->refs) {
        const auto it = chunk_placements_.find(key);
        if (it == chunk_placements_.end() || !it->second.contains(r)) {
          missing[r].push_back(key);
        }
      }
    }
  }

  // Stage + verify on every replica, one task per replica.  The join
  // replays each replica's ledger through the caller's ChargeFn in replica
  // order and renders its replica-stage span with explicit timestamps, so
  // charges, events and seq order are byte-identical for any worker count.
  // Replica slots sharing a backend stage inline: their staging would race
  // on one blob map.
  std::vector<ReplicaStage> stages(replicas_.size());
  util::parallel_for(distinct_replicas_ ? options_.pool : nullptr, replicas_.size(),
                     [&](std::size_t r) {
                       stages[r] = stage_replica(r, manifest, crc, missing[r], salt);
                     });
  for (std::size_t r = 0; r < stages.size(); ++r) {
    const SimTime base = trace != nullptr ? trace->now() : 0;
    replay(stages[r], charge, receipt);
    emit_stage(r, base, stages[r]);
  }

  return publish(receipt, stages,
                 Publish{crc, manifest.size(), enc.has_value() ? &*enc : nullptr, std::nullopt});
}

ImageId ReplicatedStore::store(const CheckpointImage& image, const ChargeFn& charge) {
  return store_verbose(image, charge).id;
}

StoreReceipt ReplicatedStore::store_streamed(const StreamSource& source,
                                             const ChargeFn& charge) {
  if (table_ != nullptr) {
    throw std::logic_error("ReplicatedStore: store_streamed requires flat (non-dedup) mode");
  }
  StoreReceipt receipt;
  obs::TraceRecorder* trace = obs::tracer(options_.observer);
  const std::uint64_t salt = ++op_counter_;
  const std::size_t chunk_count = source.chunk_count;
  const std::size_t replica_count = replicas_.size();

  const SimTime stream_base = trace != nullptr ? trace->now() : 0;
  if (trace != nullptr) {
    trace->begin("stream", "storage", obs::kStorageTrack,
                 {obs::TraceArg::num("replicas", replica_count),
                  obs::TraceArg::num("chunks", chunk_count)});
  }

  // Every charge of lane r goes through lane_charge[r]: it feeds the
  // per-lane total the replica-stream span is rendered from.
  std::vector<SimTime> lane_spent(replica_count, 0);
  std::vector<ChargeFn> lane_charge;
  for (std::size_t r = 0; r < replica_count; ++r) {
    lane_charge.emplace_back([&lane_spent, &charge, r](SimTime t) {
      lane_spent[r] += t;
      if (charge) charge(t);
    });
  }
  const auto append_error = [this](std::size_t r) {
    return replicas_[r]->reachable() ? StoreErrorKind::kRejected
                                     : StoreErrorKind::kUnreachable;
  };

  // Phase 0: open one append stage per replica and land the image prelude,
  // in replica order on the caller.  The open pays the per-IO setup latency
  // once; every later append pays marginal bandwidth only.  A lane whose
  // error is set has failed and takes no further appends.
  std::vector<BlobStoreBackend::StageId> open(replica_count, BlobStoreBackend::kBadStageId);
  std::vector<StoreErrorKind> lane_error(replica_count, StoreErrorKind::kNone);
  for (std::size_t r = 0; r < replica_count; ++r) {
    const ChargeFn& opened = lane_charge[r];
    open[r] = replicas_[r]->begin_staged(opened);
    if (open[r] == BlobStoreBackend::kBadStageId) {
      lane_error[r] = StoreErrorKind::kUnreachable;
    } else if (!replicas_[r]->append_staged(open[r], source.prelude, opened)) {
      lane_error[r] = append_error(r);
    }
  }

  // Phase 1: produce each chunk, charge its capture, and append it to every
  // still-healthy stage, in chunk-then-replica order.  The body CRC folds
  // each chunk's CRC in with crc64_combine, so the full blob is only
  // materialized if some replica needs the whole-image fallback.
  std::uint64_t body_len = source.prelude.size();
  std::uint64_t body_crc = util::crc64(source.prelude);
  for (std::size_t i = 0; i < chunk_count; ++i) {
    const StreamChunk chunk = source.produce(i);
    body_crc = util::crc64_combine(body_crc, util::crc64(chunk.bytes), chunk.bytes.size());
    body_len += chunk.bytes.size();
    if (charge && chunk.capture_ns > 0) charge(chunk.capture_ns);
    for (std::size_t r = 0; r < replica_count; ++r) {
      if (lane_error[r] != StoreErrorKind::kNone) continue;
      if (!replicas_[r]->append_staged(open[r], chunk.bytes, lane_charge[r])) {
        lane_error[r] = append_error(r);
        receipt.last_error = lane_error[r];
      }
    }
  }

  // The trailer closes every still-healthy stage's body.
  for (std::size_t r = 0; r < replica_count; ++r) {
    if (lane_error[r] != StoreErrorKind::kNone) continue;
    if (!replicas_[r]->append_staged(open[r], source.trailer, lane_charge[r])) {
      lane_error[r] = append_error(r);
      receipt.last_error = lane_error[r];
    }
  }
  body_crc = util::crc64(source.trailer, body_crc);
  body_len += source.trailer.size();

  util::Serializer header_s;
  header_s.put(CheckpointImage::kFormatVersion);
  header_s.put(body_crc);
  const std::vector<std::byte> header = std::move(header_s).take();
  const std::uint64_t full_crc =
      util::crc64_combine(util::crc64(header), body_crc, body_len);
  const std::uint64_t full_bytes = header.size() + body_len;

  // Whole-image fallback blob, assembled lazily: re-producing the chunks
  // re-reads the (still frozen) capture source, so the re-read cost is
  // charged again — a faulted replica pays for its retry.
  std::vector<std::byte> full_blob;
  const auto assemble_full = [&]() -> const std::vector<std::byte>& {
    if (full_blob.empty()) {
      full_blob.reserve(full_bytes);
      full_blob.insert(full_blob.end(), header.begin(), header.end());
      full_blob.insert(full_blob.end(), source.prelude.begin(), source.prelude.end());
      SimTime reread = 0;
      for (std::size_t i = 0; i < chunk_count; ++i) {
        const StreamChunk chunk = source.produce(i);
        reread += chunk.capture_ns;
        full_blob.insert(full_blob.end(), chunk.bytes.begin(), chunk.bytes.end());
      }
      full_blob.insert(full_blob.end(), source.trailer.begin(), source.trailer.end());
      if (charge && reread > 0) charge(reread);
    }
    return full_blob;
  };

  // Phase 2: seal in replica order on the caller.  A healthy lane backfills
  // the envelope header and CRC-verifies the sealed blob (which is where a
  // silently torn mid-stream append finally surfaces); a failed lane
  // abandons its stage and falls back to the classic whole-blob stage.
  std::vector<ReplicaStage> stages(replica_count);
  for (std::size_t r = 0; r < replica_count; ++r) {
    const ChargeFn& charge_r = lane_charge[r];
    ImageId id = kBadImageId;
    if (lane_error[r] == StoreErrorKind::kNone) {
      id = replicas_[r]->finish_staged(open[r], header, charge_r);
      if (id == kBadImageId) {
        lane_error[r] = append_error(r);
      } else {
        const auto sealed_crc = replicas_[r]->blob_crc64(id, charge_r);
        if (sealed_crc != full_crc) {
          replicas_[r]->erase(id);
          lane_error[r] = sealed_crc.has_value() ? StoreErrorKind::kTornWrite
                                                 : StoreErrorKind::kMissing;
          id = kBadImageId;
        }
      }
    } else if (open[r] != BlobStoreBackend::kBadStageId) {
      replicas_[r]->abandon_staged(open[r]);
    }
    if (id == kBadImageId) {
      if (trace != nullptr) {
        trace->instant("stream-fallback", "storage", obs::kStorageTrack,
                       {obs::TraceArg::num("replica", r),
                        obs::TraceArg::str("error", to_string(lane_error[r]))});
      }
      const ReplicaStage fallback = stage_replica(r, assemble_full(), full_crc, {}, salt);
      replay(fallback, charge_r, receipt);
      id = fallback.manifest_id;
      if (id == kBadImageId && receipt.last_error == StoreErrorKind::kNone) {
        receipt.last_error = lane_error[r];
      }
      if (options_.observer != nullptr) {
        options_.observer->metrics().add("store.stream_fallbacks");
      }
    }
    stages[r].manifest_id = id;
  }

  // Per-replica stream spans, rendered from the replayed per-lane totals.
  if (trace != nullptr) {
    for (std::size_t r = 0; r < replica_count; ++r) {
      const bool verified = stages[r].manifest_id != kBadImageId;
      trace->begin_at(stream_base, "replica-stream", "storage", obs::kStorageTrack,
                      {obs::TraceArg::num("replica", r)});
      trace->end_at(stream_base + lane_spent[r], "replica-stream", obs::kStorageTrack,
                    {obs::TraceArg::num("replica", r),
                     obs::TraceArg::str("outcome", verified ? "verified" : "failed")});
    }
  }

  // Phase 3: the shared quorum/rollback/publish tail.  A failed streamed
  // store leaves no trace — staged bytes died with their stages.
  return publish(receipt, stages, Publish{full_crc, full_bytes, nullptr, chunk_count});
}

std::optional<CheckpointImage> ReplicatedStore::decode_copy(
    std::size_t r, std::span<const std::byte> blob, std::uint64_t crc, const ChargeFn& charge,
    bool chunk_failover) const {
  if (table_ == nullptr) {
    try {
      return CheckpointImage::deserialize(blob, crc);
    } catch (const ImageCorrupt&) {
    } catch (const util::SerializeError&) {
    }
    return std::nullopt;
  }
  if (util::crc64(blob) != crc) return std::nullopt;
  // Dedup: resolve each chunk from replica r first (locality), then — with
  // failover — from any other copy, so a chunk corrupt on one replica and
  // healthy on another still reconstructs the image.
  const auto fetch = [&](const ChunkKey& key, std::uint64_t expected)
      -> std::optional<std::vector<std::byte>> {
    const auto cp = chunk_placements_.find(key);
    if (cp == chunk_placements_.end()) return std::nullopt;
    const auto try_copy = [&](std::size_t rr,
                              ImageId chunk_id) -> std::optional<std::vector<std::byte>> {
      auto copy = replicas_[rr]->read_blob(chunk_id, charge);
      if (copy.has_value() && util::crc64(*copy) == expected) return copy;
      return std::nullopt;
    };
    if (const auto own = cp->second.find(r); own != cp->second.end()) {
      if (auto copy = try_copy(r, own->second)) return copy;
    }
    if (!chunk_failover) return std::nullopt;
    for (const auto& [rr, chunk_id] : cp->second) {
      if (rr == r) continue;
      if (auto copy = try_copy(rr, chunk_id)) return copy;
    }
    return std::nullopt;
  };
  return ChunkTable::decode(blob, fetch);
}

template <typename Take>
bool ReplicatedStore::sweep(ImageId id, const ChargeFn& charge, const Take& take) const {
  const auto it = manifest_.find(id);
  if (it == manifest_.end()) return false;
  Retrier retrier(options_.retry, id ^ 0xB10B);
  while (true) {
    for (const auto& [r, physical] : it->second.placements) {
      const auto blob = replicas_[r]->view_blob(physical, charge);
      if (!blob.has_value()) continue;  // unreachable or missing
      if (take(r, *blob, it->second.crc)) return true;  // else corrupt: fail over
    }
    const std::optional<SimTime> delay = retrier.next_delay();
    if (!delay.has_value()) return false;
    if (charge) charge(*delay);
  }
}

std::optional<CheckpointImage> ReplicatedStore::load(ImageId id, const ChargeFn& charge) {
  std::optional<CheckpointImage> image;
  sweep(id, charge, [&](std::size_t r, std::span<const std::byte> blob, std::uint64_t crc) {
    image = decode_copy(r, blob, crc, charge, /*chunk_failover=*/true);
    return image.has_value();
  });
  return image;
}

bool ReplicatedStore::verify(ImageId id, const ChargeFn& charge) {
  if (table_ != nullptr) return StorageBackend::verify(id, charge);
  return sweep(id, charge, [](std::size_t, std::span<const std::byte> blob, std::uint64_t crc) {
    return CheckpointImage::loads(blob, crc);
  });
}

std::optional<CheckpointImage> ReplicatedStore::load_from(std::size_t replica, ImageId id,
                                                          const ChargeFn& charge) {
  const auto it = manifest_.find(id);
  if (it == manifest_.end() || replica >= replicas_.size()) return std::nullopt;
  const auto placement = it->second.placements.find(replica);
  if (placement == it->second.placements.end()) return std::nullopt;
  const auto blob = replicas_[replica]->view_blob(placement->second, charge);
  if (!blob.has_value()) return std::nullopt;
  // Strictly this replica — no chunk failover.  The degradation ladder uses
  // load_from to probe what *one* replica can restore by itself.
  return decode_copy(replica, *blob, it->second.crc, charge, /*chunk_failover=*/false);
}

bool ReplicatedStore::erase(ImageId id) {
  const auto it = manifest_.find(id);
  if (it == manifest_.end()) return false;
  for (const auto& [r, physical] : it->second.placements) replicas_[r]->erase(physical);
  // Dedup: the erased entry's closure references are released; the chunk
  // blobs themselves stay on the replicas until gc() finds them orphaned.
  if (table_ != nullptr) table_->release(it->second.chunks);
  manifest_.erase(it);
  return true;
}

std::vector<ImageId> ReplicatedStore::list() const {
  std::vector<ImageId> out;
  out.reserve(manifest_.size());
  for (const auto& [id, entry] : manifest_) out.push_back(id);
  return out;
}

StorageLocality ReplicatedStore::locality() const {
  StorageLocality best = StorageLocality::kNone;
  auto rank = [](StorageLocality l) {
    switch (l) {
      case StorageLocality::kRemote: return 3;
      case StorageLocality::kLocalDisk: return 2;
      case StorageLocality::kVolatileMemory: return 1;
      case StorageLocality::kNone: return 0;
    }
    return 0;
  };
  for (const BlobStoreBackend* replica : replicas_) {
    if (rank(replica->locality()) > rank(best)) best = replica->locality();
  }
  return best;
}

bool ReplicatedStore::reachable() const {
  return std::any_of(replicas_.begin(), replicas_.end(),
                     [](const BlobStoreBackend* r) { return r->reachable(); });
}

std::uint64_t ReplicatedStore::stored_bytes() const {
  std::uint64_t total = 0;
  for (const BlobStoreBackend* replica : replicas_) total += replica->stored_bytes();
  return total;
}

ScrubReport ReplicatedStore::scrub(const ChargeFn& charge) {
  ScrubReport report;
  obs::Observer* observer = options_.observer;
  obs::SpanGuard span(obs::tracer(observer), "scrub", "storage", obs::kStorageTrack,
                      {obs::TraceArg::num("replicas", replicas_.size())});
  enum class CopyState : std::uint8_t { kOk, kCorrupt, kMissing, kUnreachable };

  // Phase 1 — audit reads, in (entry, replica) order, each copy CRC-verified
  // as it is read.  Copies are held so phase 2 can repair from the healthy
  // one without re-reading it.
  // The audit unit is a (crc, placements) pair — manifest entries and, in
  // dedup mode, every live content chunk go through the same two phases:
  // a chunk torn, corrupted or absent on one replica is repaired from a
  // healthy peer copy exactly like a whole image.  (Never from the host
  // ChunkTable cache: scrub certifies what the *media* holds, and repairing
  // from host memory would mask real durable-data loss.)
  struct Copy {
    std::optional<std::vector<std::byte>> blob;
    bool crc_ok = false;
  };
  struct BlobAudit {
    std::uint64_t crc = 0;
    std::map<std::size_t, ImageId>* placements = nullptr;
    std::vector<Copy> copies;
  };
  std::vector<BlobAudit> audits;
  audits.reserve(manifest_.size());
  for (auto& [id, entry] : manifest_) {
    ++report.entries;
    audits.push_back(BlobAudit{entry.crc, &entry.placements, {}});
  }
  if (table_ != nullptr) {
    for (const ChunkKey& key : table_->live_keys()) {
      ++report.chunks;
      audits.push_back(BlobAudit{table_->blob_crc(key), &chunk_placements_[key], {}});
    }
  }
  for (BlobAudit& audit : audits) {
    audit.copies.resize(replicas_.size());
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      if (!replicas_[r]->reachable()) continue;
      const auto placement = audit.placements->find(r);
      if (placement == audit.placements->end()) continue;
      Copy& copy = audit.copies[r];
      copy.blob = replicas_[r]->read_blob(placement->second, charge);
      copy.crc_ok = copy.blob.has_value() && util::crc64(*copy.blob) == audit.crc;
      ++report.copies_checked;
    }
  }

  // Phase 2 — classify and repair, sequential in audit order (manifest
  // entries, then live chunks).  The healthy source copy is the one already
  // read during the audit: loaded once per blob and reused for every repair
  // of that blob.
  for (BlobAudit& audit : audits) {
    std::vector<CopyState> states(replicas_.size(), CopyState::kMissing);
    std::optional<std::vector<std::byte>> healthy;
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      if (!replicas_[r]->reachable()) {
        states[r] = CopyState::kUnreachable;
        continue;
      }
      Copy& copy = audit.copies[r];
      if (!copy.blob.has_value()) continue;  // no placement, or blob gone
      if (!copy.crc_ok) {
        states[r] = CopyState::kCorrupt;
        continue;
      }
      states[r] = CopyState::kOk;
      if (!healthy.has_value()) healthy = std::move(copy.blob);
    }

    // Repair every damaged or absent copy from the healthy peer.
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      if (states[r] == CopyState::kOk) continue;
      if (states[r] == CopyState::kUnreachable) {
        ++report.skipped_unreachable;
        continue;
      }
      if (states[r] == CopyState::kCorrupt) {
        ++report.corrupt_found;
      } else {
        ++report.missing_found;
      }
      if (!healthy.has_value()) {
        ++report.unrepairable;
        continue;
      }
      if (const auto placement = audit.placements->find(r);
          placement != audit.placements->end()) {
        replicas_[r]->erase(placement->second);
        audit.placements->erase(placement);
      }
      const ImageId fresh = replicas_[r]->put_raw(*healthy, charge);
      bool repaired = fresh != kBadImageId;
      if (repaired) {
        // Verify the repair in place (same media read, no host copy).
        const auto written_crc = replicas_[r]->blob_crc64(fresh, charge);
        if (written_crc != audit.crc) {
          replicas_[r]->erase(fresh);  // repair itself tore: stay honest
          repaired = false;
        }
      }
      if (repaired) {
        audit.placements->emplace(r, fresh);
        ++report.repaired;
      } else {
        ++report.unrepairable;
      }
    }
  }
  span.end({obs::TraceArg::num("entries", report.entries),
            obs::TraceArg::num("chunks", report.chunks),
            obs::TraceArg::num("copies", report.copies_checked),
            obs::TraceArg::num("corrupt", report.corrupt_found),
            obs::TraceArg::num("missing", report.missing_found),
            obs::TraceArg::num("repaired", report.repaired),
            obs::TraceArg::num("unrepairable", report.unrepairable)});
  if (observer != nullptr) {
    obs::MetricsRegistry& metrics = observer->metrics();
    metrics.add("scrub.runs");
    metrics.add("scrub.copies_checked", report.copies_checked);
    metrics.add("scrub.corrupt_found", report.corrupt_found);
    metrics.add("scrub.missing_found", report.missing_found);
    metrics.add("scrub.repaired", report.repaired);
    metrics.add("scrub.unrepairable", report.unrepairable);
  }
  return report;
}

void ReplicatedStore::retarget_replica(std::size_t index, BlobStoreBackend* backend) {
  if (index >= replicas_.size() || backend == nullptr) {
    throw std::invalid_argument("ReplicatedStore::retarget_replica: bad slot or backend");
  }
  // Placements recorded against the old backend are meaningless on the new
  // one: drop them so reads fail over and scrub() re-replicates — manifest
  // copies and content chunks alike.
  for (auto& [id, entry] : manifest_) entry.placements.erase(index);
  for (auto& [key, placements] : chunk_placements_) placements.erase(index);
  replicas_[index] = backend;
}

std::uint32_t ReplicatedStore::intact_replicas(ImageId id) const {
  const auto it = manifest_.find(id);
  if (it == manifest_.end()) return 0;
  std::uint32_t intact = 0;
  for (const auto& [r, physical] : it->second.placements) {
    if (replicas_[r]->blob_crc64(physical, ChargeFn{}) != it->second.crc) continue;
    if (table_ != nullptr) {
      // A dedup image is only as durable as its closure: the replica counts
      // only when every referenced chunk also verifies on it.
      bool closure_intact = true;
      for (const ChunkKey& key : it->second.chunks) {
        const auto cp = chunk_placements_.find(key);
        if (cp == chunk_placements_.end()) {
          closure_intact = false;
          break;
        }
        const auto own = cp->second.find(r);
        if (own == cp->second.end() ||
            replicas_[r]->blob_crc64(own->second, ChargeFn{}) != table_->blob_crc(key)) {
          closure_intact = false;
          break;
        }
      }
      if (!closure_intact) continue;
    }
    ++intact;
  }
  return intact;
}

GcReport ReplicatedStore::gc(const ChargeFn&) {
  GcReport report;
  if (table_ == nullptr) return report;
  for (const ChunkTable::FreedChunk& freed : table_->collect_garbage()) {
    ++report.chunks_freed;
    report.bytes_freed += freed.blob_bytes;
    const auto cp = chunk_placements_.find(freed.key);
    if (cp != chunk_placements_.end()) {
      for (const auto& [r, physical] : cp->second) replicas_[r]->erase(physical);
      chunk_placements_.erase(cp);
    }
  }
  report.chunks_live = table_->live_count();
  if (options_.observer != nullptr) {
    options_.observer->metrics().set_gauge("dedup.chunks_live",
                                           static_cast<std::int64_t>(report.chunks_live));
  }
  return report;
}

const DedupStats& ReplicatedStore::dedup_stats() const {
  static const DedupStats kEmpty;
  return table_ != nullptr ? table_->stats() : kEmpty;
}

bool ReplicatedStore::any_intact_committed() const {
  for (auto it = manifest_.rbegin(); it != manifest_.rend(); ++it) {
    if (intact_replicas(it->first) > 0) return true;
  }
  return false;
}

ImageId ReplicatedStore::newest_committed() const {
  return manifest_.empty() ? kBadImageId : manifest_.rbegin()->first;
}

}  // namespace ckpt::storage
