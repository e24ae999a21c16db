#include "storage/dedup.hpp"

#include <algorithm>
#include <set>

#include "util/bytes.hpp"
#include "util/crc64.hpp"
#include "util/serialize.hpp"

namespace ckpt::storage {

using util::Deserializer;
using util::SerializeError;
using util::Serializer;

namespace {

/// Manifest envelope version.  Deliberately distinct from
/// CheckpointImage::kFormatVersion so a manifest blob handed to the flat
/// deserializer fails the version check instead of garbage-parsing.
constexpr std::uint32_t kDedupManifestVersion = 0xD5;

/// Manifest envelope header: version and body CRC.  The body follows.
constexpr std::size_t kManifestHeaderBytes = 4 + 8;

/// Longest delta chain (base hops) encode() lets a chunk sit on; deeper
/// content is stored raw so reconstruction cost stays bounded.
constexpr std::uint32_t kMaxDeltaDepth = 4;

/// A delta chain longer than this at *decode* time means the manifest or a
/// chunk blob lies about its base links (encode bounds depth far lower).
constexpr std::uint32_t kMaxDecodeDepth = 64;

/// Chunk blob header: encoding byte, raw-content CRC and size, and for
/// deltas the base chunk key.  Payload is the rest of the blob.
constexpr std::size_t kRawHeaderBytes = 1 + 8 + 4;
constexpr std::size_t kDeltaHeaderBytes = kRawHeaderBytes + 8 + 4 + 4;

void put_key(Serializer& s, const ChunkKey& key) {
  s.put(key.crc);
  s.put(key.size);
  s.put(key.ordinal);
}

ChunkKey get_key(Deserializer& d) {
  ChunkKey key;
  key.crc = d.get<std::uint64_t>();
  key.size = d.get<std::uint32_t>();
  key.ordinal = d.get<std::uint32_t>();
  return key;
}

std::vector<std::byte> build_chunk_blob(ChunkEncoding encoding, const ChunkKey& key,
                                        const std::optional<ChunkKey>& base,
                                        std::span<const std::byte> payload) {
  Serializer s;
  s.reserve((base ? kDeltaHeaderBytes : kRawHeaderBytes) + payload.size());
  s.put(encoding);
  s.put(key.crc);
  s.put(key.size);
  if (base) put_key(s, *base);
  s.put_raw(payload);
  return std::move(s).take();
}

/// Per-manifest reference record: everything a fetcher needs to locate and
/// validate a chunk blob without decoding it.
struct RefRecord {
  std::uint64_t blob_crc = 0;
  std::uint64_t blob_bytes = 0;
};

/// Memoizing chunk resolver for ChunkTable::decode: fetches each unique
/// chunk once, validates blob CRC, header identity and raw-content CRC, and
/// reconstructs delta chunks recursively.  A delta is rebuilt in one pass
/// over a copy of its base's content: zero runs are skipped and literals
/// XORed in place (util::rle_apply), then the result must match the key's CRC.
/// All failures throw SerializeError; decode() converts that to nullopt.
class ChunkResolver {
 public:
  ChunkResolver(const std::map<ChunkKey, RefRecord>& refs,
                const ChunkTable::ChunkFetch& fetch)
      : refs_(refs), fetch_(fetch) {}

  const std::vector<std::byte>& resolve(const ChunkKey& key, std::uint32_t depth) {
    if (depth > kMaxDecodeDepth) throw SerializeError("chunk: delta chain too deep");
    if (const auto it = cache_.find(key); it != cache_.end()) return it->second;

    const auto ref = refs_.find(key);
    if (ref == refs_.end()) throw SerializeError("chunk: key not in manifest refs");
    const auto blob = fetch_(key, ref->second.blob_crc);
    if (!blob.has_value()) throw SerializeError("chunk: blob unavailable");

    // The header is read before any CRC is checked and must equal the key.
    // A raw chunk's payload is then hashed once, for both the content CRC
    // and, combined with the header's, the blob CRC.  A delta chunk's whole
    // blob is hashed before its base link is followed.
    Deserializer d(*blob);
    const auto encoding = d.get<ChunkEncoding>();
    if (d.get<std::uint64_t>() != key.crc || d.get<std::uint32_t>() != key.size) {
      throw SerializeError("chunk: header does not match key");
    }
    if (encoding == ChunkEncoding::kRaw) {
      const auto payload = d.get_raw(d.remaining());
      if (payload.size() != key.size) throw SerializeError("chunk: raw size mismatch");
      const std::uint64_t payload_crc = util::crc64(payload);
      if (payload_crc != key.crc) throw SerializeError("chunk: content CRC mismatch");
      const std::uint64_t blob_crc = util::crc64_combine(
          util::crc64(std::span(*blob).first(kRawHeaderBytes)), payload_crc, payload.size());
      if (blob_crc != ref->second.blob_crc) throw SerializeError("chunk: blob CRC mismatch");
      return cache_.emplace(key, std::vector<std::byte>(payload.begin(), payload.end()))
          .first->second;
    }
    if (encoding != ChunkEncoding::kXorRle) throw SerializeError("chunk: unknown encoding");
    if (util::crc64(*blob) != ref->second.blob_crc) {
      throw SerializeError("chunk: blob CRC mismatch");
    }
    const ChunkKey base = get_key(d);
    const std::vector<std::byte>& base_raw = resolve(base, depth + 1);
    if (base_raw.size() != key.size) throw SerializeError("chunk: base size mismatch");
    std::vector<std::byte> raw = base_raw;
    util::rle_apply(d, raw);
    if (util::crc64(raw) != key.crc) throw SerializeError("chunk: content CRC mismatch");
    return cache_.emplace(key, std::move(raw)).first->second;
  }

 private:
  const std::map<ChunkKey, RefRecord>& refs_;
  const ChunkTable::ChunkFetch& fetch_;
  std::map<ChunkKey, std::vector<std::byte>> cache_;
};

}  // namespace

// --- ChunkTable --------------------------------------------------------------

ChunkTable::EncodedImage ChunkTable::encode(const CheckpointImage& image) {
  EncodedImage out;
  std::set<ChunkKey> in_closure;

  // Pin `key` and its transitive delta bases into the closure, first-touch
  // order — segment/page order drives this, so the refs list (and therefore
  // the manifest bytes) never depend on host scheduling.
  const auto pin = [&](const ChunkKey& key) {
    std::optional<ChunkKey> cursor = key;
    while (cursor.has_value() && in_closure.insert(*cursor).second) {
      out.refs.push_back(*cursor);
      cursor = chunks_.at(*cursor).base;
    }
  };

  for (const MemorySegmentImage& segment : image.segments) {
    for (const PageImage& page : segment.pages) {
      out.logical_bytes += page.data.size();

      const std::uint64_t crc = util::crc64(page.data);
      const auto size = static_cast<std::uint32_t>(page.data.size());
      const auto [bucket_it, created] = buckets_.try_emplace({crc, size});
      Bucket& bucket = bucket_it->second;
      if (created) bucket.next_ordinal = retired_ordinal(crc, size);

      // Hash hit is only a candidate: byte-compare against every chunk in
      // the bucket (pending ones included, for intra-image reuse).
      ChunkKey key{crc, size, 0};
      bool reused = false;
      for (const ChunkKey& candidate : bucket.keys) {
        if (util::bytes_equal(chunks_.at(candidate).raw, page.data)) {
          key = candidate;
          reused = true;
          break;
        }
      }

      if (reused) {
        ++out.reused_refs;
      } else {
        key.ordinal = bucket.next_ordinal++;
        Chunk chunk;
        chunk.raw = page.data;
        chunk.pending = true;

        // Delta-encode against the predecessor version of this (pid, page)
        // when it is a committed, equally-sized chunk on a short enough
        // chain — and only when the delta actually wins.
        const auto prev = predecessor_.find({image.pid, page.page});
        if (prev != predecessor_.end()) {
          const auto base_it = chunks_.find(prev->second);
          if (base_it != chunks_.end() && !base_it->second.pending &&
              base_it->second.raw.size() == page.data.size() &&
              base_it->second.depth < kMaxDeltaDepth) {
            std::vector<std::byte> xored = page.data;
            util::xor_bytes(xored, base_it->second.raw);
            std::vector<std::byte> payload = util::rle_encode(xored);
            if (kDeltaHeaderBytes + payload.size() < kRawHeaderBytes + page.data.size()) {
              chunk.base = prev->second;
              chunk.depth = base_it->second.depth + 1;
              chunk.blob = build_chunk_blob(ChunkEncoding::kXorRle, key, chunk.base, payload);
              ++out.delta_fresh;
            }
          }
        }
        if (chunk.blob.empty()) {
          // A raw blob is its header then the page, whose CRC is in hand.
          chunk.blob = build_chunk_blob(ChunkEncoding::kRaw, key, std::nullopt, page.data);
          chunk.blob_crc = util::crc64_combine(
              util::crc64(std::span(chunk.blob).first(kRawHeaderBytes)), crc, size);
        } else {
          chunk.blob_crc = util::crc64(chunk.blob);
        }

        out.stored_bytes += chunk.blob.size();
        out.fresh.push_back({key, chunk.blob, chunk.blob_crc});
        bucket.keys.push_back(key);
        chunks_.emplace(key, std::move(chunk));
      }

      pin(key);
      out.successors.push_back({{image.pid, page.page}, key});
    }
  }

  // Manifest body: flat prelude/trailer (shared codec with image.cpp), the
  // reference table, then per-segment page→chunk mappings.
  Serializer body;
  encode_image_prelude(body, image);
  encode_image_trailer(body, image);
  body.put<std::uint64_t>(out.refs.size());
  for (const ChunkKey& key : out.refs) {
    const Chunk& chunk = chunks_.at(key);
    put_key(body, key);
    body.put(chunk.blob_crc);
    body.put<std::uint64_t>(chunk.blob.size());
  }
  {
    std::size_t next_page = 0;
    for (const MemorySegmentImage& segment : image.segments) {
      encode_image_vma(body, segment.vma);
      body.put<std::uint64_t>(segment.pages.size());
      for (const PageImage& page : segment.pages) {
        body.put(page.page);
        body.put(page.offset);
        put_key(body, out.successors[next_page++].second);
      }
    }
  }

  const std::uint64_t body_crc = util::crc64(body.bytes());
  Serializer envelope;
  envelope.reserve(kManifestHeaderBytes + body.size());
  envelope.put(kDedupManifestVersion);
  envelope.put(body_crc);
  envelope.put_raw(body.bytes());
  out.manifest = std::move(envelope).take();
  out.manifest_crc = util::crc64_combine(
      util::crc64(std::span(out.manifest).first(kManifestHeaderBytes)), body_crc, body.size());
  out.stored_bytes += out.manifest.size();
  return out;
}

void ChunkTable::commit(const EncodedImage& enc) {
  for (const FreshChunk& fresh : enc.fresh) chunks_.at(fresh.key).pending = false;
  for (const ChunkKey& key : enc.refs) ++chunks_.at(key).refs;
  for (const auto& [page, key] : enc.successors) predecessor_[page] = key;

  ++stats_.images;
  stats_.chunks_created += enc.fresh.size();
  stats_.chunks_reused += enc.reused_refs;
  stats_.delta_chunks += enc.delta_fresh;
  stats_.bytes_logical += enc.logical_bytes;
  stats_.bytes_stored += enc.stored_bytes;
}

void ChunkTable::abort(const EncodedImage& enc) {
  // Reverse creation order so ordinal rollback unwinds cleanly when one
  // encode created several chunks in the same bucket.
  for (auto it = enc.fresh.rbegin(); it != enc.fresh.rend(); ++it) {
    const ChunkKey& key = it->key;
    const auto bucket_it = buckets_.find({key.crc, key.size});
    if (bucket_it == buckets_.end()) continue;
    Bucket& bucket = bucket_it->second;
    std::erase(bucket.keys, key);
    if (key.ordinal + 1 == bucket.next_ordinal) --bucket.next_ordinal;
    if (bucket.keys.empty() && bucket.next_ordinal == retired_ordinal(key.crc, key.size)) {
      buckets_.erase(bucket_it);
    }
    chunks_.erase(key);
  }
}

void ChunkTable::release(const std::vector<ChunkKey>& refs) {
  for (const ChunkKey& key : refs) {
    const auto it = chunks_.find(key);
    if (it != chunks_.end() && it->second.refs > 0) --it->second.refs;
  }
}

std::uint32_t ChunkTable::retired_ordinal(std::uint64_t crc, std::uint32_t size) const {
  const auto it = std::lower_bound(
      retired_.begin(), retired_.end(), std::make_pair(crc, size),
      [](const RetiredBucket& r, const std::pair<std::uint64_t, std::uint32_t>& k) {
        return std::make_pair(r.crc, r.size) < k;
      });
  return it != retired_.end() && it->crc == crc && it->size == size ? it->next_ordinal : 0;
}

std::vector<ChunkTable::FreedChunk> ChunkTable::collect_garbage() {
  std::vector<FreedChunk> freed;
  // Chunk keys sort by (crc, size) first, so buckets empty in sorted order.
  std::vector<RetiredBucket> emptied;
  for (auto it = chunks_.begin(); it != chunks_.end();) {
    if (!it->second.pending && it->second.refs == 0) {
      freed.push_back({it->first, it->second.blob.size()});
      // The ordinal stays reserved: a key freed here must never be reissued
      // for different content, or a stale manifest could resolve to wrong
      // bytes.  An emptied bucket is erased and its next ordinal retired.
      const auto bucket_it = buckets_.find({it->first.crc, it->first.size});
      if (bucket_it != buckets_.end()) {
        std::erase(bucket_it->second.keys, it->first);
        if (bucket_it->second.keys.empty()) {
          emptied.push_back({it->first.crc, it->first.size, bucket_it->second.next_ordinal});
          buckets_.erase(bucket_it);
        }
      }
      it = chunks_.erase(it);
    } else {
      ++it;
    }
  }
  // Merge once per GC.  A bucket retired before, re-created and emptied
  // again appears twice; its newer entry holds the higher ordinal.
  const auto by_bucket = [](const RetiredBucket& a, const RetiredBucket& b) {
    return std::make_pair(a.crc, a.size) < std::make_pair(b.crc, b.size);
  };
  const auto mid = retired_.insert(retired_.end(), emptied.begin(), emptied.end());
  std::inplace_merge(retired_.begin(), mid, retired_.end(), by_bucket);
  const auto last = std::unique(retired_.rbegin(), retired_.rend(),
                                [](const RetiredBucket& a, const RetiredBucket& b) {
                                  return a.crc == b.crc && a.size == b.size;
                                });
  retired_.erase(retired_.begin(), last.base());
  // Predecessor entries naming freed chunks can no longer seed deltas.
  for (auto it = predecessor_.begin(); it != predecessor_.end();) {
    if (!chunks_.contains(it->second)) {
      it = predecessor_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.gc_chunks_freed += freed.size();
  for (const FreedChunk& f : freed) stats_.gc_bytes_freed += f.blob_bytes;
  return freed;
}

const std::vector<std::byte>& ChunkTable::blob(const ChunkKey& key) const {
  return chunks_.at(key).blob;
}

std::uint64_t ChunkTable::blob_crc(const ChunkKey& key) const {
  return chunks_.at(key).blob_crc;
}

bool ChunkTable::contains(const ChunkKey& key) const { return chunks_.contains(key); }

std::vector<ChunkKey> ChunkTable::live_keys() const {
  std::vector<ChunkKey> keys;
  keys.reserve(chunks_.size());
  for (const auto& [key, chunk] : chunks_) keys.push_back(key);
  return keys;
}

std::optional<CheckpointImage> ChunkTable::decode(std::span<const std::byte> manifest,
                                                  const ChunkFetch& fetch) {
  try {
    Deserializer envelope(manifest);
    if (envelope.get<std::uint32_t>() != kDedupManifestVersion) return std::nullopt;
    const auto expected_crc = envelope.get<std::uint64_t>();
    const auto body_bytes = envelope.get_raw(envelope.remaining());
    if (util::crc64(body_bytes) != expected_crc) return std::nullopt;

    Deserializer d(body_bytes);
    CheckpointImage image;
    const std::uint64_t segment_count = decode_image_prelude(d, image);
    decode_image_trailer(d, image);

    std::map<ChunkKey, RefRecord> refs;
    const auto ref_count = d.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < ref_count; ++i) {
      const ChunkKey key = get_key(d);
      RefRecord record;
      record.blob_crc = d.get<std::uint64_t>();
      record.blob_bytes = d.get<std::uint64_t>();
      refs.emplace(key, record);
    }

    ChunkResolver resolver(refs, fetch);
    if (segment_count > d.remaining()) {
      throw SerializeError("manifest: segment count exceeds remaining bytes");
    }
    image.segments.reserve(segment_count);
    for (std::uint64_t i = 0; i < segment_count; ++i) {
      MemorySegmentImage segment;
      segment.vma = decode_image_vma(d);
      const std::uint64_t page_count = d.get_count();
      segment.pages.reserve(page_count);
      for (std::uint64_t j = 0; j < page_count; ++j) {
        PageImage page;
        page.page = d.get<sim::PageNum>();
        page.offset = d.get<std::uint32_t>();
        page.data = resolver.resolve(get_key(d), 0);
        segment.pages.push_back(std::move(page));
      }
      image.segments.push_back(std::move(segment));
    }
    if (!d.at_end()) return std::nullopt;
    return image;
  } catch (const SerializeError&) {
    return std::nullopt;
  }
}

}  // namespace ckpt::storage
