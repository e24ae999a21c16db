// Content-addressed deduplicating checkpoint store.
//
// The survey's incremental-checkpointing argument (§3.3, §4) stops at
// capture: the dirty trackers shrink what is *collected*, but the blob path
// still serializes and stores every image whole, so unchanged pages are
// re-written (and re-replicated) on every commit.  This module extends the
// saving to stable storage: a CheckpointImage is split into a small
// *manifest* (segment layout plus page→chunk references) and content
// *chunks* keyed by CRC64-of-content, so the durable byte volume tracks the
// dirty-page rate instead of the address-space size.
//
// Correctness of the content addressing does not rest on the hash:
//
//   * A chunk key is (crc64, size, ordinal).  A hash hit is only a
//     *candidate* — the store byte-compares the new content against the
//     cached content of every chunk in the (crc64, size) bucket and reuses a
//     chunk only on an exact match.  Genuine CRC collisions get distinct
//     ordinals, so colliding contents coexist under distinct keys.
//   * Chunk blobs are self-describing and self-validating: decoding a chunk
//     re-derives its raw content and checks it against the key's CRC64, so
//     silent media corruption surfaces as a missing chunk, never as wrong
//     page bytes.
//
// Cold chunks are delta-encoded: when a page's new content replaces a known
// predecessor version of the same (pid, page), the chunk is stored as an
// XOR + zero-run-length delta against the predecessor chunk (kept only when
// actually smaller, with bounded delta-chain depth so reconstruction cost
// stays O(depth)).
//
// Garbage collection is refcount-based and chain-aware: every committed
// manifest holds one reference on each chunk in its *closure* (the chunks
// its pages need, including transitive delta bases), erase() releases them,
// and gc() frees chunks whose refcount reached zero.  Because
// CheckpointChain::prune only erases entries outside its live_set() — the
// fallback set reconstruct_newest_surviving() may still need — GC can never
// free a chunk a surviving restart path can reach.
//
// Determinism contract: encoding walks the image in segment/page order and
// assigns ordinals and chunk identities in first-seen order, with no
// dependence on host scheduling, so the same image sequence produces
// byte-identical manifests, chunk blobs and media contents on every run and
// for any worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "storage/backend.hpp"

namespace ckpt::storage {

/// Content address of a chunk.  `crc` and `size` describe the raw content;
/// `ordinal` disambiguates genuine CRC64 collisions within a (crc, size)
/// bucket, assigned in first-seen order (deterministic).
struct ChunkKey {
  std::uint64_t crc = 0;
  std::uint32_t size = 0;
  std::uint32_t ordinal = 0;

  friend auto operator<=>(const ChunkKey&, const ChunkKey&) = default;
};

/// How a chunk blob encodes its raw content.
enum class ChunkEncoding : std::uint8_t {
  kRaw = 0,     ///< payload is the content itself
  kXorRle = 1,  ///< payload is zero-run-length(content XOR base-chunk content)
};

/// Cumulative accounting across the life of a ChunkTable.
struct DedupStats {
  std::uint64_t images = 0;          ///< images encoded and committed
  std::uint64_t chunks_created = 0;  ///< fresh chunks (new content)
  std::uint64_t chunks_reused = 0;   ///< page references satisfied by identity
  std::uint64_t delta_chunks = 0;    ///< fresh chunks stored as XOR+RLE deltas
  std::uint64_t bytes_logical = 0;   ///< raw page bytes referenced by images
  std::uint64_t bytes_stored = 0;    ///< manifest + fresh chunk-blob bytes
  std::uint64_t gc_chunks_freed = 0;
  std::uint64_t gc_bytes_freed = 0;

  /// Stored-over-logical in permille (1000 = no saving); 1000 when nothing
  /// was stored yet.
  [[nodiscard]] std::uint64_t stored_permille() const {
    return bytes_logical == 0 ? 1000 : bytes_stored * 1000 / bytes_logical;
  }
};

/// gc() result: chunks whose refcount reached zero and were reclaimed.
/// `bytes_freed` counts encoded chunk-blob bytes once per unique chunk
/// (replicated stores free that amount on each replica holding a copy).
struct GcReport {
  std::uint64_t chunks_freed = 0;
  std::uint64_t bytes_freed = 0;
  std::uint64_t chunks_live = 0;
};

/// Backends that stage refcounted content chunks and can reclaim dead ones.
/// CheckpointEngine (EngineOptions::prune_after_full) runs gc() after the
/// chain pruned, so dropping old sequence points actually frees media bytes.
class ChunkReclaimable {
 public:
  virtual ~ChunkReclaimable() = default;
  /// Free every chunk no committed image references.  Charges nothing by
  /// default (erase is free on the simulated media); deterministic order.
  virtual GcReport gc(const ChargeFn& charge) = 0;
};

/// The chunk identity engine behind ReplicatedStore's dedup mode and the
/// journal's commit groups: splits images into manifest + chunks, dedups by
/// hash-then-byte-compare, delta-encodes against predecessor page versions,
/// and tracks refcounts for GC.  Host-side bookkeeping only — it never
/// touches a backend; callers stage the returned blobs and commit/abort.
class ChunkTable {
 public:
  /// A chunk that must be written to media (content first seen by this
  /// encode).  `blob` is the canonical encoded form; `blob_crc` its CRC64
  /// (the read-back verification value).
  struct FreshChunk {
    ChunkKey key;
    std::vector<std::byte> blob;
    std::uint64_t blob_crc = 0;
  };

  /// encode() result: everything a backend needs to stage one image.
  /// `refs` is the image's chunk closure (unique, first-touch order,
  /// including transitive delta bases); `fresh` the subset not yet on any
  /// media.  Pending until commit() or abort().
  struct EncodedImage {
    std::vector<std::byte> manifest;
    std::uint64_t manifest_crc = 0;
    std::vector<ChunkKey> refs;
    std::vector<FreshChunk> fresh;
    std::uint64_t logical_bytes = 0;  ///< raw page bytes the image references
    std::uint64_t stored_bytes = 0;   ///< manifest + fresh chunk-blob bytes
    std::uint64_t reused_refs = 0;    ///< page references satisfied by identity
    std::uint64_t delta_fresh = 0;    ///< fresh chunks that delta-encoded
    /// (pid, page) → chunk now holding that page's newest content; applied
    /// to the predecessor map at commit() so the *next* image deltas against
    /// this one.
    std::vector<std::pair<std::pair<sim::Pid, sim::PageNum>, ChunkKey>> successors;
  };

  /// Deterministically split, dedup and delta-encode `image`.  Fresh chunks
  /// enter the identity table as *pending*: visible for intra-image reuse,
  /// removed again by abort().
  EncodedImage encode(const CheckpointImage& image);

  /// The staged image is durable: pin its references (one refcount per
  /// closure chunk), finalize pending chunks, advance the predecessor map.
  void commit(const EncodedImage& enc);

  /// The staged image was rolled back: forget its pending chunks (and their
  /// ordinals) as if encode() never ran.  Must be called with no commit()
  /// in between.
  void abort(const EncodedImage& enc);

  /// Release an erased image's references (the closure recorded at commit).
  void release(const std::vector<ChunkKey>& refs);

  /// A freed chunk: reclaimed key plus its encoded blob size.
  struct FreedChunk {
    ChunkKey key;
    std::uint64_t blob_bytes = 0;
  };

  /// Remove every chunk with refcount zero (deterministic key order) and
  /// return them so the caller can erase the media blobs.
  std::vector<FreedChunk> collect_garbage();

  /// Canonical encoded blob of a live chunk (for staging on a replica that
  /// lacks it, and for scrub repair verification).  Throws on unknown key.
  [[nodiscard]] const std::vector<std::byte>& blob(const ChunkKey& key) const;
  [[nodiscard]] std::uint64_t blob_crc(const ChunkKey& key) const;
  [[nodiscard]] bool contains(const ChunkKey& key) const;
  /// Live chunk keys in deterministic (key) order — the scrub audit set.
  [[nodiscard]] std::vector<ChunkKey> live_keys() const;
  [[nodiscard]] std::uint64_t live_count() const { return chunks_.size(); }
  [[nodiscard]] const DedupStats& stats() const { return stats_; }

  /// Fetch the *encoded* blob for a chunk key; `expected_blob_crc` is the
  /// value the manifest recorded at commit, so fetchers can validate (and
  /// fail over between replicas) without decoding.  nullopt = unavailable.
  using ChunkFetch = std::function<std::optional<std::vector<std::byte>>(
      const ChunkKey& key, std::uint64_t expected_blob_crc)>;

  /// Rebuild an image from its manifest blob and a chunk fetcher.  Pure
  /// function of media content: validates the manifest envelope CRC, each
  /// fetched blob's CRC and each decoded chunk's raw-content CRC, resolving
  /// delta bases recursively (each unique chunk fetched once).  nullopt on
  /// any missing or corrupt piece — a dedup image is only as durable as its
  /// closure, which is why ReplicatedStore is the intended durable substrate.
  static std::optional<CheckpointImage> decode(std::span<const std::byte> manifest,
                                               const ChunkFetch& fetch);

 private:
  struct Chunk {
    std::vector<std::byte> raw;   ///< content cache (byte-compare + delta base)
    std::vector<std::byte> blob;  ///< canonical encoded form
    std::uint64_t blob_crc = 0;
    std::uint32_t refs = 0;   ///< committed manifests holding this chunk
    std::uint32_t depth = 0;  ///< delta hops to a raw chunk
    std::optional<ChunkKey> base;  ///< delta base (closure walk), raw if absent
    bool pending = false;     ///< created by an uncommitted encode()
  };
  struct Bucket {
    std::vector<ChunkKey> keys;
    std::uint32_t next_ordinal = 0;  ///< never reused for committed chunks
  };
  /// A (crc, size) bucket GC emptied and erased: the ordinal a re-created
  /// bucket must start from so no freed key is ever reissued.
  struct RetiredBucket {
    std::uint64_t crc = 0;
    std::uint32_t size = 0;
    std::uint32_t next_ordinal = 0;
  };
  /// First ordinal a (re-)created (crc, size) bucket may issue.
  [[nodiscard]] std::uint32_t retired_ordinal(std::uint64_t crc, std::uint32_t size) const;

  std::map<std::pair<std::uint64_t, std::uint32_t>, Bucket> buckets_;
  /// Sorted by (crc, size), one entry per bucket GC ever erased; 16 bytes
  /// each instead of a live map node.
  std::vector<RetiredBucket> retired_;
  std::map<ChunkKey, Chunk> chunks_;
  /// (pid, page) → chunk of that page's newest committed content.
  std::map<std::pair<sim::Pid, sim::PageNum>, ChunkKey> predecessor_;
  DedupStats stats_;
};

}  // namespace ckpt::storage
