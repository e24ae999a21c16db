// Checkpoint chains: a base full image plus incremental deltas.
//
// Incremental checkpointing [27] trades smaller writes for a longer restore
// path: reconstructing process state means replaying every delta since the
// last full image.  CheckpointChain owns that bookkeeping — sequence
// numbering, parent links, reconstruction (most-recent page wins), and the
// periodic-full-checkpoint policy that bounds chain length.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "storage/backend.hpp"
#include "storage/image.hpp"

namespace ckpt::storage {

class CheckpointChain {
 public:
  explicit CheckpointChain(StorageBackend* backend) : backend_(backend) {}

  /// Append an image (full restarts the chain; incremental extends it).
  /// Sequence and parent fields are assigned here.  Returns the image id,
  /// or kBadImageId if the backend rejected the store.
  ImageId append(CheckpointImage image, const ChargeFn& charge);

  /// Append through a caller-supplied store function — the streaming commit
  /// path stores via ReplicatedStore::store_streamed instead of
  /// StorageBackend::store.  Sequence and parent fields are assigned on
  /// `image` *before* `store_fn` runs (the streamed prelude encodes them);
  /// the chain entry is recorded only on success, so a failed streamed
  /// store leaves the chain (and the next sequence number) untouched.
  using StoreFn = std::function<ImageId(const CheckpointImage&)>;
  ImageId append_via(CheckpointImage& image, const StoreFn& store_fn);

  /// Reconstruct complete state as of the newest image (reconstruct_at the
  /// newest sequence).  nullopt if any link is missing/corrupt or the
  /// backend is unreachable.
  [[nodiscard]] std::optional<CheckpointImage> reconstruct(const ChargeFn& charge) const;

  /// Reconstruct as of a given sequence number in one fold over the chain.
  /// Every link from the newest full image at or before `sequence` is
  /// loaded, oldest first, and the first failed load returns nullopt.  The
  /// fold keeps one buffer per page: a whole page moves its loaded buffer
  /// in, a sub-page range overlays the newest bytes so far, and after each
  /// delta the pages outside that delta's VMAs are dropped.  The result
  /// takes the target's VMA layout and scalars (registers, files, signals,
  /// heap bounds) with the full image's process identity; a target that is
  /// itself the full image comes back exactly as loaded.
  [[nodiscard]] std::optional<CheckpointImage> reconstruct_at(std::uint64_t sequence,
                                                              const ChargeFn& charge) const;

  /// Reconstruct the newest *surviving* state: walk sequence points from
  /// newest to oldest and return the first that reconstructs — skipping
  /// states whose images are corrupt, torn or unreadable.  nullopt when no
  /// sequence point survives.  The restart fallback the torture harness
  /// exercises: a corrupt newest image must cost lost work, never a
  /// successful restart from garbage.
  [[nodiscard]] std::optional<CheckpointImage> reconstruct_newest_surviving(
      const ChargeFn& charge) const;

  /// Drop images no longer needed to reconstruct the newest state.
  ///
  /// "Needed" includes the fallback path: reconstruct_newest_surviving()
  /// may have to reach *past* the newest full image when that image is torn
  /// or corrupt, so pruning only discards entries older than the newest
  /// full image that StorageBackend::verify proves still loads.  If no full
  /// image verifies, nothing is pruned — better to hold disk than to strand
  /// the restart.  Each verify charges through `charge` exactly what a load
  /// of that image would.
  void prune(const ChargeFn& charge = {});

  /// Backend ids of the entries the restart path may still need — the
  /// "fallback-keep set": everything from the newest full image that
  /// verifies onward, or every entry when no full image verifies.  prune()
  /// keeps exactly this set, and chunk GC (ChunkReclaimable::gc) can only
  /// reclaim content no id in this set references, because references are
  /// released strictly per erased image.  Sharing the walk keeps the two
  /// from ever disagreeing about what a fallback restart can reach.
  [[nodiscard]] std::vector<ImageId> live_set(const ChargeFn& charge = {}) const;

  /// Backend id of the newest appended image (kBadImageId when empty).
  [[nodiscard]] ImageId newest_image_id() const;
  /// Sequence number of the newest appended image (0 when empty).
  [[nodiscard]] std::uint64_t newest_sequence() const;
  [[nodiscard]] std::size_t length() const { return entries_.size(); }
  /// Deltas since (and including) the last full image.
  [[nodiscard]] std::size_t links_from_last_full() const;

  [[nodiscard]] StorageBackend* backend() const { return backend_; }

  struct Entry {
    std::uint64_t sequence;
    ImageId id;
    ImageKind kind;
  };
  /// Every entry still tracked by the chain, oldest first.  Callers that
  /// share one backend between many chains (the fleet's per-shard journal)
  /// use this to audit intact replicas *per job* — a store-wide
  /// any_intact_committed() would conflate jobs.
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:

  /// Index of the first entry in the fallback-keep set (see live_set()).
  [[nodiscard]] std::size_t live_from(const ChargeFn& charge) const;

  StorageBackend* backend_;
  std::vector<Entry> entries_;
  std::uint64_t next_sequence_ = 1;
};

}  // namespace ckpt::storage
