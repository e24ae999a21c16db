#include "storage/backend.hpp"

#include "util/crc64.hpp"
#include "util/serialize.hpp"

namespace ckpt::storage {

const char* to_string(StorageLocality locality) {
  switch (locality) {
    case StorageLocality::kLocalDisk: return "local";
    case StorageLocality::kRemote: return "remote";
    case StorageLocality::kVolatileMemory: return "memory";
    case StorageLocality::kNone: return "none";
  }
  return "?";
}

const char* to_string(StoreFault fault) {
  switch (fault) {
    case StoreFault::kNone: return "none";
    case StoreFault::kReject: return "reject";
    case StoreFault::kTornWrite: return "torn-write";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// BlobStoreBackend
// ---------------------------------------------------------------------------

StoreFault BlobStoreBackend::consume_fault() {
  if (store_fault_ == StoreFault::kNone) return StoreFault::kNone;
  if (fault_skip_ops_ > 0) {
    --fault_skip_ops_;
    return StoreFault::kNone;
  }
  const StoreFault fault = store_fault_;
  store_fault_ = StoreFault::kNone;
  return fault;
}

ImageId BlobStoreBackend::put_blob(std::vector<std::byte> blob) {
  if (outage_) return kBadImageId;
  const StoreFault fault = consume_fault();
  if (fault == StoreFault::kReject) return kBadImageId;
  if (fault == StoreFault::kTornWrite) {
    // Crash mid-write: only a prefix of the blob reaches the media.  The
    // id is handed out as if the store succeeded — exactly the silent
    // failure the CRC at load time must catch.
    blob.resize(blob.size() > 1 ? blob.size() - blob.size() / 3 - 1 : 0);
  }
  const ImageId id = next_id_++;
  blobs_.emplace(id, std::move(blob));
  return id;
}

BlobStoreBackend::StageId BlobStoreBackend::begin_staged(const ChargeFn& charge) {
  if (!reachable()) return kBadStageId;
  if (charge) charge(io_cost(0));
  const StageId id = next_stage_id_++;
  staged_.emplace(id, std::vector<std::byte>{});
  return id;
}

bool BlobStoreBackend::append_staged(StageId stage, std::span<const std::byte> chunk,
                                     const ChargeFn& charge) {
  auto it = staged_.find(stage);
  if (it == staged_.end()) return false;
  if (!reachable()) return false;
  if (charge) charge(io_cost(chunk.size()) - io_cost(0));
  const StoreFault fault = consume_fault();
  if (fault == StoreFault::kReject) return false;
  std::size_t take = chunk.size();
  if (fault == StoreFault::kTornWrite) {
    // Crash mid-append: a prefix of this chunk reaches the media and the
    // append *reports success* — the damage stays invisible until the
    // seal-time CRC read-back.
    take = chunk.size() > 1 ? chunk.size() - chunk.size() / 3 - 1 : 0;
  }
  it->second.insert(it->second.end(), chunk.begin(), chunk.begin() + take);
  return true;
}

ImageId BlobStoreBackend::finish_staged(StageId stage, std::span<const std::byte> header,
                                        const ChargeFn& charge) {
  auto it = staged_.find(stage);
  if (it == staged_.end()) return kBadImageId;
  std::vector<std::byte> body = std::move(it->second);
  staged_.erase(it);
  if (!reachable()) return kBadImageId;
  if (charge) charge(io_cost(header.size()));
  std::vector<std::byte> blob;
  blob.reserve(header.size() + body.size());
  blob.insert(blob.end(), header.begin(), header.end());
  blob.insert(blob.end(), body.begin(), body.end());
  return put_blob(std::move(blob));
}

std::optional<std::span<const std::byte>> BlobStoreBackend::view_blob(
    ImageId id, const ChargeFn& charge) const {
  if (!reachable()) return std::nullopt;
  auto it = blobs_.find(id);
  if (it == blobs_.end()) return std::nullopt;
  if (charge) charge(io_cost(it->second.size()));
  return std::span<const std::byte>(it->second);
}

std::optional<std::vector<std::byte>> BlobStoreBackend::read_blob(
    ImageId id, const ChargeFn& charge) const {
  const auto blob = view_blob(id, charge);
  if (!blob.has_value()) return std::nullopt;
  return std::vector<std::byte>(blob->begin(), blob->end());
}

std::optional<std::uint64_t> BlobStoreBackend::blob_crc64(ImageId id,
                                                          const ChargeFn& charge) const {
  const auto blob = view_blob(id, charge);
  if (!blob.has_value()) return std::nullopt;
  return util::crc64(*blob);
}

ImageId BlobStoreBackend::store(const CheckpointImage& image, const ChargeFn& charge) {
  if (media_lost()) return kBadImageId;
  auto blob = image.serialize();
  if (charge) charge(io_cost(blob.size()));
  return put_blob(std::move(blob));
}

ImageId BlobStoreBackend::put_raw(std::vector<std::byte> blob, const ChargeFn& charge) {
  if (!reachable()) return kBadImageId;
  if (charge) charge(io_cost(blob.size()));
  return put_blob(std::move(blob));
}

bool BlobStoreBackend::corrupt_blob(ImageId id, std::uint64_t offset, std::uint64_t count,
                                    std::byte mask) {
  auto it = blobs_.find(id);
  if (it == blobs_.end() || it->second.empty() || mask == std::byte{0}) return false;
  auto& blob = it->second;
  for (std::uint64_t i = 0; i < count; ++i) {
    blob[(offset + i) % blob.size()] ^= mask;
  }
  return true;
}

ImageId BlobStoreBackend::newest_id() const {
  return blobs_.empty() ? kBadImageId : blobs_.rbegin()->first;
}

std::optional<CheckpointImage> BlobStoreBackend::load(ImageId id, const ChargeFn& charge) {
  const auto blob = view_blob(id, charge);
  if (!blob.has_value()) return std::nullopt;
  try {
    return CheckpointImage::deserialize(*blob);
  } catch (const ImageCorrupt&) {
    return std::nullopt;
  } catch (const util::SerializeError&) {
    return std::nullopt;
  }
}

bool BlobStoreBackend::erase(ImageId id) { return blobs_.erase(id) != 0; }

std::vector<ImageId> BlobStoreBackend::list() const {
  std::vector<ImageId> out;
  out.reserve(blobs_.size());
  for (const auto& [id, blob] : blobs_) out.push_back(id);
  return out;
}

std::uint64_t BlobStoreBackend::stored_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [id, blob] : blobs_) total += blob.size();
  return total;
}

// ---------------------------------------------------------------------------
// NullBackend
// ---------------------------------------------------------------------------

ImageId NullBackend::store(const CheckpointImage& image, const ChargeFn&) {
  (void)image;
  return next_id_++;  // accepted, immediately forgotten
}

std::optional<CheckpointImage> NullBackend::load(ImageId, const ChargeFn&) {
  return std::nullopt;
}

}  // namespace ckpt::storage
