// Stable-storage backends.
//
// Table 1's "stable storage" column distinguishes mechanisms by *where*
// checkpoints go, and Section 4's fault-tolerance critique rests on the
// consequence: a checkpoint stored on the failed node's local disk cannot
// be retrieved, so local-only storage gives restart-after-reboot but not
// failover.  The backends model exactly this:
//
//   * LocalDiskBackend  — per-node disk; unreachable after node failure.
//   * RemoteBackend     — network-attached storage; survives node failure
//                         but pays network transfer cost.
//   * MemoryBackend     — suspend-to-RAM (Software Suspend standby); lost
//                         on power cycle.
//   * NullBackend       — no stable storage (BProc/ZAP migrate live state
//                         instead of saving it).
//
// All I/O charges simulated time through a charge callback so checkpoint
// latency includes the storage cost the caller's context actually pays.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/costs.hpp"
#include "storage/image.hpp"

namespace ckpt::storage {

using ImageId = std::uint64_t;
inline constexpr ImageId kBadImageId = 0;

/// Where a backend's data physically lives — drives survivability analysis.
enum class StorageLocality : std::uint8_t { kLocalDisk, kRemote, kVolatileMemory, kNone };

const char* to_string(StorageLocality locality);

/// Callback charging simulated time to whatever context performs the I/O.
using ChargeFn = std::function<void(SimTime)>;

class ReplicatedStore;

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Persist an image; returns its id, or kBadImageId on failure.
  virtual ImageId store(const CheckpointImage& image, const ChargeFn& charge) = 0;

  /// Load and integrity-check an image.  nullopt when missing, unreachable
  /// or corrupt.
  virtual std::optional<CheckpointImage> load(ImageId id, const ChargeFn& charge) = 0;

  /// True exactly when load(id, charge) would return an image, charging the
  /// same reads in the same order.  The default is that load; a backend
  /// overrides it only to reach the same answer without building the image.
  virtual bool verify(ImageId id, const ChargeFn& charge) {
    return load(id, charge).has_value();
  }

  virtual bool erase(ImageId id) = 0;
  [[nodiscard]] virtual std::vector<ImageId> list() const = 0;
  [[nodiscard]] virtual StorageLocality locality() const = 0;
  [[nodiscard]] virtual bool reachable() const = 0;

  /// Total stored bytes (capacity accounting in benches).
  [[nodiscard]] virtual std::uint64_t stored_bytes() const = 0;

  /// The store a streaming commit appends into chunk by chunk, or null when
  /// this backend only takes whole images.  Engines resolve it once, at
  /// construction, and refuse streaming when it is null.
  [[nodiscard]] virtual ReplicatedStore* stream_target() { return nullptr; }
};

/// Injected failure mode for the next store() on a BlobStoreBackend.
/// Armed by the fault-injection subsystem (src/inject), consumed on use.
enum class StoreFault : std::uint8_t {
  kNone,
  kReject,     ///< store fails cleanly: kBadImageId returned, nothing persisted
  kTornWrite,  ///< store "succeeds" but persists a truncated blob (crash
               ///< mid-write); the damage only surfaces at load via CRC
};

const char* to_string(StoreFault fault);

/// Common base holding serialized blobs keyed by id.
class BlobStoreBackend : public StorageBackend {
 public:
  /// Serialize, charge io_cost, persist.  A lost medium refuses before it
  /// charges; an outage charges io_cost, then the write is refused.
  ImageId store(const CheckpointImage& image, const ChargeFn& charge) override;
  std::optional<CheckpointImage> load(ImageId id, const ChargeFn& charge) override;
  bool erase(ImageId id) override;
  [[nodiscard]] std::vector<ImageId> list() const override;
  [[nodiscard]] std::uint64_t stored_bytes() const override;
  [[nodiscard]] bool reachable() const override { return !media_lost() && !outage_; }

  // --- Fault-injection hooks (src/inject) -----------------------------------
  /// Arm a one-shot fault on the next store(); consumed whether or not the
  /// store would otherwise have succeeded.
  void inject_store_fault(StoreFault fault) {
    store_fault_ = fault;
    fault_skip_ops_ = 0;
  }
  /// Arm a one-shot fault that lets the next `skip_ops` write operations
  /// through first — the mid-stream variant: a streamed commit issues one
  /// append per chunk per replica, so skip_ops picks which append dies.
  void inject_store_fault(StoreFault fault, std::uint64_t skip_ops) {
    store_fault_ = fault;
    fault_skip_ops_ = skip_ops;
  }
  [[nodiscard]] StoreFault pending_store_fault() const { return store_fault_; }

  /// XOR-flip `count` bytes starting at `offset` (wrapping within the blob)
  /// of a stored blob — silent media corruption.  Returns false when the id
  /// is unknown or the blob is empty.
  bool corrupt_blob(ImageId id, std::uint64_t offset, std::uint64_t count,
                    std::byte mask = std::byte{0xFF});

  /// Most recently stored id, kBadImageId when nothing is stored — the
  /// natural corruption target ("newest image").
  [[nodiscard]] ImageId newest_id() const;

  /// Transient outage: the backend is unreachable (stores rejected, loads
  /// fail) until cleared.  Orthogonal to media_lost(); data is untouched.
  void set_outage(bool outage) { outage_ = outage; }
  [[nodiscard]] bool in_outage() const { return outage_; }

  // --- Raw blob access (replication / scrub, src/storage/replicated) --------
  /// The stored bytes of a blob, borrowed in place: the replication layer
  /// verifies, decodes and copies images as opaque CRC-checked blobs without
  /// a host-side copy.  The span stays valid until this backend's next
  /// mutation.  nullopt when the id is unknown or the backend is
  /// unreachable; otherwise charges io_cost of the blob's size through
  /// `charge` — the simulated media is read in full.
  [[nodiscard]] std::optional<std::span<const std::byte>> view_blob(
      ImageId id, const ChargeFn& charge) const;

  /// An owned copy of view_blob's bytes (scrub keeps healthy copies across
  /// the repairs that mutate the replicas).  Same guards and charge.
  [[nodiscard]] std::optional<std::vector<std::byte>> read_blob(ImageId id,
                                                                const ChargeFn& charge) const;

  /// CRC64 of view_blob's bytes (a read-back verify).  Same guards and
  /// charge.
  [[nodiscard]] std::optional<std::uint64_t> blob_crc64(ImageId id,
                                                        const ChargeFn& charge) const;

  /// Persist pre-serialized bytes (replica staging and scrub repair).
  /// Honours outage state and any armed store fault exactly like store(),
  /// and charges io_cost.  Returns kBadImageId when unreachable or faulted.
  ImageId put_raw(std::vector<std::byte> blob, const ChargeFn& charge);

  // --- Staged append (streaming commit, src/storage/replicated) -------------
  // A stage is an open, append-only file: chunks land on the media as they
  // are produced, but the bytes are invisible to load/list/newest_id until
  // finish_staged() seals them under a fresh id.  A crash (abandon) before
  // the seal leaves no trace — the commit-record-last invariant.
  using StageId = std::uint64_t;
  static constexpr StageId kBadStageId = 0;

  /// Open a stage.  Charges io_cost(0) — the per-IO setup latency (seek /
  /// connection) paid once up front.  kBadStageId when unreachable.
  StageId begin_staged(const ChargeFn& charge);

  /// Append a chunk to an open stage, charging the marginal bandwidth cost
  /// io_cost(n) - io_cost(0).  Consumes an armed store fault (under its
  /// skip counter): kReject fails the append cleanly (false); kTornWrite
  /// silently persists a truncated prefix and reports success — only the
  /// seal-time CRC read-back can catch it.  False when the stage is
  /// unknown or the backend unreachable.
  bool append_staged(StageId stage, std::span<const std::byte> chunk, const ChargeFn& charge);

  /// Seal a stage: backfill `header` (the CRC envelope, a small pwrite at
  /// offset 0, charged io_cost(header.size())) and publish header+bytes
  /// under a fresh ImageId.  Consumes an armed store fault like put_raw.
  /// The stage is closed whatever the outcome.  kBadImageId on failure.
  ImageId finish_staged(StageId stage, std::span<const std::byte> header,
                        const ChargeFn& charge);

  /// Drop an open stage without publishing (failed or aborted commit).
  void abandon_staged(StageId stage) { staged_.erase(stage); }

  /// Open stages (leak check in tests; a quiesced store must report 0).
  [[nodiscard]] std::size_t open_stages() const { return staged_.size(); }

 protected:
  /// The medium itself is gone (a failed node, power-cycled RAM) -- never
  /// true for a remote.  Unlike an outage, nothing is charged first.
  [[nodiscard]] bool media_lost() const { return media_lost_; }
  /// Persist `blob`, honouring any armed store fault and outage state.
  ImageId put_blob(std::vector<std::byte> blob);
  /// Consume the armed one-shot fault, honouring the skip counter: each
  /// call that finds a fault armed with skips remaining burns one skip and
  /// reports kNone; the call that finds no skips left takes the fault.
  [[nodiscard]] StoreFault consume_fault();
  /// Per-IO cost for `bytes`, implemented by subclasses.
  [[nodiscard]] virtual SimTime io_cost(std::uint64_t bytes) const = 0;

  std::map<ImageId, std::vector<std::byte>> blobs_;
  std::map<StageId, std::vector<std::byte>> staged_;
  ImageId next_id_ = 1;
  StageId next_stage_id_ = 1;
  StoreFault store_fault_ = StoreFault::kNone;
  std::uint64_t fault_skip_ops_ = 0;
  bool outage_ = false;
  bool media_lost_ = false;
};

/// Node-local disk.  fail_node() models the machine dying: blobs become
/// unreachable (fail-stop — the data may exist but cannot be fetched).
class LocalDiskBackend final : public BlobStoreBackend {
 public:
  explicit LocalDiskBackend(sim::CostModel costs) : costs_(costs) {}

  [[nodiscard]] StorageLocality locality() const override {
    return StorageLocality::kLocalDisk;
  }

  void fail_node() { media_lost_ = true; }
  void recover_node() { media_lost_ = false; }

 protected:
  [[nodiscard]] SimTime io_cost(std::uint64_t bytes) const override {
    return costs_.disk_cost(bytes);
  }

 private:
  sim::CostModel costs_;
};

/// Network-attached stable storage: every transfer pays network plus remote
/// disk cost, but data survives any compute-node failure.
class RemoteBackend final : public BlobStoreBackend {
 public:
  explicit RemoteBackend(sim::CostModel costs) : costs_(costs) {}

  [[nodiscard]] StorageLocality locality() const override { return StorageLocality::kRemote; }

 protected:
  [[nodiscard]] SimTime io_cost(std::uint64_t bytes) const override {
    return costs_.net_cost(bytes) + costs_.disk_cost(bytes);
  }

 private:
  sim::CostModel costs_;
};

/// Suspend-to-RAM: free to write, lost on power cycle.
class MemoryBackend final : public BlobStoreBackend {
 public:
  explicit MemoryBackend(sim::CostModel costs) : costs_(costs) {}

  [[nodiscard]] StorageLocality locality() const override {
    return StorageLocality::kVolatileMemory;
  }

  void power_cycle() {
    media_lost_ = true;
    blobs_.clear();
  }

 protected:
  [[nodiscard]] SimTime io_cost(std::uint64_t bytes) const override {
    return costs_.mem_copy_cost(bytes);
  }

 private:
  sim::CostModel costs_;
};

/// No stable storage at all: store() succeeds (the image is handed to a
/// live migration path) but nothing can ever be loaded back.
class NullBackend final : public StorageBackend {
 public:
  ImageId store(const CheckpointImage& image, const ChargeFn& charge) override;
  std::optional<CheckpointImage> load(ImageId id, const ChargeFn& charge) override;
  bool erase(ImageId) override { return false; }
  [[nodiscard]] std::vector<ImageId> list() const override { return {}; }
  [[nodiscard]] StorageLocality locality() const override { return StorageLocality::kNone; }
  [[nodiscard]] bool reachable() const override { return false; }
  [[nodiscard]] std::uint64_t stored_bytes() const override { return 0; }

 private:
  ImageId next_id_ = 1;
};

}  // namespace ckpt::storage
