// Checkpoint image format.
//
// A CheckpointImage is the serializable record of everything needed to
// rebuild a process: VMA layout with page payloads, per-thread registers,
// the descriptor table (with optional saved file contents, per UCLiK),
// signal state, heap bounds and the guest's program identity.  Incremental
// images carry only the pages selected by a dirty tracker and name their
// parent; CheckpointChain (chain.hpp) reassembles full state.
//
// The serialized form is versioned and CRC64-protected; storage backends
// verify integrity at load and surface corruption as a distinct error.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/memory.hpp"
#include "sim/process.hpp"
#include "sim/types.hpp"
#include "util/units.hpp"

namespace ckpt::util {
class ThreadPool;
class Serializer;
class Deserializer;
}

namespace ckpt::storage {

enum class ImageKind : std::uint8_t { kFull, kIncremental };

const char* to_string(ImageKind kind);

/// A (possibly partial) page payload.  Page-granularity trackers store full
/// pages (offset 0, kPageSize bytes); probabilistic block trackers [23] and
/// hardware cache-line trackers store sub-page ranges — the finer
/// granularity is the point of those techniques.
struct PageImage {
  sim::PageNum page = 0;
  std::uint32_t offset = 0;  ///< byte offset within the page
  std::vector<std::byte> data;
};

struct MemorySegmentImage {
  sim::Vma vma;
  std::vector<PageImage> pages;  ///< subset of the VMA's pages (all for full)
};

struct FileDescriptorImage {
  sim::Fd fd = sim::kBadFd;
  sim::FileKind kind = sim::FileKind::kRegular;
  std::string path;
  std::uint64_t offset = 0;
  std::uint32_t flags = 0;
  bool was_deleted = false;  ///< unlinked-while-open at checkpoint time
  /// Optional snapshot of the file's contents (UCLiK-style file-content
  /// preservation; PsncR/C's always-include-open-files policy).
  std::optional<std::vector<std::byte>> contents;
};

struct ThreadImage {
  sim::Tid tid = 0;
  sim::Registers regs;
};

struct CheckpointImage {
  static constexpr std::uint32_t kFormatVersion = 1;

  // --- Header ---------------------------------------------------------------
  ImageKind kind = ImageKind::kFull;
  std::uint64_t sequence = 0;         ///< position in the checkpoint chain
  std::uint64_t parent_sequence = 0;  ///< incremental: the image this delta extends
  sim::Pid pid = sim::kNoPid;
  std::string process_name;
  std::string hostname;
  SimTime taken_at = 0;

  // --- Program identity -------------------------------------------------------
  sim::GuestImage guest;

  // --- Captured state -----------------------------------------------------------
  std::vector<ThreadImage> threads;
  std::vector<MemorySegmentImage> segments;
  sim::VAddr brk = 0;
  sim::VAddr heap_base = 0;
  sim::VAddr mmap_next = 0;
  std::uint64_t sig_pending = 0;
  std::uint64_t sig_mask = 0;
  std::vector<std::uint8_t> sig_dispositions;
  std::vector<FileDescriptorImage> files;
  std::vector<std::uint16_t> bound_ports;

  // --- Metrics -------------------------------------------------------------------
  /// Bytes of page payload (the quantity incremental checkpointing shrinks).
  [[nodiscard]] std::uint64_t payload_bytes() const;
  /// Number of page payloads carried.
  [[nodiscard]] std::uint64_t page_count() const;

  // --- Wire format ------------------------------------------------------------------
  [[nodiscard]] std::vector<std::byte> serialize() const;
  /// Sharded encode: each memory segment is encoded and CRC64'd on a worker
  /// of `pool` into a pooled scratch buffer, shards are joined in segment
  /// order and the envelope CRC is assembled with crc64_combine — the
  /// output is bit-identical to serialize() for any worker count.
  [[nodiscard]] std::vector<std::byte> serialize(util::ThreadPool& pool) const;
  /// Exact size of the serialize() output in bytes (one counting pass, no
  /// encoding) — both serializers reserve this up front.
  [[nodiscard]] std::uint64_t serialized_size() const;
  /// Decode a serialized image that loads(bytes, certificate); throws
  /// ImageCorrupt when its envelope fails and util::SerializeError when its
  /// body does not decode.
  static CheckpointImage deserialize(std::span<const std::byte> bytes,
                                     std::optional<std::uint64_t> certificate = std::nullopt);
  /// The one rule for which stored bytes load.  `blob` loads when its
  /// version word is kFormatVersion, its body matches the CRC its envelope
  /// records, its whole-blob crc64 is `certificate` when one is given (a
  /// manifest's commit-time CRC, checked from the envelope before the body
  /// pass), and every count and length prefix in its body fits, checked
  /// exactly as deserialize() checks them.  One in-place CRC pass plus a
  /// walk over the body's structure: no page payload is copied.
  static bool loads(std::span<const std::byte> blob,
                    std::optional<std::uint64_t> certificate = std::nullopt);
  /// crc64 of a serialized image from its 12-byte envelope header alone:
  /// the header's own CRC combined with the body CRC the header records.
  /// Equal to crc64(blob) whenever the body matches that recorded CRC, which
  /// deserialize() checks — so a caller that deserializes the blob anyway
  /// never needs a second pass over the body.  nullopt for a blob shorter
  /// than the header.
  static std::optional<std::uint64_t> envelope_crc(std::span<const std::byte> blob);
};

/// Error raised when an image fails CRC or version checks.
class ImageCorrupt : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// --- Wire-format building blocks ---------------------------------------------
// The flat body is prelude ++ segment payloads ++ trailer.  The dedup
// manifest codec (storage/dedup) reuses the prelude/trailer/VMA encoders for
// everything except the page payloads, so a new CheckpointImage field cannot
// silently drift between the flat and deduplicated wire formats —
// deserialize() itself decodes through the same functions.

/// Header, identity and thread state, ending with the segment count.
void encode_image_prelude(util::Serializer& s, const CheckpointImage& image);
/// Heap bounds, signals, files and ports (everything after the segments).
void encode_image_trailer(util::Serializer& s, const CheckpointImage& image);
/// Counterpart of encode_image_prelude; returns the segment count, already
/// bounded by the bytes that remain (SerializeError otherwise).
std::uint64_t decode_image_prelude(util::Deserializer& d, CheckpointImage& image);
void decode_image_trailer(util::Deserializer& d, CheckpointImage& image);
void encode_image_vma(util::Serializer& s, const sim::Vma& vma);
sim::Vma decode_image_vma(util::Deserializer& d);

}  // namespace ckpt::storage
