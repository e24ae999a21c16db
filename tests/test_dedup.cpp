// Content-addressed dedup store (storage/dedup): manifest+chunk round-trips,
// hash-then-byte-compare collision safety, delta encoding, refcounted
// chain-aware GC, and the replicated chunk-diff protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <bitset>
#include <cstdio>
#include <optional>
#include <random>
#include <vector>

#include "storage/backend.hpp"
#include "storage/chain.hpp"
#include "storage/dedup.hpp"
#include "storage/image.hpp"
#include "storage/replicated.hpp"
#include "util/crc64.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/threadpool.hpp"

namespace ckpt::storage {
namespace {

constexpr sim::VAddr kBase = 0x10000;

PageImage make_page(sim::PageNum page, std::vector<std::byte> data) {
  PageImage out;
  out.page = page;
  out.data = std::move(data);
  return out;
}

std::vector<std::byte> filled(std::size_t size, std::uint8_t fill) {
  return std::vector<std::byte>(size, static_cast<std::byte>(fill));
}

/// A full image whose single data segment carries `pages` (page numbers are
/// consecutive from page_of(kBase)).
CheckpointImage make_image(std::uint64_t tag, std::vector<std::vector<std::byte>> pages) {
  CheckpointImage image;
  image.kind = ImageKind::kFull;
  image.pid = 42;
  image.process_name = "app";
  image.taken_at = tag;
  image.threads.push_back(ThreadImage{1, {}});
  image.threads[0].regs.pc = tag;
  MemorySegmentImage seg;
  seg.vma = sim::Vma{sim::page_of(kBase), static_cast<std::uint64_t>(pages.size()),
                     sim::kProtRW, sim::VmaKind::kData, "data"};
  for (std::size_t i = 0; i < pages.size(); ++i) {
    seg.pages.push_back(make_page(seg.vma.first_page + i, std::move(pages[i])));
  }
  image.segments.push_back(std::move(seg));
  return image;
}

/// An image exercising every serialized field: multiple segments, sub-page
/// payloads, saved file contents, signals, ports.
CheckpointImage make_rich_image(std::uint64_t tag) {
  CheckpointImage image = make_image(tag, {filled(sim::kPageSize, 0x11),
                                           filled(sim::kPageSize, 0x22)});
  MemorySegmentImage stack;
  stack.vma = sim::Vma{sim::page_of(0x7f0000), 2, sim::kProtRW, sim::VmaKind::kStack, "stack"};
  PageImage partial;
  partial.page = stack.vma.first_page;
  partial.offset = 64;
  partial.data = filled(96, 0x33);
  stack.pages.push_back(partial);
  image.segments.push_back(std::move(stack));
  image.brk = kBase + 4 * sim::kPageSize;
  image.heap_base = kBase;
  image.mmap_next = 0x800000;
  image.sig_pending = 0x5;
  image.sig_mask = 0xA;
  image.sig_dispositions = {0, 1, 2};
  FileDescriptorImage file;
  file.fd = 3;
  file.path = "/tmp/data";
  file.offset = 17;
  file.contents = filled(200, 0x44);
  image.files.push_back(std::move(file));
  image.bound_ports = {8080};
  return image;
}

class DedupTest : public ::testing::Test {
 protected:
  sim::CostModel costs_{};
  LocalDiskBackend media_{costs_};

  /// A one-replica content-addressed store over media_.
  ReplicatedStore make_store() {
    ReplicatedOptions options;
    options.dedup = true;
    return ReplicatedStore({&media_}, options);
  }
};

// --- Round-trip fidelity -----------------------------------------------------

// --- Hostile manifests -------------------------------------------------------

/// Overwrite the little-endian u64 at `at` and recompute the manifest's
/// envelope CRC (u32 version | u64 crc | body), so only the decoder objects.
void patch_and_reseal(std::vector<std::byte>& manifest, std::size_t at, std::uint64_t value) {
  const auto put = [&](std::size_t pos, std::uint64_t v) {
    for (std::size_t i = 0; i < sizeof(v); ++i) {
      manifest[pos + i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
    }
  };
  put(at, value);
  constexpr std::size_t kHeader = sizeof(std::uint32_t) + sizeof(std::uint64_t);
  put(sizeof(std::uint32_t),
      util::crc64(std::span<const std::byte>(manifest).subspan(kHeader)));
}

TEST_F(DedupTest, HostileSegmentAndPageCountsDecodeToNullopt) {
  // One segment with no pages: the manifest body ends in that segment's
  // page count, and the prelude (shared with the flat codec) ends in the
  // segment count.
  ChunkTable table;
  const CheckpointImage image = make_image(1, {});
  const ChunkTable::EncodedImage enc = table.encode(image);
  const auto no_chunks = [](const ChunkKey&, std::uint64_t)
      -> std::optional<std::vector<std::byte>> { return std::nullopt; };
  ASSERT_TRUE(ChunkTable::decode(enc.manifest, no_chunks).has_value());

  util::Serializer prelude;
  encode_image_prelude(prelude, image);
  constexpr std::size_t kHeader = sizeof(std::uint32_t) + sizeof(std::uint64_t);
  std::vector<std::byte> segments = enc.manifest;
  patch_and_reseal(segments, kHeader + prelude.bytes().size() - sizeof(std::uint64_t),
                   std::uint64_t{1} << 62);
  EXPECT_FALSE(ChunkTable::decode(segments, no_chunks).has_value());

  std::vector<std::byte> pages = enc.manifest;
  patch_and_reseal(pages, pages.size() - sizeof(std::uint64_t), std::uint64_t{1} << 62);
  EXPECT_FALSE(ChunkTable::decode(pages, no_chunks).has_value());
}

TEST_F(DedupTest, RoundTripIsBitIdenticalToFlatSerialization) {
  ReplicatedStore store = make_store();
  const CheckpointImage original = make_rich_image(7);
  const ImageId id = store.store(original, nullptr);
  ASSERT_NE(id, kBadImageId);
  const auto loaded = store.load(id, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->serialize(), original.serialize());
}

TEST_F(DedupTest, IdenticalPagesAreStoredOnce) {
  ReplicatedStore store = make_store();
  std::vector<std::vector<std::byte>> pages(8, filled(sim::kPageSize, 0x77));
  const ImageId id = store.store(make_image(1, std::move(pages)), nullptr);
  ASSERT_NE(id, kBadImageId);
  EXPECT_EQ(store.dedup_stats().chunks_created, 1u);
  EXPECT_EQ(store.dedup_stats().chunks_reused, 7u);
  // One page of content plus a small manifest, not eight pages.
  EXPECT_LT(store.dedup_stats().bytes_stored, 2 * sim::kPageSize);
  const auto loaded = store.load(id, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->segments[0].pages.size(), 8u);
}

TEST_F(DedupTest, UnchangedContentIsNeverRewritten) {
  ReplicatedStore store = make_store();
  CheckpointImage first = make_image(1, {filled(sim::kPageSize, 0x01),
                                         filled(sim::kPageSize, 0x02),
                                         filled(sim::kPageSize, 0x03)});
  ASSERT_NE(store.store(first, nullptr), kBadImageId);
  const std::uint64_t chunks_after_first = store.dedup_stats().chunks_created;
  const std::uint64_t media_after_first = media_.stored_bytes();

  // Same content again: only a manifest hits the media.
  CheckpointImage second = first;
  second.taken_at = 2;
  const ImageId id2 = store.store(second, nullptr);
  ASSERT_NE(id2, kBadImageId);
  EXPECT_EQ(store.dedup_stats().chunks_created, chunks_after_first);
  EXPECT_LT(media_.stored_bytes() - media_after_first, sim::kPageSize / 2);
  const auto loaded = store.load(id2, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->serialize(), second.serialize());
}

// --- Delta encoding ----------------------------------------------------------

TEST_F(DedupTest, SmallPageDiffsDeltaEncodeAgainstThePredecessor) {
  ReplicatedStore store = make_store();
  std::vector<std::byte> v1(sim::kPageSize);
  for (std::size_t i = 0; i < v1.size(); ++i) {
    v1[i] = static_cast<std::byte>(i * 31 + 7);
  }
  std::vector<std::byte> v2 = v1;
  for (std::size_t i = 100; i < 108; ++i) {
    v2[i] = static_cast<std::byte>(0xEE);
  }
  ASSERT_NE(store.store(make_image(1, {v1}), nullptr), kBadImageId);
  const std::uint64_t stored_v1 = store.dedup_stats().bytes_stored;
  const ImageId id2 = store.store(make_image(2, {v2}), nullptr);
  ASSERT_NE(id2, kBadImageId);
  EXPECT_EQ(store.dedup_stats().delta_chunks, 1u);
  // The 8-byte diff must cost far less than a raw page on media.
  EXPECT_LT(store.dedup_stats().bytes_stored - stored_v1, sim::kPageSize / 4);
  const auto loaded = store.load(id2, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->segments[0].pages[0].data, v2);
}

TEST_F(DedupTest, DeltaChainDepthIsBounded) {
  ReplicatedStore store = make_store();
  std::vector<std::vector<std::byte>> versions;
  std::vector<std::byte> page(sim::kPageSize);
  for (std::size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<std::byte>(i);
  }
  std::vector<ImageId> ids;
  for (std::uint64_t v = 0; v < 7; ++v) {
    page[5] = static_cast<std::byte>(0xC0 + v);  // tiny mutation per version
    versions.push_back(page);
    const ImageId id = store.store(make_image(v + 1, {page}), nullptr);
    ASSERT_NE(id, kBadImageId);
    ids.push_back(id);
  }
  // v2..v5 delta at depths 1..4; v6 would exceed the depth bound of 4 and
  // is stored raw; v7 deltas against the fresh raw base.
  EXPECT_EQ(store.dedup_stats().delta_chunks, 5u);
  for (std::size_t v = 0; v < ids.size(); ++v) {
    const auto loaded = store.load(ids[v], nullptr);
    ASSERT_TRUE(loaded.has_value()) << "version " << v;
    EXPECT_EQ(loaded->segments[0].pages[0].data, versions[v]) << "version " << v;
  }
}

TEST_F(DedupTest, DeltaChunkBytesArePinned) {
  // A seeded chain of sparse edits, so XOR+RLE delta chunks reach the media:
  // random unaligned edits, the first and last byte, two edits around a zero
  // gap of 8, 9 or 10 bytes (either side of the run-record threshold), a
  // 100-byte page, and a dense burst every fourth round that stores its page
  // raw.  StorageCoreGolden's whole-page fills never write a delta, so this
  // literal is what pins delta blob bytes across rewrites of the encoder.
  util::Rng rng(0xDE17A'2026ULL);
  ReplicatedStore store = make_store();
  std::vector<std::vector<std::byte>> pages;
  for (const std::size_t size : {sim::kPageSize, sim::kPageSize, sim::kPageSize,
                                 sim::kPageSize, std::size_t{100}}) {
    std::vector<std::byte> data(size);
    for (std::byte& b : data) b = static_cast<std::byte>(rng.next_u64());
    pages.push_back(std::move(data));
  }
  const auto flip = [&](std::vector<std::byte>& page, std::size_t at) {
    page[at] ^= static_cast<std::byte>(1 + rng.next_below(255));
  };

  std::vector<std::pair<ImageId, std::vector<std::byte>>> expected;
  for (std::uint64_t round = 0; round < 12; ++round) {
    if (round > 0) {
      for (std::uint64_t e = rng.next_below(6); e <= 6; ++e) {
        flip(pages[0], rng.next_below(pages[0].size()));
      }
      flip(pages[1], 0);
      flip(pages[1], pages[1].size() - 1);
      const std::size_t gap = 8 + round % 3;
      const std::size_t at = rng.next_below(pages[2].size() - gap - 1);
      flip(pages[2], at);
      flip(pages[2], at + gap + 1);
      if (round % 4 == 0) {
        for (std::size_t i = 0; i < 3000; ++i) flip(pages[3], i);
      }
      flip(pages[4], rng.next_below(pages[4].size()));
    }
    const CheckpointImage image = make_image(round + 1, pages);
    const ImageId id = store.store(image, nullptr);
    ASSERT_NE(id, kBadImageId) << "round " << round;
    expected.emplace_back(id, image.serialize());
  }
  for (const auto& [id, flat] : expected) {
    const auto loaded = store.load(id, nullptr);
    ASSERT_TRUE(loaded.has_value()) << "id " << id;
    EXPECT_EQ(loaded->serialize(), flat) << "id " << id;
  }
  const DedupStats& stats = store.dedup_stats();
  EXPECT_GE(stats.delta_chunks, 30u);
  EXPECT_GT(stats.chunks_created, stats.delta_chunks + 5);  // five raw first versions

  std::uint64_t digest = 0;
  for (const ImageId id : media_.list()) {
    digest = util::crc64(&id, sizeof(id), digest);
    digest = util::crc64(media_.read_blob(id, nullptr).value(), digest);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest));
  EXPECT_STREQ(hex, "8dd2d577edc2efca");
}

// --- Hash collisions ---------------------------------------------------------

/// Engineer two distinct 16-byte contents with the same CRC64.  CRC is
/// affine over GF(2) for fixed-length input: crc(m1) == crc(m2) iff
/// L(m1 ^ m2) == 0 where L(x) = crc(x) ^ crc(0...0).  The 128 basis images
/// L(e_i) span at most 64 dimensions, so Gaussian elimination must find a
/// nonzero kernel vector d; any m and m ^ d then collide.
std::array<std::vector<std::byte>, 2> colliding_contents() {
  constexpr std::size_t kBits = 128;
  constexpr std::size_t kBytes = kBits / 8;
  const std::vector<std::byte> zeros(kBytes, std::byte{0});
  const std::uint64_t crc_zero = util::crc64(zeros);

  struct Row {
    std::uint64_t value = 0;
    std::bitset<kBits> combo;
  };
  std::array<std::optional<Row>, 64> basis;
  std::bitset<kBits> kernel;
  for (std::size_t i = 0; i < kBits && kernel.none(); ++i) {
    std::vector<std::byte> unit = zeros;
    unit[i / 8] = static_cast<std::byte>(1u << (i % 8));
    Row row{util::crc64(unit) ^ crc_zero, {}};
    row.combo.set(i);
    bool placed = false;
    while (row.value != 0) {
      const int lead = 63 - std::countl_zero(row.value);
      auto& slot = basis[static_cast<std::size_t>(lead)];
      if (!slot.has_value()) {
        slot = row;
        placed = true;
        break;
      }
      row.value ^= slot->value;
      row.combo ^= slot->combo;
    }
    if (!placed) {
      kernel = row.combo;  // L(kernel) == 0 with kernel != 0 (bit i is fresh)
    }
  }
  // Build m1 (arbitrary) and m2 = m1 ^ d.
  std::vector<std::byte> m1(kBytes, std::byte{0x5A});
  std::vector<std::byte> m2 = m1;
  for (std::size_t i = 0; i < kBits; ++i) {
    if (kernel.test(i)) {
      m2[i / 8] ^= static_cast<std::byte>(1u << (i % 8));
    }
  }
  return {m1, m2};
}

TEST_F(DedupTest, CrcCollisionsCoexistUnderDistinctOrdinals) {
  const auto [m1, m2] = colliding_contents();
  ASSERT_NE(m1, m2) << "kernel vector must be nonzero";
  ASSERT_EQ(util::crc64(m1), util::crc64(m2)) << "engineered collision failed";

  ReplicatedStore store = make_store();
  const ImageId id = store.store(make_image(1, {m1, m2}), nullptr);
  ASSERT_NE(id, kBadImageId);
  // Same (crc, size), different bytes: the byte-compare must keep both as
  // distinct chunks rather than silently aliasing one onto the other.
  EXPECT_EQ(store.dedup_stats().chunks_created, 2u);
  EXPECT_EQ(store.dedup_stats().chunks_reused, 0u);
  const auto loaded = store.load(id, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->segments[0].pages[0].data, m1);
  EXPECT_EQ(loaded->segments[0].pages[1].data, m2);
}

TEST_F(DedupTest, CollectedBucketNeverReissuesItsOrdinals) {
  // GC erases an emptied (crc, size) bucket but retires its next ordinal: a
  // stale manifest may still name the freed key, so content re-encoded into
  // that bucket must continue past it.
  const auto [m1, m2] = colliding_contents();
  ChunkTable table;
  const ChunkTable::EncodedImage first = table.encode(make_image(1, {m1}));
  ASSERT_EQ(first.fresh.size(), 1u);
  EXPECT_EQ(first.fresh[0].key.ordinal, 0u);
  table.commit(first);
  table.release(first.refs);
  ASSERT_EQ(table.collect_garbage().size(), 1u);
  EXPECT_EQ(table.live_count(), 0u);

  // An aborted encode rolls back to the retired ordinal, not to 0.
  const ChunkTable::EncodedImage aborted = table.encode(make_image(2, {m2}));
  ASSERT_EQ(aborted.fresh.size(), 1u);
  EXPECT_EQ(aborted.fresh[0].key.ordinal, 1u);
  table.abort(aborted);

  const ChunkTable::EncodedImage again = table.encode(make_image(3, {m2, m1}));
  ASSERT_EQ(again.fresh.size(), 2u);
  EXPECT_EQ(again.fresh[0].key.crc, first.fresh[0].key.crc);
  EXPECT_EQ(again.fresh[0].key.ordinal, 1u);
  EXPECT_EQ(again.fresh[1].key.ordinal, 2u);
  table.commit(again);

  // Retired twice: the second retirement supersedes the first.
  table.release(again.refs);
  ASSERT_EQ(table.collect_garbage().size(), 2u);
  const ChunkTable::EncodedImage third = table.encode(make_image(4, {m1}));
  ASSERT_EQ(third.fresh.size(), 1u);
  EXPECT_EQ(third.fresh[0].key.ordinal, 3u);
}

// --- Property: random image chains round-trip --------------------------------

TEST_F(DedupTest, RandomImageChainsRoundTripBitIdentically) {
  std::mt19937_64 rng(0xD5D5'2026ULL);
  ReplicatedStore store = make_store();
  std::vector<std::pair<ImageId, std::vector<std::byte>>> expected;

  std::uniform_int_distribution<int> page_count(1, 6);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::uniform_int_distribution<int> size_pick(0, 2);

  std::vector<std::vector<std::byte>> pages;
  for (int round = 0; round < 24; ++round) {
    if (pages.empty() || round % 6 == 0) {
      pages.clear();
      const int n = page_count(rng);
      for (int p = 0; p < n; ++p) {
        const std::size_t sizes[] = {64, 1024, sim::kPageSize};
        std::vector<std::byte> data(sizes[size_pick(rng)]);
        for (auto& b : data) b = static_cast<std::byte>(byte_dist(rng));
        pages.push_back(std::move(data));
      }
    } else {
      // Mutate a random subset of bytes in one random page.
      auto& victim = pages[rng() % pages.size()];
      const int edits = 1 + static_cast<int>(rng() % 16);
      for (int e = 0; e < edits; ++e) {
        victim[rng() % victim.size()] = static_cast<std::byte>(byte_dist(rng));
      }
    }
    CheckpointImage image = make_image(static_cast<std::uint64_t>(round + 1), pages);
    const std::vector<std::byte> flat = image.serialize();
    const ImageId id = store.store(image, nullptr);
    ASSERT_NE(id, kBadImageId) << "round " << round;
    expected.emplace_back(id, flat);
  }
  for (const auto& [id, flat] : expected) {
    const auto loaded = store.load(id, nullptr);
    ASSERT_TRUE(loaded.has_value()) << "id " << id;
    EXPECT_EQ(loaded->serialize(), flat) << "id " << id;
  }
  // The mutation-heavy chain must have actually exercised dedup and deltas.
  EXPECT_GT(store.dedup_stats().chunks_reused, 0u);
  EXPECT_GT(store.dedup_stats().delta_chunks, 0u);
  EXPECT_LT(store.dedup_stats().stored_permille(), 1000u);
}

// --- Failure atomicity -------------------------------------------------------

TEST_F(DedupTest, FailedStoreLeavesNoTraceOnMediaOrInTheTable) {
  ReplicatedStore store = make_store();
  media_.inject_store_fault(StoreFault::kReject);
  const ImageId id = store.store(make_image(1, {filled(sim::kPageSize, 0x01)}), nullptr);
  EXPECT_EQ(id, kBadImageId);
  EXPECT_TRUE(media_.list().empty());
  EXPECT_EQ(store.gc(nullptr).chunks_live, 0u);
  EXPECT_EQ(store.dedup_stats().images, 0u);
  // The table must be clean enough for the next store to succeed normally.
  const ImageId retry = store.store(make_image(2, {filled(sim::kPageSize, 0x02)}), nullptr);
  ASSERT_NE(retry, kBadImageId);
  EXPECT_TRUE(store.load(retry, nullptr).has_value());
}

TEST_F(DedupTest, TornChunkWriteIsCaughtAtCommitNeverServedAsWrongBytes) {
  ReplicatedStore store = make_store();
  media_.inject_store_fault(StoreFault::kTornWrite);
  // The torn write hits the first staged chunk blob.  The read-back verify
  // catches it before the commit point, so the store fails and rolls back.
  const StoreReceipt torn =
      store.store_verbose(make_image(1, {filled(sim::kPageSize, 0x01)}), nullptr);
  EXPECT_FALSE(torn.ok());
  EXPECT_EQ(torn.last_error, StoreErrorKind::kTornWrite);
  EXPECT_TRUE(media_.list().empty());
  EXPECT_TRUE(store.list().empty());

  const CheckpointImage image = make_image(2, {filled(sim::kPageSize, 0x01)});
  const ImageId id = store.store(image, nullptr);
  ASSERT_NE(id, kBadImageId);
  const auto loaded = store.load(id, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->serialize(), image.serialize());
}

TEST_F(DedupTest, CorruptRawChunkIsRejectedNeverServedAsWrongBytes) {
  // The resolver reads a raw chunk's header before any CRC is checked, so
  // every short read and every header or payload flip must fail the decode.
  // The fetch here hands back whatever bytes it is given, as a backend that
  // does not verify chunk blobs itself would.
  ChunkTable table;
  const CheckpointImage image =
      make_image(1, {filled(sim::kPageSize, 0x5C), filled(sim::kPageSize, 0xA3)});
  const ChunkTable::EncodedImage enc = table.encode(image);
  ASSERT_EQ(enc.fresh.size(), 2u);
  const ChunkTable::FreshChunk& target = enc.fresh.front();
  ASSERT_EQ(target.blob.front(), static_cast<std::byte>(ChunkEncoding::kRaw));
  constexpr std::size_t kHeader = 1 + 8 + 4;  // encoding, content CRC, size
  ASSERT_EQ(target.blob.size(), kHeader + sim::kPageSize);

  const auto decode_with = [&](const std::vector<std::byte>& served) {
    return ChunkTable::decode(enc.manifest, [&](const ChunkKey& key, std::uint64_t)
                                                -> std::optional<std::vector<std::byte>> {
      if (key == target.key) return served;
      for (const ChunkTable::FreshChunk& fresh : enc.fresh) {
        if (fresh.key == key) return fresh.blob;
      }
      return std::nullopt;
    });
  };
  const auto intact = decode_with(target.blob);
  ASSERT_TRUE(intact.has_value());
  ASSERT_EQ(intact->serialize(), image.serialize());

  for (std::size_t len = 0; len <= kHeader + 1; ++len) {
    const std::vector<std::byte> truncated(target.blob.begin(), target.blob.begin() + len);
    EXPECT_FALSE(decode_with(truncated).has_value()) << "truncated to " << len;
  }
  for (std::size_t at = 0; at < kHeader; ++at) {
    // 0x01 turns the raw encoding byte into the delta one; 0xFF into none.
    for (const std::byte mask : {std::byte{0x01}, std::byte{0xFF}}) {
      std::vector<std::byte> flipped = target.blob;
      flipped[at] ^= mask;
      EXPECT_FALSE(decode_with(flipped).has_value())
          << "header byte " << at << " mask " << std::to_integer<int>(mask);
    }
  }
  std::vector<std::byte> payload_flip = target.blob;
  payload_flip[kHeader + 100] ^= std::byte{0x01};
  EXPECT_FALSE(decode_with(payload_flip).has_value());
}

TEST_F(DedupTest, CorruptDeltaChunkIsRejectedNeverServedAsWrongBytes) {
  // Each hostile payload is sealed the way a forger would: the manifest's
  // ref-table CRC and length for the delta chunk and its envelope CRC are
  // recomputed, so every CRC gate passes and the RLE parser itself must
  // reject the framing, or the content CRC the bytes it produced.
  ChunkTable table;
  std::vector<std::byte> v1(sim::kPageSize);
  for (std::size_t i = 0; i < v1.size(); ++i) v1[i] = static_cast<std::byte>(i * 31 + 7);
  std::vector<std::byte> v2 = v1;
  v2[100] ^= std::byte{0xEE};
  v2[2001] ^= std::byte{0x5A};
  table.commit(table.encode(make_image(1, {v1})));
  const CheckpointImage image = make_image(2, {v2});
  const ChunkTable::EncodedImage enc = table.encode(image);
  ASSERT_EQ(enc.fresh.size(), 1u);
  const ChunkTable::FreshChunk& delta = enc.fresh.front();
  ASSERT_EQ(delta.blob.front(), static_cast<std::byte>(ChunkEncoding::kXorRle));
  constexpr std::size_t kHeader = 1 + 8 + 4 + 8 + 4 + 4;  // raw header, base key

  // The delta's ref record (key, blob CRC, blob length) in the manifest body.
  util::Serializer ref;
  ref.put(delta.key.crc);
  ref.put(delta.key.size);
  ref.put(delta.key.ordinal);
  ref.put(delta.blob_crc);
  const auto ref_at = std::search(enc.manifest.begin(), enc.manifest.end(),
                                  ref.bytes().begin(), ref.bytes().end());
  ASSERT_NE(ref_at, enc.manifest.end());
  const auto crc_at = static_cast<std::size_t>(ref_at - enc.manifest.begin()) + 16;

  const auto decode_payload = [&](const std::vector<std::byte>& payload) {
    util::Serializer s;
    s.put_raw(std::span(delta.blob).first(kHeader));
    s.put_raw(payload);
    const std::vector<std::byte> blob = std::move(s).take();
    std::vector<std::byte> manifest = enc.manifest;
    patch_and_reseal(manifest, crc_at, util::crc64(blob));
    patch_and_reseal(manifest, crc_at + 8, blob.size());
    return ChunkTable::decode(manifest, [&](const ChunkKey& key, std::uint64_t)
                                            -> std::optional<std::vector<std::byte>> {
      if (key == delta.key) return blob;
      if (table.contains(key)) return table.blob(key);
      return std::nullopt;
    });
  };
  // (zero_run, literal_len) then `literal` bytes of 0xA5.
  const auto record = [](std::uint32_t zero_run, std::uint32_t literal_len,
                         std::size_t literal) {
    util::Serializer s;
    s.put(zero_run);
    s.put(literal_len);
    s.put_raw(std::vector<std::byte>(literal, std::byte{0xA5}));
    return std::move(s).take();
  };
  const std::vector<std::byte> intact(delta.blob.begin() + kHeader, delta.blob.end());
  const auto decoded = decode_payload(intact);
  ASSERT_TRUE(decoded.has_value()) << "the reseal itself must not reject";
  ASSERT_EQ(decoded->serialize(), image.serialize());

  const std::uint32_t page = sim::kPageSize;
  EXPECT_FALSE(decode_payload(record(0, 0, 0)).has_value()) << "empty record";
  EXPECT_FALSE(decode_payload(record(0, page + 1, page + 1)).has_value()) << "overrun";
  EXPECT_FALSE(decode_payload(record(page - 8, 9, 9)).has_value()) << "zero run overrun";
  EXPECT_FALSE(decode_payload(record(0, page, 50)).has_value()) << "truncated literal";
  EXPECT_FALSE(decode_payload(record(0xFFFF'FFF8u, 16, 16)).has_value()) << "run near 2^32";
  EXPECT_FALSE(decode_payload(record(0xFFFF'FFFFu, 0xFFFF'FFFFu, 0)).has_value())
      << "run and literal at 2^32 - 1";
  EXPECT_FALSE(decode_payload(record(0, 2048, 2048)).has_value()) << "records end short";
  EXPECT_FALSE(decode_payload(record(page, 0, 0)).has_value()) << "delta of nothing";
  std::vector<std::byte> flipped = intact;
  flipped[8] ^= std::byte{0x01};  // the first literal byte
  EXPECT_FALSE(decode_payload(flipped).has_value()) << "flipped literal byte";
}

TEST_F(DedupTest, FreshImageStoreAndLoadHashWithinPinnedBound) {
  // A fresh image of all-distinct pages through a one-replica store: the
  // encode hashes each page once (its blob CRC combines the header's in),
  // the replica read-back hashes each blob, and the load's fetch and
  // resolver hash each blob once more.  The bound is that exact count;
  // hashing any page a further time exceeds it.
  ReplicatedStore store = make_store();
  std::vector<std::vector<std::byte>> pages;
  for (std::uint8_t p = 0; p < 16; ++p) pages.push_back(filled(sim::kPageSize, 0x40 + p));
  const CheckpointImage image = make_image(1, std::move(pages));

  const std::uint64_t before = util::crc64_bytes_hashed();
  const ImageId id = store.store(image, nullptr);
  ASSERT_NE(id, kBadImageId);
  const auto loaded = store.load(id, nullptr);
  const std::uint64_t hashed = util::crc64_bytes_hashed() - before;
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->serialize(), image.serialize());
  // Four passes over the 64 KiB of pages and their 13-byte headers, four
  // over the manifest.
  EXPECT_LE(hashed, 267948u) << "hashed " << hashed << " bytes";
}

// --- GC and the chain fallback set -------------------------------------------

TEST_F(DedupTest, EraseThenGcReclaimsOnlyOrphanedChunks) {
  ReplicatedStore store = make_store();
  const auto pa = filled(sim::kPageSize, 0xA1);
  const auto pb = filled(sim::kPageSize, 0xB2);
  const auto pc = filled(sim::kPageSize, 0xC3);
  const ImageId first = store.store(make_image(1, {pa, pb}), nullptr);
  const ImageId second = store.store(make_image(2, {pb, pc}), nullptr);
  ASSERT_NE(first, kBadImageId);
  ASSERT_NE(second, kBadImageId);
  ASSERT_EQ(store.gc(nullptr).chunks_live, 3u);

  EXPECT_TRUE(store.erase(first));
  const GcReport report = store.gc(nullptr);
  // Only `pa` is orphaned; `pb` is still pinned by the second image.
  EXPECT_EQ(report.chunks_freed, 1u);
  EXPECT_GT(report.bytes_freed, 0u);
  EXPECT_EQ(report.chunks_live, 2u);
  const auto loaded = store.load(second, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->segments[0].pages[0].data, pb);
  EXPECT_EQ(loaded->segments[0].pages[1].data, pc);

  EXPECT_TRUE(store.erase(second));
  EXPECT_EQ(store.gc(nullptr).chunks_live, 0u);
  EXPECT_TRUE(media_.list().empty());
  EXPECT_EQ(media_.stored_bytes(), 0u);
}

TEST_F(DedupTest, GcKeepsDeltaBasesAliveThroughTheClosure) {
  ReplicatedStore store = make_store();
  std::vector<std::byte> v1(sim::kPageSize);
  for (std::size_t i = 0; i < v1.size(); ++i) {
    v1[i] = static_cast<std::byte>(i * 13);
  }
  std::vector<std::byte> v2 = v1;
  v2[9] = std::byte{0xFF};
  const ImageId first = store.store(make_image(1, {v1}), nullptr);
  const ImageId second = store.store(make_image(2, {v2}), nullptr);
  ASSERT_EQ(store.dedup_stats().delta_chunks, 1u);

  // Erasing the image that *introduced* the base must not strand the delta:
  // the second image's closure pinned the base chunk too.
  EXPECT_TRUE(store.erase(first));
  EXPECT_EQ(store.gc(nullptr).chunks_freed, 0u);
  const auto loaded = store.load(second, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->segments[0].pages[0].data, v2);
}

CheckpointImage chain_image(ImageKind kind, std::uint8_t fill) {
  CheckpointImage image = make_image(fill, {filled(sim::kPageSize, fill)});
  image.kind = kind;
  return image;
}

TEST_F(DedupTest, PruneThenGcFreesOnlyChunksOutsideTheLiveSet) {
  ReplicatedStore store = make_store();
  CheckpointChain chain(&store);
  ASSERT_NE(chain.append(chain_image(ImageKind::kFull, 0x01), nullptr), kBadImageId);
  ASSERT_NE(chain.append(chain_image(ImageKind::kIncremental, 0x02), nullptr), kBadImageId);
  ASSERT_NE(chain.append(chain_image(ImageKind::kFull, 0x03), nullptr), kBadImageId);
  const ImageId tail = chain.append(chain_image(ImageKind::kIncremental, 0x04), nullptr);
  ASSERT_NE(tail, kBadImageId);

  const std::vector<ImageId> live = chain.live_set(nullptr);
  ASSERT_EQ(live.size(), 2u);  // newest full + its delta
  const auto before = chain.reconstruct(nullptr);
  ASSERT_TRUE(before.has_value());

  chain.prune(nullptr);
  EXPECT_EQ(chain.length(), 2u);
  // prune kept exactly live_set(): the store's remaining ids match it.
  std::vector<ImageId> remaining = store.list();
  std::vector<ImageId> want = live;
  std::sort(remaining.begin(), remaining.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(remaining, want);

  const GcReport report = store.gc(nullptr);
  EXPECT_EQ(report.chunks_freed, 2u);  // pages 0x01 and 0x02 are unreachable
  const auto after = chain.reconstruct(nullptr);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->serialize(), before->serialize());
}

TEST_F(DedupTest, GcNeverFreesWhatTheSurvivingRestartPathNeeds) {
  // The regression the shared live_set() walk prevents: when the newest full
  // image is corrupt, prune must keep the older history and GC must not free
  // any chunk reconstruct_newest_surviving() still reaches through it.
  ReplicatedStore store = make_store();
  CheckpointChain chain(&store);
  ASSERT_NE(chain.append(chain_image(ImageKind::kFull, 0x01), nullptr), kBadImageId);
  ASSERT_NE(chain.append(chain_image(ImageKind::kIncremental, 0x02), nullptr), kBadImageId);
  ASSERT_NE(chain.append(chain_image(ImageKind::kFull, 0x03), nullptr), kBadImageId);
  // The manifest is the last blob a dedup store() writes: newest_id() right
  // after the append is the new full image's manifest.
  const ImageId newest_full_manifest = media_.newest_id();
  ASSERT_NE(chain.append(chain_image(ImageKind::kIncremental, 0x04), nullptr), kBadImageId);

  ASSERT_TRUE(media_.corrupt_blob(newest_full_manifest, 0, 64));

  // No verifying full image newer than the first: everything stays live.
  EXPECT_EQ(chain.live_set(nullptr).size(), 4u);
  chain.prune(nullptr);
  EXPECT_EQ(chain.length(), 4u);
  EXPECT_EQ(store.gc(nullptr).chunks_freed, 0u);

  // The fallback restart must still reach the pre-corruption sequence point.
  const auto survived = chain.reconstruct_newest_surviving(nullptr);
  ASSERT_TRUE(survived.has_value());
  EXPECT_EQ(survived->segments[0].pages[0].data, filled(sim::kPageSize, 0x02));
}

// --- Replicated dedup mode ---------------------------------------------------

class ReplicatedDedupTest : public ::testing::Test {
 protected:
  sim::CostModel costs_{};
  LocalDiskBackend local_{costs_};
  RemoteBackend remote_{costs_};

  ReplicatedStore make_store(ReplicatedOptions options = {}) {
    options.dedup = true;
    return ReplicatedStore({&local_, &remote_}, options);
  }

  static CheckpointImage four_pages(std::uint64_t tag, std::uint8_t changed = 0) {
    std::vector<std::vector<std::byte>> pages;
    for (std::uint8_t p = 0; p < 4; ++p) {
      pages.push_back(filled(sim::kPageSize, static_cast<std::uint8_t>(0x10 + p)));
    }
    if (changed != 0) {
      pages[1] = filled(sim::kPageSize, changed);
    }
    return make_image(tag, std::move(pages));
  }
};

TEST_F(ReplicatedDedupTest, StoresStageOnlyTheChunksEachReplicaIsMissing) {
  ReplicatedStore store = make_store();
  const StoreReceipt first = store.store_verbose(four_pages(1), nullptr);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.committed_replicas, 2u);
  // 4 chunks + 1 manifest per replica.
  EXPECT_EQ(local_.list().size(), 5u);
  EXPECT_EQ(remote_.list().size(), 5u);

  const StoreReceipt second = store.store_verbose(four_pages(2, /*changed=*/0x99), nullptr);
  ASSERT_TRUE(second.ok());
  // Only the changed page's chunk plus the new manifest travel.
  EXPECT_EQ(local_.list().size(), 7u);
  EXPECT_EQ(remote_.list().size(), 7u);
  EXPECT_EQ(store.intact_replicas(first.id), 2u);
  EXPECT_EQ(store.intact_replicas(second.id), 2u);
  const auto loaded = store.load(second.id, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->segments[0].pages[1].data, filled(sim::kPageSize, 0x99));
}

TEST_F(ReplicatedDedupTest, ReplicaThatMissedAStoreCatchesUpViaScrub) {
  ReplicatedStore store = make_store();
  const StoreReceipt first = store.store_verbose(four_pages(1), nullptr);
  ASSERT_TRUE(first.ok());

  remote_.set_outage(true);
  const StoreReceipt second = store.store_verbose(four_pages(2, 0x99), nullptr);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.committed_replicas, 1u);
  remote_.set_outage(false);
  EXPECT_EQ(store.intact_replicas(second.id), 1u);

  const ScrubReport report = store.scrub(nullptr);
  EXPECT_GT(report.missing_found, 0u);
  EXPECT_EQ(report.missing_found, report.repaired);
  EXPECT_EQ(report.unrepairable, 0u);
  EXPECT_GT(report.chunks, 0u);
  EXPECT_EQ(store.intact_replicas(second.id), 2u);
  const auto loaded = store.load_from(1, second.id, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->segments[0].pages[1].data, filled(sim::kPageSize, 0x99));
}

TEST_F(ReplicatedDedupTest, ScrubRepairsACorruptChunkCopyFromThePeer) {
  ReplicatedStore store = make_store();
  const StoreReceipt receipt = store.store_verbose(four_pages(1), nullptr);
  ASSERT_TRUE(receipt.ok());
  // Chunks stage before the manifest, so the replica's first blob id is a
  // content chunk.
  ASSERT_TRUE(local_.corrupt_blob(local_.list().front(), 0, 32));
  EXPECT_EQ(store.intact_replicas(receipt.id), 1u);

  const ScrubReport report = store.scrub(nullptr);
  EXPECT_GE(report.corrupt_found, 1u);
  EXPECT_GE(report.repaired, 1u);
  EXPECT_EQ(report.unrepairable, 0u);
  EXPECT_EQ(store.intact_replicas(receipt.id), 2u);
  EXPECT_TRUE(store.load_from(0, receipt.id, nullptr).has_value());
}

TEST_F(ReplicatedDedupTest, CorruptRawChunkCopyFailsOverToThePeer) {
  ReplicatedStore store = make_store();
  const CheckpointImage image = four_pages(1);
  const StoreReceipt receipt = store.store_verbose(image, nullptr);
  ASSERT_TRUE(receipt.ok());
  // Chunks stage before the manifest: the first blob is a raw page chunk.
  const ImageId chunk = local_.list().front();
  constexpr std::uint64_t kHeader = 1 + 8 + 4;
  std::vector<std::uint64_t> offsets;
  for (std::uint64_t at = 0; at < kHeader; ++at) offsets.push_back(at);
  offsets.push_back(kHeader + 100);
  for (const std::uint64_t at : offsets) {
    ASSERT_TRUE(local_.corrupt_blob(chunk, at, 1, std::byte{0x01}));
    EXPECT_FALSE(store.load_from(0, receipt.id, nullptr).has_value()) << "byte " << at;
    const auto loaded = store.load(receipt.id, nullptr);
    ASSERT_TRUE(loaded.has_value()) << "byte " << at;
    EXPECT_EQ(loaded->serialize(), image.serialize()) << "byte " << at;
    ASSERT_TRUE(local_.corrupt_blob(chunk, at, 1, std::byte{0x01}));  // flip back
  }
  EXPECT_TRUE(store.load_from(0, receipt.id, nullptr).has_value());
}

TEST_F(ReplicatedDedupTest, RetargetedReplicaIsRebuiltChunksAndAll) {
  ReplicatedStore store = make_store();
  const StoreReceipt first = store.store_verbose(four_pages(1), nullptr);
  const StoreReceipt second = store.store_verbose(four_pages(2, 0x99), nullptr);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  RemoteBackend replacement{costs_};
  store.retarget_replica(1, &replacement);
  EXPECT_EQ(store.intact_replicas(first.id), 1u);

  const ScrubReport report = store.scrub(nullptr);
  EXPECT_GT(report.repaired, 0u);
  EXPECT_EQ(report.unrepairable, 0u);
  // Full history (both manifests and the whole chunk set) lives on the
  // replacement now.
  EXPECT_EQ(store.intact_replicas(first.id), 2u);
  EXPECT_EQ(store.intact_replicas(second.id), 2u);
  EXPECT_TRUE(store.load_from(1, first.id, nullptr).has_value());
  EXPECT_TRUE(store.load_from(1, second.id, nullptr).has_value());
}

TEST_F(ReplicatedDedupTest, EraseThenGcFreesChunkBlobsOnEveryReplica) {
  ReplicatedStore store = make_store();
  const StoreReceipt first = store.store_verbose(four_pages(1), nullptr);
  const StoreReceipt second = store.store_verbose(four_pages(2, 0x99), nullptr);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const std::size_t local_before = local_.list().size();

  EXPECT_TRUE(store.erase(first.id));
  const GcReport report = store.gc(nullptr);
  // Page 1's original content was only referenced by the first image.
  EXPECT_EQ(report.chunks_freed, 1u);
  // Manifest + freed chunk gone from each replica.
  EXPECT_EQ(local_.list().size(), local_before - 2);
  EXPECT_EQ(remote_.list().size(), local_before - 2);
  EXPECT_TRUE(store.load(second.id, nullptr).has_value());
  EXPECT_EQ(store.intact_replicas(second.id), 2u);
}

TEST_F(ReplicatedDedupTest, WorkerCountNeverChangesReplicaContentsOrCharges) {
  struct Run {
    std::vector<std::vector<std::byte>> local_blobs;
    std::vector<std::vector<std::byte>> remote_blobs;
    std::vector<SimTime> charges;
    std::vector<ImageId> ids;
  };
  auto run_with = [&](unsigned workers) {
    util::ThreadPool pool(workers);
    sim::CostModel costs{};
    LocalDiskBackend local{costs};
    RemoteBackend remote{costs};
    ReplicatedOptions options;
    options.dedup = true;
    options.pool = &pool;
    ReplicatedStore store({&local, &remote}, options);

    Run run;
    const ChargeFn charge = [&](SimTime t) { run.charges.push_back(t); };
    for (std::uint64_t tag = 1; tag <= 4; ++tag) {
      const StoreReceipt receipt =
          store.store_verbose(four_pages(tag, static_cast<std::uint8_t>(0x90 + tag)), charge);
      EXPECT_TRUE(receipt.ok());
      run.ids.push_back(receipt.id);
    }
    for (const ImageId id : local.list()) {
      run.local_blobs.push_back(*local.read_blob(id, nullptr));
    }
    for (const ImageId id : remote.list()) {
      run.remote_blobs.push_back(*remote.read_blob(id, nullptr));
    }
    return run;
  };

  const Run serial = run_with(1);
  const Run pooled = run_with(8);
  EXPECT_EQ(serial.ids, pooled.ids);
  EXPECT_EQ(serial.charges, pooled.charges);
  EXPECT_EQ(serial.local_blobs, pooled.local_blobs);
  EXPECT_EQ(serial.remote_blobs, pooled.remote_blobs);
}

}  // namespace
}  // namespace ckpt::storage
