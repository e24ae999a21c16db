#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "storage/backend.hpp"
#include "storage/chain.hpp"
#include "storage/image.hpp"
#include "storage/replicated.hpp"
#include "util/crc64.hpp"
#include "util/serialize.hpp"

namespace ckpt::storage {
namespace {

CheckpointImage make_image(std::uint64_t tag, ImageKind kind = ImageKind::kFull) {
  CheckpointImage image;
  image.kind = kind;
  image.pid = 42;
  image.process_name = "app";
  image.hostname = "node0";
  image.taken_at = tag;
  image.guest = sim::GuestImage{"counter", {std::byte{1}, std::byte{2}}};
  image.threads.push_back(ThreadImage{1, {}});
  image.threads[0].regs.pc = tag;

  MemorySegmentImage seg;
  seg.vma = sim::Vma{sim::page_of(0x10000), 2, sim::kProtRW, sim::VmaKind::kData, "data"};
  PageImage page;
  page.page = seg.vma.first_page;
  page.data.assign(sim::kPageSize, static_cast<std::byte>(tag & 0xFF));
  seg.pages.push_back(std::move(page));
  image.segments.push_back(std::move(seg));

  image.brk = 0x20000;
  image.sig_pending = 0x4;
  FileDescriptorImage fd;
  fd.fd = 3;
  fd.path = "/data/log";
  fd.offset = 128 + tag;
  image.files.push_back(std::move(fd));
  image.bound_ports.push_back(8080);
  return image;
}

TEST(Image, SerializeRoundTrip) {
  const CheckpointImage original = make_image(7);
  const auto bytes = original.serialize();
  EXPECT_TRUE(CheckpointImage::loads(bytes));
  EXPECT_TRUE(CheckpointImage::loads(bytes, util::crc64(bytes)));
  EXPECT_FALSE(CheckpointImage::loads(bytes, util::crc64(bytes) ^ 1));
  EXPECT_THROW(CheckpointImage::deserialize(bytes, util::crc64(bytes) ^ 1), ImageCorrupt);
  const CheckpointImage copy = CheckpointImage::deserialize(bytes, util::crc64(bytes));
  EXPECT_EQ(copy.pid, original.pid);
  EXPECT_EQ(copy.process_name, original.process_name);
  EXPECT_EQ(copy.guest.type_name, "counter");
  EXPECT_EQ(copy.guest.config, original.guest.config);
  ASSERT_EQ(copy.threads.size(), 1u);
  EXPECT_EQ(copy.threads[0].regs.pc, 7u);
  ASSERT_EQ(copy.segments.size(), 1u);
  EXPECT_EQ(copy.segments[0].vma.name, "data");
  ASSERT_EQ(copy.segments[0].pages.size(), 1u);
  EXPECT_EQ(copy.segments[0].pages[0].data, original.segments[0].pages[0].data);
  ASSERT_EQ(copy.files.size(), 1u);
  EXPECT_EQ(copy.files[0].offset, 135u);
  EXPECT_EQ(copy.bound_ports, original.bound_ports);
}

TEST(Image, CorruptionDetected) {
  auto bytes = make_image(1).serialize();
  bytes[bytes.size() / 2] ^= std::byte{0xFF};
  EXPECT_THROW(CheckpointImage::deserialize(bytes), ImageCorrupt);
  EXPECT_FALSE(CheckpointImage::loads(bytes));
}

TEST(Image, TruncationDetected) {
  auto bytes = make_image(1).serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(CheckpointImage::deserialize(bytes), ImageCorrupt);
  EXPECT_FALSE(CheckpointImage::loads(bytes));
}

// --- Hostile length prefixes --------------------------------------------------
//
// Each blob below carries a valid CRC64 envelope around a body whose length
// or count prefix lies.  The decoder must reject it with its typed error,
// which every load path turns into nullopt — never std::length_error or an
// out-of-bounds read.

constexpr std::size_t kEnvelopeHeader = sizeof(std::uint32_t) + sizeof(std::uint64_t);

void put_u64_le(std::vector<std::byte>& bytes, std::size_t at, std::uint64_t value) {
  for (std::size_t i = 0; i < sizeof(value); ++i) {
    bytes[at + i] = static_cast<std::byte>((value >> (8 * i)) & 0xFF);
  }
}

/// Recompute the envelope CRC over the (patched) body.
void reseal(std::vector<std::byte>& blob) {
  const std::span<const std::byte> body = std::span<const std::byte>(blob).subspan(kEnvelopeHeader);
  put_u64_le(blob, sizeof(std::uint32_t), util::crc64(body));
}

std::size_t prelude_size(const CheckpointImage& image) {
  util::Serializer prelude;
  encode_image_prelude(prelude, image);
  return prelude.bytes().size();
}

/// A serialized image whose segment count (the prelude's last field) lies.
std::vector<std::byte> hostile_segment_count(std::uint64_t count) {
  const CheckpointImage image = make_image(5);
  std::vector<std::byte> blob = image.serialize();
  put_u64_le(blob, kEnvelopeHeader + prelude_size(image) - sizeof(std::uint64_t), count);
  reseal(blob);
  return blob;
}

/// A serialized image whose process-name length is near 2^64.
std::vector<std::byte> hostile_string_length() {
  std::vector<std::byte> blob = make_image(5).serialize();
  // The name is the first length-prefixed string: u64 length 3, then "app".
  std::vector<std::byte> needle(sizeof(std::uint64_t) + 3);
  put_u64_le(needle, 0, 3);
  std::memcpy(needle.data() + sizeof(std::uint64_t), "app", 3);
  const auto at = std::search(blob.begin(), blob.end(), needle.begin(), needle.end());
  if (at == blob.end()) {
    ADD_FAILURE() << "process-name length prefix not found";
    return blob;
  }
  put_u64_le(blob, static_cast<std::size_t>(at - blob.begin()), ~std::uint64_t{0} - 2);
  reseal(blob);
  return blob;
}

/// Commit `blob`'s body verbatim through a streamed store (the store seals
/// whatever body it is handed), so the hostile bytes sit under a valid
/// manifest CRC and only the decoder stands between them and the caller.
ImageId commit_raw_body(ReplicatedStore& store, const std::vector<std::byte>& blob) {
  ReplicatedStore::StreamSource source;
  source.prelude.assign(blob.begin() + kEnvelopeHeader, blob.end());
  return store.store_streamed(source, nullptr).id;
}

TEST(HostileBlob, SegmentCountBeyondTheBodyIsRejected) {
  const std::vector<std::byte> blob = hostile_segment_count(std::uint64_t{1} << 62);
  EXPECT_THROW(CheckpointImage::deserialize(blob), util::SerializeError);

  const sim::CostModel costs;
  LocalDiskBackend disk{costs};
  const ImageId raw = disk.put_raw(blob, nullptr);
  ASSERT_NE(raw, kBadImageId);
  EXPECT_FALSE(disk.load(raw, nullptr).has_value());

  RemoteBackend remote{costs};
  ReplicatedStore store({&remote}, {});
  const ImageId committed = commit_raw_body(store, blob);
  ASSERT_NE(committed, kBadImageId);
  EXPECT_FALSE(store.load(committed, nullptr).has_value());
  EXPECT_FALSE(store.verify(committed, nullptr));  // the walk refuses what the decode does
  EXPECT_FALSE(CheckpointImage::loads(blob));
  EXPECT_FALSE(store.load_from(0, committed, nullptr).has_value());
}

TEST(HostileBlob, WrappingStringLengthIsRejected) {
  const std::vector<std::byte> blob = hostile_string_length();
  EXPECT_THROW(CheckpointImage::deserialize(blob), util::SerializeError);

  const sim::CostModel costs;
  LocalDiskBackend disk{costs};
  const ImageId raw = disk.put_raw(blob, nullptr);
  ASSERT_NE(raw, kBadImageId);
  EXPECT_FALSE(disk.load(raw, nullptr).has_value());

  RemoteBackend remote{costs};
  ReplicatedStore store({&remote}, {});
  const ImageId committed = commit_raw_body(store, blob);
  ASSERT_NE(committed, kBadImageId);
  EXPECT_FALSE(store.load(committed, nullptr).has_value());
  EXPECT_FALSE(store.verify(committed, nullptr));  // the walk refuses what the decode does
  EXPECT_FALSE(CheckpointImage::loads(blob));
}

TEST(Image, PayloadAccounting) {
  const CheckpointImage image = make_image(1);
  EXPECT_EQ(image.payload_bytes(), sim::kPageSize);
  EXPECT_EQ(image.page_count(), 1u);
}

TEST(Backend, LocalDiskStoresAndLoads) {
  LocalDiskBackend backend{sim::CostModel{}};
  SimTime charged = 0;
  auto charge = [&](SimTime t) { charged += t; };
  const ImageId id = backend.store(make_image(3), charge);
  ASSERT_NE(id, kBadImageId);
  EXPECT_GT(charged, 0u);  // disk latency + bandwidth were paid
  const auto loaded = backend.load(id, charge);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->taken_at, 3u);
}

TEST(Backend, LocalDiskUnreachableAfterNodeFailure) {
  LocalDiskBackend backend{sim::CostModel{}};
  const ImageId id = backend.store(make_image(3), nullptr);
  backend.fail_node();
  EXPECT_FALSE(backend.load(id, nullptr).has_value());
  EXPECT_EQ(backend.store(make_image(4), nullptr), kBadImageId);
  backend.recover_node();
  EXPECT_TRUE(backend.load(id, nullptr).has_value());  // data survived the outage
}

TEST(Backend, RemoteSurvivesButCostsMore) {
  const sim::CostModel costs{};
  LocalDiskBackend local{costs};
  RemoteBackend remote{costs};
  SimTime local_cost = 0, remote_cost = 0;
  local.store(make_image(1), [&](SimTime t) { local_cost += t; });
  remote.store(make_image(1), [&](SimTime t) { remote_cost += t; });
  EXPECT_GT(remote_cost, local_cost);  // network + remote disk
}

TEST(Backend, MemoryBackendLosesDataOnPowerCycle) {
  MemoryBackend backend{sim::CostModel{}};
  const ImageId id = backend.store(make_image(9), nullptr);
  ASSERT_TRUE(backend.load(id, nullptr).has_value());
  backend.power_cycle();
  EXPECT_FALSE(backend.load(id, nullptr).has_value());
}

TEST(Backend, NullBackendRetainsNothing) {
  NullBackend backend;
  const ImageId id = backend.store(make_image(1), nullptr);
  EXPECT_NE(id, kBadImageId);  // accepted...
  EXPECT_FALSE(backend.load(id, nullptr).has_value());
  EXPECT_TRUE(backend.list().empty());
  EXPECT_EQ(backend.stored_bytes(), 0u);
}

TEST(Backend, EraseAndList) {
  LocalDiskBackend backend{sim::CostModel{}};
  const ImageId a = backend.store(make_image(1), nullptr);
  const ImageId b = backend.store(make_image(2), nullptr);
  EXPECT_EQ(backend.list().size(), 2u);
  EXPECT_TRUE(backend.erase(a));
  EXPECT_FALSE(backend.erase(a));
  EXPECT_EQ(backend.list().size(), 1u);
  EXPECT_EQ(backend.list()[0], b);
}

class ChainTest : public ::testing::Test {
 protected:
  LocalDiskBackend backend_{sim::CostModel{}};
  CheckpointChain chain_{&backend_};

  static CheckpointImage delta_with_page(std::uint64_t tag, sim::PageNum page,
                                         std::uint32_t offset, std::uint32_t len,
                                         std::byte fill) {
    CheckpointImage image = make_image(tag, ImageKind::kIncremental);
    image.segments[0].pages.clear();
    PageImage p;
    p.page = page;
    p.offset = offset;
    p.data.assign(len, fill);
    image.segments[0].pages.push_back(std::move(p));
    return image;
  }
};

TEST_F(ChainTest, FullThenDeltaReconstructs) {
  const sim::PageNum base_page = sim::page_of(0x10000);
  ASSERT_NE(chain_.append(make_image(1), nullptr), kBadImageId);
  // Delta: overwrite bytes [100, 200) of the first page.
  ASSERT_NE(chain_.append(delta_with_page(2, base_page, 100, 100, std::byte{0xEE}), nullptr),
            kBadImageId);

  const auto merged = chain_.reconstruct(nullptr);
  ASSERT_TRUE(merged.has_value());
  ASSERT_EQ(merged->segments.size(), 1u);
  // Find the first page and verify the overlay.
  const auto& pages = merged->segments[0].pages;
  ASSERT_FALSE(pages.empty());
  const auto& page = pages[0];
  EXPECT_EQ(page.offset, 0u);
  EXPECT_EQ(page.data[99], std::byte{1});    // untouched (full image fill)
  EXPECT_EQ(page.data[100], std::byte{0xEE});  // delta overlay
  EXPECT_EQ(page.data[199], std::byte{0xEE});
  EXPECT_EQ(page.data[200], std::byte{1});
}

TEST_F(ChainTest, ReconstructAtIntermediateSequence) {
  const sim::PageNum base_page = sim::page_of(0x10000);
  chain_.append(make_image(1), nullptr);
  chain_.append(delta_with_page(2, base_page, 0, 8, std::byte{0x22}), nullptr);
  chain_.append(delta_with_page(3, base_page, 0, 8, std::byte{0x33}), nullptr);

  const auto middle = chain_.reconstruct_at(2, nullptr);
  ASSERT_TRUE(middle.has_value());
  EXPECT_EQ(middle->segments[0].pages[0].data[0], std::byte{0x22});

  const auto latest = chain_.reconstruct(nullptr);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->segments[0].pages[0].data[0], std::byte{0x33});
}

TEST_F(ChainTest, NewFullRestartsChain) {
  chain_.append(make_image(1), nullptr);
  chain_.append(delta_with_page(2, sim::page_of(0x10000), 0, 8, std::byte{0x22}), nullptr);
  chain_.append(make_image(5), nullptr);  // new full
  EXPECT_EQ(chain_.links_from_last_full(), 1u);
  const auto merged = chain_.reconstruct(nullptr);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->segments[0].pages[0].data[0], std::byte{5});
}

TEST_F(ChainTest, PruneDropsSupersededImages) {
  chain_.append(make_image(1), nullptr);
  chain_.append(delta_with_page(2, sim::page_of(0x10000), 0, 8, std::byte{0x22}), nullptr);
  chain_.append(make_image(3), nullptr);
  EXPECT_EQ(backend_.list().size(), 3u);
  chain_.prune();
  EXPECT_EQ(backend_.list().size(), 1u);
  const auto merged = chain_.reconstruct(nullptr);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->segments[0].pages[0].data[0], std::byte{3});
}

TEST_F(ChainTest, MissingLinkFailsReconstruction) {
  chain_.append(make_image(1), nullptr);
  const ImageId delta_id =
      chain_.append(delta_with_page(2, sim::page_of(0x10000), 0, 8, std::byte{0x22}), nullptr);
  backend_.erase(delta_id);
  EXPECT_FALSE(chain_.reconstruct(nullptr).has_value());
}

TEST_F(ChainTest, EmptyChainReconstructsNothing) {
  EXPECT_FALSE(chain_.reconstruct(nullptr).has_value());
  EXPECT_EQ(chain_.links_from_last_full(), 0u);
}

// --- Injected store faults and silent corruption (src/inject hooks) --------

TEST(BackendFaults, StoreRejectFailsCleanlyAndIsOneShot) {
  LocalDiskBackend backend{sim::CostModel{}};
  backend.inject_store_fault(StoreFault::kReject);
  EXPECT_EQ(backend.store(make_image(1), nullptr), kBadImageId);
  EXPECT_TRUE(backend.list().empty());  // nothing persisted
  EXPECT_EQ(backend.pending_store_fault(), StoreFault::kNone);  // consumed
  EXPECT_NE(backend.store(make_image(2), nullptr), kBadImageId);
}

TEST(BackendFaults, TornWriteSurfacesOnlyAtLoad) {
  LocalDiskBackend backend{sim::CostModel{}};
  backend.inject_store_fault(StoreFault::kTornWrite);
  const ImageId id = backend.store(make_image(1), nullptr);
  ASSERT_NE(id, kBadImageId);  // the crash-mid-write "succeeded"
  EXPECT_EQ(backend.list().size(), 1u);
  EXPECT_FALSE(backend.load(id, nullptr).has_value());  // CRC catches it
}

TEST(BackendFaults, CorruptionDetectedOnEveryBlobStoreSubclass) {
  const sim::CostModel costs{};
  LocalDiskBackend local{costs};
  RemoteBackend remote{costs};
  MemoryBackend memory{costs};
  BlobStoreBackend* backends[] = {&local, &remote, &memory};
  for (BlobStoreBackend* backend : backends) {
    const ImageId id = backend->store(make_image(9), nullptr);
    ASSERT_NE(id, kBadImageId);
    ASSERT_TRUE(backend->load(id, nullptr).has_value());
    EXPECT_EQ(backend->newest_id(), id);
    ASSERT_TRUE(backend->corrupt_blob(id, /*offset=*/17, /*count=*/5));
    EXPECT_FALSE(backend->load(id, nullptr).has_value());
  }
}

TEST(BackendFaults, CorruptBlobRejectsBadTargets) {
  LocalDiskBackend backend{sim::CostModel{}};
  EXPECT_EQ(backend.newest_id(), kBadImageId);
  EXPECT_FALSE(backend.corrupt_blob(7, 0, 1));  // unknown id
  const ImageId id = backend.store(make_image(1), nullptr);
  EXPECT_FALSE(backend.corrupt_blob(id, 0, 1, std::byte{0}));  // zero mask = no-op
  EXPECT_TRUE(backend.load(id, nullptr).has_value());
}

TEST(BackendFaults, CorruptionOffsetWrapsWithinBlob) {
  LocalDiskBackend backend{sim::CostModel{}};
  const ImageId id = backend.store(make_image(1), nullptr);
  // An offset far beyond the blob size must still land inside the blob.
  ASSERT_TRUE(backend.corrupt_blob(id, ~0ULL - 3, 4));
  EXPECT_FALSE(backend.load(id, nullptr).has_value());
}

TEST(BackendFaults, OutageIsTransientAndPreservesData) {
  RemoteBackend backend{sim::CostModel{}};
  const ImageId id = backend.store(make_image(1), nullptr);
  ASSERT_NE(id, kBadImageId);

  backend.set_outage(true);
  EXPECT_FALSE(backend.reachable());
  EXPECT_EQ(backend.store(make_image(2), nullptr), kBadImageId);
  EXPECT_FALSE(backend.load(id, nullptr).has_value());

  backend.set_outage(false);
  EXPECT_TRUE(backend.load(id, nullptr).has_value());  // data was untouched
}

// A lost medium refuses a store before charging anything; an outage charges
// the write's io_cost and only then refuses it.
TEST(BackendFaults, LostMediumRefusesBeforeChargingOutageAfter) {
  const sim::CostModel costs{};
  const CheckpointImage image = make_image(1);
  const SimTime write_cost = costs.disk_cost(image.serialized_size());
  SimTime charged = 0;
  const ChargeFn charge = [&](SimTime t) { charged += t; };

  LocalDiskBackend failed{costs};
  failed.fail_node();
  EXPECT_EQ(failed.store(image, charge), kBadImageId);
  EXPECT_EQ(charged, 0u);

  MemoryBackend cycled{costs};
  cycled.power_cycle();
  EXPECT_FALSE(cycled.reachable());
  EXPECT_EQ(cycled.store(image, charge), kBadImageId);
  EXPECT_EQ(charged, 0u);

  LocalDiskBackend both{costs};
  both.fail_node();
  both.set_outage(true);
  EXPECT_EQ(both.store(image, charge), kBadImageId);
  EXPECT_EQ(charged, 0u);

  LocalDiskBackend outage{costs};
  outage.set_outage(true);
  EXPECT_EQ(outage.store(image, charge), kBadImageId);
  EXPECT_EQ(charged, write_cost);
  EXPECT_TRUE(outage.list().empty());
}

TEST_F(ChainTest, CorruptedDeltaFailsReconstruction) {
  chain_.append(make_image(1), nullptr);
  const ImageId delta_id =
      chain_.append(delta_with_page(2, sim::page_of(0x10000), 0, 8, std::byte{0x22}), nullptr);
  ASSERT_TRUE(backend_.corrupt_blob(delta_id, 11, 3));
  // The newest state needs the delta, which no longer deserializes.
  EXPECT_FALSE(chain_.reconstruct(nullptr).has_value());
  // The full image beneath it is still intact.
  EXPECT_TRUE(chain_.reconstruct_at(1, nullptr).has_value());
}

TEST_F(ChainTest, NewestSurvivingFallsBackPastCorruptDelta) {
  const sim::PageNum base_page = sim::page_of(0x10000);
  chain_.append(make_image(1), nullptr);
  chain_.append(delta_with_page(2, base_page, 0, 8, std::byte{0x22}), nullptr);
  const ImageId newest_delta =
      chain_.append(delta_with_page(3, base_page, 0, 8, std::byte{0x33}), nullptr);
  ASSERT_TRUE(backend_.corrupt_blob(newest_delta, 5, 2));

  const auto survivor = chain_.reconstruct_newest_surviving(nullptr);
  ASSERT_TRUE(survivor.has_value());
  // Fell back exactly one sequence point: the 0x22 delta still applies.
  EXPECT_EQ(survivor->segments[0].pages[0].data[0], std::byte{0x22});
}

TEST_F(ChainTest, NewestSurvivingFallsBackPastTornFull) {
  chain_.append(make_image(1), nullptr);
  backend_.inject_store_fault(StoreFault::kTornWrite);
  ASSERT_NE(chain_.append(make_image(5), nullptr), kBadImageId);

  const auto survivor = chain_.reconstruct_newest_surviving(nullptr);
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(survivor->segments[0].pages[0].data[0], std::byte{1});
}

TEST_F(ChainTest, PruneKeepsFallbackWhenNewestFullIsTorn) {
  const sim::PageNum base_page = sim::page_of(0x10000);
  chain_.append(make_image(1), nullptr);
  chain_.append(delta_with_page(2, base_page, 0, 8, std::byte{0x22}), nullptr);
  backend_.inject_store_fault(StoreFault::kTornWrite);
  ASSERT_NE(chain_.append(make_image(5), nullptr), kBadImageId);  // torn on disk

  // Regression: prune() used to cut everything below the newest full image
  // without checking it was readable, destroying the exact states
  // reconstruct_newest_surviving() needs as fallback targets.
  chain_.prune();
  const auto survivor = chain_.reconstruct_newest_surviving(nullptr);
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(survivor->segments[0].pages[0].data[0], std::byte{0x22});
}

TEST_F(ChainTest, PruneKeepsFallbackWhenNewestFullIsCorrupt) {
  chain_.append(make_image(1), nullptr);
  const ImageId newest = chain_.append(make_image(3), nullptr);
  ASSERT_TRUE(backend_.corrupt_blob(newest, 4, 2));
  chain_.prune();
  EXPECT_EQ(backend_.list().size(), 2u);  // nothing verified newer: keep all
  const auto survivor = chain_.reconstruct_newest_surviving(nullptr);
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(survivor->segments[0].pages[0].data[0], std::byte{1});
}

TEST_F(ChainTest, NewestSurvivingRefusesWhenEverythingIsCorrupt) {
  const ImageId only = chain_.append(make_image(1), nullptr);
  ASSERT_TRUE(backend_.corrupt_blob(only, 0, 9));
  EXPECT_FALSE(chain_.reconstruct_newest_surviving(nullptr).has_value());
  EXPECT_FALSE(chain_.reconstruct_newest_surviving(nullptr).has_value());  // stable
}

}  // namespace
}  // namespace ckpt::storage
