// ReplicatedStore (two-phase publish, quorum, failover, scrub) and
// RetryPolicy (determinism, deadline, zero-retry degradation).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/observer.hpp"
#include "storage/backend.hpp"
#include "storage/chain.hpp"
#include "storage/image.hpp"
#include "storage/replicated.hpp"
#include "storage/retry.hpp"
#include "util/crc64.hpp"
#include "util/serialize.hpp"
#include "util/threadpool.hpp"

namespace ckpt::storage {
namespace {

CheckpointImage make_image(std::uint64_t tag) {
  CheckpointImage image;
  image.kind = ImageKind::kFull;
  image.pid = 42;
  image.process_name = "app";
  image.taken_at = tag;
  image.threads.push_back(ThreadImage{1, {}});
  image.threads[0].regs.pc = tag;
  MemorySegmentImage seg;
  seg.vma = sim::Vma{sim::page_of(0x10000), 1, sim::kProtRW, sim::VmaKind::kData, "data"};
  PageImage page;
  page.page = seg.vma.first_page;
  page.data.assign(sim::kPageSize, static_cast<std::byte>(tag & 0xFF));
  seg.pages.push_back(std::move(page));
  image.segments.push_back(std::move(seg));
  return image;
}

RetryPolicy retrying(std::uint64_t retries) {
  RetryPolicy policy = RetryPolicy::bounded(retries, /*deadline=*/0);
  return policy;
}

class ReplicatedTest : public ::testing::Test {
 protected:
  sim::CostModel costs_{};
  LocalDiskBackend local_{costs_};
  RemoteBackend remote_{costs_};

  ReplicatedStore make_store(ReplicatedOptions options = {}) {
    return ReplicatedStore({&local_, &remote_}, options);
  }
};

TEST_F(ReplicatedTest, StoreFansOutToEveryReplica) {
  ReplicatedStore store = make_store();
  const StoreReceipt receipt = store.store_verbose(make_image(1), nullptr);
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt.committed_replicas, 2u);
  EXPECT_EQ(receipt.retries, 0u);
  EXPECT_EQ(receipt.last_error, StoreErrorKind::kNone);
  EXPECT_EQ(store.intact_replicas(receipt.id), 2u);
  EXPECT_TRUE(store.load_from(0, receipt.id, nullptr).has_value());
  EXPECT_TRUE(store.load_from(1, receipt.id, nullptr).has_value());
  const auto loaded = store.load(receipt.id, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->taken_at, 1u);
}

TEST_F(ReplicatedTest, ConstructorRejectsBadConfigurations) {
  EXPECT_THROW(ReplicatedStore({}, {}), std::invalid_argument);
  EXPECT_THROW(ReplicatedStore({&local_, nullptr}, {}), std::invalid_argument);
  ReplicatedOptions options;
  options.write_quorum = 3;  // only two replicas
  EXPECT_THROW(ReplicatedStore({&local_, &remote_}, options), std::invalid_argument);
  options.write_quorum = 0;
  EXPECT_THROW(ReplicatedStore({&local_, &remote_}, options), std::invalid_argument);
}

// --- Two-phase atomic publish ----------------------------------------------

TEST_F(ReplicatedTest, TornStageIsCaughtRolledBackAndSurfaced) {
  // No retries: the torn copy must simply not commit on that replica — the
  // peer's verified copy carries the quorum — and the underlying fault is
  // visible in the receipt.
  ReplicatedStore store = make_store();
  local_.inject_store_fault(StoreFault::kTornWrite);
  const StoreReceipt receipt = store.store_verbose(make_image(2), nullptr);
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt.committed_replicas, 1u);
  EXPECT_EQ(receipt.last_error, StoreErrorKind::kTornWrite);
  EXPECT_TRUE(local_.list().empty());  // staged torn blob was rolled back
  EXPECT_FALSE(store.load_from(0, receipt.id, nullptr).has_value());
  EXPECT_TRUE(store.load_from(1, receipt.id, nullptr).has_value());
}

TEST_F(ReplicatedTest, TornStageHealsUnderRetry) {
  // Injected faults are one-shot, so a single retry re-stages an intact
  // copy: the commit reaches full width again.
  ReplicatedOptions options;
  options.retry = retrying(2);
  ReplicatedStore store = make_store(options);
  local_.inject_store_fault(StoreFault::kTornWrite);
  const StoreReceipt receipt = store.store_verbose(make_image(3), nullptr);
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt.committed_replicas, 2u);
  EXPECT_GE(receipt.retries, 1u);
  EXPECT_TRUE(store.load_from(0, receipt.id, nullptr).has_value());
}

TEST_F(ReplicatedTest, QuorumFailureLeavesNoTrace) {
  ReplicatedOptions options;
  options.write_quorum = 2;
  ReplicatedStore store = make_store(options);
  local_.inject_store_fault(StoreFault::kReject);
  const StoreReceipt receipt = store.store_verbose(make_image(4), nullptr);
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.last_error, StoreErrorKind::kRejected);
  // Atomicity: the remote stage that *did* verify was rolled back, nothing
  // is half-visible anywhere.
  EXPECT_TRUE(store.list().empty());
  EXPECT_TRUE(local_.list().empty());
  EXPECT_TRUE(remote_.list().empty());
  EXPECT_FALSE(store.any_intact_committed());
}

TEST_F(ReplicatedTest, TotalOutageFailsWithUnreachable) {
  ReplicatedStore store = make_store();
  local_.set_outage(true);
  remote_.set_outage(true);
  const StoreReceipt receipt = store.store_verbose(make_image(5), nullptr);
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.last_error, StoreErrorKind::kUnreachable);
  EXPECT_FALSE(store.reachable());
  local_.set_outage(false);
  EXPECT_TRUE(store.reachable());
}

// --- Quorum-verified reads with failover -----------------------------------

TEST_F(ReplicatedTest, LoadFailsOverPastCorruptReplica) {
  ReplicatedStore store = make_store();
  const ImageId id = store.store(make_image(6), nullptr);
  ASSERT_NE(id, kBadImageId);
  ASSERT_TRUE(local_.corrupt_blob(local_.newest_id(), 13, 3));

  EXPECT_FALSE(store.load_from(0, id, nullptr).has_value());  // CRC vetoes
  EXPECT_EQ(store.intact_replicas(id), 1u);
  const auto loaded = store.load(id, nullptr);  // silently fails over
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->taken_at, 6u);
}

TEST_F(ReplicatedTest, LoadFailsOverPastUnreachableReplica) {
  ReplicatedStore store = make_store();
  const ImageId id = store.store(make_image(7), nullptr);
  local_.fail_node();
  EXPECT_TRUE(store.load(id, nullptr).has_value());
  remote_.set_outage(true);
  EXPECT_FALSE(store.load(id, nullptr).has_value());
}

TEST_F(ReplicatedTest, EraseRemovesEveryCopy) {
  ReplicatedStore store = make_store();
  const ImageId id = store.store(make_image(8), nullptr);
  EXPECT_TRUE(store.erase(id));
  EXPECT_FALSE(store.erase(id));
  EXPECT_TRUE(local_.list().empty());
  EXPECT_TRUE(remote_.list().empty());
  EXPECT_TRUE(store.list().empty());
}

// --- Scrub: detect and repair ----------------------------------------------

TEST_F(ReplicatedTest, ScrubRepairsCorruptCopyFromHealthyPeer) {
  ReplicatedStore store = make_store();
  const ImageId id = store.store(make_image(9), nullptr);
  ASSERT_TRUE(local_.corrupt_blob(local_.newest_id(), 0, 4));
  ASSERT_EQ(store.intact_replicas(id), 1u);

  const ScrubReport report = store.scrub(nullptr);
  EXPECT_EQ(report.entries, 1u);
  EXPECT_EQ(report.corrupt_found, 1u);
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_EQ(report.unrepairable, 0u);
  EXPECT_EQ(store.intact_replicas(id), 2u);
  EXPECT_TRUE(store.load_from(0, id, nullptr).has_value());

  // A second pass finds nothing left to do.
  const ScrubReport again = store.scrub(nullptr);
  EXPECT_TRUE(again.clean());
  EXPECT_EQ(again.repaired, 0u);
}

TEST_F(ReplicatedTest, ScrubReplicatesEntriesMissedDuringOutage) {
  ReplicatedStore store = make_store();
  remote_.set_outage(true);
  const ImageId id = store.store(make_image(10), nullptr);  // local copy only
  ASSERT_NE(id, kBadImageId);
  remote_.set_outage(false);

  const ScrubReport report = store.scrub(nullptr);
  EXPECT_EQ(report.missing_found, 1u);
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_EQ(store.intact_replicas(id), 2u);
  EXPECT_TRUE(store.load_from(1, id, nullptr).has_value());
}

TEST_F(ReplicatedTest, ScrubSkipsUnreachableReplicas) {
  ReplicatedStore store = make_store();
  store.store(make_image(11), nullptr);
  remote_.set_outage(true);
  const ScrubReport report = store.scrub(nullptr);
  EXPECT_EQ(report.skipped_unreachable, 1u);
  EXPECT_EQ(report.repaired, 0u);
}

TEST_F(ReplicatedTest, ScrubReportsUnrepairableWhenNoPeerSurvives) {
  ReplicatedStore store({&local_}, {});
  const ImageId id = store.store(make_image(12), nullptr);
  ASSERT_TRUE(local_.corrupt_blob(local_.newest_id(), 2, 2));
  const ScrubReport report = store.scrub(nullptr);
  EXPECT_EQ(report.corrupt_found, 1u);
  EXPECT_EQ(report.unrepairable, 1u);
  EXPECT_EQ(report.repaired, 0u);
  EXPECT_EQ(store.intact_replicas(id), 0u);
  EXPECT_FALSE(store.any_intact_committed());
}

TEST_F(ReplicatedTest, RetargetThenScrubReReplicatesHistory) {
  ReplicatedStore store = make_store();
  const ImageId a = store.store(make_image(13), nullptr);
  const ImageId b = store.store(make_image(14), nullptr);

  // Failover: slot 0 becomes a blank replacement disk.
  LocalDiskBackend replacement{costs_};
  store.retarget_replica(0, &replacement);
  EXPECT_FALSE(store.load_from(0, a, nullptr).has_value());
  EXPECT_FALSE(store.load_from(0, b, nullptr).has_value());

  const ScrubReport report = store.scrub(nullptr);
  EXPECT_EQ(report.missing_found, 2u);
  EXPECT_EQ(report.repaired, 2u);
  EXPECT_TRUE(store.load_from(0, a, nullptr).has_value());
  EXPECT_TRUE(store.load_from(0, b, nullptr).has_value());
  EXPECT_EQ(replacement.list().size(), 2u);

  EXPECT_THROW(store.retarget_replica(5, &replacement), std::invalid_argument);
  EXPECT_THROW(store.retarget_replica(0, nullptr), std::invalid_argument);
}

TEST_F(ReplicatedTest, NewestCommittedTracksManifestOrder) {
  ReplicatedStore store = make_store();
  EXPECT_EQ(store.newest_committed(), kBadImageId);
  store.store(make_image(1), nullptr);
  const ImageId newest = store.store(make_image(2), nullptr);
  EXPECT_EQ(store.newest_committed(), newest);
  EXPECT_TRUE(store.any_intact_committed());
}

// --- RetryPolicy / Retrier ---------------------------------------------------

TEST_F(ReplicatedTest, FlatCommitWithPruneHashesEachByteAtMostFiveTimes) {
  // One flat commit of an S-byte image, then the prune that follows a full
  // image, may hash 5·S bytes: serialize's body pass, three read-back
  // verifies and the prune's verify.  The entry CRC and the verify's
  // certificate check come from the envelope, not from more passes over the
  // blob.
  RemoteBackend third{costs_};
  ReplicatedStore store({&local_, &remote_, &third});
  CheckpointChain chain(&store);
  ASSERT_NE(chain.append(make_image(1), ChargeFn{}), kBadImageId);

  CheckpointImage image = make_image(2);
  MemorySegmentImage heap;
  heap.vma = sim::Vma{sim::page_of(0x40000), 16, sim::kProtRW, sim::VmaKind::kHeap, "heap"};
  for (std::uint64_t p = 0; p < heap.vma.page_count; ++p) {
    PageImage page;
    page.page = heap.vma.first_page + p;
    page.data.assign(sim::kPageSize, static_cast<std::byte>(p));
    heap.pages.push_back(std::move(page));
  }
  image.segments.push_back(std::move(heap));
  const std::uint64_t size = image.serialized_size();

  const std::uint64_t before = util::crc64_bytes_hashed();
  ASSERT_NE(chain.append(std::move(image), ChargeFn{}), kBadImageId);
  chain.prune();
  const std::uint64_t hashed = util::crc64_bytes_hashed() - before;
  EXPECT_EQ(chain.length(), 1u);
  EXPECT_LE(hashed, 5 * size) << "hashed " << hashed << " bytes of a " << size << "-byte image";
}

TEST(RetryPolicy, BackoffScheduleIsDeterministicFromSeed) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.jitter_seed = 0xABCD;

  auto schedule = [](const RetryPolicy& p, std::uint64_t salt) {
    Retrier retrier(p, salt);
    std::vector<SimTime> delays;
    while (const auto d = retrier.next_delay()) delays.push_back(*d);
    return delays;
  };

  const auto first = schedule(policy, 7);
  const auto second = schedule(policy, 7);
  EXPECT_EQ(first, second) << "same (policy, seed, salt) must replay exactly";
  EXPECT_EQ(first.size(), 5u);  // max_attempts - 1 retries

  EXPECT_NE(first, schedule(policy, 8)) << "salt must decorrelate operations";
  policy.jitter_seed = 0xABCE;
  EXPECT_NE(first, schedule(policy, 7)) << "seed must change the schedule";
}

TEST(RetryPolicy, ExponentialBackoffWithoutJitterIsExact) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff = 1 * kMillisecond;
  policy.multiplier = 2.0;
  policy.max_backoff = 100 * kMillisecond;
  policy.jitter = 0.0;
  Retrier retrier(policy);
  EXPECT_EQ(retrier.next_delay(), std::optional<SimTime>(1 * kMillisecond));
  EXPECT_EQ(retrier.next_delay(), std::optional<SimTime>(2 * kMillisecond));
  EXPECT_EQ(retrier.next_delay(), std::optional<SimTime>(4 * kMillisecond));
  EXPECT_EQ(retrier.next_delay(), std::optional<SimTime>(8 * kMillisecond));
  EXPECT_EQ(retrier.next_delay(), std::nullopt);
  EXPECT_EQ(retrier.retries(), 4u);
  EXPECT_EQ(retrier.delayed(), 15 * kMillisecond);
}

TEST(RetryPolicy, DeadlineClampsAndStopsTheSchedule) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff = 2 * kMillisecond;
  policy.jitter = 0.0;
  policy.deadline = 3 * kMillisecond;
  Retrier retrier(policy);
  EXPECT_EQ(retrier.next_delay(), std::optional<SimTime>(2 * kMillisecond));
  // The second backoff (4ms) is clamped to the 1ms of budget left...
  EXPECT_EQ(retrier.next_delay(), std::optional<SimTime>(1 * kMillisecond));
  // ...and the budget being spent ends the schedule.
  EXPECT_EQ(retrier.next_delay(), std::nullopt);
  EXPECT_EQ(retrier.delayed(), 3 * kMillisecond);
}

TEST(RetryPolicy, ZeroRetryDefaultDegradesToSingleAttempt) {
  Retrier retrier{RetryPolicy{}};
  EXPECT_EQ(retrier.next_delay(), std::nullopt);
  EXPECT_EQ(retrier.retries(), 0u);
  EXPECT_EQ(retrier.delayed(), 0u);
}

TEST_F(ReplicatedTest, DeadlineExpirySurfacesLastUnderlyingFault) {
  // A persistent outage on every replica exhausts the deadline-bounded
  // schedule; the receipt must carry the *underlying* fault, charged
  // backoff must not exceed the per-replica deadline.
  ReplicatedOptions options;
  options.retry = RetryPolicy::bounded(50, 10 * kMillisecond);
  ReplicatedStore store = make_store(options);
  local_.set_outage(true);
  remote_.set_outage(true);

  SimTime charged = 0;
  const StoreReceipt receipt =
      store.store_verbose(make_image(15), [&](SimTime t) { charged += t; });
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.last_error, StoreErrorKind::kUnreachable);
  EXPECT_GT(receipt.retries, 0u);
  EXPECT_LE(charged, 2 * 10 * kMillisecond);  // two replicas, one deadline each
}

TEST_F(ReplicatedTest, ZeroRetryStoreMakesExactlyOneAttempt) {
  ReplicatedStore store = make_store();  // default policy: no retries
  local_.inject_store_fault(StoreFault::kReject);
  remote_.inject_store_fault(StoreFault::kReject);
  const StoreReceipt receipt = store.store_verbose(make_image(16), nullptr);
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.retries, 0u);
  EXPECT_EQ(receipt.last_error, StoreErrorKind::kRejected);
  // The one-shot faults were consumed by the single attempts; the next
  // store succeeds — the pre-retry behaviour, unchanged.
  EXPECT_TRUE(store.store_verbose(make_image(17), nullptr).ok());
}

// --- Commit-pipeline determinism ---------------------------------------------
//
// The pipeline's contract: for ANY worker count (including the fully serial
// pre-pipeline path), a store produces bit-identical replica contents,
// identical manifests, and the identical sequence of sim-time charges.

CheckpointImage make_wide_image(std::uint64_t tag, std::size_t segments) {
  CheckpointImage image = make_image(tag);
  image.segments.clear();
  for (std::size_t s = 0; s < segments; ++s) {
    MemorySegmentImage seg;
    seg.vma = sim::Vma{sim::page_of(0x10000 + (s << 16)), 4, sim::kProtRW,
                       sim::VmaKind::kData, "seg" + std::to_string(s)};
    for (std::uint64_t p = 0; p < 4; ++p) {
      PageImage page;
      page.page = seg.vma.first_page + p;
      page.data.assign(sim::kPageSize,
                       static_cast<std::byte>((tag * 31 + s * 7 + p) & 0xFF));
      seg.pages.push_back(std::move(page));
    }
    image.segments.push_back(std::move(seg));
  }
  return image;
}

// --- verify() accepts exactly what load() accepts -----------------------------

/// A flat replica whose copies a test can tear after the commit.  io_cost
/// differs per replica, so a recorded charge sequence also names which
/// replicas were read.
class TearableBackend final : public BlobStoreBackend {
 public:
  explicit TearableBackend(SimTime per_byte) : per_byte_(per_byte) {}
  [[nodiscard]] StorageLocality locality() const override { return StorageLocality::kRemote; }
  /// Keep only the first `bytes` of a stored blob (a write torn after the
  /// commit's read-back verify).
  void truncate(ImageId id, std::size_t bytes) { blobs_.at(id).resize(bytes); }

 protected:
  [[nodiscard]] SimTime io_cost(std::uint64_t bytes) const override {
    return 1000 + per_byte_ * static_cast<SimTime>(bytes);
  }

 private:
  SimTime per_byte_;
};

constexpr std::size_t kEnvelopeBytes = sizeof(std::uint32_t) + sizeof(std::uint64_t);

/// Flip one body byte of a stored copy and rewrite its envelope's body CRC
/// to match: the envelope checks itself, only the manifest CRC catches it.
void reseal_flipped_body(TearableBackend& replica, ImageId physical) {
  const auto body_crc = [&] {
    const auto blob = replica.read_blob(physical, nullptr).value();
    return util::crc64(std::span<const std::byte>(blob).subspan(kEnvelopeBytes));
  };
  const std::uint64_t before = body_crc();
  const std::size_t size = replica.read_blob(physical, nullptr)->size();
  ASSERT_TRUE(replica.corrupt_blob(physical, size / 2, 1));
  const std::uint64_t diff = before ^ body_crc();
  for (std::size_t i = 0; i < sizeof(diff); ++i) {
    const auto mask = static_cast<std::byte>((diff >> (8 * i)) & 0xFF);
    if (mask != std::byte{0}) replica.corrupt_blob(physical, sizeof(std::uint32_t) + i, 1, mask);
  }
}

TEST(ReplicatedVerify, MatchesLoadAndItsChargesUnderEveryFault) {
  struct World {
    std::array<TearableBackend, 3> replicas{TearableBackend{1}, TearableBackend{2},
                                            TearableBackend{3}};
    ReplicatedStore store;
    World()
        : store({&replicas[0], &replicas[1], &replicas[2]}, [] {
            ReplicatedOptions options;
            options.retry = retrying(2);
            return options;
          }()) {}
  };
  /// Damage `world`'s committed image (whose copy on replica r is
  /// `physical[r]`) and return the logical id to check.
  using Fault = std::function<ImageId(World&, ImageId, const std::array<ImageId, 3>&)>;
  const auto on = [](std::vector<std::size_t> targets, auto damage) {
    return [targets, damage](World& w, ImageId id, const std::array<ImageId, 3>& physical) {
      for (const std::size_t r : targets) damage(w.replicas[r], physical[r]);
      return id;
    };
  };
  const std::vector<std::size_t> first{0};
  const std::vector<std::size_t> all{0, 1, 2};
  const auto flip_body = [](TearableBackend& b, ImageId p) {
    ASSERT_TRUE(b.corrupt_blob(p, b.read_blob(p, nullptr)->size() / 2, 1));
  };
  const auto flip_body_crc = [](TearableBackend& b, ImageId p) {
    ASSERT_TRUE(b.corrupt_blob(p, sizeof(std::uint32_t) + 3, 1));
  };
  const auto flip_version = [](TearableBackend& b, ImageId p) {
    ASSERT_TRUE(b.corrupt_blob(p, 0, 1, std::byte{0x02}));
  };
  const auto tear = [](TearableBackend& b, ImageId p) {
    b.truncate(p, b.read_blob(p, nullptr)->size() * 2 / 3);
  };
  const auto outage = [](TearableBackend& b, ImageId) { b.set_outage(true); };

  struct Case {
    const char* name;
    Fault fault;
    bool loads;
  };
  const std::vector<Case> cases = {
      {"intact", on({}, flip_body), true},
      {"body byte on replica 0", on(first, flip_body), true},
      {"body byte on every replica", on(all, flip_body), false},
      {"body-CRC field on replica 0", on(first, flip_body_crc), true},
      {"body-CRC field on every replica", on(all, flip_body_crc), false},
      {"resealed body on replica 0", on(first, reseal_flipped_body), true},
      {"resealed body on every replica", on(all, reseal_flipped_body), false},
      {"version word on replica 0", on(first, flip_version), true},
      {"version word on every replica", on(all, flip_version), false},
      {"torn copy on replica 0", on(first, tear), true},
      {"torn copy on every replica", on(all, tear), false},
      {"outage on replica 0", on(first, outage), true},
      {"outage on every replica", on(all, outage), false},
      {"erased id",
       [](World& w, ImageId id, const std::array<ImageId, 3>&) {
         EXPECT_TRUE(w.store.erase(id));
         return id;
       },
       false},
      {"unknown id", [](World&, ImageId id, const std::array<ImageId, 3>&) { return id + 100; },
       false},
      {"undecodable body under a valid certificate",
       [](World& w, ImageId, const std::array<ImageId, 3>&) {
         // Half a body, sealed by a streamed commit: every CRC holds, and
         // only the walk over the body's structure refuses it.
         const std::vector<std::byte> blob = make_wide_image(9, 2).serialize();
         ReplicatedStore::StreamSource source;
         source.prelude.assign(blob.begin() + kEnvelopeBytes,
                               blob.begin() + kEnvelopeBytes + (blob.size() - kEnvelopeBytes) / 2);
         return w.store.store_streamed(source, nullptr).id;
       },
       false},
  };

  for (const Case& c : cases) {
    World world;
    const ImageId id = world.store.store(make_wide_image(3, 2), nullptr);
    ASSERT_NE(id, kBadImageId) << c.name;
    std::array<ImageId, 3> physical{};
    for (std::size_t r = 0; r < physical.size(); ++r) {
      physical[r] = world.replicas[r].newest_id();
    }
    const ImageId target = c.fault(world, id, physical);
    ASSERT_NE(target, kBadImageId) << c.name;

    std::vector<SimTime> verify_charges;
    std::vector<SimTime> load_charges;
    const bool verified =
        world.store.verify(target, [&](SimTime t) { verify_charges.push_back(t); });
    const bool loaded =
        world.store.load(target, [&](SimTime t) { load_charges.push_back(t); }).has_value();
    EXPECT_EQ(verified, loaded) << c.name;
    EXPECT_EQ(loaded, c.loads) << c.name;
    EXPECT_EQ(verify_charges, load_charges) << c.name;
  }
}

TEST(PipelineDeterminism, ShardedSerializeIsBitIdenticalForAnyWorkerCount) {
  const CheckpointImage image = make_wide_image(9, /*segments=*/13);
  const std::vector<std::byte> serial = image.serialize();
  EXPECT_EQ(serial.size(), image.serialized_size());

  util::ThreadPool one(1), eight(8);
  EXPECT_EQ(image.serialize(one), serial);
  EXPECT_EQ(image.serialize(eight), serial);
  // And the output still round-trips through the CRC-checked envelope.
  const CheckpointImage back = CheckpointImage::deserialize(image.serialize(eight));
  EXPECT_EQ(back.segments.size(), image.segments.size());
}

struct PipelineRun {
  std::vector<std::vector<std::byte>> replica_blobs;  // flattened, replica order
  std::vector<ImageId> manifest;
  std::vector<SimTime> charges;
  std::uint64_t retries = 0;

  friend bool operator==(const PipelineRun&, const PipelineRun&) = default;
};

ReplicatedStore::StreamSource stream_source_of(const CheckpointImage& image);

/// Drive an identical faulted workload through 3-replica stores configured
/// with `options` — classic flat commits, streamed commits and dedup
/// commits — recording everything observable.
PipelineRun drive_pipeline(ReplicatedOptions options) {
  sim::CostModel costs;
  LocalDiskBackend local{costs};
  RemoteBackend remote_a{costs};
  RemoteBackend remote_b{costs};
  RemoteBackend dedup_a{costs};
  RemoteBackend dedup_b{costs};
  RemoteBackend dedup_c{costs};
  options.retry = RetryPolicy::bounded(4, 80 * kMillisecond);
  options.retry.jitter_seed = 0x7777;
  ReplicatedStore store({&local, &remote_a, &remote_b}, options);

  PipelineRun run;
  const ChargeFn charge = [&run](SimTime t) { run.charges.push_back(t); };
  for (std::uint64_t i = 0; i < 6; ++i) {
    // A different replica misbehaves each round; retries must heal it.
    BlobStoreBackend& victim = store.replica(i % 3);
    if (i % 2 == 0) victim.inject_store_fault(StoreFault::kTornWrite);
    const StoreReceipt receipt = store.store_verbose(make_wide_image(i, 5), charge);
    run.retries += receipt.retries;
    EXPECT_TRUE(receipt.ok()) << "round " << i;
  }
  // Streamed commits: a torn append mid-stream forces one replica onto the
  // whole-blob fallback.
  for (std::uint64_t i = 0; i < 3; ++i) {
    store.replica(i % 3).inject_store_fault(StoreFault::kTornWrite, /*skip_ops=*/i + 1);
    const CheckpointImage image = make_wide_image(10 + i, 6);
    const StoreReceipt receipt = store.store_streamed(stream_source_of(image), charge);
    run.retries += receipt.retries;
    EXPECT_TRUE(receipt.ok()) << "streamed round " << i;
  }
  store.replica(1).corrupt_blob(store.replica(1).newest_id(), 10, 64);
  store.scrub(charge);

  // Dedup commits: overlapping images, one replica out for a round.
  options.dedup = true;
  ReplicatedStore dedup({&dedup_a, &dedup_b, &dedup_c}, options);
  CheckpointImage image = make_wide_image(20, 5);
  for (std::uint64_t i = 0; i < 4; ++i) {
    image.segments[i].pages[i].data.assign(sim::kPageSize, static_cast<std::byte>(i + 1));
    dedup.replica(1).set_outage(i == 1);
    if (i == 2) dedup.replica(0).inject_store_fault(StoreFault::kTornWrite);
    const StoreReceipt receipt = dedup.store_verbose(image, charge);
    run.retries += receipt.retries;
    EXPECT_TRUE(receipt.ok()) << "dedup round " << i;
  }
  dedup.scrub(charge);

  run.manifest = store.list();
  for (const ImageId id : dedup.list()) run.manifest.push_back(id);
  for (ReplicatedStore* s : {&store, &dedup}) {
    for (std::size_t r = 0; r < s->replica_count(); ++r) {
      for (ImageId id : s->replica(r).list()) {
        auto blob = s->replica(r).read_blob(id, nullptr);
        run.replica_blobs.push_back(blob.value_or(std::vector<std::byte>{}));
      }
    }
  }
  return run;
}

TEST(PipelineDeterminism, OneWorkerAndEightWorkersProduceIdenticalStateAndCharges) {
  util::ThreadPool one(1), four(4), eight(8);

  // The 1-worker pool runs every fan-out inline: the serial reference.
  ReplicatedOptions pooled1;
  pooled1.pool = &one;
  const PipelineRun baseline = drive_pipeline(pooled1);
  EXPECT_GT(baseline.retries, 0u);

  ReplicatedOptions pooled4;
  pooled4.pool = &four;
  EXPECT_EQ(drive_pipeline(pooled4), baseline);

  ReplicatedOptions pooled8;
  pooled8.pool = &eight;
  EXPECT_EQ(drive_pipeline(pooled8), baseline);
}

TEST(PipelineDeterminism, DuplicateReplicaSlotsFallBackToTheSequentialLoop) {
  // Two slots sharing one backend would race under the parallel fan-out;
  // the store must detect this and stage sequentially (and still work).
  sim::CostModel costs;
  RemoteBackend shared_backend{costs};
  util::ThreadPool eight(8);
  ReplicatedOptions options;
  options.pool = &eight;
  ReplicatedStore store({&shared_backend, &shared_backend}, options);
  const StoreReceipt receipt = store.store_verbose(make_wide_image(3, 4), nullptr);
  EXPECT_TRUE(receipt.ok());
  EXPECT_EQ(receipt.committed_replicas, 2u);
  EXPECT_TRUE(store.load(receipt.id, nullptr).has_value());
}

/// A replica that records which threads charged it I/O.  Staging and the
/// read-back verify both charge io_cost, so the set names where they ran.
class ThreadRecordingBackend final : public BlobStoreBackend {
 public:
  [[nodiscard]] StorageLocality locality() const override { return StorageLocality::kRemote; }
  [[nodiscard]] std::set<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }

 protected:
  [[nodiscard]] SimTime io_cost(std::uint64_t bytes) const override {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.insert(std::this_thread::get_id());
    return static_cast<SimTime>(bytes);
  }

 private:
  mutable std::mutex mu_;
  mutable std::set<std::thread::id> threads_;
};

/// Eight wide commits to a 3-replica store on `pool` (null: no pool);
/// returns every replica's blobs, replica by replica, and each replica's
/// charging threads.
struct ThreadedRun {
  std::vector<std::vector<std::byte>> blobs;
  std::array<std::set<std::thread::id>, 3> threads;
};

ThreadedRun drive_three_replicas(util::ThreadPool* pool, bool dedup) {
  std::array<ThreadRecordingBackend, 3> backends;
  ReplicatedOptions options;
  options.pool = pool;
  options.dedup = dedup;
  ReplicatedStore store({&backends[0], &backends[1], &backends[2]}, options);
  for (std::uint64_t tag = 0; tag < 8; ++tag) {
    EXPECT_TRUE(store.store_verbose(make_wide_image(tag, /*segments=*/6), nullptr).ok());
  }
  ThreadedRun run;
  for (std::size_t r = 0; r < backends.size(); ++r) {
    for (const ImageId id : backends[r].list()) {
      run.blobs.push_back(backends[r].read_blob(id, nullptr).value());
    }
    run.threads[r] = backends[r].threads();
  }
  return run;
}

TEST(PipelineThreads, StoreWithoutAPoolStagesAndVerifiesOnTheCallersThread) {
  const std::set<std::thread::id> caller{std::this_thread::get_id()};
  for (const bool dedup : {false, true}) {
    const ThreadedRun run = drive_three_replicas(nullptr, dedup);
    for (std::size_t r = 0; r < run.threads.size(); ++r) {
      EXPECT_EQ(run.threads[r], caller) << (dedup ? "dedup" : "flat") << " replica " << r;
    }
  }
}

TEST(PipelineThreads, FlatStoreOnAFourWorkerPoolLandsTheInlineBytes) {
  util::ThreadPool four(4);
  const ThreadedRun inline_run = drive_three_replicas(nullptr, /*dedup=*/false);
  const ThreadedRun pooled_run = drive_three_replicas(&four, /*dedup=*/false);
  EXPECT_FALSE(inline_run.blobs.empty());
  EXPECT_EQ(pooled_run.blobs, inline_run.blobs);
}

/// `image` in the streamed layout: prelude, one chunk per segment (VMA
/// header, page count, pages), trailer — the serialize() body, chunked.
ReplicatedStore::StreamSource stream_source_of(const CheckpointImage& image) {
  ReplicatedStore::StreamSource source;
  util::Serializer prelude;
  encode_image_prelude(prelude, image);
  source.prelude = std::move(prelude).take();
  util::Serializer trailer;
  encode_image_trailer(trailer, image);
  source.trailer = std::move(trailer).take();
  source.chunk_count = image.segments.size();
  source.produce = [&image](std::size_t i) {
    const MemorySegmentImage& seg = image.segments[i];
    util::Serializer s;
    encode_image_vma(s, seg.vma);
    s.put(static_cast<std::uint64_t>(seg.pages.size()));
    for (const PageImage& page : seg.pages) {
      s.put(page.page);
      s.put(page.offset);
      s.put_bytes(page.data);
    }
    ReplicatedStore::StreamChunk chunk;
    chunk.capture_ns = 100 * (i + 1);
    chunk.bytes = std::move(s).take();
    return chunk;
  };
  return source;
}

/// Drive one scripted sequence through the storage core — every commit
/// mode, every per-replica failure kind, quorum rollback, dedup catch-up,
/// gc, scrub and retarget — and fold everything observable into one CRC64:
/// every replica's blobs, the charge sequence, the Chrome trace and the
/// metrics snapshot.
std::uint64_t storage_core_digest(util::ThreadPool& pool) {
  sim::CostModel costs;
  LocalDiskBackend local{costs};
  RemoteBackend remote_a{costs};
  RemoteBackend remote_b{costs};
  RemoteBackend spare_flat{costs};
  RemoteBackend dedup_a{costs};
  RemoteBackend dedup_b{costs};
  RemoteBackend dedup_c{costs};
  RemoteBackend spare_dedup{costs};

  obs::Observer observer;
  SimTime clock = 0;
  observer.set_clock([&clock] { return clock; });
  std::vector<SimTime> charges;
  const ChargeFn charge = [&](SimTime t) {
    clock += t;
    charges.push_back(t);
  };

  ReplicatedOptions options;
  options.write_quorum = 2;
  options.retry = RetryPolicy::bounded(3, 50 * kMillisecond);
  options.retry.jitter_seed = 0x601D;
  options.pool = &pool;
  options.observer = &observer;
  ReplicatedStore flat({&local, &remote_a, &remote_b}, options);

  // Flat: a clean store, then one replica rejecting, one tearing and one
  // out — the first two heal under retry, the third misses the commit.
  EXPECT_TRUE(flat.store_verbose(make_wide_image(1, 4), charge).ok());
  local.inject_store_fault(StoreFault::kReject);
  remote_a.inject_store_fault(StoreFault::kTornWrite);
  remote_b.set_outage(true);
  const StoreReceipt healed = flat.store_verbose(make_wide_image(2, 4), charge);
  EXPECT_TRUE(healed.ok());
  EXPECT_EQ(healed.committed_replicas, 2u);
  // Two replicas out: the lone verified stage misses quorum and rolls back.
  remote_a.set_outage(true);
  EXPECT_FALSE(flat.store_verbose(make_wide_image(3, 4), charge).ok());
  remote_a.set_outage(false);
  remote_b.set_outage(false);

  // Streamed: a torn append mid-stream on one replica falls back to the
  // whole-blob stage; the commit still lands everywhere.
  remote_a.inject_store_fault(StoreFault::kTornWrite, /*skip_ops=*/2);
  const CheckpointImage streamed_image = make_wide_image(4, 5);
  const StoreReceipt streamed = flat.store_streamed(stream_source_of(streamed_image), charge);
  EXPECT_TRUE(streamed.ok());
  EXPECT_EQ(streamed.committed_replicas, 3u);
  EXPECT_TRUE(flat.load(streamed.id, charge).has_value());

  local.corrupt_blob(local.newest_id(), 7, 32);
  flat.scrub(charge);
  flat.retarget_replica(2, &spare_flat);
  flat.scrub(charge);
  flat.gc(charge);

  // Dedup: a replica sits out one store and catches up on the next.
  options.dedup = true;
  ReplicatedStore dedup({&dedup_a, &dedup_b, &dedup_c}, options);
  CheckpointImage image = make_wide_image(5, 6);
  const StoreReceipt first = dedup.store_verbose(image, charge);
  EXPECT_TRUE(first.ok());
  image.segments[0].pages[0].data.assign(sim::kPageSize, std::byte{0xA5});
  dedup_c.set_outage(true);
  EXPECT_EQ(dedup.store_verbose(image, charge).committed_replicas, 2u);
  dedup_c.set_outage(false);
  image.segments[2].pages[1].data.assign(sim::kPageSize, std::byte{0x5A});
  const StoreReceipt caught_up = dedup.store_verbose(image, charge);
  EXPECT_EQ(caught_up.committed_replicas, 3u);
  EXPECT_TRUE(dedup.load(caught_up.id, charge).has_value());
  dedup.erase(first.id);
  dedup.gc(charge);
  dedup_a.corrupt_blob(dedup_a.list().front(), 3, 16);
  dedup.scrub(charge);
  dedup.retarget_replica(1, &spare_dedup);
  dedup.scrub(charge);

  // The script reaches every path it means to pin.
  const obs::MetricsRegistry& m = observer.metrics();
  EXPECT_EQ(m.counter("store.commit_failed"), 1u);
  EXPECT_EQ(m.counter("store.stream_fallbacks"), 1u);
  EXPECT_GT(m.counter("store.stage_retries"), 0u);
  EXPECT_GT(m.counter("store.replica_outages"), 0u);
  EXPECT_GT(m.counter("scrub.repaired"), 0u);
  EXPECT_GT(m.counter("dedup.chunks_reused"), 0u);
  EXPECT_GT(dedup.dedup_stats().gc_chunks_freed, 0u);

  std::uint64_t digest = 0;
  for (BlobStoreBackend* backend : std::vector<BlobStoreBackend*>{
           &local, &remote_a, &remote_b, &spare_flat, &dedup_a, &dedup_b, &dedup_c,
           &spare_dedup}) {
    for (const ImageId id : backend->list()) {
      digest = util::crc64(&id, sizeof(id), digest);
      digest = util::crc64(backend->read_blob(id, nullptr).value(), digest);
    }
  }
  digest = util::crc64(charges.data(), charges.size() * sizeof(SimTime), digest);
  const std::string trace = observer.trace().export_chrome_json();
  digest = util::crc64(trace.data(), trace.size(), digest);
  const std::string metrics = observer.metrics().snapshot_json();
  return util::crc64(metrics.data(), metrics.size(), digest);
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

TEST(StorageCoreGolden, ScriptedSequenceDigestIsPinnedAcrossCommits) {
  // The literal pins the storage core's observable output — replica bytes,
  // sim-time charges, trace and metrics — across refactors, not just across
  // worker counts within one build.
  constexpr const char* kGolden = "648747193b4bbfa5";
  util::ThreadPool one(1), eight(8);
  EXPECT_EQ(hex(storage_core_digest(one)), kGolden);
  EXPECT_EQ(hex(storage_core_digest(eight)), kGolden);
}

}  // namespace
}  // namespace ckpt::storage
