// Streaming COW commit path (EngineOptions::streaming).
//
// The contract under test, layer by layer:
//
//   * wire identity — a streamed commit produces byte-identical replica
//     blobs to the classic capture → serialize → store path, loadable by
//     the ordinary restart machinery;
//   * worker-count identity — blobs, sim-time and results are identical
//     whether the store's pool has one worker or eight (the chunk loop
//     runs on the caller, and chunks are a fixed 64 pages);
//   * pause — the guest-visible pause of a fork-snapshot commit is the
//     fork's page-table walk, an order of magnitude below stop-the-world;
//   * no leaks — every exit path (success, mid-stream fault fallback,
//     quorum failure, aborted kernel-thread session) reaps the frozen
//     shadow and leaves no open storage stages; FrameTable counts return
//     to baseline.
#include <gtest/gtest.h>

#include <initializer_list>
#include <utility>
#include <optional>
#include <vector>

#include "core/capture.hpp"
#include "core/systemlevel.hpp"
#include "inject/injectors.hpp"
#include "sim/guests.hpp"
#include "storage/journal.hpp"
#include "storage/replicated.hpp"
#include "test_common.hpp"
#include "util/threadpool.hpp"

namespace ckpt::core {
namespace {

using ckpt::test::run_steps;

/// One self-contained world: kernel, two replicas, a flat ReplicatedStore
/// and a by-pid fork-and-copy SyscallEngine over it.  Tests build two with
/// the same seed and diff the outcomes.
struct StreamWorld {
  sim::SimKernel kernel;
  storage::LocalDiskBackend local;
  storage::RemoteBackend remote;
  std::optional<util::ThreadPool> pool;
  std::optional<storage::ReplicatedStore> store;
  std::optional<SyscallEngine> engine;
  sim::Pid pid = sim::kNoPid;

  explicit StreamWorld(bool streaming, std::uint32_t workers = 0,
                       std::uint64_t seed = 0x57  /* any fixed value */,
                       storage::RetryPolicy retry = {})
      : kernel(2, sim::CostModel{}, seed),
        local(kernel.costs()),
        remote(kernel.costs()) {
    storage::ReplicatedOptions repl_options;
    repl_options.retry = retry;
    if (workers > 0) {
      pool.emplace(workers);
      repl_options.pool = &*pool;
    }
    store.emplace(std::vector<storage::BlobStoreBackend*>{&local, &remote}, repl_options);
    EngineOptions engine_options;
    engine_options.consistency = ConsistencyMode::kForkAndCopy;
    engine_options.streaming = streaming;
    engine_options.store_retry = retry;
    engine.emplace("stream_test", &*store, engine_options, kernel,
                   SyscallEngine::TargetMode::kByPid, nullptr);
  }

  void launch_and_run(std::uint64_t steps, std::uint64_t array_bytes = 64 * 1024) {
    sim::WriterConfig config;
    config.array_bytes = array_bytes;
    config.writes_per_step = 8;
    config.seed = 3;
    pid = kernel.spawn(sim::DenseWriterGuest::kTypeName, config.encode(),
                       sim::spawn_options_for_array(array_bytes));
    run_steps(kernel, pid, steps);
  }
};

class StreamingTest : public ckpt::test::SimTest {};

// --- Wire identity ---------------------------------------------------------

TEST_F(StreamingTest, StreamedBlobIsByteIdenticalToClassicStore) {
  // Two identical deterministic worlds; one commits classically, one
  // streams.  The bytes on every replica must not differ by a single bit.
  // A 64 KiB array's heap fits one 64-page stream chunk; a 700 KiB one's
  // is streamed as two full chunks and a partial third, so the concatenation
  // of a segment's lead chunk and its followers is checked.
  constexpr std::uint64_t kChunkPages = 64;
  for (const auto& [array_bytes, heap_chunks] :
       {std::pair{64 * 1024ull, 1ull}, std::pair{700 * 1024ull, 3ull}}) {
    SCOPED_TRACE(array_bytes);
    StreamWorld classic(/*streaming=*/false);
    StreamWorld streamed(/*streaming=*/true);
    classic.launch_and_run(20, array_bytes);
    streamed.launch_and_run(20, array_bytes);

    const CheckpointResult classic_result =
        classic.engine->request_checkpoint(classic.kernel, classic.pid);
    const CheckpointResult streamed_result =
        streamed.engine->request_checkpoint(streamed.kernel, streamed.pid);
    ASSERT_TRUE(classic_result.ok) << classic_result.error;
    ASSERT_TRUE(streamed_result.ok) << streamed_result.error;
    EXPECT_EQ(classic_result.payload_bytes, streamed_result.payload_bytes);
    EXPECT_EQ(classic_result.pages, streamed_result.pages);

    const auto classic_blob = classic.local.read_blob(classic_result.image_id, nullptr);
    const auto streamed_blob = streamed.local.read_blob(streamed_result.image_id, nullptr);
    ASSERT_TRUE(classic_blob.has_value());
    ASSERT_TRUE(streamed_blob.has_value());
    EXPECT_EQ(*classic_blob, *streamed_blob) << "streamed wire format diverged";
    const auto classic_remote = classic.remote.read_blob(classic_result.image_id, nullptr);
    const auto streamed_remote = streamed.remote.read_blob(streamed_result.image_id, nullptr);
    ASSERT_TRUE(classic_remote.has_value() && streamed_remote.has_value());
    EXPECT_EQ(*classic_remote, *streamed_remote);

    // The heap really has the chunk shape the case is named for.
    const auto image = streamed.store->load(streamed_result.image_id, nullptr);
    ASSERT_TRUE(image.has_value());
    std::uint64_t heap_pages = 0;
    for (const auto& seg : image->segments) {
      if (seg.vma.kind == sim::VmaKind::kHeap) heap_pages += seg.pages.size();
    }
    EXPECT_EQ((heap_pages + kChunkPages - 1) / kChunkPages, heap_chunks);
    EXPECT_NE(heap_pages % kChunkPages, 0u) << "the last heap chunk should be partial";
  }
}

TEST_F(StreamingTest, StreamedImageRoundTripsThroughRestart) {
  StreamWorld world(/*streaming=*/true);
  world.launch_and_run(20);
  const CheckpointResult cr = world.engine->request_checkpoint(world.kernel, world.pid);
  ASSERT_TRUE(cr.ok) << cr.error;

  // Ground truth straight off the frozen target (it only runs between
  // steps, so its state still matches the snapshot).
  sim::Process& proc = world.kernel.process(world.pid);
  const storage::CheckpointImage truth =
      capture_kernel_level(world.kernel, proc, world.engine->options().capture);
  const auto stored = world.store->load(cr.image_id, nullptr);
  ASSERT_TRUE(stored.has_value());
  EXPECT_TRUE(images_equal_memory(truth, *stored));
  EXPECT_EQ(truth.brk, stored->brk);

  // And the full restart path accepts it.
  world.kernel.terminate(proc, 9);
  world.kernel.reap(world.pid);
  const RestartResult rr = world.engine->restart(world.kernel, world.pid);
  ASSERT_TRUE(rr.ok) << rr.error;
  EXPECT_TRUE(world.kernel.process(rr.pid).alive());
}

TEST_F(StreamingTest, IncrementalChainsStreamTheirDeltas) {
  auto make_incremental = [](StreamWorld& world) {
    // Reconfigure the engine for incremental mode with a kernel WP tracker.
    EngineOptions engine_options;
    engine_options.consistency = ConsistencyMode::kForkAndCopy;
    engine_options.streaming = world.engine->options().streaming;
    engine_options.incremental = true;
    engine_options.tracker_factory = [] { return std::make_unique<PteScanTracker>(); };
    world.engine.emplace("stream_inc", &*world.store, engine_options, world.kernel,
                         SyscallEngine::TargetMode::kByPid, nullptr);
  };
  StreamWorld classic(/*streaming=*/false);
  StreamWorld streamed(/*streaming=*/true);
  make_incremental(classic);
  make_incremental(streamed);
  classic.launch_and_run(10);
  streamed.launch_and_run(10);

  for (int i = 0; i < 3; ++i) {
    const CheckpointResult a = classic.engine->request_checkpoint(classic.kernel, classic.pid);
    const CheckpointResult b =
        streamed.engine->request_checkpoint(streamed.kernel, streamed.pid);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.pages, b.pages) << "delta " << i;
    EXPECT_EQ(a.payload_bytes, b.payload_bytes) << "delta " << i;
    // Raw bytes can only match while both worlds share a clock (the commit
    // itself costs different sim-time per mode, and taken_at is in the
    // prelude), so deltas compare as decoded images: same segments, same
    // pages, same contents.
    const auto img_a = classic.store->load(a.image_id, nullptr);
    const auto img_b = streamed.store->load(b.image_id, nullptr);
    ASSERT_TRUE(img_a.has_value() && img_b.has_value());
    EXPECT_TRUE(images_equal_memory(*img_a, *img_b)) << "delta " << i << " diverged";
    run_steps(classic.kernel, classic.pid, 10 * (i + 2));
    run_steps(streamed.kernel, streamed.pid, 10 * (i + 2));
  }
}

// --- Worker-count identity -------------------------------------------------

TEST_F(StreamingTest, OneAndEightWorkersCommitIdenticalBytesAndTime) {
  StreamWorld serial(/*streaming=*/true, /*workers=*/1);
  StreamWorld pooled(/*streaming=*/true, /*workers=*/8);
  serial.launch_and_run(30);
  pooled.launch_and_run(30);

  const CheckpointResult a = serial.engine->request_checkpoint(serial.kernel, serial.pid);
  const CheckpointResult b = pooled.engine->request_checkpoint(pooled.kernel, pooled.pid);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;

  // Results: same image, same simulated instants, same pause.
  EXPECT_EQ(a.image_id, b.image_id);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.completed_at, b.completed_at);
  EXPECT_EQ(a.pause_ns, b.pause_ns);
  // Clocks: the pipeline's charge replay must land the same total.
  EXPECT_EQ(serial.kernel.now(), pooled.kernel.now());

  // Bytes: every replica bit-identical.
  const auto blob_a = serial.local.read_blob(a.image_id, nullptr);
  const auto blob_b = pooled.local.read_blob(b.image_id, nullptr);
  ASSERT_TRUE(blob_a.has_value() && blob_b.has_value());
  EXPECT_EQ(*blob_a, *blob_b);
  const auto remote_a = serial.remote.read_blob(a.image_id, nullptr);
  const auto remote_b = pooled.remote.read_blob(b.image_id, nullptr);
  ASSERT_TRUE(remote_a.has_value() && remote_b.has_value());
  EXPECT_EQ(*remote_a, *remote_b);
}

// --- Pause -----------------------------------------------------------------

TEST_F(StreamingTest, ForkSnapshotPauseIsThePageTableWalkOnly) {
  StreamWorld world(/*streaming=*/true);
  world.launch_and_run(20, /*array_bytes=*/512 * 1024);
  const sim::Process& proc = world.kernel.process(world.pid);
  const std::uint64_t present = proc.aspace->present_page_count();
  const CheckpointResult cr = world.engine->request_checkpoint(world.kernel, world.pid);
  ASSERT_TRUE(cr.ok) << cr.error;
  EXPECT_EQ(cr.pause_ns, world.kernel.costs().fork_cost(present));
  // The commit transfers the image after the fork: total latency dwarfs the
  // pause, which is the whole point of the streaming path.
  EXPECT_GT(cr.total_latency(), 10 * cr.pause_ns);
}

TEST_F(StreamingTest, StopTheWorldPaysTheWholeCommitAsPause) {
  StreamWorld world(/*streaming=*/false);
  EngineOptions engine_options = world.engine->options();
  engine_options.consistency = ConsistencyMode::kStopTarget;
  engine_options.streaming = false;
  world.engine.emplace("stop_world", &*world.store, engine_options, world.kernel,
                       SyscallEngine::TargetMode::kByPid, nullptr);
  world.launch_and_run(20, /*array_bytes=*/512 * 1024);
  const CheckpointResult cr = world.engine->request_checkpoint(world.kernel, world.pid);
  ASSERT_TRUE(cr.ok) << cr.error;
  // Stopped for capture + serialize + both replica writes: the pause is
  // essentially the whole commit.
  EXPECT_GT(cr.pause_ns, cr.total_latency() / 2);
  EXPECT_TRUE(world.kernel.process(world.pid).runnable()) << "target never resumed";
}

// --- Fault paths and leak regression ---------------------------------------

/// Shadow-fork leak regression: whatever the storage does, a fork-and-copy
/// commit must leave no frozen child, no zombie, and no COW frames pinned.
TEST_F(StreamingTest, FailedCommitsAlwaysReapTheShadow) {
  for (const bool streaming : {false, true}) {
    StreamWorld world(streaming);
    world.launch_and_run(20);
    const std::uint64_t frames_baseline = world.kernel.physical_memory().frames_in_use();
    const std::size_t pids_baseline = world.kernel.live_pids().size();

    // Both replicas down: quorum fails, the commit fails.  (A full outage
    // rather than a one-shot reject — the streamed path retries a wounded
    // lane through the classic fallback, which would absorb a single
    // fault; the leak contract must hold when nothing works at all.)
    world.local.set_outage(true);
    world.remote.set_outage(true);
    const CheckpointResult cr = world.engine->request_checkpoint(world.kernel, world.pid);
    EXPECT_FALSE(cr.ok);
    world.local.set_outage(false);
    world.remote.set_outage(false);

    EXPECT_EQ(world.kernel.physical_memory().frames_in_use(), frames_baseline)
        << (streaming ? "streamed" : "classic") << ": shadow frames leaked";
    EXPECT_EQ(world.kernel.live_pids().size(), pids_baseline)
        << (streaming ? "streamed" : "classic") << ": shadow process leaked";
    EXPECT_EQ(world.local.open_stages(), 0u) << "staged bytes leaked";
    EXPECT_EQ(world.remote.open_stages(), 0u) << "staged bytes leaked";

    // And the engine is not wedged: the next commit succeeds cleanly.
    const CheckpointResult retry = world.engine->request_checkpoint(world.kernel, world.pid);
    EXPECT_TRUE(retry.ok) << retry.error;
    EXPECT_EQ(world.kernel.physical_memory().frames_in_use(), frames_baseline);
    EXPECT_EQ(world.kernel.live_pids().size(), pids_baseline);
  }
}

TEST_F(StreamingTest, MidStreamFaultFallsBackAndCommitsIntact) {
  // A torn chunk append on one replica mid-stream: the seal's read-back
  // catches it, the wounded replica falls back to a whole-blob stage, and
  // the commit still reaches both replicas with intact bytes.
  StreamWorld world(/*streaming=*/true, /*workers=*/0, /*seed=*/0x57,
                    storage::RetryPolicy::bounded(3, 50 * kMillisecond));
  world.launch_and_run(20);
  inject::StorageInjector injector(world.local);
  injector.tear_store_after(/*skip_ops=*/3);

  const CheckpointResult cr = world.engine->request_checkpoint(world.kernel, world.pid);
  ASSERT_TRUE(cr.ok) << cr.error;
  EXPECT_EQ(world.store->intact_replicas(cr.image_id), 2u);
  // The wounded replica's physical blob was re-staged whole, so its id
  // moved; it is the only blob the replica holds, and its bytes must equal
  // the streamed copy on the healthy replica.
  ASSERT_EQ(world.local.list().size(), 1u);
  const auto local_blob = world.local.read_blob(world.local.list().front(), nullptr);
  const auto remote_blob = world.remote.read_blob(cr.image_id, nullptr);
  ASSERT_TRUE(local_blob.has_value() && remote_blob.has_value());
  EXPECT_EQ(*local_blob, *remote_blob);
  EXPECT_EQ(world.local.open_stages(), 0u);
  EXPECT_EQ(world.remote.open_stages(), 0u);
}

TEST_F(StreamingTest, MidStreamFaultIsDeterministicAcrossWorkerCounts) {
  auto run_one = [](std::uint32_t workers) {
    StreamWorld world(/*streaming=*/true, workers, /*seed=*/0x57,
                      storage::RetryPolicy::bounded(3, 50 * kMillisecond));
    world.launch_and_run(30);
    inject::StorageInjector injector(world.remote);
    injector.fail_store_after(/*skip_ops=*/5);
    const CheckpointResult cr = world.engine->request_checkpoint(world.kernel, world.pid);
    EXPECT_TRUE(cr.ok) << cr.error;
    auto blob = world.local.read_blob(cr.image_id, nullptr);
    EXPECT_TRUE(blob.has_value());
    return std::make_tuple(cr.image_id, cr.completed_at, cr.pause_ns, world.kernel.now(),
                           blob.value_or(std::vector<std::byte>{}));
  };
  EXPECT_EQ(run_one(1), run_one(8)) << "mid-stream fault handling diverged across workers";
}

TEST_F(StreamingTest, AbortedKernelThreadSessionReapsTheShadow) {
  // The kernel-thread engine's abort path (source died mid-session) must
  // release the consistency protection: reap the frozen shadow, resume a
  // stopped target.  Killing the shadow itself forces that path.
  sim::SimKernel kernel(2, sim::CostModel{}, 0x57);
  storage::LocalDiskBackend backend(kernel.costs());
  EngineOptions engine_options;
  engine_options.consistency = ConsistencyMode::kForkAndCopy;
  KernelThreadEngine::ThreadConfig config;
  config.pages_per_step = 1;  // keep the session open across many quanta
  KernelThreadEngine engine("crak_abort", &backend, engine_options, kernel, config,
                            nullptr);

  sim::WriterConfig guest_config;
  guest_config.array_bytes = 256 * 1024;
  const sim::Pid pid =
      kernel.spawn(sim::DenseWriterGuest::kTypeName, guest_config.encode(),
                   sim::spawn_options_for_array(guest_config.array_bytes));
  run_steps(kernel, pid, 10);
  const std::size_t pids_before = kernel.live_pids().size();

  const std::uint64_t ticket = engine.request_checkpoint_async(kernel, pid);
  ASSERT_NE(ticket, 0u);
  kernel.run_until(kernel.now() + 4 * kernel.quantum());
  ASSERT_FALSE(engine.is_complete(ticket)) << "session finished before the kill landed";

  // The frozen shadow is the one stopped fork-child that appeared.
  sim::Pid shadow = sim::kNoPid;
  for (const sim::Pid p : kernel.live_pids()) {
    const sim::Process& proc = kernel.process(p);
    if (proc.is_checkpoint_shadow) shadow = p;
  }
  ASSERT_NE(shadow, sim::kNoPid);
  kernel.terminate(kernel.process(shadow), 9);

  kernel.run_while([&] { return !engine.is_complete(ticket); },
                   kernel.now() + 10 * kSecond);
  ASSERT_TRUE(engine.is_complete(ticket));
  EXPECT_FALSE(engine.result(ticket).ok);
  EXPECT_FALSE(kernel.pid_in_use(shadow)) << "aborted session leaked the shadow zombie";
  EXPECT_EQ(kernel.live_pids().size(), pids_before);
}

// --- Configuration guards ---------------------------------------------------

TEST_F(StreamingTest, StreamingRequiresForkAndCopy) {
  sim::SimKernel kernel(2, sim::CostModel{}, 1);
  storage::LocalDiskBackend backend(kernel.costs());
  EngineOptions engine_options;
  engine_options.streaming = true;
  engine_options.consistency = ConsistencyMode::kStopTarget;
  EXPECT_THROW(SyscallEngine("bad", &backend, engine_options, kernel,
                             SyscallEngine::TargetMode::kByPid, nullptr),
               std::invalid_argument);
}

TEST_F(StreamingTest, BackendsThatCannotStreamAreRefusedAtConstruction) {
  // Only a flat ReplicatedStore takes an image chunk by chunk.  Any other
  // backend is refused up front rather than silently demoted to a classic
  // store.
  sim::SimKernel kernel(2, sim::CostModel{}, 0x57);
  storage::LocalDiskBackend local(kernel.costs());
  storage::RemoteBackend remote(kernel.costs());
  storage::ReplicatedOptions dedup_options;
  dedup_options.dedup = true;
  storage::ReplicatedStore dedup_store({&local, &remote}, dedup_options);
  storage::LogStructuredBackend journal(&dedup_store, {});
  storage::ReplicatedStore flat_store({&local, &remote}, storage::ReplicatedOptions{});
  storage::LogStructuredBackend flat_journal(&flat_store, {});
  EngineOptions engine_options;
  engine_options.consistency = ConsistencyMode::kForkAndCopy;
  engine_options.streaming = true;
  for (storage::StorageBackend* backend : std::initializer_list<storage::StorageBackend*>{
           &local, &dedup_store, &journal, &flat_journal}) {
    EXPECT_THROW(SyscallEngine("refused", backend, engine_options, kernel,
                               SyscallEngine::TargetMode::kByPid, nullptr),
                 std::invalid_argument);
  }
  EXPECT_NO_THROW(SyscallEngine("flat", &flat_store, engine_options, kernel,
                                SyscallEngine::TargetMode::kByPid, nullptr));
}

}  // namespace
}  // namespace ckpt::core
