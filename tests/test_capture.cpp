#include <gtest/gtest.h>

#include "core/capture.hpp"
#include "core/engine.hpp"
#include "sim/userapi.hpp"
#include "test_common.hpp"

namespace ckpt::core {
namespace {

using ckpt::test::SimTest;
using ckpt::test::run_steps;

class CaptureTest : public SimTest {
 protected:
  sim::SimKernel kernel_;
  storage::LocalDiskBackend backend_{sim::CostModel{}};
};

TEST_F(CaptureTest, KernelCaptureRecordsAllState) {
  const sim::Pid pid = kernel_.spawn(sim::FileLoggerGuest::kTypeName,
                                     sim::FileLoggerGuest::Config{}.encode());
  run_steps(kernel_, pid, 5);
  sim::Process& proc = kernel_.process(pid);

  const auto image = capture_kernel_level(kernel_, proc, CaptureOptions{});
  EXPECT_EQ(image.pid, pid);
  EXPECT_EQ(image.guest.type_name, sim::FileLoggerGuest::kTypeName);
  EXPECT_EQ(image.threads.size(), proc.threads.size());
  EXPECT_EQ(image.brk, proc.brk);
  ASSERT_FALSE(image.files.empty());
  EXPECT_EQ(image.files[0].path, "/data/app.log");
  EXPECT_GT(image.files[0].offset, 0u);
  // Code segment skipped by default, data/heap/stack captured.
  std::uint64_t code_pages = 0;
  for (const auto& seg : image.segments) {
    if (seg.vma.kind == sim::VmaKind::kCode) code_pages += seg.pages.size();
  }
  EXPECT_EQ(code_pages, 0u);
  EXPECT_GT(image.payload_bytes(), 0u);
}

TEST_F(CaptureTest, IncludeCodeSegmentGrowsImage) {
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  run_steps(kernel_, pid, 2);
  sim::Process& proc = kernel_.process(pid);
  CaptureOptions skip, keep;
  keep.skip_code_segment = false;
  const auto small = capture_kernel_level(kernel_, proc, skip);
  const auto big = capture_kernel_level(kernel_, proc, keep);
  EXPECT_GT(big.payload_bytes(), small.payload_bytes());
}

TEST_F(CaptureTest, RestartResumesCounterExactly) {
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  run_steps(kernel_, pid, 20);
  sim::Process& proc = kernel_.process(pid);
  const std::uint64_t at_checkpoint = sim::CounterGuest::read_counter(kernel_, proc);
  const auto image = capture_kernel_level(kernel_, proc, CaptureOptions{});

  // The process "crashes" well past the checkpoint...
  run_steps(kernel_, pid, 40);
  kernel_.terminate(proc, 1);
  kernel_.reap(pid);

  // ...and is restarted from the image at the counter it had then.
  const RestartResult result = restart_from_image(kernel_, image);
  ASSERT_TRUE(result.ok) << result.error;
  sim::Process& revived = kernel_.process(result.pid);
  EXPECT_EQ(sim::CounterGuest::read_counter(kernel_, revived), at_checkpoint);

  // And it continues making progress from there.
  run_steps(kernel_, result.pid, 5);
  EXPECT_GT(sim::CounterGuest::read_counter(kernel_, revived), at_checkpoint);
}

TEST_F(CaptureTest, RestartPreservesRngStream) {
  // The sparse writer keeps its RNG state in guest memory; after restart the
  // write sequence must continue identically.  Run two kernels: one
  // uninterrupted, one checkpoint/restarted, and compare final memory.
  sim::WriterConfig config;
  config.array_bytes = 64 * 1024;
  config.seed = 99;
  auto opts = sim::spawn_options_for_array(config.array_bytes);

  sim::SimKernel control;
  const sim::Pid control_pid = control.spawn(sim::SparseWriterGuest::kTypeName,
                                             config.encode(), opts);
  run_steps(control, control_pid, 30);

  const sim::Pid pid =
      kernel_.spawn(sim::SparseWriterGuest::kTypeName, config.encode(), opts);
  run_steps(kernel_, pid, 15);
  sim::Process& proc = kernel_.process(pid);
  const auto image = capture_kernel_level(kernel_, proc, CaptureOptions{});
  kernel_.terminate(proc, 1);
  kernel_.reap(pid);
  const RestartResult result = restart_from_image(kernel_, image);
  ASSERT_TRUE(result.ok);
  // The restarted process's *stats* start from zero, but its guest state
  // resumes at iteration 15 — run 15 more steps for 30 total.
  run_steps(kernel_, result.pid, 15);

  sim::Process& a = control.process(control_pid);
  sim::Process& b = kernel_.process(result.pid);
  ASSERT_EQ(a.stats.guest_iterations, 30u);
  ASSERT_EQ(b.stats.guest_iterations, 15u);
  // Compare the full heap contents byte for byte.
  const sim::Vma* heap_a = a.aspace->find_vma(a.heap_base);
  ASSERT_NE(heap_a, nullptr);
  for (sim::PageNum p = heap_a->first_page; p < heap_a->first_page + heap_a->page_count;
       ++p) {
    const auto da = a.aspace->page_data(p);
    const auto db = b.aspace->page_data(p);
    ASSERT_TRUE(std::equal(da.begin(), da.end(), db.begin()))
        << "heap divergence at page " << p;
  }
}

TEST_F(CaptureTest, RestartRestoresFileStateAndOffsets) {
  sim::FileLoggerGuest::Config config;
  const sim::Pid pid =
      kernel_.spawn(sim::FileLoggerGuest::kTypeName, config.encode());
  run_steps(kernel_, pid, 10);
  sim::Process& proc = kernel_.process(pid);
  CaptureOptions options;
  options.save_file_contents = true;
  const auto image = capture_kernel_level(kernel_, proc, options);
  const std::uint64_t offset_at_ckpt = image.files[0].offset;

  // Run further (file keeps growing), then crash and restart.
  run_steps(kernel_, pid, 20);
  kernel_.terminate(proc, 1);
  kernel_.reap(pid);

  const RestartResult result = restart_from_image(kernel_, image);
  ASSERT_TRUE(result.ok);
  sim::Process& revived = kernel_.process(result.pid);
  const auto ofd = revived.fds.get(image.files[0].fd);
  ASSERT_NE(ofd, nullptr);
  EXPECT_EQ(ofd->offset, offset_at_ckpt);
  // File contents rolled back to checkpoint time (contents were saved).
  EXPECT_EQ(ofd->file->data.size(), offset_at_ckpt);
}

TEST_F(CaptureTest, DeletedFileDetectedAndResurrected) {
  sim::FileLoggerGuest::Config config;
  const sim::Pid pid = kernel_.spawn(sim::FileLoggerGuest::kTypeName, config.encode());
  run_steps(kernel_, pid, 5);
  sim::Process& proc = kernel_.process(pid);
  // Unlink while open (the UCLiK scenario).
  kernel_.vfs().unlink("/data/app.log");
  CaptureOptions options;
  options.save_file_contents = true;
  const auto image = capture_kernel_level(kernel_, proc, options);
  ASSERT_FALSE(image.files.empty());
  EXPECT_TRUE(image.files[0].was_deleted);

  kernel_.terminate(proc, 1);
  kernel_.reap(pid);
  const RestartResult result = restart_from_image(kernel_, image);
  ASSERT_TRUE(result.ok);
  // Restart warns about the deletion and recreates content from the image.
  bool warned = false;
  for (const auto& w : result.warnings) warned |= w.find("deleted") != std::string::npos;
  EXPECT_TRUE(warned);
  EXPECT_TRUE(kernel_.vfs().exists("/data/app.log"));
}

TEST_F(CaptureTest, PidConflictHandling) {
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  run_steps(kernel_, pid, 2);
  const auto image =
      capture_kernel_level(kernel_, kernel_.process(pid), CaptureOptions{});

  // Original still alive: strict pid restore must fail...
  RestartOptions strict;
  strict.restore_original_pid = true;
  strict.require_original_pid = true;
  EXPECT_FALSE(restart_from_image(kernel_, image, strict).ok);

  // ...lenient restore succeeds under a new pid with a warning.
  RestartOptions lenient;
  lenient.restore_original_pid = true;
  const RestartResult result = restart_from_image(kernel_, image, lenient);
  ASSERT_TRUE(result.ok);
  EXPECT_NE(result.pid, pid);
  EXPECT_FALSE(result.warnings.empty());

  // After the original is gone, the original pid is restorable.
  kernel_.terminate(kernel_.process(pid), 0);
  kernel_.reap(pid);
  const RestartResult original = restart_from_image(kernel_, image, strict);
  ASSERT_TRUE(original.ok);
  EXPECT_EQ(original.pid, pid);
}

TEST_F(CaptureTest, PortConflictWarns) {
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  sim::Process& proc = kernel_.process(pid);
  sim::UserApi api(kernel_, proc);
  const sim::Fd sock = api.sys_socket();
  ASSERT_TRUE(api.sys_bind(sock, 7777));
  const auto image = capture_kernel_level(kernel_, proc, CaptureOptions{});

  // Original keeps the port; the clone cannot bind it.
  const RestartResult result = restart_from_image(kernel_, image);
  ASSERT_TRUE(result.ok);
  bool warned = false;
  for (const auto& w : result.warnings) warned |= w.find("port") != std::string::npos;
  EXPECT_TRUE(warned);
}

TEST_F(CaptureTest, UserLevelCaptureMatchesKernelCapture) {
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  run_steps(kernel_, pid, 10);
  sim::Process& proc = kernel_.process(pid);

  UserLevelRuntime runtime;
  runtime.install(kernel_, proc, /*via_preload=*/false);
  sim::UserApi api(kernel_, proc);
  const auto user_image = runtime.capture(api, CaptureOptions{});
  const auto kernel_image = capture_kernel_level(kernel_, proc, CaptureOptions{});

  EXPECT_TRUE(images_equal_memory(user_image, kernel_image));
  EXPECT_EQ(user_image.brk, kernel_image.brk);
}

TEST_F(CaptureTest, UserLevelCaptureIsCostlier) {
  // Same state, two capture paths: the user-level one must burn more
  // syscalls — claim C1's mechanism in miniature.
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  run_steps(kernel_, pid, 5);
  sim::Process& proc = kernel_.process(pid);
  UserLevelRuntime runtime;
  runtime.install(kernel_, proc, false);

  const std::uint64_t syscalls_before = proc.stats.syscalls;
  sim::UserApi api(kernel_, proc);
  (void)runtime.capture(api, CaptureOptions{});
  const std::uint64_t user_syscalls = proc.stats.syscalls - syscalls_before;

  const std::uint64_t before_kernel = proc.stats.syscalls;
  (void)capture_kernel_level(kernel_, proc, CaptureOptions{});
  const std::uint64_t kernel_syscalls = proc.stats.syscalls - before_kernel;

  EXPECT_GT(user_syscalls, 4u);      // maps walk + sbrk + sigpending + ...
  EXPECT_EQ(kernel_syscalls, 0u);    // direct task-structure access
}

TEST_F(CaptureTest, UserLevelShadowFdsMissPreexistingDescriptors) {
  // A descriptor opened *before* the library was installed is invisible to
  // user-level capture — the transparency failure of §3.
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  sim::Process& proc = kernel_.process(pid);
  sim::UserApi api(kernel_, proc);
  const sim::Fd early = api.sys_open("/data/early.txt", sim::kOpenCreate | sim::kOpenWrite);
  ASSERT_GE(early, 0);

  UserLevelRuntime runtime;
  runtime.install(kernel_, proc, false);
  const sim::Fd late = api.sys_open("/data/late.txt", sim::kOpenCreate | sim::kOpenWrite);
  ASSERT_GE(late, 0);

  const auto user_image = runtime.capture(api, CaptureOptions{});
  ASSERT_EQ(user_image.files.size(), 1u);
  EXPECT_EQ(user_image.files[0].path, "/data/late.txt");

  const auto kernel_image = capture_kernel_level(kernel_, proc, CaptureOptions{});
  EXPECT_EQ(kernel_image.files.size(), 2u);  // the kernel sees everything
}

TEST_F(CaptureTest, PagedSessionCopiesIncrementally) {
  sim::WriterConfig config;
  config.array_bytes = 128 * 1024;
  const sim::Pid pid = kernel_.spawn(sim::DenseWriterGuest::kTypeName, config.encode(),
                                     sim::spawn_options_for_array(config.array_bytes));
  run_steps(kernel_, pid, 3);
  sim::Process& proc = kernel_.process(pid);

  PagedCaptureSession session(kernel_, proc, CaptureOptions{});
  EXPECT_GT(session.pages_total(), 32u);
  EXPECT_FALSE(session.copy_some(8));
  EXPECT_EQ(session.pages_copied(), 8u);
  while (!session.copy_some(8)) {
  }
  const auto image = session.take_image();
  EXPECT_EQ(image.page_count(), session.pages_total());
}

TEST_F(CaptureTest, MultithreadedRegistersAllCaptured) {
  sim::SpawnOptions options;
  options.thread_count = 3;
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName, {}, options);
  run_steps(kernel_, pid, 2);
  sim::Process& proc = kernel_.process(pid);
  proc.threads[1].regs.pc = 0x1234;
  proc.threads[2].regs.sp = 0x5678;
  const auto image = capture_kernel_level(kernel_, proc, CaptureOptions{});
  ASSERT_EQ(image.threads.size(), 3u);
  EXPECT_EQ(image.threads[1].regs.pc, 0x1234u);
  EXPECT_EQ(image.threads[2].regs.sp, 0x5678u);

  kernel_.terminate(proc, 0);
  kernel_.reap(pid);
  const RestartResult result = restart_from_image(kernel_, image);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(kernel_.process(result.pid).threads.size(), 3u);
}

/// An image of `pages` full pages, each page's bytes derived from its index.
storage::CheckpointImage paged_image(std::size_t pages) {
  storage::CheckpointImage image;
  storage::MemorySegmentImage seg;
  seg.vma = sim::Vma{sim::page_of(0x40000), pages, sim::kProtRW, sim::VmaKind::kData, "data"};
  for (std::size_t p = 0; p < pages; ++p) {
    storage::PageImage page;
    page.page = seg.vma.first_page + p;
    page.data.resize(sim::kPageSize);
    for (std::size_t b = 0; b < page.data.size(); ++b) {
      page.data[b] = static_cast<std::byte>((p * 7 + b) & 0xFF);
    }
    seg.pages.push_back(std::move(page));
  }
  image.segments.push_back(std::move(seg));
  return image;
}

TEST(ImagesEqualMemory, ComparesEveryPageByKeyAndEveryByte) {
  const storage::CheckpointImage a = paged_image(3);
  EXPECT_TRUE(images_equal_memory(a, paged_image(3)));

  // One byte apart, in the last byte of one page.
  storage::CheckpointImage last_byte = paged_image(3);
  last_byte.segments[0].pages[1].data[sim::kPageSize - 1] ^= std::byte{0x01};
  EXPECT_FALSE(images_equal_memory(a, last_byte));
  EXPECT_FALSE(images_equal_memory(last_byte, a));

  // The same bytes, recorded at another offset within the page.
  storage::CheckpointImage moved = paged_image(3);
  moved.segments[0].pages[2].offset = 16;
  EXPECT_FALSE(images_equal_memory(a, moved));

  // One page more on one side.
  EXPECT_FALSE(images_equal_memory(a, paged_image(4)));
  EXPECT_FALSE(images_equal_memory(paged_image(4), a));
}

}  // namespace
}  // namespace ckpt::core
