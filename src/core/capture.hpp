// Process-state capture: kernel-level and user-level flavours.
//
// Both produce the same CheckpointImage; what differs — and what claims C1
// and C2 quantify — is *how* the state is obtained:
//
//   * capture_kernel_level() reads the task structure directly: registers,
//     VMA list, descriptor offsets and signal state cost a handful of
//     field reads, and pages are copied in kernel mode.
//
//   * UserLevelRuntime::capture() is restricted to what user space can
//     see.  The VMA list comes from a /proc/self/maps walk, heap bounds
//     from sbrk(0), descriptor offsets from one lseek() per descriptor,
//     pending signals from sigpending() — each a syscall crossing — and
//     descriptors/mappings must have been *shadow-tracked* all along via
//     syscall interposition, since the kernel's fd table is not readable
//     from user space.  Untracked descriptors are silently missed: the
//     transparency hazard the survey describes.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/userapi.hpp"
#include "storage/image.hpp"

namespace ckpt::core {

/// A dirty range within a page (block / cache-line granularity support).
struct DirtyRange {
  sim::PageNum page = 0;
  std::uint32_t offset = 0;
  std::uint32_t length = sim::kPageSize;
};

struct CaptureOptions {
  /// nullopt => capture all mapped pages (full checkpoint).  Otherwise only
  /// the listed ranges (incremental).
  std::optional<std::vector<DirtyRange>> ranges;
  /// Skip the text segment (it is reconstructible from the executable);
  /// PsncR/C sets false — it "does not perform any data optimization".
  bool skip_code_segment = true;
  /// Snapshot regular-file contents into the image (UCLiK, PsncR/C).
  bool save_file_contents = false;
};

/// Capture in kernel mode with direct task-structure access.
storage::CheckpointImage capture_kernel_level(sim::SimKernel& kernel, sim::Process& proc,
                                              const CaptureOptions& options);

/// The metadata half of capture_kernel_level: header, registers, heap
/// bounds, signals, descriptors — everything but page payloads.  The
/// streaming commit path runs it against the frozen COW shadow and then
/// streams the payloads straight into storage, chunk by chunk.
void capture_image_metadata(sim::SimKernel& kernel, sim::Process& proc,
                            const CaptureOptions& options,
                            storage::CheckpointImage& image);

/// Build the page-copy plan for `proc`: (segment index, range) pairs
/// honouring `options`, filling image.segments with the VMA layout (no
/// payloads yet).  Pages may vanish between planning and copying; copiers
/// must skip entries whose PTE is gone.
std::vector<std::pair<std::size_t, DirtyRange>> build_capture_plan(
    const sim::Process& proc, const CaptureOptions& options,
    storage::CheckpointImage& image);

/// Restore semantics shared by all mechanisms: materialise the image's
/// state into an existing (stopped) process shell.
void restore_into_process(sim::SimKernel& kernel, sim::Process& proc,
                          const storage::CheckpointImage& image);

/// Incremental kernel-mode capture session for kernel-thread engines: copy
/// a bounded number of pages per scheduler quantum so a *concurrent*
/// checkpoint interleaves with application execution (the data-consistency
/// hazard of §4.1).  The metadata snapshot is taken at construction; page
/// payloads are copied across successive copy_some() calls.
class PagedCaptureSession {
 public:
  PagedCaptureSession(sim::SimKernel& kernel, sim::Process& proc,
                      const CaptureOptions& options);

  /// Copy up to `max_pages` more page payloads.  Returns true when done.
  bool copy_some(std::size_t max_pages);

  [[nodiscard]] bool done() const { return cursor_ >= plan_.size(); }
  [[nodiscard]] std::size_t pages_total() const { return plan_.size(); }
  [[nodiscard]] std::size_t pages_copied() const { return cursor_; }

  /// Clear the MMU dirty bits and take the image (valid once done()).
  storage::CheckpointImage take_image();

 private:
  sim::SimKernel& kernel_;
  sim::Process& proc_;
  storage::CheckpointImage image_;
  std::vector<std::pair<std::size_t, DirtyRange>> plan_;  ///< (segment idx, range)
  std::size_t cursor_ = 0;
};

/// The state a user-level checkpoint library accumulates inside the
/// process: shadow descriptor and mapping tables maintained by syscall
/// interposition, installed either by relinking (install with
/// `via_preload=false`) or LD_PRELOAD (`via_preload=true`).
class UserLevelRuntime {
 public:
  /// Install the library into the process: interposer plus shadow tables.
  /// Must happen at process start; descriptors opened before installation
  /// are never seen (tested by the transparency probes).
  void install(sim::SimKernel& kernel, sim::Process& proc, bool via_preload);
  void uninstall(sim::Process& proc);

  /// Capture using only user-visible operations; runs in the process's own
  /// context (library call or signal handler).
  storage::CheckpointImage capture(sim::UserApi& api, const CaptureOptions& options);

  [[nodiscard]] bool installed() const { return installed_; }

 private:
  bool installed_ = false;
  bool via_preload_ = false;
  std::vector<sim::Fd> shadow_fds_;
  std::uint64_t interposed_calls_ = 0;
};

/// Byte-compare two images' memory payloads: the same (page, offset) keys,
/// each with the same bytes.  Fleet restores and the torture harness verify
/// every restart with it.
bool images_equal_memory(const storage::CheckpointImage& a,
                         const storage::CheckpointImage& b);

}  // namespace ckpt::core
