#include "core/capture.hpp"

#include <algorithm>
#include <map>

#include "util/bytes.hpp"

namespace ckpt::core {

using storage::CheckpointImage;
using storage::FileDescriptorImage;
using storage::MemorySegmentImage;
using storage::PageImage;
using storage::ThreadImage;

/// Fill the image header + non-memory state from direct kernel access.
void capture_image_metadata(sim::SimKernel& kernel, sim::Process& proc,
                            const CaptureOptions& options, CheckpointImage& image) {
  image.pid = proc.pid;
  image.process_name = proc.name;
  image.hostname = kernel.hostname;
  image.taken_at = kernel.now();
  image.guest = proc.guest_image;

  // Registers: a handful of direct field reads per thread.
  for (const sim::Thread& thread : proc.threads) {
    image.threads.push_back(ThreadImage{thread.tid, thread.regs});
    kernel.charge_kernel_field_reads(10);
  }

  image.brk = proc.brk;
  image.heap_base = proc.heap_base;
  image.mmap_next = proc.mmap_next;
  image.sig_pending = proc.signals.pending;
  image.sig_mask = proc.signals.mask;
  image.sig_dispositions.reserve(proc.signals.disposition.size());
  for (auto d : proc.signals.disposition) {
    image.sig_dispositions.push_back(static_cast<std::uint8_t>(d));
  }
  kernel.charge_kernel_field_reads(4);

  proc.fds.for_each([&](sim::Fd fd, const sim::OpenFileDescription& ofd) {
    FileDescriptorImage entry;
    entry.fd = fd;
    entry.kind = ofd.kind;
    entry.path = ofd.kind == sim::FileKind::kRegular && ofd.file ? ofd.file->path
                                                                 : ofd.object_path;
    entry.offset = ofd.offset;
    entry.flags = ofd.flags;
    entry.was_deleted = ofd.kind == sim::FileKind::kRegular && ofd.file && ofd.file->deleted;
    if (options.save_file_contents && ofd.kind == sim::FileKind::kRegular && ofd.file) {
      entry.contents = ofd.file->data;
      kernel.charge_time(kernel.costs().mem_copy_cost(ofd.file->data.size()),
                         sim::ChargeKind::kCompute);
    }
    kernel.charge_kernel_field_reads(4);
    image.files.push_back(std::move(entry));
  });

  image.bound_ports = proc.bound_ports;
}

/// Build the copy plan: (segment index, range) pairs honouring options.
std::vector<std::pair<std::size_t, DirtyRange>> build_capture_plan(
    const sim::Process& proc, const CaptureOptions& options, CheckpointImage& image) {
  std::vector<std::pair<std::size_t, DirtyRange>> plan;
  const auto& vmas = proc.aspace->vmas();
  image.segments.clear();
  image.segments.reserve(vmas.size());
  for (const sim::Vma& vma : vmas) {
    MemorySegmentImage seg;
    seg.vma = vma;
    image.segments.push_back(std::move(seg));
  }

  auto segment_of = [&](sim::PageNum page) -> std::ptrdiff_t {
    for (std::size_t i = 0; i < vmas.size(); ++i) {
      if (vmas[i].contains_page(page)) return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  };

  if (options.ranges.has_value()) {
    for (const DirtyRange& range : *options.ranges) {
      const std::ptrdiff_t seg = segment_of(range.page);
      if (seg < 0) continue;  // page unmapped since tracking began
      if (options.skip_code_segment && vmas[static_cast<std::size_t>(seg)].kind ==
                                           sim::VmaKind::kCode) {
        continue;
      }
      plan.emplace_back(static_cast<std::size_t>(seg), range);
    }
  } else {
    for (std::size_t i = 0; i < vmas.size(); ++i) {
      if (options.skip_code_segment && vmas[i].kind == sim::VmaKind::kCode) continue;
      for (sim::PageNum p = vmas[i].first_page; p < vmas[i].first_page + vmas[i].page_count;
           ++p) {
        plan.emplace_back(i, DirtyRange{p, 0, sim::kPageSize});
      }
    }
  }
  return plan;
}

CheckpointImage capture_kernel_level(sim::SimKernel& kernel, sim::Process& proc,
                                     const CaptureOptions& options) {
  PagedCaptureSession session(kernel, proc, options);
  while (!session.copy_some(1024)) {
  }
  return session.take_image();
}

// ---------------------------------------------------------------------------
// PagedCaptureSession
// ---------------------------------------------------------------------------

PagedCaptureSession::PagedCaptureSession(sim::SimKernel& kernel, sim::Process& proc,
                                         const CaptureOptions& options)
    : kernel_(kernel), proc_(proc) {
  capture_image_metadata(kernel_, proc_, options, image_);
  plan_ = build_capture_plan(proc_, options, image_);
}

bool PagedCaptureSession::copy_some(std::size_t max_pages) {
  std::size_t copied = 0;
  while (cursor_ < plan_.size() && copied < max_pages) {
    const auto& [seg_idx, range] = plan_[cursor_];
    const std::uint32_t length =
        std::min<std::uint32_t>(range.length, sim::kPageSize - range.offset);
    PageImage page;
    page.page = range.page;
    page.offset = range.offset;
    page.data.resize(length);
    // Page may have been unmapped while the (concurrent) capture was in
    // flight; skip it rather than crash — another face of the consistency
    // hazard of not stopping the target.
    if (proc_.aspace->pte(range.page) != nullptr) {
      kernel_.kernel_read_user_range(proc_, sim::page_base(range.page) + range.offset,
                                     page.data);
      image_.segments[seg_idx].pages.push_back(std::move(page));
    }
    ++cursor_;
    ++copied;
  }
  return done();
}

CheckpointImage PagedCaptureSession::take_image() {
  if (!done()) throw std::logic_error("PagedCaptureSession: capture incomplete");
  proc_.aspace->clear_dirty_bits();
  return std::move(image_);
}

// ---------------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------------

void restore_into_process(sim::SimKernel& kernel, sim::Process& proc,
                          const CheckpointImage& image) {
  // Fresh address space, rebuilt from the image's layout.
  proc.aspace = std::make_unique<sim::AddressSpace>(&kernel.physical_memory());
  for (const MemorySegmentImage& seg : image.segments) {
    proc.aspace->map_region(seg.vma.start(), seg.vma.page_count, seg.vma.prot, seg.vma.kind,
                            seg.vma.name);
    for (const PageImage& page : seg.pages) {
      kernel.kernel_write_user_range(proc, sim::page_base(page.page) + page.offset,
                                     page.data);
    }
  }
  proc.aspace->clear_dirty_bits();

  proc.threads.clear();
  for (const ThreadImage& t : image.threads) {
    proc.threads.push_back(sim::Thread{t.tid, t.regs});
  }

  proc.brk = image.brk;
  proc.heap_base = image.heap_base;
  proc.mmap_next = image.mmap_next;
  proc.signals.pending = image.sig_pending;
  proc.signals.mask = image.sig_mask;
  for (std::size_t i = 0; i < proc.signals.disposition.size() &&
                          i < image.sig_dispositions.size();
       ++i) {
    proc.signals.disposition[i] =
        static_cast<sim::SignalDisposition>(image.sig_dispositions[i]);
  }

  // Descriptors: reattach by kind.  Missing regular files are recreated
  // from saved contents when present (UCLiK), otherwise as empty files —
  // the restore still succeeds but data-dependent behaviour may differ,
  // which the UCLiK tests assert on.
  proc.fds.clear();
  auto& vfs = kernel.vfs();
  for (const FileDescriptorImage& f : image.files) {
    auto ofd = std::make_shared<sim::OpenFileDescription>();
    ofd->kind = f.kind;
    ofd->offset = f.offset;
    ofd->flags = f.flags;
    ofd->object_path = f.path;
    switch (f.kind) {
      case sim::FileKind::kRegular: {
        auto file = vfs.lookup(f.path);
        if (file == nullptr) {
          file = vfs.create(f.path, f.contents.value_or(std::vector<std::byte>{}));
        } else if (f.contents.has_value()) {
          file->data = *f.contents;  // roll file content back to checkpoint time
        }
        ofd->file = std::move(file);
        break;
      }
      case sim::FileKind::kDevice:
        ofd->device = vfs.device(f.path);
        break;
      case sim::FileKind::kProcEntry:
        ofd->proc = vfs.proc_entry(f.path);
        break;
      case sim::FileKind::kPipe:
        ofd->pipe = std::make_shared<sim::SimPipe>();
        break;
      case sim::FileKind::kSocket:
        ofd->socket = std::make_shared<sim::SimSocket>();
        break;
    }
    proc.fds.install_at(f.fd, std::move(ofd));
  }
}

// ---------------------------------------------------------------------------
// UserLevelRuntime
// ---------------------------------------------------------------------------

void UserLevelRuntime::install(sim::SimKernel&, sim::Process& proc, bool via_preload) {
  installed_ = true;
  via_preload_ = via_preload;
  shadow_fds_.clear();
  // Shadow-track descriptor lifecycle.  Descriptors that already exist are
  // invisible: the library cannot read the kernel's fd table.
  proc.fd_hook = [this](sim::Process&, sim::Process::FdOp op, sim::Fd fd, const std::string&,
                        std::uint32_t) {
    switch (op) {
      case sim::Process::FdOp::kOpen:
      case sim::Process::FdOp::kDup:
      case sim::Process::FdOp::kSocket:
        shadow_fds_.push_back(fd);
        break;
      case sim::Process::FdOp::kClose:
        shadow_fds_.erase(std::remove(shadow_fds_.begin(), shadow_fds_.end(), fd),
                          shadow_fds_.end());
        break;
    }
  };
  // The interposer itself: every syscall pays the wrapper cost.
  proc.interposer = [this](sim::SimKernel&, sim::Process&, const char*, std::uint64_t,
                           std::uint64_t) { ++interposed_calls_; };
}

void UserLevelRuntime::uninstall(sim::Process& proc) {
  installed_ = false;
  proc.fd_hook = nullptr;
  proc.interposer.reset();
}

CheckpointImage UserLevelRuntime::capture(sim::UserApi& api, const CaptureOptions& options) {
  sim::Process& proc = api.process();
  sim::SimKernel& kernel = api.kernel();
  CheckpointImage image;
  image.pid = proc.pid;  // getpid(): one more crossing
  (void)api.sys_getpid();
  image.process_name = proc.name;
  image.hostname = kernel.hostname;
  image.taken_at = kernel.now();
  image.guest = proc.guest_image;

  // Registers via setjmp: cheap, no crossing.
  kernel.charge_time(100, sim::ChargeKind::kCompute);
  for (const sim::Thread& thread : proc.threads) {
    image.threads.push_back(ThreadImage{thread.tid, thread.regs});
  }

  // The user-level extraction tour the survey describes.
  const auto vmas = api.sys_proc_maps();          // one crossing per VMA
  image.brk = api.sys_sbrk(0);  // the classic sbrk(0) heap-bound query
  image.heap_base = proc.heap_base;
  image.mmap_next = proc.mmap_next;
  image.sig_pending = api.sys_sigpending();       // sigpending()
  image.sig_mask = proc.signals.mask;             // library tracks its own mask
  image.sig_dispositions.reserve(proc.signals.disposition.size());
  for (auto d : proc.signals.disposition) {
    image.sig_dispositions.push_back(static_cast<std::uint8_t>(d));
  }

  // Memory: the process reads its own address space (no crossings, but
  // every byte moves through user-space buffers).
  image.segments.reserve(vmas.size());
  for (const sim::Vma& vma : vmas) {
    MemorySegmentImage seg;
    seg.vma = vma;
    if (!(options.skip_code_segment && vma.kind == sim::VmaKind::kCode)) {
      const bool filter = options.ranges.has_value();
      for (sim::PageNum p = vma.first_page; p < vma.first_page + vma.page_count; ++p) {
        std::uint32_t offset = 0;
        std::uint32_t length = sim::kPageSize;
        if (filter) {
          bool found = false;
          for (const DirtyRange& r : *options.ranges) {
            if (r.page == p) {
              offset = r.offset;
              length = r.length;
              found = true;
              break;
            }
          }
          if (!found) continue;
        }
        PageImage page;
        page.page = p;
        page.offset = offset;
        page.data.resize(std::min<std::uint32_t>(length, sim::kPageSize - offset));
        if (!api.load(sim::page_base(p) + offset, page.data)) break;
        seg.pages.push_back(std::move(page));
      }
    }
    image.segments.push_back(std::move(seg));
  }

  // Descriptors: only shadow-tracked ones; offset costs one lseek() each.
  for (sim::Fd fd : shadow_fds_) {
    const auto ofd = proc.fds.get(fd);
    if (!ofd) continue;
    FileDescriptorImage entry;
    entry.fd = fd;
    entry.kind = ofd->kind;
    entry.path = ofd->kind == sim::FileKind::kRegular && ofd->file ? ofd->file->path
                                                                   : ofd->object_path;
    entry.flags = ofd->flags;
    entry.offset = static_cast<std::uint64_t>(api.sys_lseek(fd, 0, sim::SeekWhence::kCur));
    entry.was_deleted =
        ofd->kind == sim::FileKind::kRegular && ofd->file && ofd->file->deleted;
    image.files.push_back(std::move(entry));
  }

  image.bound_ports = proc.bound_ports;
  return image;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

bool images_equal_memory(const CheckpointImage& a, const CheckpointImage& b) {
  std::map<std::pair<sim::PageNum, std::uint32_t>, const std::vector<std::byte>*> pa, pb;
  for (const auto& seg : a.segments) {
    for (const auto& page : seg.pages) pa[{page.page, page.offset}] = &page.data;
  }
  for (const auto& seg : b.segments) {
    for (const auto& page : seg.pages) pb[{page.page, page.offset}] = &page.data;
  }
  if (pa.size() != pb.size()) return false;
  for (const auto& [key, data] : pa) {
    auto it = pb.find(key);
    if (it == pb.end() || !util::bytes_equal(*it->second, *data)) return false;
  }
  return true;
}

}  // namespace ckpt::core
