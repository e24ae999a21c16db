// System-level (operating-system) checkpoint engines — survey §4.1.
//
//   * SyscallEngine      — new checkpoint/restart system calls.  In
//     "current" mode (VMADump) the caller checkpoints itself via the
//     `current` macro: no external initiation, no transparency, but also
//     no consistency problem and no address-space switch.  In "by-pid"
//     mode (EPCKPT) a tool passes the target's pid; capture then runs in
//     the caller's context and pays the address-space switch to read the
//     target's memory.
//
//   * KernelSignalEngine — a new kernel signal whose default action, run
//     in kernel mode at the target's next kernel->user transition,
//     checkpoints the process.  Initiation latency = scheduling delay of
//     the target: it grows with load, which claim C6 measures.
//
//   * KernelThreadEngine — a dedicated kernel thread serves a request
//     queue fed through /dev ioctl (CRAK, BLCR), /proc (CHPOX, PsncR/C) or
//     a syscall.  The thread copies a bounded number of pages per quantum,
//     so captures genuinely interleave with application execution; the
//     ConsistencyMode decides whether the target is stopped, forked, or
//     raced (kConcurrent: the torn-snapshot hazard).  SCHED_FIFO priority
//     makes the thread immune to timeshare load (claim C6).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "core/engine.hpp"

namespace ckpt::core {

class SyscallEngine final : public CheckpointEngine {
 public:
  enum class TargetMode : std::uint8_t {
    kCurrent,  ///< VMADump: the calling process checkpoints itself
    kByPid,    ///< EPCKPT: any process, identified by pid
  };

  /// Registers syscall `<name>_dump` (and `<name>_restart`).  When `module`
  /// is null the registration is static (not unloadable) — the VMADump /
  /// EPCKPT situation Table 1's last column records.
  SyscallEngine(std::string name, storage::StorageBackend* backend, EngineOptions options,
                sim::SimKernel& kernel, TargetMode mode, sim::KernelModule* module);

  [[nodiscard]] TaxonomyPath taxonomy() const override;
  [[nodiscard]] bool supports_external_initiation() const override {
    return mode_ == TargetMode::kByPid;
  }
  std::uint64_t request_checkpoint_async(sim::SimKernel& kernel, sim::Pid pid) override;

  [[nodiscard]] const std::string& dump_syscall() const { return dump_name_; }

 private:
  std::int64_t handle_dump(sim::SimKernel& kernel, sim::Process& caller, std::uint64_t a0);

  TargetMode mode_;
  std::string dump_name_;
};

class KernelSignalEngine final : public CheckpointEngine {
 public:
  /// Adds `sig` as a new kernel signal whose default action checkpoints the
  /// delivered-to process in kernel mode.
  KernelSignalEngine(std::string name, storage::StorageBackend* backend,
                     EngineOptions options, sim::SimKernel& kernel, sim::Signal sig,
                     sim::KernelModule* module);

  [[nodiscard]] TaxonomyPath taxonomy() const override;
  [[nodiscard]] bool supports_external_initiation() const override { return true; }
  std::uint64_t request_checkpoint_async(sim::SimKernel& kernel, sim::Pid pid) override;

  [[nodiscard]] sim::Signal signal() const { return sig_; }

 private:
  void on_signal_delivered(sim::SimKernel& kernel, sim::Process& proc);

  sim::Signal sig_;
  struct PendingRequest {
    std::uint64_t ticket;
    SimTime initiated_at;
  };
  std::map<sim::Pid, std::deque<PendingRequest>> pending_;
};

class KernelThreadEngine final : public CheckpointEngine {
 public:
  struct ThreadConfig {
    KThreadInterface interface = KThreadInterface::kDeviceIoctl;
    /// Scheduling class of the checkpoint thread; kFifo with high priority
    /// is the survey's recommendation, kTimeshare demonstrates the
    /// preemption problem.
    sim::SchedParams sched{sim::SchedClass::kFifo, 50, 0, 0};
    /// Pages copied per scheduling quantum.
    std::size_t pages_per_step = 32;
  };

  KernelThreadEngine(std::string name, storage::StorageBackend* backend,
                     EngineOptions options, sim::SimKernel& kernel, ThreadConfig config,
                     sim::KernelModule* module);

  [[nodiscard]] TaxonomyPath taxonomy() const override;
  [[nodiscard]] bool supports_external_initiation() const override { return true; }
  std::uint64_t request_checkpoint_async(sim::SimKernel& kernel, sim::Pid pid) override;

  [[nodiscard]] const std::string& device_path() const { return device_path_; }
  [[nodiscard]] const std::string& proc_path() const { return proc_path_; }

  /// ioctl command codes for the device interface.
  static constexpr std::uint64_t kIoctlCheckpoint = 1;

 private:
  struct Request {
    std::uint64_t ticket;
    sim::Pid target;
    SimTime initiated_at;
  };
  struct ActiveSession {
    Request request;
    std::unique_ptr<PagedCaptureSession> capture;
    sim::Pid shadow_pid = sim::kNoPid;
    bool was_runnable = true;
    storage::ImageKind kind = storage::ImageKind::kFull;
    SimTime started_at = 0;
    /// Target's cumulative COW-fault count when the shadow was forked; the
    /// delta at finish is the COW activity this checkpoint induced.
    std::uint64_t cow_at_start = 0;
  };

  std::uint64_t enqueue(sim::SimKernel& kernel, sim::Pid pid);
  sim::KStepResult thread_body(sim::SimKernel& kernel);
  void begin_session(sim::SimKernel& kernel, Request request);
  void finish_session(sim::SimKernel& kernel);
  void abort_session(sim::SimKernel& kernel, const std::string& reason);
  /// Release the session's consistency protection on every exit path: reap
  /// the frozen shadow (a leaked one pins every COW frame of the snapshot)
  /// and resume a target stopped for kStopTarget.
  void release_session(sim::SimKernel& kernel, const ActiveSession& session);

  ThreadConfig config_;
  std::string device_path_;
  std::string proc_path_;
  sim::Pid thread_pid_ = sim::kNoPid;
  std::deque<Request> queue_;
  std::optional<ActiveSession> active_;
};

}  // namespace ckpt::core
