#include "core/systemlevel.hpp"

#include <cstring>
#include <stdexcept>

#include "obs/observer.hpp"

namespace ckpt::core {
namespace {

/// Initiation marker: every engine front-end emits one, so traces show the
/// request entering the system even when execution is deferred.
void note_initiate(sim::SimKernel& kernel, const std::string& engine, const char* interface,
                   sim::Pid pid) {
  obs::Observer* observer = kernel.observer();
  if (observer == nullptr) return;
  observer->trace().instant("initiate", "ckpt", static_cast<std::uint64_t>(pid),
                            {obs::TraceArg::str("engine", engine),
                             obs::TraceArg::str("interface", interface)});
  observer->metrics().add("ckpt.initiated");
}

}  // namespace

// ---------------------------------------------------------------------------
// SyscallEngine
// ---------------------------------------------------------------------------

SyscallEngine::SyscallEngine(std::string name, storage::StorageBackend* backend,
                             EngineOptions options, sim::SimKernel& kernel, TargetMode mode,
                             sim::KernelModule* module)
    : CheckpointEngine(std::move(name), backend, std::move(options)),
      mode_(mode),
      dump_name_(name_ + "_dump") {
  kernel.register_syscall(
      dump_name_,
      [this](sim::SimKernel& k, sim::Process& caller, std::uint64_t a0, std::uint64_t,
             std::uint64_t) { return handle_dump(k, caller, a0); },
      module);
}

TaxonomyPath SyscallEngine::taxonomy() const {
  return {Context::kSystemLevel, Agent::kOperatingSystem, Technique::kSystemCall,
          KThreadInterface::kNone};
}

std::int64_t SyscallEngine::handle_dump(sim::SimKernel& kernel, sim::Process& caller,
                                        std::uint64_t a0) {
  sim::Process* target = nullptr;
  if (mode_ == TargetMode::kCurrent) {
    // The `current` macro: whoever made the call is the subject.
    target = &caller;
  } else {
    target = kernel.find_process(static_cast<sim::Pid>(a0));
    if (target == nullptr || !target->alive()) return -3;  // ESRCH
  }
  note_initiate(kernel, name_, mode_ == TargetMode::kCurrent ? "syscall-self" : "syscall",
                target->pid);
  CheckpointResult result = perform_kernel_checkpoint(kernel, *target, kernel.now());
  record_result(result);
  return result.ok ? static_cast<std::int64_t>(result.image_id) : -5;  // EIO
}

std::uint64_t SyscallEngine::request_checkpoint_async(sim::SimKernel& kernel, sim::Pid pid) {
  if (mode_ == TargetMode::kCurrent) return 0;  // only the app itself can initiate
  sim::Process* target = kernel.find_process(pid);
  if (target == nullptr || !target->alive()) return 0;
  // An external tool invokes the syscall with the target's pid; the kernel
  // services it in the tool's context (hence the address-space switch paid
  // inside the capture when copying the target's pages).
  note_initiate(kernel, name_, "syscall", target->pid);
  CheckpointResult result = perform_kernel_checkpoint(kernel, *target, kernel.now());
  return record_result(std::move(result));
}

// ---------------------------------------------------------------------------
// KernelSignalEngine
// ---------------------------------------------------------------------------

KernelSignalEngine::KernelSignalEngine(std::string name, storage::StorageBackend* backend,
                                       EngineOptions options, sim::SimKernel& kernel,
                                       sim::Signal sig, sim::KernelModule* module)
    : CheckpointEngine(std::move(name), backend, std::move(options)), sig_(sig) {
  kernel.register_kernel_signal(
      sig,
      [this](sim::SimKernel& k, sim::Process& proc) { on_signal_delivered(k, proc); },
      module);
}

TaxonomyPath KernelSignalEngine::taxonomy() const {
  return {Context::kSystemLevel, Agent::kOperatingSystem, Technique::kKernelSignal,
          KThreadInterface::kNone};
}

std::uint64_t KernelSignalEngine::request_checkpoint_async(sim::SimKernel& kernel,
                                                           sim::Pid pid) {
  sim::Process* target = kernel.find_process(pid);
  if (target == nullptr || !target->alive()) return 0;
  const std::uint64_t ticket = new_ticket();
  record_pending(ticket);
  pending_[pid].push_back(PendingRequest{ticket, kernel.now()});
  note_initiate(kernel, name_, "kernel-signal", pid);
  // kill(pid, SIGCKPT): the action is deferred until the target's next
  // kernel->user transition — the deferral claim C6 quantifies.
  kernel.send_signal(pid, sig_);
  return ticket;
}

void KernelSignalEngine::on_signal_delivered(sim::SimKernel& kernel, sim::Process& proc) {
  SimTime initiated_at = kernel.now();
  std::uint64_t ticket = 0;
  auto it = pending_.find(proc.pid);
  if (it != pending_.end() && !it->second.empty()) {
    initiated_at = it->second.front().initiated_at;
    ticket = it->second.front().ticket;
    it->second.pop_front();
  }
  CheckpointResult result = perform_kernel_checkpoint(kernel, proc, initiated_at);
  if (ticket != 0) {
    complete_ticket(ticket, std::move(result));
  } else {
    record_result(std::move(result));  // signal raised by some other path
  }
}

// ---------------------------------------------------------------------------
// KernelThreadEngine
// ---------------------------------------------------------------------------

KernelThreadEngine::KernelThreadEngine(std::string name, storage::StorageBackend* backend,
                                       EngineOptions options, sim::SimKernel& kernel,
                                       ThreadConfig config, sim::KernelModule* module)
    : CheckpointEngine(std::move(name), backend, std::move(options)), config_(config) {
  if (options_.streaming) {
    throw std::invalid_argument(
        "KernelThreadEngine: streaming is not supported (capture completes across "
        "quanta before the store begins)");
  }
  thread_pid_ = kernel.spawn_kernel_thread(
      name_ + "-kthread", [this](sim::SimKernel& k) { return thread_body(k); },
      config_.sched);

  switch (config_.interface) {
    case KThreadInterface::kDeviceIoctl: {
      device_path_ = "/dev/" + name_;
      sim::DeviceHooks hooks;
      hooks.ioctl = [this](sim::SimKernel& k, sim::Process&, std::uint64_t cmd,
                           std::uint64_t arg) -> std::int64_t {
        if (cmd != kIoctlCheckpoint) return -22;  // EINVAL
        const std::uint64_t ticket = enqueue(k, static_cast<sim::Pid>(arg));
        return ticket == 0 ? -3 : static_cast<std::int64_t>(ticket);
      };
      kernel.vfs().register_device(device_path_, std::move(hooks));
      if (module != nullptr) {
        const std::string path = device_path_;
        module->add_cleanup([path](sim::SimKernel& k) { k.vfs().unregister_device(path); });
      }
      break;
    }
    case KThreadInterface::kProcFs: {
      proc_path_ = "/proc/" + name_;
      sim::ProcEntryHooks hooks;
      hooks.write = [this](sim::SimKernel& k, sim::Process&,
                           std::string_view in) -> std::int64_t {
        const sim::Pid pid = static_cast<sim::Pid>(std::atoi(std::string(in).c_str()));
        const std::uint64_t ticket = enqueue(k, pid);
        return ticket == 0 ? -3 : static_cast<std::int64_t>(ticket);
      };
      hooks.read = [this](sim::SimKernel&) -> std::string {
        return name_ + ": queued=" + std::to_string(queue_.size()) +
               " active=" + (active_.has_value() ? "yes" : "no") + "\n";
      };
      kernel.vfs().register_proc_entry(proc_path_, std::move(hooks));
      if (module != nullptr) {
        const std::string path = proc_path_;
        module->add_cleanup(
            [path](sim::SimKernel& k) { k.vfs().unregister_proc_entry(path); });
      }
      break;
    }
    case KThreadInterface::kSyscall: {
      kernel.register_syscall(
          name_ + "_request",
          [this](sim::SimKernel& k, sim::Process&, std::uint64_t a0, std::uint64_t,
                 std::uint64_t) -> std::int64_t {
            const std::uint64_t ticket = enqueue(k, static_cast<sim::Pid>(a0));
            return ticket == 0 ? -3 : static_cast<std::int64_t>(ticket);
          },
          module);
      break;
    }
    case KThreadInterface::kNone:
      break;
  }

  if (module != nullptr) {
    const sim::Pid tp = thread_pid_;
    module->add_cleanup([tp](sim::SimKernel& k) {
      if (sim::Process* thread = k.find_process(tp); thread != nullptr && thread->alive()) {
        k.terminate(*thread, 0);
        k.reap(tp);
      }
    });
  }
}

TaxonomyPath KernelThreadEngine::taxonomy() const {
  return {Context::kSystemLevel, Agent::kOperatingSystem, Technique::kKernelThread,
          config_.interface};
}

std::uint64_t KernelThreadEngine::request_checkpoint_async(sim::SimKernel& kernel,
                                                           sim::Pid pid) {
  return enqueue(kernel, pid);
}

std::uint64_t KernelThreadEngine::enqueue(sim::SimKernel& kernel, sim::Pid pid) {
  sim::Process* target = kernel.find_process(pid);
  if (target == nullptr || !target->alive()) return 0;
  const std::uint64_t ticket = new_ticket();
  record_pending(ticket);
  queue_.push_back(Request{ticket, pid, kernel.now()});
  note_initiate(kernel, name_, to_string(config_.interface), pid);
  kernel.wake(thread_pid_);
  return ticket;
}

sim::KStepResult KernelThreadEngine::thread_body(sim::SimKernel& kernel) {
  if (!active_.has_value()) {
    if (queue_.empty()) return sim::KStepResult::kSleep;
    Request request = queue_.front();
    queue_.pop_front();
    begin_session(kernel, std::move(request));
    if (!active_.has_value()) return queue_.empty() ? sim::KStepResult::kSleep
                                                    : sim::KStepResult::kContinue;
  }

  // Copy a bounded number of pages this quantum; a concurrent-mode target
  // keeps running in other scheduler slots meanwhile.
  sim::Process* target = kernel.find_process(active_->request.target);
  sim::Process* source = active_->shadow_pid != sim::kNoPid
                             ? kernel.find_process(active_->shadow_pid)
                             : target;
  if (source == nullptr || !source->alive()) {
    abort_session(kernel, "target died during checkpoint");
    return queue_.empty() ? sim::KStepResult::kSleep : sim::KStepResult::kContinue;
  }

  if (active_->capture->copy_some(config_.pages_per_step)) {
    finish_session(kernel);
  }
  return (active_.has_value() || !queue_.empty()) ? sim::KStepResult::kContinue
                                                  : sim::KStepResult::kSleep;
}

void KernelThreadEngine::begin_session(sim::SimKernel& kernel, Request request) {
  sim::Process* target = kernel.find_process(request.target);
  if (target == nullptr || !target->alive()) {
    CheckpointResult result;
    result.initiated_at = request.initiated_at;
    result.error = name_ + ": target vanished before checkpoint started";
    complete_ticket(request.ticket, std::move(result));
    return;
  }

  ActiveSession session;
  session.request = request;
  session.started_at = kernel.now() + kernel.step_charge();
  session.was_runnable = target->runnable();

  obs::TraceRecorder* trace = obs::tracer(kernel.observer());
  const std::uint64_t track = static_cast<std::uint64_t>(target->pid);
  if (trace != nullptr) {
    // Queue wait + thread wakeup latency, rendered retroactively.
    if (session.started_at > request.initiated_at) {
      trace->begin_at(request.initiated_at, "deferral", "ckpt", track);
      trace->end_at(session.started_at, "deferral", track);
    }
    trace->begin("checkpoint", "ckpt", track,
                 {obs::TraceArg::str("engine", name_),
                  obs::TraceArg::str("consistency", to_string(options_.consistency)),
                  obs::TraceArg::num("pid", track)});
  }

  const CapturePlan next = plan_capture(kernel, *target, state_for(target->pid));
  session.kind = next.kind;

  sim::Process* source = target;
  {
    obs::SpanGuard quiesce(trace, "quiesce", "ckpt", track);
    switch (options_.consistency) {
      case ConsistencyMode::kStopTarget:
        kernel.stop_process(*target);
        break;
      case ConsistencyMode::kForkAndCopy:
        session.shadow_pid = kernel.fork_process(*target, /*freeze_child=*/true);
        session.cow_at_start = target->stats.cow_faults;
        source = &kernel.process(session.shadow_pid);
        break;
      case ConsistencyMode::kConcurrent:
        break;
    }
  }
  // The capture span stays open across quanta; finish/abort closes it.
  if (trace != nullptr) trace->begin("capture", "ckpt", track);

  session.capture = std::make_unique<PagedCaptureSession>(kernel, *source, next.options);
  active_ = std::move(session);
}

void KernelThreadEngine::finish_session(sim::SimKernel& kernel) {
  ActiveSession& session = *active_;
  sim::Process* target = kernel.find_process(session.request.target);

  storage::CheckpointImage image = session.capture->take_image();
  if (target != nullptr) {
    image.pid = target->pid;
    image.process_name = target->name;
    image.guest = target->guest_image;
  }
  image.kind = session.kind;

  CheckpointResult result;
  result.initiated_at = session.request.initiated_at;
  result.started_at = session.started_at;
  result.kind = image.kind;
  result.payload_bytes = image.payload_bytes();
  result.pages = image.page_count();

  obs::Observer* observer = kernel.observer();
  obs::TraceRecorder* trace = obs::tracer(observer);
  const std::uint64_t track = static_cast<std::uint64_t>(session.request.target);
  if (trace != nullptr) {
    trace->end("capture", track,
               {obs::TraceArg::str("kind", to_string(result.kind)),
                obs::TraceArg::num("pages", result.pages),
                obs::TraceArg::num("bytes", result.payload_bytes)});
    trace->begin("store", "ckpt", track);
  }

  ProcState& state = state_for(session.request.target);
  std::uint64_t cow_faults = 0;
  const auto settle = [&] {
    if (trace != nullptr) {
      trace->end("store", track, {obs::TraceArg::num("image_id", result.image_id)});
    }
    release_session(kernel, session);
    // COW activity the live shadow induced while the target kept running:
    // every write the target made to a still-shared page paid a fault +
    // page copy.
    if (session.shadow_pid != sim::kNoPid && target != nullptr) {
      cow_faults = target->stats.cow_faults - session.cow_at_start;
    }
  };
  const CommitPoint committed = store_step(kernel, state, session.request.target, target,
                                           std::move(image), {}, result, settle);
  const SimTime cow_fault_ns =
      cow_faults * (kernel.costs().cow_fault_extra_ns +
                    kernel.costs().mem_copy_cost(sim::kPageSize));

  // The clock freezes within a scheduling step; time this step's work has
  // already charged (page copies, the storage write) counts toward the
  // completion instant.
  result.completed_at = committed.clock + committed.step_charge;
  if (trace != nullptr) {
    trace->end("checkpoint", track,
               {obs::TraceArg::str("outcome", result.ok ? "ok" : "store-failed"),
                obs::TraceArg::num("cow_faults", cow_faults)});
    if (session.shadow_pid != sim::kNoPid && target != nullptr) {
      trace->counter("ckpt.cow_faults", track, target->stats.cow_faults);
    }
  }
  if (observer != nullptr) {
    obs::MetricsRegistry& metrics = observer->metrics();
    metrics.add("ckpt.cow_faults", cow_faults);
    metrics.add("ckpt.cow_fault_ns", cow_fault_ns);
    record_outcome(metrics, result);
  }
  complete_ticket(session.request.ticket, std::move(result));
  active_.reset();
}

void KernelThreadEngine::release_session(sim::SimKernel& kernel,
                                         const ActiveSession& session) {
  if (session.shadow_pid != sim::kNoPid) {
    if (sim::Process* shadow = kernel.find_process(session.shadow_pid)) {
      if (shadow->alive()) kernel.terminate(*shadow, 0);
      kernel.reap(session.shadow_pid);
    }
  }
  if (options_.consistency == ConsistencyMode::kStopTarget && session.was_runnable) {
    if (sim::Process* target = kernel.find_process(session.request.target);
        target != nullptr && target->alive() && !target->runnable()) {
      kernel.resume_process(*target);
    }
  }
}

void KernelThreadEngine::abort_session(sim::SimKernel& kernel, const std::string& reason) {
  CheckpointResult result;
  result.initiated_at = active_->request.initiated_at;
  result.started_at = active_->started_at;
  result.error = name_ + ": " + reason;
  release_session(kernel, *active_);
  if (obs::Observer* observer = kernel.observer()) {
    const std::uint64_t track = static_cast<std::uint64_t>(active_->request.target);
    observer->trace().end("capture", track);
    observer->trace().end("checkpoint", track,
                          {obs::TraceArg::str("outcome", "aborted")});
    observer->metrics().add("ckpt.aborted");
  }
  complete_ticket(active_->request.ticket, std::move(result));
  active_.reset();
}

}  // namespace ckpt::core
