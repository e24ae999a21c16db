#include "sim/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "obs/observer.hpp"
#include "sim/userapi.hpp"
#include "util/log.hpp"

namespace ckpt::sim {
namespace {

/// Thrown when the currently executing task is terminated mid-step so the
/// guest's C++ frame unwinds back to the scheduler.
struct TaskTerminated {};

/// Fixed segment sizes of the standard layout; only the heap varies.
constexpr std::uint64_t kCodePages = 4;
constexpr std::uint64_t kDataPages = 8;
constexpr std::uint64_t kStackPages = 4;

}  // namespace

SimKernel::SimKernel(int ncpus, CostModel costs, std::uint64_t seed)
    : ncpus_(ncpus),
      costs_(costs),
      rng_(seed),
      cpu_active_aspace_(ncpus, kNoPid),
      cpu_last_task_(ncpus, kNoPid) {
  if (ncpus < 1) throw std::invalid_argument("SimKernel: ncpus must be >= 1");
}

SimKernel::~SimKernel() {
  // The attached observer's trace clock captures `this` (see set_observer);
  // unbind it so an observer outliving the kernel — a failed cluster node,
  // a per-soak kernel — never calls into freed memory.
  if (observer_ != nullptr) observer_->set_clock({});
}

void SimKernel::set_observer(obs::Observer* observer) {
  observer_ = observer;
  if (observer_ != nullptr) {
    observer_->set_clock([this] { return effective_now(); });
  }
}

// ---------------------------------------------------------------------------
// Process lifecycle
// ---------------------------------------------------------------------------

Process& SimKernel::allocate_process(std::string name, bool kernel_thread,
                                     std::optional<Pid> desired) {
  Pid pid;
  if (desired.has_value()) {
    if (pid_in_use(*desired)) {
      throw std::runtime_error("pid " + std::to_string(*desired) + " already in use");
    }
    pid = *desired;
  } else {
    while (pid_in_use(next_pid_)) ++next_pid_;
    pid = next_pid_++;
  }
  auto aspace = kernel_thread ? nullptr : std::make_unique<AddressSpace>(&physmem_);
  auto proc = std::make_unique<Process>(pid, std::move(name), std::move(aspace));
  proc->is_kernel_thread = kernel_thread;
  // CFS-style placement: a new task joins at the queue's minimum fairness
  // clock so it neither starves existing tasks nor is starved by them.
  proc->sched.vruntime = min_timeshare_vruntime();
  Process& ref = *proc;
  tasks_.emplace(pid, std::move(proc));
  return ref;
}

SimTime SimKernel::min_timeshare_vruntime() const {
  // Minimum over *runnable* timeshare tasks: a sleeper being re-placed must
  // not count its own stale clock (or other sleepers') as the queue minimum.
  SimTime minimum = 0;
  bool found = false;
  for (const auto& [pid, proc] : tasks_) {
    if (!proc->runnable() || proc->sched.cls != SchedClass::kTimeshare) continue;
    if (!found || proc->sched.vruntime < minimum) {
      minimum = proc->sched.vruntime;
      found = true;
    }
  }
  return minimum;
}

void SimKernel::build_standard_layout(Process& proc, const SpawnOptions& options) {
  AddressSpace& as = *proc.aspace;
  as.map_region(kCodeBase, kCodePages, kProtRX, VmaKind::kCode, "text");
  as.map_region(kDataBase, kDataPages, kProtRW, VmaKind::kData, "data");
  as.map_region(kHeapBase, options.heap_pages, kProtRW, VmaKind::kHeap, "heap");
  const VAddr stack_base = kStackTop - kStackPages * kPageSize;
  as.map_region(stack_base, kStackPages, kProtRW, VmaKind::kStack, "stack");
  proc.heap_base = kHeapBase;
  proc.brk = kHeapBase + options.heap_pages * kPageSize;
  proc.threads.clear();
  for (int t = 0; t < options.thread_count; ++t) {
    Thread thread;
    thread.tid = t + 1;
    thread.regs.pc = kCodeBase;
    thread.regs.sp = kStackTop - static_cast<std::uint64_t>(t) * 2 * kPageSize;
    proc.threads.push_back(thread);
  }
}

Pid SimKernel::spawn(const std::string& guest_type, std::vector<std::byte> guest_config,
                     const SpawnOptions& options) {
  Process& proc = allocate_process(guest_type, /*kernel_thread=*/false, std::nullopt);
  build_standard_layout(proc, options);
  proc.guest_image = GuestImage{guest_type, std::move(guest_config)};
  proc.guest = GuestRegistry::instance().create(proc.guest_image);
  proc.state = TaskState::kReady;
  return proc.pid;
}

Pid SimKernel::create_restored_process(const std::string& name, const GuestImage& image,
                                       std::optional<Pid> desired_pid) {
  Process& proc = allocate_process(name, /*kernel_thread=*/false, desired_pid);
  proc.guest_image = image;
  if (!image.type_name.empty()) {
    proc.guest = GuestRegistry::instance().create(image);
  }
  proc.started = true;  // restored processes resume, they do not re-run on_start
  proc.state = TaskState::kStopped;
  return proc.pid;
}

Pid SimKernel::fork_process(Process& parent, bool freeze_child) {
  Process& child = allocate_process(parent.name + "-fork", false, std::nullopt);
  child.ppid = parent.pid;
  // The COW clone write-protects and refcounts every present page in both
  // address spaces; that page-table walk is the entire cost of the
  // snapshot — page contents are copied lazily on first store.
  charge_time(costs_.fork_cost(parent.aspace->present_page_count()), ChargeKind::kSyscall);
  child.aspace = parent.aspace->clone_cow();
  child.threads = parent.threads;
  child.brk = parent.brk;
  child.heap_base = parent.heap_base;
  child.mmap_next = parent.mmap_next;
  child.signals.disposition = parent.signals.disposition;
  child.signals.mask = parent.signals.mask;
  child.sched = parent.sched;
  child.guest_image = parent.guest_image;
  // Descriptors are shared (same open file descriptions), as in fork(2).
  child.fds = parent.fds;
  child.library_handlers = parent.library_handlers;
  ++kstats_.forks;
  if (freeze_child) {
    child.is_checkpoint_shadow = true;
    child.state = TaskState::kStopped;
  } else {
    child.state = TaskState::kReady;
  }
  return child.pid;
}

Pid SimKernel::sys_fork(Process& parent) {
  const Pid child_pid = fork_process(parent, /*freeze_child=*/false);
  Process& child = process(child_pid);
  child.name = parent.name + "-child";
  child.guest = GuestRegistry::instance().create(parent.guest_image);
  child.started = true;
  for (Thread& t : child.threads) t.regs.gpr[7] = 1;  // ABI: "I am the child"
  return child_pid;
}

void SimKernel::terminate(Process& proc, int exit_code) {
  if (!proc.alive()) return;
  proc.exit_code = exit_code;
  proc.state = TaskState::kZombie;
  for (std::uint16_t port : proc.bound_ports) release_port(port);
  proc.bound_ports.clear();
  proc.fds.clear();
  if (proc.ppid != kNoPid) {
    if (Process* parent = find_process(proc.ppid); parent != nullptr && parent->alive()) {
      parent->signals.raise(kSigChld);
    }
  }
  util::logf(util::LogLevel::kDebug, "kernel", "pid %d (%s) terminated, code %d", proc.pid,
             proc.name.c_str(), exit_code);
  if (current_ == &proc) throw TaskTerminated{};
}

void SimKernel::reap(Pid pid) {
  auto it = tasks_.find(pid);
  if (it == tasks_.end()) return;
  if (it->second->state != TaskState::kZombie) {
    throw std::runtime_error("reap: process not a zombie");
  }
  tasks_.erase(it);
}

Process* SimKernel::find_process(Pid pid) {
  auto it = tasks_.find(pid);
  return it == tasks_.end() ? nullptr : it->second.get();
}

const Process* SimKernel::find_process(Pid pid) const {
  auto it = tasks_.find(pid);
  return it == tasks_.end() ? nullptr : it->second.get();
}

Process& SimKernel::process(Pid pid) {
  Process* proc = find_process(pid);
  if (proc == nullptr) throw std::runtime_error("no such pid " + std::to_string(pid));
  return *proc;
}

std::vector<Pid> SimKernel::live_pids() const {
  std::vector<Pid> out;
  for (const auto& [pid, proc] : tasks_) {
    if (proc->alive()) out.push_back(pid);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Scheduling control
// ---------------------------------------------------------------------------

void SimKernel::stop_process(Process& proc) {
  if (proc.alive()) proc.state = TaskState::kStopped;
}

void SimKernel::resume_process(Process& proc) {
  if (proc.state != TaskState::kStopped) return;
  // Re-place on the fairness clock (computed before this task rejoins the
  // queue): a long-stopped task must not monopolise the CPU to "catch up".
  if (proc.sched.cls == SchedClass::kTimeshare) {
    proc.sched.vruntime = std::max(proc.sched.vruntime, min_timeshare_vruntime());
  }
  proc.state = TaskState::kReady;
}

void SimKernel::block_process(Process& proc, SimTime wake_at) {
  if (!proc.alive()) return;
  proc.state = TaskState::kBlocked;
  proc.wake_deadline = wake_at;
}

void SimKernel::wake_process(Process& proc) {
  if (proc.state == TaskState::kBlocked) {
    // Sleeper re-placement (before rejoining the queue): a task that slept
    // a long time resumes at the queue's fairness clock instead of
    // monopolising the CPU to catch up.
    if (proc.sched.cls == SchedClass::kTimeshare) {
      proc.sched.vruntime = std::max(proc.sched.vruntime, min_timeshare_vruntime());
    }
    proc.state = TaskState::kReady;
    proc.wake_deadline = 0;
  }
}

void SimKernel::wake(Pid pid) {
  if (Process* proc = find_process(pid)) wake_process(*proc);
}

// ---------------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------------

bool SimKernel::send_signal(Pid pid, Signal sig) {
  Process* proc = find_process(pid);
  if (proc == nullptr || !proc->alive()) return false;
  ++kstats_.signals_sent;
  if (sig == kSigKill) {
    // SIGKILL is handled at send time; it cannot be caught or deferred.
    terminate(*proc, 128 + kSigKill);
    return true;
  }
  if (sig == kSigCont) {
    resume_process(*proc);
    return true;
  }
  proc->signals.raise(sig);
  // Delivery happens at the target's next kernel->user transition — i.e.
  // the next time the scheduler runs it.  This deferral is the initiation
  // latency the survey discusses.
  if (proc->state == TaskState::kBlocked && sig != kSigNone) {
    wake_process(*proc);  // signals interrupt sleeps
  }
  return true;
}

void SimKernel::register_kernel_signal(Signal sig, KernelSignalAction action,
                                       KernelModule* module) {
  if (kernel_signals_.count(sig) != 0) {
    throw std::runtime_error(std::string("kernel signal already registered: ") +
                             signal_name(sig));
  }
  kernel_signals_[sig] = std::move(action);
  if (module != nullptr) {
    module->add_cleanup([sig](SimKernel& k) { k.unregister_kernel_signal(sig); });
  }
}

void SimKernel::unregister_kernel_signal(Signal sig) { kernel_signals_.erase(sig); }

bool SimKernel::has_kernel_signal(Signal sig) const {
  return kernel_signals_.count(sig) != 0;
}

void SimKernel::deliver_pending_signals(Process& proc) {
  int guard = 0;
  while (proc.alive() && proc.state != TaskState::kStopped) {
    const Signal sig = proc.signals.next_deliverable();
    if (sig == kSigNone) break;
    if (++guard > 64) break;  // runaway handler re-raising
    proc.signals.clear(sig);

    // Kernel-extension signals act in kernel mode, before user dispatch.
    if (auto it = kernel_signals_.find(sig); it != kernel_signals_.end()) {
      it->second(*this, proc);
      continue;
    }

    const SignalDisposition disp = proc.signals.disposition[sig];
    if (disp == SignalDisposition::kIgnore) continue;
    if (disp == SignalDisposition::kHandler) {
      ++proc.stats.signals_taken;
      charge_time(costs_.signal_delivery_ns, ChargeKind::kSignal);
      if (auto lh = proc.library_handlers.find(sig); lh != proc.library_handlers.end()) {
        lh->second(*this, proc, sig);
      } else if (proc.guest) {
        UserApi api(*this, proc);
        proc.guest->on_signal(api, sig);
      }
      continue;
    }
    switch (default_action(sig)) {
      case DefaultAction::kTerminate:
        terminate(proc, 128 + sig);
        return;
      case DefaultAction::kIgnore:
        break;
      case DefaultAction::kStop:
        proc.state = TaskState::kStopped;
        return;
      case DefaultAction::kContinue:
        resume_process(proc);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Syscall extension
// ---------------------------------------------------------------------------

void SimKernel::register_syscall(const std::string& name, SyscallHandler handler,
                                 KernelModule* module) {
  if (syscalls_.count(name) != 0) {
    throw std::runtime_error("syscall already registered: " + name);
  }
  syscalls_[name] = std::move(handler);
  if (module != nullptr) {
    module->add_cleanup([name](SimKernel& k) { k.unregister_syscall(name); });
  }
}

void SimKernel::unregister_syscall(const std::string& name) { syscalls_.erase(name); }

bool SimKernel::has_syscall(const std::string& name) const {
  return syscalls_.count(name) != 0;
}

std::int64_t SimKernel::invoke_syscall(const std::string& name, Process& caller,
                                       std::uint64_t a0, std::uint64_t a1, std::uint64_t a2) {
  auto it = syscalls_.find(name);
  if (it == syscalls_.end()) return -38;  // ENOSYS
  return it->second(*this, caller, a0, a1, a2);
}

// ---------------------------------------------------------------------------
// Kernel threads
// ---------------------------------------------------------------------------

Pid SimKernel::spawn_kernel_thread(const std::string& name, KThreadBody body,
                                   SchedParams sched) {
  Process& proc = allocate_process(name, /*kernel_thread=*/true, std::nullopt);
  proc.sched = sched;
  proc.state = TaskState::kBlocked;  // kernel threads sleep until woken
  kthread_bodies_[proc.pid] = std::move(body);
  return proc.pid;
}

// ---------------------------------------------------------------------------
// Modules
// ---------------------------------------------------------------------------

KernelModule& SimKernel::load_module(const std::string& name) {
  if (modules_.count(name) != 0) throw std::runtime_error("module already loaded: " + name);
  auto module = std::make_unique<KernelModule>(name);
  KernelModule& ref = *module;
  modules_.emplace(name, std::move(module));
  return ref;
}

void SimKernel::unload_module(const std::string& name) {
  auto it = modules_.find(name);
  if (it == modules_.end()) throw std::runtime_error("module not loaded: " + name);
  // Run cleanups in reverse registration order.
  auto& cleanups = it->second->cleanup_;
  for (auto rit = cleanups.rbegin(); rit != cleanups.rend(); ++rit) (*rit)(*this);
  modules_.erase(it);
}

bool SimKernel::module_loaded(const std::string& name) const {
  return modules_.count(name) != 0;
}

std::vector<std::string> SimKernel::loaded_modules() const {
  std::vector<std::string> out;
  for (const auto& [name, module] : modules_) out.push_back(name);
  return out;
}

// ---------------------------------------------------------------------------
// Ports
// ---------------------------------------------------------------------------

bool SimKernel::bind_port(std::uint16_t port, Pid owner) {
  auto [it, inserted] = ports_.emplace(port, owner);
  return inserted;
}

void SimKernel::release_port(std::uint16_t port) { ports_.erase(port); }

Pid SimKernel::port_owner(std::uint16_t port) const {
  auto it = ports_.find(port);
  return it == ports_.end() ? kNoPid : it->second;
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void SimKernel::add_timer(SimTime when, std::function<void(SimKernel&)> fn) {
  timers_.push_back(PendingTimer{when, timer_seq_++, std::move(fn)});
  std::sort(timers_.begin(), timers_.end());
}

void SimKernel::kill_process_at(SimTime when, Pid pid) {
  add_timer(when, [pid](SimKernel& kernel) {
    Process* proc = kernel.find_process(pid);
    if (proc == nullptr || !proc->alive()) return;
    kernel.terminate(*proc, 128 + kSigKill);
    kernel.reap(pid);
  });
}

void SimKernel::stop_process_at(SimTime when, Pid pid) {
  add_timer(when, [pid](SimKernel& kernel) {
    Process* proc = kernel.find_process(pid);
    if (proc == nullptr || !proc->alive()) return;
    kernel.stop_process(*proc);
  });
}

bool SimKernel::drop_pending_signal(Pid pid, Signal sig) {
  Process* proc = find_process(pid);
  if (proc == nullptr || !proc->signals.is_pending(sig)) return false;
  proc->signals.clear(sig);
  return true;
}

void SimKernel::fire_timers() {
  while (!timers_.empty() && timers_.front().when <= clock_) {
    auto timer = std::move(timers_.front());
    timers_.erase(timers_.begin());
    timer.fn(*this);
  }
  for (auto& [pid, proc] : tasks_) {
    if (proc->alive()) handle_process_timers(*proc);
  }
}

void SimKernel::handle_process_timers(Process& proc) {
  if (proc.alarm_deadline != 0 && clock_ >= proc.alarm_deadline) {
    if (proc.itimer_interval != 0) {
      proc.alarm_deadline = clock_ + proc.itimer_interval;
    } else {
      proc.alarm_deadline = 0;
    }
    send_signal(proc.pid, kSigAlrm);
  }
  if (proc.state == TaskState::kBlocked && proc.wake_deadline != 0 &&
      clock_ >= proc.wake_deadline) {
    wake_process(proc);
  }
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

Process* SimKernel::pick_next(std::set<Pid>& already_running) {
  Process* best_fifo = nullptr;
  Process* best_ts = nullptr;
  for (auto& [pid, proc] : tasks_) {
    if (!proc->alive() || !proc->runnable()) continue;
    if (already_running.count(pid) != 0) continue;
    if (proc->sched.cls == SchedClass::kFifo) {
      if (best_fifo == nullptr || proc->sched.rt_priority > best_fifo->sched.rt_priority) {
        best_fifo = proc.get();
      }
    } else {
      if (best_ts == nullptr || proc->sched.vruntime < best_ts->sched.vruntime) {
        best_ts = proc.get();
      }
    }
  }
  // SCHED_FIFO strictly preempts the timeshare class — the property the
  // survey relies on for prompt kernel-thread checkpointing.
  return best_fifo != nullptr ? best_fifo : best_ts;
}

bool SimKernel::run_round() {
  fire_timers();
  ++kstats_.rounds;

  std::set<Pid> chosen;
  std::vector<Pid> to_run;
  for (int cpu = 0; cpu < ncpus_; ++cpu) {
    Process* next = pick_next(chosen);
    if (next == nullptr) break;
    chosen.insert(next->pid);
    to_run.push_back(next->pid);
  }

  if (to_run.empty()) {
    // Idle: skip to the next timer event (or one quantum if none).
    SimTime next_event = clock_ + quantum_;
    if (!timers_.empty()) next_event = std::min(next_event, timers_.front().when);
    for (auto& [pid, proc] : tasks_) {
      if (proc->alive() && proc->state == TaskState::kBlocked && proc->wake_deadline != 0) {
        next_event = std::min(next_event, proc->wake_deadline);
      }
      if (proc->alive() && proc->alarm_deadline != 0) {
        next_event = std::min(next_event, proc->alarm_deadline);
      }
    }
    clock_ = std::max(next_event, clock_ + 1);
    return false;
  }

  SimTime longest = 0;
  for (std::size_t i = 0; i < to_run.size(); ++i) {
    Process* proc = find_process(to_run[i]);
    if (proc == nullptr || !proc->alive() || !proc->runnable()) continue;
    longest = std::max(longest, step_task(*proc, static_cast<int>(i)));
  }
  clock_ += std::max(quantum_, longest);
  return true;
}

SimTime SimKernel::step_task(Process& proc, int cpu) {
  current_ = &proc;
  current_cpu_ = cpu;
  step_consumed_ = 0;

  if (cpu_last_task_[cpu] != proc.pid) {
    cpu_last_task_[cpu] = proc.pid;
    ++kstats_.context_switches;
    charge_time(costs_.context_switch_ns, ChargeKind::kCompute);
  }
  if (!proc.is_kernel_thread) {
    // Running a user task installs its page tables on this CPU.
    if (cpu_active_aspace_[cpu] != proc.pid) {
      cpu_active_aspace_[cpu] = proc.pid;
      ++kstats_.aspace_switches;
    }
  }

  try {
    // Kernel->user transition: pending signals are acted on now.
    deliver_pending_signals(proc);
    if (proc.alive() && proc.runnable()) {
      proc.state = TaskState::kRunning;
      if (proc.is_kernel_thread) {
        auto it = kthread_bodies_.find(proc.pid);
        if (it == kthread_bodies_.end()) {
          terminate(proc, 0);
        } else {
          switch (it->second(*this)) {
            case KStepResult::kContinue:
              break;
            case KStepResult::kSleep:
              proc.state = TaskState::kBlocked;
              break;
            case KStepResult::kExit:
              terminate(proc, 0);
              break;
          }
        }
      } else {
        UserApi api(*this, proc);
        if (!proc.started) {
          proc.guest->on_start(api);
          proc.started = true;
        } else {
          switch (proc.guest->on_step(api)) {
            case GuestStatus::kRunning:
              break;
            case GuestStatus::kBlocked:
              if (proc.state == TaskState::kRunning) proc.state = TaskState::kBlocked;
              break;
            case GuestStatus::kExited:
              terminate(proc, 0);
              break;
          }
        }
      }
    }
  } catch (const TaskTerminated&) {
    // Task died mid-step; fall through to bookkeeping.
  }

  if (proc.state == TaskState::kRunning) proc.state = TaskState::kReady;
  if (proc.sched.cls == SchedClass::kTimeshare) {
    proc.sched.vruntime += std::max<SimTime>(step_consumed_, quantum_);
  }
  const SimTime consumed = step_consumed_;
  current_ = nullptr;
  step_consumed_ = 0;
  return consumed;
}

void SimKernel::run_until(SimTime deadline) {
  while (clock_ < deadline) {
    bool any_alive = false;
    for (auto& [pid, proc] : tasks_) {
      if (proc->alive()) {
        any_alive = true;
        break;
      }
    }
    if (!any_alive && timers_.empty()) break;
    run_round();
  }
}

bool SimKernel::run_while(const std::function<bool()>& keep_going, SimTime deadline) {
  while (keep_going()) {
    if (deadline != 0 && clock_ >= deadline) return false;
    bool any_alive = false;
    for (auto& [pid, proc] : tasks_) {
      if (proc->alive()) {
        any_alive = true;
        break;
      }
    }
    if (!any_alive && timers_.empty()) return false;
    run_round();
  }
  return true;
}

void SimKernel::idle_until(SimTime t) {
  if (t > clock_) clock_ = t;
  fire_timers();
}

// ---------------------------------------------------------------------------
// Kernel-mode memory access & charging
// ---------------------------------------------------------------------------

void SimKernel::charge_time(SimTime t, ChargeKind kind) {
  if (current_ == nullptr) {
    clock_ += t;
    return;
  }
  step_consumed_ += t;
  current_->stats.cpu_time += t;
  switch (kind) {
    case ChargeKind::kCompute:
      break;
    case ChargeKind::kSyscall:
      current_->stats.syscall_time += t;
      break;
    case ChargeKind::kFault:
      current_->stats.fault_time += t;
      break;
    case ChargeKind::kSignal:
      current_->stats.signal_time += t;
      break;
  }
}

void SimKernel::charge_kernel_field_reads(std::uint64_t fields) {
  charge_time(fields * costs_.kernel_field_access_ns, ChargeKind::kCompute);
}

void SimKernel::enter_user_aspace(const Process& target) {
  // Address-space accounting: kernel code uses the page tables of whatever
  // task it interrupted.  Touching a different user address space requires
  // a switch (TLB invalidation) — unless the executing context *is* the
  // target (syscall / kernel-signal engines) or the right tables happen to
  // be live on this CPU.
  const Pid needed = target.pid;
  if (current_ != nullptr && !current_->is_kernel_thread && current_->pid == needed) {
    return;  // executing behind the checkpointed process itself: no switch
  }
  if (cpu_active_aspace_[current_cpu_] != needed) {
    cpu_active_aspace_[current_cpu_] = needed;
    ++kstats_.aspace_switches;
    ++kstats_.kernel_access_switches;
    charge_time(costs_.addr_space_switch_ns, ChargeKind::kCompute);
  }
}

void SimKernel::kernel_copy_to_user(Process& target, PageNum page,
                                    std::span<const std::byte> in) {
  enter_user_aspace(target);
  PageTableEntry* entry = target.aspace->pte(page);
  if (entry == nullptr || !entry->present) {
    throw std::runtime_error("kernel_copy_to_user: page not mapped");
  }
  if (entry->cow) target.aspace->break_cow(page);
  auto data = target.aspace->page_data(page);
  const std::size_t n = std::min(in.size(), data.size());
  std::memcpy(data.data(), in.data(), n);
  charge_time(costs_.mem_copy_cost(n), ChargeKind::kCompute);
}

void SimKernel::kernel_read_user_range(Process& target, VAddr addr,
                                       std::span<std::byte> out) {
  const PageNum page = page_of(addr);
  if (page_offset(addr) + out.size() > kPageSize) {
    throw std::invalid_argument("kernel_read_user_range: crosses page boundary");
  }
  enter_user_aspace(target);
  auto data = target.aspace->page_data(page);
  std::memcpy(out.data(), data.data() + page_offset(addr), out.size());
  charge_time(costs_.mem_copy_cost(out.size()), ChargeKind::kCompute);
}

void SimKernel::kernel_write_user_range(Process& target, VAddr addr,
                                        std::span<const std::byte> in) {
  const PageNum page = page_of(addr);
  if (page_offset(addr) + in.size() > kPageSize) {
    throw std::invalid_argument("kernel_write_user_range: crosses page boundary");
  }
  enter_user_aspace(target);
  PageTableEntry* entry = target.aspace->pte(page);
  if (entry == nullptr || !entry->present) {
    throw std::runtime_error("kernel_write_user_range: page not mapped");
  }
  if (entry->cow) target.aspace->break_cow(page);
  auto data = target.aspace->page_data(page);
  std::memcpy(data.data() + page_offset(addr), in.data(), in.size());
  charge_time(costs_.mem_copy_cost(in.size()), ChargeKind::kCompute);
}

// ---------------------------------------------------------------------------
// User-mode memory access with fault semantics
// ---------------------------------------------------------------------------

bool SimKernel::handle_store_fault(Process& proc, PageNum page, AccessResult result) {
  ++proc.stats.page_faults;
  if (result == AccessResult::kNotMapped) {
    proc.fault_addr = page_base(page);
    // Genuine segmentation violation.
    if (proc.signals.disposition[kSigSegv] == SignalDisposition::kHandler) {
      charge_time(costs_.signal_delivery_ns, ChargeKind::kSignal);
      ++proc.stats.signals_taken;
      if (auto lh = proc.library_handlers.find(kSigSegv); lh != proc.library_handlers.end()) {
        lh->second(*this, proc, kSigSegv);
      } else if (proc.guest) {
        UserApi api(*this, proc);
        proc.guest->on_signal(api, kSigSegv);
      }
      // Handler must have mapped the page for the retry to succeed.
      return proc.aspace->check_access(page, kProtWrite) == AccessResult::kOk;
    }
    terminate(proc, 128 + kSigSegv);
    return false;
  }

  // Protection fault.
  PageTableEntry* entry = proc.aspace->pte(page);
  assert(entry != nullptr);
  if (entry->cow) {
    // Copy-on-write: duplicate the frame in kernel mode and retry.
    ++proc.stats.cow_faults;
    charge_time(costs_.cow_fault_extra_ns + costs_.mem_copy_cost(kPageSize),
                ChargeKind::kFault);
    proc.aspace->break_cow(page);
    return true;
  }
  if (proc.wp_hook) {
    // Kernel-level dirty tracking: the page-fault handler records the page
    // and restores write access without ever leaving kernel mode.
    charge_time(costs_.page_fault_kernel_ns, ChargeKind::kFault);
    if (proc.wp_hook(*this, proc, page)) return true;
  }
  if (proc.signals.disposition[kSigSegv] == SignalDisposition::kHandler) {
    // User-level dirty tracking: deliver SIGSEGV to the (library) handler,
    // which will mprotect() the page writable and let the store retry.
    proc.fault_addr = page_base(page);
    charge_time(costs_.signal_delivery_ns, ChargeKind::kSignal);
    ++proc.stats.signals_taken;
    if (auto lh = proc.library_handlers.find(kSigSegv); lh != proc.library_handlers.end()) {
      lh->second(*this, proc, kSigSegv);
    } else if (proc.guest) {
      UserApi api(*this, proc);
      proc.guest->on_signal(api, kSigSegv);
    }
    return proc.aspace->check_access(page, kProtWrite) == AccessResult::kOk;
  }
  terminate(proc, 128 + kSigSegv);
  return false;
}

bool SimKernel::user_store(Process& proc, VAddr addr, std::span<const std::byte> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const VAddr cur = addr + done;
    const PageNum page = page_of(cur);
    const std::size_t in_page =
        std::min<std::size_t>(data.size() - done, kPageSize - page_offset(cur));

    int attempts = 0;
    while (proc.aspace->check_access(page, kProtWrite) != AccessResult::kOk) {
      if (++attempts > 3) return false;
      if (!handle_store_fault(proc, page, proc.aspace->check_access(page, kProtWrite))) {
        return false;
      }
      if (!proc.alive()) return false;
    }
    // Hardware snoop fires before the store commits so undo-logging models
    // (ReVive) capture the genuine pre-image.
    if (proc.write_observer) proc.write_observer(cur, in_page);
    PageTableEntry* entry = proc.aspace->pte(page);
    auto dest = proc.aspace->page_data(page);
    std::memcpy(dest.data() + page_offset(cur), data.data() + done, in_page);
    entry->dirty = true;
    entry->accessed = true;
    charge_time(costs_.mem_copy_cost(in_page), ChargeKind::kCompute);
    done += in_page;
  }
  return true;
}

bool SimKernel::user_load(Process& proc, VAddr addr, std::span<std::byte> out) {
  std::size_t done = 0;
  while (done < out.size()) {
    const VAddr cur = addr + done;
    const PageNum page = page_of(cur);
    const std::size_t in_page =
        std::min<std::size_t>(out.size() - done, kPageSize - page_offset(cur));
    if (proc.aspace->check_access(page, kProtRead) == AccessResult::kNotMapped) {
      proc.fault_addr = cur;
      ++proc.stats.page_faults;
      terminate(proc, 128 + kSigSegv);
      return false;
    }
    PageTableEntry* entry = proc.aspace->pte(page);
    auto src = proc.aspace->page_data(page);
    std::memcpy(out.data() + done, src.data() + page_offset(cur), in_page);
    entry->accessed = true;
    charge_time(costs_.mem_copy_cost(in_page), ChargeKind::kCompute);
    done += in_page;
  }
  return true;
}

}  // namespace ckpt::sim
