// SimKernel: the simulated operating system.
//
// A deterministic, discrete-quantum model of a small SMP Unix machine:
// processes with real page-backed address spaces, fork with copy-on-write,
// Unix signal semantics with kernel->user delivery points, a two-class
// scheduler (dynamic-priority timesharing + SCHED_FIFO), kernel threads,
// timers, a VFS with devices and /proc entries, and an extension interface
// (new syscalls, new kernel signals, loadable modules) sufficient to host
// every checkpoint/restart mechanism in the survey's taxonomy.
//
// Time model: SimKernel::run_round() picks up to `ncpus` runnable tasks and
// steps each for one quantum; the global clock advances by the longest time
// any of them consumed (they execute "in parallel").  All costs (syscall
// crossings, page faults, memory copies, storage I/O) are charged through
// the CostModel, so efficiency comparisons between checkpointing strategies
// are structural and exactly reproducible.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/costs.hpp"
#include "sim/file.hpp"
#include "sim/guest.hpp"
#include "sim/memory.hpp"
#include "sim/process.hpp"
#include "sim/signal.hpp"
#include "sim/types.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace ckpt::obs {
class Observer;
}

namespace ckpt::sim {

class UserApi;

/// Result of one kernel-thread body invocation.
enum class KStepResult : std::uint8_t { kContinue, kSleep, kExit };

using KThreadBody = std::function<KStepResult(SimKernel&)>;

/// A mechanism-registered system call: (kernel, calling process, args).
using SyscallHandler =
    std::function<std::int64_t(SimKernel&, Process&, std::uint64_t, std::uint64_t, std::uint64_t)>;

/// A mechanism-registered kernel-mode signal action, executed at the
/// target's next kernel->user transition, *in kernel mode*, before any
/// user-level handler dispatch.
using KernelSignalAction = std::function<void(SimKernel&, Process&)>;

/// What kind of stat bucket a charge belongs to.
enum class ChargeKind : std::uint8_t { kCompute, kSyscall, kFault, kSignal };

/// A loadable kernel module: registrations it made are undone at unload —
/// the portability/modularity property Table 1's last column records.
class KernelModule {
 public:
  explicit KernelModule(std::string name) : name_(std::move(name)) {}
  const std::string& name() const { return name_; }
  void add_cleanup(std::function<void(SimKernel&)> fn) { cleanup_.push_back(std::move(fn)); }

 private:
  friend class SimKernel;
  std::string name_;
  std::vector<std::function<void(SimKernel&)>> cleanup_;
};

/// Options controlling process creation.  The standard layout's text, data
/// and stack segments are fixed (4, 8 and 4 pages); the heap is sized here.
struct SpawnOptions {
  std::uint64_t heap_pages = 16;
  int thread_count = 1;
};

struct KernelStats {
  std::uint64_t context_switches = 0;
  std::uint64_t aspace_switches = 0;
  /// Of which: switches forced by kernel code touching a user address space
  /// other than the live one (the kernel-thread TLB cost of §4.1) — as
  /// opposed to ordinary scheduler-driven switches.
  std::uint64_t kernel_access_switches = 0;
  std::uint64_t rounds = 0;
  std::uint64_t signals_sent = 0;
  std::uint64_t forks = 0;
};

class SimKernel {
 public:
  explicit SimKernel(int ncpus = 1, CostModel costs = {}, std::uint64_t seed = 42);
  ~SimKernel();

  SimKernel(const SimKernel&) = delete;
  SimKernel& operator=(const SimKernel&) = delete;

  // --- Time & execution ----------------------------------------------------
  [[nodiscard]] SimTime now() const { return clock_; }
  [[nodiscard]] int ncpus() const { return ncpus_; }
  [[nodiscard]] const CostModel& costs() const { return costs_; }
  [[nodiscard]] util::Rng& rng() { return rng_; }

  /// Scheduling quantum (time-slice) length.
  [[nodiscard]] SimTime quantum() const { return quantum_; }

  /// Run one scheduling round (up to ncpus tasks step once).  Returns false
  /// if nothing was runnable (clock still advances to the next timer).
  bool run_round();

  /// Run rounds until `deadline` or until no task is alive.
  void run_until(SimTime deadline);

  /// Run rounds until predicate() is true, up to `deadline` (0 = no limit).
  /// Returns true if the predicate fired.
  bool run_while(const std::function<bool()>& keep_going, SimTime deadline = 0);

  /// Advance the clock without running tasks (idle wait).
  void idle_until(SimTime t);

  // --- Processes -------------------------------------------------------------
  /// Create a user process running a registered guest program.
  Pid spawn(const std::string& guest_type, std::vector<std::byte> guest_config = {},
            const SpawnOptions& options = {});

  /// Create a process shell with no guest (restart engines fill it in).
  /// The process starts Stopped; callers resume it when state is restored.
  Pid create_restored_process(const std::string& name, const GuestImage& image,
                              std::optional<Pid> desired_pid);

  /// Kernel-initiated fork (used by the forked-checkpoint technique).  The
  /// child shares all pages copy-on-write and starts Stopped when
  /// `freeze_child`; it never runs guest code in that mode.
  Pid fork_process(Process& parent, bool freeze_child);

  /// fork(2) as invoked by a guest: child is runnable, gets a fresh guest
  /// instance of the same type, and gpr[7] == 1 marks "I am the child".
  Pid sys_fork(Process& parent);

  void terminate(Process& proc, int exit_code);
  /// Reap a zombie (kernel-side waitpid); frees the task slot.
  void reap(Pid pid);

  [[nodiscard]] Process* find_process(Pid pid);
  [[nodiscard]] const Process* find_process(Pid pid) const;
  /// Throwing variant of find_process.
  Process& process(Pid pid);

  [[nodiscard]] std::vector<Pid> live_pids() const;
  [[nodiscard]] bool pid_in_use(Pid pid) const { return find_process(pid) != nullptr; }

  // --- Scheduling control ----------------------------------------------------
  /// Remove from the runqueue (the consistency mechanism the survey
  /// describes: "like removing the application from its runqueue list").
  void stop_process(Process& proc);
  void resume_process(Process& proc);
  void block_process(Process& proc, SimTime wake_at = 0);
  void wake_process(Process& proc);

  // --- Signals ----------------------------------------------------------------
  /// Send a signal (kill(2) path when called from a syscall; kernel paths
  /// may call it directly, which models "directly updating the data
  /// structure of the process").
  bool send_signal(Pid pid, Signal sig);

  /// Register a new kernel-mode default action for `sig` (EPCKPT / CHPOX /
  /// Software Suspend pattern).  Module may be null for static extensions.
  void register_kernel_signal(Signal sig, KernelSignalAction action, KernelModule* module);
  void unregister_kernel_signal(Signal sig);
  [[nodiscard]] bool has_kernel_signal(Signal sig) const;

  // --- Syscall extension ---------------------------------------------------
  void register_syscall(const std::string& name, SyscallHandler handler,
                        KernelModule* module);
  void unregister_syscall(const std::string& name);
  [[nodiscard]] bool has_syscall(const std::string& name) const;
  /// Dispatch from UserApi::sys_custom.
  std::int64_t invoke_syscall(const std::string& name, Process& caller, std::uint64_t a0,
                              std::uint64_t a1, std::uint64_t a2);

  // --- Kernel threads ---------------------------------------------------------
  Pid spawn_kernel_thread(const std::string& name, KThreadBody body,
                          SchedParams sched = {SchedClass::kFifo, 50, 0, 0});
  /// Wake a sleeping kernel thread (or blocked process).
  void wake(Pid pid);

  // --- Modules -----------------------------------------------------------------
  KernelModule& load_module(const std::string& name);
  void unload_module(const std::string& name);
  [[nodiscard]] bool module_loaded(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> loaded_modules() const;

  // --- VFS ---------------------------------------------------------------------
  [[nodiscard]] SimFileSystem& vfs() { return vfs_; }
  [[nodiscard]] PhysicalMemory& physical_memory() { return physmem_; }

  // --- Sockets / ports -----------------------------------------------------------
  /// Bind a port in the machine namespace; fails if taken (restart conflict).
  bool bind_port(std::uint16_t port, Pid owner);
  void release_port(std::uint16_t port);
  [[nodiscard]] Pid port_owner(std::uint16_t port) const;

  // --- Timers -----------------------------------------------------------------
  /// One-shot kernel timer; fires between rounds.
  void add_timer(SimTime when, std::function<void(SimKernel&)> fn);

  // --- Fault-injection hooks (src/inject) --------------------------------------
  /// Fail-stop a process at simulated time `when`: it is terminated with
  /// SIGKILL semantics and reaped between rounds.  No-op if the pid is gone
  /// (or already dead) by then — the crash raced with a natural exit.
  void kill_process_at(SimTime when, Pid pid);

  /// Stop (freeze) a process at simulated time `when`; no-op if gone.
  void stop_process_at(SimTime when, Pid pid);

  /// Drop a pending, not-yet-delivered signal — a lost checkpoint request.
  /// Returns true if the signal was actually pending (and is now gone).
  bool drop_pending_signal(Pid pid, Signal sig);

  // --- Kernel-mode state access (system-level checkpointing) ------------------
  /// Charge the cost of directly reading N fields from a task structure.
  void charge_kernel_field_reads(std::uint64_t fields);

  /// Copy a user page from kernel context, charging memory-copy cost and —
  /// when the executing context's active address space differs from the
  /// target's — an address-space switch (TLB invalidation).  This is the
  /// mechanism behind the survey's kernel-thread TLB discussion.
  void kernel_copy_to_user(Process& target, PageNum page, std::span<const std::byte> in);

  /// Arbitrary-range variants (block / cache-line granularity payloads).
  /// The range must lie within one mapped page.
  void kernel_read_user_range(Process& target, VAddr addr, std::span<std::byte> out);
  void kernel_write_user_range(Process& target, VAddr addr, std::span<const std::byte> in);

  /// Charge storage/network time to the currently executing context.
  void charge_time(SimTime t, ChargeKind kind = ChargeKind::kCompute);

  /// Time charged so far within the current step (0 outside steps).  The
  /// clock is frozen during a step, so in-step durations are measured as
  /// deltas of this counter.
  [[nodiscard]] SimTime step_charge() const { return step_consumed_; }

  /// Effective time as a trace timestamp: the frozen round clock plus time
  /// charged so far inside the current step.  Equals now() between steps.
  [[nodiscard]] SimTime effective_now() const { return clock_ + step_consumed_; }

  // --- Observability (src/obs) ------------------------------------------------
  /// Attach (or detach with nullptr) an observability sink.  Attaching wires
  /// the sink's trace clock to this kernel's effective time; all layers
  /// running on this kernel pick the observer up from here.
  void set_observer(obs::Observer* observer);
  [[nodiscard]] obs::Observer* observer() const { return observer_; }

  /// The task currently executing (the `current` macro).  Null between
  /// steps; syscall handlers see the caller.
  [[nodiscard]] Process* current() { return current_; }

  /// User-mode store/load with full fault semantics (COW, write-protect
  /// hooks, SIGSEGV).  Returns false if the access ultimately faulted
  /// fatally (signal delivered / process killed).
  bool user_store(Process& proc, VAddr addr, std::span<const std::byte> data);
  bool user_load(Process& proc, VAddr addr, std::span<std::byte> out);

  [[nodiscard]] const KernelStats& stats() const { return kstats_; }

  /// Machine identity (set by the cluster layer).
  std::string hostname = "node0";

  /// Deliver all pending deliverable signals for `proc` right now (the
  /// kernel->user transition point).  Exposed for the scheduler and tests.
  void deliver_pending_signals(Process& proc);

 private:
  friend class UserApi;

  struct PendingTimer {
    SimTime when;
    std::uint64_t seq;
    std::function<void(SimKernel&)> fn;
    bool operator<(const PendingTimer& other) const {
      return when != other.when ? when < other.when : seq < other.seq;
    }
  };

  Process& allocate_process(std::string name, bool kernel_thread, std::optional<Pid> desired);
  /// Minimum fairness clock across live timeshare tasks (0 if none).
  [[nodiscard]] SimTime min_timeshare_vruntime() const;
  void build_standard_layout(Process& proc, const SpawnOptions& options);
  /// Make `target`'s address space live on the current CPU for a kernel
  /// access, charging a switch when it was not.
  void enter_user_aspace(const Process& target);
  Process* pick_next(std::set<Pid>& already_running);
  SimTime step_task(Process& proc, int cpu);
  void fire_timers();
  void handle_process_timers(Process& proc);
  /// Page-fault entry for a store to `page`.  Returns true if the access
  /// should be retried (fault handled), false if fatal.
  bool handle_store_fault(Process& proc, PageNum page, AccessResult result);

  int ncpus_;
  CostModel costs_;
  util::Rng rng_;
  SimTime clock_ = 0;
  SimTime quantum_ = 100 * kMicrosecond;

  PhysicalMemory physmem_;
  SimFileSystem vfs_;

  std::map<Pid, std::unique_ptr<Process>> tasks_;
  Pid next_pid_ = 2;  // pid 1 is the notional init

  std::map<std::string, SyscallHandler> syscalls_;
  std::map<int, KernelSignalAction> kernel_signals_;
  std::map<std::string, std::unique_ptr<KernelModule>> modules_;
  std::map<Pid, KThreadBody> kthread_bodies_;
  std::map<std::uint16_t, Pid> ports_;

  std::vector<PendingTimer> timers_;
  std::uint64_t timer_seq_ = 0;

  obs::Observer* observer_ = nullptr;

  // Execution context while stepping.
  Process* current_ = nullptr;
  int current_cpu_ = 0;
  SimTime step_consumed_ = 0;
  std::vector<Pid> cpu_active_aspace_;  ///< per-CPU: whose page tables are live
  std::vector<Pid> cpu_last_task_;      ///< per-CPU: last task that ran (ctx switches)

  KernelStats kstats_;
};

}  // namespace ckpt::sim
