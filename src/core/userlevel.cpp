#include "core/userlevel.hpp"

#include <stdexcept>

#include "sim/userapi.hpp"
#include "util/log.hpp"

namespace ckpt::core {
namespace {

/// Signal used for on-demand initiation (signal-handler/preload modes).
constexpr sim::Signal kTriggerSignal = sim::kSigUsr1;

}  // namespace

UserLevelEngine::UserLevelEngine(std::string name, storage::StorageBackend* backend,
                                 EngineOptions options, UserConfig config)
    : CheckpointEngine(std::move(name), backend, std::move(options)), config_(config) {
  if (options_.streaming) {
    throw std::invalid_argument(
        "UserLevelEngine: streaming is not supported (the image is captured in the "
        "process, not from a frozen COW shadow)");
  }
}

TaxonomyPath UserLevelEngine::taxonomy() const {
  switch (config_.mode) {
    case Mode::kSourceCode:
      return {Context::kUserLevel, Agent::kApplicationSource, Technique::kLibraryCall,
              KThreadInterface::kNone};
    case Mode::kPrecompiler:
      return {Context::kUserLevel, Agent::kPrecompiler, Technique::kLibraryCall,
              KThreadInterface::kNone};
    case Mode::kSignalHandler:
      return {Context::kUserLevel, Agent::kSignalHandlerLib,
              Technique::kUserSignalHandler, KThreadInterface::kNone};
    case Mode::kPreload:
      return {Context::kUserLevel, Agent::kPreloadLib, Technique::kUserSignalHandler,
              KThreadInterface::kNone};
  }
  return {Context::kUserLevel, Agent::kSignalHandlerLib, Technique::kUserSignalHandler,
          KThreadInterface::kNone};
}

bool UserLevelEngine::attach(sim::SimKernel& kernel, sim::Pid pid) {
  sim::Process* proc = kernel.find_process(pid);
  if (proc == nullptr || !proc->alive()) return false;

  auto runtime = std::make_unique<UserLevelRuntime>();
  runtime->install(kernel, *proc, config_.mode == Mode::kPreload);

  // The library's entry points, linked into the process image.
  proc->library_calls["ckpt_now"] = [this](sim::SimKernel& k, sim::Process& p,
                                           std::uint64_t) -> std::int64_t {
    perform_user_checkpoint(k, p, k.now(), /*ticket=*/0);
    return 0;
  };

  if (config_.mode == Mode::kSignalHandler || config_.mode == Mode::kPreload) {
    proc->signals.disposition[kTriggerSignal] = sim::SignalDisposition::kHandler;
    proc->library_handlers[kTriggerSignal] = [this](sim::SimKernel& k, sim::Process& p,
                                                    sim::Signal) {
      SimTime initiated_at = k.now();
      std::uint64_t ticket = 0;
      auto it = pending_.find(p.pid);
      if (it != pending_.end() && !it->second.empty()) {
        initiated_at = it->second.front().initiated_at;
        ticket = it->second.front().ticket;
        it->second.pop_front();
      }
      perform_user_checkpoint(k, p, initiated_at, ticket);
    };
    if (config_.periodic_interval != 0) {
      // Automatic initiation: the library arms a periodic SIGALRM.
      proc->signals.disposition[sim::kSigAlrm] = sim::SignalDisposition::kHandler;
      proc->library_handlers[sim::kSigAlrm] = [this](sim::SimKernel& k, sim::Process& p,
                                                     sim::Signal) {
        perform_user_checkpoint(k, p, k.now(), /*ticket=*/0);
      };
      sim::UserApi api(kernel, *proc);
      api.sys_setitimer(config_.periodic_interval);
    }
  }

  runtimes_[pid] = std::move(runtime);
  return CheckpointEngine::attach(kernel, pid);
}

void UserLevelEngine::detach(sim::SimKernel& kernel, sim::Pid pid) {
  auto it = runtimes_.find(pid);
  if (it != runtimes_.end()) {
    if (sim::Process* proc = kernel.find_process(pid)) {
      it->second->uninstall(*proc);
      proc->library_calls.erase("ckpt_now");
      proc->library_handlers.erase(kTriggerSignal);
      proc->library_handlers.erase(sim::kSigAlrm);
    }
    runtimes_.erase(it);
  }
  CheckpointEngine::detach(kernel, pid);
}

std::uint64_t UserLevelEngine::request_checkpoint_async(sim::SimKernel& kernel,
                                                        sim::Pid pid) {
  if (!supports_external_initiation()) return 0;
  if (runtimes_.count(pid) == 0) return 0;  // library not linked: signal would kill
  sim::Process* target = kernel.find_process(pid);
  if (target == nullptr || !target->alive()) return 0;
  const std::uint64_t ticket = new_ticket();
  record_pending(ticket);
  pending_[pid].push_back(PendingRequest{ticket, kernel.now()});
  kernel.send_signal(pid, kTriggerSignal);
  return ticket;
}

void UserLevelEngine::perform_user_checkpoint(sim::SimKernel& kernel, sim::Process& proc,
                                              SimTime initiated_at, std::uint64_t ticket) {
  CheckpointResult result;
  result.initiated_at = initiated_at;
  result.started_at = kernel.now();
  const SimTime charge_before = kernel.step_charge();

  // §3: signal handlers may not call non-reentrant functions.  If the
  // checkpoint signal interrupted malloc/free, the handler's own heap use
  // deadlocks the process.
  if (proc.in_nonreentrant_call) {
    ++deadlocks_;
    kernel.block_process(proc);  // hung on the heap lock, forever
    result.error = name_ + ": handler fired inside non-reentrant libc call; deadlock";
    result.completed_at = kernel.now();
    if (ticket != 0) {
      complete_ticket(ticket, std::move(result));
    } else {
      record_result(std::move(result));
    }
    return;
  }

  auto rit = runtimes_.find(proc.pid);
  if (rit == runtimes_.end()) {
    result.error = name_ + ": checkpoint library not linked into process";
    if (ticket != 0) complete_ticket(ticket, std::move(result));
    return;
  }

  ProcState& state = state_for(proc.pid);
  const CapturePlan next = plan_capture(kernel, proc, state);
  sim::UserApi api(kernel, proc);
  storage::CheckpointImage image = rit->second->capture(api, next.options);
  image.kind = next.kind;

  result.kind = image.kind;
  result.payload_bytes = image.payload_bytes();
  result.pages = image.page_count();

  // Writing the image out happens through 64 KiB write() syscalls in the
  // process context: crossings plus storage cost land on the application.
  const std::uint64_t write_chunks = result.payload_bytes / (64 * 1024) + 1;
  proc.stats.syscalls += write_chunks;
  kernel.charge_time(write_chunks * kernel.costs().syscall_crossing_ns,
                     sim::ChargeKind::kSyscall);
  const CommitPoint committed =
      store_step(kernel, state, proc.pid, &proc, std::move(image), {}, result, {});
  result.completed_at = committed.clock + (committed.step_charge - charge_before);
  if (ticket != 0) {
    complete_ticket(ticket, std::move(result));
  } else {
    record_result(std::move(result));
  }
}

}  // namespace ckpt::core
