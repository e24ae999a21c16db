// User-level checkpoint engines — survey §3.
//
// All four user-level agents of Figure 1 are configurations of one engine:
//
//   * kSourceCode   — the application calls the library's ckpt_now() at
//                     points programmed into its source (libckpt, libckp).
//   * kPrecompiler  — identical at run time, but the calls were inserted
//                     by a pre-compiler (CCIFT-style).
//   * kSignalHandler— the library installs SIGALRM/SIGUSR1 handlers; a
//                     timer (automatic) or kill(1) (user) initiates
//                     (libckpt, Esky, Condor).
//   * kPreload      — same handlers, but the library was injected via
//                     LD_PRELOAD: no recompile/relink, at the price of a
//                     per-syscall interposition tax from process start.
//
// Capture uses UserLevelRuntime: state is extracted through syscalls and
// shadow tables, which is precisely the inefficiency + incompleteness the
// survey attributes to user-level schemes.  The engine also models the
// §3 reentrancy hazard: if the checkpoint signal lands while the guest is
// inside a non-reentrant C-library call, the process deadlocks.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>

#include "core/capture.hpp"
#include "core/engine.hpp"

namespace ckpt::core {

class UserLevelEngine final : public CheckpointEngine {
 public:
  enum class Mode : std::uint8_t {
    kSourceCode,
    kPrecompiler,
    kSignalHandler,
    kPreload,
  };

  /// On-demand initiation (signal-handler/preload modes) sends SIGUSR1, and
  /// a handler that fires inside malloc/free deadlocks the process (the
  /// non-reentrant-libc hazard).
  struct UserConfig {
    Mode mode = Mode::kSignalHandler;
    /// Non-zero: install a periodic SIGALRM checkpoint timer at attach.
    SimTime periodic_interval = 0;
  };

  UserLevelEngine(std::string name, storage::StorageBackend* backend,
                  EngineOptions options, UserConfig config);

  [[nodiscard]] TaxonomyPath taxonomy() const override;

  /// "Linking" the checkpoint library into the process: installs the
  /// UserLevelRuntime (shadow tables, interposer for preload mode),
  /// registers ckpt_now() and the signal handlers.  Required for every
  /// mode — the defining transparency failure of user-level schemes.
  bool attach(sim::SimKernel& kernel, sim::Pid pid) override;
  void detach(sim::SimKernel& kernel, sim::Pid pid) override;

  [[nodiscard]] bool supports_external_initiation() const override {
    return config_.mode == Mode::kSignalHandler || config_.mode == Mode::kPreload;
  }
  std::uint64_t request_checkpoint_async(sim::SimKernel& kernel, sim::Pid pid) override;

  /// Count of checkpoints that deadlocked on the reentrancy hazard.
  [[nodiscard]] std::uint64_t deadlocks() const { return deadlocks_; }

 private:
  /// The body of ckpt_now() / the signal handler: runs in the process's
  /// own user context.
  void perform_user_checkpoint(sim::SimKernel& kernel, sim::Process& proc,
                               SimTime initiated_at, std::uint64_t ticket);

  UserConfig config_;
  std::map<sim::Pid, std::unique_ptr<UserLevelRuntime>> runtimes_;
  struct PendingRequest {
    std::uint64_t ticket;
    SimTime initiated_at;
  };
  std::map<sim::Pid, std::deque<PendingRequest>> pending_;
  std::uint64_t deadlocks_ = 0;
};

}  // namespace ckpt::core
