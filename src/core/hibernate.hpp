// Software-Suspend-style whole-machine hibernation.
//
// A new kernel signal (SIGFREEZE) is delivered to every process; its
// kernel-mode default action freezes the task.  Once everything is frozen
// the RAM image (all process state) is written to the swap partition on
// the local disk and the machine powers down; at the next boot the image
// is read back and every process resumes.  A standby variant keeps the
// image in RAM instead — fast, but lost on power cycle, which the
// survivability tests exercise.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/engine.hpp"
#include "sim/kernel.hpp"
#include "storage/backend.hpp"

namespace ckpt::core {

class HibernationManager {
 public:
  /// `swap` receives hibernation images (LocalDiskBackend in practice);
  /// `ram` receives standby images (MemoryBackend).  Registered as a
  /// static kernel extension, as Software Suspend lives in the stock
  /// kernel tree.
  HibernationManager(sim::SimKernel& kernel, storage::StorageBackend* swap,
                     storage::StorageBackend* ram);

  struct HibernateResult {
    bool ok = false;
    std::string error;
    std::vector<storage::ImageId> images;
    std::uint64_t total_bytes = 0;
    SimTime freeze_latency = 0;  ///< from signal broadcast to all-frozen
    SimTime total_latency = 0;
  };

  /// Freeze all user processes, dump RAM to swap, power down.
  HibernateResult hibernate();
  /// Standby: image to RAM, machine stays powered.
  HibernateResult standby();

  /// Boot-time resume from the most recent hibernation (or standby) image
  /// set.  Restores every process and continues them.
  bool resume(sim::SimKernel& target);

  [[nodiscard]] bool powered_down() const { return powered_down_; }

 private:
  HibernateResult do_suspend(storage::StorageBackend* backend);
  /// Broadcast SIGFREEZE and run until every user process is stopped.
  bool freeze_all(std::vector<sim::Pid>& frozen);

  sim::SimKernel& kernel_;
  storage::StorageBackend* swap_;
  storage::StorageBackend* ram_;
  std::vector<storage::ImageId> last_image_set_;
  storage::StorageBackend* last_backend_ = nullptr;
  bool powered_down_ = false;
};

}  // namespace ckpt::core
