// Gang scheduling built on checkpoint-based preemption.
//
// One of the classic non-fault-tolerance uses of checkpointing (§1): jobs
// are groups of processes that must run together; at a slice boundary the
// active gang is checkpointed out (safe preemption — its state is on
// stable storage, so a failure during the pause loses nothing) and the
// next gang is resumed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "sim/kernel.hpp"

namespace ckpt::core {

class GangScheduler {
 public:
  /// `engine` provides the checkpoint-based preemption; pass nullptr for
  /// plain stop/resume gang switching (no failure safety).
  GangScheduler(sim::SimKernel& kernel, CheckpointEngine* engine)
      : kernel_(kernel), engine_(engine) {}

  std::size_t add_job(std::string name, std::vector<sim::Pid> pids);

  /// Make exactly job `index` runnable; checkpoint-preempt all others.
  /// Returns false if any preemption checkpoint failed.
  bool activate(std::size_t index);

  /// Round-robin the jobs: each runs for `slice`, `rounds` times around.
  void rotate(SimTime slice, int rounds);

  [[nodiscard]] const std::vector<sim::Pid>& job_pids(std::size_t index) const {
    return jobs_.at(index).pids;
  }
  /// Useful-work iterations accumulated by a job's processes.
  [[nodiscard]] std::uint64_t job_progress(std::size_t index) const;

 private:
  struct Job {
    std::string name;
    std::vector<sim::Pid> pids;
  };

  sim::SimKernel& kernel_;
  CheckpointEngine* engine_;
  std::vector<Job> jobs_;
};

}  // namespace ckpt::core
