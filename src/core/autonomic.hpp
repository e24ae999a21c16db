// The survey's "direction forward": an autonomic checkpoint manager.
//
// System-level, automatically initiated checkpointing that manages itself
// per the policies of §1: periodic initiation from a kernel timer, online
// adjustment of the checkpoint interval to the observed failure rate
// (Young's first-order optimum  t = sqrt(2 * C * MTBF)  with C the
// measured checkpoint cost), safe preemption, and operator-initiated
// suspension for planned outages.  It drives any system-level engine —
// no application involvement, no batch-manager dependence (the
// decentralization argument of §4.1).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/engine.hpp"
#include "sim/kernel.hpp"

namespace ckpt::core {

struct AutonomicPolicy {
  /// Interval used until enough observations exist to adapt.
  SimTime initial_interval = 60 * kSecond;
  /// Adapt the interval with Young's formula as failures are observed.
  bool adapt_interval = true;
  /// Prior MTBF estimate before any failure is seen.
  SimTime initial_mtbf = 3600 * kSecond;
  /// Lower clamp for the adapted interval (the upper clamp is one hour).
  SimTime min_interval = 1 * kSecond;
  /// Exponential smoothing factor for cost / MTBF estimates.
  double smoothing = 0.3;
};

/// Young's first-order optimal checkpoint interval.
SimTime young_interval(SimTime checkpoint_cost, SimTime mtbf);

/// The interval-adaptation core shared by every autonomic client: smoothed
/// online estimates of checkpoint cost and MTBF, folded through Young's
/// formula into a clamped interval.  AutonomicManager uses one per kernel;
/// FleetManager uses one fleet-wide (its policy is the *one* autonomic
/// policy hundreds of per-node engines run under).  Pure arithmetic — no
/// kernel, no observer — so it is trivially deterministic.
class IntervalEstimator {
 public:
  explicit IntervalEstimator(const AutonomicPolicy& policy)
      : policy_(policy),
        interval_(policy.initial_interval),
        mtbf_(policy.initial_mtbf) {}

  /// Fold one observed checkpoint cost into the smoothed estimate (the
  /// first observation seeds the estimate directly).  Ignores 0.
  void observe_cost(SimTime cost);

  /// Fold the gap since the previous failure into the smoothed MTBF
  /// estimate.  The first failure only anchors the gap baseline; the first
  /// *gap* seeds the estimate directly (replacing the configured prior),
  /// mirroring observe_cost.
  void observe_failure(SimTime now);

  /// Recompute the interval from the current estimates (no-op until a cost
  /// has been observed, or when the policy disables adaptation).
  void update();

  [[nodiscard]] SimTime interval() const { return interval_; }
  [[nodiscard]] SimTime mtbf_estimate() const { return mtbf_; }
  [[nodiscard]] SimTime cost_estimate() const { return cost_; }
  [[nodiscard]] std::uint64_t failures_seen() const { return failures_; }
  [[nodiscard]] const AutonomicPolicy& policy() const { return policy_; }

 private:
  AutonomicPolicy policy_;
  SimTime interval_;
  SimTime mtbf_;
  SimTime cost_ = 0;
  SimTime last_failure_at_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t gaps_seen_ = 0;
};

class AutonomicManager {
 public:
  AutonomicManager(sim::SimKernel& kernel, CheckpointEngine& engine,
                   AutonomicPolicy policy = {});

  /// Place a process under autonomic management (attaches the engine).
  bool manage(sim::Pid pid);
  void unmanage(sim::Pid pid);

  /// Arm the periodic timer.  Re-arms itself after every tick.
  void start();
  void stop();

  /// Failure-rate feedback (called by the failure detector).
  void observe_failure();

  /// Planned outage: checkpoint every managed process, then stop them all.
  /// Returns true if every checkpoint succeeded.
  bool suspend_for_maintenance();
  /// Resume after maintenance.
  void resume_after_maintenance();

  /// Safe preemption: checkpoint then stop one process, freeing its CPU for
  /// a higher-priority job; resume_preempted() continues it.
  bool preempt(sim::Pid pid);
  void resume_preempted(sim::Pid pid);

  [[nodiscard]] SimTime current_interval() const { return estimator_.interval(); }
  [[nodiscard]] SimTime mtbf_estimate() const { return estimator_.mtbf_estimate(); }
  [[nodiscard]] SimTime cost_estimate() const { return estimator_.cost_estimate(); }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] const std::vector<sim::Pid>& managed() const { return managed_; }

 private:
  void tick();
  void arm_timer();
  void update_interval();

  sim::SimKernel& kernel_;
  CheckpointEngine& engine_;
  AutonomicPolicy policy_;

  std::vector<sim::Pid> managed_;
  bool running_ = false;
  std::uint64_t generation_ = 0;  ///< invalidates stale timers after stop()
  IntervalEstimator estimator_;
  std::uint64_t ticks_ = 0;
};

}  // namespace ckpt::core
