#include "core/autonomic.hpp"

#include <algorithm>
#include <cmath>

#include "obs/observer.hpp"
#include "util/log.hpp"

namespace ckpt::core {
namespace {

/// Upper clamp for the adapted interval.
constexpr SimTime kMaxInterval = 3600 * kSecond;

}  // namespace

SimTime young_interval(SimTime checkpoint_cost, SimTime mtbf) {
  const double c = static_cast<double>(checkpoint_cost);
  const double m = static_cast<double>(mtbf);
  return static_cast<SimTime>(std::sqrt(2.0 * c * m));
}

void IntervalEstimator::observe_cost(SimTime cost) {
  if (cost == 0) return;
  const double c = static_cast<double>(cost);
  cost_ = cost_ == 0 ? static_cast<SimTime>(c)
                     : static_cast<SimTime>(policy_.smoothing * c +
                                            (1.0 - policy_.smoothing) *
                                                static_cast<double>(cost_));
}

void IntervalEstimator::observe_failure(SimTime now) {
  if (failures_ > 0 && now > last_failure_at_) {
    const auto gap = static_cast<double>(now - last_failure_at_);
    // The first measured gap replaces the configured prior outright (the
    // same seeding rule as observe_cost): a measurement, however noisy, is
    // closer to the truth than a guess, and exponential smoothing from a
    // wildly wrong prior would otherwise take ~1/smoothing gaps to forget it.
    mtbf_ = gaps_seen_++ == 0
                ? static_cast<SimTime>(gap)
                : static_cast<SimTime>(policy_.smoothing * gap +
                                       (1.0 - policy_.smoothing) *
                                           static_cast<double>(mtbf_));
  }
  last_failure_at_ = now;
  ++failures_;
}

void IntervalEstimator::update() {
  if (!policy_.adapt_interval || cost_ == 0) return;
  const SimTime young = young_interval(cost_, mtbf_);
  interval_ = std::clamp(young, policy_.min_interval, kMaxInterval);
}

AutonomicManager::AutonomicManager(sim::SimKernel& kernel, CheckpointEngine& engine,
                                   AutonomicPolicy policy)
    : kernel_(kernel), engine_(engine), policy_(policy), estimator_(policy) {}

bool AutonomicManager::manage(sim::Pid pid) {
  if (!engine_.attach(kernel_, pid)) return false;
  if (std::find(managed_.begin(), managed_.end(), pid) == managed_.end()) {
    managed_.push_back(pid);
  }
  return true;
}

void AutonomicManager::unmanage(sim::Pid pid) {
  managed_.erase(std::remove(managed_.begin(), managed_.end(), pid), managed_.end());
}

void AutonomicManager::start() {
  if (running_) return;
  running_ = true;
  ++generation_;
  arm_timer();
}

void AutonomicManager::stop() {
  running_ = false;
  ++generation_;
}

void AutonomicManager::arm_timer() {
  const std::uint64_t my_generation = generation_;
  kernel_.add_timer(kernel_.now() + estimator_.interval(),
                    [this, my_generation](sim::SimKernel&) {
    if (!running_ || generation_ != my_generation) return;
    tick();
    arm_timer();
  });
}

void AutonomicManager::tick() {
  ++ticks_;
  if (obs::Observer* observer = kernel_.observer()) {
    observer->trace().instant("autonomic.tick", "policy", obs::kControlTrack,
                              {obs::TraceArg::num("managed", managed_.size()),
                               obs::TraceArg::num("interval_ns", estimator_.interval())});
    observer->metrics().add("autonomic.ticks");
  }
  // Drop processes that have exited.
  managed_.erase(std::remove_if(managed_.begin(), managed_.end(),
                                [&](sim::Pid pid) {
                                  const sim::Process* p = kernel_.find_process(pid);
                                  return p == nullptr || !p->alive();
                                }),
                 managed_.end());
  for (sim::Pid pid : managed_) {
    const std::uint64_t ticket = engine_.request_checkpoint_async(kernel_, pid);
    if (ticket == 0) {
      util::logf(util::LogLevel::kWarn, "autonomic", "engine refused checkpoint of pid %d",
                 pid);
    }
  }
  // Update the cost estimate from the engine's recent history.
  const auto& history = engine_.history();
  if (!history.empty()) {
    const CheckpointResult& last = history.back();
    if (last.ok) estimator_.observe_cost(last.completed_at - last.started_at);
  }
  update_interval();
}

void AutonomicManager::observe_failure() {
  estimator_.observe_failure(kernel_.now());
  if (obs::Observer* observer = kernel_.observer()) {
    observer->trace().instant("autonomic.failure_observed", "policy", obs::kControlTrack,
                              {obs::TraceArg::num("failures", estimator_.failures_seen()),
                               obs::TraceArg::num("mtbf_ns", estimator_.mtbf_estimate())});
    observer->metrics().add("autonomic.failures_observed");
  }
  update_interval();
}

void AutonomicManager::update_interval() {
  if (!policy_.adapt_interval || estimator_.cost_estimate() == 0) return;
  estimator_.update();
  if (obs::Observer* observer = kernel_.observer()) {
    obs::MetricsRegistry& metrics = observer->metrics();
    metrics.set_gauge("autonomic.interval_ns",
                      static_cast<std::int64_t>(estimator_.interval()));
    metrics.set_gauge("autonomic.mtbf_estimate_ns",
                      static_cast<std::int64_t>(estimator_.mtbf_estimate()));
    metrics.set_gauge("autonomic.cost_estimate_ns",
                      static_cast<std::int64_t>(estimator_.cost_estimate()));
    observer->trace().counter("autonomic.interval_ns", obs::kControlTrack,
                              estimator_.interval());
  }
}

bool AutonomicManager::suspend_for_maintenance() {
  bool all_ok = true;
  for (sim::Pid pid : managed_) {
    const CheckpointResult result = engine_.request_checkpoint(kernel_, pid);
    all_ok = all_ok && result.ok;
  }
  for (sim::Pid pid : managed_) {
    if (sim::Process* proc = kernel_.find_process(pid)) kernel_.stop_process(*proc);
  }
  return all_ok;
}

void AutonomicManager::resume_after_maintenance() {
  for (sim::Pid pid : managed_) {
    if (sim::Process* proc = kernel_.find_process(pid)) kernel_.resume_process(*proc);
  }
}

bool AutonomicManager::preempt(sim::Pid pid) {
  const CheckpointResult result = engine_.request_checkpoint(kernel_, pid);
  if (!result.ok) return false;
  if (sim::Process* proc = kernel_.find_process(pid)) kernel_.stop_process(*proc);
  return true;
}

void AutonomicManager::resume_preempted(sim::Pid pid) {
  if (sim::Process* proc = kernel_.find_process(pid)) kernel_.resume_process(*proc);
}

}  // namespace ckpt::core
