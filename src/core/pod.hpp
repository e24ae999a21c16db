// ZAP-style pods: private virtual namespaces for migratable process groups.
//
// The survey (§3, §4.1) identifies persistent operating-system state —
// PIDs, bound ports, open resources — as what breaks naive migration: the
// identifiers a process saw before migration may be taken, or simply mean
// something else, on the destination machine.  ZAP's answer is the *pod*:
// processes see virtual identifiers, and a per-pod translation table maps
// them to real ones on whatever machine currently hosts the pod.  The
// price is intercepting every system call (Process::syscall_extra_ns).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "sim/kernel.hpp"

namespace ckpt::core {

using PodId = std::uint64_t;

struct Pod {
  PodId id = 0;
  std::string name;
  /// Virtual pid -> real pid on the current host.
  std::map<sim::Pid, sim::Pid> vpid_to_real;
  /// Virtual port -> real port on the current host.
  std::map<std::uint16_t, std::uint16_t> vport_to_real;
  sim::Pid next_vpid = 1;

  [[nodiscard]] std::optional<sim::Pid> real_pid(sim::Pid vpid) const;
  [[nodiscard]] std::optional<sim::Pid> virtual_pid(sim::Pid real) const;
};

class PodManager {
 public:
  /// Per-syscall interception overhead inside a pod (the ZAP run-time tax).
  explicit PodManager(SimTime translation_ns = 200) : translation_ns_(translation_ns) {}

  Pod& create_pod(const std::string& name);
  [[nodiscard]] Pod* find_pod(PodId id);

  /// Move an existing process into a pod; it receives a virtual pid and its
  /// bound ports get virtual aliases.
  sim::Pid adopt(sim::SimKernel& kernel, sim::Pid real_pid, PodId pod_id);

  /// Restart a checkpoint image inside a pod on `kernel`: the image's pid
  /// and ports become *virtual* identifiers, so the restart succeeds even
  /// when the real ones are taken — the resource-conflict solution naive
  /// restart lacks.
  RestartResult restart_in_pod(sim::SimKernel& kernel,
                               const storage::CheckpointImage& image, PodId pod_id);

  [[nodiscard]] SimTime translation_overhead() const { return translation_ns_; }

 private:
  /// Find a free real port on the kernel, preferring `wanted`.
  static std::uint16_t pick_real_port(sim::SimKernel& kernel, std::uint16_t wanted,
                                      sim::Pid owner);

  SimTime translation_ns_;
  std::map<PodId, Pod> pods_;
  PodId next_id_ = 1;
};

}  // namespace ckpt::core
