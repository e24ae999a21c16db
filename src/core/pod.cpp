#include "core/pod.hpp"

#include "core/capture.hpp"

namespace ckpt::core {

std::optional<sim::Pid> Pod::real_pid(sim::Pid vpid) const {
  auto it = vpid_to_real.find(vpid);
  return it == vpid_to_real.end() ? std::nullopt : std::optional(it->second);
}

std::optional<sim::Pid> Pod::virtual_pid(sim::Pid real) const {
  for (const auto& [vpid, rpid] : vpid_to_real) {
    if (rpid == real) return vpid;
  }
  return std::nullopt;
}

Pod& PodManager::create_pod(const std::string& name) {
  const PodId id = next_id_++;
  Pod pod;
  pod.id = id;
  pod.name = name;
  auto [it, inserted] = pods_.emplace(id, std::move(pod));
  return it->second;
}

Pod* PodManager::find_pod(PodId id) {
  auto it = pods_.find(id);
  return it == pods_.end() ? nullptr : &it->second;
}

sim::Pid PodManager::adopt(sim::SimKernel& kernel, sim::Pid real_pid, PodId pod_id) {
  Pod* pod = find_pod(pod_id);
  sim::Process* proc = kernel.find_process(real_pid);
  if (pod == nullptr || proc == nullptr || !proc->alive()) return sim::kNoPid;

  const sim::Pid vpid = pod->next_vpid++;
  pod->vpid_to_real[vpid] = real_pid;
  proc->pod_id = pod_id;
  proc->syscall_extra_ns = translation_ns_;

  // Existing bound ports become virtual aliases of themselves.
  for (std::uint16_t port : proc->bound_ports) {
    pod->vport_to_real[port] = port;
  }
  return vpid;
}

std::uint16_t PodManager::pick_real_port(sim::SimKernel& kernel, std::uint16_t wanted,
                                         sim::Pid owner) {
  if (kernel.bind_port(wanted, owner)) return wanted;
  for (std::uint16_t candidate = 32768; candidate != 0; ++candidate) {
    if (kernel.bind_port(candidate, owner)) return candidate;
  }
  return 0;
}

RestartResult PodManager::restart_in_pod(sim::SimKernel& kernel,
                                         const storage::CheckpointImage& image,
                                         PodId pod_id) {
  RestartResult result;
  Pod* pod = find_pod(pod_id);
  if (pod == nullptr) {
    result.error = "no such pod";
    return result;
  }

  // The real pid is whatever the kernel hands out; the *virtual* pid is the
  // checkpointed one, so the application's notion of its identity survives.
  sim::Pid real;
  try {
    real = kernel.create_restored_process(image.process_name, image.guest, std::nullopt);
  } catch (const std::exception& e) {
    result.error = e.what();
    return result;
  }
  sim::Process& proc = kernel.process(real);
  restore_into_process(kernel, proc, image);

  const sim::Pid vpid = image.pid;
  pod->vpid_to_real[vpid] = real;
  if (vpid >= pod->next_vpid) pod->next_vpid = vpid + 1;
  proc.pod_id = pod_id;
  proc.syscall_extra_ns = translation_ns_;

  // Virtual ports: rebind each checkpointed port to any free real port and
  // record the translation; the process keeps using the virtual number.
  for (std::uint16_t vport : image.bound_ports) {
    const std::uint16_t real_port = pick_real_port(kernel, vport, real);
    if (real_port == 0) {
      result.warnings.push_back("no free real port for virtual port " +
                                std::to_string(vport));
      continue;
    }
    pod->vport_to_real[vport] = real_port;
    proc.bound_ports.push_back(real_port);
    if (real_port != vport) {
      result.warnings.push_back("virtual port " + std::to_string(vport) +
                                " remapped to real port " + std::to_string(real_port));
    }
  }

  kernel.resume_process(proc);
  result.ok = true;
  result.pid = real;
  return result;
}

}  // namespace ckpt::core
