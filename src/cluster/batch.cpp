#include "cluster/batch.hpp"

namespace ckpt::cluster {

BatchManager::BatchManager(Cluster& cluster, int head_node,
                           std::vector<core::CheckpointEngine*> engines_by_node)
    : cluster_(cluster), head_node_(head_node), engines_(std::move(engines_by_node)) {}

std::size_t BatchManager::submit(Job job) {
  jobs_.push_back(std::move(job));
  return jobs_.size() - 1;
}

bool BatchManager::head_alive() const {
  return const_cast<Cluster&>(cluster_).node(head_node_).up();
}

BatchManager::SweepResult BatchManager::checkpoint_all() {
  SweepResult result;
  if (!head_alive()) {
    // Centralized management: no head, no checkpoints anywhere.
    result.error = "batch manager head node is down";
    return result;
  }
  ++sweeps_;
  sim::SimKernel& head = cluster_.node(head_node_).kernel();
  // Durations are the serialized per-target latencies plus RPC overhead.

  for (const Job& job : jobs_) {
    for (const JobProc& proc : job.procs) {
      Node& node = cluster_.node(proc.node);
      if (!node.up()) {
        ++result.failed;
        continue;
      }
      // Serialized RPC round trip head -> node -> head.
      const SimTime rpc = 2 * head.costs().net_latency_ns;
      head.charge_time(rpc);
      result.rpc_overhead += rpc;

      core::CheckpointEngine* engine = engines_.at(static_cast<std::size_t>(proc.node));
      engine->attach(node.kernel(), proc.pid);
      const core::CheckpointResult ckpt = engine->request_checkpoint(node.kernel(), proc.pid);
      if (ckpt.ok) {
        ++result.checkpointed;
        // The head blocks on each RPC in turn: per-target checkpoint
        // latencies serialize.
        result.duration += ckpt.total_latency();
      } else {
        ++result.failed;
      }
    }
  }
  result.ok = result.failed == 0;

  result.duration += result.rpc_overhead;
  return result;
}

}  // namespace ckpt::cluster
