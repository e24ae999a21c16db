// LSF-style batch manager: the survey's user-initiated flexibility layer.
//
// The common 2004 practice: checkpoint mechanisms offer only user
// initiation, and flexibility comes from a batch system above the OS that
// triggers them.  The model captures the two structural weaknesses the
// survey names: every operation is a serialized RPC round-trip through one
// head node (scalability), and if the head node is down no checkpoint
// happens anywhere (centralized fault tolerance).  Claim C11 compares this
// against per-node autonomic managers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "core/engine.hpp"

namespace ckpt::cluster {

class BatchManager {
 public:
  struct JobProc {
    int node = -1;
    sim::Pid pid = sim::kNoPid;
  };
  struct Job {
    std::string name;
    std::vector<JobProc> procs;
  };

  BatchManager(Cluster& cluster, int head_node, std::vector<core::CheckpointEngine*>
                                                     engines_by_node);

  std::size_t submit(Job job);

  struct SweepResult {
    bool ok = false;
    std::string error;
    std::uint64_t checkpointed = 0;
    std::uint64_t failed = 0;
    SimTime duration = 0;
    SimTime rpc_overhead = 0;
  };

  /// Checkpoint every process of every job: one serialized RPC round trip
  /// from the head node per process, then the engine call on the target
  /// node.  Refuses entirely when the head node is down.
  SweepResult checkpoint_all();

  [[nodiscard]] bool head_alive() const;
  [[nodiscard]] std::uint64_t sweeps() const { return sweeps_; }

 private:
  Cluster& cluster_;
  int head_node_;
  std::vector<core::CheckpointEngine*> engines_;
  std::vector<Job> jobs_;
  std::uint64_t sweeps_ = 0;
};

}  // namespace ckpt::cluster
