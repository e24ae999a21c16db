// Cluster model: nodes (each a SimKernel + local disk), shared remote
// storage, and lock-step cluster time.
//
// Fail-stop semantics [33] throughout: a failed node's processes vanish
// and its local disk becomes unreachable; the failure is always detected.
// Remote storage survives any compute-node failure — the distinction
// driving the survivability experiment (C8).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "storage/backend.hpp"

namespace ckpt::cluster {

/// Every node runs a one-CPU kernel and a disk under the default
/// sim::CostModel; the seed is the only per-cluster choice.
struct NodeConfig {
  std::uint64_t seed = 42;
};

class Node {
 public:
  Node(int id, const NodeConfig& config);

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] const std::string& hostname() const { return hostname_; }
  [[nodiscard]] bool up() const { return up_; }

  [[nodiscard]] sim::SimKernel& kernel() { return *kernel_; }
  [[nodiscard]] storage::LocalDiskBackend& disk() { return *disk_; }

  /// Fail-stop: every process dies instantly, the local disk is
  /// unreachable until repair.
  void fail();

  /// Repair & reboot at cluster time `now`: a fresh kernel (empty process
  /// table) whose clock matches the cluster; the local disk is reachable
  /// again (its stored images survived the crash but were unreachable
  /// while the node was down — they are only useful again now).
  void repair(SimTime now);

 private:
  int id_;
  std::string hostname_;
  NodeConfig config_;
  bool up_ = true;
  std::unique_ptr<sim::SimKernel> kernel_;
  std::unique_ptr<storage::LocalDiskBackend> disk_;
};

class Cluster {
 public:
  Cluster(int node_count, const NodeConfig& config);

  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] Node& node(int id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] storage::RemoteBackend& remote_storage() { return *remote_; }
  [[nodiscard]] SimTime now() const { return now_; }

  [[nodiscard]] std::vector<int> up_nodes() const;

  /// Advance cluster time in `epoch` steps: per epoch, fire cluster events
  /// due, then run every up node's kernel to the epoch boundary.
  void run_until(SimTime deadline, SimTime epoch = 10 * kMillisecond);

  /// Fire every cluster event due at or before `until` and move the cluster
  /// clock there — *without* stepping any node kernel.  Fleet-scale callers
  /// (FleetManager) own node execution themselves: they run guest windows in
  /// parallel over the ThreadPool and only need the event clock (failure /
  /// repair injections) advanced between windows.
  void advance(SimTime until);

  /// Schedule a cluster-level event (failure injection, manager ticks).
  void add_event(SimTime when, std::function<void(Cluster&)> fn);

  /// Observer invoked on every node failure (failure detector clients).
  void on_failure(std::function<void(Cluster&, int node_id)> fn);

  /// Observer invoked on every node repair (spare-pool clients: a repaired
  /// node re-enters service as a spare).
  void on_repair(std::function<void(Cluster&, int node_id)> fn);

  /// Fail / repair with observer notification.
  void fail_node(int id);
  void repair_node(int id);

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::function<void(Cluster&)> fn;
    bool operator<(const Event& other) const {
      return when != other.when ? when < other.when : seq < other.seq;
    }
  };

  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<storage::RemoteBackend> remote_;
  std::vector<Event> events_;
  std::uint64_t event_seq_ = 0;
  std::vector<std::function<void(Cluster&, int)>> failure_observers_;
  std::vector<std::function<void(Cluster&, int)>> repair_observers_;
  SimTime now_ = 0;
};

}  // namespace ckpt::cluster
