#include "cluster/node.hpp"

#include <algorithm>

namespace ckpt::cluster {

Node::Node(int id, const NodeConfig& config)
    : id_(id), hostname_("node" + std::to_string(id)), config_(config) {
  kernel_ = std::make_unique<sim::SimKernel>(1, sim::CostModel{},
                                             config.seed + static_cast<std::uint64_t>(id));
  kernel_->hostname = hostname_;
  disk_ = std::make_unique<storage::LocalDiskBackend>(sim::CostModel{});
}

void Node::fail() {
  up_ = false;
  disk_->fail_node();
  // Fail-stop: the kernel and everything on it is gone.  We drop the
  // kernel object entirely; a repaired node boots a fresh one.
  kernel_.reset();
}

void Node::repair(SimTime now) {
  up_ = true;
  kernel_ = std::make_unique<sim::SimKernel>(
      1, sim::CostModel{}, config_.seed + static_cast<std::uint64_t>(id_) + 0x1000);
  kernel_->hostname = hostname_;
  kernel_->idle_until(now);
  disk_->recover_node();
}

Cluster::Cluster(int node_count, const NodeConfig& config) {
  nodes_.reserve(static_cast<std::size_t>(node_count));
  for (int i = 0; i < node_count; ++i) {
    nodes_.push_back(std::make_unique<Node>(i, config));
  }
  remote_ = std::make_unique<storage::RemoteBackend>(sim::CostModel{});
}

std::vector<int> Cluster::up_nodes() const {
  std::vector<int> out;
  for (const auto& node : nodes_) {
    if (node->up()) out.push_back(node->id());
  }
  return out;
}

void Cluster::add_event(SimTime when, std::function<void(Cluster&)> fn) {
  events_.push_back(Event{when, event_seq_++, std::move(fn)});
  std::sort(events_.begin(), events_.end());
}

void Cluster::on_failure(std::function<void(Cluster&, int)> fn) {
  failure_observers_.push_back(std::move(fn));
}

void Cluster::on_repair(std::function<void(Cluster&, int)> fn) {
  repair_observers_.push_back(std::move(fn));
}

void Cluster::fail_node(int id) {
  Node& target = node(id);
  if (!target.up()) return;
  target.fail();
  for (const auto& observer : failure_observers_) observer(*this, id);
}

void Cluster::repair_node(int id) {
  Node& target = node(id);
  if (target.up()) return;
  target.repair(now_);
  for (const auto& observer : repair_observers_) observer(*this, id);
}

void Cluster::advance(SimTime until) {
  // Fire cluster events due in (now_, until].  An event handler may add
  // further events at or before `until` (e.g. a repair scheduling the next
  // failure); the loop re-checks the sorted queue so they fire in order.
  while (!events_.empty() && events_.front().when <= until) {
    Event event = std::move(events_.front());
    events_.erase(events_.begin());
    now_ = std::max(now_, event.when);
    event.fn(*this);
  }
  now_ = std::max(now_, until);
}

void Cluster::run_until(SimTime deadline, SimTime epoch) {
  while (now_ < deadline) {
    const SimTime next = std::min(deadline, now_ + epoch);
    advance(next);
    for (auto& node : nodes_) {
      if (node->up()) node->kernel().run_until(next);
    }
  }
}

}  // namespace ckpt::cluster
