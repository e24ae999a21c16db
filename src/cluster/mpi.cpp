#include "cluster/mpi.hpp"

#include <cstring>
#include <stdexcept>

#include "util/serialize.hpp"

namespace ckpt::cluster {
namespace {

std::map<std::uint64_t, std::unique_ptr<MpiFabric>>& fabric_registry() {
  static std::map<std::uint64_t, std::unique_ptr<MpiFabric>> registry;
  return registry;
}

std::uint64_t next_fabric_id() {
  static std::uint64_t next = 1;
  return next++;
}

// Guest memory layout: [0] iteration, [8] messages received,
// [16] bytes received, [24] order-sensitive receive digest; array in heap.
constexpr sim::VAddr kIterAddr = sim::kDataBase;
constexpr sim::VAddr kRecvCountAddr = sim::kDataBase + 8;
constexpr sim::VAddr kRecvBytesAddr = sim::kDataBase + 16;
constexpr sim::VAddr kRecvDigestAddr = sim::kDataBase + 24;

std::uint64_t fold_payload(const std::vector<std::byte>& payload) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (std::byte b : payload) {
    h ^= std::to_integer<std::uint64_t>(b);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t read_guest_u64(sim::Process& proc, sim::VAddr addr) {
  const auto data = proc.aspace->page_data(sim::page_of(addr));
  std::uint64_t value = 0;
  std::memcpy(&value, data.data() + sim::page_offset(addr), sizeof(value));
  return value;
}

}  // namespace

// ---------------------------------------------------------------------------
// MpiFabric
// ---------------------------------------------------------------------------

std::uint64_t MpiFabric::create(int nranks, SimTime latency) {
  FabricOptions options;
  options.latency = latency;
  return create(nranks, options);
}

std::uint64_t MpiFabric::create(int nranks, const FabricOptions& options) {
  auto fabric = std::make_unique<MpiFabric>();
  fabric->nranks_ = nranks;
  fabric->options_ = options;
  MessageLogOptions log_options;
  log_options.log_payloads = options.log_payloads;
  fabric->log_ = MessageLog(log_options);
  const std::uint64_t id = next_fabric_id();
  fabric_registry()[id] = std::move(fabric);
  return id;
}

MpiFabric& MpiFabric::get(std::uint64_t id) {
  auto it = fabric_registry().find(id);
  if (it == fabric_registry().end()) {
    throw std::runtime_error("MpiFabric: unknown fabric id " + std::to_string(id));
  }
  return *it->second;
}

void MpiFabric::destroy(std::uint64_t id) { fabric_registry().erase(id); }

SimTime MpiFabric::send(int src, int dst, std::uint64_t tag,
                        std::vector<std::byte> payload, SimTime now) {
  Message message;
  message.src = src;
  message.dst = dst;
  message.seq = ++next_seq_[{src, dst}];
  message.tag = tag;
  message.payload = std::move(payload);
  message.visible_at = now + options_.latency;

  SimTime charge = 0;
  if (options_.sender_logging) {
    LoggedMessage entry;
    entry.src = src;
    entry.dst = dst;
    entry.seq = message.seq;
    entry.tag = tag;
    entry.sent_at = now;
    entry.payload = message.payload;  // copy: the log owns its bytes
    charge = log_.record(std::move(entry));
  }

  inboxes_[dst].push_back(std::move(message));
  ++total_sent_;
  return charge;
}

std::optional<MpiFabric::Message> MpiFabric::try_recv(int dst, SimTime now) {
  auto it = inboxes_.find(dst);
  if (it == inboxes_.end()) return std::nullopt;
  while (!it->second.empty()) {
    if (it->second.front().visible_at > now) return std::nullopt;  // still in flight
    Message message = std::move(it->second.front());
    it->second.pop_front();
    std::uint64_t& frontier = delivered_seq_[{message.src, dst}];
    if (message.seq <= frontier) {
      // Re-send from a restarted sender's re-execution (or replay overlap):
      // already delivered, drop and keep looking.
      ++duplicates_dropped_;
      continue;
    }
    if (message.seq != frontier + 1) {
      // A skipped sequence means a message was lost — impossible by
      // construction; surfaced loudly, never silently.
      ++sequence_violations_;
    }
    frontier = message.seq;
    return message;
  }
  return std::nullopt;
}

ChannelCut MpiFabric::channel_cut(int rank) const {
  ChannelCut cut;
  for (const auto& [key, seq] : next_seq_) {
    if (key.first == rank && seq > 0) cut.sent[key.second] = seq;
  }
  for (const auto& [key, seq] : delivered_seq_) {
    if (key.second == rank && seq > 0) cut.delivered[key.first] = seq;
  }
  return cut;
}

std::map<std::pair<int, int>, std::uint64_t> MpiFabric::current_sent() const {
  return next_seq_;
}

void MpiFabric::rewind_for_restart(int rank, const ChannelCut& cut) {
  inboxes_[rank].clear();
  for (auto& [key, seq] : next_seq_) {
    if (key.first != rank) continue;
    auto sent = cut.sent.find(key.second);
    seq = sent == cut.sent.end() ? 0 : sent->second;
  }
  for (auto& [key, seq] : delivered_seq_) {
    if (key.second != rank) continue;
    auto delivered = cut.delivered.find(key.first);
    seq = delivered == cut.delivered.end() ? 0 : delivered->second;
  }
}

MpiFabric::ReplayStats MpiFabric::replay_into(int rank, const ChannelCut& cut,
                                              SimTime now) {
  ReplayStats stats;
  for (int src = 0; src < nranks_; ++src) {
    if (src == rank) continue;
    auto delivered = cut.delivered.find(src);
    const std::uint64_t after = delivered == cut.delivered.end() ? 0 : delivered->second;
    for (const LoggedMessage* logged : log_.suffix(src, rank, after)) {
      if (logged->payload.empty()) continue;  // metadata-only: nothing to replay
      Message message;
      message.src = logged->src;
      message.dst = rank;
      message.seq = logged->seq;
      message.tag = logged->tag;
      message.payload = logged->payload;
      message.visible_at = now + options_.latency;
      inboxes_[rank].push_back(std::move(message));
      ++stats.messages;
      stats.bytes += logged->payload.size();
    }
  }
  return stats;
}

std::uint64_t MpiFabric::in_flight() const {
  std::uint64_t count = 0;
  for (const auto& [dst, inbox] : inboxes_) count += inbox.size();
  return count;
}

// ---------------------------------------------------------------------------
// MpiRankGuest
// ---------------------------------------------------------------------------

std::vector<std::byte> MpiRankGuest::Config::encode() const {
  util::Serializer s;
  s.put(fabric_id);
  s.put<std::int32_t>(rank);
  s.put<std::int32_t>(nranks);
  s.put(array_bytes);
  s.put(halo_bytes);
  s.put(compute_ns);
  return std::move(s).take();
}

MpiRankGuest::Config MpiRankGuest::Config::decode(const std::vector<std::byte>& blob) {
  Config config;
  if (blob.empty()) return config;
  util::Deserializer d(blob);
  config.fabric_id = d.get<std::uint64_t>();
  config.rank = d.get<std::int32_t>();
  config.nranks = d.get<std::int32_t>();
  config.array_bytes = d.get<std::uint64_t>();
  config.halo_bytes = d.get<std::uint64_t>();
  config.compute_ns = d.get<SimTime>();
  return config;
}

void MpiRankGuest::on_start(sim::UserApi& api) {
  const sim::VAddr base = api.process().heap_base;
  for (std::uint64_t off = 0; off < config_.array_bytes; off += 8) {
    api.store_u64(base + off, static_cast<std::uint64_t>(config_.rank) * 1000003ULL + off);
  }
}

sim::GuestStatus MpiRankGuest::on_step(sim::UserApi& api) {
  MpiFabric& fabric = MpiFabric::get(config_.fabric_id);
  const sim::VAddr base = api.process().heap_base;
  const std::uint64_t iter = api.load_u64(kIterAddr);

  // Drain whatever has arrived; received halos are folded into the local
  // array and the order-sensitive digest, so they become part of the
  // checkpointable (and replay-verifiable) state.
  while (auto message = fabric.try_recv(config_.rank, api.now())) {
    std::uint64_t received = api.load_u64(kRecvCountAddr);
    std::uint64_t bytes = api.load_u64(kRecvBytesAddr);
    std::uint64_t digest = api.load_u64(kRecvDigestAddr);
    api.store_u64(kRecvCountAddr, received + 1);
    api.store_u64(kRecvBytesAddr, bytes + message->payload.size());
    digest = digest * 1000003ULL + fold_payload(message->payload) +
             message->tag * 31ULL + static_cast<std::uint64_t>(message->src);
    api.store_u64(kRecvDigestAddr, digest);
    const std::uint64_t slot =
        (message->tag % (config_.array_bytes / sim::kPageSize)) * sim::kPageSize;
    const std::size_t n = std::min<std::size_t>(message->payload.size(), 256);
    api.store(base + slot, std::span(message->payload.data(), n));
  }

  if (fabric.quiescing()) {
    // Quiesced for a coordinated checkpoint: no sends, no local progress.
    api.compute(5 * kMicrosecond);
    return sim::GuestStatus::kRunning;
  }

  // Local compute sweep: touch a window of the array.
  const std::uint64_t window = std::min<std::uint64_t>(config_.array_bytes, 16 * 1024);
  const std::uint64_t start = (iter * window) % config_.array_bytes;
  for (std::uint64_t off = 0; off < window && start + off + 8 <= config_.array_bytes;
       off += 512) {
    const std::uint64_t v = api.load_u64(base + start + off);
    api.store_u64(base + start + off, v * 2654435761ULL + iter);
  }
  api.compute(config_.compute_ns);

  // Halo exchange with ring neighbours.  With sender logging on, each send
  // returns the pessimistic log-append charge, paid here — the rank does
  // not progress past a send whose log entry is not durable-in-memory.
  std::vector<std::byte> halo(config_.halo_bytes);
  for (std::size_t i = 0; i < halo.size(); ++i) {
    halo[i] = static_cast<std::byte>((iter + i + static_cast<std::uint64_t>(config_.rank)) &
                                     0xFF);
  }
  const int right = (config_.rank + 1) % config_.nranks;
  const int left = (config_.rank + config_.nranks - 1) % config_.nranks;
  SimTime log_charge = 0;
  log_charge += fabric.send(config_.rank, right, iter, halo, api.now());
  log_charge += fabric.send(config_.rank, left, iter, std::move(halo), api.now());
  if (log_charge > 0) api.compute(log_charge);

  api.store_u64(kIterAddr, iter + 1);
  api.work_done();
  return sim::GuestStatus::kRunning;
}

void MpiRankGuest::register_type() {
  auto& registry = sim::GuestRegistry::instance();
  if (registry.has_type(kTypeName)) return;
  registry.register_type(kTypeName, [](const std::vector<std::byte>& blob) {
    return std::make_unique<MpiRankGuest>(Config::decode(blob));
  });
}

std::uint64_t MpiRankGuest::read_iteration(sim::Process& proc) {
  return read_guest_u64(proc, kIterAddr);
}

std::uint64_t MpiRankGuest::read_recv_digest(sim::Process& proc) {
  return read_guest_u64(proc, kRecvDigestAddr);
}

// ---------------------------------------------------------------------------
// MpiJob
// ---------------------------------------------------------------------------

MpiJob::MpiJob(Cluster& cluster, int nranks, MpiRankGuest::Config base_config)
    : cluster_(cluster), nranks_(nranks), base_config_(base_config) {
  MpiRankGuest::register_type();
  fabric_id_ = MpiFabric::create(nranks, cluster.node(0).kernel().costs().net_latency_ns);
  placements_.resize(static_cast<std::size_t>(nranks));
}

MpiJob::MpiJob(Cluster& cluster, int nranks, MpiRankGuest::Config base_config,
               const MpiFabric::FabricOptions& fabric)
    : cluster_(cluster), nranks_(nranks), base_config_(base_config) {
  MpiRankGuest::register_type();
  fabric_id_ = MpiFabric::create(nranks, fabric);
  placements_.resize(static_cast<std::size_t>(nranks));
}

MpiJob::~MpiJob() { MpiFabric::destroy(fabric_id_); }

void MpiJob::launch() {
  const std::vector<int> up = cluster_.up_nodes();
  for (int r = 0; r < nranks_; ++r) {
    const int node_id = up[static_cast<std::size_t>(r) % up.size()];
    MpiRankGuest::Config config = base_config_;
    config.fabric_id = fabric_id_;
    config.rank = r;
    config.nranks = nranks_;
    sim::SpawnOptions options = sim::spawn_options_for_array(config.array_bytes);
    const sim::Pid pid = cluster_.node(node_id).kernel().spawn(MpiRankGuest::kTypeName,
                                                               config.encode(), options);
    placements_[static_cast<std::size_t>(r)] = Placement{node_id, pid};
  }
}

MpiJob::CoordinatedResult MpiJob::coordinated_checkpoint(
    const std::vector<core::CheckpointEngine*>& engines_by_node) {
  CoordinatedResult result;
  MpiFabric& net = fabric();
  if (net.quiescing()) {
    // Re-entry would hang the drain: the already-running drain holds the
    // quiesce flag, and clearing it on our error path would break it.
    result.error = "coordinated checkpoint already in progress";
    return result;
  }
  const SimTime started = cluster_.now();
  const std::uint64_t in_flight_before = net.in_flight();

  // Phase 1: quiesce senders; ranks keep draining their inboxes.
  net.set_quiescing(true);
  const SimTime drain_deadline = cluster_.now() + 60 * kSecond;
  while (net.in_flight() > 0 && cluster_.now() < drain_deadline) {
    cluster_.run_until(cluster_.now() + 100 * kMicrosecond, 100 * kMicrosecond);
  }
  if (net.in_flight() > 0) {
    net.set_quiescing(false);
    result.error = "drain did not complete";
    return result;
  }
  result.drain_time = cluster_.now() - started;
  result.messages_drained = in_flight_before;

  // Phase 2: per-rank checkpoints through each node's engine.  Requests are
  // serialized by mpirun, so per-rank latencies accumulate.
  SimTime checkpoint_time = 0;
  for (const Placement& placement : placements_) {
    Node& node = cluster_.node(placement.node);
    if (!node.up()) {
      net.set_quiescing(false);
      result.error = "rank's node is down";
      return result;
    }
    core::CheckpointEngine* engine = engines_by_node.at(static_cast<std::size_t>(
        placement.node));
    engine->attach(node.kernel(), placement.pid);
    const core::CheckpointResult ckpt =
        engine->request_checkpoint(node.kernel(), placement.pid);
    if (!ckpt.ok) {
      net.set_quiescing(false);
      result.error = "rank checkpoint failed: " + ckpt.error;
      return result;
    }
    result.payload_bytes += ckpt.payload_bytes;
    checkpoint_time += ckpt.total_latency();
  }

  // Phase 3: resume communication.
  net.set_quiescing(false);
  result.ok = true;
  result.total_time = result.drain_time + checkpoint_time;
  return result;
}

bool MpiJob::restart_ranks_of_failed_node(
    const std::vector<core::CheckpointEngine*>& engines_by_node, int failed_node,
    int target_node) {
  Node& target = cluster_.node(target_node);
  if (!target.up()) return false;
  core::CheckpointEngine* engine =
      engines_by_node.at(static_cast<std::size_t>(failed_node));
  for (Placement& placement : placements_) {
    if (placement.node != failed_node) continue;
    const core::RestartResult restarted = engine->restart_on(target.kernel(), placement.pid);
    if (!restarted.ok) return false;
    placement.node = target_node;
    placement.pid = restarted.pid;
  }
  return true;
}

void MpiJob::rehome_rank(int rank, int node, sim::Pid pid) {
  placements_.at(static_cast<std::size_t>(rank)) = Placement{node, pid};
}

sim::Pid MpiJob::respawn_rank(int rank, int node) {
  MpiRankGuest::Config config = base_config_;
  config.fabric_id = fabric_id_;
  config.rank = rank;
  config.nranks = nranks_;
  sim::SpawnOptions options = sim::spawn_options_for_array(config.array_bytes);
  const sim::Pid pid = cluster_.node(node).kernel().spawn(MpiRankGuest::kTypeName,
                                                          config.encode(), options);
  rehome_rank(rank, node, pid);
  return pid;
}

std::uint64_t MpiJob::min_iteration(Cluster& cluster) const {
  std::uint64_t minimum = UINT64_MAX;
  for (const Placement& placement : placements_) {
    Node& node = cluster.node(placement.node);
    if (!node.up()) return 0;
    sim::Process* proc = node.kernel().find_process(placement.pid);
    if (proc == nullptr || !proc->alive()) return 0;
    minimum = std::min(minimum, MpiRankGuest::read_iteration(*proc));
  }
  return minimum == UINT64_MAX ? 0 : minimum;
}

}  // namespace ckpt::cluster
