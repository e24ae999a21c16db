#include "cluster/fleet.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/capture.hpp"
#include "obs/observer.hpp"
#include "sim/guests.hpp"
#include "util/crc64.hpp"
#include "util/serialize.hpp"

namespace ckpt::cluster {
namespace {

/// Segments in each shard's journal ring (segments of the default
/// JournalOptions::segment_bytes): every commit appends to it (group
/// commit) and the migrator publishes it to the shard store.
constexpr std::uint32_t kJournalSegments = 24;
/// Background migrator cadence, in windows (per shard, staggered).
constexpr std::uint64_t kMigrateEvery = 4;
/// Scrub cadence, in windows (per shard, staggered).
constexpr std::uint64_t kScrubEvery = 16;
/// Prune a slot's chain every N commits (bounds chains and, via journal
/// erase records, log occupancy; keeps N-deep older-surviving fallback).
constexpr std::uint64_t kPruneEvery = 4;

/// FNV-1a over the seed and slot index: the per-slot stagger phase.
std::uint64_t stagger_hash(std::uint64_t seed, std::uint64_t slot) {
  std::uint64_t h = 1469598103934665603ull ^ seed;
  for (int i = 0; i < 8; ++i) {
    h ^= (slot >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

/// Run the guest until it has taken `steps` more iterations (bounded by a
/// generous deadline so a dead process cannot spin the loop).
void run_guest_steps(sim::SimKernel& kernel, sim::Pid pid, std::uint64_t steps) {
  sim::Process* proc = kernel.find_process(pid);
  if (proc == nullptr || steps == 0) return;
  const std::uint64_t goal = proc->stats.guest_iterations + steps;
  kernel.run_while(
      [&kernel, pid, goal] {
        sim::Process* p = kernel.find_process(pid);
        return p != nullptr && p->alive() && p->stats.guest_iterations < goal;
      },
      kernel.now() + 60 * kSecond);
}

/// Byte-compare of a restored process against the image it restored from
/// (the torture harness's states_match, scoped to what restart promises).
bool restored_matches(const storage::CheckpointImage& now_image,
                      const storage::CheckpointImage& truth) {
  if (!core::images_equal_memory(now_image, truth)) return false;
  if (now_image.brk != truth.brk || now_image.heap_base != truth.heap_base) return false;
  if (now_image.threads.size() != truth.threads.size()) return false;
  for (std::size_t i = 0; i < now_image.threads.size(); ++i) {
    if (!(now_image.threads[i].regs == truth.threads[i].regs)) return false;
  }
  return true;
}

/// The geometry as given, or std::invalid_argument when the fleet cannot
/// honour it: every shard needs a storage-home node and at least one slot.
const FleetOptions& validated(const FleetOptions& options) {
  if (options.active_nodes < 1 || options.spare_nodes < 0) {
    throw std::invalid_argument("FleetManager: needs active_nodes >= 1 and spare_nodes >= 0");
  }
  if (options.shards < 1 || options.shards > options.active_nodes) {
    throw std::invalid_argument("FleetManager: shards must be in [1, active_nodes]");
  }
  return options;
}

}  // namespace

// --- FailureDetector --------------------------------------------------------

FailureDetector::FailureDetector(int nodes, SimTime heartbeat_interval)
    : heartbeat_interval_(heartbeat_interval), nodes_(static_cast<std::size_t>(nodes)) {}

void FailureDetector::observe_heartbeat(int node, SimTime at) {
  Tracked& t = nodes_.at(static_cast<std::size_t>(node));
  if (t.state == NodeState::kConfirmedDead) return;  // fenced until reset()
  t.last_beat = at;
  t.state = NodeState::kAlive;
}

void FailureDetector::tick(SimTime now) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Tracked& t = nodes_[i];
    if (t.state == NodeState::kConfirmedDead) continue;
    const std::uint64_t missed =
        now > t.last_beat ? static_cast<std::uint64_t>((now - t.last_beat) / heartbeat_interval_)
                          : 0;
    if (missed >= kConfirmAfterMissed) {
      t.state = NodeState::kConfirmedDead;
      ++confirmations_;
      confirmed_queue_.push_back(static_cast<int>(i));
    } else if (missed >= kSuspectAfterMissed) {
      if (t.state != NodeState::kSuspected) ++suspicions_;
      t.state = NodeState::kSuspected;
    }
  }
}

std::vector<int> FailureDetector::take_confirmed() {
  std::vector<int> out;
  out.swap(confirmed_queue_);
  std::sort(out.begin(), out.end());
  return out;
}

void FailureDetector::reset(int node, SimTime now) {
  Tracked& t = nodes_.at(static_cast<std::size_t>(node));
  t.last_beat = now;
  t.state = NodeState::kAlive;
}

FailureDetector::NodeState FailureDetector::state(int node) const {
  return nodes_.at(static_cast<std::size_t>(node)).state;
}

// --- NodeReplacer -----------------------------------------------------------

NodeReplacer::NodeReplacer(std::vector<int> spares)
    : pool_(spares.begin(), spares.end()) {}

std::optional<int> NodeReplacer::allocate(Cluster& cluster) {
  for (auto it = pool_.begin(); it != pool_.end(); ++it) {
    if (cluster.node(*it).up()) {
      const int id = *it;
      pool_.erase(it);
      return id;
    }
  }
  return std::nullopt;
}

void NodeReplacer::release(int node) { pool_.insert(node); }

void NodeReplacer::remove(int node) { pool_.erase(node); }

std::size_t NodeReplacer::available(Cluster& cluster) const {
  std::size_t n = 0;
  for (int id : pool_) {
    if (cluster.node(id).up()) ++n;
  }
  return n;
}

// --- FleetReport ------------------------------------------------------------

std::uint64_t FleetReport::digest() const {
  std::vector<std::byte> bytes;
  auto push = [&bytes](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(std::byte((v >> (8 * i)) & 0xFF));
  };
  push(windows);
  push(commits_scheduled);
  push(commits_ok);
  push(commits_failed);
  push(group_commits);
  push(max_commits_one_window);
  push(heartbeats);
  push(heartbeats_suppressed);
  push(failures_injected);
  push(confirmed_dead);
  push(false_confirms);
  push(replacements);
  push(reseeds_from_image);
  push(cold_starts);
  push(local_restarts);
  push(retargets);
  push(scrub_repairs);
  push(scrub_unrepairable);
  push(storage_faults_injected);
  push(migrated_images);
  push(migrated_bytes);
  push(flight_records_persisted);
  push(post_mortems);
  push(repairs);
  push(spares_exhausted_windows);
  push(pending_at_end);
  push(durable_bytes);
  push(sim_elapsed);
  push(data_loss_with_intact_replica);
  push(verify_failures);
  push(unrecovered);
  push(detect_latency.size());
  for (SimTime t : detect_latency) push(t);
  push(recover_latency.size());
  for (SimTime t : recover_latency) push(t);
  return util::crc64(bytes);
}

std::string FleetReport::summary() const {
  std::ostringstream out;
  out << "fleet: " << windows << " windows, " << commits_ok << "/" << commits_scheduled
      << " commits (" << commits_failed << " failed, peak " << max_commits_one_window
      << "/window), " << failures_injected << " failures, " << confirmed_dead
      << " confirmed (" << false_confirms << " false), " << replacements
      << " replacements (" << reseeds_from_image << " re-seeded, " << cold_starts
      << " cold, " << local_restarts << " local restarts), " << retargets
      << " retargets, " << repairs << " repairs";
  if (!ok()) {
    out << " [VIOLATIONS: data_loss=" << data_loss_with_intact_replica
        << " verify=" << verify_failures << " unrecovered=" << unrecovered << "]";
  }
  return out.str();
}

// --- FleetManager -----------------------------------------------------------

FleetManager::FleetManager(FleetOptions options)
    : options_(validated(options)),
      cluster_(options.active_nodes + options.spare_nodes, NodeConfig{options.seed}),
      pool_(options.workers > 1 ? std::make_unique<util::ThreadPool>(options.workers)
                                : nullptr),
      rng_(options.seed ^ 0xF1EE7F1EE7ull),
      estimator_(options.policy),
      detector_(options.active_nodes + options.spare_nodes, FleetOptions::window),
      replacer_([&options] {
        std::vector<int> spares;
        for (int i = 0; i < options.spare_nodes; ++i) {
          spares.push_back(options.active_nodes + i);
        }
        return spares;
      }()),
      recovery_(cluster_,
                [&options] {
                  RecoveryManagerOptions ropts;
                  ropts.store.observer = options.observer;
                  return ropts;
                }()),
      heartbeat_injector_(options.observer) {
  sim::register_standard_guests();
  if (options_.observer != nullptr) {
    options_.observer->set_clock([this] { return cluster_.now(); });
  }

  // Ground truth.  The detector never sees this: it is metrics (detection
  // latency baselines) only.  The estimator is fed from detector
  // confirmations (on_confirmed_dead), so the autonomic interval is a
  // function of *measured* signals alone.
  cluster_.on_failure([this](Cluster&, int id) {
    truth_failed_at_[id] = cluster_.now();
    ++report_.failures_injected;
    if (options_.observer != nullptr) {
      options_.observer->metrics().add("fleet.failures");
      options_.observer->trace().instant(
          "fleet.node_failed", "fleet", obs::kControlTrack,
          {obs::TraceArg::num("node", static_cast<std::uint64_t>(id))});
    }
  });
  cluster_.on_repair([this](Cluster&, int id) {
    ++report_.repairs;
    detector_.reset(id, cluster_.now());
    // A repaired node with no slot re-enters service as a spare (CRAFT's
    // pool refill); one still mapped to a slot was never confirmed dead and
    // keeps its slot (the dead process is caught by the sweep).
    if (node_slot_.find(id) == node_slot_.end()) replacer_.release(id);
    if (options_.observer != nullptr) {
      options_.observer->metrics().add("fleet.repairs");
    }
  });

  // Shards: per-shard remote backend + replicated store (replica 0 = the
  // storage-home node's disk) fronted by a journal.
  shards_.resize(static_cast<std::size_t>(options_.shards));
  for (int s = 0; s < options_.shards; ++s) {
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    shard.remote = std::make_unique<storage::RemoteBackend>(sim::CostModel{});
    shard.storage_home = s;  // lowest-id slot of shard s lives on node s
    shard.store = std::make_unique<storage::ReplicatedStore>(
        std::vector<storage::BlobStoreBackend*>{&cluster_.node(s).disk(),
                                                shard.remote.get()});
    storage::JournalOptions jopts;
    jopts.segments = kJournalSegments;
    shard.journal = std::make_unique<storage::LogStructuredBackend>(shard.store.get(), jopts);
  }

  // Slots: one guest per active node, round-robin over shards.
  slots_.resize(static_cast<std::size_t>(options_.active_nodes));
  for (int i = 0; i < options_.active_nodes; ++i) {
    Slot& slot = slots_[static_cast<std::size_t>(i)];
    slot.node = i;
    slot.shard = i % options_.shards;
    slot.stagger = stagger_hash(options_.seed, static_cast<std::uint64_t>(i));
    Shard& shard = shards_[static_cast<std::size_t>(slot.shard)];
    shard.slots.push_back(i);
    sim::WriterConfig config;
    config.array_bytes = options_.array_bytes;
    config.writes_per_step = 8;
    config.seed = options_.seed ^ (0x510700ull + static_cast<std::uint64_t>(i));
    slot.job = recovery_.adopt(
        i, sim::DenseWriterGuest::kTypeName, config.encode(),
        sim::spawn_options_for_array(options_.array_bytes),
        RecoveryManager::ExternalStoreBinding{shard.store.get(), shard.journal.get()});
    node_slot_[i] = i;
  }
}

void FleetManager::arm_torture(const FleetTortureOptions& torture) {
  torture_ = torture;
  torture_armed_ = true;
  for (const FailureModel& model : torture.failure_models) {
    injectors_.push_back(std::make_unique<FailureInjector>(cluster_, model));
  }
}

void FleetManager::suppress_heartbeats(int node, std::uint32_t beats) {
  heartbeat_injector_.suppress(node, beats);
}

std::uint64_t FleetManager::interval_windows() const {
  const SimTime interval = estimator_.interval();
  return std::max<std::uint64_t>(1, (interval + FleetOptions::window / 2) / FleetOptions::window);
}

int FleetManager::slot_node(int slot) const {
  return slots_.at(static_cast<std::size_t>(slot)).node;
}

RecoveryManager::JobId FleetManager::slot_job(int slot) const {
  return slots_.at(static_cast<std::size_t>(slot)).job;
}

int FleetManager::storage_home(int shard) const {
  return shards_.at(static_cast<std::size_t>(shard)).storage_home;
}

bool FleetManager::due_this_window(const Slot& slot, std::uint64_t window_index,
                                   std::uint64_t interval) const {
  if (interval <= 1) return true;
  // Shard-sliced stagger: the interval is cut into one slice per shard so a
  // shard's store only ever sees its own slots' commits in any window; a
  // slot's phase inside the slice is its seed-deterministic hash.  Per
  // window the fleet commits ~active/interval slots, never everyone.
  const auto shard_count = static_cast<std::uint64_t>(shards_.size());
  const auto shard = static_cast<std::uint64_t>(slot.shard);
  const std::uint64_t begin = (shard * interval) / shard_count;
  const std::uint64_t end = ((shard + 1) * interval) / shard_count;
  const std::uint64_t width = end > begin ? end - begin : 1;
  const std::uint64_t phase = (begin + slot.stagger % width) % interval;
  return window_index % interval == phase;
}

FleetReport FleetManager::run(std::uint64_t windows) {
  const SimTime horizon = cluster_.now() + static_cast<SimTime>(windows) * FleetOptions::window;
  for (auto& injector : injectors_) injector->arm(horizon);
  const std::uint64_t first = report_.windows;
  for (std::uint64_t w = 0; w < windows; ++w) step_window(first + w);
  report_.sim_elapsed = cluster_.now();
  report_.pending_at_end = pending_.size();
  report_.durable_bytes = 0;
  for (const Shard& shard : shards_) {
    report_.durable_bytes += shard.store->stored_bytes() + shard.journal->stored_bytes();
  }
  ingest_telemetry();
  if (options_.observer != nullptr) {
    obs::MetricsRegistry& metrics = options_.observer->metrics();
    metrics.set_gauge("fleet.durable_bytes",
                      static_cast<std::int64_t>(report_.durable_bytes));
    metrics.set_gauge("fleet.pending_at_end",
                      static_cast<std::int64_t>(report_.pending_at_end));
    metrics.set_gauge("fleet.measured_mtbf_ns",
                      static_cast<std::int64_t>(accountant_.measured_mtbf()));
    metrics.set_gauge("fleet.mean_commit_cost_ns",
                      static_cast<std::int64_t>(accountant_.mean_commit_cost()));
    metrics.set_gauge("fleet.overhead_permille",
                      static_cast<std::int64_t>(accountant_.fleet().overhead_permille()));
  }
  return report_;
}

void FleetManager::step_window(std::uint64_t window_index) {
  const SimTime window_end = cluster_.now() + FleetOptions::window;

  // Pre-draw every random decision on the main thread: the parallel guest
  // phase must not touch the fleet rng (worker-count invariance).
  std::vector<std::uint64_t> steps(slots_.size());
  const std::uint64_t span = options_.guest_steps_max >= options_.guest_steps_min
                                 ? options_.guest_steps_max - options_.guest_steps_min + 1
                                 : 1;
  for (auto& s : steps) s = options_.guest_steps_min + rng_.next_below(span);
  // Yesterday's one-window outages end before new faults are drawn.
  for (storage::BlobStoreBackend* backend : open_outages_) {
    inject::StorageInjector(*backend, options_.observer).end_outage();
  }
  open_outages_.clear();
  if (torture_armed_) {
    if (torture_.heartbeat_drop_per_window > 0 && torture_.heartbeat_drop_beats > 0) {
      for (int id = 0; id < cluster_.size(); ++id) {
        if (rng_.next_double() < torture_.heartbeat_drop_per_window) {
          heartbeat_injector_.suppress(id, torture_.heartbeat_drop_beats);
        }
      }
    }
    if (torture_.storage_fault_per_window > 0 &&
        rng_.next_double() < torture_.storage_fault_per_window) {
      inject_storage_fault();
    }
  }

  // 1. Failure/repair events fire; the event clock reaches the boundary.
  cluster_.advance(window_end);

  // 2-3. Heartbeats, suspicion, confirmation, fencing, replacement.
  heartbeat_phase();
  sweep_dead_processes();
  process_pending();

  // 4. Guest windows, in parallel: per-node kernels share nothing.
  guest_phase(window_end, steps);

  // 5-6. Staggered commits + shard maintenance, serial on the main thread.
  commit_phase(window_index);
  maintenance_phase(window_index);

  ++report_.windows;
}

void FleetManager::heartbeat_phase() {
  const SimTime now = cluster_.now();
  for (int id = 0; id < cluster_.size(); ++id) {
    if (!cluster_.node(id).up()) continue;
    if (heartbeat_injector_.consume(id)) {
      ++report_.heartbeats_suppressed;
      continue;
    }
    detector_.observe_heartbeat(id, now);
    ++report_.heartbeats;
  }
  detector_.tick(now);
  for (int id : detector_.take_confirmed()) on_confirmed_dead(id);
}

void FleetManager::on_confirmed_dead(int node_id) {
  ++report_.confirmed_dead;
  // The measured-failure feed: confirmations (false confirms included — a
  // fencing destroys work exactly like a real crash) drive the overhead
  // ledger's MTBF and the autonomic estimator.
  accountant_.observe_failure(cluster_.now());
  estimator_.observe_failure(cluster_.now());
  const bool was_up = cluster_.node(node_id).up();
  if (was_up) {
    // False suspicion.  Fence: fail-stop the node before seeding a
    // replacement, so two incarnations of one slot can never both commit.
    // Costs the slot's work since its last checkpoint — never its data.
    ++report_.false_confirms;
    cluster_.fail_node(node_id);
    if (options_.observer != nullptr) {
      options_.observer->metrics().add("fleet.false_confirms");
      options_.observer->trace().instant(
          "fleet.fence", "fleet", obs::kControlTrack,
          {obs::TraceArg::num("node", static_cast<std::uint64_t>(node_id))});
    }
  }
  const auto truth_it = truth_failed_at_.find(node_id);
  const SimTime truth =
      truth_it != truth_failed_at_.end() ? truth_it->second : cluster_.now();
  if (!was_up) {
    const SimTime detect = cluster_.now() - truth;
    report_.detect_latency.push_back(detect);
    if (options_.observer != nullptr) {
      options_.observer->metrics().observe("fleet.detect_latency_ns", detect,
                                           obs::MetricsRegistry::latency_bounds());
    }
  }
  if (options_.observer != nullptr) options_.observer->metrics().add("fleet.confirmed_dead");

  const auto slot_it = node_slot_.find(node_id);
  if (slot_it == node_slot_.end()) {
    // A pooled spare died; it can no longer be allocated.
    replacer_.remove(node_id);
    return;
  }
  Slot& slot = slots_[static_cast<std::size_t>(slot_it->second)];
  slot.pending = true;
  slot.prev_node = node_id;
  slot.node = -1;
  slot.truth_failed_at = truth;
  slot.confirmed_at = cluster_.now();
  // Rework: progress since the last durable point is gone.  A fenced node
  // really did the work up to the fencing instant; a crashed one stopped
  // progressing at the ground-truth failure.
  const SimTime lost_until = was_up ? cluster_.now() : truth;
  if (lost_until > slot.last_commit_at) {
    accountant_.charge_rework(slot_it->second, lost_until - slot.last_commit_at);
    slot.node_metrics.add("node.reworks");
  }
  render_post_mortem(slot_it->second);
  pending_.push_back(slot_it->second);
  node_slot_.erase(slot_it);
}

void FleetManager::render_post_mortem(int slot_index) {
  Slot& slot = slots_[static_cast<std::size_t>(slot_index)];
  const Shard& shard = shards_[static_cast<std::size_t>(slot.shard)];
  std::string body;
  bool from_journal = false;
  const auto payload = shard.journal->flight_record_of(static_cast<std::uint64_t>(slot_index));
  if (payload.has_value()) {
    try {
      body = obs::FlightRecorder::deserialize(*payload).post_mortem();
      from_journal = true;
    } catch (const util::SerializeError&) {
      // Unreachable past the journal's CRC64 envelope; fall through.
    }
  }
  if (!from_journal) body = slot.flight.post_mortem();
  std::string report = "post-mortem slot " + std::to_string(slot_index) + " node " +
                       std::to_string(slot.prev_node) +
                       (from_journal ? " (journal black box)\n" : " (in-memory black box)\n");
  report += body;
  post_mortems_[slot_index] = std::move(report);
  ++report_.post_mortems;
  if (options_.observer != nullptr) {
    options_.observer->metrics().add("fleet.post_mortems");
  }
}

void FleetManager::process_pending() {
  while (!pending_.empty()) {
    if (!replace_slot(pending_.front())) break;
    pending_.pop_front();
  }
  if (!pending_.empty()) ++report_.spares_exhausted_windows;
}

bool FleetManager::replace_slot(int slot_index) {
  Slot& slot = slots_[static_cast<std::size_t>(slot_index)];
  const std::optional<int> spare = replacer_.allocate(cluster_);
  if (!spare.has_value()) return false;
  const int target = *spare;

  obs::SpanGuard span(obs::tracer(options_.observer), "fleet.replace", "fleet",
                      obs::kControlTrack,
                      {obs::TraceArg::num("slot", static_cast<std::uint64_t>(slot_index)),
                       obs::TraceArg::num("dead_node",
                                          static_cast<std::uint64_t>(slot.prev_node)),
                       obs::TraceArg::num("spare", static_cast<std::uint64_t>(target))});

  sim::SimKernel& kernel = cluster_.node(target).kernel();
  if (kernel.now() < cluster_.now()) kernel.idle_until(cluster_.now());
  const SimTime restore_start = kernel.now();
  const RecoveryReport rr = recovery_.recover(slot.job, target);
  const SimTime restore_charge = kernel.now() - restore_start;

  ++report_.replacements;
  if (!rr.recovered) ++report_.unrecovered;
  if (rr.data_loss_with_intact_replica) ++report_.data_loss_with_intact_replica;
  if (rr.cold_started) {
    ++report_.cold_starts;
  } else if (rr.from_image) {
    ++report_.reseeds_from_image;
  }
  slot.node = target;
  slot.pending = false;
  node_slot_[target] = slot_index;
  detector_.reset(target, cluster_.now());
  // The black box follows the slot onto its new incarnation; the restore
  // point resets the rework baseline (work before it was already charged).
  slot.flight.instant(cluster_.now(), "replaced", static_cast<std::uint64_t>(target));
  slot.last_commit_at = cluster_.now();
  slot.node_metrics.add("node.replacements");
  persist_flight(slot_index, kernel);

  // CRAFT's storage half: when the dead node anchored its shard's local
  // replica, the replica set follows the slot onto the spare and a scrub
  // re-replicates committed history onto the fresh disk.
  Shard& shard = shards_[static_cast<std::size_t>(slot.shard)];
  if (shard.storage_home == slot.prev_node) {
    shard.store->retarget_replica(RecoveryManager::kLocalReplica,
                                  &cluster_.node(target).disk());
    shard.storage_home = target;
    ++report_.retargets;
    const storage::ScrubReport sr = shard.store->scrub(storage::ChargeFn{});
    report_.scrub_repairs += sr.repaired;
    report_.scrub_unrepairable += sr.unrepairable;
    if (options_.observer != nullptr) options_.observer->metrics().add("fleet.retargets");
  }

  if (rr.from_image) verify_restored(slot, rr);

  const SimTime total = (cluster_.now() - slot.truth_failed_at) + restore_charge;
  report_.recover_latency.push_back(total);
  if (options_.observer != nullptr) {
    obs::MetricsRegistry& metrics = options_.observer->metrics();
    metrics.add("fleet.replacements");
    metrics.add(rr.cold_started ? "fleet.cold_starts" : "fleet.reseeds_from_image");
    metrics.observe("fleet.recover_latency_ns", total,
                    obs::MetricsRegistry::latency_bounds());
  }
  span.end({obs::TraceArg::str("outcome", rr.cold_started ? "cold-start" : "re-seeded"),
            obs::TraceArg::num("latency_ns", total)});
  return true;
}

void FleetManager::verify_restored(Slot& slot, const RecoveryReport& rr) {
  // "Re-seeded to a verified-restorable image": before the guest takes a
  // single post-restore step, its captured state must byte-match the image
  // the ladder restored.  Charge-free audit reads.
  sim::SimKernel& kernel = cluster_.node(slot.node).kernel();
  sim::Process* proc = kernel.find_process(rr.restored_pid);
  if (proc == nullptr || !proc->alive()) {
    ++report_.verify_failures;
    return;
  }
  const std::optional<storage::CheckpointImage> truth =
      recovery_.chain(slot.job).reconstruct_at(rr.restored_sequence, storage::ChargeFn{});
  if (!truth.has_value()) {
    ++report_.verify_failures;
    return;
  }
  const storage::CheckpointImage now_image = core::capture_kernel_level(kernel, *proc, {});
  if (!restored_matches(now_image, *truth)) {
    ++report_.verify_failures;
    if (options_.observer != nullptr) {
      options_.observer->metrics().add("fleet.verify_failures");
    }
  }
}

void FleetManager::sweep_dead_processes() {
  // A node that failed and repaired faster than the confirmation window is
  // up with an empty process table: the slot is dead even though its node
  // never was (to the detector).  Restart in place through the ladder.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.pending || slot.node < 0) continue;
    Node& node = cluster_.node(slot.node);
    if (!node.up()) continue;
    sim::Process* proc = node.kernel().find_process(recovery_.pid_of(slot.job));
    if (proc != nullptr && proc->alive()) continue;
    const SimTime now = cluster_.now();
    if (now > slot.last_commit_at) {
      accountant_.charge_rework(static_cast<int>(i), now - slot.last_commit_at);
      slot.node_metrics.add("node.reworks");
    }
    const RecoveryReport rr = recovery_.recover(slot.job, slot.node);
    slot.flight.instant(now, "local-restart", static_cast<std::uint64_t>(slot.node));
    slot.last_commit_at = now;
    ++report_.local_restarts;
    if (!rr.recovered) ++report_.unrecovered;
    if (rr.data_loss_with_intact_replica) ++report_.data_loss_with_intact_replica;
    if (rr.from_image) verify_restored(slot, rr);
    if (options_.observer != nullptr) {
      options_.observer->metrics().add("fleet.local_restarts");
    }
  }
}

void FleetManager::guest_phase(SimTime window_end,
                               const std::vector<std::uint64_t>& steps) {
  std::vector<int> live;
  live.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.pending || slot.node < 0 || !cluster_.node(slot.node).up()) continue;
    live.push_back(static_cast<int>(i));
  }
  // Every kernel is private to its slot and carries no observer, and every
  // rng draw already happened: the fan-out is embarrassingly parallel and
  // byte-identical for any worker count.
  util::parallel_for(pool_.get(), live.size(), [&](std::size_t k) {
    Slot& slot = slots_[static_cast<std::size_t>(live[k])];
    sim::SimKernel& kernel = cluster_.node(slot.node).kernel();
    run_guest_steps(kernel, recovery_.pid_of(slot.job),
                    steps[static_cast<std::size_t>(live[k])]);
    if (kernel.now() < window_end) kernel.idle_until(window_end);
  });
  // Useful-work ledger, charged serially after the join (the accountant is
  // main-thread state): every live slot progressed one guest window.
  for (int i : live) accountant_.charge_useful(i, FleetOptions::window);
}

void FleetManager::commit_phase(std::uint64_t window_index) {
  const std::uint64_t interval = interval_windows();
  std::uint64_t window_commits = 0;
  for (Shard& shard : shards_) {
    std::vector<int> due;
    for (int si : shard.slots) {
      const Slot& slot = slots_[static_cast<std::size_t>(si)];
      if (slot.pending || slot.node < 0 || !cluster_.node(slot.node).up()) continue;
      if (!due_this_window(slot, window_index, interval)) continue;
      due.push_back(si);
    }
    if (due.empty()) continue;
    const bool group = !shard.journal->crashed();
    if (group) shard.journal->begin_group();
    for (int si : due) {
      Slot& slot = slots_[static_cast<std::size_t>(si)];
      sim::SimKernel& kernel = cluster_.node(slot.node).kernel();
      const SimTime commit_start = kernel.now();
      ++report_.commits_scheduled;
      // Black box, phase 1: persist the *open* commit span before any commit
      // byte lands, so a crash anywhere inside the group leaves a journal
      // record whose in-flight stack names the commit that tore.
      slot.flight.span_begin(commit_start, "commit", slot.commits + 1);
      persist_flight(si, kernel);
      const bool ok = recovery_.checkpoint(slot.job);
      if (ok) {
        ++report_.commits_ok;
        ++slot.commits;
        ++window_commits;
      } else {
        ++report_.commits_failed;
      }
      slot.flight.span_end(kernel.now(), "commit", ok ? 1 : 0);
      slot.flight.counter(kernel.now(), "commits", slot.commits);
      // Phase 2: persist the closed span, so a *later* death reads as idle
      // rather than mid-commit.
      persist_flight(si, kernel);
      const SimTime cost = kernel.now() - commit_start;
      accountant_.charge_checkpoint(si, cost);
      if (ok) {
        // The measured commit cost — flight persistence included — is what
        // the estimator prices checkpoints at: the closed loop's C.
        estimator_.observe_cost(cost);
        slot.last_commit_at = kernel.now();
        slot.node_metrics.add("node.commits");
        slot.node_metrics.observe("node.commit_latency_ns", cost,
                                  obs::MetricsRegistry::latency_bounds());
        if (slot.commits % kPruneEvery == 0) {
          recovery_.chain(slot.job).prune(storage::ChargeFn{});
        }
      } else {
        slot.node_metrics.add("node.commit_failures");
      }
    }
    if (group) {
      // One deferred device sync for the whole shard group, charged to the
      // first due slot (the deterministic payer).
      sim::SimKernel& payer =
          cluster_.node(slots_[static_cast<std::size_t>(due.front())].node).kernel();
      shard.journal->end_group([&payer](SimTime t) { payer.charge_time(t); });
      ++report_.group_commits;
    }
  }
  estimator_.update();
  report_.max_commits_one_window = std::max(report_.max_commits_one_window, window_commits);
  finalize_window(window_index, window_commits);
}

void FleetManager::maintenance_phase(std::uint64_t window_index) {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    // Staggered per shard so background work is level, like the commits.
    if (!shard.journal->crashed() && (window_index + s) % kMigrateEvery == 0) {
      const auto mr = shard.journal->migrate(storage::ChargeFn{});
      report_.migrated_images += mr.images_drained;
      report_.migrated_bytes += mr.bytes_drained;
    }
    if ((window_index + s) % kScrubEvery == 0) {
      const storage::ScrubReport sr = shard.store->scrub(storage::ChargeFn{});
      report_.scrub_repairs += sr.repaired;
      report_.scrub_unrepairable += sr.unrepairable;
    }
  }
}

void FleetManager::inject_storage_fault() {
  ++report_.storage_faults_injected;
  Shard& shard = shards_[rng_.next_below(shards_.size())];
  const bool local = rng_.next_below(2) == 0;
  storage::BlobStoreBackend* backend =
      local ? static_cast<storage::BlobStoreBackend*>(
                  &cluster_.node(shard.storage_home).disk())
            : shard.remote.get();
  inject::StorageInjector injector(*backend, options_.observer);
  switch (rng_.next_below(3)) {
    case 0:
      injector.fail_next_store();
      break;
    case 1:
      injector.corrupt_newest(rng_, 1 + rng_.next_below(8));
      break;
    default:
      injector.begin_outage();
      open_outages_.push_back(backend);
      break;
  }
}

void FleetManager::persist_flight(int slot_index, sim::SimKernel& kernel) {
  Slot& slot = slots_[static_cast<std::size_t>(slot_index)];
  storage::LogStructuredBackend* journal =
      shards_[static_cast<std::size_t>(slot.shard)].journal.get();
  if (journal->crashed()) return;
  const std::vector<std::byte> payload = slot.flight.serialize();
  if (journal->append_flight_record(static_cast<std::uint64_t>(slot_index), payload,
                                    [&kernel](SimTime t) { kernel.charge_time(t); })) {
    ++report_.flight_records_persisted;
  }
}

void FleetManager::ingest_telemetry() {
  telemetry_.clear();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    telemetry_.ingest(static_cast<int>(i), slots_[i].node_metrics);
  }
}

void FleetManager::finalize_window(std::uint64_t window_index, std::uint64_t window_commits) {
  if (options_.observer == nullptr) return;
  obs::MetricsRegistry& metrics = options_.observer->metrics();
  metrics.add("fleet.windows");
  metrics.set_gauge("fleet.interval_windows",
                    static_cast<std::int64_t>(interval_windows()));
  metrics.set_gauge("fleet.spares_available",
                    static_cast<std::int64_t>(replacer_.available(cluster_)));
  metrics.set_gauge("fleet.pending_slots", static_cast<std::int64_t>(pending_.size()));
  options_.observer->trace().counter("fleet.window_commits", obs::kControlTrack,
                                     window_commits);
  (void)window_index;
}

}  // namespace ckpt::cluster
