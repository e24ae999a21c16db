#include "cluster/recovery.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/capture.hpp"
#include "core/engine.hpp"
#include "obs/observer.hpp"
#include "storage/journal.hpp"
#include "util/table.hpp"

namespace ckpt::cluster {

const char* to_string(RecoveryStep step) {
  switch (step) {
    case RecoveryStep::kLocalNewest: return "local-newest";
    case RecoveryStep::kRemoteNewest: return "remote-newest";
    case RecoveryStep::kOlderSurviving: return "older-surviving";
    case RecoveryStep::kColdStart: return "cold-start";
  }
  return "?";
}

std::string RecoveryReport::summary() const {
  std::ostringstream out;
  out << "job " << job << ": node " << failed_node << " failed at "
      << util::format_time_ns(failed_at) << "; ";
  if (!recovered) {
    out << "NOT RECOVERED";
  } else if (cold_started) {
    out << "cold-started on node " << target_node;
  } else {
    out << "restored seq " << restored_sequence << " on node " << target_node << " as pid "
        << restored_pid;
  }
  out << "; work lost " << util::format_time_ns(work_lost) << "; ladder:";
  for (const RecoveryAttempt& attempt : attempts) {
    out << " " << to_string(attempt.step) << (attempt.ok ? "=ok" : "=fail");
  }
  if (data_loss_with_intact_replica) out << " [DATA LOSS WITH INTACT REPLICA]";
  return out.str();
}

RecoveryManager::RecoveryManager(Cluster& cluster, RecoveryManagerOptions options)
    : cluster_(cluster), options_(std::move(options)) {}

RecoveryManager::Job& RecoveryManager::job_ref(JobId job) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    throw std::invalid_argument("RecoveryManager: unknown job " + std::to_string(job));
  }
  return it->second;
}

const RecoveryManager::Job* RecoveryManager::find_job(JobId job) const {
  auto it = jobs_.find(job);
  return it == jobs_.end() ? nullptr : &it->second;
}

RecoveryManager::JobId RecoveryManager::launch(int home, const std::string& guest_type,
                                               std::vector<std::byte> config,
                                               const sim::SpawnOptions& spawn) {
  Node& node = cluster_.node(home);
  if (!node.up()) {
    throw std::invalid_argument("RecoveryManager: launch on failed node " +
                                std::to_string(home));
  }
  Job job;
  job.home = home;
  job.guest_type = guest_type;
  job.config = config;
  job.spawn = spawn;
  job.pid = node.kernel().spawn(guest_type, std::move(config), spawn);
  job.owned_store = std::make_unique<storage::ReplicatedStore>(
      std::vector<storage::BlobStoreBackend*>{&node.disk(), &cluster_.remote_storage()},
      options_.store);
  job.store = job.owned_store.get();
  job.chain = std::make_unique<storage::CheckpointChain>(job.store);

  const JobId id = next_job_++;
  jobs_.emplace(id, std::move(job));
  return id;
}

RecoveryManager::JobId RecoveryManager::adopt(int home, const std::string& guest_type,
                                              std::vector<std::byte> config,
                                              const sim::SpawnOptions& spawn,
                                              const ExternalStoreBinding& binding) {
  if (binding.store == nullptr || binding.journal == nullptr) {
    throw std::invalid_argument("RecoveryManager: adopt() needs a shared store and journal");
  }
  Node& node = cluster_.node(home);
  if (!node.up()) {
    throw std::invalid_argument("RecoveryManager: adopt on failed node " +
                                std::to_string(home));
  }
  Job job;
  job.home = home;
  job.guest_type = guest_type;
  job.config = config;
  job.spawn = spawn;
  job.pid = node.kernel().spawn(guest_type, std::move(config), spawn);
  job.store = binding.store;
  job.journal = binding.journal;
  // The chain writes through the journal, so every commit is an append
  // (group-commit eligible) and the migrator publishes into the shared
  // store off the critical path.
  job.chain = std::make_unique<storage::CheckpointChain>(binding.journal);

  const JobId id = next_job_++;
  jobs_.emplace(id, std::move(job));
  return id;
}

bool RecoveryManager::external_intact_committed(const Job& job) const {
  if (job.chain == nullptr) return false;
  for (const storage::CheckpointChain::Entry& entry : job.chain->entries()) {
    if (const auto home_id = job.journal->home_id_of(entry.id)) {
      if (job.store->intact_replicas(*home_id) > 0) return true;
    } else if (job.journal->verify(entry.id, storage::ChargeFn{})) {
      // Still log-resident: the journal's verify is the intactness audit,
      // exactly like a replica read-back.
      return true;
    }
  }
  return false;
}

bool RecoveryManager::checkpoint(JobId job_id) {
  Job& job = job_ref(job_id);
  if (job.home < 0 || !cluster_.node(job.home).up()) return false;
  sim::SimKernel& kernel = cluster_.node(job.home).kernel();
  sim::Process* proc = kernel.find_process(job.pid);
  if (proc == nullptr || !proc->alive()) return false;

  obs::SpanGuard span(obs::tracer(options_.store.observer), "checkpoint", "ckpt",
                      obs::kControlTrack,
                      {obs::TraceArg::num("job", job_id),
                       obs::TraceArg::num("pid", static_cast<std::uint64_t>(job.pid))});
  storage::CheckpointImage image = core::capture_kernel_level(kernel, *proc, {});
  image.pid = job.pid;
  image.process_name = proc->name;
  image.guest = proc->guest_image;
  image.kind = storage::ImageKind::kFull;

  auto charge = [&kernel](SimTime t) { kernel.charge_time(t); };
  if (job.chain->append(std::move(image), charge) == storage::kBadImageId) {
    span.end({obs::TraceArg::str("outcome", "store-failed")});
    return false;
  }
  ++job.checkpoints;
  span.end({obs::TraceArg::str("outcome", "ok")});
  return true;
}

RecoveryReport RecoveryManager::recover(JobId job_id, int preferred_target) {
  Job& job = job_ref(job_id);
  RecoveryReport report;
  report.job = job_id;
  report.failed_node = job.home;
  report.failed_at = cluster_.now();

  obs::Observer* observer = options_.store.observer;
  obs::TraceRecorder* trace = obs::tracer(observer);
  obs::SpanGuard span(trace, "recovery", "recovery", obs::kControlTrack,
                      {obs::TraceArg::num("job", job_id),
                       obs::TraceArg::num("failed_node",
                                          static_cast<std::uint64_t>(
                                              report.failed_node < 0 ? 0 : report.failed_node))});
  if (observer != nullptr) observer->metrics().add("recovery.attempts");

  // A rung can only run if there is a surviving node to restart on; without
  // one this is a capacity outage, not a storage verdict.
  const std::vector<int> up = cluster_.up_nodes();
  if (up.empty()) {
    report.attempts.push_back({RecoveryStep::kColdStart, false, "no surviving node"});
    span.end({obs::TraceArg::str("outcome", "no-surviving-node")});
    if (observer != nullptr) observer->metrics().add("recovery.failed");
    reports_.push_back(report);
    return reports_.back();
  }
  report.target_node =
      preferred_target >= 0 && cluster_.node(preferred_target).up() ? preferred_target
                                                                    : up.front();
  sim::SimKernel& target = cluster_.node(report.target_node).kernel();
  auto charge = [&target](SimTime t) { target.charge_time(t); };

  // --- The degradation ladder -----------------------------------------------
  std::optional<storage::CheckpointImage> image;
  const storage::ImageId newest = job.chain->newest_image_id();

  // Rungs 1-2 probe the newest image per replica.  When a journal fronts
  // the store the chain's ids are *journal* ids: a migrated image maps to
  // its home-store id (then the replicas are probed as usual), while a
  // still-log-resident image exists only in the log — probe it once, on the
  // local rung, via the journal's CRC-validated decode.
  auto load_newest_from = [&](std::size_t replica) -> std::optional<storage::CheckpointImage> {
    if (newest == storage::kBadImageId) return std::nullopt;
    if (job.journal == nullptr) return job.store->load_from(replica, newest, charge);
    if (const auto home_id = job.journal->home_id_of(newest)) {
      return job.store->load_from(replica, *home_id, charge);
    }
    if (replica != kLocalReplica) return std::nullopt;  // log has no second copy
    return job.journal->load(newest, charge);
  };

  auto rung = [&](RecoveryStep step, auto&& attempt) {
    if (image.has_value()) return;
    RecoveryAttempt record;
    record.step = step;
    obs::SpanGuard rung_span(trace, std::string("rung:") + to_string(step), "recovery",
                             obs::kControlTrack);
    image = attempt();
    record.ok = image.has_value();
    if (!record.ok) {
      record.detail = newest == storage::kBadImageId ? "no committed image" : "unreadable";
    } else {
      record.detail = "seq " + std::to_string(image->sequence);
    }
    rung_span.end({obs::TraceArg::str("outcome", record.ok ? "ok" : "fail"),
                   obs::TraceArg::str("detail", record.detail)});
    report.attempts.push_back(std::move(record));
  };

  rung(RecoveryStep::kLocalNewest, [&] { return load_newest_from(kLocalReplica); });
  rung(RecoveryStep::kRemoteNewest, [&] { return load_newest_from(kRemoteReplica); });
  rung(RecoveryStep::kOlderSurviving,
       [&] { return job.chain->reconstruct_newest_surviving(charge); });

  if (image.has_value()) {
    const core::RestartResult rr = core::restart_from_image(target, *image);
    if (rr.ok) {
      report.recovered = true;
      report.from_image = true;
      report.restored_pid = rr.pid;
      report.restored_sequence = image->sequence;
      report.work_lost =
          report.failed_at > image->taken_at ? report.failed_at - image->taken_at : 0;
      job.pid = rr.pid;
    } else {
      report.attempts.push_back({RecoveryStep::kOlderSurviving, false, rr.error});
    }
  }

  if (!report.recovered) {
    RecoveryAttempt record;
    record.step = RecoveryStep::kColdStart;
    obs::SpanGuard cold_span(trace, "rung:cold-start", "recovery", obs::kControlTrack);
    job.pid = target.spawn(job.guest_type, job.config, job.spawn);
    record.ok = true;
    record.detail = "fresh pid " + std::to_string(job.pid);
    cold_span.end({obs::TraceArg::str("outcome", "ok"),
                   obs::TraceArg::num("pid", static_cast<std::uint64_t>(job.pid))});
    report.attempts.push_back(std::move(record));
    report.recovered = true;
    report.cold_started = true;
    report.restored_pid = job.pid;
    report.work_lost = report.failed_at;
  }

  // The gate: cold-starting (or failing outright) while a committed image
  // still has an intact replica means the ladder lost recoverable state.
  // External (adopt(), journal-fronted) jobs share their store with other
  // jobs, so the audit is scoped to this job's own chain instead of the
  // store-wide predicate.
  const bool intact_exists =
      job.journal != nullptr ? external_intact_committed(job) : job.store->any_intact_committed();
  if (!report.from_image && intact_exists) {
    report.data_loss_with_intact_replica = true;
  }

  if (report.recovered) {
    job.home = report.target_node;
    if (job.journal == nullptr) {
      // Future checkpoints must land on the *new* home's disk; scrubbing
      // then re-replicates the committed history onto it (self-healing).
      // External jobs leave placement to the fleet: their store is shared
      // shard-wide and is retargeted once, when the shard's storage-home
      // node is replaced.
      job.store->retarget_replica(kLocalReplica, &cluster_.node(job.home).disk());
      job.store->scrub(charge);
    }
  }

  span.end({obs::TraceArg::str("outcome", !report.recovered         ? "failed"
                                          : report.cold_started     ? "cold-start"
                                                                    : "restored"),
            obs::TraceArg::num("work_lost_ns", report.work_lost),
            obs::TraceArg::num("rungs_tried", report.attempts.size())});
  if (observer != nullptr) {
    obs::MetricsRegistry& metrics = observer->metrics();
    if (!report.recovered) {
      metrics.add("recovery.failed");
    } else {
      metrics.add(report.cold_started ? "recovery.cold_starts" : "recovery.from_image");
      metrics.observe("recovery.work_lost_ns", report.work_lost,
                      obs::MetricsRegistry::latency_bounds());
    }
    if (report.data_loss_with_intact_replica) metrics.add("recovery.data_loss_gate_hits");
  }

  reports_.push_back(std::move(report));
  return reports_.back();
}

void RecoveryManager::watch() {
  cluster_.on_failure([this](Cluster&, int node_id) {
    for (auto& [id, job] : jobs_) {
      if (job.home == node_id) recover(id);
    }
  });
}

sim::Pid RecoveryManager::pid_of(JobId job) const {
  const Job* j = find_job(job);
  return j == nullptr ? sim::kNoPid : j->pid;
}

int RecoveryManager::home_of(JobId job) const {
  const Job* j = find_job(job);
  return j == nullptr ? -1 : j->home;
}

std::uint64_t RecoveryManager::checkpoints_taken(JobId job) const {
  const Job* j = find_job(job);
  return j == nullptr ? 0 : j->checkpoints;
}

storage::ReplicatedStore& RecoveryManager::store(JobId job) { return *job_ref(job).store; }

storage::CheckpointChain& RecoveryManager::chain(JobId job) { return *job_ref(job).chain; }

}  // namespace ckpt::cluster
