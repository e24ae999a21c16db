#include "inject/torture.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/capture.hpp"
#include "core/systemlevel.hpp"
#include "inject/injectors.hpp"
#include "mechanisms/catalog.hpp"
#include "obs/observer.hpp"
#include "sim/guests.hpp"
#include "storage/replicated.hpp"
#include "util/threadpool.hpp"

namespace ckpt::inject {

namespace {

/// Guest steps per run window, drawn uniformly from [min, max].
constexpr std::uint64_t kMinSteps = 4;
constexpr std::uint64_t kMaxSteps = 24;

template <typename... Args>
std::string cat(Args&&... args) {
  std::ostringstream out;
  (out << ... << args);
  return out.str();
}

/// Per-engine seed: FNV-1a over the catalog name mixed with the run seed,
/// so every engine gets an independent but fully reproducible schedule.
std::uint64_t mix_seed(std::uint64_t seed, const std::string& name) {
  std::uint64_t h = 14695981039346656037ULL ^ seed;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h == 0 ? 1 : h;
}

const mechanisms::CatalogEntry* find_entry(const std::string& name) {
  for (const mechanisms::CatalogEntry& entry : mechanisms::mechanism_catalog()) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

/// Run the guest for `steps` useful iterations (or until it dies).
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

/// Independent ground truth: the newest blob in the backend that still
/// deserializes, belongs to `pid` and is a full image — exactly what a
/// fallback restart must restore.  Goes straight to the raw blobs, not
/// through the engine's chain, so engine bookkeeping bugs cannot hide.
std::optional<storage::CheckpointImage> newest_loadable(storage::StorageBackend& backend,
                                                        sim::Pid pid) {
  const std::vector<storage::ImageId> ids = backend.list();
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    std::optional<storage::CheckpointImage> image = backend.load(*it, storage::ChargeFn{});
    if (!image || image->pid != pid) continue;
    // The torture battery's engines are all non-incremental; a delta here
    // would itself be a bug surfaced by the pid/kind mismatch below.
    if (image->kind != storage::ImageKind::kFull) continue;
    return image;
  }
  return std::nullopt;
}

/// Byte-compare the state that matters for "the same process came back":
/// memory payloads, heap bounds and every thread's register file.
bool states_match(const storage::CheckpointImage& a, const storage::CheckpointImage& b) {
  if (!core::images_equal_memory(a, b)) return false;
  if (a.brk != b.brk || a.heap_base != b.heap_base) return false;
  if (a.threads.size() != b.threads.size()) return false;
  for (std::size_t i = 0; i < a.threads.size(); ++i) {
    if (!(a.threads[i].regs == b.threads[i].regs)) return false;
  }
  return true;
}

}  // namespace

std::string TortureReport::summary() const {
  std::ostringstream out;
  out << engine << ": " << cycles << " cycles, " << checkpoints_ok << " checkpoints ok / "
      << checkpoints_failed << " refused, " << restarts_ok << " restarts ok / "
      << restarts_refused << " correctly refused, " << scrub_repairs
      << " scrub repairs; violations: " << divergences << " divergence, "
      << corrupt_restarts << " corrupt-restart, " << unexpected_failures
      << " unexpected-failure, " << scrub_failures << " scrub-failure";
  return out.str();
}

std::vector<TortureTarget> default_targets() {
  auto chpox_reattach = [](mechanisms::Mechanism& m, sim::SimKernel& kernel, sim::Pid pid) {
    auto* chpox = dynamic_cast<mechanisms::ChpoxMechanism*>(&m);
    return chpox != nullptr && chpox->register_pid(kernel, pid);
  };
  auto blcr_reattach = [](mechanisms::Mechanism& m, sim::SimKernel& kernel, sim::Pid pid) {
    auto* blcr = dynamic_cast<mechanisms::BlcrMechanism*>(&m);
    return blcr != nullptr && blcr->initialize_process(kernel, pid);
  };
  return {
      {"CRAK", nullptr},
      {"UCLik", nullptr},
      {"CHPOX", chpox_reattach},
      {"BLCR", blcr_reattach},
      {"PsncR/C", nullptr},
  };
}

TortureReport TortureHarness::run(const TortureTarget& target) {
  TortureReport report;
  report.engine = target.catalog_name;

  const mechanisms::CatalogEntry* entry = find_entry(target.catalog_name);
  if (entry == nullptr) {
    throw std::invalid_argument("TortureHarness: unknown mechanism " + target.catalog_name);
  }

  const std::uint64_t seed = mix_seed(options_.seed, target.catalog_name);
  sim::SimKernel kernel(2, sim::CostModel{}, seed);
  obs::Observer* observer = options_.observer;
  obs::TraceRecorder* trace = obs::tracer(observer);
  // Wire the trace clock to this engine's kernel for the duration of the
  // soak; detached again before the kernel dies (see the end of run()).
  if (observer != nullptr) kernel.set_observer(observer);
  obs::SpanGuard soak_span(trace, "soak", "torture", obs::kControlTrack,
                           {obs::TraceArg::str("engine", target.catalog_name)});
  sim::register_standard_guests();
  storage::LocalDiskBackend local{kernel.costs()};
  storage::RemoteBackend remote{kernel.costs()};
  std::vector<std::unique_ptr<storage::RemoteBackend>> extra_remotes;
  std::vector<storage::BlobStoreBackend*> replicas;
  // Commit pool (declared before the store so it outlives it); workers == 0
  // leaves the store without one, so it commits on this thread.
  std::unique_ptr<util::ThreadPool> pinned_pool;
  std::unique_ptr<storage::ReplicatedStore> replicated;
  std::unique_ptr<storage::LogStructuredBackend> journal_store;
  mechanisms::MechanismContext context{&kernel, &local, &remote};
  if (options_.dedup && !options_.replicated_storage) {
    throw std::invalid_argument(
        "TortureHarness: dedup requires replicated_storage (a shared chunk on a "
        "single media copy amplifies one corruption across the whole chain)");
  }
  if (options_.journal && !options_.replicated_storage) {
    throw std::invalid_argument(
        "TortureHarness: journal requires replicated_storage (the migrator needs "
        "a durable home store to drain into)");
  }
  if (options_.replicated_storage) {
    if (options_.replicas < 2) {
      throw std::invalid_argument(
          "TortureHarness: replicated_storage needs >= 2 replicas");
    }
    replicas.push_back(&local);
    replicas.push_back(&remote);
    for (std::uint32_t i = 2; i < options_.replicas; ++i) {
      extra_remotes.push_back(std::make_unique<storage::RemoteBackend>(kernel.costs()));
      replicas.push_back(extra_remotes.back().get());
    }
    storage::ReplicatedOptions repl_options;
    repl_options.retry = options_.retry;
    repl_options.retry.jitter_seed = seed;
    repl_options.observer = observer;
    repl_options.dedup = options_.dedup;
    if (options_.workers > 0) {
      pinned_pool = std::make_unique<util::ThreadPool>(options_.workers);
      repl_options.pool = pinned_pool.get();
    }
    replicated = std::make_unique<storage::ReplicatedStore>(replicas, repl_options);
    // Both context slots are the replicated store, so local-disk designs
    // (CRAK, BLCR, ...) and remote-storage designs write through it alike.
    context.local = replicated.get();
    context.remote = replicated.get();
    if (options_.journal) {
      storage::JournalOptions journal_options;
      journal_options.observer = observer;
      journal_store = std::make_unique<storage::LogStructuredBackend>(replicated.get(),
                                                                      journal_options);
      // Engines commit by appending to the journal; the migrator drains into
      // the replicated store at the end of each checkpoint step.
      context.local = journal_store.get();
      context.remote = journal_store.get();
    }
  }
  std::unique_ptr<mechanisms::Mechanism> mech = entry->factory(context);
  std::unique_ptr<JournalInjector> journal_inj;
  if (journal_store != nullptr) {
    journal_inj = std::make_unique<JournalInjector>(*journal_store, observer);
  }

  // Streaming mode: the catalog mechanism still launches the guest, but
  // every checkpoint and restart goes through this streaming-COW engine
  // writing chunk-by-chunk into the replicated store (its constructor
  // refuses any other backend).
  std::unique_ptr<core::SyscallEngine> stream_engine;
  core::CheckpointEngine* ckpt_engine = mech->engine();
  if (options_.streaming) {
    core::EngineOptions stream_options;
    stream_options.consistency = core::ConsistencyMode::kForkAndCopy;
    stream_options.streaming = true;
    stream_engine = std::make_unique<core::SyscallEngine>(
        "torture_stream", context.local, std::move(stream_options), kernel,
        core::SyscallEngine::TargetMode::kByPid, nullptr);
    ckpt_engine = stream_engine.get();
  }

  storage::StorageBackend& store = *ckpt_engine->backend();
  storage::BlobStoreBackend* blob = nullptr;
  if (!options_.replicated_storage) {
    blob = dynamic_cast<storage::BlobStoreBackend*>(&store);
    if (blob == nullptr) {
      throw std::invalid_argument("TortureHarness: " + target.catalog_name +
                                  " has no blob-store backend to torture");
    }
  }

  ProcessInjector process_inj(kernel, observer);
  FaultPlan plan(seed, options_.fault_mix.empty() ? FaultPlan::default_mix()
                                                  : options_.fault_mix);
  util::Rng& rng = plan.rng();

  sim::WriterConfig guest_config;
  guest_config.array_bytes = options_.array_bytes;
  guest_config.writes_per_step = 8;
  guest_config.seed = seed;
  const std::vector<std::byte> config_blob = guest_config.encode();
  const sim::SpawnOptions spawn_options = sim::spawn_options_for_array(options_.array_bytes);
  const std::string guest_type = sim::DenseWriterGuest::kTypeName;

  sim::Pid pid = mech->launch(kernel, guest_type, config_blob, spawn_options);

  // The harness's own model of stable storage for the current chain: how
  // many of its images must still reconstruct, and whether the newest one
  // is intact.  Restart outcomes are judged against this, never against the
  // engine's bookkeeping.
  std::uint64_t chain_len = 0;
  std::uint64_t good_count = 0;
  bool newest_good = false;

  core::RestartOptions restart_options;
  restart_options.fall_back_to_older_images = true;

  auto note = [&report](std::string text) { report.diagnostics.push_back(std::move(text)); };

  // Storage is "down" for a restart only when NO copy is reachable: the
  // single backend in outage, or (replicated) every replica unreachable.
  // One replica in outage does not excuse a failed restart — that is
  // exactly the survivability the replication must provide.
  auto storage_down = [&]() -> bool {
    if (!options_.replicated_storage) return blob->in_outage();
    return std::none_of(replicas.begin(), replicas.end(),
                        [](const storage::BlobStoreBackend* r) { return r->reachable(); });
  };

  // Attempt a restart of the (dead) current pid; adopt the restored process
  // on success.  Returns whether the soak has a live process again.
  auto attempt_restart = [&](std::uint64_t cycle, FaultKind fk) -> bool {
    const bool expected_ok = good_count > 0 && !storage_down();
    core::RestartResult rr = stream_engine != nullptr
                                 ? stream_engine->restart(kernel, pid, restart_options)
                                 : mech->restart(kernel, pid, restart_options);
    if (!rr.ok) {
      if (expected_ok) {
        ++report.unexpected_failures;
        note(cat("cycle ", cycle, ": restart failed although ", good_count,
                 " intact image(s) survived [", to_string(fk), "]: ", rr.error));
      } else {
        ++report.restarts_refused;
      }
      return false;
    }
    if (!expected_ok) {
      ++report.corrupt_restarts;
      note(cat("cycle ", cycle, ": restart claimed success although no intact image",
               " survived [", to_string(fk), "]"));
    } else {
      ++report.restarts_ok;
      std::optional<storage::CheckpointImage> truth = newest_loadable(store, pid);
      if (!truth) {
        ++report.divergences;
        note(cat("cycle ", cycle, ": verifier found no intact image for pid ", pid,
                 " although the model expected ", good_count));
      } else {
        sim::Process& restored = kernel.process(rr.pid);
        const storage::CheckpointImage now_image =
            core::capture_kernel_level(kernel, restored, ckpt_engine->options().capture);
        if (!states_match(now_image, *truth)) {
          ++report.divergences;
          note(cat("cycle ", cycle, ": restored pid ", rr.pid,
                   " diverges from stored image seq ", truth->sequence, " [", to_string(fk),
                   "]"));
        }
      }
    }
    const bool same_pid = rr.pid == pid;
    pid = rr.pid;
    if (stream_engine == nullptr && target.reattach &&
        !target.reattach(*mech, kernel, pid)) {
      note(cat("cycle ", cycle, ": reattach failed for restarted pid ", pid));
      return false;
    }
    if (!same_pid) {
      // A fresh pid starts a fresh chain in the engine.
      chain_len = 0;
      good_count = 0;
      newest_good = false;
    }
    return true;
  };

  auto respawn = [&] {
    pid = mech->launch(kernel, guest_type, config_blob, spawn_options);
    chain_len = 0;
    good_count = 0;
    newest_good = false;
  };

  for (std::uint64_t cycle = 0; cycle < options_.cycles; ++cycle) {
    ++report.cycles;
    const Fault fault = plan.next();
    ++report.faults[fault.kind];

    const std::uint64_t steps = kMinSteps + rng.next_below(kMaxSteps - kMinSteps + 1);

    // In replicated mode every storage fault lands on one rng-chosen
    // replica; the others stay healthy, which is what the self-healing
    // invariants lean on.
    storage::BlobStoreBackend* victim = blob;
    std::uint64_t victim_index = 0;
    if (options_.replicated_storage) {
      victim_index = rng.next_below(replicas.size());
      victim = replicas[victim_index];
    }
    StorageInjector storage_inj(*victim, observer);

    obs::SpanGuard cycle_span(trace, "cycle", "torture", obs::kControlTrack,
                              {obs::TraceArg::num("cycle", cycle),
                               obs::TraceArg::str("fault", to_string(fault.kind)),
                               obs::TraceArg::num("param", fault.param),
                               obs::TraceArg::num("victim", victim_index),
                               obs::TraceArg::num("steps", steps)});
    if (observer != nullptr) {
      observer->metrics().add("torture.cycles");
      observer->metrics().add(std::string("torture.fault.") + to_string(fault.kind));
    }

    if (fault.kind == FaultKind::kStorageOutage) storage_inj.begin_outage();

    // 1. Run window — with kKillProcess the process fail-stops partway in,
    //    through the kernel's timer-driven crash hook.
    if (fault.kind == FaultKind::kKillProcess) {
      run_guest_steps(kernel, pid, fault.param % steps);
      process_inj.kill_at(pid, kernel.now() + 1);
      kernel.run_until(kernel.now() + kernel.quantum());
    } else {
      run_guest_steps(kernel, pid, steps);
    }

    // 2. Checkpoint attempt, possibly against a faulted store.  Streaming
    // mode arms the fault with an rng-drawn skip-op count so it detonates
    // mid-stream, between chunk appends.
    if (fault.kind == FaultKind::kStoreReject) {
      if (options_.streaming) {
        storage_inj.fail_store_after(rng.next_below(16));
      } else {
        storage_inj.fail_next_store();
      }
    }
    if (fault.kind == FaultKind::kTornStore) {
      if (options_.streaming) {
        storage_inj.tear_store_after(rng.next_below(16));
      } else {
        storage_inj.tear_next_store();
      }
    }
    if (fault.kind == FaultKind::kJournalTornAppend && journal_inj != nullptr) {
      journal_inj->tear_next_append(rng);
    }
    const core::CheckpointResult cr = stream_engine != nullptr
                                          ? stream_engine->request_checkpoint(kernel, pid)
                                          : mech->checkpoint(kernel, pid);
    if (journal_inj != nullptr) {
      // Append-commit: the checkpoint only reached the log.  Drain the
      // migrator now, while this cycle's replica fault is still armed — the
      // two-phase publish into the replicated store is what must absorb it.
      // A torn append (during the checkpoint or mid-drain) leaves the
      // journal crashed; recovery keeps the previous fully-committed prefix.
      if (!journal_store->crashed()) journal_store->migrate(storage::ChargeFn{});
      if (journal_store->crashed()) journal_inj->recover();
    }
    victim->inject_store_fault(storage::StoreFault::kNone);  // disarm if unconsumed
    if (cr.ok) {
      ++report.checkpoints_ok;
      ++chain_len;
      if (!options_.replicated_storage && fault.kind == FaultKind::kTornStore) {
        newest_good = false;  // "succeeded", but the blob on disk is torn
      } else {
        // Replicated commit means read-back verification passed on at least
        // one replica — a torn stage was caught and retried or outvoted, so
        // a committed image is intact by construction.
        ++good_count;
        newest_good = true;
      }
    } else {
      ++report.checkpoints_failed;
    }

    // 3. Silent media corruption of the newest image of the current chain.
    // Replicated: only the victim's copy is damaged; the image stays intact
    // on its peers and the end-of-cycle scrub must repair the copy.
    bool corrupted_this_cycle = false;
    if (fault.kind == FaultKind::kCorruptImage && chain_len > 0) {
      const bool hit = storage_inj.corrupt_newest(rng, fault.param);
      if (options_.replicated_storage) {
        corrupted_this_cycle = hit;
      } else if (hit && newest_good) {
        --good_count;
        newest_good = false;
      }
    }
    if (fault.kind == FaultKind::kJournalCorrupt && journal_inj != nullptr &&
        journal_inj->corrupt_log(rng, fault.param)) {
      // Silent log corruption only becomes observable through a crash:
      // power-fail, recover the longest valid prefix, then re-derive the
      // storage model from what actually survived — the prefix discard may
      // take committed images (and their drained-but-now-disowned home
      // copies) with it.
      journal_inj->crash();
      journal_inj->recover();
      good_count = 0;
      for (const storage::ImageId id : store.list()) {
        const std::optional<storage::CheckpointImage> image =
            store.load(id, storage::ChargeFn{});
        if (image && image->pid == pid && image->kind == storage::ImageKind::kFull) {
          ++good_count;
        }
      }
      chain_len = good_count;
      newest_good = good_count > 0;
    }

    // 4. Crash: every cycle ends with the process dead.
    if (sim::Process* proc = kernel.find_process(pid)) {
      if (proc->alive()) kernel.terminate(*proc, 128 + 9);
      kernel.reap(pid);
    }

    // 5. Restart from the newest surviving image; judge the outcome.
    bool live = attempt_restart(cycle, fault.kind);

    if (fault.kind == FaultKind::kStorageOutage) {
      storage_inj.end_outage();
      // Transient outage: once storage is back, a retry must succeed iff
      // intact images survived.
      if (!live) live = attempt_restart(cycle, fault.kind);
    }

    // 6. Self-healing closed loop: scrub after every cycle.  Any copy this
    // cycle's fault corrupted or kept from being written (outage, rejection)
    // must be restored from a healthy peer — with >= 2 replicas and a
    // single-replica fault, "unrepairable" is always a harness violation.
    if (options_.replicated_storage) {
      const storage::ScrubReport sr = replicated->scrub(storage::ChargeFn{});
      report.scrub_repairs += sr.repaired;
      if (sr.unrepairable > 0 || (corrupted_this_cycle && sr.repaired == 0)) {
        ++report.scrub_failures;
        note(cat("cycle ", cycle, ": scrub failed to heal [", to_string(fault.kind),
                 "]: ", sr.summary()));
      }
    }

    cycle_span.end({obs::TraceArg::str("outcome", live ? "live" : "respawned")});
    if (!live) respawn();
  }

  soak_span.end({obs::TraceArg::num("checkpoints_ok", report.checkpoints_ok),
                 obs::TraceArg::num("restarts_ok", report.restarts_ok),
                 obs::TraceArg::num("scrub_repairs", report.scrub_repairs)});
  // The per-engine kernel dies with this frame; unbind the trace clock so
  // the observer never calls into a destroyed kernel.
  if (observer != nullptr) {
    kernel.set_observer(nullptr);
    observer->set_clock({});
  }
  return report;
}

std::vector<TortureReport> TortureHarness::run_all(const std::vector<TortureTarget>& targets) {
  std::vector<TortureReport> reports;
  reports.reserve(targets.size());
  for (const TortureTarget& target : targets) reports.push_back(run(target));
  return reports;
}

}  // namespace ckpt::inject
