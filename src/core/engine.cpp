#include "core/engine.hpp"

#include <stdexcept>

#include "obs/observer.hpp"
#include "storage/dedup.hpp"
#include "storage/replicated.hpp"
#include "util/log.hpp"
#include "util/serialize.hpp"

namespace ckpt::core {
namespace {

/// Page payloads per streamed chunk.  Chunking is fixed by this constant
/// alone — never by worker count — so streamed blobs are byte-identical for
/// any pool width.
constexpr std::size_t kStreamChunkPages = 64;

/// Mapped pages of the target's address space (dirty-ratio denominator).
std::uint64_t mapped_pages(const sim::Process& proc) {
  if (proc.aspace == nullptr) return 0;
  std::uint64_t total = 0;
  for (const auto& vma : proc.aspace->vmas()) total += vma.page_count;
  return total;
}

/// Reap the frozen COW shadow on *every* exit path — success, store-failed,
/// injected fault, exception.  A leaked shadow pins every COW frame of the
/// snapshot forever (the shadow-fork leak the regression tests guard).
struct ShadowReaper {
  sim::SimKernel& kernel;
  sim::Pid pid = sim::kNoPid;

  void reap_now() {
    if (pid == sim::kNoPid) return;
    if (sim::Process* shadow = kernel.find_process(pid)) {
      if (shadow->alive()) kernel.terminate(*shadow, 0);
      kernel.reap(pid);
    }
    pid = sim::kNoPid;
  }

  ~ShadowReaper() { reap_now(); }
};

/// Run `attempt` until it reports success, retrying under `policy` with
/// each backoff charged through `charge`.  Returns the retries granted.
std::uint64_t retry_under(const storage::RetryPolicy& policy, std::uint64_t salt,
                          const storage::ChargeFn& charge, const std::function<bool()>& attempt) {
  storage::Retrier retrier(policy, salt);
  while (!attempt()) {
    const std::optional<SimTime> delay = retrier.next_delay();
    if (!delay.has_value()) break;
    charge(*delay);
  }
  return retrier.retries();
}

}  // namespace

const char* to_string(ConsistencyMode mode) {
  switch (mode) {
    case ConsistencyMode::kStopTarget: return "stop-target";
    case ConsistencyMode::kForkAndCopy: return "fork-and-copy";
    case ConsistencyMode::kConcurrent: return "concurrent";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// restart_from_image
// ---------------------------------------------------------------------------

RestartResult restart_from_image(sim::SimKernel& kernel,
                                 const storage::CheckpointImage& image,
                                 const RestartOptions& options) {
  RestartResult result;

  std::optional<sim::Pid> desired;
  if (options.restore_original_pid) {
    if (kernel.pid_in_use(image.pid)) {
      if (options.require_original_pid) {
        result.error = "original pid " + std::to_string(image.pid) +
                       " already in use on " + kernel.hostname;
        return result;
      }
      result.warnings.push_back("pid " + std::to_string(image.pid) +
                                " in use; restarted under a new pid");
    } else {
      desired = image.pid;
    }
  }

  sim::Pid pid;
  try {
    pid = kernel.create_restored_process(image.process_name, image.guest, desired);
  } catch (const std::exception& e) {
    result.error = e.what();
    return result;
  }
  sim::Process& proc = kernel.process(pid);
  restore_into_process(kernel, proc, image);

  for (const auto& f : image.files) {
    if (f.was_deleted) {
      result.warnings.push_back("file '" + f.path +
                                "' was deleted while open at checkpoint time");
    }
  }

  for (std::uint16_t port : image.bound_ports) {
    if (kernel.bind_port(port, pid)) {
      proc.bound_ports.push_back(port);
    } else {
      result.warnings.push_back("port " + std::to_string(port) + " already bound");
    }
  }

  kernel.resume_process(proc);
  result.ok = true;
  result.pid = pid;
  if (obs::Observer* observer = kernel.observer()) {
    observer->trace().instant(
        "restart.restored", "restart", static_cast<std::uint64_t>(pid),
        {obs::TraceArg::num("original_pid", static_cast<std::uint64_t>(image.pid)),
         obs::TraceArg::num("warnings", result.warnings.size())});
  }
  return result;
}

// ---------------------------------------------------------------------------
// CheckpointEngine
// ---------------------------------------------------------------------------

CheckpointEngine::CheckpointEngine(std::string name, storage::StorageBackend* backend,
                                   EngineOptions options)
    : name_(std::move(name)), backend_(backend), options_(std::move(options)) {
  if (backend_ == nullptr) throw std::invalid_argument("CheckpointEngine: null backend");
  if (options_.incremental && !options_.tracker_factory) {
    throw std::invalid_argument("CheckpointEngine: incremental requires a tracker factory");
  }
  if (!options_.streaming) return;
  if (options_.consistency != ConsistencyMode::kForkAndCopy) {
    throw std::invalid_argument(
        "CheckpointEngine: streaming requires kForkAndCopy consistency (the frozen "
        "shadow is the capture source the guest runs ahead of)");
  }
  stream_store_ = backend_->stream_target();
  if (stream_store_ == nullptr) {
    throw std::invalid_argument(
        "CheckpointEngine: streaming requires a flat (non-dedup) ReplicatedStore "
        "backend (the only store that takes an image chunk by chunk)");
  }
}

CheckpointEngine::~CheckpointEngine() = default;

bool CheckpointEngine::attach(sim::SimKernel& kernel, sim::Pid pid) {
  sim::Process* proc = kernel.find_process(pid);
  if (proc == nullptr || !proc->alive()) return false;
  ProcState& state = state_for(pid);
  if (options_.incremental && state.tracker == nullptr) {
    state.tracker = options_.tracker_factory();
    state.tracker->begin_interval(kernel, *proc);
  }
  state.attached = true;
  return true;
}

void CheckpointEngine::detach(sim::SimKernel& kernel, sim::Pid pid) {
  auto it = states_.find(pid);
  if (it == states_.end()) return;
  if (it->second->tracker != nullptr) {
    if (sim::Process* proc = kernel.find_process(pid)) {
      it->second->tracker->detach(*proc);
    }
  }
  it->second->attached = false;
}

CheckpointEngine::ProcState& CheckpointEngine::state_for(sim::Pid pid) {
  auto it = states_.find(pid);
  if (it == states_.end()) {
    it = states_.emplace(pid, std::make_unique<ProcState>(backend_)).first;
  }
  return *it->second;
}

const CheckpointEngine::ProcState* CheckpointEngine::find_state(sim::Pid pid) const {
  auto it = states_.find(pid);
  return it == states_.end() ? nullptr : it->second.get();
}

bool CheckpointEngine::is_complete(std::uint64_t ticket) const {
  auto it = tickets_.find(ticket);
  return it != tickets_.end() && it->second.has_value();
}

CheckpointResult CheckpointEngine::result(std::uint64_t ticket) const {
  auto it = tickets_.find(ticket);
  if (it == tickets_.end() || !it->second.has_value()) {
    CheckpointResult r;
    r.error = "ticket not complete";
    return r;
  }
  return *it->second;
}

CheckpointResult CheckpointEngine::request_checkpoint(sim::SimKernel& kernel, sim::Pid pid,
                                                      SimTime timeout) {
  const std::uint64_t ticket = request_checkpoint_async(kernel, pid);
  if (ticket == 0) {
    CheckpointResult r;
    r.error = name_ + ": external initiation refused";
    return r;
  }
  const SimTime deadline = kernel.now() + timeout;
  kernel.run_while([&] { return !is_complete(ticket); }, deadline);
  if (!is_complete(ticket)) {
    CheckpointResult r;
    r.error = name_ + ": checkpoint did not complete within timeout";
    return r;
  }
  return result(ticket);
}

std::uint64_t CheckpointEngine::checkpoints_taken(sim::Pid pid) const {
  const ProcState* state = find_state(pid);
  return state == nullptr ? 0 : state->taken;
}

const storage::CheckpointChain* CheckpointEngine::chain_of(sim::Pid original_pid) const {
  const ProcState* state = find_state(original_pid);
  return state == nullptr ? nullptr : &state->chain;
}

RestartResult CheckpointEngine::restart(sim::SimKernel& kernel, sim::Pid original_pid,
                                        const RestartOptions& options) {
  return restart_on(kernel, original_pid, options);
}

RestartResult CheckpointEngine::restart_on(sim::SimKernel& target_kernel,
                                           sim::Pid original_pid,
                                           const RestartOptions& options) {
  RestartResult result;
  obs::Observer* observer = target_kernel.observer();
  obs::SpanGuard span(obs::tracer(observer), "restart", "restart", obs::kControlTrack,
                      {obs::TraceArg::str("engine", name_),
                       obs::TraceArg::num("pid", static_cast<std::uint64_t>(original_pid))});
  const ProcState* state = find_state(original_pid);
  if (state == nullptr || state->chain.length() == 0) {
    result.error = name_ + ": no checkpoints recorded for pid " +
                   std::to_string(original_pid);
    span.end({obs::TraceArg::str("outcome", "no-chain")});
    if (observer != nullptr) observer->metrics().add("restart.failed");
    return result;
  }
  auto charge = [&](SimTime t) { target_kernel.charge_time(t); };
  // Load with the same bounded retry as the store path: a restart racing a
  // transient storage outage waits it out instead of refusing.
  std::optional<storage::CheckpointImage> image;
  retry_under(options_.store_retry, static_cast<std::uint64_t>(original_pid) ^ 0x10AD, charge,
              [&] {
                image = options.fall_back_to_older_images
                            ? state->chain.reconstruct_newest_surviving(charge)
                            : state->chain.reconstruct(charge);
                return image.has_value();
              });
  if (!image.has_value()) {
    result.error = name_ + ": checkpoint chain unreadable (storage lost or corrupt)";
    span.end({obs::TraceArg::str("outcome", "chain-unreadable")});
    if (observer != nullptr) observer->metrics().add("restart.failed");
    return result;
  }
  result = restart_from_image(target_kernel, *image, options);
  span.end({obs::TraceArg::str("outcome", result.ok ? "ok" : "restore-failed"),
            obs::TraceArg::num("sequence", image->sequence)});
  if (observer != nullptr) {
    observer->metrics().add(result.ok ? "restart.completed" : "restart.failed");
  }
  return result;
}

CheckpointResult CheckpointEngine::perform_kernel_checkpoint(sim::SimKernel& kernel,
                                                             sim::Process& proc,
                                                             SimTime initiated_at) {
  CheckpointResult result;
  result.initiated_at = initiated_at;
  result.started_at = kernel.now();
  const SimTime charge_before = kernel.step_charge();
  // effective_now() advances whether the engine runs inside a guest step
  // (syscall/signal engines: step_charge accrues) or between steps (direct
  // requests: the clock itself moves) — the only origin valid for both.
  const SimTime pause_origin = kernel.effective_now();

  obs::Observer* observer = kernel.observer();
  obs::TraceRecorder* trace = obs::tracer(observer);
  const std::uint64_t track = static_cast<std::uint64_t>(proc.pid);
  if (trace != nullptr) {
    // The request may have waited for a delivery point (signal engines) or a
    // kernel-thread wakeup; render that deferral as a retroactive span.
    const SimTime started = kernel.effective_now();
    if (started > initiated_at) {
      trace->begin_at(initiated_at, "deferral", "ckpt", track);
      trace->end_at(started, "deferral", track);
    }
    trace->begin("checkpoint", "ckpt", track,
                 {obs::TraceArg::str("engine", name_),
                  obs::TraceArg::str("consistency", to_string(options_.consistency)),
                  obs::TraceArg::num("pid", static_cast<std::uint64_t>(proc.pid))});
  }

  ProcState& state = state_for(proc.pid);
  const CapturePlan next = plan_capture(kernel, proc, state);
  const CaptureOptions& capture = next.options;

  // Consistency.
  sim::Process* capture_target = &proc;
  ShadowReaper shadow{kernel};
  const bool was_runnable = proc.runnable();
  {
    obs::SpanGuard quiesce(trace, "quiesce", "ckpt", track);
    switch (options_.consistency) {
      case ConsistencyMode::kStopTarget:
        kernel.stop_process(proc);
        break;
      case ConsistencyMode::kForkAndCopy:
        shadow.pid = kernel.fork_process(proc, /*freeze_child=*/true);
        capture_target = &kernel.process(shadow.pid);
        break;
      case ConsistencyMode::kConcurrent:
        break;  // no protection — the hazard the survey warns about
    }
  }
  if (options_.consistency == ConsistencyMode::kForkAndCopy) {
    // The application is schedulable again right here: its pause was only
    // the fork's page-table walk, not the capture+store that follows.
    result.pause_ns = kernel.effective_now() - pause_origin;
  }

  const bool streamed = stream_store_ != nullptr;

  if (trace != nullptr) trace->begin("capture", "ckpt", track);
  storage::CheckpointImage image;
  // Streaming commit: metadata and the page plan come off the frozen shadow
  // up front; page payloads are encoded in fixed-size chunks and appended to
  // the replicas as they are produced (store_streamed).
  struct StreamPiece {
    std::size_t seg = 0;
    std::size_t first = 0;
    std::size_t count = 0;
    bool lead = false;
  };
  std::vector<StreamPiece> pieces;
  std::vector<std::vector<DirtyRange>> seg_entries;
  storage::CheckpointChain::StoreFn stream_fn;
  if (streamed) {
    capture_image_metadata(kernel, *capture_target, capture, image);
    auto plan = build_capture_plan(*capture_target, capture, image);
    // The shadow is frozen, but the plan may still list pages without a PTE
    // (never touched); prune them here — deterministically, on the caller —
    // exactly as the classic copier skips them.
    std::erase_if(plan, [&](const std::pair<std::size_t, DirtyRange>& entry) {
      return capture_target->aspace->pte(entry.second.page) == nullptr;
    });
    // One address-space switch maps the shadow for reading (the classic
    // path charges the same on its first page read).
    kernel.charge_time(kernel.costs().addr_space_switch_ns, sim::ChargeKind::kCompute);

    // Partition the plan into chunks.  The split depends only on the plan
    // and kStreamChunkPages — never on worker count — and the chunk
    // concatenation is byte-identical to the classic encode_segment stream:
    // each segment's lead chunk carries its VMA header and page count.
    const std::size_t seg_count = image.segments.size();
    seg_entries.resize(seg_count);
    for (const auto& [seg_idx, range] : plan) {
      seg_entries[seg_idx].push_back(range);
      result.payload_bytes += std::min<std::uint32_t>(range.length, sim::kPageSize - range.offset);
    }
    result.pages = plan.size();
    for (std::size_t s = 0; s < seg_count; ++s) {
      const std::size_t entries = seg_entries[s].size();
      std::size_t first = 0;
      bool lead = true;
      do {
        const std::size_t take =
            std::min<std::size_t>(kStreamChunkPages, entries - first);
        pieces.push_back(StreamPiece{s, first, take, lead});
        lead = false;
        first += take;
      } while (first < entries);
    }

    const auto produce = [&](std::size_t i) {
      const StreamPiece& piece = pieces[i];
      storage::ReplicatedStore::StreamChunk chunk;
      util::Serializer s;
      if (piece.lead) {
        storage::encode_image_vma(s, image.segments[piece.seg].vma);
        s.put(static_cast<std::uint64_t>(seg_entries[piece.seg].size()));
      }
      for (std::size_t e = piece.first; e < piece.first + piece.count; ++e) {
        const DirtyRange& range = seg_entries[piece.seg][e];
        const std::uint32_t length =
            std::min<std::uint32_t>(range.length, sim::kPageSize - range.offset);
        s.put(range.page);
        s.put(range.offset);
        s.put_bytes(
            capture_target->aspace->page_data(range.page).subspan(range.offset, length));
        chunk.capture_ns += kernel.costs().mem_copy_cost(length);
      }
      chunk.bytes = std::move(s).take();
      return chunk;
    };
    // append_via assigns sequence/parent before the prelude is encoded; a
    // failed streamed store never advances the chain, so re-running the
    // whole stream under the retry policy is safe.
    stream_fn = [&, produce](const storage::CheckpointImage& img) {
      storage::ReplicatedStore::StreamSource source;
      util::Serializer prelude;
      storage::encode_image_prelude(prelude, img);
      source.prelude = std::move(prelude).take();
      util::Serializer trailer;
      storage::encode_image_trailer(trailer, img);
      source.trailer = std::move(trailer).take();
      source.chunk_count = pieces.size();
      source.produce = produce;
      return stream_store_->store_streamed(source, [&](SimTime t) { kernel.charge_time(t); }).id;
    };
  } else {
    image = capture_kernel_level(kernel, *capture_target, capture);
    result.payload_bytes = image.payload_bytes();
    result.pages = image.page_count();
  }
  // The image describes the *application*, not the shadow copy.
  image.pid = proc.pid;
  image.process_name = proc.name;
  image.guest = proc.guest_image;
  image.kind = next.kind;
  result.kind = image.kind;
  if (trace != nullptr) {
    trace->end("capture", track,
               {obs::TraceArg::str("kind", to_string(result.kind)),
                obs::TraceArg::num("pages", result.pages),
                obs::TraceArg::num("bytes", result.payload_bytes)});
    if (streamed) {
      trace->begin("store", "ckpt", track, {obs::TraceArg::num("streamed", 1)});
    } else {
      trace->begin("store", "ckpt", track);
    }
  }

  // The clock freezes inside a scheduling step; the checkpoint's duration
  // is the time charged against the executing context up to the release.
  SimTime consumed = 0;
  const auto settle = [&] {
    if (trace != nullptr) {
      std::vector<obs::TraceArg> args{obs::TraceArg::num("image_id", result.image_id),
                                      obs::TraceArg::num("retries", result.store_retries)};
      if (streamed) args.push_back(obs::TraceArg::num("chunks", pieces.size()));
      trace->end("store", track, std::move(args));
    }
    // Reap the shadow here on the normal paths (the ShadowReaper backstops
    // early returns and exceptions, so no exit can leak it).
    shadow.reap_now();
    if (options_.consistency == ConsistencyMode::kStopTarget) {
      // Stop-the-world pays for everything between stop and resume.
      result.pause_ns = kernel.effective_now() - pause_origin;
      if (was_runnable) kernel.resume_process(proc);
    }
    consumed = kernel.step_charge() - charge_before;
  };
  const CommitPoint committed =
      store_step(kernel, state, proc.pid, &proc, std::move(image), stream_fn, result, settle);
  result.completed_at = committed.clock + consumed;
  if (trace != nullptr) {
    trace->end("checkpoint", track,
               {obs::TraceArg::str("outcome", result.ok ? "ok" : "store-failed"),
                obs::TraceArg::num("pause_ns", result.pause_ns)});
  }
  if (observer != nullptr) {
    obs::MetricsRegistry& metrics = observer->metrics();
    record_outcome(metrics, result);
    metrics.add("ckpt.store_retries", result.store_retries);
    metrics.observe("ckpt.pause_ns", result.pause_ns, obs::MetricsRegistry::latency_bounds());
    if (result.ok && result.kind == storage::ImageKind::kIncremental) {
      const std::uint64_t total = mapped_pages(proc);
      if (total > 0) {
        metrics.observe("ckpt.dirty_ratio_pct", result.pages * 100 / total,
                        obs::MetricsRegistry::percent_bounds());
      }
    }
  }
  if (result.ok) {
    util::logf(util::LogLevel::kDebug, "engine", "%s: checkpointed pid %d (%s, %llu bytes)",
               name_.c_str(), proc.pid, to_string(result.kind),
               static_cast<unsigned long long>(result.payload_bytes));
  }
  return result;
}

void CheckpointEngine::record_outcome(obs::MetricsRegistry& metrics,
                                      const CheckpointResult& result) {
  if (!result.ok) {
    metrics.add("ckpt.failed");
    return;
  }
  metrics.add("ckpt.completed");
  metrics.add(result.kind == storage::ImageKind::kIncremental ? "ckpt.incremental"
                                                              : "ckpt.full");
  metrics.add("ckpt.bytes_captured", result.payload_bytes);
  metrics.observe("ckpt.total_latency_ns", result.completed_at - result.initiated_at,
                  obs::MetricsRegistry::latency_bounds());
  metrics.observe("ckpt.initiation_latency_ns", result.started_at - result.initiated_at,
                  obs::MetricsRegistry::latency_bounds());
  metrics.observe("ckpt.image_bytes", result.payload_bytes,
                  obs::MetricsRegistry::size_bounds());
}

CheckpointEngine::CapturePlan CheckpointEngine::plan_capture(sim::SimKernel& kernel,
                                                             sim::Process& proc,
                                                             ProcState& state) {
  CapturePlan plan{options_.capture};
  if (options_.incremental && state.tracker != nullptr && state.taken > 0 &&
      (options_.full_every == 0 || state.taken % options_.full_every != 0)) {
    plan.kind = storage::ImageKind::kIncremental;
    plan.options.ranges = state.tracker->collect(kernel, proc);
  }
  return plan;
}

CheckpointEngine::CommitPoint CheckpointEngine::store_step(
    sim::SimKernel& kernel, ProcState& state, sim::Pid pid, sim::Process* proc,
    storage::CheckpointImage&& image, const storage::CheckpointChain::StoreFn& stream_fn,
    CheckpointResult& result, const std::function<void()>& settle) {
  auto charge = [&](SimTime t) { kernel.charge_time(t); };
  const storage::CheckpointChain::StoreFn classic = [&](const storage::CheckpointImage& img) {
    return backend_->store(img, charge);
  };
  const storage::CheckpointChain::StoreFn& store_fn = stream_fn ? stream_fn : classic;

  // Store with bounded retry: a transient StoreFault (rejection, outage
  // window) costs backoff time instead of a lost checkpoint.  A failed
  // append never advances the chain, so re-appending is safe.
  result.store_retries =
      retry_under(options_.store_retry, (static_cast<std::uint64_t>(pid) << 20) ^ state.taken,
                  charge, [&] {
                    result.image_id = state.chain.append_via(image, store_fn);
                    return result.image_id != storage::kBadImageId;
                  });
  result.ok = result.image_id != storage::kBadImageId;
  if (!result.ok) result.error = name_ + ": storage backend rejected the image";
  const storage::ImageKind kind = image.kind;
  image = storage::CheckpointImage{};
  if (settle) settle();
  if (result.ok) {
    ++state.taken;
    if (state.tracker != nullptr && proc != nullptr) state.tracker->begin_interval(kernel, *proc);
  }
  const CommitPoint committed{kernel.now(), kernel.step_charge()};
  if (!result.ok) return committed;

  obs::Observer* observer = kernel.observer();
  obs::TraceRecorder* trace = obs::tracer(observer);
  const std::uint64_t track = static_cast<std::uint64_t>(pid);
  // A fresh full image is the one moment pruning can pay off: everything
  // before the newest verified full image leaves the fallback-keep set, and
  // chunk GC can then return the bytes only those images referenced.
  if (options_.prune_after_full && kind == storage::ImageKind::kFull &&
      state.chain.length() > 1) {
    obs::SpanGuard prune_span(trace, "prune", "ckpt", track);
    const std::size_t before = state.chain.length();
    state.chain.prune(charge);
    std::uint64_t chunks_freed = 0;
    std::uint64_t bytes_freed = 0;
    if (auto* reclaimable = dynamic_cast<storage::ChunkReclaimable*>(backend_)) {
      const storage::GcReport report = reclaimable->gc(charge);
      chunks_freed = report.chunks_freed;
      bytes_freed = report.bytes_freed;
    }
    if (observer != nullptr) {
      obs::MetricsRegistry& metrics = observer->metrics();
      metrics.add("gc.runs");
      metrics.add("gc.images_pruned", before - state.chain.length());
      metrics.add("gc.chunks_freed", chunks_freed);
      metrics.add("gc.bytes_freed", bytes_freed);
    }
  }
  return committed;
}

std::uint64_t CheckpointEngine::record_result(CheckpointResult result) {
  const std::uint64_t ticket = new_ticket();
  history_.push_back(result);
  tickets_[ticket] = std::move(result);
  return ticket;
}

std::uint64_t CheckpointEngine::new_ticket() { return next_ticket_++; }

void CheckpointEngine::record_pending(std::uint64_t ticket) {
  tickets_.emplace(ticket, std::nullopt);
}

void CheckpointEngine::complete_ticket(std::uint64_t ticket, CheckpointResult result) {
  history_.push_back(result);
  tickets_[ticket] = std::move(result);
}

}  // namespace ckpt::core
