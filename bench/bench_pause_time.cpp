// P2 (§4.1) — guest-visible pause of a checkpoint commit: stop-the-world
// pays capture + encode + replica fan-out inside the pause window, while the
// fork-snapshot streaming path pays only the fork's page-table walk and
// overlaps everything else with guest execution.
//
// Sweeps image size × dirty rate, reporting the guest-visible pause and the
// end-to-end commit latency for both strategies, then checks that the
// streamed commit is byte-identical on 1 vs 8 pool workers.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/systemlevel.hpp"
#include "storage/replicated.hpp"
#include "util/threadpool.hpp"

using namespace ckpt;

namespace {

/// One self-contained world: kernel, two replicas, a flat ReplicatedStore and
/// a by-pid SyscallEngine in the requested consistency mode.
struct World {
  sim::SimKernel kernel;
  storage::LocalDiskBackend local;
  storage::RemoteBackend remote;
  std::optional<util::ThreadPool> pool;
  std::optional<storage::ReplicatedStore> store;
  std::optional<core::SyscallEngine> engine;
  sim::Pid pid = sim::kNoPid;

  World(core::ConsistencyMode mode, bool streaming, std::uint32_t workers = 0)
      : kernel(2, sim::CostModel{}, /*seed=*/0x57),
        local(kernel.costs()),
        remote(kernel.costs()) {
    storage::ReplicatedOptions repl_options;
    if (workers > 0) {
      pool.emplace(workers);
      repl_options.pool = &*pool;
    }
    store.emplace(std::vector<storage::BlobStoreBackend*>{&local, &remote},
                  repl_options);
    core::EngineOptions engine_options;
    engine_options.consistency = mode;
    engine_options.streaming = streaming;
    // Incremental with a pte-scan tracker: the first commit is the full
    // image (pause scales with image size), the second a delta (pause
    // scales with the dirty rate) — both swept below.
    engine_options.incremental = true;
    engine_options.tracker_factory = [] {
      return std::make_unique<core::PteScanTracker>();
    };
    engine.emplace("pause_bench", &*store, engine_options, kernel,
                   core::SyscallEngine::TargetMode::kByPid, nullptr);
  }

  void launch_and_run(std::uint64_t array_bytes, std::uint64_t writes_per_step) {
    sim::WriterConfig config;
    config.array_bytes = array_bytes;
    config.writes_per_step = writes_per_step;
    config.seed = 3;
    pid = kernel.spawn(sim::DenseWriterGuest::kTypeName, config.encode(),
                       sim::spawn_options_for_array(array_bytes));
    engine->attach(kernel, pid);  // arms the dirty tracker for delta commits
    kernel.run_while(
        [&] { return kernel.process(pid).stats.guest_iterations < 30; },
        kernel.now() + 10 * kSecond);
  }
};

struct Sample {
  SimTime stop_pause = 0;
  SimTime stream_pause = 0;
  SimTime stop_total = 0;
  SimTime stream_total = 0;
  double reduction = 0;
};

struct Point {
  std::uint64_t array_bytes = 0;
  std::uint64_t writes_per_step = 0;
  Sample full;   ///< first commit: the whole image
  Sample delta;  ///< second commit: only pages dirtied since
};

Point run_point(std::uint64_t array_bytes, std::uint64_t writes_per_step) {
  Point point;
  point.array_bytes = array_bytes;
  point.writes_per_step = writes_per_step;

  // Two commits per world: the full image, then — after another run of
  // guest steps — the incremental delta whose size tracks the dirty rate.
  const auto commit_twice = [&](World& world, Sample& full, Sample& delta,
                                bool stream) {
    world.launch_and_run(array_bytes, writes_per_step);
    const core::CheckpointResult first =
        world.engine->request_checkpoint(world.kernel, world.pid);
    if (!first.ok) return false;
    (stream ? full.stream_pause : full.stop_pause) = first.pause_ns;
    (stream ? full.stream_total : full.stop_total) = first.total_latency();
    const std::uint64_t more = world.kernel.process(world.pid).stats.guest_iterations + 20;
    world.kernel.run_while(
        [&] { return world.kernel.process(world.pid).stats.guest_iterations < more; },
        world.kernel.now() + 10 * kSecond);
    const core::CheckpointResult second =
        world.engine->request_checkpoint(world.kernel, world.pid);
    if (!second.ok) return false;
    (stream ? delta.stream_pause : delta.stop_pause) = second.pause_ns;
    (stream ? delta.stream_total : delta.stop_total) = second.total_latency();
    return true;
  };

  World stop(core::ConsistencyMode::kStopTarget, /*streaming=*/false);
  World stream(core::ConsistencyMode::kForkAndCopy, /*streaming=*/true);
  if (!commit_twice(stop, point.full, point.delta, false)) return point;
  if (!commit_twice(stream, point.full, point.delta, true)) return point;
  for (Sample* s : {&point.full, &point.delta}) {
    if (s->stream_pause > 0) {
      s->reduction =
          static_cast<double>(s->stop_pause) / static_cast<double>(s->stream_pause);
    }
  }
  return point;
}

/// Streamed commit on one worker vs eight: image id, replica bytes, pause and
/// sim-time must all be identical (chunking is fixed by kStreamChunkPages,
/// never by pool width).
bool identical_1v8(std::uint64_t array_bytes, std::uint64_t writes_per_step) {
  World one(core::ConsistencyMode::kForkAndCopy, /*streaming=*/true, 1);
  World eight(core::ConsistencyMode::kForkAndCopy, /*streaming=*/true, 8);
  one.launch_and_run(array_bytes, writes_per_step);
  eight.launch_and_run(array_bytes, writes_per_step);
  const core::CheckpointResult a = one.engine->request_checkpoint(one.kernel, one.pid);
  const core::CheckpointResult b =
      eight.engine->request_checkpoint(eight.kernel, eight.pid);
  if (!a.ok || !b.ok) return false;
  if (a.image_id != b.image_id || a.pause_ns != b.pause_ns ||
      a.total_latency() != b.total_latency() ||
      one.kernel.now() != eight.kernel.now()) {
    return false;
  }
  const auto local_a = one.local.read_blob(a.image_id, nullptr);
  const auto local_b = eight.local.read_blob(b.image_id, nullptr);
  const auto remote_a = one.remote.read_blob(a.image_id, nullptr);
  const auto remote_b = eight.remote.read_blob(b.image_id, nullptr);
  return local_a.has_value() && local_b.has_value() && *local_a == *local_b &&
         remote_a.has_value() && remote_b.has_value() && *remote_a == *remote_b;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_pause.json";
  sim::register_standard_guests();
  bench::print_header(
      "P2 -- guest-visible pause: stop-the-world vs streaming fork-snapshot",
      "\"An alternative approach consists in forking the application and "
      "leave it running\" (section 4.1) -- the pause shrinks to the fork's "
      "page-table walk while capture/encode/fan-out overlap execution");

  const std::vector<std::uint64_t> sizes = {64 * 1024, 512 * 1024,
                                            4 * 1024 * 1024};
  const std::vector<std::uint64_t> dirty_rates = {2, 32};

  std::vector<Point> points;
  util::TextTable table({"image", "writes/step", "commit", "stop pause",
                         "stream pause", "reduction", "stop commit",
                         "stream commit"});
  const auto add_sample_row = [&table](const Point& p, const char* kind,
                                       const Sample& s) {
    char reduction[32];
    std::snprintf(reduction, sizeof reduction, "%.1fx", s.reduction);
    table.add_row({util::format_bytes(p.array_bytes),
                   std::to_string(p.writes_per_step), kind,
                   util::format_time_ns(s.stop_pause),
                   util::format_time_ns(s.stream_pause), reduction,
                   util::format_time_ns(s.stop_total),
                   util::format_time_ns(s.stream_total)});
  };
  for (const std::uint64_t bytes : sizes) {
    for (const std::uint64_t writes : dirty_rates) {
      const Point p = run_point(bytes, writes);
      points.push_back(p);
      add_sample_row(p, "full", p.full);
      add_sample_row(p, "delta", p.delta);
    }
  }
  bench::print_table(table);

  // The gated figure: pause reduction at the largest swept image (worst case
  // for stop-the-world, best case for the claim), min over dirty rates and
  // over full-vs-delta commits.
  double reduction_large = 0;
  for (const Point& p : points) {
    if (p.array_bytes != sizes.back()) continue;
    for (const Sample* s : {&p.full, &p.delta}) {
      reduction_large = reduction_large == 0
                            ? s->reduction
                            : std::min(reduction_large, s->reduction);
    }
  }
  const bool deterministic = identical_1v8(sizes.back(), dirty_rates.back());
  bench::Report report("bench_pause_time");
  std::vector<bench::Fields> rows;
  for (const Point& p : points) {
    for (const auto& [kind, s] : {std::pair{"full", &p.full}, std::pair{"delta", &p.delta}}) {
      rows.push_back(bench::Fields()
                         .put("image_bytes", p.array_bytes)
                         .put("writes_per_step", p.writes_per_step)
                         .put("commit", kind)
                         .put("stop_pause_ns", s->stop_pause)
                         .put("stream_pause_ns", s->stream_pause)
                         .put("pause_reduction", s->reduction, 4)
                         .put("stop_commit_ns", s->stop_total)
                         .put("stream_commit_ns", s->stream_total));
    }
  }
  report.put("identical_1v8", deterministic)
      .put("pause_reduction_large", reduction_large, 4)
      .put("points", rows);
  report.gate("identical_1v8", deterministic)
      .gate("pause_reduction_large", reduction_large, bench::Op::kGe, 10.0);
  return report.finish(
      json_path,
      "fork-snapshot streaming cuts the guest-visible pause by >= 10x at the "
      "largest image while staying byte-identical for any worker count");
}
