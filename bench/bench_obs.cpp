// Observability overhead: the commit pipeline with a live Observer (trace +
// metrics) vs the identical pipeline with observability disabled (null
// Observer*, the default), plus a third arm that layers the full fleet
// observability stack on top — flight-recorder black-box brackets persisted
// through a log-structured journal around every commit, per-node metrics,
// and a periodic telemetry rollup.  The instrumentation discipline — one
// pointer test per hook when disabled, ledgered replay on the caller when
// enabled — is only honest if the enabled paths stay within noise, so the
// gate requires < 2% throughput overhead for BOTH arms on the
// large-image 3-way 4-worker commit loop.
//
// Host wall-clock only.  Emits BENCH_obs.json (path = argv[1], default
// ./BENCH_obs.json) and exits non-zero when either arm exceeds 2%.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "obs/flightrec.hpp"
#include "obs/observer.hpp"
#include "obs/rollup.hpp"
#include "storage/backend.hpp"
#include "storage/image.hpp"
#include "storage/journal.hpp"
#include "storage/replicated.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

using namespace ckpt;

namespace {

storage::CheckpointImage make_image(std::size_t segments, std::uint64_t pages_per_segment,
                                    std::uint64_t seed) {
  util::Rng rng(seed);
  storage::CheckpointImage image;
  image.kind = storage::ImageKind::kFull;
  image.pid = 7;
  image.process_name = "bench";
  image.taken_at = seed;
  image.threads.push_back(storage::ThreadImage{1, {}});
  for (std::size_t s = 0; s < segments; ++s) {
    storage::MemorySegmentImage seg;
    seg.vma = sim::Vma{sim::page_of(0x100000 + (s << 20)), pages_per_segment,
                       sim::kProtRW, sim::VmaKind::kData, "seg" + std::to_string(s)};
    for (std::uint64_t p = 0; p < pages_per_segment; ++p) {
      storage::PageImage page;
      page.page = seg.vma.first_page + p;
      page.data.resize(sim::kPageSize);
      for (std::size_t i = 0; i < page.data.size(); i += 8) {
        const std::uint64_t word = rng.next_u64();
        for (std::size_t b = 0; b < 8 && i + b < page.data.size(); ++b) {
          page.data[i + b] = static_cast<std::byte>(word >> (8 * b));
        }
      }
      seg.pages.push_back(std::move(page));
    }
    image.segments.push_back(std::move(seg));
  }
  return image;
}

struct ReplicaSet {
  sim::CostModel costs{};
  storage::LocalDiskBackend local{costs};
  std::vector<std::unique_ptr<storage::RemoteBackend>> remotes;
  std::vector<storage::BlobStoreBackend*> replicas;

  explicit ReplicaSet(std::uint32_t width) {
    replicas.push_back(&local);
    for (std::uint32_t i = 1; i < width; ++i) {
      remotes.push_back(std::make_unique<storage::RemoteBackend>(costs));
      replicas.push_back(remotes.back().get());
    }
  }
};

template <typename Fn>
double seconds_per_commit(int iters, Fn&& commit) {
  commit();  // warmup
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) commit();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return elapsed.count() / iters;
}

double measure(const storage::CheckpointImage& image, util::ThreadPool& pool,
               obs::Observer* observer, int iters) {
  ReplicaSet set(3);
  storage::ReplicatedOptions options;
  options.pool = &pool;
  options.observer = observer;
  storage::ReplicatedStore store(set.replicas, options);
  return seconds_per_commit(iters, [&] {
    const storage::StoreReceipt receipt = store.store_verbose(image, nullptr);
    if (!receipt.ok()) {
      std::fprintf(stderr, "commit failed?!\n");
      std::exit(1);
    }
    store.erase(receipt.id);
    // A long-lived deployment drains the trace between checkpoints; clear
    // per commit so memory growth never masquerades as tracing cost.
    if (observer != nullptr) observer->reset();
  });
}

// The fleet-soak per-commit observability recipe: bracket the commit with
// flight-recorder spans, persist the black box through the journal before
// and after (the crash-surviving protocol), fold per-node metrics, and
// refresh the telemetry rollup every 8th commit.
double measure_flight(const storage::CheckpointImage& image, util::ThreadPool& pool,
                      obs::Observer* observer, int iters) {
  ReplicaSet set(3);
  storage::ReplicatedOptions options;
  options.pool = &pool;
  options.observer = observer;
  storage::ReplicatedStore store(set.replicas, options);

  sim::CostModel costs;
  storage::LocalDiskBackend journal_home(costs);
  storage::JournalOptions joptions;
  joptions.observer = observer;
  storage::LogStructuredBackend journal(&journal_home, joptions);
  const auto charge = [](SimTime) {};

  obs::FlightRecorder flight;
  obs::MetricsRegistry node_metrics;
  obs::FleetTelemetry telemetry;
  std::uint64_t seq = 0;
  std::string rollup;
  return seconds_per_commit(iters, [&] {
    ++seq;
    const SimTime now = static_cast<SimTime>(seq) * 1000;
    flight.span_begin(now, "commit", seq);
    if (!journal.append_flight_record(0, flight.serialize(), charge)) {
      std::fprintf(stderr, "flight append failed?!\n");
      std::exit(1);
    }
    const storage::StoreReceipt receipt = store.store_verbose(image, nullptr);
    if (!receipt.ok()) {
      std::fprintf(stderr, "commit failed?!\n");
      std::exit(1);
    }
    flight.span_end(now + 500, "commit", seq);
    flight.counter(now + 500, "commits", seq);
    node_metrics.add("node.commits");
    node_metrics.observe("node.commit_latency_ns", 500,
                         obs::MetricsRegistry::latency_bounds());
    if (!journal.append_flight_record(0, flight.serialize(), charge)) {
      std::fprintf(stderr, "flight append failed?!\n");
      std::exit(1);
    }
    if (seq % 8 == 0) {
      telemetry.ingest(0, node_metrics);
      rollup = telemetry.rollup_json("node.commit_latency_ns");
    }
    store.erase(receipt.id);
    if (observer != nullptr) observer->reset();
  });
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_obs.json";
  bench::print_header(
      "bench_obs -- lifecycle tracing + metrics overhead on the commit pipeline",
      "a null Observer* must cost one pointer test; an attached Observer — and "
      "the full flight-recorder + journal + rollup stack — must each stay < 2% "
      "on large 3-way 4-worker commits");

  const storage::CheckpointImage image = make_image(32, 64, 0xBE7C);  // ~8 MiB
  util::ThreadPool pool(4);
  constexpr int kIters = 8;

  obs::Observer observer;
  observer.set_clock([] { return SimTime{0}; });

  // Interleave A/B/C/A to split turbo/cache drift across the arms.
  const double off_a = measure(image, pool, nullptr, kIters);
  const double on = measure(image, pool, &observer, kIters);
  const double flight = measure_flight(image, pool, &observer, kIters);
  const double off_b = measure(image, pool, nullptr, kIters);
  const double off = std::min(off_a, off_b);
  const double overhead_pct = (on / off - 1.0) * 100.0;
  const double flight_overhead_pct = (flight / off - 1.0) * 100.0;

  // Count the events one observed commit records.
  {
    ReplicaSet set(3);
    storage::ReplicatedOptions options;
    options.pool = &pool;
    options.observer = &observer;
    storage::ReplicatedStore store(set.replicas, options);
    observer.reset();
    const storage::StoreReceipt receipt = store.store_verbose(image, nullptr);
    if (!receipt.ok()) return 1;
    store.erase(receipt.id);
  }
  const std::size_t events_per_commit = observer.trace().events().size();

  util::TextTable table({"observer", "s/commit", "commits/s"});
  table.add_row({"disabled", util::format_double(off, 6),
                 util::format_double(1.0 / off, 2)});
  table.add_row({"enabled", util::format_double(on, 6),
                 util::format_double(1.0 / on, 2)});
  table.add_row({"enabled+flight", util::format_double(flight, 6),
                 util::format_double(1.0 / flight, 2)});
  bench::print_table(table);
  std::printf("events per observed commit: %zu\n", events_per_commit);
  std::printf("enabled-tracing overhead: %.3f%%\n", overhead_pct);
  std::printf("flight+rollup overhead: %.3f%%\n", flight_overhead_pct);

  bench::Report report("bench_obs");
  report.put("secs_per_commit_disabled", off, 6)
      .put("secs_per_commit_enabled", on, 6)
      .put("secs_per_commit_flight", flight, 6)
      .put("events_per_commit", events_per_commit)
      .put("overhead_pct", overhead_pct, 4)
      .put("flight_overhead_pct", flight_overhead_pct, 4);
  report.gate("overhead_pct", overhead_pct, bench::Op::kLt, 2.0)
      .gate("flight_overhead_pct", flight_overhead_pct, bench::Op::kLt, 2.0);
  return report.finish(json_path,
                       "trace+metrics AND flight-recorder+rollups stay under 2% "
                       "commit overhead");
}
