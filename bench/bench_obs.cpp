// Observability overhead: the commit pipeline with a live Observer (trace +
// metrics) vs the identical pipeline with observability disabled (null
// Observer*, the default), plus a third arm that layers the full fleet
// observability stack on top — flight-recorder black-box brackets persisted
// through a log-structured journal around every commit, per-node metrics,
// and a periodic telemetry rollup.  The instrumentation discipline — one
// pointer test per hook when disabled, ledgered replay on the caller when
// enabled — is only honest if the enabled paths stay within noise, so the
// gate requires < 2% throughput overhead for BOTH arms on the
// large-image 3-way 4-worker commit loop.  The three arms are built once and
// commit in rotating order, one commit each per round.  Each overhead is
// the median over rounds of the paired ratio t_arm[r] / t_disabled[r] - 1,
// so a slow stretch of a shared host cancels inside the round it hits
// instead of shifting one arm's median.
//
// Host wall-clock only.  Emits BENCH_obs.json (path = argv[1], default
// ./BENCH_obs.json) and exits non-zero when either arm exceeds 2%.
#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
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

storage::ReplicatedOptions store_options(util::ThreadPool& pool, obs::Observer* observer) {
  storage::ReplicatedOptions options;
  options.pool = &pool;
  options.observer = observer;
  return options;
}

/// A 3-way store committing `image` and erasing it again, with `observer`
/// attached (nullptr: observability disabled).
struct CommitArm {
  const storage::CheckpointImage& image;
  obs::Observer* observer;
  ReplicaSet set{3};
  storage::ReplicatedStore store;

  CommitArm(const storage::CheckpointImage& image_in, util::ThreadPool& pool,
            obs::Observer* observer_in)
      : image(image_in), observer(observer_in),
        store(set.replicas, store_options(pool, observer_in)) {}

  void commit() {
    const storage::StoreReceipt receipt = store.store_verbose(image, nullptr);
    if (!receipt.ok()) {
      std::fprintf(stderr, "commit failed?!\n");
      std::exit(1);
    }
    store.erase(receipt.id);
    // A long-lived deployment drains the trace between checkpoints; clear
    // per commit so memory growth never masquerades as tracing cost.
    if (observer != nullptr) observer->reset();
  }
};

/// The fleet-soak per-commit observability recipe around a CommitArm:
/// bracket the commit with flight-recorder spans, persist the black box
/// through the journal before and after (the crash-surviving protocol),
/// fold per-node metrics, and refresh the telemetry rollup every 8th commit.
struct FlightArm {
  CommitArm inner;
  sim::CostModel costs;
  storage::LocalDiskBackend journal_home{costs};
  storage::LogStructuredBackend journal;
  obs::FlightRecorder flight;
  obs::MetricsRegistry node_metrics;
  obs::FleetTelemetry telemetry;
  std::uint64_t seq = 0;
  std::string rollup;

  static storage::JournalOptions journal_options(obs::Observer* observer) {
    storage::JournalOptions options;
    options.observer = observer;
    return options;
  }

  FlightArm(const storage::CheckpointImage& image, util::ThreadPool& pool,
            obs::Observer* observer)
      : inner(image, pool, observer), journal(&journal_home, journal_options(observer)) {}

  void persist() {
    if (!journal.append_flight_record(0, flight.serialize(), [](SimTime) {})) {
      std::fprintf(stderr, "flight append failed?!\n");
      std::exit(1);
    }
  }

  void commit() {
    ++seq;
    const SimTime now = static_cast<SimTime>(seq) * 1000;
    flight.span_begin(now, "commit", seq);
    persist();
    inner.commit();
    flight.span_end(now + 500, "commit", seq);
    flight.counter(now + 500, "commits", seq);
    node_metrics.add("node.commits");
    node_metrics.observe("node.commit_latency_ns", 500,
                         obs::MetricsRegistry::latency_bounds());
    persist();
    if (seq % 8 == 0) {
      telemetry.ingest(0, node_metrics);
      rollup = telemetry.rollup_json("node.commit_latency_ns");
    }
  }
};

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

  obs::Observer observer;
  observer.set_clock([] { return SimTime{0}; });

  constexpr int kRounds = 96;  // a multiple of 3: every arm holds every slot
  CommitArm disabled(image, pool, nullptr);
  CommitArm enabled(image, pool, &observer);
  FlightArm flight_arm(image, pool, &observer);
  const std::array<std::function<void()>, 3> arms = {
      [&] { disabled.commit(); }, [&] { enabled.commit(); }, [&] { flight_arm.commit(); }};
  std::array<std::vector<double>, 3> secs;
  for (const auto& commit : arms) commit();  // warmup
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t slot = 0; slot < arms.size(); ++slot) {
      const std::size_t arm = (static_cast<std::size_t>(round) + slot) % arms.size();
      const auto start = std::chrono::steady_clock::now();
      arms[arm]();
      const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
      secs[arm].push_back(elapsed.count());
    }
  }
  const double off = bench::median(secs[0]);
  const double on = bench::median(secs[1]);
  const double flight = bench::median(secs[2]);
  const auto paired_overhead_pct = [&](std::size_t arm) {
    std::vector<double> ratios;
    for (std::size_t round = 0; round < secs[0].size(); ++round) {
      ratios.push_back(secs[arm][round] / secs[0][round]);
    }
    return (bench::median(ratios) - 1.0) * 100.0;
  };
  const double overhead_pct = paired_overhead_pct(1);
  const double flight_overhead_pct = paired_overhead_pct(2);

  // Count the events one observed commit records.
  {
    CommitArm counted(image, pool, &observer);
    observer.reset();
    const storage::StoreReceipt receipt = counted.store.store_verbose(image, nullptr);
    if (!receipt.ok()) return 1;
    counted.store.erase(receipt.id);
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
