// Commit-pipeline throughput: ReplicatedStore::store_verbose (sharded
// serialize + folding CRC64 + copy-free read-back verify, with replica
// staging fanned out one task per replica) swept across worker count,
// replication width and image size.  The baseline is the same pipeline on
// a 1-worker pool, which runs both fan-outs inline, so the speedup gate
// measures exactly what the pool buys.  Every configuration of one image
// size is built up front and commits once per round, in an order rotated
// by one slot per round; a row is the median over rounds, and the speedup
// is the median of the per-round paired ratio, so a slow stretch of a
// shared host lands on every configuration instead of on one row.
//
// Host wall-clock only — simulated-time charges are not involved (and the
// determinism check asserts the pipeline never changes observable state).
// Emits BENCH_pipeline.json (path = argv[1], default ./BENCH_pipeline.json)
// and exits non-zero when a fail-level gate fails.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "storage/backend.hpp"
#include "storage/image.hpp"
#include "storage/replicated.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

using namespace ckpt;

namespace {

struct ImageSpec {
  const char* name;
  std::size_t segments;
  std::uint64_t pages_per_segment;
  int rounds;  ///< a multiple of the 12 configurations: each holds every slot
};

constexpr ImageSpec kSmall{"small", 8, 16, 24};  // 8 x 16 x 4 KiB = 512 KiB of pages
constexpr ImageSpec kLarge{"large", 32, 64, 5};  // 32 x 64 x 4 KiB = 8 MiB of pages

storage::CheckpointImage make_image(const ImageSpec& spec, std::uint64_t seed) {
  util::Rng rng(seed);
  storage::CheckpointImage image;
  image.kind = storage::ImageKind::kFull;
  image.pid = 7;
  image.process_name = "bench";
  image.taken_at = seed;
  image.threads.push_back(storage::ThreadImage{1, {}});
  for (std::size_t s = 0; s < spec.segments; ++s) {
    storage::MemorySegmentImage seg;
    seg.vma = sim::Vma{sim::page_of(0x100000 + (s << 20)), spec.pages_per_segment,
                       sim::kProtRW, sim::VmaKind::kData, "seg" + std::to_string(s)};
    for (std::uint64_t p = 0; p < spec.pages_per_segment; ++p) {
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

/// One (image, replicas, workers) configuration: its own replica set and
/// store, committing the shared image and erasing it again.
struct Config {
  const storage::CheckpointImage& image;
  std::uint32_t width;
  unsigned workers;
  ReplicaSet set;
  storage::ReplicatedStore store;
  std::vector<double> secs;  ///< one commit per round

  Config(const storage::CheckpointImage& image_in, std::uint32_t width_in,
         unsigned workers_in, util::ThreadPool& pool)
      : image(image_in), width(width_in), workers(workers_in), set(width_in),
        store(set.replicas, store_options(pool)) {}

  static storage::ReplicatedOptions store_options(util::ThreadPool& pool) {
    storage::ReplicatedOptions options;
    options.pool = &pool;
    return options;
  }

  void commit() {
    const storage::StoreReceipt receipt = store.store_verbose(image, nullptr);
    if (!receipt.ok()) {
      std::fprintf(stderr, "pipeline commit failed?!\n");
      std::exit(1);
    }
    store.erase(receipt.id);
  }
};

/// A warmup commit each (touches pages, fills buffer pools), then `rounds`
/// rounds that commit every configuration once, in an order rotated by one
/// slot per round, so a slow stretch of a shared host lands on every
/// configuration alike.
void run_rounds(std::vector<std::unique_ptr<Config>>& configs, int rounds) {
  for (auto& config : configs) config->commit();
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t slot = 0; slot < configs.size(); ++slot) {
      Config& config = *configs[(static_cast<std::size_t>(round) + slot) % configs.size()];
      const auto start = std::chrono::steady_clock::now();
      config.commit();
      const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
      config.secs.push_back(elapsed.count());
    }
  }
}

/// 1-worker vs 8-worker stores over the same images must leave bit-identical
/// replica contents and identical manifests.
bool identical_1v8() {
  util::ThreadPool one(1), eight(8);
  auto drive = [](util::ThreadPool& pool, ReplicaSet& set) {
    storage::ReplicatedOptions options;
    options.pool = &pool;
    storage::ReplicatedStore store(set.replicas, options);
    for (std::uint64_t i = 0; i < 3; ++i) {
      if (!store.store_verbose(make_image(kSmall, i), nullptr).ok()) return false;
    }
    return true;
  };
  ReplicaSet set_a(3), set_b(3);
  if (!drive(one, set_a) || !drive(eight, set_b)) return false;
  for (std::size_t r = 0; r < 3; ++r) {
    const auto ids_a = set_a.replicas[r]->list();
    const auto ids_b = set_b.replicas[r]->list();
    if (ids_a != ids_b) return false;
    for (std::size_t i = 0; i < ids_a.size(); ++i) {
      const auto blob_a = set_a.replicas[r]->read_blob(ids_a[i], nullptr);
      const auto blob_b = set_b.replicas[r]->read_blob(ids_b[i], nullptr);
      if (blob_a != blob_b) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_pipeline.json";
  bench::print_header(
      "bench_pipeline -- parallel checkpoint commit pipeline throughput",
      "sharded serialize + concurrent replica stage+verify on a worker pool vs "
      "the same pipeline on one worker (section 4.1 concurrent-commit branch)");

  const bool deterministic = identical_1v8();

  util::ThreadPool pool1(1), pool2(2), pool4(4), pool8(8);
  const std::vector<std::pair<unsigned, util::ThreadPool*>> pools{
      {1, &pool1}, {2, &pool2}, {4, &pool4}, {8, &pool8}};

  std::vector<bench::Fields> rows;
  util::TextTable table({"image", "replicas", "workers", "commits/s", "MiB/s landed"});
  std::vector<double> large_3way_speedups;
  for (const ImageSpec* spec : {&kSmall, &kLarge}) {
    const storage::CheckpointImage image = make_image(*spec, 0xBE7C);
    const std::size_t blob_bytes = image.serialized_size();
    std::vector<std::unique_ptr<Config>> configs;
    const Config* three_way_1w = nullptr;
    const Config* three_way_4w = nullptr;
    for (std::uint32_t width : {1u, 2u, 3u}) {
      for (const auto& [workers, pool] : pools) {
        configs.push_back(std::make_unique<Config>(image, width, workers, *pool));
        if (width == 3 && workers == 1) three_way_1w = configs.back().get();
        if (width == 3 && workers == 4) three_way_4w = configs.back().get();
      }
    }
    run_rounds(configs, spec->rounds);
    for (const auto& config : configs) {
      const double commits_per_sec = 1.0 / bench::median(config->secs);
      const double mb_per_sec =
          commits_per_sec * static_cast<double>(blob_bytes) * config->width / (1 << 20);
      rows.push_back(bench::Fields()
                         .put("workers", config->workers)
                         .put("replicas", config->width)
                         .put("image", spec->name)
                         .put("blob_bytes", blob_bytes)
                         .put("commits_per_sec", commits_per_sec, 4)
                         .put("mb_per_sec", mb_per_sec, 4));
      table.add_row({spec->name, std::to_string(config->width),
                     std::to_string(config->workers), util::format_double(commits_per_sec, 2),
                     util::format_double(mb_per_sec, 1)});
    }
    if (spec == &kLarge) {
      // Paired per round: the same round's 1-worker time over its 4-worker time.
      for (std::size_t round = 0; round < three_way_1w->secs.size(); ++round) {
        large_3way_speedups.push_back(three_way_1w->secs[round] / three_way_4w->secs[round]);
      }
    }
  }
  bench::print_table(table);

  const double speedup = bench::median(large_3way_speedups);
  std::printf("speedup (large image, 3-way, 4 workers vs 1 worker): %.2fx\n", speedup);
  bench::Report report("bench_pipeline");
  report.put("identical_1v8", deterministic)
      .put("speedup_large_3way_4workers", speedup, 4)
      .put("configs", rows);
  // A loose 1.3x floor so a noisy shared runner cannot flake the build; the
  // 2x headline target only warns.
  report.gate("identical_1v8", deterministic)
      .gate("speedup_large_3way_4workers", speedup, bench::Op::kGe, 1.3)
      .gate("speedup_large_3way_4workers", speedup, bench::Op::kGe, 2.0, bench::Level::kWarn);
  return report.finish(json_path,
                       "the commit pipeline on 4 workers is >= 2x one worker on large 3-way "
                       "commits while leaving bit-identical replica state for any worker "
                       "count");
}
