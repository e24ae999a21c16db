// Content-addressed dedup: durable bytes per commit across a dirty-rate
// sweep, flat blob path vs a one-replica dedup ReplicatedStore on the same
// image sequence.
//
// The survey's incremental-checkpointing claim (§3.3) is about *capture*
// volume; the dedup store extends it to *durable* volume: even a full-image
// commit should cost media bytes proportional to the dirty fraction, because
// clean pages dedup against the chunks already on media.  The gate
// requires <= 0.3x the flat path at a 10% dirty rate, plus the two hard
// invariants: bit-identical round-trips and worker-count-invariant replica
// contents in replicated dedup mode.
//
// Deterministic (sim + seeded rng; no host timing).  Emits BENCH_dedup.json
// (path = argv[1], default ./BENCH_dedup.json) and exits non-zero when a
// gate fails.
#include <cstdio>
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

constexpr std::uint64_t kPages = 256;  // 1 MiB address space
constexpr int kCommits = 8;            // measured commits after the base image

std::vector<std::byte> random_page(util::Rng& rng) {
  std::vector<std::byte> data(sim::kPageSize);
  for (std::size_t i = 0; i < data.size(); i += 8) {
    const std::uint64_t word = rng.next_u64();
    for (std::size_t b = 0; b < 8 && i + b < data.size(); ++b) {
      data[i + b] = static_cast<std::byte>(word >> (8 * b));
    }
  }
  return data;
}

storage::CheckpointImage image_of(const std::vector<std::vector<std::byte>>& pages,
                                  std::uint64_t tag) {
  storage::CheckpointImage image;
  image.kind = storage::ImageKind::kFull;
  image.pid = 7;
  image.process_name = "bench";
  image.taken_at = tag;
  image.threads.push_back(storage::ThreadImage{1, {}});
  storage::MemorySegmentImage seg;
  seg.vma = sim::Vma{sim::page_of(0x100000), kPages, sim::kProtRW, sim::VmaKind::kData, "data"};
  for (std::uint64_t p = 0; p < pages.size(); ++p) {
    storage::PageImage page;
    page.page = seg.vma.first_page + p;
    page.data = pages[p];
    seg.pages.push_back(std::move(page));
  }
  image.segments.push_back(std::move(seg));
  return image;
}

struct Sample {
  double dirty = 0;
  std::uint64_t flat_per_commit = 0;
  std::uint64_t dedup_per_commit = 0;
  double ratio = 1.0;
  bool roundtrip_identical = false;
};

/// Store the same full-image sequence (a rotating `dirty` fraction of pages
/// rewritten with fresh random content between commits) through a flat blob
/// backend and a one-replica dedup ReplicatedStore, and compare durable media
/// growth per commit.
Sample measure(double dirty) {
  util::Rng rng(0xDED0 + static_cast<std::uint64_t>(dirty * 1000));
  std::vector<std::vector<std::byte>> pages;
  pages.reserve(kPages);
  for (std::uint64_t p = 0; p < kPages; ++p) pages.push_back(random_page(rng));

  sim::CostModel costs{};
  storage::LocalDiskBackend flat{costs};
  storage::LocalDiskBackend media{costs};
  storage::ReplicatedOptions dedup_options;
  dedup_options.dedup = true;
  storage::ReplicatedStore dedup({&media}, dedup_options);

  storage::CheckpointImage image = image_of(pages, 0);
  if (flat.store(image, nullptr) == storage::kBadImageId) std::exit(1);
  if (dedup.store(image, nullptr) == storage::kBadImageId) std::exit(1);
  const std::uint64_t flat_base = flat.stored_bytes();
  const std::uint64_t media_base = media.stored_bytes();

  const std::uint64_t dirty_pages = static_cast<std::uint64_t>(dirty * kPages + 0.5);
  storage::ImageId last_id = storage::kBadImageId;
  for (int commit = 1; commit <= kCommits; ++commit) {
    // Rotate the dirty window so reuse comes from content identity, not from
    // always touching the same slots.
    const std::uint64_t start = (commit * dirty_pages) % kPages;
    for (std::uint64_t d = 0; d < dirty_pages; ++d) {
      pages[(start + d) % kPages] = random_page(rng);
    }
    image = image_of(pages, static_cast<std::uint64_t>(commit));
    if (flat.store(image, nullptr) == storage::kBadImageId) std::exit(1);
    last_id = dedup.store(image, nullptr);
    if (last_id == storage::kBadImageId) std::exit(1);
  }

  Sample sample;
  sample.dirty = dirty;
  sample.flat_per_commit = (flat.stored_bytes() - flat_base) / kCommits;
  sample.dedup_per_commit = (media.stored_bytes() - media_base) / kCommits;
  sample.ratio = static_cast<double>(sample.dedup_per_commit) /
                 static_cast<double>(sample.flat_per_commit);
  const auto loaded = dedup.load(last_id, nullptr);
  sample.roundtrip_identical =
      loaded.has_value() && loaded->serialize() == image.serialize();
  return sample;
}

/// Replicated dedup determinism: the identical store sequence through a
/// 1-worker and an 8-worker pool must leave byte-identical replica contents
/// and the identical sim-time charge sequence.
bool replicated_identical_1v8() {
  struct Run {
    std::vector<std::vector<std::byte>> blobs;
    std::vector<SimTime> charges;
  };
  auto run_with = [](unsigned workers) {
    util::ThreadPool pool(workers);
    sim::CostModel costs{};
    storage::LocalDiskBackend local{costs};
    storage::RemoteBackend remote{costs};
    storage::ReplicatedOptions options;
    options.dedup = true;
    options.pool = &pool;
    storage::ReplicatedStore store({&local, &remote}, options);

    util::Rng rng(0x1D8);
    std::vector<std::vector<std::byte>> pages;
    for (std::uint64_t p = 0; p < 32; ++p) pages.push_back(random_page(rng));
    Run run;
    const storage::ChargeFn charge = [&](SimTime t) { run.charges.push_back(t); };
    for (std::uint64_t tag = 0; tag < 4; ++tag) {
      pages[tag * 3 % pages.size()] = random_page(rng);
      if (store.store(image_of(pages, tag), charge) == storage::kBadImageId) std::exit(1);
    }
    for (storage::BlobStoreBackend* replica : {static_cast<storage::BlobStoreBackend*>(&local),
                                               static_cast<storage::BlobStoreBackend*>(&remote)}) {
      for (const storage::ImageId id : replica->list()) {
        run.blobs.push_back(*replica->read_blob(id, nullptr));
      }
    }
    return run;
  };
  const Run serial = run_with(1);
  const Run pooled = run_with(8);
  return serial.blobs == pooled.blobs && serial.charges == pooled.charges;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_dedup.json";
  bench::print_header(
      "bench_dedup -- durable bytes per commit, flat blob path vs dedup store",
      "at a 10% dirty rate the content-addressed store must keep durable "
      "bytes per full-image commit <= 0.3x the flat path");

  const double sweep[] = {0.02, 0.05, 0.10, 0.20, 0.50, 1.00};
  std::vector<Sample> samples;
  util::TextTable table({"dirty rate", "flat/commit", "dedup/commit", "dedup/flat"});
  double ratio_10 = 1.0;
  bool roundtrips = true;
  for (const double dirty : sweep) {
    const Sample sample = measure(dirty);
    samples.push_back(sample);
    roundtrips = roundtrips && sample.roundtrip_identical;
    if (dirty == 0.10) ratio_10 = sample.ratio;
    char label[32];
    std::snprintf(label, sizeof label, "%.0f%%", dirty * 100.0);
    table.add_row({label, util::format_bytes(sample.flat_per_commit),
                   util::format_bytes(sample.dedup_per_commit),
                   util::format_double(sample.ratio, 3)});
  }
  bench::print_table(table);

  const bool identical_1v8 = replicated_identical_1v8();
  bench::Report report("bench_dedup");
  std::vector<bench::Fields> rows;
  for (const Sample& s : samples) {
    rows.push_back(bench::Fields()
                       .put("dirty", s.dirty, 2)
                       .put("flat_bytes_per_commit", s.flat_per_commit)
                       .put("dedup_bytes_per_commit", s.dedup_per_commit)
                       .put("ratio", s.ratio, 4));
  }
  report.put("sweep", rows)
      .put("ratio_10pct_dirty", ratio_10, 4)
      .put("roundtrip_identical", roundtrips)
      .put("identical_1v8", identical_1v8);
  report.gate("ratio_10pct_dirty", ratio_10, bench::Op::kLe, 0.3)
      .gate("roundtrip_identical", roundtrips)
      .gate("identical_1v8", identical_1v8);
  return report.finish(json_path,
                       "durable volume tracks the dirty rate (<= 0.3x at 10%), "
                       "round-trips are exact, replicas are worker-invariant");
}
