// Append-commit vs two-phase publish: commit-initiation latency under
// concurrent-writer load.
//
// The survey's closing argument (§4) is that commit *initiation* limits
// checkpoint frequency: the replicated two-phase path pays stage + read-back
// verify + manifest publish per replica on the critical path of every
// commit.  The log-structured journal moves commit to a sequential append
// with one group-commit sync shared by all concurrent writers, and drains to
// the replicated store off the critical path.  This bench quantifies the gap
// on the simulated device model: 4 concurrent writers, identical image
// streams, mean critical-path sim-time per commit.  The gate requires the
// append path >= 1.5x faster at 4 writers (the measured headline is far
// higher), plus log/home contents that do not depend on the home store's
// worker count.
//
// Deterministic (sim + seeded rng; no host timing).  Emits BENCH_journal.json
// (path = argv[1], default ./BENCH_journal.json) and exits non-zero when a
// gate fails.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "storage/backend.hpp"
#include "storage/image.hpp"
#include "storage/journal.hpp"
#include "storage/replicated.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

using namespace ckpt;

namespace {

constexpr std::uint64_t kWriters = 4;   // concurrent engines sharing each group
constexpr std::uint64_t kRounds = 6;    // commit rounds measured
constexpr std::uint64_t kPages = 8;     // pages per image

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

storage::CheckpointImage make_image(util::Rng& rng, std::uint64_t writer,
                                    std::uint64_t round) {
  storage::CheckpointImage image;
  image.kind = storage::ImageKind::kFull;
  image.pid = static_cast<sim::Pid>(10 + writer);
  image.process_name = "writer";
  image.sequence = round;
  image.taken_at = round * 1000 + writer;
  image.threads.push_back(storage::ThreadImage{1, {}});
  storage::MemorySegmentImage seg;
  seg.vma = sim::Vma{sim::page_of(0x100000), kPages, sim::kProtRW,
                     sim::VmaKind::kData, "data"};
  for (std::uint64_t p = 0; p < kPages; ++p) {
    storage::PageImage page;
    page.page = seg.vma.first_page + p;
    page.data = random_page(rng);
    seg.pages.push_back(std::move(page));
  }
  image.segments.push_back(std::move(seg));
  return image;
}

struct Measured {
  SimTime commit_total = 0;      ///< critical-path time across all commits
  SimTime background_total = 0;  ///< migrator drain time (append mode only)
  std::uint64_t commits = 0;

  [[nodiscard]] double per_commit_ms() const {
    return static_cast<double>(commit_total) / static_cast<double>(commits) / 1e6;
  }
};

/// Baseline: every writer commits straight through the replicated two-phase
/// publish (stage + read-back verify + manifest) on its own critical path.
Measured measure_two_phase() {
  util::Rng rng(0x10C);
  sim::CostModel costs{};
  storage::LocalDiskBackend local{costs};
  storage::RemoteBackend remote{costs};
  storage::ReplicatedStore store({&local, &remote}, {});

  Measured result;
  const storage::ChargeFn charge = [&](SimTime t) { result.commit_total += t; };
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::uint64_t writer = 0; writer < kWriters; ++writer) {
      if (store.store(make_image(rng, writer, round), charge) == storage::kBadImageId) {
        std::exit(1);
      }
      ++result.commits;
    }
  }
  return result;
}

/// Append-commit: the same writers share a group commit into the journal
/// (sequential appends + one sync per group); the migrator then drains into
/// the identical replicated store off the critical path.
Measured measure_append_commit() {
  util::Rng rng(0x10C);  // identical image stream
  sim::CostModel costs{};
  storage::LocalDiskBackend local{costs};
  storage::RemoteBackend remote{costs};
  storage::ReplicatedStore home({&local, &remote}, {});
  storage::LogStructuredBackend journal(&home, {});

  Measured result;
  const storage::ChargeFn commit_charge = [&](SimTime t) { result.commit_total += t; };
  const storage::ChargeFn drain_charge = [&](SimTime t) { result.background_total += t; };
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    journal.begin_group();
    for (std::uint64_t writer = 0; writer < kWriters; ++writer) {
      if (journal.store(make_image(rng, writer, round), commit_charge) ==
          storage::kBadImageId) {
        std::exit(1);
      }
      ++result.commits;
    }
    journal.end_group(commit_charge);
    // Drain off the critical path, as the engine's post-commit hook does.
    journal.migrate(drain_charge);
  }
  return result;
}

/// Worker invariance: the identical group-committed, migrated sequence into a
/// replicated home store on a 1-worker and an 8-worker pool must leave
/// byte-identical log media, home replica blobs and charge sequences.  The
/// journal runs on the caller; each drain reaches the pool through the home
/// store's sharded serialize and replica staging.
bool identical_1v8() {
  struct Run {
    storage::JournalMedia media;
    std::vector<std::vector<std::byte>> blobs;
    std::vector<SimTime> charges;

    bool operator==(const Run&) const = default;
  };
  const auto run_with = [](unsigned workers) {
    util::ThreadPool pool(workers);
    util::Rng rng(0x1D9);
    sim::CostModel costs{};
    storage::LocalDiskBackend local{costs};
    storage::RemoteBackend remote{costs};
    storage::ReplicatedOptions home_options;
    home_options.pool = &pool;
    storage::ReplicatedStore home({&local, &remote}, home_options);
    storage::LogStructuredBackend journal(&home, {});

    Run run;
    const storage::ChargeFn charge = [&](SimTime t) { run.charges.push_back(t); };
    for (std::uint64_t round = 0; round < 3; ++round) {
      journal.begin_group();
      for (std::uint64_t writer = 0; writer < kWriters; ++writer) {
        if (journal.store(make_image(rng, writer, round), charge) ==
            storage::kBadImageId) {
          std::exit(1);
        }
      }
      journal.end_group(charge);
      journal.migrate(charge);
    }
    run.media = journal.media_snapshot();
    for (storage::BlobStoreBackend* replica :
         {static_cast<storage::BlobStoreBackend*>(&local),
          static_cast<storage::BlobStoreBackend*>(&remote)}) {
      for (const storage::ImageId id : replica->list()) {
        run.blobs.push_back(*replica->read_blob(id, nullptr));
      }
    }
    return run;
  };
  return run_with(1) == run_with(8);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_journal.json";
  bench::print_header(
      "bench_journal -- append-commit vs two-phase publish, 4 concurrent writers",
      "commit initiation through the log-structured journal (group-committed "
      "sequential appends, background migrator) must be >= 1.5x faster per "
      "commit than the replicated two-phase publish path");

  const Measured two_phase = measure_two_phase();
  const Measured append = measure_append_commit();
  const double speedup = two_phase.per_commit_ms() / append.per_commit_ms();
  const bool invariant = identical_1v8();

  util::TextTable table({"path", "commits", "per-commit (sim ms)", "background (sim ms)"});
  table.add_row({"two-phase publish", std::to_string(two_phase.commits),
                 util::format_double(two_phase.per_commit_ms(), 3), "0.000"});
  table.add_row({"append-commit", std::to_string(append.commits),
                 util::format_double(append.per_commit_ms(), 3),
                 util::format_double(static_cast<double>(append.background_total) / 1e6, 3)});
  bench::print_table(table);

  bench::Report report("bench_journal");
  report.put("writers", kWriters)
      .put("commits", append.commits)
      .put("two_phase_ms_per_commit", two_phase.per_commit_ms(), 4)
      .put("append_commit_ms_per_commit", append.per_commit_ms(), 4)
      .put("migrator_background_ms_total", static_cast<double>(append.background_total) / 1e6,
           4)
      .put("speedup_append_4writers", speedup, 4)
      .put("identical_1v8", invariant);
  report.gate("speedup_append_4writers", speedup, bench::Op::kGe, 1.5)
      .gate("identical_1v8", invariant);
  return report.finish(json_path,
                       "commit initiation is decoupled from replica publication: "
                       "appends + one shared sync beat stage+verify+publish per "
                       "replica, and the migrator never changes observable state");
}
