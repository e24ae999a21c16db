// C8 (§4, Table 1) — "Most store the checkpoint locally instead of remotely,
// thus checkpoint data cannot be retrieved in case of a failure of the
// machine."
//
// A long job runs on a cluster under MTBF-driven fail-stop failures with
// periodic checkpoints to (a) local disk and (b) remote storage.  After
// each failure we attempt recovery on a surviving node.  Series: recovery
// success rate and useful work preserved, versus MTBF.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "cluster/failure.hpp"
#include "cluster/node.hpp"
#include "core/capture.hpp"
#include "core/engine.hpp"
#include "inject/torture.hpp"
#include "storage/replicated.hpp"

using namespace ckpt;

namespace {

struct Outcome {
  int failures = 0;
  int recovered = 0;
  std::uint64_t work_preserved = 0;  // counter value at last recovery
};

Outcome run(bool remote_storage, SimTime mtbf, std::uint64_t seed) {
  cluster::Cluster cluster(4, cluster::NodeConfig{});
  // The job runs on node 0; checkpoints go local or remote.
  sim::Pid pid = cluster.node(0).kernel().spawn(sim::CounterGuest::kTypeName);
  int home = 0;

  Outcome outcome;
  std::vector<storage::ImageId> chain_ids;
  storage::StorageBackend* backend =
      remote_storage ? static_cast<storage::StorageBackend*>(&cluster.remote_storage())
                     : &cluster.node(0).disk();

  // Periodic checkpoint every 200ms of cluster time, plus one at launch so
  // the job is always restorable.
  const SimTime ckpt_every = 200 * kMillisecond;
  auto take_checkpoint = [&](cluster::Cluster& c) {
    if (home < 0 || !c.node(home).up()) return;
    sim::SimKernel& kernel = c.node(home).kernel();
    if (sim::Process* proc = kernel.find_process(pid); proc != nullptr && proc->alive()) {
      storage::StorageBackend* target = remote_storage ? backend : &c.node(home).disk();
      const auto image = core::capture_kernel_level(kernel, *proc, core::CaptureOptions{});
      const storage::ImageId id = target->store(image, nullptr);
      if (id != storage::kBadImageId) chain_ids.push_back(id);
    }
  };
  take_checkpoint(cluster);
  std::function<void(cluster::Cluster&)> tick = [&](cluster::Cluster& c) {
    take_checkpoint(c);
    c.add_event(c.now() + ckpt_every, tick);
  };
  cluster.add_event(ckpt_every, tick);

  // Recovery: restart the newest retrievable image on the lowest-numbered
  // surviving node; while the whole cluster is down (a capacity outage, not
  // a storage loss) keep retrying.
  storage::StorageBackend* recover_source = nullptr;
  std::function<void(cluster::Cluster&)> try_recover = [&](cluster::Cluster& c) {
    if (home >= 0 || recover_source == nullptr) return;  // nothing to do
    for (auto it = chain_ids.rbegin(); it != chain_ids.rend(); ++it) {
      const auto image = recover_source->load(*it, nullptr);
      if (!image.has_value()) continue;  // local disk down: unretrievable
      const auto up = c.up_nodes();
      if (up.empty()) {
        c.add_event(c.now() + 500 * kMillisecond, [&](cluster::Cluster& c2) {
          try_recover(c2);
        });
        return;
      }
      const auto result = core::restart_from_image(c.node(up[0]).kernel(), *image);
      if (result.ok) {
        ++outcome.recovered;
        home = up[0];
        pid = result.pid;
        outcome.work_preserved = image->taken_at;
      }
      return;
    }
  };

  cluster.on_failure([&](cluster::Cluster& c, int node) {
    if (node != home) return;
    // The machine hosting the job died; only these failures count.
    ++outcome.failures;
    const int failed = node;
    home = -1;  // the job is down until a recovery succeeds
    recover_source = remote_storage
                         ? static_cast<storage::StorageBackend*>(&c.remote_storage())
                         : &c.node(failed).disk();
    try_recover(c);
  });

  cluster::FailureModel model;
  model.mtbf = mtbf;
  model.repair_time = 2 * kSecond;
  model.seed = seed;
  cluster::FailureInjector injector(cluster, model);
  injector.arm(20 * kSecond);
  cluster.run_until(20 * kSecond, 50 * kMillisecond);
  return outcome;
}

// --- Replication-width sweep -----------------------------------------------
//
// The self-healing follow-up to the local-vs-remote result: drive the PR 1
// torture schedule (storage faults only) against unreplicated, 2-way and
// 3-way ReplicatedStore configurations and compare what each width costs
// (charged store time per checkpoint) against what it buys (restart success
// under single-replica faults).

std::vector<inject::FaultPlan::Weighted> storage_only_mix() {
  using inject::FaultKind;
  return {
      {FaultKind::kNone, 2},          {FaultKind::kStoreReject, 2},
      {FaultKind::kTornStore, 2},     {FaultKind::kCorruptImage, 2},
      {FaultKind::kStorageOutage, 2},
  };
}

inject::TortureReport run_width(std::uint32_t width, std::uint64_t seed) {
  inject::TortureOptions options;
  options.seed = seed;
  options.cycles = 110;
  options.fault_mix = storage_only_mix();
  options.replicated_storage = width >= 2;
  options.replicas = width;
  inject::TortureHarness harness(options);
  return harness.run(inject::TortureTarget{"CRAK", nullptr});
}

/// Charged simulated time to store one torture-sized (16 KiB working set)
/// image through a width-N replicated store — the replication overhead.
SimTime store_cost(std::uint32_t width) {
  const sim::CostModel costs{};
  storage::LocalDiskBackend local{costs};
  std::vector<std::unique_ptr<storage::RemoteBackend>> remotes;
  std::vector<storage::BlobStoreBackend*> replicas{&local};
  for (std::uint32_t i = 1; i < width; ++i) {
    remotes.push_back(std::make_unique<storage::RemoteBackend>(costs));
    replicas.push_back(remotes.back().get());
  }
  storage::ReplicatedStore store(replicas, {});

  storage::CheckpointImage image;
  image.kind = storage::ImageKind::kFull;
  image.threads.push_back(storage::ThreadImage{1, {}});
  storage::MemorySegmentImage seg;
  seg.vma = sim::Vma{sim::page_of(0x10000), 4, sim::kProtRW, sim::VmaKind::kData, "data"};
  for (std::uint64_t p = 0; p < 4; ++p) {
    storage::PageImage page;
    page.page = seg.vma.first_page + p;
    page.data.assign(sim::kPageSize, std::byte{0x5A});
    seg.pages.push_back(std::move(page));
  }
  image.segments.push_back(std::move(seg));

  SimTime charged = 0;
  store.store(image, [&](SimTime t) { charged += t; });
  return charged;
}

}  // namespace

int main() {
  sim::register_standard_guests();
  bench::print_header("C8 -- checkpoint survivability: local vs remote stable storage",
                      "\"checkpoint data cannot be retrieved in case of a failure of "
                      "the machine\" (section 4)");

  util::TextTable table(
      {"MTBF/node", "storage", "job-node failures", "recoveries", "recovery rate"});
  double local_rate = 1.0, remote_rate = 0.0;
  for (SimTime mtbf : {3 * kSecond, 8 * kSecond}) {
    for (bool remote : {false, true}) {
      Outcome total;
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const Outcome o = run(remote, mtbf, seed);
        total.failures += o.failures;
        total.recovered += o.recovered;
      }
      const double rate =
          total.failures == 0
              ? 1.0
              : static_cast<double>(total.recovered) / static_cast<double>(total.failures);
      if (mtbf == 3 * kSecond) (remote ? remote_rate : local_rate) = rate;
      table.add_row({util::format_time_ns(mtbf), remote ? "remote" : "local",
                     std::to_string(total.failures), std::to_string(total.recovered),
                     util::format_double(rate * 100, 1) + "%"});
    }
  }
  bench::print_table(table);
  bench::print_verdict(remote_rate > 0.99 && local_rate < 0.5,
                       "remote storage recovers after every job-node failure; local "
                       "storage strands the image on the dead machine");

  std::printf("\nReplication-width sweep (PR 1 storage-fault schedule, 110 cycles, CRAK):\n");
  util::TextTable widths({"replicas", "ckpts ok", "ckpts lost", "restarts ok",
                          "restarts lost", "restart rate", "scrub repairs",
                          "store cost/ckpt"});
  double rate_1way = 1.0, rate_2way = 0.0, rate_3way = 0.0;
  std::uint64_t data_loss_with_intact = 0;
  for (std::uint32_t width : {1u, 2u, 3u}) {
    const inject::TortureReport report = run_width(width, /*seed=*/0x5eed2026);
    const std::uint64_t lost = report.restarts_refused + report.unexpected_failures;
    const double rate =
        report.restarts_ok + lost == 0
            ? 1.0
            : static_cast<double>(report.restarts_ok) /
                  static_cast<double>(report.restarts_ok + lost);
    // Losing a restart while an intact replica of a committed image existed
    // is exactly an unexpected_failure in the harness model; any such event
    // turns the verdict below into [DEVIATES], which fails CI.
    data_loss_with_intact += report.unexpected_failures + report.scrub_failures;
    if (width == 1) rate_1way = rate;
    if (width == 2) rate_2way = rate;
    if (width == 3) rate_3way = rate;
    widths.add_row({std::to_string(width), std::to_string(report.checkpoints_ok),
                    std::to_string(report.checkpoints_failed),
                    std::to_string(report.restarts_ok), std::to_string(lost),
                    util::format_double(rate * 100, 1) + "%",
                    std::to_string(report.scrub_repairs),
                    util::format_time_ns(store_cost(width))});
  }
  bench::print_table(widths);
  std::printf("data-loss-with-intact-replica events: %llu\n",
              static_cast<unsigned long long>(data_loss_with_intact));
  bench::print_verdict(
      rate_1way < 0.999 && rate_2way > 0.999 && rate_3way > 0.999 &&
          data_loss_with_intact == 0,
      "single-replica storage faults strand unreplicated checkpoints, while "
      "2-way and 3-way replication with verify+retry+scrub recover every "
      "restart and never lose state that still had an intact replica");
  return 0;
}
