// C3 (§1, [31]) — Incremental checkpointing shrinks checkpoint volume by the
// application's dirty fraction; "the reduction ... depends strongly on the
// application".
//
// Three write patterns (dense random, sparse hot-set, sequential sweep) are
// checkpointed with full images and with kernel write-protect incremental
// tracking.  Series: bytes written to storage per checkpoint.
// The "durable" columns replay the same workload with the engine writing
// through a one-replica dedup ReplicatedStore (storage/dedup): stored media
// bytes per checkpoint, which dedup shrinks further than capture-side
// tracking alone (unchanged captured pages dedup away; changed pages
// delta-encode).
#include <cstdio>

#include "bench_common.hpp"
#include "core/incremental.hpp"
#include "core/systemlevel.hpp"
#include "storage/replicated.hpp"

using namespace ckpt;

namespace {

struct Volumes {
  std::uint64_t full = 0;
  std::uint64_t delta = 0;
  std::uint64_t durable_flat = 0;   ///< stored bytes per incremental, flat blobs
  std::uint64_t durable_dedup = 0;  ///< stored bytes per incremental, dedup store
};

Volumes measure(const char* guest, double working_set, bool dedup) {
  sim::SimKernel kernel;
  storage::LocalDiskBackend backend{kernel.costs()};
  storage::ReplicatedOptions dedup_options;
  dedup_options.dedup = true;
  storage::ReplicatedStore dedup_store({&backend}, dedup_options);
  core::EngineOptions options;
  options.incremental = true;
  options.tracker_factory = [] { return std::make_unique<core::KernelWpTracker>(); };
  options.full_every = 1000;
  core::SyscallEngine engine("inc",
                             dedup ? static_cast<storage::StorageBackend*>(&dedup_store)
                                   : static_cast<storage::StorageBackend*>(&backend),
                             options, kernel, core::SyscallEngine::TargetMode::kByPid, nullptr);

  sim::WriterConfig config;
  config.array_bytes = 1024 * 1024;
  config.writes_per_step = 32;
  config.working_set_fraction = working_set;
  const sim::Pid pid =
      kernel.spawn(guest, config.encode(), sim::spawn_options_for_array(config.array_bytes));
  engine.attach(kernel, pid);
  kernel.run_until(kernel.now() + 20 * kMillisecond);

  Volumes volumes;
  const auto full = engine.request_checkpoint(kernel, pid);
  volumes.full = full.payload_bytes;
  // Average three incremental rounds; durable volume is media growth.
  std::uint64_t total = 0;
  const std::uint64_t durable_base = backend.stored_bytes();
  for (int i = 0; i < 3; ++i) {
    kernel.run_until(kernel.now() + 20 * kMillisecond);
    total += engine.request_checkpoint(kernel, pid).payload_bytes;
  }
  volumes.delta = total / 3;
  const std::uint64_t durable = (backend.stored_bytes() - durable_base) / 3;
  (dedup ? volumes.durable_dedup : volumes.durable_flat) = durable;
  return volumes;
}

/// Flat and dedup runs use separate kernels seeded identically, so the guest
/// write sequence (and therefore the captured images) match exactly.
Volumes measure(const char* guest, double working_set) {
  Volumes flat = measure(guest, working_set, /*dedup=*/false);
  const Volumes deduped = measure(guest, working_set, /*dedup=*/true);
  flat.durable_dedup = deduped.durable_dedup;
  return flat;
}

}  // namespace

int main() {
  sim::register_standard_guests();
  bench::print_header("C3 -- incremental checkpoint volume by application write pattern",
                      "\"the reduction in the size of the checkpoint data depends "
                      "strongly on the application\" (section 1, citing [31])");

  struct Workload {
    const char* label;
    const char* guest;
    double working_set;
  };
  const Workload workloads[] = {
      {"dense random writes", sim::DenseWriterGuest::kTypeName, 1.0},
      {"sparse 5% hot set", sim::SparseWriterGuest::kTypeName, 0.05},
      {"sparse 20% hot set", sim::SparseWriterGuest::kTypeName, 0.20},
      {"sequential sweep", sim::SweepWriterGuest::kTypeName, 1.0},
  };

  util::TextTable table({"workload", "full image", "avg incremental", "delta/full",
                         "durable flat", "durable dedup"});
  double sparse_ratio = 1.0, dense_ratio = 1.0;
  for (const Workload& w : workloads) {
    const Volumes v = measure(w.guest, w.working_set);
    const double ratio = static_cast<double>(v.delta) / static_cast<double>(v.full);
    if (std::string(w.label).find("5%") != std::string::npos) sparse_ratio = ratio;
    if (std::string(w.label).find("dense") != std::string::npos) dense_ratio = ratio;
    table.add_row({w.label, util::format_bytes(v.full), util::format_bytes(v.delta),
                   util::format_double(ratio, 3), util::format_bytes(v.durable_flat),
                   util::format_bytes(v.durable_dedup)});
  }
  bench::print_table(table);
  bench::print_verdict(sparse_ratio < 0.3 && sparse_ratio < dense_ratio,
                       "sparse writers gain large reductions; dense writers gain "
                       "little -- the application-dependence the paper reports");
  return 0;
}
