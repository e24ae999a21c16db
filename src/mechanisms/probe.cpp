#include "mechanisms/probe.hpp"

#include <sstream>

#include "sim/guests.hpp"

namespace ckpt::mechanisms {
namespace {

struct ProbeRig {
  sim::SimKernel kernel{1};
  storage::LocalDiskBackend local{sim::CostModel{}};
  storage::RemoteBackend remote{sim::CostModel{}};

  ProbeRig() { sim::register_standard_guests(); }

  MechanismContext context() { return MechanismContext{&kernel, &local, &remote}; }
};

std::string locality_string(const std::vector<storage::StorageLocality>& localities) {
  std::ostringstream out;
  for (std::size_t i = 0; i < localities.size(); ++i) {
    if (i != 0) out << ",";
    out << storage::to_string(localities[i]);
  }
  return out.str();
}

/// Was the process image modified beyond a plain spawn?  Injected library
/// handlers or interposition mean the application was relinked/preloaded —
/// the transparency-breaking changes.
bool app_image_modified(const sim::Process& proc) {
  return !proc.library_handlers.empty() || proc.interposer.has_value();
}

}  // namespace

PaperRow paper_row_for(const CatalogEntry& entry) {
  ProbeRig rig;
  auto mechanism = entry.factory(rig.context());
  return mechanism->paper_row();
}

ProbedRow probe_mechanism(const CatalogEntry& entry) {
  ProbedRow row;
  row.name = entry.name;

  // --- Module probe (fresh rig) -------------------------------------------
  {
    ProbeRig rig;
    auto mechanism = entry.factory(rig.context());
    row.module = rig.kernel.loaded_modules().empty() ? "no" : "yes";
    row.initiation = mechanism->supports_external_initiation() ? "user" : "automatic";
    row.storage = locality_string(mechanism->storage_localities());
  }

  // --- Transparency probe ----------------------------------------------------
  {
    ProbeRig rig;
    auto mechanism = entry.factory(rig.context());
    const sim::Pid pid =
        mechanism->launch(rig.kernel, sim::CounterGuest::kTypeName, {}, sim::SpawnOptions{});
    rig.kernel.run_until(rig.kernel.now() + 5 * kMillisecond);
    bool transparent = false;
    if (sim::Process* proc = rig.kernel.find_process(pid);
        proc != nullptr && proc->alive() && !app_image_modified(*proc)) {
      const core::CheckpointResult result = mechanism->checkpoint(rig.kernel, pid);
      transparent = result.ok;
    }
    row.transparency = transparent ? "yes" : "no";
  }

  // --- Incremental probe -------------------------------------------------------
  {
    ProbeRig rig;
    auto mechanism = entry.factory(rig.context());
    sim::WriterConfig config;
    config.array_bytes = 256 * 1024;
    config.working_set_fraction = 0.05;
    const sim::Pid pid =
        mechanism->launch(rig.kernel, sim::SparseWriterGuest::kTypeName, config.encode(),
                          sim::spawn_options_for_array(config.array_bytes));
    rig.kernel.run_until(rig.kernel.now() + 20 * kMillisecond);
    const core::CheckpointResult first = mechanism->checkpoint(rig.kernel, pid);
    rig.kernel.run_until(rig.kernel.now() + 20 * kMillisecond);
    const core::CheckpointResult second = mechanism->checkpoint(rig.kernel, pid);
    const bool incremental =
        first.ok && second.ok &&
        second.payload_bytes * 2 < first.payload_bytes;  // delta clearly smaller
    row.incremental = incremental ? "yes" : "no";
  }

  // --- Multithread probe ----------------------------------------------------------
  {
    ProbeRig rig;
    auto mechanism = entry.factory(rig.context());
    sim::SpawnOptions options;
    options.thread_count = 4;
    const sim::Pid pid =
        mechanism->launch(rig.kernel, sim::CounterGuest::kTypeName, {}, options);
    rig.kernel.run_until(rig.kernel.now() + 5 * kMillisecond);
    const core::CheckpointResult result = mechanism->checkpoint(rig.kernel, pid);
    row.multithreaded = result.ok;
  }

  // --- Restart round-trip probe ------------------------------------------------------
  {
    ProbeRig rig;
    auto mechanism = entry.factory(rig.context());
    const sim::Pid pid =
        mechanism->launch(rig.kernel, sim::CounterGuest::kTypeName, {}, sim::SpawnOptions{});
    rig.kernel.run_until(rig.kernel.now() + 5 * kMillisecond);
    const core::CheckpointResult ckpt = mechanism->checkpoint(rig.kernel, pid);
    if (ckpt.ok) {
      // Kill the original, then bring it back.
      if (sim::Process* proc = rig.kernel.find_process(pid)) {
        rig.kernel.terminate(*proc, 1);
        rig.kernel.reap(pid);
      }
      const core::RestartResult restarted = mechanism->restart(rig.kernel, pid);
      if (restarted.ok) {
        rig.kernel.run_until(rig.kernel.now() + 5 * kMillisecond);
        const sim::Process* revived = rig.kernel.find_process(restarted.pid);
        row.restart_verified = revived != nullptr && revived->alive();
      }
    }
  }

  return row;
}

}  // namespace ckpt::mechanisms
