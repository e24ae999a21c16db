// ckpt_report: run an observed crash/restart soak and render its
// observability artifacts — a phase-breakdown table from the trace, the
// metrics snapshot, a Chrome trace-event JSON file you can drop into
// Perfetto / about:tracing, and the fleet-layer artifacts from a small
// tortured fleet: the telemetry rollup, the useful/checkpoint/rework
// overhead ledger, and a journal-recovered post-mortem for a dead node.
//
// Build & run:  ./build/examples/ckpt_report [trace.json] [workers]
//
// The trace path defaults to ./ckpt_trace.json; `workers` is the commit
// pipeline width (default 0 = the caller's thread, no pool).  The exported
// trace is part of the determinism contract — the CI gate runs this binary
// at workers=1 and workers=8 and requires byte-identical files — so the
// binary exits non-zero if either export fails the strict JSON lint.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cluster/fleet.hpp"
#include "inject/torture.hpp"
#include "obs/json.hpp"
#include "obs/observer.hpp"
#include "sim/guests.hpp"
#include "util/table.hpp"

using namespace ckpt;

int main(int argc, char** argv) {
  const std::string trace_path = argc > 1 ? argv[1] : "ckpt_trace.json";
  const std::uint32_t workers =
      argc > 2 ? static_cast<std::uint32_t>(std::strtoul(argv[2], nullptr, 10)) : 0;
  sim::register_standard_guests();

  // --- an observed replicated soak -----------------------------------------
  obs::Observer observer;
  inject::TortureOptions options;
  options.seed = 0x0b5;
  options.cycles = 40;
  options.replicated_storage = true;
  options.replicas = 3;
  options.workers = workers;
  options.observer = &observer;

  inject::TortureHarness harness(options);
  const inject::TortureReport report = harness.run(inject::TortureTarget{"CRAK", nullptr});
  std::printf("%s\n\n", report.summary().c_str());

  // --- phase breakdown from the trace ---------------------------------------
  util::TextTable phases({"phase", "count", "total sim-time"});
  for (const auto& [name, stat] : observer.trace().phase_totals()) {
    phases.add_row({name, std::to_string(stat.count), util::format_time_ns(stat.total)});
  }
  std::fputs(phases.render().c_str(), stdout);
  std::printf("\n");

  // --- metrics snapshot ------------------------------------------------------
  const std::string metrics = observer.metrics().snapshot_json();
  std::printf("metrics snapshot:\n%s\n\n", metrics.c_str());

  // --- fleet observability: rollup, overhead ledger, post-mortem ------------
  cluster::FleetOptions fleet_options;
  fleet_options.active_nodes = 16;
  fleet_options.spare_nodes = 4;
  fleet_options.shards = 4;
  fleet_options.seed = 0x0b5;
  fleet_options.policy.initial_interval = 2 * fleet_options.window;
  fleet_options.policy.initial_mtbf = 10 * kSecond;
  fleet_options.guest_steps_min = 1;
  fleet_options.guest_steps_max = 3;
  fleet_options.array_bytes = 4 * 1024;
  fleet_options.workers = workers;
  cluster::FleetManager fleet(fleet_options);
  fleet.run(3);  // every slot commits before the faults start
  cluster::FleetTortureOptions fleet_torture;
  fleet_torture.failure_models.push_back(
      {cluster::FailureModel::Kind::kExponential, 30 * kSecond, 0.7, 3 * kSecond, 11});
  fleet.arm_torture(fleet_torture);
  fleet.run(40);
  const std::string rollup = fleet.telemetry().rollup_json("node.commit_latency_ns");
  std::string rollup_error;
  if (!obs::json_lint(rollup, &rollup_error)) {
    std::fprintf(stderr, "fleet rollup failed lint: %s\n", rollup_error.c_str());
    return 1;
  }
  std::printf("fleet rollup:\n%s\n\n", rollup.c_str());
  std::printf("%s\n", fleet.accountant().table().c_str());
  // Print one black box, preferring a journal-recovered one (a node that
  // died before its first commit honestly reports an empty in-memory box).
  const std::string* box = nullptr;
  for (const auto& [slot, text] : fleet.post_mortems()) {
    if (box == nullptr) box = &text;
    if (text.find("journal black box") != std::string::npos) {
      box = &text;
      break;
    }
  }
  if (box != nullptr) std::printf("%s\n", box->c_str());

  // --- Chrome trace export ---------------------------------------------------
  const std::string trace = observer.trace().export_chrome_json();
  std::string error;
  if (!obs::json_lint(trace, &error)) {
    std::fprintf(stderr, "trace export failed lint: %s\n", error.c_str());
    return 1;
  }
  if (!obs::json_lint(metrics, &error)) {
    std::fprintf(stderr, "metrics snapshot failed lint: %s\n", error.c_str());
    return 1;
  }
  std::FILE* out = std::fopen(trace_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::fwrite(trace.data(), 1, trace.size(), out);
  std::fclose(out);
  std::printf("wrote %s (%zu events) -- load it in Perfetto or about:tracing\n",
              trace_path.c_str(), observer.trace().events().size());
  return report.ok() ? 0 : 2;
}
