// Micro-benchmarks of the substrate itself (google-benchmark): real
// wall-clock cost of the simulator's hot paths, so regressions in the
// reproduction harness are visible.
//
// The crc gate rides on two of them.  Whenever a run includes
// BM_Crc64/65536 and BM_Crc64Combine/65536, micro_substrate writes
// BENCH_crc.json (path = the first argument google-benchmark does not
// consume, default ./BENCH_crc.json) through bench_report.hpp and exits
// non-zero when a fail-level gate fails:
//
//   micro_substrate --benchmark_filter='^BM_Crc64(Combine)?/65536$'
//
// The gates hold the carry-less-multiply kernels to a 4 GiB/s floor and a
// 1 us combine ceiling, and warn below 8 GiB/s or above 100 ns.  The
// portable "sliced" kernel is not held to them.
#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/capture.hpp"
#include "sim/guests.hpp"
#include "sim/kernel.hpp"
#include "storage/backend.hpp"
#include "storage/chain.hpp"
#include "storage/image.hpp"
#include "storage/replicated.hpp"
#include "util/crc64.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace {

using namespace ckpt;

void BM_Crc64(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc64(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc64)->Arg(4096)->Arg(65536);

// Every compiled CRC64 kernel this CPU runs, by name, on the same buffers —
// the evidence for which one crc64() dispatches to (the custom context
// line `crc64_kernel`).
void BM_Crc64Kernel(benchmark::State& state, const util::Crc64Kernel& kernel) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.fn(data, 0));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
const bool kCrc64KernelsRegistered = [] {
  benchmark::AddCustomContext("crc64_kernel", util::crc64_kernel_name());
  for (const util::Crc64Kernel& kernel : util::crc64_kernels()) {
    if (!kernel.supported) continue;
    benchmark::RegisterBenchmark((std::string("BM_Crc64Kernel/") + kernel.name).c_str(),
                                 BM_Crc64Kernel, kernel)
        ->Arg(4096)
        ->Arg(65536);
  }
  return true;
}();

// crc64_combine joining a 64 KiB body onto a prefix, each call fed the last
// one's result so the loop measures latency, not throughput.
void BM_Crc64Combine(benchmark::State& state) {
  const auto len = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t crc = 0x0123456789ABCDEFULL;
  for (auto _ : state) {
    crc = util::crc64_combine(crc, 0xFEDCBA9876543210ULL, len);
    benchmark::DoNotOptimize(crc);
  }
}
BENCHMARK(BM_Crc64Combine)->Arg(65536)->Unit(benchmark::kNanosecond);

void BM_GuestStep(benchmark::State& state) {
  sim::register_standard_guests();
  sim::SimKernel kernel;
  sim::WriterConfig config;
  config.array_bytes = static_cast<std::uint64_t>(state.range(0));
  kernel.spawn(sim::DenseWriterGuest::kTypeName, config.encode(),
               sim::spawn_options_for_array(config.array_bytes));
  for (auto _ : state) {
    kernel.run_round();
  }
}
BENCHMARK(BM_GuestStep)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_KernelCapture(benchmark::State& state) {
  sim::register_standard_guests();
  sim::SimKernel kernel;
  sim::WriterConfig config;
  config.array_bytes = static_cast<std::uint64_t>(state.range(0));
  const sim::Pid pid = kernel.spawn(sim::DenseWriterGuest::kTypeName, config.encode(),
                                    sim::spawn_options_for_array(config.array_bytes));
  kernel.run_until(kernel.now() + 2 * kMillisecond);
  sim::Process& proc = kernel.process(pid);
  for (auto _ : state) {
    auto image = core::capture_kernel_level(kernel, proc, core::CaptureOptions{});
    benchmark::DoNotOptimize(image.payload_bytes());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KernelCapture)->Arg(256 * 1024)->Arg(1024 * 1024);

void BM_ImageSerializeRoundTrip(benchmark::State& state) {
  sim::register_standard_guests();
  sim::SimKernel kernel;
  sim::WriterConfig config;
  config.array_bytes = static_cast<std::uint64_t>(state.range(0));
  const sim::Pid pid = kernel.spawn(sim::DenseWriterGuest::kTypeName, config.encode(),
                                    sim::spawn_options_for_array(config.array_bytes));
  kernel.run_until(kernel.now() + 2 * kMillisecond);
  const auto image =
      core::capture_kernel_level(kernel, kernel.process(pid), core::CaptureOptions{});
  for (auto _ : state) {
    const auto bytes = image.serialize();
    auto copy = storage::CheckpointImage::deserialize(bytes);
    benchmark::DoNotOptimize(copy.page_count());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ImageSerializeRoundTrip)->Arg(256 * 1024);

void BM_ForkCow(benchmark::State& state) {
  sim::register_standard_guests();
  sim::SimKernel kernel;
  sim::WriterConfig config;
  config.array_bytes = 1024 * 1024;
  const sim::Pid pid = kernel.spawn(sim::DenseWriterGuest::kTypeName, config.encode(),
                                    sim::spawn_options_for_array(config.array_bytes));
  kernel.run_until(kernel.now() + 2 * kMillisecond);
  sim::Process& proc = kernel.process(pid);
  for (auto _ : state) {
    const sim::Pid child = kernel.fork_process(proc, true);
    kernel.terminate(kernel.process(child), 0);
    kernel.reap(child);
  }
}
BENCHMARK(BM_ForkCow);

// Restart of an incremental chain at depth 7 from memory: an 8 MiB full
// image plus seven deltas, each rewriting a seeded 10% of its pages whole.
// Loads (deserialize + CRC) and the chain fold are both inside the loop.
void BM_ChainReconstruct(benchmark::State& state) {
  constexpr std::uint64_t kPages = (8 << 20) / sim::kPageSize;
  storage::MemoryBackend backend{sim::CostModel{}};
  storage::CheckpointChain chain(&backend);
  util::Rng rng(0xC4A1'2026ULL);
  const sim::Vma vma{sim::page_of(0x10000), kPages, sim::kProtRW, sim::VmaKind::kData, "data"};
  for (std::uint64_t link = 0; link < 8; ++link) {
    storage::CheckpointImage image;
    image.kind = link == 0 ? storage::ImageKind::kFull : storage::ImageKind::kIncremental;
    image.threads.push_back(storage::ThreadImage{1, {}});
    storage::MemorySegmentImage seg;
    seg.vma = vma;
    for (std::uint64_t i = 0; i < kPages; ++i) {
      if (link > 0 && !rng.next_bool(0.1)) continue;
      seg.pages.push_back(storage::PageImage{
          vma.first_page + i, 0,
          std::vector<std::byte>(sim::kPageSize, static_cast<std::byte>(link * 31 + i))});
    }
    image.segments.push_back(std::move(seg));
    chain.append(std::move(image), nullptr);
  }
  const std::uint64_t newest = chain.newest_sequence();
  for (auto _ : state) {
    const auto image = chain.reconstruct_at(newest, nullptr);
    benchmark::DoNotOptimize(image->page_count());
  }
}
BENCHMARK(BM_ChainReconstruct)->Unit(benchmark::kMillisecond);

// The prune after a full commit on a 3-replica flat store (a local disk and
// two remotes): each iteration appends a 16 MiB full image, untimed, then
// times the prune, which proves the new image loads (StorageBackend::verify)
// and drops the one before it.
void BM_ChainPrune(benchmark::State& state) {
  constexpr std::uint64_t kPages = (16 << 20) / sim::kPageSize;
  const sim::CostModel costs{};
  storage::LocalDiskBackend local{costs};
  storage::RemoteBackend remote_a{costs};
  storage::RemoteBackend remote_b{costs};
  storage::ReplicatedStore store({&local, &remote_a, &remote_b});
  storage::CheckpointChain chain(&store);
  util::Rng rng(0xC4A1'2027ULL);
  storage::CheckpointImage image;
  image.threads.push_back(storage::ThreadImage{1, {}});
  storage::MemorySegmentImage seg;
  seg.vma = sim::Vma{sim::page_of(0x10000), kPages, sim::kProtRW, sim::VmaKind::kData, "data"};
  for (std::uint64_t i = 0; i < kPages; ++i) {
    seg.pages.push_back(storage::PageImage{
        seg.vma.first_page + i, 0,
        std::vector<std::byte>(sim::kPageSize, static_cast<std::byte>(rng.next_u64()))});
  }
  image.segments.push_back(std::move(seg));
  for (auto _ : state) {
    state.PauseTiming();
    chain.append(image, nullptr);
    state.ResumeTiming();
    chain.prune();
    benchmark::DoNotOptimize(chain.length());
  }
}
BENCHMARK(BM_ChainPrune)->Unit(benchmark::kMillisecond);

/// The console reporter (uncoloured), plus the two figures the crc gate
/// reads.
class CrcGateReporter : public benchmark::ConsoleReporter {
 public:
  CrcGateReporter() : ConsoleReporter(OO_Tabular) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      if (name == "BM_Crc64/65536") {
        gib_per_s = run.counters.at("bytes_per_second").value / (1 << 30);
      } else if (name == "BM_Crc64Combine/65536") {
        combine_ns = run.GetAdjustedRealTime();  // registered in nanoseconds
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::optional<double> gib_per_s;
  std::optional<double> combine_ns;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    benchmark::ReportUnrecognizedArguments(argc, argv);
    return 2;
  }
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_crc.json";
  CrcGateReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!reporter.gib_per_s || !reporter.combine_ns) return 0;

  const std::string kernel = util::crc64_kernel_name();
  bench::Report report("micro_substrate");
  report.put("crc64_kernel", kernel)
      .put("crc64_gib_per_s", *reporter.gib_per_s, 2)
      .put("combine_ns", *reporter.combine_ns, 1);
  if (kernel != "sliced") {
    report.gate("crc64_gib_per_s", *reporter.gib_per_s, bench::Op::kGe, 4.0)
        .gate("crc64_gib_per_s", *reporter.gib_per_s, bench::Op::kGe, 8.0, bench::Level::kWarn)
        .gate("combine_ns", *reporter.combine_ns, bench::Op::kLe, 1000)
        .gate("combine_ns", *reporter.combine_ns, bench::Op::kLe, 100, bench::Level::kWarn);
  }
  return report.finish(json_path, "crc64() on the " + kernel +
                                      " kernel hashes a 64 KiB buffer at >= 8 GiB/s and "
                                      "crc64_combine joins a 64 KiB body in <= 100 ns");
}
