#include <gtest/gtest.h>

#include <memory>

#include "core/capture.hpp"
#include "core/systemlevel.hpp"
#include "core/userlevel.hpp"
#include "obs/observer.hpp"
#include "sim/userapi.hpp"
#include "storage/replicated.hpp"
#include "test_common.hpp"

namespace ckpt::core {
namespace {

using ckpt::test::SimTest;
using ckpt::test::run_steps;

// ---------------------------------------------------------------------------
// SyscallEngine
// ---------------------------------------------------------------------------

class SyscallEngineTest : public SimTest {
 protected:
  sim::SimKernel kernel_;
  storage::LocalDiskBackend backend_{sim::CostModel{}};
};

TEST_F(SyscallEngineTest, SelfInvokedCheckpointViaCurrentMacro) {
  SyscallEngine engine("vmadump", &backend_, EngineOptions{}, kernel_,
                       SyscallEngine::TargetMode::kCurrent, nullptr);
  sim::SelfCheckpointGuest::Config config;
  config.syscall_name = engine.dump_syscall();
  config.interval_steps = 10;
  const sim::Pid pid =
      kernel_.spawn(sim::SelfCheckpointGuest::kTypeName, config.encode());
  run_steps(kernel_, pid, 25);
  // Two self-initiated checkpoints (at steps 10 and 20).
  EXPECT_EQ(engine.history().size(), 2u);
  EXPECT_TRUE(engine.history()[0].ok);
  EXPECT_EQ(engine.checkpoints_taken(pid), 2u);
}

TEST_F(SyscallEngineTest, CurrentModeRefusesExternalInitiation) {
  SyscallEngine engine("vmadump", &backend_, EngineOptions{}, kernel_,
                       SyscallEngine::TargetMode::kCurrent, nullptr);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  run_steps(kernel_, pid, 2);
  EXPECT_EQ(engine.request_checkpoint_async(kernel_, pid), 0u);
  EXPECT_FALSE(engine.supports_external_initiation());
}

TEST_F(SyscallEngineTest, ByPidModeCheckpointsExternally) {
  SyscallEngine engine("epckpt", &backend_, EngineOptions{}, kernel_,
                       SyscallEngine::TargetMode::kByPid, nullptr);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  run_steps(kernel_, pid, 5);
  const CheckpointResult result = engine.request_checkpoint(kernel_, pid);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.payload_bytes, 0u);
}

TEST_F(SyscallEngineTest, ByPidModeRejectsUnknownPid) {
  SyscallEngine engine("epckpt", &backend_, EngineOptions{}, kernel_,
                       SyscallEngine::TargetMode::kByPid, nullptr);
  EXPECT_EQ(engine.request_checkpoint_async(kernel_, 999), 0u);
}

TEST_F(SyscallEngineTest, SelfCheckpointAvoidsAddressSpaceSwitch) {
  // The `current` path runs behind the checkpointed process: its page
  // tables are already live.  An external by-pid capture must switch.
  SyscallEngine self_engine("vmadump", &backend_, EngineOptions{}, kernel_,
                            SyscallEngine::TargetMode::kCurrent, nullptr);
  sim::SelfCheckpointGuest::Config config;
  config.syscall_name = self_engine.dump_syscall();
  config.interval_steps = 5;
  const sim::Pid pid =
      kernel_.spawn(sim::SelfCheckpointGuest::kTypeName, config.encode());
  run_steps(kernel_, pid, 4);
  const std::uint64_t before = kernel_.stats().aspace_switches;
  run_steps(kernel_, pid, 6);  // crosses the self-checkpoint at step 5
  ASSERT_GE(self_engine.history().size(), 1u);
  // Only the process itself ran: no extra address-space switches beyond the
  // scheduler's own bookkeeping for this single process.
  EXPECT_EQ(kernel_.stats().aspace_switches, before);
}

// ---------------------------------------------------------------------------
// KernelSignalEngine
// ---------------------------------------------------------------------------

class KernelSignalEngineTest : public SimTest {
 protected:
  sim::SimKernel kernel_;
  storage::LocalDiskBackend backend_{sim::CostModel{}};
};

TEST_F(KernelSignalEngineTest, CheckpointOnSignalDelivery) {
  KernelSignalEngine engine("chpox", &backend_, EngineOptions{}, kernel_, sim::kSigCkpt,
                            nullptr);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  run_steps(kernel_, pid, 3);
  const CheckpointResult result = engine.request_checkpoint(kernel_, pid);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(kernel_.process(pid).alive());  // action replaced termination
}

TEST_F(KernelSignalEngineTest, RawKillAlsoTriggers) {
  KernelSignalEngine engine("chpox", &backend_, EngineOptions{}, kernel_, sim::kSigCkpt,
                            nullptr);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  run_steps(kernel_, pid, 3);
  // kill -CKPT <pid> from the command line, no engine involvement.
  kernel_.send_signal(pid, sim::kSigCkpt);
  kernel_.run_until(kernel_.now() + 5 * kMillisecond);
  EXPECT_EQ(engine.history().size(), 1u);
  EXPECT_TRUE(engine.history()[0].ok);
}

TEST_F(KernelSignalEngineTest, DeliveryDeferredUntilTargetScheduled) {
  KernelSignalEngine engine("sig", &backend_, EngineOptions{}, kernel_, sim::kSigCkpt,
                            nullptr);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  run_steps(kernel_, pid, 2);
  const CheckpointResult result = engine.request_checkpoint(kernel_, pid);
  ASSERT_TRUE(result.ok);
  // On an idle machine the target is scheduled at the next round, so the
  // deferral can be zero; it must never be negative, and the capture must
  // not precede the request.
  EXPECT_GE(result.started_at, result.initiated_at);
  EXPECT_GE(result.completed_at, result.started_at);
}

TEST_F(KernelSignalEngineTest, InitiationLatencyGrowsWithLoad) {
  // The survey: "there is no way to know when the signal handler will be
  // executed ... depends on how many processes are in the system".
  auto measure = [](int competing) -> SimTime {
    sim::register_standard_guests();
    sim::SimKernel kernel;
    storage::LocalDiskBackend backend{sim::CostModel{}};
    KernelSignalEngine engine("sig", &backend, EngineOptions{}, kernel, sim::kSigCkpt,
                              nullptr);
    const sim::Pid target = kernel.spawn(sim::CounterGuest::kTypeName);
    for (int i = 0; i < competing; ++i) kernel.spawn(sim::CounterGuest::kTypeName);
    kernel.run_until(kernel.now() + 10 * kMillisecond);
    const CheckpointResult result = engine.request_checkpoint(kernel, target);
    EXPECT_TRUE(result.ok);
    return result.initiation_latency();
  };
  const SimTime idle = measure(0);
  const SimTime loaded = measure(12);
  EXPECT_GT(loaded, 2 * idle);
}

TEST_F(KernelSignalEngineTest, StoppedTargetDefersUntilContinued) {
  KernelSignalEngine engine("sig", &backend_, EngineOptions{}, kernel_, sim::kSigCkpt,
                            nullptr);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  run_steps(kernel_, pid, 2);
  kernel_.stop_process(kernel_.process(pid));
  const std::uint64_t ticket = engine.request_checkpoint_async(kernel_, pid);
  ASSERT_NE(ticket, 0u);
  kernel_.run_until(kernel_.now() + 20 * kMillisecond);
  EXPECT_FALSE(engine.is_complete(ticket));  // never scheduled: never delivered
  kernel_.send_signal(pid, sim::kSigCont);
  kernel_.run_until(kernel_.now() + 20 * kMillisecond);
  EXPECT_TRUE(engine.is_complete(ticket));
}

// ---------------------------------------------------------------------------
// KernelThreadEngine: interfaces
// ---------------------------------------------------------------------------

class KThreadInterfaceTest : public SimTest,
                             public ::testing::WithParamInterface<KThreadInterface> {};

TEST_P(KThreadInterfaceTest, CheckpointThroughInterface) {
  sim::SimKernel kernel;
  storage::LocalDiskBackend backend{sim::CostModel{}};
  sim::KernelModule& module = kernel.load_module("kt");
  KernelThreadEngine::ThreadConfig config;
  config.interface = GetParam();
  KernelThreadEngine engine("kt", &backend, EngineOptions{}, kernel, config, &module);

  const sim::Pid pid = kernel.spawn(sim::CounterGuest::kTypeName);
  run_steps(kernel, pid, 3);

  // Drive through the actual user-space interface, as a tool process would.
  sim::Process& tool = kernel.process(kernel.spawn(sim::CounterGuest::kTypeName));
  sim::UserApi api(kernel, tool);
  std::int64_t ticket = -1;
  switch (GetParam()) {
    case KThreadInterface::kDeviceIoctl: {
      const sim::Fd fd = api.sys_open(engine.device_path(), sim::kOpenRead);
      ASSERT_GE(fd, 0);
      ticket = api.sys_ioctl(fd, KernelThreadEngine::kIoctlCheckpoint,
                             static_cast<std::uint64_t>(pid));
      break;
    }
    case KThreadInterface::kProcFs: {
      const sim::Fd fd = api.sys_open(engine.proc_path(), sim::kOpenWrite);
      ASSERT_GE(fd, 0);
      const std::string text = std::to_string(pid);
      ticket = api.sys_write(fd, text);
      break;
    }
    case KThreadInterface::kSyscall:
      ticket = api.sys_custom("kt_request", static_cast<std::uint64_t>(pid));
      break;
    case KThreadInterface::kNone:
      GTEST_SKIP();
  }
  ASSERT_GT(ticket, 0);
  kernel.run_while([&] { return !engine.is_complete(static_cast<std::uint64_t>(ticket)); },
                   kernel.now() + 10 * kSecond);
  const CheckpointResult result = engine.result(static_cast<std::uint64_t>(ticket));
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.payload_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Interfaces, KThreadInterfaceTest,
                         ::testing::Values(KThreadInterface::kDeviceIoctl,
                                           KThreadInterface::kProcFs,
                                           KThreadInterface::kSyscall),
                         [](const auto& info) {
                           switch (info.param) {
                             case KThreadInterface::kDeviceIoctl: return "ioctl";
                             case KThreadInterface::kProcFs: return "procfs";
                             case KThreadInterface::kSyscall: return "syscall";
                             default: return "none";
                           }
                         });

// ---------------------------------------------------------------------------
// KernelThreadEngine: consistency modes (the §4.1 argument)
// ---------------------------------------------------------------------------

struct ConsistencyCase {
  const char* name;
  ConsistencyMode mode;
  sim::SchedClass thread_class;
  int ncpus;
  bool expect_consistent;
};

// gtest lists a TEST_P's parameter after its name, and ctest takes that
// listing as the test's name. Without this the parameter prints as a byte
// dump that starts with the address of `name`, so the names changed with
// every build and run.
void PrintTo(const ConsistencyCase& c, std::ostream* os) { *os << c.name; }

class ConsistencyMatrix : public SimTest,
                          public ::testing::WithParamInterface<ConsistencyCase> {};

TEST_P(ConsistencyMatrix, SnapshotConsistency) {
  const ConsistencyCase& param = GetParam();
  sim::SimKernel kernel(param.ncpus);
  storage::LocalDiskBackend backend{sim::CostModel{}};
  sim::KernelModule& module = kernel.load_module("kt");

  EngineOptions options;
  options.consistency = param.mode;
  KernelThreadEngine::ThreadConfig config;
  config.pages_per_step = 4;  // slow copier: captures span many quanta
  config.sched = param.thread_class == sim::SchedClass::kFifo
                     ? sim::SchedParams{sim::SchedClass::kFifo, 50, 0, 0}
                     : sim::SchedParams{sim::SchedClass::kTimeshare, 0, 0, 0};
  KernelThreadEngine engine("kt", &backend, options, kernel, config, &module);

  sim::WriterConfig guest_config;
  guest_config.array_bytes = 64 * sim::kPageSize;
  const sim::Pid pid =
      kernel.spawn(sim::InvariantGuest::kTypeName, guest_config.encode(),
                   sim::spawn_options_for_array(guest_config.array_bytes));
  run_steps(kernel, pid, 3);

  const CheckpointResult ckpt = engine.request_checkpoint(kernel, pid);
  ASSERT_TRUE(ckpt.ok) << ckpt.error;

  // Materialize the image and check the cross-page invariant.
  const RestartResult restored = engine.restart(kernel, pid);
  ASSERT_TRUE(restored.ok) << restored.error;
  const bool consistent = sim::InvariantGuest::verify_consistency(
      kernel, kernel.process(restored.pid), guest_config.array_bytes);
  EXPECT_EQ(consistent, param.expect_consistent) << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ConsistencyMatrix,
    ::testing::Values(
        // Stopping the target always yields a consistent image.
        ConsistencyCase{"stop_uni", ConsistencyMode::kStopTarget, sim::SchedClass::kFifo, 1,
                        true},
        ConsistencyCase{"stop_smp", ConsistencyMode::kStopTarget, sim::SchedClass::kFifo, 2,
                        true},
        // Fork-and-copy: the frozen COW child is consistent by construction.
        ConsistencyCase{"fork_uni", ConsistencyMode::kForkAndCopy, sim::SchedClass::kFifo,
                        1, true},
        ConsistencyCase{"fork_smp", ConsistencyMode::kForkAndCopy, sim::SchedClass::kFifo,
                        2, true},
        // Concurrent + SCHED_FIFO on a uniprocessor: the thread runs to
        // completion unpreempted, so nothing changes under it.
        ConsistencyCase{"conc_fifo_uni", ConsistencyMode::kConcurrent,
                        sim::SchedClass::kFifo, 1, true},
        // Concurrent + timeshare thread: the app runs between copy chunks.
        ConsistencyCase{"conc_ts_uni", ConsistencyMode::kConcurrent,
                        sim::SchedClass::kTimeshare, 1, false},
        // Concurrent on SMP: even a FIFO thread races the app on the other
        // CPU — the survey's multiprocessor warning.
        ConsistencyCase{"conc_fifo_smp", ConsistencyMode::kConcurrent,
                        sim::SchedClass::kFifo, 2, false}),
    [](const auto& info) { return info.param.name; });

TEST_F(SyscallEngineTest, ForkAndCopyLetsApplicationKeepRunning) {
  // Claim C7: stop-the-world halts the app for the whole capture; fork lets
  // it progress at COW cost.
  auto progress_during_checkpoint = [](ConsistencyMode mode) -> std::uint64_t {
    sim::register_standard_guests();
    sim::SimKernel kernel(2);
    storage::LocalDiskBackend backend{sim::CostModel{}};
    sim::KernelModule& module = kernel.load_module("kt");
    EngineOptions options;
    options.consistency = mode;
    KernelThreadEngine::ThreadConfig config;
    config.pages_per_step = 2;  // deliberately slow
    KernelThreadEngine engine("kt", &backend, options, kernel, config, &module);

    sim::WriterConfig wc;
    wc.array_bytes = 64 * sim::kPageSize;
    const sim::Pid pid = kernel.spawn(sim::DenseWriterGuest::kTypeName, wc.encode(),
                                      sim::spawn_options_for_array(wc.array_bytes));
    run_steps(kernel, pid, 3);
    const std::uint64_t before = kernel.process(pid).stats.guest_iterations;
    const CheckpointResult result = engine.request_checkpoint(kernel, pid);
    EXPECT_TRUE(result.ok);
    return kernel.process(pid).stats.guest_iterations - before;
  };
  const std::uint64_t stopped = progress_during_checkpoint(ConsistencyMode::kStopTarget);
  const std::uint64_t forked = progress_during_checkpoint(ConsistencyMode::kForkAndCopy);
  EXPECT_GT(forked, stopped);
}

// ---------------------------------------------------------------------------
// UserLevelEngine
// ---------------------------------------------------------------------------

class UserLevelEngineTest : public SimTest {
 protected:
  sim::SimKernel kernel_;
  storage::LocalDiskBackend backend_{sim::CostModel{}};
};

TEST_F(UserLevelEngineTest, SignalHandlerModeCheckpointsOnDemand) {
  UserLevelEngine::UserConfig config;
  config.mode = UserLevelEngine::Mode::kSignalHandler;
  UserLevelEngine engine("libckpt", &backend_, EngineOptions{}, config);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  ASSERT_TRUE(engine.attach(kernel_, pid));
  run_steps(kernel_, pid, 3);
  const CheckpointResult result = engine.request_checkpoint(kernel_, pid);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.payload_bytes, 0u);
  EXPECT_GE(result.started_at, result.initiated_at);  // deferred like any signal
}

TEST_F(UserLevelEngineTest, RefusesWithoutLibraryLinked) {
  UserLevelEngine::UserConfig config;
  UserLevelEngine engine("libckpt", &backend_, EngineOptions{}, config);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  run_steps(kernel_, pid, 2);
  // No attach: the signal would kill the app; the engine refuses instead.
  EXPECT_EQ(engine.request_checkpoint_async(kernel_, pid), 0u);
}

TEST_F(UserLevelEngineTest, PeriodicAutomaticInitiation) {
  UserLevelEngine::UserConfig config;
  config.mode = UserLevelEngine::Mode::kSignalHandler;
  config.periodic_interval = 5 * kMillisecond;
  UserLevelEngine engine("esky", &backend_, EngineOptions{}, config);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  ASSERT_TRUE(engine.attach(kernel_, pid));
  kernel_.run_until(kernel_.now() + 30 * kMillisecond);
  EXPECT_GE(engine.history().size(), 3u);
  for (const auto& result : engine.history()) EXPECT_TRUE(result.ok);
}

TEST_F(UserLevelEngineTest, SourceCodeModeViaLibraryCall) {
  UserLevelEngine::UserConfig config;
  config.mode = UserLevelEngine::Mode::kSourceCode;
  UserLevelEngine engine("libckpt", &backend_, EngineOptions{}, config);

  sim::SelfCheckpointGuest::Config guest_config;
  guest_config.syscall_name = "ckpt_now";
  guest_config.use_library = true;
  guest_config.interval_steps = 8;
  const sim::Pid pid =
      kernel_.spawn(sim::SelfCheckpointGuest::kTypeName, guest_config.encode());
  ASSERT_TRUE(engine.attach(kernel_, pid));
  run_steps(kernel_, pid, 20);
  EXPECT_EQ(engine.history().size(), 2u);
  EXPECT_FALSE(engine.supports_external_initiation());
}

TEST_F(UserLevelEngineTest, ReentrancyHazardDeadlocks) {
  UserLevelEngine::UserConfig config;
  config.mode = UserLevelEngine::Mode::kSignalHandler;
  UserLevelEngine engine("libckpt", &backend_, EngineOptions{}, config);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  ASSERT_TRUE(engine.attach(kernel_, pid));
  run_steps(kernel_, pid, 2);
  // The signal lands while the app is inside malloc().
  kernel_.process(pid).in_nonreentrant_call = true;
  const CheckpointResult result = engine.request_checkpoint(kernel_, pid);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(engine.deadlocks(), 1u);
  EXPECT_EQ(kernel_.process(pid).state, sim::TaskState::kBlocked);  // hung
}

TEST_F(UserLevelEngineTest, PreloadModeInterposesFromStart) {
  UserLevelEngine::UserConfig config;
  config.mode = UserLevelEngine::Mode::kPreload;
  UserLevelEngine engine("preload", &backend_, EngineOptions{}, config);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  ASSERT_TRUE(engine.attach(kernel_, pid));
  EXPECT_TRUE(kernel_.process(pid).interposer.has_value());
  run_steps(kernel_, pid, 3);
  const CheckpointResult result = engine.request_checkpoint(kernel_, pid);
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_F(UserLevelEngineTest, RestartFromUserLevelImage) {
  UserLevelEngine::UserConfig config;
  UserLevelEngine engine("libckpt", &backend_, EngineOptions{}, config);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  ASSERT_TRUE(engine.attach(kernel_, pid));
  run_steps(kernel_, pid, 10);
  const std::uint64_t counter =
      sim::CounterGuest::read_counter(kernel_, kernel_.process(pid));
  const CheckpointResult ckpt = engine.request_checkpoint(kernel_, pid);
  ASSERT_TRUE(ckpt.ok);

  kernel_.terminate(kernel_.process(pid), 1);
  kernel_.reap(pid);
  const RestartResult restored = engine.restart(kernel_, pid);
  ASSERT_TRUE(restored.ok) << restored.error;
  const std::uint64_t after =
      sim::CounterGuest::read_counter(kernel_, kernel_.process(restored.pid));
  // The checkpoint ran from the signal handler a moment after `counter` was
  // read; allow the steps in between.
  EXPECT_GE(after, counter);
  EXPECT_LE(after, counter + 5);
}

// ---------------------------------------------------------------------------
// Incremental engine integration
// ---------------------------------------------------------------------------

TEST_F(SyscallEngineTest, IncrementalEngineShrinksImages) {
  EngineOptions options;
  options.incremental = true;
  options.tracker_factory = [] { return std::make_unique<KernelWpTracker>(); };
  options.full_every = 100;
  SyscallEngine engine("inc", &backend_, options, kernel_,
                       SyscallEngine::TargetMode::kByPid, nullptr);

  sim::WriterConfig config;
  config.array_bytes = 512 * 1024;
  config.working_set_fraction = 0.03;
  const sim::Pid pid = kernel_.spawn(sim::SparseWriterGuest::kTypeName, config.encode(),
                                     sim::spawn_options_for_array(config.array_bytes));
  ASSERT_TRUE(engine.attach(kernel_, pid));
  run_steps(kernel_, pid, 5);

  const CheckpointResult full = engine.request_checkpoint(kernel_, pid);
  ASSERT_TRUE(full.ok);
  EXPECT_EQ(full.kind, storage::ImageKind::kFull);

  run_steps(kernel_, pid, 10);
  const CheckpointResult delta = engine.request_checkpoint(kernel_, pid);
  ASSERT_TRUE(delta.ok);
  EXPECT_EQ(delta.kind, storage::ImageKind::kIncremental);
  EXPECT_LT(delta.payload_bytes * 4, full.payload_bytes);

  // Restart from the chain reproduces live state exactly.
  run_steps(kernel_, pid, 15);
  const CheckpointResult last = engine.request_checkpoint(kernel_, pid);
  ASSERT_TRUE(last.ok);
  const auto truth = capture_kernel_level(kernel_, kernel_.process(pid), CaptureOptions{});
  kernel_.terminate(kernel_.process(pid), 1);
  kernel_.reap(pid);
  const RestartResult restored = engine.restart(kernel_, pid);
  ASSERT_TRUE(restored.ok);
  const auto revived =
      capture_kernel_level(kernel_, kernel_.process(restored.pid), CaptureOptions{});
  EXPECT_TRUE(images_equal_memory(revived, truth));
}

TEST_F(SyscallEngineTest, FullEveryBoundsChainLength) {
  EngineOptions options;
  options.incremental = true;
  options.tracker_factory = [] { return std::make_unique<PteScanTracker>(); };
  options.full_every = 3;
  SyscallEngine engine("inc", &backend_, options, kernel_,
                       SyscallEngine::TargetMode::kByPid, nullptr);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  ASSERT_TRUE(engine.attach(kernel_, pid));
  std::vector<storage::ImageKind> kinds;
  for (int i = 0; i < 7; ++i) {
    run_steps(kernel_, pid, kernel_.process(pid).stats.guest_iterations + 3);
    const CheckpointResult result = engine.request_checkpoint(kernel_, pid);
    ASSERT_TRUE(result.ok);
    kinds.push_back(result.kind);
  }
  // Pattern: full, incr, incr, full, incr, incr, full.
  EXPECT_EQ(kinds[0], storage::ImageKind::kFull);
  EXPECT_EQ(kinds[1], storage::ImageKind::kIncremental);
  EXPECT_EQ(kinds[3], storage::ImageKind::kFull);
  EXPECT_EQ(kinds[6], storage::ImageKind::kFull);
}

// ---------------------------------------------------------------------------
// The shared store step: every engine family honours the commit options
// ---------------------------------------------------------------------------

/// One engine family under test, checkpointing one CounterGuest on demand.
enum class Family { kKernelThread, kUserLevel };

class StoreStepTest : public SimTest, public ::testing::WithParamInterface<Family> {
 protected:
  std::unique_ptr<CheckpointEngine> make_engine(storage::StorageBackend* backend,
                                                EngineOptions options) {
    if (GetParam() == Family::kKernelThread) {
      return std::make_unique<KernelThreadEngine>("kt", backend, std::move(options), kernel_,
                                                  KernelThreadEngine::ThreadConfig{},
                                                  &kernel_.load_module("kt"));
    }
    UserLevelEngine::UserConfig config;
    config.mode = UserLevelEngine::Mode::kSignalHandler;
    return std::make_unique<UserLevelEngine>("libckpt", backend, std::move(options), config);
  }

  obs::Observer observer_;  // declared first: outlives the kernel bound to it
  sim::SimKernel kernel_;
};

TEST_P(StoreStepTest, StoreRetrySurvivesOneShotRejection) {
  storage::LocalDiskBackend backend{sim::CostModel{}};
  EngineOptions options;
  options.store_retry.max_attempts = 3;
  auto engine = make_engine(&backend, options);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  ASSERT_TRUE(engine->attach(kernel_, pid));
  run_steps(kernel_, pid, 3);

  backend.inject_store_fault(storage::StoreFault::kReject);
  const CheckpointResult result = engine->request_checkpoint(kernel_, pid);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.store_retries, 1u);
  EXPECT_EQ(backend.list().size(), 1u);
  EXPECT_EQ(engine->checkpoints_taken(pid), 1u);
}

TEST_P(StoreStepTest, PruneAfterFullBoundsTheChainAndCollectsChunks) {
  sim::CostModel costs;
  storage::RemoteBackend replica_a{costs};
  storage::RemoteBackend replica_b{costs};
  storage::ReplicatedOptions store_options;
  store_options.dedup = true;
  storage::ReplicatedStore store({&replica_a, &replica_b}, store_options);
  kernel_.set_observer(&observer_);

  EngineOptions options;
  options.prune_after_full = true;
  auto engine = make_engine(&store, options);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  ASSERT_TRUE(engine->attach(kernel_, pid));
  for (int i = 0; i < 6; ++i) {
    run_steps(kernel_, pid, kernel_.process(pid).stats.guest_iterations + 3);
    const CheckpointResult result = engine->request_checkpoint(kernel_, pid);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_LE(engine->chain_of(pid)->length(), 2u) << "checkpoint " << i;
  }
  EXPECT_EQ(store.list().size(), engine->chain_of(pid)->length());
  EXPECT_GT(observer_.metrics().counter("gc.bytes_freed"), 0u);
  EXPECT_GT(observer_.metrics().counter("gc.runs"), 0u);
}

TEST_P(StoreStepTest, StreamingIsRefusedUpFront) {
  // A flat ReplicatedStore passes the base engine's backend check, so the
  // refusal pinned here is the family's own.
  sim::CostModel costs;
  storage::RemoteBackend replica_a{costs};
  storage::RemoteBackend replica_b{costs};
  storage::ReplicatedStore store({&replica_a, &replica_b}, storage::ReplicatedOptions{});
  ASSERT_NE(store.stream_target(), nullptr);
  EngineOptions options;
  options.consistency = ConsistencyMode::kForkAndCopy;
  options.streaming = true;
  EXPECT_THROW(make_engine(&store, options), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Families, StoreStepTest,
                         ::testing::Values(Family::kKernelThread, Family::kUserLevel),
                         [](const auto& info) {
                           return info.param == Family::kKernelThread ? "kthread"
                                                                      : "userlevel";
                         });

}  // namespace
}  // namespace ckpt::core
