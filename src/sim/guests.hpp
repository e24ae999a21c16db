// Standard guest workloads used by tests, benchmarks and examples.
//
// Each guest keeps all mutable state in simulated memory (see guest.hpp's
// von-Neumann contract) and encodes its immutable configuration in a small
// blob, so any of them can be checkpointed and restarted by any mechanism.
//
// The write-pattern spectrum matters for the incremental-checkpointing
// experiments (claim C3): DenseWriterGuest dirties nearly all of its memory
// every interval (incremental gains nothing), SparseWriterGuest dirties a
// small working set (incremental wins), and SweepWriterGuest moves a write
// front across memory (delta tracks the front size).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/guest.hpp"
#include "sim/types.hpp"
#include "sim/userapi.hpp"
#include "util/serialize.hpp"

namespace ckpt::sim {

/// Increment a counter at the base of the data segment each step.  The
/// simplest restartable program; its progress is directly observable.
class CounterGuest : public GuestProgram {
 public:
  static constexpr const char* kTypeName = "counter";
  static constexpr VAddr kCounterAddr = kDataBase;

  GuestStatus on_step(UserApi& api) override;

  /// Read the counter from outside (test assertions).
  static std::uint64_t read_counter(SimKernel& kernel, Process& proc);
};

/// Configuration shared by the array-writer guests.
struct WriterConfig {
  std::uint64_t array_bytes = 64 * 1024;
  std::uint64_t writes_per_step = 16;
  std::uint64_t seed = 1;
  /// Sparse mode: fraction of the array forming the hot working set.
  double working_set_fraction = 0.1;

  [[nodiscard]] std::vector<std::byte> encode() const;
  static WriterConfig decode(const std::vector<std::byte>& blob);
};

/// Writes `writes_per_step` 64-byte records at uniformly random offsets
/// across the whole array: dirties pages quickly and widely.
class DenseWriterGuest : public GuestProgram {
 public:
  static constexpr const char* kTypeName = "dense_writer";
  explicit DenseWriterGuest(WriterConfig config) : config_(config) {}

  void on_start(UserApi& api) override;
  GuestStatus on_step(UserApi& api) override;

 protected:
  [[nodiscard]] const WriterConfig& config() const { return config_; }

 private:
  WriterConfig config_;
};

/// Writes only within a small hot working set: the favourable case for
/// incremental checkpointing.
class SparseWriterGuest : public GuestProgram {
 public:
  static constexpr const char* kTypeName = "sparse_writer";
  explicit SparseWriterGuest(WriterConfig config) : config_(config) {}

  void on_start(UserApi& api) override;
  GuestStatus on_step(UserApi& api) override;

 private:
  WriterConfig config_;
};

/// Moves a sequential write front across the array, wrapping around — the
/// scientific-computing sweep pattern from the feasibility study [31].
class SweepWriterGuest : public GuestProgram {
 public:
  static constexpr const char* kTypeName = "sweep_writer";
  explicit SweepWriterGuest(WriterConfig config) : config_(config) {}

  void on_start(UserApi& api) override;
  GuestStatus on_step(UserApi& api) override;

 private:
  WriterConfig config_;
};

/// Maintains a cross-page invariant: every page of its array stores the
/// same version number, bumped by a multi-page (non-atomic) update each
/// step.  A checkpoint taken mid-update captures a *torn* state, which
/// InvariantGuest::verify_consistency() detects — the data-consistency hazard of
/// concurrent kernel-thread checkpointing.
class InvariantGuest : public GuestProgram {
 public:
  static constexpr const char* kTypeName = "invariant";
  explicit InvariantGuest(WriterConfig config) : config_(config) {}

  void on_start(UserApi& api) override;
  GuestStatus on_step(UserApi& api) override;

  /// Check the invariant over a process's live memory.
  static bool verify_consistency(SimKernel& kernel, Process& proc, std::uint64_t array_bytes);

 private:
  WriterConfig config_;
};

/// Syscall-heavy workload: opens/appends/seeks a log file and churns the
/// heap with sbrk.  Exercises descriptor and heap state capture.
class FileLoggerGuest : public GuestProgram {
 public:
  static constexpr const char* kTypeName = "file_logger";
  struct Config {
    std::string log_path = "/data/app.log";
    std::uint64_t record_bytes = 256;

    [[nodiscard]] std::vector<std::byte> encode() const;
    static Config decode(const std::vector<std::byte>& blob);
  };
  explicit FileLoggerGuest(Config config) : config_(std::move(config)) {}

  void on_start(UserApi& api) override;
  GuestStatus on_step(UserApi& api) override;

 private:
  Config config_;
};

/// A guest that checkpoints *itself* by invoking a registered checkpoint
/// system call every `interval_steps` steps — the VMADump usage model.
/// The checkpoint call is programmed into the application source: this is
/// precisely the transparency failure Table 1 records.
class SelfCheckpointGuest : public GuestProgram {
 public:
  static constexpr const char* kTypeName = "self_checkpoint";
  struct Config {
    std::string syscall_name = "vmadump_dump";
    std::uint64_t interval_steps = 10;
    std::uint64_t arg0 = 0;
    /// false: invoke as a system call (VMADump).  true: invoke as a
    /// user-level checkpoint-library function (libckpt source-code mode).
    bool use_library = false;

    [[nodiscard]] std::vector<std::byte> encode() const;
    static Config decode(const std::vector<std::byte>& blob);
  };
  explicit SelfCheckpointGuest(Config config) : config_(std::move(config)) {}

  void on_start(UserApi& api) override;
  GuestStatus on_step(UserApi& api) override;

 private:
  Config config_;
};

/// Register every guest type above with the global registry.  Safe to call
/// repeatedly; tests and binaries call it in main()/SetUp().
void register_standard_guests();

/// Helper: spawn options sized so `array_bytes` fits in the heap.
SpawnOptions spawn_options_for_array(std::uint64_t array_bytes);

}  // namespace ckpt::sim
