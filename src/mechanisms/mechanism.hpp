// The twelve surveyed mechanisms (Table 1), each a working configuration of
// the core engines with the historical system's interface, quirks and
// limitations:
//
//   VMADump, BPROC, EPCKPT, CRAK, UCLiK, CHPOX, ZAP, BLCR, LAM/MPI,
//   PsncR/C, Software Suspend, Checkpoint [5].
//
// Table 1 itself is *derived* by probing these implementations (see
// bench/table1): the matrix cannot drift from the code.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/hibernate.hpp"
#include "core/migrate.hpp"
#include "core/pod.hpp"
#include "core/systemlevel.hpp"
#include "core/taxonomy.hpp"
#include "core/userlevel.hpp"
#include "sim/kernel.hpp"
#include "storage/backend.hpp"

namespace ckpt::mechanisms {

/// The row the paper's Table 1 prints for this mechanism (expected values,
/// used by the bench to diff measured behaviour against the publication).
struct PaperRow {
  const char* incremental;
  const char* transparency;
  const char* storage;
  const char* initiation;
  const char* module;
};

class Mechanism {
 public:
  virtual ~Mechanism() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual const char* description() const = 0;
  [[nodiscard]] virtual core::TaxonomyPath taxonomy() const = 0;
  [[nodiscard]] virtual PaperRow paper_row() const = 0;
  [[nodiscard]] virtual bool is_kernel_module() const = 0;
  [[nodiscard]] virtual bool supports_multithreaded() const { return false; }
  [[nodiscard]] virtual std::vector<storage::StorageLocality> storage_localities()
      const = 0;

  /// Launch an application by this mechanism's required procedure (plain
  /// spawn for most; EPCKPT requires its launcher tool; BLCR performs the
  /// registration/initialization phase; user-level schemes link or preload
  /// the checkpoint library).
  virtual sim::Pid launch(sim::SimKernel& kernel, const std::string& guest,
                          std::vector<std::byte> config, const sim::SpawnOptions& options);

  /// Externally initiated checkpoint of `pid` through the mechanism's own
  /// interface.  Mechanisms without external initiation (VMADump,
  /// Checkpoint [5]) refuse; the app checkpoints itself instead.
  virtual core::CheckpointResult checkpoint(sim::SimKernel& kernel, sim::Pid pid);

  virtual core::RestartResult restart(sim::SimKernel& kernel, sim::Pid pid,
                                      const core::RestartOptions& options = {});

  [[nodiscard]] virtual bool supports_external_initiation() const;

  [[nodiscard]] core::CheckpointEngine* engine() { return engine_.get(); }

 protected:
  /// Refuse multithreaded targets unless supported — the BLCR distinction.
  bool check_thread_support(sim::SimKernel& kernel, sim::Pid pid,
                            core::CheckpointResult& out) const;

  std::unique_ptr<core::CheckpointEngine> engine_;
};

/// Context handed to mechanism factories: the kernel to install into plus
/// the node's storage backends.
struct MechanismContext {
  sim::SimKernel* kernel = nullptr;
  storage::StorageBackend* local = nullptr;   ///< node-local disk
  storage::StorageBackend* remote = nullptr;  ///< network stable storage
};

// --- The original implementations (§4.1, "first appearing around 2001") ---

/// VMADump: checkpoint via new syscalls, the app dumps *itself* (the
/// `current` macro); static kernel code; part of BProc.
class VmadumpMechanism final : public Mechanism {
 public:
  explicit VmadumpMechanism(const MechanismContext& context);
  [[nodiscard]] const char* name() const override { return "VMADump"; }
  [[nodiscard]] const char* description() const override {
    return "self-invoked dump syscalls (BProc's Virtual Memory Area Dumper)";
  }
  [[nodiscard]] core::TaxonomyPath taxonomy() const override;
  [[nodiscard]] PaperRow paper_row() const override {
    return {"no", "no", "local,remote", "automatic", "no"};
  }
  [[nodiscard]] bool is_kernel_module() const override { return false; }
  [[nodiscard]] std::vector<storage::StorageLocality> storage_localities() const override {
    return {storage::StorageLocality::kLocalDisk, storage::StorageLocality::kRemote};
  }
  /// The syscall a cooperative application must call.
  [[nodiscard]] const std::string& dump_syscall() const;
};

/// BProc: VMADump plus single-system-image process migration; no stable
/// storage of its own.
class BprocMechanism final : public Mechanism {
 public:
  explicit BprocMechanism(const MechanismContext& context);
  [[nodiscard]] const char* name() const override { return "BPROC"; }
  [[nodiscard]] const char* description() const override {
    return "Beowulf distributed process space: VMADump-based migration";
  }
  [[nodiscard]] core::TaxonomyPath taxonomy() const override;
  [[nodiscard]] PaperRow paper_row() const override {
    return {"no", "no", "none", "automatic", "no"};
  }
  [[nodiscard]] bool is_kernel_module() const override { return false; }
  [[nodiscard]] std::vector<storage::StorageLocality> storage_localities() const override {
    return {storage::StorageLocality::kNone};
  }
  /// Migrate a process to another node's kernel (its raison d'etre).
  core::MigrationResult migrate(sim::SimKernel& source, sim::SimKernel& destination,
                                sim::Pid pid);

 private:
  std::unique_ptr<storage::NullBackend> null_backend_;
};

/// EPCKPT: dump syscalls keyed by pid plus a new kernel checkpoint signal;
/// applications must be launched through its tool (run-time trace
/// overhead); static kernel code.
class EpckptMechanism final : public Mechanism {
 public:
  explicit EpckptMechanism(const MechanismContext& context);
  [[nodiscard]] const char* name() const override { return "EPCKPT"; }
  [[nodiscard]] const char* description() const override {
    return "pid-addressed dump syscall + checkpoint signal; launcher-tool tracing";
  }
  [[nodiscard]] core::TaxonomyPath taxonomy() const override;
  [[nodiscard]] PaperRow paper_row() const override {
    return {"no", "yes", "local,remote", "user", "no"};
  }
  [[nodiscard]] bool is_kernel_module() const override { return false; }
  [[nodiscard]] std::vector<storage::StorageLocality> storage_localities() const override {
    return {storage::StorageLocality::kLocalDisk, storage::StorageLocality::kRemote};
  }
  sim::Pid launch(sim::SimKernel& kernel, const std::string& guest,
                  std::vector<std::byte> config, const sim::SpawnOptions& options) override;
  core::CheckpointResult checkpoint(sim::SimKernel& kernel, sim::Pid pid) override;
  [[nodiscard]] bool supports_external_initiation() const override { return true; }

 private:
  std::set<sim::Pid> traced_;
};

// --- Kernel-thread family -------------------------------------------------

/// CRAK: kernel-module kernel thread driven through /dev ioctl; local or
/// remote storage; optional migration.
class CrakMechanism final : public Mechanism {
 public:
  explicit CrakMechanism(const MechanismContext& context);
  ~CrakMechanism() override;
  [[nodiscard]] const char* name() const override { return "CRAK"; }
  [[nodiscard]] const char* description() const override {
    return "kernel module + kernel thread, /dev ioctl interface, migration utility";
  }
  [[nodiscard]] core::TaxonomyPath taxonomy() const override;
  [[nodiscard]] PaperRow paper_row() const override {
    return {"no", "yes", "local,remote", "user", "yes"};
  }
  [[nodiscard]] bool is_kernel_module() const override { return true; }
  [[nodiscard]] std::vector<storage::StorageLocality> storage_localities() const override {
    return {storage::StorageLocality::kLocalDisk, storage::StorageLocality::kRemote};
  }
  core::MigrationResult migrate(sim::SimKernel& source, sim::SimKernel& destination,
                                sim::Pid pid);
  [[nodiscard]] const std::string& device_path() const;

 private:
  sim::SimKernel* kernel_;
};

/// UCLiK: CRAK lineage; local storage only; restores the original PID and
/// file contents, detects deleted files at restart.
class UclikMechanism final : public Mechanism {
 public:
  explicit UclikMechanism(const MechanismContext& context);
  ~UclikMechanism() override;
  [[nodiscard]] const char* name() const override { return "UCLik"; }
  [[nodiscard]] const char* description() const override {
    return "CRAK-derived module; original-PID and file-content restoration";
  }
  [[nodiscard]] core::TaxonomyPath taxonomy() const override;
  [[nodiscard]] PaperRow paper_row() const override {
    return {"no", "yes", "local", "user", "yes"};
  }
  [[nodiscard]] bool is_kernel_module() const override { return true; }
  [[nodiscard]] std::vector<storage::StorageLocality> storage_localities() const override {
    return {storage::StorageLocality::kLocalDisk};
  }
  core::RestartResult restart(sim::SimKernel& kernel, sim::Pid pid,
                              const core::RestartOptions& options = {}) override;

 private:
  sim::SimKernel* kernel_;
};

/// CHPOX: kernel module; /proc registration entry plus the SIGSYS kernel
/// signal; processes must be registered before checkpointing; local
/// storage; tuned within MOSIX.
class ChpoxMechanism final : public Mechanism {
 public:
  explicit ChpoxMechanism(const MechanismContext& context);
  ~ChpoxMechanism() override;
  [[nodiscard]] const char* name() const override { return "CHPOX"; }
  [[nodiscard]] const char* description() const override {
    return "module with /proc registration + SIGSYS kernel signal (MOSIX-tested)";
  }
  [[nodiscard]] core::TaxonomyPath taxonomy() const override;
  [[nodiscard]] PaperRow paper_row() const override {
    return {"no", "yes", "local", "user", "yes"};
  }
  [[nodiscard]] bool is_kernel_module() const override { return true; }
  [[nodiscard]] std::vector<storage::StorageLocality> storage_localities() const override {
    return {storage::StorageLocality::kLocalDisk};
  }
  /// Register a pid by writing to /proc/chpox (required before checkpoint).
  bool register_pid(sim::SimKernel& kernel, sim::Pid pid);
  core::CheckpointResult checkpoint(sim::SimKernel& kernel, sim::Pid pid) override;
  sim::Pid launch(sim::SimKernel& kernel, const std::string& guest,
                  std::vector<std::byte> config, const sim::SpawnOptions& options) override;

 private:
  sim::SimKernel* kernel_;
  std::set<sim::Pid> registered_;
};

/// BLCR: kernel module + kernel thread + ioctl; handles multithreaded
/// processes; needs an initialization phase (signal handler registration +
/// shared-library load), hence not fully transparent.
class BlcrMechanism final : public Mechanism {
 public:
  explicit BlcrMechanism(const MechanismContext& context);
  ~BlcrMechanism() override;
  [[nodiscard]] const char* name() const override { return "BLCR"; }
  [[nodiscard]] const char* description() const override {
    return "Berkeley Lab C/R: module + kthread + ioctl; multithreaded support";
  }
  [[nodiscard]] core::TaxonomyPath taxonomy() const override;
  [[nodiscard]] PaperRow paper_row() const override {
    return {"no", "no", "local,remote", "user", "yes"};
  }
  [[nodiscard]] bool is_kernel_module() const override { return true; }
  [[nodiscard]] bool supports_multithreaded() const override { return true; }
  [[nodiscard]] std::vector<storage::StorageLocality> storage_localities() const override {
    return {storage::StorageLocality::kLocalDisk, storage::StorageLocality::kRemote};
  }
  sim::Pid launch(sim::SimKernel& kernel, const std::string& guest,
                  std::vector<std::byte> config, const sim::SpawnOptions& options) override;
  core::CheckpointResult checkpoint(sim::SimKernel& kernel, sim::Pid pid) override;
  /// The BLCR initialization phase for an already-running process.
  bool initialize_process(sim::SimKernel& kernel, sim::Pid pid);

 private:
  sim::SimKernel* kernel_;
  std::set<sim::Pid> initialized_;
};

/// PsncR/C: module + kernel thread via /proc + ioctl; local disk only; no
/// data optimization — code, shared libraries and open files are always
/// included in the image.
class PsncrcMechanism final : public Mechanism {
 public:
  explicit PsncrcMechanism(const MechanismContext& context);
  ~PsncrcMechanism() override;
  [[nodiscard]] const char* name() const override { return "PsncR/C"; }
  [[nodiscard]] const char* description() const override {
    return "SUN-lineage module; /proc + ioctl; dumps everything, no optimization";
  }
  [[nodiscard]] core::TaxonomyPath taxonomy() const override;
  [[nodiscard]] PaperRow paper_row() const override {
    return {"no", "yes", "local", "user", "yes"};
  }
  [[nodiscard]] bool is_kernel_module() const override { return true; }
  [[nodiscard]] std::vector<storage::StorageLocality> storage_localities() const override {
    return {storage::StorageLocality::kLocalDisk};
  }

 private:
  sim::SimKernel* kernel_;
};

// --- Advanced / special-purpose -------------------------------------------

/// ZAP: pods virtualize PIDs/ports for conflict-free migration; kernel
/// module; no stable storage (live migration); per-syscall interception
/// overhead.
class ZapMechanism final : public Mechanism {
 public:
  explicit ZapMechanism(const MechanismContext& context);
  ~ZapMechanism() override;
  [[nodiscard]] const char* name() const override { return "ZAP"; }
  [[nodiscard]] const char* description() const override {
    return "pod virtualization (vPID/vport) for transparent migration";
  }
  [[nodiscard]] core::TaxonomyPath taxonomy() const override;
  [[nodiscard]] PaperRow paper_row() const override {
    return {"no", "yes", "none", "user", "yes"};
  }
  [[nodiscard]] bool is_kernel_module() const override { return true; }
  [[nodiscard]] std::vector<storage::StorageLocality> storage_localities() const override {
    return {storage::StorageLocality::kNone};
  }
  sim::Pid launch(sim::SimKernel& kernel, const std::string& guest,
                  std::vector<std::byte> config, const sim::SpawnOptions& options) override;
  /// Pod-based migration: succeeds even when pid/ports are taken on the
  /// destination.
  core::MigrationResult migrate(sim::SimKernel& source, sim::SimKernel& destination,
                                sim::Pid pid);
  [[nodiscard]] core::PodManager& pods() { return pods_; }
  [[nodiscard]] core::PodId pod_of(sim::Pid pid) const;

 private:
  sim::SimKernel* kernel_;
  core::PodManager pods_;
  std::map<sim::Pid, core::PodId> memberships_;
  std::unique_ptr<storage::MemoryBackend> ram_buffer_;
};

/// LAM/MPI: BLCR underneath, coordination above — transparent to the
/// application but the MPI library is modified to run BLCR's
/// initialization automatically.
class LamMpiMechanism final : public Mechanism {
 public:
  explicit LamMpiMechanism(const MechanismContext& context);
  ~LamMpiMechanism() override;
  [[nodiscard]] const char* name() const override { return "LAM/MPI"; }
  [[nodiscard]] const char* description() const override {
    return "coordinated MPI checkpointing over BLCR (modified MPI library)";
  }
  [[nodiscard]] core::TaxonomyPath taxonomy() const override;
  [[nodiscard]] PaperRow paper_row() const override {
    return {"no", "no", "local,remote", "user", "yes"};
  }
  [[nodiscard]] bool is_kernel_module() const override { return true; }
  [[nodiscard]] bool supports_multithreaded() const override { return true; }
  [[nodiscard]] std::vector<storage::StorageLocality> storage_localities() const override {
    return {storage::StorageLocality::kLocalDisk, storage::StorageLocality::kRemote};
  }
  /// Launch "via mpirun": the modified MPI library performs the BLCR
  /// registration transparently to the application.
  sim::Pid launch_mpi_rank(sim::SimKernel& kernel, const std::string& guest,
                           std::vector<std::byte> config, const sim::SpawnOptions& options);
  /// Under LAM/MPI everything starts through mpirun.
  sim::Pid launch(sim::SimKernel& kernel, const std::string& guest,
                  std::vector<std::byte> config, const sim::SpawnOptions& options) override {
    return launch_mpi_rank(kernel, guest, std::move(config), options);
  }
  core::CheckpointResult checkpoint(sim::SimKernel& kernel, sim::Pid pid) override;

 private:
  sim::SimKernel* kernel_;
  std::set<sim::Pid> mpi_launched_;
};

/// Software Suspend: in-tree (static) hibernation via a freeze signal and a
/// RAM image on the swap partition; standby saves to memory instead.
class SwsuspMechanism final : public Mechanism {
 public:
  explicit SwsuspMechanism(const MechanismContext& context);
  [[nodiscard]] const char* name() const override { return "Software Suspend"; }
  [[nodiscard]] const char* description() const override {
    return "whole-machine hibernation: freeze all, RAM image to swap";
  }
  [[nodiscard]] core::TaxonomyPath taxonomy() const override;
  [[nodiscard]] PaperRow paper_row() const override {
    return {"no", "yes", "local", "user", "no"};
  }
  [[nodiscard]] bool is_kernel_module() const override { return false; }
  [[nodiscard]] std::vector<storage::StorageLocality> storage_localities() const override {
    return {storage::StorageLocality::kLocalDisk};
  }
  core::CheckpointResult checkpoint(sim::SimKernel& kernel, sim::Pid pid) override;
  [[nodiscard]] bool supports_external_initiation() const override { return true; }
  [[nodiscard]] core::HibernationManager& hibernation() { return *hibernation_; }

 private:
  std::unique_ptr<storage::MemoryBackend> ram_;
  std::unique_ptr<core::HibernationManager> hibernation_;
  sim::SimKernel* kernel_;
  storage::StorageBackend* swap_;
};

/// Checkpoint [5] (Carothers & Szymanski): syscall-invoked, but the dump is
/// performed concurrently with the application via fork()-based snapshot
/// consistency; handles multithreaded programs; static kernel code.
class Checkpoint05Mechanism final : public Mechanism {
 public:
  explicit Checkpoint05Mechanism(const MechanismContext& context);
  [[nodiscard]] const char* name() const override { return "Checkpoint"; }
  [[nodiscard]] const char* description() const override {
    return "fork-consistent concurrent checkpointing via system calls";
  }
  [[nodiscard]] core::TaxonomyPath taxonomy() const override;
  [[nodiscard]] PaperRow paper_row() const override {
    return {"no", "no", "local", "automatic", "no"};
  }
  [[nodiscard]] bool is_kernel_module() const override { return false; }
  [[nodiscard]] bool supports_multithreaded() const override { return true; }
  [[nodiscard]] std::vector<storage::StorageLocality> storage_localities() const override {
    return {storage::StorageLocality::kLocalDisk};
  }
  [[nodiscard]] const std::string& dump_syscall() const;
};

}  // namespace ckpt::mechanisms
