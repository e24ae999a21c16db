// Simulated file system, devices, /proc entries and sockets.
//
// Checkpointing open files is a classic hard case the survey calls out:
// offsets must be extracted (lseek at user level, direct struct access at
// kernel level), deleted files must be detected at restart (UCLiK), and
// file *contents* may need to be saved with the image (UCLiK, PsncR/C).
// Kernel-thread mechanisms communicate through device files (CRAK/BLCR
// ioctl) or /proc entries (CHPOX, PsncR/C), so those object types are first
// class here.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace ckpt::sim {

class SimKernel;
class Process;

/// A regular file's backing store.
struct SimFile {
  std::string path;
  std::vector<std::byte> data;
  bool deleted = false;  ///< unlinked while still open (UCLiK restart case).
};

enum class FileKind : std::uint8_t { kRegular, kDevice, kProcEntry, kPipe, kSocket };

const char* to_string(FileKind kind);

/// Hooks implementing a character device (e.g. /dev/crak).  The ioctl hook
/// is how user-space talks to kernel-thread checkpointers in CRAK and BLCR.
struct DeviceHooks {
  std::function<std::int64_t(SimKernel&, Process& caller, std::uint64_t cmd, std::uint64_t arg)>
      ioctl;
  std::function<std::int64_t(SimKernel&, Process& caller, std::span<std::byte> out)> read;
  std::function<std::int64_t(SimKernel&, Process& caller, std::span<const std::byte> in)> write;
};

/// Hooks implementing a /proc pseudo-file (e.g. /proc/chpox).
struct ProcEntryHooks {
  std::function<std::string(SimKernel&)> read;
  std::function<std::int64_t(SimKernel&, Process& caller, std::string_view in)> write;
};

/// An in-flight unidirectional pipe.
struct SimPipe {
  std::vector<std::byte> buffer;
  bool write_end_open = true;
  bool read_end_open = true;
};

/// A (very small) connected socket model: enough state that migrating a
/// process with a live socket fails without virtualization and succeeds
/// with a ZAP-style pod that re-homes the endpoint.
struct SimSocket {
  std::uint16_t local_port = 0;
  std::string peer_host;
  std::uint16_t peer_port = 0;
  bool connected = false;
  std::vector<std::byte> rx_buffer;
};

/// An open file description — shared between dup()ed descriptors, holding
/// the offset the survey's lseek() discussion is about.
struct OpenFileDescription {
  FileKind kind = FileKind::kRegular;
  std::shared_ptr<SimFile> file;  ///< kRegular
  std::uint64_t offset = 0;
  std::uint32_t flags = 0;
  std::string object_path;  ///< device / proc path for reattachment
  DeviceHooks* device = nullptr;
  ProcEntryHooks* proc = nullptr;
  std::shared_ptr<SimPipe> pipe;
  bool pipe_write_end = false;
  std::shared_ptr<SimSocket> socket;
};

/// Per-process descriptor table.
class FdTable {
 public:
  Fd install(std::shared_ptr<OpenFileDescription> ofd);
  /// Install at a specific descriptor number (restart path).  Fails (false)
  /// if the slot is occupied.
  bool install_at(Fd fd, std::shared_ptr<OpenFileDescription> ofd);
  [[nodiscard]] std::shared_ptr<OpenFileDescription> get(Fd fd) const;
  bool close(Fd fd);
  Fd dup(Fd fd);

  /// Enumerate live descriptors in ascending order: fn(fd, ofd).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i]) fn(static_cast<Fd>(i), *slots_[i]);
    }
  }

  void clear() { slots_.clear(); }

 private:
  std::vector<std::shared_ptr<OpenFileDescription>> slots_;
};

/// The machine-wide file system namespace.
class SimFileSystem {
 public:
  /// Create (or truncate) a regular file.
  std::shared_ptr<SimFile> create(const std::string& path,
                                  std::vector<std::byte> contents = {});
  [[nodiscard]] std::shared_ptr<SimFile> lookup(const std::string& path) const;
  /// Unlink: removes from the namespace; open descriptions keep the node
  /// alive and see deleted == true.
  bool unlink(const std::string& path);
  [[nodiscard]] bool exists(const std::string& path) const;

  void register_device(const std::string& path, DeviceHooks hooks);
  void unregister_device(const std::string& path);
  [[nodiscard]] DeviceHooks* device(const std::string& path);

  void register_proc_entry(const std::string& path, ProcEntryHooks hooks);
  void unregister_proc_entry(const std::string& path);
  [[nodiscard]] ProcEntryHooks* proc_entry(const std::string& path);

 private:
  std::map<std::string, std::shared_ptr<SimFile>> files_;
  std::map<std::string, std::unique_ptr<DeviceHooks>> devices_;
  std::map<std::string, std::unique_ptr<ProcEntryHooks>> proc_entries_;
};

}  // namespace ckpt::sim
