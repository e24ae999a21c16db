#include "sim/file.hpp"

#include <utility>

namespace ckpt::sim {

const char* to_string(FileKind kind) {
  switch (kind) {
    case FileKind::kRegular: return "regular";
    case FileKind::kDevice: return "device";
    case FileKind::kProcEntry: return "proc";
    case FileKind::kPipe: return "pipe";
    case FileKind::kSocket: return "socket";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// FdTable
// ---------------------------------------------------------------------------

Fd FdTable::install(std::shared_ptr<OpenFileDescription> ofd) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i]) {
      slots_[i] = std::move(ofd);
      return static_cast<Fd>(i);
    }
  }
  slots_.push_back(std::move(ofd));
  return static_cast<Fd>(slots_.size() - 1);
}

bool FdTable::install_at(Fd fd, std::shared_ptr<OpenFileDescription> ofd) {
  if (fd < 0) return false;
  if (static_cast<std::size_t>(fd) >= slots_.size()) {
    slots_.resize(static_cast<std::size_t>(fd) + 1);
  }
  if (slots_[static_cast<std::size_t>(fd)]) return false;
  slots_[static_cast<std::size_t>(fd)] = std::move(ofd);
  return true;
}

std::shared_ptr<OpenFileDescription> FdTable::get(Fd fd) const {
  if (fd < 0 || static_cast<std::size_t>(fd) >= slots_.size()) return nullptr;
  return slots_[static_cast<std::size_t>(fd)];
}

bool FdTable::close(Fd fd) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= slots_.size() ||
      !slots_[static_cast<std::size_t>(fd)]) {
    return false;
  }
  auto& ofd = slots_[static_cast<std::size_t>(fd)];
  if (ofd->pipe) {
    // Closing the last descriptor on an end marks that end closed.
    if (ofd.use_count() == 1) {
      if (ofd->pipe_write_end) ofd->pipe->write_end_open = false;
      else ofd->pipe->read_end_open = false;
    }
  }
  ofd.reset();
  return true;
}

Fd FdTable::dup(Fd fd) {
  auto ofd = get(fd);
  if (!ofd) return kBadFd;
  return install(std::move(ofd));  // shares offset, as POSIX dup does
}

// ---------------------------------------------------------------------------
// SimFileSystem
// ---------------------------------------------------------------------------

std::shared_ptr<SimFile> SimFileSystem::create(const std::string& path,
                                               std::vector<std::byte> contents) {
  auto file = std::make_shared<SimFile>();
  file->path = path;
  file->data = std::move(contents);
  files_[path] = file;
  return file;
}

std::shared_ptr<SimFile> SimFileSystem::lookup(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : it->second;
}

bool SimFileSystem::unlink(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) return false;
  it->second->deleted = true;
  files_.erase(it);
  return true;
}

bool SimFileSystem::exists(const std::string& path) const {
  return files_.count(path) != 0;
}

void SimFileSystem::register_device(const std::string& path, DeviceHooks hooks) {
  devices_[path] = std::make_unique<DeviceHooks>(std::move(hooks));
}

void SimFileSystem::unregister_device(const std::string& path) { devices_.erase(path); }

DeviceHooks* SimFileSystem::device(const std::string& path) {
  auto it = devices_.find(path);
  return it == devices_.end() ? nullptr : it->second.get();
}

void SimFileSystem::register_proc_entry(const std::string& path, ProcEntryHooks hooks) {
  proc_entries_[path] = std::make_unique<ProcEntryHooks>(std::move(hooks));
}

void SimFileSystem::unregister_proc_entry(const std::string& path) {
  proc_entries_.erase(path);
}

ProcEntryHooks* SimFileSystem::proc_entry(const std::string& path) {
  auto it = proc_entries_.find(path);
  return it == proc_entries_.end() ? nullptr : it->second.get();
}

}  // namespace ckpt::sim
