#include "storage/chain.hpp"

#include <algorithm>
#include <cassert>
#include <map>

namespace ckpt::storage {

ImageId CheckpointChain::append(CheckpointImage image, const ChargeFn& charge) {
  return append_via(image,
                    [&](const CheckpointImage& img) { return backend_->store(img, charge); });
}

ImageId CheckpointChain::append_via(CheckpointImage& image, const StoreFn& store_fn) {
  image.sequence = next_sequence_;
  image.parent_sequence = image.kind == ImageKind::kIncremental && next_sequence_ > 1
                              ? next_sequence_ - 1
                              : 0;
  const ImageId id = store_fn(image);
  if (id == kBadImageId) return kBadImageId;
  entries_.push_back(Entry{next_sequence_, id, image.kind});
  ++next_sequence_;
  return id;
}

std::optional<CheckpointImage> CheckpointChain::reconstruct(const ChargeFn& charge) const {
  if (entries_.empty()) return std::nullopt;
  return reconstruct_at(entries_.back().sequence, charge);
}

std::optional<CheckpointImage> CheckpointChain::reconstruct_at(std::uint64_t sequence,
                                                               const ChargeFn& charge) const {
  // Find the newest full image at or before `sequence`.
  std::ptrdiff_t full_idx = -1;
  std::ptrdiff_t target_idx = -1;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].sequence > sequence) break;
    target_idx = static_cast<std::ptrdiff_t>(i);
    if (entries_[i].kind == ImageKind::kFull) full_idx = static_cast<std::ptrdiff_t>(i);
  }
  if (full_idx < 0 || target_idx < 0) return std::nullopt;

  auto base = backend_->load(entries_[static_cast<std::size_t>(full_idx)].id, charge);
  if (!base.has_value()) return std::nullopt;
  for (std::ptrdiff_t i = full_idx + 1; i <= target_idx; ++i) {
    auto delta = backend_->load(entries_[static_cast<std::size_t>(i)].id, charge);
    if (!delta.has_value()) return std::nullopt;
    apply_delta(*base, *delta);
  }
  return base;
}

std::optional<CheckpointImage> CheckpointChain::reconstruct_newest_surviving(
    const ChargeFn& charge) const {
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (auto image = reconstruct_at(it->sequence, charge)) return image;
  }
  return std::nullopt;
}

std::size_t CheckpointChain::live_from(const ChargeFn& charge) const {
  // Keep from the newest *verified-loadable* full image onward.  Keeping
  // only from the newest full image regardless would delete exactly the
  // older states reconstruct_newest_surviving() falls back to when that
  // image turns out torn or corrupt at restart time.  No verifying full
  // image means everything stays live.
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(entries_.size()) - 1; i >= 0; --i) {
    const Entry& entry = entries_[static_cast<std::size_t>(i)];
    if (entry.kind != ImageKind::kFull) continue;
    if (backend_->load(entry.id, charge).has_value()) {
      return static_cast<std::size_t>(i);
    }
  }
  return 0;
}

std::vector<ImageId> CheckpointChain::live_set(const ChargeFn& charge) const {
  std::vector<ImageId> ids;
  const std::size_t from = live_from(charge);
  ids.reserve(entries_.size() - from);
  for (std::size_t i = from; i < entries_.size(); ++i) ids.push_back(entries_[i].id);
  return ids;
}

void CheckpointChain::prune(const ChargeFn& charge) {
  const std::size_t keep_from = live_from(charge);
  if (keep_from == 0) return;
  for (std::size_t i = 0; i < keep_from; ++i) backend_->erase(entries_[i].id);
  entries_.erase(entries_.begin(),
                 entries_.begin() + static_cast<std::ptrdiff_t>(keep_from));
}

ImageId CheckpointChain::newest_image_id() const {
  return entries_.empty() ? kBadImageId : entries_.back().id;
}

std::uint64_t CheckpointChain::newest_sequence() const {
  return entries_.empty() ? 0 : entries_.back().sequence;
}

std::size_t CheckpointChain::links_from_last_full() const {
  std::size_t links = 0;
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    ++links;
    if (it->kind == ImageKind::kFull) return links;
  }
  return links;
}

void apply_delta(CheckpointImage& base, const CheckpointImage& delta) {
  // Everything scalar comes from the delta (it is the newer observation).
  base.kind = ImageKind::kFull;  // result is a complete state
  base.sequence = delta.sequence;
  base.parent_sequence = 0;
  base.taken_at = delta.taken_at;
  base.threads = delta.threads;
  base.brk = delta.brk;
  base.heap_base = delta.heap_base;
  base.mmap_next = delta.mmap_next;
  base.sig_pending = delta.sig_pending;
  base.sig_mask = delta.sig_mask;
  base.sig_dispositions = delta.sig_dispositions;
  base.files = delta.files;
  base.bound_ports = delta.bound_ports;

  // Merge memory: index base pages, overlay delta payloads (which may be
  // partial-page block or cache-line ranges), and adopt the delta's VMA
  // layout (regions may have grown or been unmapped).
  std::map<sim::PageNum, std::vector<std::byte>> merged;
  auto page_buffer = [&](sim::PageNum p) -> std::vector<std::byte>& {
    auto [it, inserted] = merged.try_emplace(p);
    if (inserted) it->second.assign(sim::kPageSize, std::byte{0});
    return it->second;
  };
  auto overlay = [&](const PageImage& page) {
    auto& buf = page_buffer(page.page);
    const std::size_t end = std::min<std::size_t>(sim::kPageSize,
                                                  page.offset + page.data.size());
    if (page.offset >= end) return;
    std::copy(page.data.begin(),
              page.data.begin() + static_cast<std::ptrdiff_t>(end - page.offset),
              buf.begin() + page.offset);
  };
  for (const auto& segment : base.segments) {
    for (const auto& page : segment.pages) overlay(page);
  }
  for (const auto& segment : delta.segments) {
    for (const auto& page : segment.pages) overlay(page);
  }

  std::vector<MemorySegmentImage> out;
  out.reserve(delta.segments.size());
  for (const auto& segment : delta.segments) {
    MemorySegmentImage seg;
    seg.vma = segment.vma;
    for (sim::PageNum p = segment.vma.first_page;
         p < segment.vma.first_page + segment.vma.page_count; ++p) {
      auto it = merged.find(p);
      if (it != merged.end()) {
        // Delta VMAs never share a page number, so each buffer moves out once.
        assert(it->second.size() == sim::kPageSize);
        seg.pages.push_back(PageImage{p, 0, std::move(it->second)});
      }
    }
    out.push_back(std::move(seg));
  }
  base.segments = std::move(out);
}

}  // namespace ckpt::storage
