#include "storage/chain.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

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

namespace {

/// The chain's pages, newest bytes so far, one whole-page buffer each.
using PageTable = std::map<sim::PageNum, std::vector<std::byte>>;

/// Fold one loaded image's payloads into `pages`, in image order: a whole
/// page moves its buffer in, a sub-page range overlays the page's buffer (a
/// zero page when there is none yet), clamped to the page.
void absorb(PageTable& pages, CheckpointImage& image) {
  for (auto& segment : image.segments) {
    for (auto& page : segment.pages) {
      if (page.offset == 0 && page.data.size() == sim::kPageSize) {
        pages.insert_or_assign(page.page, std::move(page.data));
        continue;
      }
      auto [it, inserted] = pages.try_emplace(page.page);
      if (inserted) it->second.assign(sim::kPageSize, std::byte{0});
      const std::size_t end = std::min<std::size_t>(sim::kPageSize,
                                                    page.offset + page.data.size());
      if (page.offset >= end) continue;
      std::copy(page.data.begin(),
                page.data.begin() + static_cast<std::ptrdiff_t>(end - page.offset),
                it->second.begin() + page.offset);
    }
  }
}

/// Erase every page outside `segments`' VMAs: one walk over the sorted
/// table, jumping from range to range.  A page an intermediate delta
/// unmapped never comes back.
void drop_unmapped(PageTable& pages, const std::vector<MemorySegmentImage>& segments) {
  std::vector<std::pair<sim::PageNum, sim::PageNum>> ranges;
  ranges.reserve(segments.size());
  for (const auto& segment : segments) {
    ranges.emplace_back(segment.vma.first_page,
                        segment.vma.first_page + segment.vma.page_count);
  }
  std::sort(ranges.begin(), ranges.end());
  auto it = pages.begin();
  sim::PageNum covered = 0;
  for (const auto& [first, end] : ranges) {
    it = pages.erase(it, pages.lower_bound(std::max(first, covered)));
    covered = std::max(covered, end);
    it = pages.lower_bound(covered);
  }
  pages.erase(it, pages.end());
}

}  // namespace

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
  if (!base.has_value() || full_idx == target_idx) return base;

  // Every link loads, oldest first, even when newer deltas cover its pages:
  // the loads and their charges are the restart's sim-time cost, and a
  // corrupt link must fail the restart.
  PageTable pages;
  absorb(pages, *base);
  std::optional<CheckpointImage> newest;
  for (std::ptrdiff_t i = full_idx + 1; i <= target_idx; ++i) {
    newest = backend_->load(entries_[static_cast<std::size_t>(i)].id, charge);
    if (!newest.has_value()) return std::nullopt;
    absorb(pages, *newest);
    drop_unmapped(pages, newest->segments);
  }

  // The newest delta supplies every scalar and the VMA layout; the process
  // identity stays the full image's.
  CheckpointImage& out = *newest;
  out.kind = ImageKind::kFull;
  out.parent_sequence = 0;
  out.pid = base->pid;
  out.process_name = std::move(base->process_name);
  out.hostname = std::move(base->hostname);
  out.guest = std::move(base->guest);
  for (auto& segment : out.segments) {
    segment.pages.clear();
    const sim::PageNum end = segment.vma.first_page + segment.vma.page_count;
    for (auto it = pages.lower_bound(segment.vma.first_page);
         it != pages.end() && it->first < end; ++it) {
      // Delta VMAs never share a page number, so each buffer moves out once.
      assert(it->second.size() == sim::kPageSize);
      segment.pages.push_back(PageImage{it->first, 0, std::move(it->second)});
    }
  }
  return newest;
}

std::optional<CheckpointImage> CheckpointChain::reconstruct_newest_surviving(
    const ChargeFn& charge) const {
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (auto image = reconstruct_at(it->sequence, charge)) return image;
  }
  return std::nullopt;
}

std::size_t CheckpointChain::live_from(const ChargeFn& charge) const {
  // Keep from the newest full image that verifies onward.  Keeping only
  // from the newest full image regardless would delete exactly the older
  // states reconstruct_newest_surviving() falls back to when that image
  // turns out torn or corrupt at restart time.  No verifying full image
  // means everything stays live.
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(entries_.size()) - 1; i >= 0; --i) {
    const Entry& entry = entries_[static_cast<std::size_t>(i)];
    if (entry.kind != ImageKind::kFull) continue;
    if (backend_->verify(entry.id, charge)) {
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

}  // namespace ckpt::storage
