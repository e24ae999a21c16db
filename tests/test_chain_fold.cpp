// CheckpointChain::reconstruct_at folds a whole incremental chain at once.
// These tests hold it to the delta-by-delta merge it replaced (kept here as
// the oracle) on seeded random chains, and pin that the fold changes no
// load: the sim-time charges of a restart stay what the merge charged.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "storage/backend.hpp"
#include "storage/chain.hpp"
#include "storage/image.hpp"
#include "storage/replicated.hpp"
#include "util/rng.hpp"

namespace ckpt::storage {
namespace {

/// The delta-by-delta merge reconstruct_at used before the fold: newer
/// pages replace older ones, VMA layout/regs/files/signals come from the
/// delta (it is newer).
void apply_delta_oracle(CheckpointImage& base, const CheckpointImage& delta) {
  base.kind = ImageKind::kFull;
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
        assert(it->second.size() == sim::kPageSize);
        seg.pages.push_back(PageImage{p, 0, std::move(it->second)});
      }
    }
    out.push_back(std::move(seg));
  }
  base.segments = std::move(out);
}

/// The oracle restart: load the newest full image at or before `sequence`
/// and apply_delta_oracle every later link up to it.
std::optional<CheckpointImage> oracle_at(StorageBackend& backend, const CheckpointChain& chain,
                                         std::uint64_t sequence) {
  const auto& entries = chain.entries();
  std::optional<std::size_t> full;
  std::size_t target = 0;
  for (std::size_t i = 0; i < entries.size() && entries[i].sequence <= sequence; ++i) {
    target = i;
    if (entries[i].kind == ImageKind::kFull) full = i;
  }
  if (!full) return std::nullopt;
  auto base = backend.load(entries[*full].id, nullptr);
  if (!base) return std::nullopt;
  for (std::size_t i = *full + 1; i <= target; ++i) {
    const auto delta = backend.load(entries[i].id, nullptr);
    if (!delta) return std::nullopt;
    apply_delta_oracle(*base, *delta);
  }
  return base;
}

void expect_same_state(const CheckpointImage& got, const CheckpointImage& want,
                       const std::string& where) {
  ASSERT_EQ(got.segments.size(), want.segments.size()) << where;
  for (std::size_t s = 0; s < got.segments.size(); ++s) {
    const auto& g = got.segments[s];
    const auto& w = want.segments[s];
    EXPECT_EQ(g.vma.first_page, w.vma.first_page) << where << " segment " << s;
    EXPECT_EQ(g.vma.page_count, w.vma.page_count) << where << " segment " << s;
    EXPECT_EQ(g.vma.name, w.vma.name) << where << " segment " << s;
    ASSERT_EQ(g.pages.size(), w.pages.size()) << where << " segment " << s;
    for (std::size_t p = 0; p < g.pages.size(); ++p) {
      EXPECT_EQ(g.pages[p].page, w.pages[p].page) << where << " segment " << s;
      EXPECT_EQ(g.pages[p].offset, w.pages[p].offset) << where << " segment " << s;
      EXPECT_TRUE(g.pages[p].data == w.pages[p].data)
          << where << " segment " << s << " page " << g.pages[p].page;
    }
  }
  // The wire form covers every scalar field as well as the memory above.
  EXPECT_TRUE(got.serialize() == want.serialize()) << where;
}

/// Three VMA slots that never overlap (the first two can meet end to end);
/// an image maps each with a random length, or leaves it unmapped, so
/// regions shrink and regrow over pages an intermediate image dropped.
struct Slot {
  sim::PageNum first;
  std::uint64_t max_pages;
  const char* name;
};
constexpr Slot kSlots[] = {{16, 10, "data"}, {26, 6, "heap"}, {40, 8, "stack"}};

std::vector<std::byte> random_bytes(util::Rng& rng, std::size_t size) {
  std::vector<std::byte> out(size);
  for (std::byte& b : out) b = static_cast<std::byte>(rng.next_u64());
  return out;
}

PageImage random_payload(util::Rng& rng, sim::PageNum page) {
  PageImage out;
  out.page = page;
  const std::uint64_t pick = rng.next_below(14);
  if (pick < 6) {
    out.data = random_bytes(rng, sim::kPageSize);  // whole page
  } else if (pick < 9) {
    // Unaligned sub-page range; some run past the page end and are clamped.
    out.offset = static_cast<std::uint32_t>(rng.next_below(sim::kPageSize));
    out.data = random_bytes(rng, 1 + rng.next_below(sim::kPageSize / 2));
  } else if (pick < 10) {
    out.data = random_bytes(rng, 1 + rng.next_below(sim::kPageSize - 1));  // short, at 0
  } else if (pick < 11) {
    out.offset = static_cast<std::uint32_t>(1 + rng.next_below(sim::kPageSize - 1));
    out.data = random_bytes(rng, sim::kPageSize);  // a page's worth, clamped
  } else if (pick < 12) {
    out.offset = static_cast<std::uint32_t>(rng.next_below(sim::kPageSize));  // empty
  } else {
    out.offset = static_cast<std::uint32_t>(sim::kPageSize + rng.next_below(64));
    out.data = random_bytes(rng, 1 + rng.next_below(16));  // past the page
  }
  return out;
}

CheckpointImage random_image(util::Rng& rng, ImageKind kind, std::uint64_t tag) {
  CheckpointImage image;
  image.kind = kind;
  image.pid = static_cast<sim::Pid>(100 + tag);
  image.process_name = "app" + std::to_string(tag);
  image.hostname = "node" + std::to_string(tag % 3);
  image.taken_at = 1000 * tag + rng.next_below(1000);
  image.guest = sim::GuestImage{"counter", random_bytes(rng, rng.next_below(4))};
  const std::uint64_t threads = 1 + rng.next_below(3);
  for (std::uint64_t t = 0; t < threads; ++t) {
    ThreadImage thread{static_cast<sim::Tid>(1 + t), {}};
    thread.regs.pc = rng.next_u64();
    thread.regs.gpr[t] = tag;
    image.threads.push_back(thread);
  }
  for (const Slot& slot : kSlots) {
    if (rng.next_bool(0.2)) continue;  // unmapped in this image
    MemorySegmentImage seg;
    seg.vma = sim::Vma{slot.first, 1 + rng.next_below(slot.max_pages), sim::kProtRW,
                       sim::VmaKind::kData, slot.name};
    const double density = kind == ImageKind::kFull ? 0.9 : 0.4;
    for (sim::PageNum p = seg.vma.first_page; p < seg.vma.first_page + seg.vma.page_count;
         ++p) {
      if (rng.next_bool(density)) seg.pages.push_back(random_payload(rng, p));
    }
    if (kind == ImageKind::kFull && rng.next_bool(0.2)) {
      // A second payload for a page already listed: later entries win.
      const sim::PageNum p = seg.vma.first_page + rng.next_below(seg.vma.page_count);
      seg.pages.push_back(random_payload(rng, p));
    }
    if (rng.next_bool(0.3)) {
      // A page outside every VMA of this image: a gap or an unmapped slot.
      seg.pages.push_back(random_payload(rng, rng.next_below(60)));
    }
    image.segments.push_back(std::move(seg));
  }
  if (rng.next_bool(0.3)) std::reverse(image.segments.begin(), image.segments.end());
  image.brk = rng.next_u64();
  image.heap_base = rng.next_u64();
  image.mmap_next = rng.next_u64();
  image.sig_pending = rng.next_u64();
  image.sig_mask = rng.next_u64();
  for (std::uint64_t d = rng.next_below(4); d > 0; --d) {
    image.sig_dispositions.push_back(static_cast<std::uint8_t>(rng.next_below(3)));
  }
  FileDescriptorImage file;
  file.fd = 3;
  file.path = "/data/" + std::to_string(tag);
  file.offset = rng.next_u64();
  if (rng.next_bool(0.5)) file.contents = random_bytes(rng, rng.next_below(32));
  image.files.push_back(std::move(file));
  image.bound_ports.push_back(static_cast<std::uint16_t>(8000 + tag));
  return image;
}

TEST(ChainFold, MatchesTheApplyDeltaOracleOnRandomChains) {
  util::Rng rng(0xF01D'C4A1'2026ULL);
  int corrupted = 0;
  for (int round = 0; round < 200; ++round) {
    MemoryBackend backend{sim::CostModel{}};
    CheckpointChain chain(&backend);
    const std::uint64_t length = 1 + rng.next_below(10);  // depth 0-9
    for (std::uint64_t i = 0; i < length; ++i) {
      const bool full = i == 0 || rng.next_bool(0.15);
      ASSERT_NE(chain.append(random_image(rng, full ? ImageKind::kFull : ImageKind::kIncremental,
                                          i + 1),
                             nullptr),
                kBadImageId);
    }
    const auto& entries = chain.entries();
    std::vector<CheckpointImage> want;
    for (const auto& entry : entries) {
      const std::string where =
          "round " + std::to_string(round) + " sequence " + std::to_string(entry.sequence);
      auto oracle = oracle_at(backend, chain, entry.sequence);
      ASSERT_TRUE(oracle.has_value()) << where;
      const auto got = chain.reconstruct_at(entry.sequence, nullptr);
      ASSERT_TRUE(got.has_value()) << where;
      expect_same_state(*got, *oracle, where);
      want.push_back(std::move(*oracle));
    }

    // Corrupt a middle delta after the last full image: every state from it
    // on is lost, and the fallback restart lands on the state just before.
    std::size_t last_full = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].kind == ImageKind::kFull) last_full = i;
    }
    if (entries.size() < last_full + 3) continue;
    const std::size_t bad = last_full + 1 + rng.next_below(entries.size() - last_full - 2);
    ASSERT_TRUE(backend.corrupt_blob(entries[bad].id, 20 + rng.next_below(40), 3));
    ++corrupted;
    const std::string where = "round " + std::to_string(round) + " corrupt " +
                              std::to_string(entries[bad].sequence);
    for (std::size_t i = bad; i < entries.size(); ++i) {
      EXPECT_FALSE(chain.reconstruct_at(entries[i].sequence, nullptr).has_value()) << where;
    }
    const auto survivor = chain.reconstruct_newest_surviving(nullptr);
    ASSERT_TRUE(survivor.has_value()) << where;
    expect_same_state(*survivor, want[bad - 1], where);
  }
  EXPECT_GE(corrupted, 50);
}

/// Sum and count of the charges one reconstruct_at makes.
struct Charges {
  SimTime total = 0;
  std::uint64_t calls = 0;
};

TEST(ChainFold, RestartChargesArePinned) {
  // A seeded 8-image chain on a two-replica dedup store.  The fold is host
  // work only: each reconstruct_at must load the same links in the same
  // order and charge exactly what the delta-by-delta merge charged.  The
  // fifth image rewrites every page, so a fold that stopped loading once
  // the pages were covered would charge less from sequence 5 on.
  sim::CostModel costs{};
  LocalDiskBackend a{costs};
  LocalDiskBackend b{costs};
  ReplicatedOptions options;
  options.write_quorum = 2;
  options.dedup = true;
  ReplicatedStore store({&a, &b}, options);
  CheckpointChain chain(&store);

  util::Rng rng(0xC4A2'6E5ULL);
  constexpr std::uint64_t kPages = 24;
  const sim::Vma vma{16, kPages, sim::kProtRW, sim::VmaKind::kData, "data"};
  for (std::uint64_t i = 0; i < 8; ++i) {
    CheckpointImage image;
    image.kind = i == 0 ? ImageKind::kFull : ImageKind::kIncremental;
    image.pid = 7;
    image.taken_at = 1000 * i;
    image.threads.push_back(ThreadImage{1, {}});
    MemorySegmentImage seg;
    seg.vma = vma;
    for (sim::PageNum p = vma.first_page; p < vma.first_page + kPages; ++p) {
      if (i == 0 || i == 4 || rng.next_bool(0.25)) {
        PageImage page;
        page.page = p;
        page.data.assign(sim::kPageSize, static_cast<std::byte>(rng.next_u64()));
        if (i > 0 && i != 4 && rng.next_bool(0.3)) {
          page.offset = static_cast<std::uint32_t>(rng.next_below(sim::kPageSize - 64));
          page.data.resize(1 + rng.next_below(64));
        }
        seg.pages.push_back(std::move(page));
      }
    }
    image.segments.push_back(std::move(seg));
    ASSERT_NE(chain.append(std::move(image), nullptr), kBadImageId);
  }

  std::vector<Charges> got;
  for (const auto& entry : chain.entries()) {
    Charges charges;
    const auto state = chain.reconstruct_at(entry.sequence, [&](SimTime t) {
      charges.total += t;
      ++charges.calls;
    });
    ASSERT_TRUE(state.has_value()) << "sequence " << entry.sequence;
    got.push_back(charges);
  }
  // Computed on the delta-by-delta merge the fold replaced.
  const std::vector<Charges> want = {
      {126913791, 25}, {162086421, 32}, {177173089, 35}, {207576068, 41},
      {324331894, 64}, {349577805, 69}, {379980784, 75}, {415309034, 82},
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].total, want[i].total) << "sequence " << i + 1;
    EXPECT_EQ(got[i].calls, want[i].calls) << "sequence " << i + 1;
  }
}

/// Forwards every call to a store, overriding load but not verify — the
/// shape of a timing decorator — so a prune through it verifies by loading.
class LoadingDecorator final : public StorageBackend {
 public:
  explicit LoadingDecorator(StorageBackend& inner) : inner_(inner) {}
  ImageId store(const CheckpointImage& image, const ChargeFn& charge) override {
    return inner_.store(image, charge);
  }
  std::optional<CheckpointImage> load(ImageId id, const ChargeFn& charge) override {
    ++loads;
    return inner_.load(id, charge);
  }
  bool erase(ImageId id) override { return inner_.erase(id); }
  [[nodiscard]] std::vector<ImageId> list() const override { return inner_.list(); }
  [[nodiscard]] StorageLocality locality() const override { return inner_.locality(); }
  [[nodiscard]] bool reachable() const override { return inner_.reachable(); }
  [[nodiscard]] std::uint64_t stored_bytes() const override { return inner_.stored_bytes(); }

  std::uint64_t loads = 0;

 private:
  StorageBackend& inner_;
};

/// What one prune left behind and charged.
struct PruneOutcome {
  std::vector<std::uint64_t> sequences;
  std::vector<ImageId> ids;
  std::vector<SimTime> charges;

  bool operator==(const PruneOutcome&) const = default;
};

/// A seeded commit-and-prune script on a 3-replica flat store, with the
/// chain writing either to the store itself or through a LoadingDecorator.
/// Between prunes the newest full image is corrupted on one replica, then
/// on all three, then stored while two replicas are down and checked while
/// the third is down too, so the prunes verify through failover, fall back
/// to older full images, and run the retry schedule.
std::vector<PruneOutcome> run_prune_script(bool decorated, std::uint64_t* decorator_loads) {
  sim::CostModel costs{};
  std::array<LocalDiskBackend, 3> replicas{LocalDiskBackend{costs}, LocalDiskBackend{costs},
                                           LocalDiskBackend{costs}};
  ReplicatedOptions options;
  options.retry = RetryPolicy::bounded(2, /*deadline=*/0);
  ReplicatedStore store({&replicas[0], &replicas[1], &replicas[2]}, options);
  LoadingDecorator decorator(store);
  CheckpointChain chain(decorated ? static_cast<StorageBackend*>(&decorator) : &store);

  util::Rng rng(0x9A0E'2026ULL);
  std::uint64_t tag = 0;
  std::vector<PruneOutcome> out;
  const auto append = [&](ImageKind kind) {
    ASSERT_NE(chain.append(random_image(rng, kind, ++tag), nullptr), kBadImageId);
  };
  const auto corrupt_newest = [&](std::initializer_list<std::size_t> targets) {
    for (const std::size_t r : targets) {
      ASSERT_TRUE(replicas[r].corrupt_blob(replicas[r].newest_id(), 40, 2));
    }
  };
  const auto prune = [&] {
    PruneOutcome outcome;
    chain.prune([&](SimTime t) { outcome.charges.push_back(t); });
    for (const auto& entry : chain.entries()) outcome.sequences.push_back(entry.sequence);
    outcome.ids = store.list();
    out.push_back(std::move(outcome));
  };

  append(ImageKind::kFull);
  append(ImageKind::kIncremental);
  append(ImageKind::kIncremental);
  prune();  // the only full image verifies: nothing to drop
  append(ImageKind::kFull);
  corrupt_newest({0});
  prune();  // verifies on replica 1: drops the first chain
  append(ImageKind::kIncremental);
  append(ImageKind::kFull);
  corrupt_newest({0, 1, 2});
  prune();  // newest full fails everywhere, after retries: falls back
  replicas[0].set_outage(true);
  replicas[1].set_outage(true);
  append(ImageKind::kFull);  // committed on replica 2 alone
  replicas[2].set_outage(true);
  prune();  // nothing reachable: falls back again
  for (auto& replica : replicas) replica.set_outage(false);
  append(ImageKind::kIncremental);
  prune();  // the newest full verifies: drops everything older
  *decorator_loads = decorator.loads;
  return out;
}

TEST(ChainPrune, VerifyThroughALoadOnlyDecoratorMatchesTheBareStore) {
  std::uint64_t bare_loads = 0;
  std::uint64_t decorated_loads = 0;
  const std::vector<PruneOutcome> bare = run_prune_script(false, &bare_loads);
  const std::vector<PruneOutcome> decorated = run_prune_script(true, &decorated_loads);
  ASSERT_EQ(bare.size(), 5u);
  ASSERT_EQ(decorated.size(), bare.size());
  EXPECT_EQ(bare_loads, 0u);
  EXPECT_GT(decorated_loads, 0u);  // the decorator's prunes verified by loading
  for (std::size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ(decorated[i].sequences, bare[i].sequences) << "prune " << i;
    EXPECT_EQ(decorated[i].ids, bare[i].ids) << "prune " << i;
    EXPECT_EQ(decorated[i].charges, bare[i].charges) << "prune " << i;
  }
  // The script reaches every branch: a keep-all prune, a drop after
  // failover, two fallbacks and a final drop to the newest full image.
  EXPECT_EQ(bare[0].sequences, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(bare[1].sequences, (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(bare[2].sequences, (std::vector<std::uint64_t>{4, 5, 6}));
  EXPECT_EQ(bare[3].sequences, (std::vector<std::uint64_t>{4, 5, 6, 7}));
  EXPECT_EQ(bare[4].sequences, (std::vector<std::uint64_t>{7, 8}));
}

}  // namespace
}  // namespace ckpt::storage
