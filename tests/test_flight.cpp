// Flight recorder (obs/flightrec) + journal kFlightRecord persistence: ring
// and open-span semantics, byte-exact serialization, newest-per-key journal
// recovery, post-mortem rendering, and the mid-commit-crash acceptance claim
// (the recovered black box names the commit that tore, byte-identically on
// every run).
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "obs/flightrec.hpp"
#include "storage/backend.hpp"
#include "storage/journal.hpp"
#include "util/serialize.hpp"

namespace ckpt::obs {
namespace {

using storage::ChargeFn;
using storage::CheckpointImage;
using storage::ImageId;
using storage::JournalMedia;
using storage::JournalOptions;
using storage::JournalRecoveryReport;
using storage::kBadImageId;
using storage::LocalDiskBackend;
using storage::LogStructuredBackend;

constexpr sim::VAddr kBase = 0x10000;

CheckpointImage make_image(std::uint64_t tag, std::size_t pages = 3) {
  CheckpointImage image;
  image.kind = storage::ImageKind::kFull;
  image.pid = 42;
  image.process_name = "flight";
  image.sequence = tag;
  image.taken_at = tag * 1000;
  image.threads.push_back(storage::ThreadImage{1, {}});
  image.threads[0].regs.pc = tag;
  storage::MemorySegmentImage seg;
  seg.vma = sim::Vma{sim::page_of(kBase), static_cast<std::uint64_t>(pages),
                     sim::kProtRW, sim::VmaKind::kData, "data"};
  for (std::size_t p = 0; p < pages; ++p) {
    storage::PageImage page;
    page.page = seg.vma.first_page + p;
    page.data.resize(sim::kPageSize);
    for (std::size_t b = 0; b < page.data.size(); ++b) {
      page.data[b] = static_cast<std::byte>((tag * 131 + p * 17 + b) & 0xFF);
    }
    seg.pages.push_back(std::move(page));
  }
  image.segments.push_back(std::move(seg));
  return image;
}

// --- FlightRecorder unit ----------------------------------------------------

TEST(FlightRecorder, RingDropsOldestAndCountsEveryEviction) {
  FlightRecorder flight(4);
  for (std::uint64_t i = 0; i < 10; ++i) flight.instant(i * 100, "tick", i);
  EXPECT_EQ(flight.events().size(), 4u);
  EXPECT_EQ(flight.dropped(), 6u);
  EXPECT_EQ(flight.next_seq(), 10u);
  // Strictly oldest-first eviction: the survivors are the newest four.
  EXPECT_EQ(flight.events().front().seq, 6u);
  EXPECT_EQ(flight.events().back().seq, 9u);
  EXPECT_EQ(flight.events().back().value, 9u);
}

TEST(FlightRecorder, OpenSpanStackSurvivesRingEviction) {
  FlightRecorder flight(2);
  flight.span_begin(100, "window", 1);
  for (std::uint64_t i = 0; i < 8; ++i) flight.instant(200 + i, "noise", i);
  // The begin event left the ring long ago, but the phase stack is tracked
  // independently: the in-flight span still reports.
  ASSERT_EQ(flight.open_spans().size(), 1u);
  EXPECT_EQ(flight.open_spans().front().name, "window");
  EXPECT_EQ(flight.open_spans().front().since, 100u);
  flight.span_end(900, "window");
  EXPECT_TRUE(flight.open_spans().empty());
}

TEST(FlightRecorder, SpanEndClosesInnermostMatchingSpan) {
  FlightRecorder flight(16);
  flight.span_begin(1, "commit", 1);
  flight.span_begin(2, "encode", 0);
  flight.span_begin(3, "commit", 2);
  flight.span_end(4, "commit");
  ASSERT_EQ(flight.open_spans().size(), 2u);
  EXPECT_EQ(flight.open_spans()[0].name, "commit");
  EXPECT_EQ(flight.open_spans()[0].value, 1u);
  EXPECT_EQ(flight.open_spans()[1].name, "encode");
}

TEST(FlightRecorder, CountersKeepTheLastSamplePerName) {
  FlightRecorder flight(16);
  flight.counter(1, "commits", 1);
  flight.counter(2, "commits", 2);
  flight.counter(3, "pending", 5);
  ASSERT_EQ(flight.last_counters().size(), 2u);
  EXPECT_EQ(flight.last_counters().at("commits"), 2u);
  EXPECT_EQ(flight.last_counters().at("pending"), 5u);
}

TEST(FlightRecorder, SerializeRoundTripsExactly) {
  FlightRecorder flight(4);
  flight.span_begin(100, "commit", 7);
  flight.instant(150, "fault", 3);
  flight.counter(200, "commits", 12);
  for (std::uint64_t i = 0; i < 6; ++i) flight.instant(300 + i, "spin", i);

  const std::vector<std::byte> bytes = flight.serialize();
  const FlightRecorder back = FlightRecorder::deserialize(bytes);
  EXPECT_EQ(back, flight);
  EXPECT_EQ(back.serialize(), bytes);

  // Trailing bytes and version damage are malformed, not misparsed.
  std::vector<std::byte> trailing = bytes;
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)FlightRecorder::deserialize(trailing), util::SerializeError);
  std::vector<std::byte> wrong_version = bytes;
  wrong_version[0] ^= std::byte{0xFF};
  EXPECT_THROW((void)FlightRecorder::deserialize(wrong_version), util::SerializeError);
}

TEST(FlightRecorder, PostMortemRendersPhaseStackEventsAndCounters) {
  FlightRecorder flight(8);
  flight.counter(500, "commits", 3);
  flight.span_begin(1000, "commit", 4);
  const std::string report = flight.post_mortem();
  EXPECT_NE(report.find("in-flight: commit@1.000us"), std::string::npos);
  EXPECT_NE(report.find("begin commit=4"), std::string::npos);
  EXPECT_NE(report.find("counters: commits=3"), std::string::npos);
  // Deterministic: same state, same bytes.
  EXPECT_EQ(report, flight.post_mortem());
}

// --- Journal persistence ----------------------------------------------------

TEST(FlightJournal, NewestRecordPerKeySurvivesCrashAndRecovery) {
  const sim::CostModel costs{};
  LocalDiskBackend home(costs);
  LogStructuredBackend journal(&home, {});

  FlightRecorder a(8);
  a.instant(100, "old", 1);
  ASSERT_TRUE(journal.append_flight_record(1, a.serialize(), ChargeFn{}));
  a.instant(200, "new", 2);
  const std::vector<std::byte> newest_a = a.serialize();
  ASSERT_TRUE(journal.append_flight_record(1, newest_a, ChargeFn{}));
  FlightRecorder b(8);
  b.counter(300, "commits", 9);
  const std::vector<std::byte> newest_b = b.serialize();
  ASSERT_TRUE(journal.append_flight_record(2, newest_b, ChargeFn{}));
  ASSERT_NE(journal.store(make_image(0), ChargeFn{}), kBadImageId);

  // Pre-crash introspection already surfaces the newest per key.
  EXPECT_EQ(journal.flight_keys(), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(journal.flight_record_of(1), std::optional(newest_a));

  // Adopt the media into a fresh backend: only the bytes survive.
  const JournalMedia media = journal.media_snapshot();
  LocalDiskBackend fresh_home(costs);
  LogStructuredBackend replayed(&fresh_home, {}, media);
  const JournalRecoveryReport report = replayed.recover(ChargeFn{});
  EXPECT_EQ(report.flight_recovered, 2u);
  EXPECT_EQ(replayed.flight_record_of(1), std::optional(newest_a));
  EXPECT_EQ(replayed.flight_record_of(2), std::optional(newest_b));
  EXPECT_FALSE(replayed.flight_record_of(3).has_value());
  // The commit alongside them recovered as usual.
  EXPECT_EQ(report.resident_recovered, 1u);
}

TEST(FlightJournal, TornFlightAppendKeepsThePriorRecordAuthoritative) {
  const sim::CostModel costs{};
  LocalDiskBackend home(costs);
  LogStructuredBackend journal(&home, {});

  FlightRecorder flight(8);
  flight.instant(100, "durable", 1);
  const std::vector<std::byte> durable = flight.serialize();
  ASSERT_TRUE(journal.append_flight_record(5, durable, ChargeFn{}));

  flight.instant(200, "torn", 2);
  journal.tear_next_append(10);  // tear inside the next flight record
  EXPECT_FALSE(journal.append_flight_record(5, flight.serialize(), ChargeFn{}));
  EXPECT_TRUE(journal.crashed());

  const JournalRecoveryReport report = journal.recover(ChargeFn{});
  EXPECT_TRUE(report.tail_torn);
  EXPECT_EQ(report.flight_recovered, 1u);
  EXPECT_EQ(journal.flight_record_of(5), std::optional(durable));
}

TEST(FlightJournal, ReclaimCompactsLiveFlightRecordsForward) {
  const sim::CostModel costs{};
  LocalDiskBackend home(costs);
  JournalOptions options;
  options.segment_bytes = 48 * 1024;
  options.segments = 8;
  LogStructuredBackend journal(&home, options);

  FlightRecorder flight(8);
  flight.counter(1, "commits", 0);
  const std::vector<std::byte> payload = flight.serialize();
  ASSERT_TRUE(journal.append_flight_record(3, payload, ChargeFn{}));

  // Enough commits to seal the record's segment, then drain + reclaim it.
  std::uint64_t stored = 0;
  for (std::uint64_t i = 0; i < 12; ++i) {
    if (journal.store(make_image(i), ChargeFn{}) != kBadImageId) ++stored;
  }
  ASSERT_GT(stored, 0u);
  const LogStructuredBackend::MigrateReport report = journal.migrate(ChargeFn{});
  ASSERT_GT(report.segments_reclaimed, 0u);

  // The wiped segment's flight record hopped forward intact — both in the
  // live map and on the recovered media.
  EXPECT_EQ(journal.flight_record_of(3), std::optional(payload));
  const JournalMedia media = journal.media_snapshot();
  LocalDiskBackend fresh_home(costs);
  LogStructuredBackend replayed(&fresh_home, options, media);
  const JournalRecoveryReport recovered = replayed.recover(ChargeFn{});
  EXPECT_EQ(recovered.flight_recovered, 1u);
  EXPECT_EQ(replayed.flight_record_of(3), std::optional(payload));
}

// --- The mid-commit-crash acceptance claim ----------------------------------

struct CrashOutcome {
  std::string post_mortem;
  std::vector<std::byte> payload;
  std::vector<ImageId> survivors;
};

/// Persist an open "commit" span, tear the commit itself, recover from the
/// media bytes alone, and read the black box back.  Takes no input, so two
/// calls must return the same outcome.
CrashOutcome crash_mid_commit() {
  const sim::CostModel costs{};
  LocalDiskBackend home(costs);
  const JournalOptions options;
  LogStructuredBackend journal(&home, options);

  FlightRecorder flight(16);
  for (std::uint64_t i = 0; i < 3; ++i) {
    flight.span_begin(i * 1000, "commit", i + 1);
    EXPECT_TRUE(journal.append_flight_record(7, flight.serialize(), ChargeFn{}));
    EXPECT_NE(journal.store(make_image(i), ChargeFn{}), kBadImageId);
    flight.span_end(i * 1000 + 500, "commit", 1);
    flight.counter(i * 1000 + 500, "commits", i + 1);
    EXPECT_TRUE(journal.append_flight_record(7, flight.serialize(), ChargeFn{}));
  }
  const std::vector<ImageId> committed = journal.list();

  // The fatal commit: its open span lands, the commit record never does.
  flight.span_begin(9000, "commit", 4);
  EXPECT_TRUE(journal.append_flight_record(7, flight.serialize(), ChargeFn{}));
  journal.tear_next_append(1234);
  EXPECT_EQ(journal.store(make_image(9), ChargeFn{}), kBadImageId);
  EXPECT_TRUE(journal.crashed());

  const JournalMedia media = journal.media_snapshot();
  LocalDiskBackend fresh_home(costs);
  LogStructuredBackend replayed(&fresh_home, options, media);
  const JournalRecoveryReport report = replayed.recover(ChargeFn{});
  EXPECT_TRUE(report.tail_torn);
  EXPECT_EQ(report.flight_recovered, 1u);

  CrashOutcome outcome;
  outcome.survivors = replayed.list();
  EXPECT_EQ(outcome.survivors, committed);
  const auto payload = replayed.flight_record_of(7);
  EXPECT_TRUE(payload.has_value());
  if (payload.has_value()) {
    outcome.payload = *payload;
    const FlightRecorder black_box = FlightRecorder::deserialize(*payload);
    // The final span is the injected crash point: commit #4, still open.
    EXPECT_EQ(black_box.open_spans().size(), 1u);
    if (!black_box.open_spans().empty()) {
      EXPECT_EQ(black_box.open_spans().back().name, "commit");
      EXPECT_EQ(black_box.open_spans().back().value, 4u);
      EXPECT_EQ(black_box.open_spans().back().since, 9000u);
    }
    EXPECT_EQ(black_box.events().back().kind, FlightEventKind::kSpanBegin);
    EXPECT_EQ(black_box.events().back().name, "commit");
    EXPECT_EQ(black_box.last_counters().at("commits"), 3u);
    outcome.post_mortem = black_box.post_mortem();
    EXPECT_NE(outcome.post_mortem.find("in-flight: commit@9.000us"),
              std::string::npos);
  }
  return outcome;
}

TEST(FlightJournal, MidCommitCrashPostMortemNamesTheTornCommitWorkerInvariant) {
  // The journal runs on the caller's thread and has no pool, so no worker
  // count can reach the outcome; two runs must still agree byte for byte.
  const CrashOutcome first = crash_mid_commit();
  const CrashOutcome second = crash_mid_commit();
  EXPECT_EQ(first.post_mortem, second.post_mortem);
  EXPECT_EQ(first.payload, second.payload);
  EXPECT_EQ(first.survivors, second.survivors);
  EXPECT_FALSE(first.post_mortem.empty());
}

}  // namespace
}  // namespace ckpt::obs
