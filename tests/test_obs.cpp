// Observability layer: TraceRecorder spans, MetricsRegistry determinism,
// Chrome trace-event export well-formedness, engine/recovery instrumentation,
// and the soak-level determinism contract (trace + metrics byte-identical
// across commit-pipeline worker counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

#include "cluster/recovery.hpp"
#include "core/systemlevel.hpp"
#include "inject/torture.hpp"
#include "obs/json.hpp"
#include "obs/observer.hpp"
#include "obs/overhead.hpp"
#include "obs/rollup.hpp"
#include "test_common.hpp"

namespace ckpt::obs {
namespace {

using ckpt::test::SimTest;
using ckpt::test::run_steps;

// ---------------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------------

TEST(ObsJson, QuotedEscapesControlCharactersAndSpecials) {
  EXPECT_EQ(json_quoted("plain"), "\"plain\"");
  EXPECT_EQ(json_quoted("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quoted("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quoted("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(json_quoted(std::string_view("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
}

TEST(ObsJson, MicrosIsExactFixedPoint) {
  std::string out;
  json_append_micros(out, 0);
  EXPECT_EQ(out, "0.000");
  out.clear();
  json_append_micros(out, 1);
  EXPECT_EQ(out, "0.001");
  out.clear();
  json_append_micros(out, 12'345'678);
  EXPECT_EQ(out, "12345.678");
}

TEST(ObsJson, LintAcceptsValidAndRejectsBrokenDocuments) {
  EXPECT_TRUE(json_lint(R"({"a":[1,2,{"b":"c\n"}],"d":null,"e":-1.5e3})"));
  std::string error;
  EXPECT_FALSE(json_lint(R"({"a":1,})", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(json_lint(R"({"a" 1})"));
  EXPECT_FALSE(json_lint(R"([1,2)"));
  EXPECT_FALSE(json_lint(R"({"a":01})"));
  EXPECT_FALSE(json_lint("{\"a\":\"\x01\"}"));  // raw control char in string
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TEST(TraceRecorder, SpansNestAndCarrySequenceAndClockTime) {
  TraceRecorder trace;
  SimTime now = 100;
  trace.set_clock([&now] { return now; });

  trace.begin("outer", "test", kControlTrack);
  now = 150;
  trace.begin("inner", "test", kControlTrack, {TraceArg::num("k", 7)});
  now = 160;
  trace.end("inner", kControlTrack);
  now = 200;
  trace.end("outer", kControlTrack, {TraceArg::str("outcome", "ok")});

  const std::deque<TraceEvent>& events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) EXPECT_EQ(events[i].seq, i);
  EXPECT_EQ(events[0].phase, EventPhase::kBegin);
  EXPECT_EQ(events[0].ts, 100u);
  EXPECT_EQ(events[1].args.size(), 1u);
  EXPECT_EQ(events[1].args[0].number, 7u);
  EXPECT_EQ(events[2].phase, EventPhase::kEnd);
  EXPECT_EQ(events[3].ts, 200u);
  EXPECT_EQ(events[3].args[0].text, "ok");

  const std::map<std::string, TraceRecorder::PhaseStat> totals = trace.phase_totals();
  ASSERT_TRUE(totals.contains("outer"));
  EXPECT_EQ(totals.at("outer").count, 1u);
  EXPECT_EQ(totals.at("outer").total, 100u);  // 200 - 100 inclusive span
  EXPECT_EQ(totals.at("inner").total, 10u);
}

TEST(TraceRecorder, ExplicitTimestampEventsKeepEmissionOrderSeq) {
  TraceRecorder trace;
  trace.set_clock([] { return SimTime{500}; });
  // A deferral span rendered retroactively: begin in the past, end "now".
  trace.begin_at(120, "defer", "ckpt", kControlTrack);
  trace.end_at(500, "defer", kControlTrack);
  trace.instant_at(130, "mark", "ckpt", kControlTrack);
  ASSERT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.events()[0].ts, 120u);
  EXPECT_EQ(trace.events()[2].seq, 2u);  // seq follows emission, not ts
  EXPECT_EQ(trace.events()[2].ts, 130u);
}

TEST(TraceRecorder, SpanGuardClosesOnScopeExitAndEarlyEndIsIdempotent) {
  TraceRecorder trace;
  trace.set_clock([] { return SimTime{1}; });
  {
    SpanGuard guard(&trace, "auto", "test", kControlTrack);
  }
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[1].phase, EventPhase::kEnd);

  trace.clear();
  {
    SpanGuard guard(&trace, "early", "test", kControlTrack);
    guard.end({TraceArg::str("outcome", "done")});
    // Destructor must not emit a second end.
  }
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[1].args[0].text, "done");
}

TEST(TraceRecorder, NullRecorderSpanGuardIsANoOp) {
  SpanGuard guard(nullptr, "nothing", "test", kControlTrack);
  guard.end();  // must not crash
}

TEST(TraceRecorder, ChromeExportIsWellFormedAndBalanced) {
  TraceRecorder trace;
  SimTime now = 0;
  trace.set_clock([&now] { return now; });
  trace.begin("checkpoint", "ckpt", 5, {TraceArg::str("engine", "CRAK")});
  now = 2'500;  // 2.5 us
  trace.instant("mark", "ckpt", 5);
  trace.counter("ckpt.bytes", kControlTrack, 4096);
  now = 10'000;
  trace.end("checkpoint", 5, {TraceArg::num("bytes", 4096)});

  const std::string json = trace.export_chrome_json();
  std::string error;
  EXPECT_TRUE(json_lint(json, &error)) << error;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2.500"), std::string::npos);  // fixed-point us
  EXPECT_NE(json.find("\"ts\":10.000"), std::string::npos);

  // Begin/end must balance per track over the event log itself.
  std::map<std::uint64_t, int> depth;
  for (const TraceEvent& event : trace.events()) {
    if (event.phase == EventPhase::kBegin) ++depth[event.track];
    if (event.phase == EventPhase::kEnd) {
      --depth[event.track];
      EXPECT_GE(depth[event.track], 0);
    }
  }
  for (const auto& [track, open] : depth) EXPECT_EQ(open, 0) << "track " << track;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesAndHistogramsAggregate) {
  MetricsRegistry metrics;
  metrics.add("ckpt.completed");
  metrics.add("ckpt.completed", 2);
  EXPECT_EQ(metrics.counter("ckpt.completed"), 3u);
  EXPECT_EQ(metrics.counter("absent"), 0u);

  metrics.set_gauge("autonomic.interval_ns", 5'000);
  metrics.set_gauge("autonomic.interval_ns", -7);
  EXPECT_EQ(metrics.gauge("autonomic.interval_ns"), -7);

  const std::uint64_t bounds[] = {10, 100, 1000};
  metrics.observe("lat", 5, bounds);
  metrics.observe("lat", 50, bounds);
  metrics.observe("lat", 5'000, bounds);  // overflow bucket
  const HistogramData* hist = metrics.histogram("lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 3u);
  EXPECT_EQ(hist->sum, 5'055u);
  EXPECT_EQ(hist->min, 5u);
  EXPECT_EQ(hist->max, 5'000u);
  ASSERT_EQ(hist->counts.size(), 4u);
  EXPECT_EQ(hist->counts[0], 1u);
  EXPECT_EQ(hist->counts[1], 1u);
  EXPECT_EQ(hist->counts[2], 0u);
  EXPECT_EQ(hist->counts[3], 1u);
}

TEST(MetricsRegistry, SnapshotIsSortedAndInsertionOrderIndependent) {
  MetricsRegistry forward, backward;
  forward.add("alpha");
  forward.add("beta", 2);
  forward.set_gauge("g", 1);
  forward.observe("h", 7, MetricsRegistry::latency_bounds());
  backward.observe("h", 7, MetricsRegistry::latency_bounds());
  backward.set_gauge("g", 1);
  backward.add("beta", 2);
  backward.add("alpha");

  EXPECT_EQ(forward, backward);
  const std::string snapshot = forward.snapshot_json();
  EXPECT_EQ(snapshot, backward.snapshot_json());
  std::string error;
  EXPECT_TRUE(json_lint(snapshot, &error)) << error;
  EXPECT_LT(snapshot.find("\"alpha\""), snapshot.find("\"beta\""));
  EXPECT_NE(snapshot.find("\"counters\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"gauges\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"histograms\""), std::string::npos);
}

TEST(TraceRecorder, RingEvictsOldestEventsAndCountsEveryDrop) {
  TraceRecorder trace;
  trace.set_capacity(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    trace.instant_at(static_cast<SimTime>(i * 100), "tick", "test", kControlTrack);
  }

  ASSERT_EQ(trace.events().size(), 4u);
  EXPECT_EQ(trace.dropped(), 2u);
  // seq keeps counting across evictions: the ring holds the newest window.
  EXPECT_EQ(trace.events().front().seq, 2u);
  EXPECT_EQ(trace.events().back().seq, 5u);
  EXPECT_EQ(trace.next_seq(), 6u);

  // Shrinking evicts immediately and keeps charging the drop counter.
  trace.set_capacity(1);
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.events().front().seq, 5u);
  EXPECT_EQ(trace.dropped(), 5u);

  // clear() resets the ring statistics along with the events.
  trace.clear();
  EXPECT_TRUE(trace.events().empty());
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_EQ(trace.next_seq(), 0u);
}

TEST(TraceRecorder, ObserverWiresEvictionsToTheTraceDroppedCounter) {
  Observer observer;
  observer.trace().set_capacity(2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    observer.trace().instant_at(static_cast<SimTime>(i), "tick", "test", kControlTrack);
  }
  EXPECT_EQ(observer.metrics().counter("obs.trace_dropped"), 3u);

  observer.trace().set_capacity(1);
  EXPECT_EQ(observer.metrics().counter("obs.trace_dropped"), 4u);
}

// ---------------------------------------------------------------------------
// Histogram percentiles and registry merging (the rollup primitives)
// ---------------------------------------------------------------------------

TEST(HistogramData, PercentileIsExactAtBucketBoundsAndCapsAtObservedMax) {
  MetricsRegistry metrics;
  const std::uint64_t bounds[] = {10, 100, 1000};
  // 5 observations at exactly 10, 4 at exactly 100, 1 in the overflow bucket.
  for (int i = 0; i < 5; ++i) metrics.observe("h", 10, bounds);
  for (int i = 0; i < 4; ++i) metrics.observe("h", 100, bounds);
  metrics.observe("h", 5000, bounds);

  const HistogramData* hist = metrics.histogram("h");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->count, 10u);
  // Boundary values land in their bound's bucket, so the estimates are exact.
  EXPECT_EQ(hist->percentile(1), 10u);    // rank 1
  EXPECT_EQ(hist->percentile(500), 10u);  // rank 5: last of the 10s
  EXPECT_EQ(hist->percentile(600), 100u); // rank 6: first of the 100s
  EXPECT_EQ(hist->percentile(900), 100u); // rank 9: last of the 100s
  // Ranks in the overflow bucket report the observed max, not infinity.
  EXPECT_EQ(hist->percentile(990), 5000u);
  EXPECT_EQ(hist->percentile(1000), 5000u);

  EXPECT_EQ(HistogramData{}.percentile(500), 0u);
}

TEST(HistogramData, MergeAddsBucketwiseAndRejectsMismatchedLayouts) {
  MetricsRegistry a, b;
  const std::uint64_t bounds[] = {10, 100, 1000};
  a.observe("h", 10, bounds);
  a.observe("h", 5000, bounds);
  b.observe("h", 100, bounds);
  b.observe("h", 100, bounds);

  HistogramData merged = *a.histogram("h");
  merged.merge(*b.histogram("h"));
  EXPECT_EQ(merged.count, 4u);
  EXPECT_EQ(merged.sum, 10u + 5000u + 100u + 100u);
  EXPECT_EQ(merged.min, 10u);
  EXPECT_EQ(merged.max, 5000u);
  EXPECT_EQ(merged.counts[0], 1u);  // <= 10
  EXPECT_EQ(merged.counts[1], 2u);  // <= 100
  EXPECT_EQ(merged.counts[2], 0u);  // <= 1000
  EXPECT_EQ(merged.counts[3], 1u);  // overflow

  MetricsRegistry other;
  const std::uint64_t other_bounds[] = {7, 77};
  other.observe("h", 7, other_bounds);
  EXPECT_THROW(merged.merge(*other.histogram("h")), std::invalid_argument);
}

TEST(MetricsRegistry, MergeFoldsAllSectionsAndPrefixNamespaces) {
  const std::uint64_t bounds[] = {10, 100, 1000};
  MetricsRegistry node;
  node.add("commits", 2);
  node.set_gauge("interval", 7);
  node.observe("latency", 100, bounds);

  MetricsRegistry fleet;
  fleet.add("commits", 3);
  fleet.set_gauge("interval", 5);
  fleet.observe("latency", 10, bounds);

  // Unprefixed: counters add, gauges take the incoming value, histograms
  // fold bucket-wise.
  fleet.merge(node);
  EXPECT_EQ(fleet.counter("commits"), 5u);
  EXPECT_EQ(fleet.gauge("interval"), 7);
  ASSERT_NE(fleet.histogram("latency"), nullptr);
  EXPECT_EQ(fleet.histogram("latency")->count, 2u);
  EXPECT_EQ(fleet.histogram("latency")->counts[0], 1u);
  EXPECT_EQ(fleet.histogram("latency")->counts[1], 1u);

  // Prefixed: the same snapshot lands under a per-node namespace without
  // touching the unprefixed aggregate.
  fleet.merge(node, "node3.");
  EXPECT_EQ(fleet.counter("node3.commits"), 2u);
  EXPECT_EQ(fleet.gauge("node3.interval"), 7);
  ASSERT_NE(fleet.histogram("node3.latency"), nullptr);
  EXPECT_EQ(fleet.histogram("node3.latency")->count, 1u);
  EXPECT_EQ(fleet.counter("commits"), 5u);

  // Merging into an empty registry copies the source verbatim.
  MetricsRegistry copy;
  copy.merge(node);
  EXPECT_EQ(copy, node);

  // A histogram landing on an existing name with different bounds throws:
  // bucket layouts are part of a metric's identity.
  MetricsRegistry clash;
  const std::uint64_t other_bounds[] = {7, 77};
  clash.observe("latency", 7, other_bounds);
  EXPECT_THROW(fleet.merge(clash), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fleet telemetry rollups
// ---------------------------------------------------------------------------

TEST(FleetTelemetry, QuantilesOutliersAndRollupAreIngestionOrderInvariant) {
  const std::uint64_t bounds[] = {10, 100, 1000, 10000};
  MetricsRegistry fast, slow, sparse;
  for (int i = 0; i < 8; ++i) fast.observe("commit", 10, bounds);
  for (int i = 0; i < 8; ++i) slow.observe("commit", 1000, bounds);
  // Below FleetTelemetry::kMinSamples: two outrageous samples are noise, not a drift signal.
  sparse.observe("commit", 10000, bounds);
  sparse.observe("commit", 10000, bounds);

  FleetTelemetry forward;
  forward.ingest(0, fast);
  forward.ingest(1, fast);
  forward.ingest(2, slow);
  forward.ingest(3, sparse);

  EXPECT_EQ(forward.node_count(), 4u);
  const auto q = forward.quantiles("commit");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->count, 26u);
  EXPECT_EQ(q->p50, 10u);    // rank 13 of 26: inside the 16 fast samples
  EXPECT_EQ(q->p95, 10000u); // rank 25: inside the sparse node's samples
  EXPECT_EQ(q->p99, 10000u);

  // Only the slow node flags: its median is 100x the fleet median, while
  // the sparse node is filtered by kMinSamples.
  const auto outliers = forward.outliers("commit");
  ASSERT_EQ(outliers.size(), 1u);
  EXPECT_EQ(outliers[0].node, 2);
  EXPECT_EQ(outliers[0].node_p50, 1000u);
  EXPECT_EQ(outliers[0].fleet_p50, 10u);

  EXPECT_FALSE(forward.quantiles("missing").has_value());
  EXPECT_TRUE(forward.outliers("missing").empty());

  // The rollup document is json_lint-clean and byte-identical for any
  // ingestion order (nodes key on id, names are sorted).
  FleetTelemetry backward;
  backward.ingest(3, sparse);
  backward.ingest(2, slow);
  backward.ingest(1, fast);
  backward.ingest(0, fast);
  const std::string rollup = forward.rollup_json("commit");
  EXPECT_EQ(rollup, backward.rollup_json("commit"));
  std::string error;
  EXPECT_TRUE(json_lint(rollup, &error)) << error;
  EXPECT_NE(rollup.find("\"commit\""), std::string::npos);

  // Re-ingesting a node replaces (not accumulates) its snapshot.
  forward.ingest(2, fast);
  EXPECT_TRUE(forward.outliers("commit").empty());
}

// ---------------------------------------------------------------------------
// Overhead accounting (the closed-loop ledger)
// ---------------------------------------------------------------------------

TEST(OverheadAccountant, LedgerSplitsAndOverheadPermilleArePerNodeAndFleetWide) {
  OverheadAccountant acct;
  acct.charge_useful(1, 900);
  acct.charge_checkpoint(1, 100);
  acct.charge_useful(2, 450);
  acct.charge_rework(2, 50);

  const OverheadLedger* n1 = acct.node(1);
  ASSERT_NE(n1, nullptr);
  EXPECT_EQ(n1->useful, 900u);
  EXPECT_EQ(n1->checkpoint, 100u);
  EXPECT_EQ(n1->commits, 1u);
  EXPECT_EQ(n1->overhead_permille(), 100u);  // 100 / 1000

  const OverheadLedger* n2 = acct.node(2);
  ASSERT_NE(n2, nullptr);
  EXPECT_EQ(n2->rework, 50u);
  EXPECT_EQ(n2->reworks, 1u);
  EXPECT_EQ(n2->overhead_permille(), 100u);  // 50 / 500

  EXPECT_EQ(acct.fleet().total(), 1500u);
  EXPECT_EQ(acct.fleet().overhead_permille(), 100u);  // 150 / 1500
  EXPECT_EQ(acct.mean_commit_cost(), 100u);
  EXPECT_EQ(acct.node(9), nullptr);
  EXPECT_EQ(OverheadLedger{}.overhead_permille(), 0u);
}

TEST(OverheadAccountant, MeasuredMtbfCollapsesSameInstantFailures) {
  OverheadAccountant acct;
  EXPECT_EQ(acct.measured_mtbf(), 0u);
  acct.observe_failure(1000);
  EXPECT_EQ(acct.measured_mtbf(), 0u);  // one instant is not a gap
  acct.observe_failure(1000);           // same scheduling window: no zero gap
  acct.observe_failure(3000);
  acct.observe_failure(4000);
  EXPECT_EQ(acct.failures(), 4u);
  EXPECT_EQ(acct.measured_mtbf(), 1500u);  // (4000 - 1000) / 2 gaps

  const std::string table = acct.table();
  EXPECT_NE(table.find("4 failures"), std::string::npos);
  EXPECT_NE(table.find("measured mtbf=1.500us"), std::string::npos);
  EXPECT_NE(table.find("fleet"), std::string::npos);

  acct.clear();
  EXPECT_EQ(acct.failures(), 0u);
  EXPECT_EQ(acct.measured_mtbf(), 0u);
  EXPECT_EQ(acct.fleet().total(), 0u);
}

// ---------------------------------------------------------------------------
// Engine lifecycle instrumentation
// ---------------------------------------------------------------------------

class ObsEngineTest : public SimTest {
 protected:
  sim::SimKernel kernel_;
  storage::LocalDiskBackend backend_{sim::CostModel{}};
  Observer observer_;

  void SetUp() override {
    SimTest::SetUp();
    kernel_.set_observer(&observer_);
  }
  void TearDown() override {
    kernel_.set_observer(nullptr);
    observer_.set_clock({});
  }
};

TEST_F(ObsEngineTest, CheckpointEmitsLifecycleSpansAndMetrics) {
  core::SyscallEngine engine("epckpt", &backend_, core::EngineOptions{}, kernel_,
                             core::SyscallEngine::TargetMode::kByPid, nullptr);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  run_steps(kernel_, pid, 5);
  const core::CheckpointResult result = engine.request_checkpoint(kernel_, pid);
  ASSERT_TRUE(result.ok) << result.error;

  EXPECT_EQ(observer_.metrics().counter("ckpt.initiated"), 1u);
  EXPECT_EQ(observer_.metrics().counter("ckpt.completed"), 1u);
  EXPECT_EQ(observer_.metrics().counter("ckpt.full"), 1u);
  EXPECT_GT(observer_.metrics().counter("ckpt.bytes_captured"), 0u);
  const HistogramData* latency = observer_.metrics().histogram("ckpt.total_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 1u);

  auto count_phase = [&](const char* name, EventPhase phase) {
    return std::count_if(observer_.trace().events().begin(),
                         observer_.trace().events().end(), [&](const TraceEvent& e) {
                           return e.name == name && e.phase == phase;
                         });
  };
  EXPECT_EQ(count_phase("checkpoint", EventPhase::kBegin), 1);
  EXPECT_EQ(count_phase("checkpoint", EventPhase::kEnd), 1);
  EXPECT_EQ(count_phase("capture", EventPhase::kBegin), 1);
  EXPECT_EQ(count_phase("capture", EventPhase::kEnd), 1);
  EXPECT_EQ(count_phase("store", EventPhase::kBegin), 1);
  EXPECT_EQ(count_phase("initiate", EventPhase::kInstant), 1);

  // Lifecycle spans ride the pid's own track.
  const auto& events = observer_.trace().events();
  const auto it = std::find_if(events.begin(), events.end(), [](const TraceEvent& e) {
    return e.name == "checkpoint" && e.phase == EventPhase::kBegin;
  });
  ASSERT_NE(it, events.end());
  EXPECT_EQ(it->track, static_cast<std::uint64_t>(pid));

  std::string error;
  EXPECT_TRUE(json_lint(observer_.trace().export_chrome_json(), &error)) << error;
  EXPECT_TRUE(json_lint(observer_.metrics().snapshot_json(), &error)) << error;
}

TEST_F(ObsEngineTest, FrozenSchedulerClockStillAdvancesTraceTimestamps) {
  // Events emitted mid-step are stamped with effective time (clock + step
  // charge), so a span never collapses to zero width just because the
  // scheduler clock is frozen inside the step.
  core::SyscallEngine engine("epckpt", &backend_, core::EngineOptions{}, kernel_,
                             core::SyscallEngine::TargetMode::kByPid, nullptr);
  const sim::Pid pid = kernel_.spawn(sim::CounterGuest::kTypeName);
  run_steps(kernel_, pid, 5);
  ASSERT_TRUE(engine.request_checkpoint(kernel_, pid).ok);
  const auto totals = observer_.trace().phase_totals();
  ASSERT_TRUE(totals.contains("checkpoint"));
  EXPECT_GT(totals.at("checkpoint").total, 0u);
  ASSERT_TRUE(totals.contains("capture"));
  EXPECT_GT(totals.at("capture").total, 0u);
}

// ---------------------------------------------------------------------------
// Recovery ladder instrumentation
// ---------------------------------------------------------------------------

TEST_F(SimTest, RecoveryLadderEmitsRungSpansAndGateMetrics) {
  Observer observer;
  cluster::Cluster cluster(2, cluster::NodeConfig{});
  // Cluster-level managers trace on the cluster clock — node kernels come
  // and go with failures, so no kernel attachment here.
  observer.set_clock([&cluster] { return cluster.now(); });
  cluster::RecoveryManagerOptions options;
  options.store.observer = &observer;
  cluster::RecoveryManager manager(cluster, options);

  const auto job = manager.launch(0, sim::CounterGuest::kTypeName, {});
  run_steps(cluster.node(0).kernel(), manager.pid_of(job), 50);
  ASSERT_TRUE(manager.checkpoint(job));
  cluster.fail_node(0);
  const cluster::RecoveryReport report = manager.recover(job);
  ASSERT_TRUE(report.recovered);

  EXPECT_EQ(observer.metrics().counter("recovery.attempts"), 1u);
  EXPECT_EQ(observer.metrics().counter("recovery.from_image"), 1u);
  EXPECT_EQ(observer.metrics().counter("recovery.failed"), 0u);
  EXPECT_EQ(observer.metrics().counter("recovery.data_loss_gate_hits"), 0u);

  bool saw_recovery_span = false, saw_rung = false;
  for (const TraceEvent& event : observer.trace().events()) {
    if (event.name == "recovery" && event.phase == EventPhase::kBegin) {
      saw_recovery_span = true;
    }
    if (event.name.starts_with("rung:")) saw_rung = true;
  }
  EXPECT_TRUE(saw_recovery_span);
  EXPECT_TRUE(saw_rung);
}

// ---------------------------------------------------------------------------
// Soak determinism: trace + metrics are part of the replay contract
// ---------------------------------------------------------------------------

struct SoakArtifacts {
  std::string trace_json;
  std::string metrics_json;
  inject::TortureReport report;
};

SoakArtifacts observed_soak(std::uint32_t workers) {
  inject::TortureOptions options;
  options.seed = 0x0b5e12;
  options.cycles = 30;
  options.replicated_storage = true;
  options.replicas = 3;
  options.workers = workers;
  Observer observer;
  options.observer = &observer;
  inject::TortureHarness harness(options);
  SoakArtifacts artifacts;
  artifacts.report = harness.run(inject::TortureTarget{"CRAK", nullptr});
  artifacts.trace_json = observer.trace().export_chrome_json();
  artifacts.metrics_json = observer.metrics().snapshot_json();
  return artifacts;
}

TEST_F(SimTest, SoakTraceIsByteIdenticalAcrossWorkerCounts) {
  const SoakArtifacts serial = observed_soak(1);
  const SoakArtifacts pooled = observed_soak(8);

  EXPECT_TRUE(serial.report.ok()) << serial.report.summary();
  EXPECT_EQ(serial.report, pooled.report);
  EXPECT_EQ(serial.trace_json, pooled.trace_json)
      << "trace must not observe commit-pipeline concurrency";
  EXPECT_EQ(serial.metrics_json, pooled.metrics_json);

  std::string error;
  ASSERT_TRUE(json_lint(serial.trace_json, &error)) << error;
  ASSERT_TRUE(json_lint(serial.metrics_json, &error)) << error;

  // The soak actually exercised the instrumented paths.
  EXPECT_NE(serial.trace_json.find("\"replica-stage\""), std::string::npos);
  EXPECT_NE(serial.trace_json.find("\"cycle\""), std::string::npos);
  EXPECT_NE(serial.trace_json.find("\"soak\""), std::string::npos);
  EXPECT_NE(serial.metrics_json.find("\"store.committed\""), std::string::npos);
  EXPECT_NE(serial.metrics_json.find("\"torture.cycles\""), std::string::npos);
}

TEST_F(SimTest, ObservedAndUnobservedSoaksProduceTheSameReport) {
  // Attaching an Observer must never perturb the simulation itself.
  inject::TortureOptions options;
  options.seed = 99;
  options.cycles = 25;
  options.replicated_storage = true;
  options.replicas = 2;

  const inject::TortureReport bare =
      inject::TortureHarness(options).run(inject::TortureTarget{"CRAK", nullptr});
  Observer observer;
  options.observer = &observer;
  const inject::TortureReport observed =
      inject::TortureHarness(options).run(inject::TortureTarget{"CRAK", nullptr});
  EXPECT_EQ(bare, observed);
  EXPECT_GT(observer.trace().events().size(), 0u);
}

}  // namespace
}  // namespace ckpt::obs
