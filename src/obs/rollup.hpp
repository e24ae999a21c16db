// Fleet telemetry rollups: deterministic aggregation of per-node metrics.
//
// The thread-based-MPI-runtime paper's scaling lesson (PAPERS.md) is that
// per-rank telemetry is only actionable once rolled up: at 512+ nodes
// nobody reads 512 snapshots, they read the fleet p50/p95/p99 and the list
// of nodes drifting away from it.  FleetTelemetry ingests per-node
// MetricsRegistry snapshots, merges them (MetricsRegistry::merge) into a
// fleet-wide registry, estimates quantiles from the shared fixed bucket
// ladders, and flags outliers whose per-node median drifts past twice the
// fleet median.
//
// Determinism contract: ingestion keys on the node id (std::map order),
// quantiles are integer bucket-bound estimates (HistogramData::percentile),
// and rollup_json() renders sorted names and integers only — byte-identical
// for any ingestion order or pool width.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace ckpt::obs {

class FleetTelemetry {
 public:
  /// A node is an outlier when node_median * 1000 > fleet_median *
  /// kOutlierFactorPermille (2000 = 2x the fleet median).
  static constexpr std::uint64_t kOutlierFactorPermille = 2000;
  /// Histograms with fewer per-node samples than this never flag (a single
  /// slow commit is noise, a drifting median is a signal).
  static constexpr std::uint64_t kMinSamples = 8;

  /// Adopt (replace) `node`'s latest metrics snapshot.
  void ingest(int node, const MetricsRegistry& metrics);
  void clear();

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const MetricsRegistry* node(int id) const;

  /// Fleet-wide aggregate: every ingested registry merged unprefixed.
  [[nodiscard]] MetricsRegistry fleet() const;

  struct Quantiles {
    std::uint64_t count = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;

    friend bool operator==(const Quantiles&, const Quantiles&) = default;
  };
  /// Fleet-wide quantiles of one histogram (nullopt when no node has it).
  [[nodiscard]] std::optional<Quantiles> quantiles(std::string_view histogram) const;

  struct Outlier {
    int node = -1;
    std::uint64_t node_p50 = 0;
    std::uint64_t fleet_p50 = 0;

    friend bool operator==(const Outlier&, const Outlier&) = default;
  };
  /// Nodes whose median of `histogram` drifts past kOutlierFactorPermille of
  /// the fleet median, ascending node id.
  [[nodiscard]] std::vector<Outlier> outliers(std::string_view histogram) const;

  /// Deterministic rollup document: node count, per-histogram fleet
  /// quantiles, and — when `outlier_histogram` is non-empty — the outlier
  /// list for that histogram.  Integer-only, sorted, json_lint-clean.
  [[nodiscard]] std::string rollup_json(std::string_view outlier_histogram = {}) const;

 private:
  std::map<int, MetricsRegistry> nodes_;
};

}  // namespace ckpt::obs
