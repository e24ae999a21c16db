#include "obs/rollup.hpp"

#include "obs/json.hpp"

namespace ckpt::obs {

void FleetTelemetry::ingest(int node, const MetricsRegistry& metrics) {
  nodes_.insert_or_assign(node, metrics);
}

void FleetTelemetry::clear() { nodes_.clear(); }

const MetricsRegistry* FleetTelemetry::node(int id) const {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

MetricsRegistry FleetTelemetry::fleet() const {
  MetricsRegistry merged;
  for (const auto& [id, registry] : nodes_) merged.merge(registry);
  return merged;
}

std::optional<FleetTelemetry::Quantiles> FleetTelemetry::quantiles(
    std::string_view histogram) const {
  std::optional<HistogramData> merged;
  for (const auto& [id, registry] : nodes_) {
    const HistogramData* h = registry.histogram(histogram);
    if (h == nullptr) continue;
    if (!merged.has_value()) {
      merged = *h;
    } else {
      merged->merge(*h);
    }
  }
  if (!merged.has_value()) return std::nullopt;
  Quantiles q;
  q.count = merged->count;
  q.p50 = merged->percentile(500);
  q.p95 = merged->percentile(950);
  q.p99 = merged->percentile(990);
  return q;
}

std::vector<FleetTelemetry::Outlier> FleetTelemetry::outliers(
    std::string_view histogram) const {
  std::vector<Outlier> out;
  const auto fleet_q = quantiles(histogram);
  if (!fleet_q.has_value() || fleet_q->p50 == 0) return out;
  for (const auto& [id, registry] : nodes_) {
    const HistogramData* h = registry.histogram(histogram);
    if (h == nullptr || h->count < kMinSamples) continue;
    const std::uint64_t node_p50 = h->percentile(500);
    if (node_p50 * 1000 > fleet_q->p50 * kOutlierFactorPermille) {
      out.push_back(Outlier{id, node_p50, fleet_q->p50});
    }
  }
  return out;
}

std::string FleetTelemetry::rollup_json(std::string_view outlier_histogram) const {
  std::string out = "{\n  \"nodes\": " + std::to_string(nodes_.size()) + ",\n";
  out += "  \"histograms\": {";
  bool first = true;
  // Every histogram name any node carries, sorted and deduplicated.
  std::map<std::string, std::uint8_t, std::less<>> hist_names;
  for (const auto& [id, registry] : nodes_) {
    for (const auto& name : registry.histogram_names()) hist_names.emplace(name, 0);
  }
  for (const auto& [name, unused] : hist_names) {
    const auto q = quantiles(name);
    if (!q.has_value()) continue;
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_quoted(out, name);
    out += ": {\"count\": " + std::to_string(q->count) +
           ", \"p50\": " + std::to_string(q->p50) +
           ", \"p95\": " + std::to_string(q->p95) +
           ", \"p99\": " + std::to_string(q->p99) + "}";
  }
  out += first ? "}" : "\n  }";
  if (!outlier_histogram.empty()) {
    out += ",\n  \"outliers\": {";
    out += "\n    \"histogram\": ";
    json_append_quoted(out, outlier_histogram);
    out += ",\n    \"factor_permille\": " + std::to_string(kOutlierFactorPermille);
    out += ",\n    \"nodes\": [";
    bool first_outlier = true;
    for (const Outlier& outlier : outliers(outlier_histogram)) {
      out += first_outlier ? "" : ", ";
      first_outlier = false;
      out += "{\"node\": " + std::to_string(outlier.node) +
             ", \"p50\": " + std::to_string(outlier.node_p50) +
             ", \"fleet_p50\": " + std::to_string(outlier.fleet_p50) + "}";
    }
    out += "]\n  }";
  }
  out += "\n}\n";
  return out;
}

}  // namespace ckpt::obs
