// Shared scaffolding for the experiment benches.
//
// Each binary reproduces one artifact of the paper (a figure, the table, or
// one of the survey's qualitative claims as a quantitative experiment) and
// prints series in a stable text format quoted by EXPERIMENTS.md.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/guests.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace ckpt::bench {

inline void print_header(const std::string& experiment, const std::string& claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", claim.c_str());
  std::printf("================================================================\n");
}

inline void print_table(const util::TextTable& table) {
  std::fputs(table.render().c_str(), stdout);
  std::printf("\n");
}

/// Median of `values` (the mean of the middle two for an even count).
inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

inline void print_verdict(bool holds, const std::string& statement) {
  std::printf("[%s] %s\n\n", holds ? "HOLDS" : "DEVIATES", statement.c_str());
}

}  // namespace ckpt::bench
