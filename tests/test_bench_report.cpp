#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "obs/json.hpp"

namespace ckpt::bench {
namespace {

/// Run finish() with stdout and stderr captured; returns the exit status.
int finish_quietly(const Report& report, const std::string& path, std::string* err) {
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int status = report.finish(path, "claim");
  testing::internal::GetCapturedStdout();
  *err = testing::internal::GetCapturedStderr();
  return status;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(BenchReport, FailedFailLevelGateGivesNonZeroStatus) {
  Report report("bench_test");
  report.put("ratio", 0.5, 4);
  report.gate("ratio", 0.5, Op::kLe, 0.3).gate("identical_1v8", true);
  std::string err;
  const std::string path = testing::TempDir() + "bench_report_fail.json";
  EXPECT_EQ(finish_quietly(report, path, &err), 1);
  EXPECT_NE(err.find("FAIL: ratio = 0.5, want <= 0.3"), std::string::npos) << err;
  EXPECT_FALSE(report.holds());
  EXPECT_EQ(read_file(path), report.render());  // written for the post-mortem
}

TEST(BenchReport, MissedWarnLevelGateWarnsAndExitsZero) {
  Report report("bench_test");
  report.put("speedup", 1.5, 4);
  report.gate("speedup", 1.5, Op::kGe, 1.3).gate("speedup", 1.5, Op::kGe, 2.0, Level::kWarn);
  std::string err;
  EXPECT_EQ(finish_quietly(report, testing::TempDir() + "bench_report_warn.json", &err), 0);
  EXPECT_NE(err.find("warning: speedup = 1.5, want >= 2"), std::string::npos) << err;
  EXPECT_EQ(err.find("FAIL"), std::string::npos) << err;
  EXPECT_FALSE(report.holds());  // the verdict still counts the missed target
}

TEST(BenchReport, EveryGateOperatorAndBoolGate) {
  Report report("bench_test");
  report.gate("lt", 1.0, Op::kLt, 2.0)
      .gate("le", 2.0, Op::kLe, 2.0)
      .gate("eq", 0.0, Op::kEq, 0.0)
      .gate("ge", 4.0, Op::kGe, 4.0)
      .gate("flag", true);
  EXPECT_TRUE(report.holds());
  EXPECT_FALSE(Report("bench_test").gate("lt", 2.0, Op::kLt, 2.0).holds());
  EXPECT_FALSE(Report("bench_test").gate("flag", false, Level::kWarn).holds());
}

TEST(BenchReport, OutputLintsAndRendersIdentically) {
  Report report("bench_test");
  std::vector<Fields> rows;
  for (int i = 0; i < 3; ++i) {
    rows.push_back(Fields().put("i", i).put("name", "row \"quoted\"\n").put("x", i / 3.0, 3));
  }
  report.put("count", std::uint64_t{18446744073709551615u})
      .put("rows", rows)
      .put("empty", std::vector<Fields>{})
      .put("ok", false)
      .put("digest", "00ff");
  report.gate("count", 1e300, Op::kGe, 0.0).gate("ok", false, Level::kWarn);
  const std::string json = report.render();
  std::string error;
  EXPECT_TRUE(obs::json_lint(json, &error)) << error << "\n" << json;
  EXPECT_EQ(json, report.render());
  EXPECT_TRUE(json.ends_with("\n  \"holds\": false\n}\n")) << json;
}

TEST(BenchReport, NonFiniteFigureFailsTheLint) {
  Report report("bench_test");
  report.put("nan", std::numeric_limits<double>::quiet_NaN(), 4);  // "nan" is not JSON
  std::string err;
  EXPECT_EQ(finish_quietly(report, testing::TempDir() + "bench_report_nan.json", &err), 1);
  EXPECT_NE(err.find("not valid JSON"), std::string::npos) << err;
}

TEST(BenchReport, DoublesRenderExactlyAsPrintfFixed) {
  for (const double value : {0.1162, 12.22315600267688, -0.2557, 1e6 / 3, 0.00005, 2.5,
                             203.64114, 1018.3105}) {
    for (const int decimals : {1, 2, 3, 4, 6}) {
      char expected[64];
      std::snprintf(expected, sizeof expected, "%.*f", decimals, value);
      EXPECT_EQ(Fields().put("x", value, decimals).inline_json(),
                std::string("{\"x\": ") + expected + "}");
    }
  }
}

TEST(BenchReport, RowsKeepInsertionOrder) {
  Report report("bench_test");
  report.put("z", 1)
      .put("rows", std::vector<Fields>{Fields().put("b", 2).put("a", 1), Fields().put("c", 3)})
      .put("a", 2);
  EXPECT_EQ(report.render(),
            "{\n"
            "  \"bench\": \"bench_test\",\n"
            "  \"z\": 1,\n"
            "  \"rows\": [\n"
            "    {\"b\": 2, \"a\": 1},\n"
            "    {\"c\": 3}\n"
            "  ],\n"
            "  \"a\": 2,\n"
            "  \"gates\": [],\n"
            "  \"holds\": true\n"
            "}\n");
}

}  // namespace
}  // namespace ckpt::bench
