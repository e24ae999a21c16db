// One report envelope for the bench_* binaries.
//
// Every bench writes its BENCH_*.json through a Report:
//
//   {"bench": <name>, <figures...>,
//    "gates": [{"name", "value", "op", "bound", "level"}, ...], "holds": <bool>}
//
// Figures keep insertion order and are rendered when they are put: integers
// in decimal, doubles exactly as printf's "%.<N>f", bools, quoted strings,
// and arrays of one-line row objects.  A deterministic bench therefore
// writes the same bytes on every run.  Gates hold the bounds: each bench
// declares every check once, and finish() prints the gate table, lints and
// writes the JSON, prints the verdict, and returns the process exit status --
// non-zero when a fail-level gate fails.  A missed warn-level gate (a target above a looser
// floor) only prints a warning.  "holds" is true when every gate passes,
// warn-level included.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "obs/json.hpp"

namespace ckpt::bench {

/// A JSON object whose members keep insertion order.
class Fields {
 public:
  template <std::integral T>
  Fields& put(std::string_view key, T value) {
    if constexpr (std::same_as<T, bool>) {
      return put_json(key, value ? "true" : "false");
    } else {
      return put_json(key, std::to_string(value));
    }
  }
  /// `value` exactly as printf's "%.<decimals>f" renders it.
  Fields& put(std::string_view key, double value, int decimals) {
    return put_json(key, util::format_double(value, decimals));
  }
  Fields& put(std::string_view key, std::string_view text) {
    return put_json(key, obs::json_quoted(text));
  }
  /// An array of row objects, one row per line.
  Fields& put(std::string_view key, const std::vector<Fields>& rows) {
    std::string text = "[";
    for (const Fields& row : rows) {
      text += text.size() == 1 ? "\n    " : ",\n    ";
      text += row.inline_json();
    }
    return put_json(key, text + (rows.empty() ? "]" : "\n  ]"));
  }
  /// A member whose value is already JSON text.
  Fields& put_json(std::string_view key, std::string json) {
    members_.emplace_back(std::string(key), std::move(json));
    return *this;
  }

  /// The object on one line: {"key": value, ...}.
  [[nodiscard]] std::string inline_json() const { return join("{", ", ", "}"); }

 protected:
  [[nodiscard]] std::string join(std::string_view open, std::string_view separator,
                                 std::string_view close) const {
    std::string out(open);
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (i > 0) out += separator;
      obs::json_append_quoted(out, members_[i].first);
      out += ": ";
      out += members_[i].second;
    }
    return out += close;
  }

 private:
  std::vector<std::pair<std::string, std::string>> members_;
};

enum class Op { kLt, kLe, kEq, kGe };
enum class Level { kFail, kWarn };

/// A bench's figures plus the gates it checks itself.
class Report : public Fields {
 public:
  explicit Report(std::string_view bench) : bench_(bench) { put("bench", bench); }

  /// Gate `value op bound`.
  Report& gate(std::string_view name, double value, Op op, double bound,
               Level level = Level::kFail) {
    const bool passed = op == Op::kLt   ? value < bound
                        : op == Op::kLe ? value <= bound
                        : op == Op::kEq ? value == bound
                                        : value >= bound;
    gates_.push_back({std::string(name), number(value), op, number(bound), level, passed});
    return *this;
  }
  /// Gate a boolean invariant: it must be true.
  template <std::same_as<bool> B>
  Report& gate(std::string_view name, B ok, Level level = Level::kFail) {
    gates_.push_back({std::string(name), ok ? "true" : "false", Op::kEq, "true", level, ok});
    return *this;
  }

  /// Every gate passes, warn-level included.
  [[nodiscard]] bool holds() const {
    for (const Gate& g : gates_) {
      if (!g.passed) return false;
    }
    return true;
  }

  /// The envelope, two-space indented, one figure per line.
  [[nodiscard]] std::string render() const {
    std::vector<Fields> rows;
    for (const Gate& g : gates_) {
      rows.push_back(Fields()
                         .put("name", g.name)
                         .put_json("value", g.value)
                         .put("op", op_name(g.op))
                         .put_json("bound", g.bound)
                         .put("level", g.level == Level::kFail ? "fail" : "warn"));
    }
    Report envelope = *this;
    envelope.put("gates", rows).put("holds", holds());
    return envelope.join("{\n  ", ",\n  ", "\n}\n");
  }

  /// Print the gate table, a warning for every failed gate and the verdict
  /// on `claim`, then lint and write the report to `path`.  Returns the exit
  /// status: 1 when a fail-level gate failed or the report could not be
  /// written, else 0.
  [[nodiscard]] int finish(const std::string& path, const std::string& claim) const {
    util::TextTable table({"gate", "value", "op", "bound", "level", "result"});
    int status = 0;
    for (const Gate& g : gates_) {
      const bool fail = g.level == Level::kFail;
      table.add_row({g.name, g.value, op_name(g.op), g.bound, fail ? "fail" : "warn",
                     g.passed ? "ok" : (fail ? "FAIL" : "missed")});
      if (g.passed) continue;
      std::fprintf(stderr, "%s: %s: %s = %s, want %s %s\n", bench_.c_str(),
                   fail ? "FAIL" : "warning", g.name.c_str(), g.value.c_str(),
                   op_name(g.op), g.bound.c_str());
      if (fail) status = 1;
    }
    print_table(table);
    print_verdict(holds(), claim);

    const std::string json = render();
    std::string error;
    if (!obs::json_lint(json, &error)) {
      std::fprintf(stderr, "%s: report is not valid JSON: %s\n", bench_.c_str(),
                   error.c_str());
      return 1;
    }
    std::FILE* file = std::fopen(path.c_str(), "w");
    bool written = file != nullptr && std::fputs(json.c_str(), file) >= 0;
    if (file != nullptr) written = std::fclose(file) == 0 && written;
    if (!written) {
      std::fprintf(stderr, "%s: cannot write %s\n", bench_.c_str(), path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return status;
  }

 private:
  struct Gate {
    std::string name;
    std::string value;
    Op op;
    std::string bound;
    Level level;
    bool passed;
  };

  static const char* op_name(Op op) {
    switch (op) {
      case Op::kLt: return "<";
      case Op::kLe: return "<=";
      case Op::kEq: return "==";
      case Op::kGe: return ">=";
    }
    return "?";
  }
  /// The shortest text that reads back as `value` ("inf" and "nan" fail
  /// the lint in finish()).
  static std::string number(double value) {
    char text[32];
    return std::string(text, std::to_chars(text, text + sizeof text, value).ptr);
  }

  std::string bench_;
  std::vector<Gate> gates_;
};

}  // namespace ckpt::bench
