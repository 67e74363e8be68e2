// JSON output of the benchmark: a small ordered-object writer and the
// one-line result record the benchmark prints last.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Shortest-round-trip text of a double ("%.17g"); non-finite values have no
/// JSON spelling and render as null.
inline std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// JSON object whose members render in insertion order.
class JsonObject {
 public:
  JsonObject& Num(std::string key, double v) {
    return Raw(std::move(key), FormatNumber(v));
  }
  JsonObject& Int(std::string key, std::uint64_t v) {
    return Raw(std::move(key), std::to_string(v));
  }
  JsonObject& Str(std::string key, std::string_view v) {
    return Raw(std::move(key), Quote(v));
  }
  JsonObject& Bool(std::string key, bool v) {
    return Raw(std::move(key), v ? "true" : "false");
  }
  JsonObject& Obj(std::string key, const JsonObject& v) {
    return Raw(std::move(key), v.Render());
  }

  std::string Render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  JsonObject& Raw(std::string key, std::string text) {
    fields_.emplace_back(std::move(key), std::move(text));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The result record: {"correct", "attempted", "failed", "metrics": {name:
/// {"value", "unit"}}}. A non-finite metric value renders as null.
struct BenchResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  std::string Render() const {
    JsonObject m;
    for (const auto& metric : metrics) {
      m.Obj(metric.name,
            JsonObject().Num("value", metric.value).Str("unit", metric.unit));
    }
    return JsonObject()
        .Bool("correct", correct)
        .Int("attempted", attempted)
        .Int("failed", failed)
        .Obj("metrics", m)
        .Render();
  }
};

}  // namespace perfbench
