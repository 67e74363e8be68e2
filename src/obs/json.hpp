// Minimal JSON syntax validator + flat key iterator + DOM parser.
//
// The observability artifacts (trace.json, metrics.json) are emitted by
// hand-rolled writers; this recursive-descent scanner is how the tests and
// the metrics schema checker prove the output is well-formed JSON without
// pulling in an external parser. The Scanner validates syntax only — values
// are not materialized — and collects the dotted paths of every object key
// so a schema can be checked against the emitted key set. Parse() (the read
// side used by tools/psra_report) materializes a Value tree; it routes all
// malformed input through the Scanner first, so rejection carries the
// scanner's offset-bearing error message.
#pragma once

#include <cctype>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace psra::obs::json {

class Scanner {
 public:
  /// Deepest array/object nesting accepted. Input arrives from peers and
  /// files, and both the Scanner and the DOM builder recurse once per level,
  /// so an unbounded depth would let a hostile document exhaust the stack.
  static constexpr int kMaxDepth = 512;

  explicit Scanner(std::string_view text) : text_(text) {}

  /// Validates the whole input as one JSON value (plus trailing whitespace).
  /// On success, Keys() holds every object key as a dotted path, e.g.
  /// "counters.engine.iterations" for {"counters":{"engine.iterations":1}}.
  bool Validate() {
    pos_ = 0;
    depth_ = 0;
    keys_.clear();
    error_.clear();
    SkipWs();
    if (!Value("")) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing garbage");
    return true;
  }

  const std::vector<std::string>& Keys() const { return keys_; }
  const std::string& Error() const { return error_; }

 private:
  bool Fail(const char* what) {
    error_ = std::string(what) + " at offset " + std::to_string(pos_);
    return false;
  }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return Fail("bad literal");
    pos_ += lit.size();
    return true;
  }
  bool String(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return Fail("expected '\"'");
    ++pos_;
    std::string s;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("bad escape");
        c = text_[pos_++];
        if (c != '"' && c != '\\' && c != '/' && c != 'b' && c != 'f' &&
            c != 'n' && c != 'r' && c != 't' && c != 'u') {
          return Fail("bad escape");
        }
        if (c == 'u') {
          for (int i = 0; i < 4; ++i, ++pos_) {
            if (pos_ >= text_.size() ||
                std::isxdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
              return Fail("bad \\u escape");
            }
          }
          c = '?';
        }
      }
      s.push_back(c);
    }
    if (pos_ >= text_.size()) return Fail("unterminated string");
    ++pos_;  // closing quote
    if (out != nullptr) *out = std::move(s);
    return true;
  }
  bool Number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      eat_digits();
    }
    if (!digits) {
      pos_ = start;
      return Fail("expected number");
    }
    return true;
  }
  bool Value(const std::string& path) {
    if (pos_ >= text_.size()) return Fail("expected value");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) return Fail("nesting too deep");
      ++depth_;
      const bool ok = c == '{' ? Object(path) : Array(path);
      --depth_;
      return ok;
    }
    if (c == '"') return String(nullptr);
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }
  bool Object(const std::string& path) {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!String(&key)) return false;
      const std::string child = path.empty() ? key : path + "." + key;
      keys_.push_back(child);
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return Fail("expected ':'");
      ++pos_;
      SkipWs();
      if (!Value(child)) return false;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }
  bool Array(const std::string& path) {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value(path)) return false;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::vector<std::string> keys_;
  std::string error_;
};

/// Materialized JSON value. Objects keep insertion order (the writers emit
/// sorted keys, and golden-file tests depend on stable iteration), arrays
/// keep element order. Numbers are doubles — every number the observability
/// writers emit round-trips through FormatDouble, so double is lossless for
/// this use.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> items;                             // kArray
  std::vector<std::pair<std::string, Value>> members;   // kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Looks up an object member by key; null when absent or not an object.
  const Value* Find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses `text` as one JSON value. Throws InvalidArgument carrying the
/// Scanner's error (with byte offset) on malformed input.
Value Parse(std::string_view text);

}  // namespace psra::obs::json
