#ifndef RPDBSCAN_UTIL_JSON_WRITER_H_
#define RPDBSCAN_UTIL_JSON_WRITER_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace rpdbscan {

/// Minimal streaming JSON emitter for the machine-readable stats outputs
/// (--stats-json, the serve throughput report, the bench_* BENCH jsons).
/// Comma placement is handled by a nesting stack, so callers just write
/// keys and values in order. No dependency, no DOM, no parsing.
///
/// Usage:
///   JsonWriter w;
///   w.BeginObject().Key("points").Value(int64_t{42}).EndObject();
///   std::string out = w.TakeString();
class JsonWriter {
 public:
  JsonWriter& BeginObject() {
    Separate();
    out_ += '{';
    open_.push_back(false);
    return *this;
  }
  JsonWriter& EndObject() {
    open_.pop_back();
    out_ += '}';
    return *this;
  }
  JsonWriter& BeginArray() {
    Separate();
    out_ += '[';
    open_.push_back(false);
    return *this;
  }
  JsonWriter& EndArray() {
    open_.pop_back();
    out_ += ']';
    return *this;
  }

  JsonWriter& Key(const std::string& name) {
    Separate();
    AppendEscaped(name);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  JsonWriter& Value(const std::string& v) {
    Separate();
    AppendEscaped(v);
    return *this;
  }
  JsonWriter& Value(const char* v) { return Value(std::string(v)); }
  JsonWriter& Value(bool v) {
    Separate();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& Value(int64_t v) {
    Separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Value(uint64_t v) {
    Separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Value(int v) { return Value(static_cast<int64_t>(v)); }
  /// Splices an already-serialized JSON value (object, array, number)
  /// verbatim — the composition hook for nesting one emitter's output
  /// (e.g. ServeStatsToJson) inside another document.
  JsonWriter& Raw(const std::string& json) {
    Separate();
    out_ += json;
    return *this;
  }
  JsonWriter& Value(double v) {
    Separate();
    if (!std::isfinite(v)) {
      out_ += "null";  // JSON has no NaN/Inf
      return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out_ += buf;
    return *this;
  }

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

 private:
  /// Emits the separating comma when a sibling value already exists at the
  /// current nesting level; marks the level non-empty either way.
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;  // the value completes the "key": pair, no comma
    }
    if (!open_.empty()) {
      if (open_.back()) out_ += ',';
      open_.back() = true;
    }
  }

  void AppendEscaped(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"':
          out_ += "\\\"";
          break;
        case '\\':
          out_ += "\\\\";
          break;
        case '\n':
          out_ += "\\n";
          break;
        case '\t':
          out_ += "\\t";
          break;
        case '\r':
          out_ += "\\r";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  /// One flag per open object/array: true once it holds an element.
  std::vector<bool> open_;
  bool after_key_ = false;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_UTIL_JSON_WRITER_H_
