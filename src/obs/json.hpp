// Minimal JSON document model for the observability layer.
//
// The bench reports (obs/report.hpp), trace sinks (obs/trace.hpp) and
// report_trend all need a machine-readable interchange format, and the
// container bakes in no JSON library -- so this is a small, dependency-free
// writer/parser pair covering exactly RFC 8259: null/bool/number/string
// with full escaping (including \uXXXX and surrogate pairs), arrays, and
// objects.  Objects preserve insertion order so emitted reports are
// byte-stable across runs, which the golden-file test relies on.
//
// Numbers are stored as doubles; integral values in the exactly-
// representable range print without a decimal point, everything else with
// max round-trip precision (%.17g-style), so parse(dump(v)) == v for every
// value the subsystem produces.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ssr::obs {

class json_value {
 public:
  enum class kind : std::uint8_t {
    null,
    boolean,
    number,
    string,
    array,
    object
  };

  json_value() : kind_(kind::null) {}
  json_value(std::nullptr_t) : kind_(kind::null) {}
  json_value(bool b) : kind_(kind::boolean), bool_(b) {}
  json_value(double d) : kind_(kind::number), num_(d) {}
  json_value(int i) : kind_(kind::number), num_(i) {}
  json_value(std::int64_t i)
      : kind_(kind::number), num_(static_cast<double>(i)) {}
  json_value(std::uint64_t u)
      : kind_(kind::number), num_(static_cast<double>(u)) {}
  json_value(std::string s) : kind_(kind::string), str_(std::move(s)) {}
  json_value(std::string_view s) : kind_(kind::string), str_(s) {}
  json_value(const char* s) : kind_(kind::string), str_(s) {}

  static json_value array() {
    json_value v;
    v.kind_ = kind::array;
    return v;
  }
  static json_value object() {
    json_value v;
    v.kind_ = kind::object;
    return v;
  }

  kind type() const { return kind_; }
  bool is_null() const { return kind_ == kind::null; }
  bool is_bool() const { return kind_ == kind::boolean; }
  bool is_number() const { return kind_ == kind::number; }
  bool is_string() const { return kind_ == kind::string; }
  bool is_array() const { return kind_ == kind::array; }
  bool is_object() const { return kind_ == kind::object; }

  bool as_bool() const { return bool_; }
  double as_double() const { return num_; }
  std::int64_t as_int64() const { return static_cast<std::int64_t>(num_); }
  std::uint64_t as_uint64() const { return static_cast<std::uint64_t>(num_); }
  const std::string& as_string() const { return str_; }

  /// Array access.
  void push_back(json_value v) { items_.push_back(std::move(v)); }
  std::size_t size() const { return items_.size(); }
  const json_value& at(std::size_t i) const { return items_[i]; }
  const std::vector<json_value>& items() const { return items_; }

  /// Object access: operator[] inserts a null member on first use
  /// (preserving insertion order); find returns nullptr when absent.
  json_value& operator[](std::string_view key);
  const json_value* find(std::string_view key) const;
  const std::vector<std::pair<std::string, json_value>>& members() const {
    return members_;
  }

  /// Deep structural equality (object member *order* is ignored; numbers
  /// compare exactly).
  friend bool operator==(const json_value& a, const json_value& b);

  /// Serializes the value.  indent < 0 emits compact one-line JSON;
  /// indent >= 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = -1) const;

  /// Parses a complete JSON document (trailing non-whitespace is an
  /// error).  Returns nullopt and fills *error (when non-null) with a
  /// position-annotated message on malformed input.
  static std::optional<json_value> parse(std::string_view text,
                                         std::string* error = nullptr);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  kind kind_ = kind::null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<json_value> items_;                             // array
  std::vector<std::pair<std::string, json_value>> members_;   // object
};

/// Appends the RFC 8259 escaping of `s` (quotes included) to `out`.
void append_json_string(std::string& out, std::string_view s);

}  // namespace ssr::obs
