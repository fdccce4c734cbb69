// Minimal JSON value: ordered objects, arrays, numbers, strings, bools,
// null, with a writer and a recursive-descent parser. This exists so the
// trace/report/claim-fit stack stays dependency-free (no JSON library is
// linked); it supports exactly the subset the subsystem emits — finite
// numbers, UTF-8 strings passed through byte-wise with control
// characters escaped.
//
// Numbers are strict JSON: the parser takes exactly
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? (no hex, no leading
// '+', '0' or '.', no inf/nan) and converts it with std::from_chars; a
// magnitude beyond the double range reads as strtod reads it (1e400 is
// +inf), for the caller's range checks to refuse.
//
// Objects preserve insertion order (reports are diffed as text; key order
// churn would make every diff noise) and key lookup is linear — fine for
// the small objects traces produce.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace iph::trace {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double d) : kind_(Kind::kNumber), num_(d) {}
  Json(std::uint64_t u) : kind_(Kind::kNumber), num_(static_cast<double>(u)) {}
  Json(int i) : kind_(Kind::kNumber), num_(i) {}
  Json(unsigned u) : kind_(Kind::kNumber), num_(u) {}
  Json(long l) : kind_(Kind::kNumber), num_(static_cast<double>(l)) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Json(std::string_view s) : kind_(Kind::kString), str_(s) {}

  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }

  double as_double() const noexcept { return num_; }
  std::uint64_t as_u64() const noexcept {
    return num_ <= 0 ? 0 : static_cast<std::uint64_t>(num_ + 0.5);
  }
  bool as_bool() const noexcept { return bool_; }
  const std::string& as_string() const noexcept { return str_; }

  // --- array ---
  std::size_t size() const noexcept {
    return is_array() ? arr_.size() : (is_object() ? obj_.size() : 0);
  }
  Json& push_back(Json v) {
    kind_ = Kind::kArray;
    arr_.push_back(std::move(v));
    return arr_.back();
  }
  const Json& at(std::size_t i) const { return arr_[i]; }
  const std::vector<Json>& items() const noexcept { return arr_; }

  // --- object ---
  /// Insert-or-find; switches a null value to an object.
  Json& operator[](std::string_view key);
  /// Null-object sentinel when absent (never inserts).
  const Json* find(std::string_view key) const noexcept;
  /// Typed lookups with defaults.
  double get_num(std::string_view key, double dflt = 0) const noexcept;
  std::string get_str(std::string_view key, std::string dflt = "") const;
  const std::vector<std::pair<std::string, Json>>& members() const noexcept {
    return obj_;
  }

  /// Serialize. indent > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

  /// Remove member `key` of an object; false when it has none.
  bool erase(std::string_view key);

  /// Parse `text`; on failure returns false and sets *err (if non-null)
  /// to a message with the byte offset.
  static bool parse(std::string_view text, Json* out, std::string* err);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// A cursor over a JSON text, for a caller that walks a document itself
/// (cluster::decode_envelope reads a line's top-level object member by
/// member). It is the parser behind Json::parse: each call reads one
/// token by parse()'s rules, and a failure records parse()'s text, with
/// the byte offset into the whole text.
class JsonReader {
 public:
  /// Far above the deepest document this repository writes (a bench
  /// report nests 6 levels, a request line 3), far below what the stack
  /// holds.
  static constexpr int kMaxDepth = 256;

  explicit JsonReader(std::string_view text) : t_(text) {}

  std::size_t pos() const noexcept { return i_; }
  void seek(std::size_t pos) noexcept { i_ = pos; }
  /// Why the last call failed.
  const std::string& error() const noexcept { return err_; }

  void skip_ws() noexcept {
    while (i_ < t_.size() && (t_[i_] == ' ' || t_[i_] == '\t' ||
                              t_[i_] == '\n' || t_[i_] == '\r')) {
      ++i_;
    }
  }
  /// Skip whitespace, then take `c` when it is next.
  bool consume(char c) noexcept {
    skip_ws();
    if (i_ < t_.size() && t_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  /// A number, after whitespace (the grammar in the file comment): the
  /// nearest double in *out, or only checked when out is null. False,
  /// recording nothing, when none starts there.
  bool number(double* out);
  /// A string, after whitespace.
  bool string(std::string* out);
  /// Any value, after whitespace, inside `depth` open arrays and objects
  /// (a caller that walks an object's members itself passes 1). Nesting
  /// deeper than kMaxDepth in all is refused ("nesting too deep"), so no
  /// text can exhaust the stack of this recursive reader.
  bool value(Json* out, int depth = 0);
  /// Skip whitespace; false, recording "trailing data", unless the text
  /// ends there.
  bool end();
  /// Record "<msg> at byte <pos>"; returns false.
  bool fail(const char* msg);

 private:
  std::string_view t_;
  std::size_t i_ = 0;
  std::string err_;
};

}  // namespace iph::trace
