#include "trace/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace iph::trace {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no inf/nan; reports never emit them anyway
    return;
  }
  // Integers (the common case: step/work counters) print without a
  // fraction; doubles keep enough digits to round-trip. to_chars with a
  // precision is defined as printf's %.0f / %.17g, byte for byte.
  char buf[32];
  const bool integral =
      d == std::floor(d) && std::fabs(d) < 9.007199254740992e15;
  const std::to_chars_result r =
      integral ? std::to_chars(buf, buf + sizeof buf, d,
                               std::chars_format::fixed, 0)
               : std::to_chars(buf, buf + sizeof buf, d,
                               std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

/// One past the digits starting at p (p itself when there are none).
const char* digits_end(const char* p, const char* end) noexcept {
  while (p != end && is_digit(*p)) ++p;
  return p;
}

/// The end of the JSON number that starts at p, or null when none does.
const char* number_end(const char* p, const char* end) noexcept {
  if (p != end && *p == '-') ++p;
  if (p == end || !is_digit(*p)) return nullptr;
  p = *p == '0' ? p + 1 : digits_end(p, end);
  if (p != end && *p == '.') {
    const char* f = digits_end(p + 1, end);
    if (f == p + 1) return p;  // "1." is the number 1, then a '.'
    p = f;
  }
  if (p != end && (*p == 'e' || *p == 'E')) {
    const char* x = p + 1;
    if (x != end && (*x == '+' || *x == '-')) ++x;
    const char* f = digits_end(x, end);
    if (f != x) p = f;
  }
  return p;
}

}  // namespace

bool JsonReader::number(double* out) {
  skip_ws();
  const char* b = t_.data() + i_;
  const char* e = number_end(b, t_.data() + t_.size());
  if (e == nullptr) return false;
  if (out != nullptr &&
      std::from_chars(b, e, *out).ec != std::errc{}) {
    // Out of range: strtod gives +-inf above it (for the caller's range
    // and finiteness checks to refuse) and the rounded subnormal or
    // zero below.
    *out = std::strtod(std::string(b, e).c_str(), nullptr);
  }
  i_ += static_cast<std::size_t>(e - b);
  return true;
}

bool JsonReader::fail(const char* msg) {
  err_ = std::string(msg) + " at byte " + std::to_string(i_);
  return false;
}

bool JsonReader::end() {
  skip_ws();
  return i_ == t_.size() || fail("trailing data");
}

bool JsonReader::string(std::string* out) {
  if (!consume('"')) return fail("expected string");
  out->clear();
  while (i_ < t_.size()) {
    char c = t_[i_++];
    if (c == '"') return true;
    if (c == '\\') {
      if (i_ >= t_.size()) return fail("bad escape");
      char e = t_[i_++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'u': {
          if (i_ + 4 > t_.size()) return fail("bad \\u escape");
          unsigned v = 0;
          for (int k = 0; k < 4; ++k) {
            char h = t_[i_++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad hex digit");
          }
          // Only BMP escapes are produced by our writer; encode UTF-8.
          if (v < 0x80) {
            *out += static_cast<char>(v);
          } else if (v < 0x800) {
            *out += static_cast<char>(0xC0 | (v >> 6));
            *out += static_cast<char>(0x80 | (v & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (v >> 12));
            *out += static_cast<char>(0x80 | ((v >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (v & 0x3F));
          }
          break;
        }
        default:
          return fail("bad escape");
      }
    } else {
      *out += c;
    }
  }
  return fail("unterminated string");
}

bool JsonReader::value(Json* out, int depth) {
  skip_ws();
  if (i_ >= t_.size()) return fail("unexpected end");
  char c = t_[i_];
  if ((c == '{' || c == '[') && depth >= kMaxDepth) {
    return fail("nesting too deep");
  }
  if (c == '{') {
    ++i_;
    *out = Json::object();
    if (consume('}')) return true;
    for (;;) {
      std::string key;
      if (!string(&key)) return false;
      if (!consume(':')) return fail("expected ':'");
      Json v;
      if (!value(&v, depth + 1)) return false;
      (*out)[key] = std::move(v);
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }
  if (c == '[') {
    ++i_;
    *out = Json::array();
    if (consume(']')) return true;
    for (;;) {
      Json v;
      if (!value(&v, depth + 1)) return false;
      out->push_back(std::move(v));
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }
  if (c == '"') {
    std::string s;
    if (!string(&s)) return false;
    *out = Json(std::move(s));
    return true;
  }
  if (t_.compare(i_, 4, "true") == 0) {
    i_ += 4;
    *out = Json(true);
    return true;
  }
  if (t_.compare(i_, 5, "false") == 0) {
    i_ += 5;
    *out = Json(false);
    return true;
  }
  if (t_.compare(i_, 4, "null") == 0) {
    i_ += 4;
    *out = Json();
    return true;
  }
  double d = 0;
  if (!number(&d)) return fail("expected value");
  *out = Json(d);
  return true;
}

Json& Json::operator[](std::string_view key) {
  kind_ = Kind::kObject;
  for (auto& [k, v] : obj_) {
    if (k == key) return v;
  }
  obj_.emplace_back(std::string(key), Json());
  return obj_.back().second;
}

const Json* Json::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Json::get_num(std::string_view key, double dflt) const noexcept {
  const Json* j = find(key);
  return (j != nullptr && j->is_number()) ? j->num_ : dflt;
}

std::string Json::get_str(std::string_view key, std::string dflt) const {
  const Json* j = find(key);
  return (j != nullptr && j->is_string()) ? j->str_ : dflt;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      append_number(out, num_);
      break;
    case Kind::kString:
      append_escaped(out, str_);
      break;
    case Kind::kArray: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        append_escaped(out, k);
        out += indent > 0 ? ": " : ":";
        v.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

bool Json::erase(std::string_view key) {
  for (auto it = obj_.begin(); it != obj_.end(); ++it) {
    if (it->first == key) {
      obj_.erase(it);
      return true;
    }
  }
  return false;
}

bool Json::parse(std::string_view text, Json* out, std::string* err) {
  JsonReader r(text);
  if (r.value(out) && r.end()) return true;
  if (err != nullptr) *err = r.error();
  return false;
}

}  // namespace iph::trace
