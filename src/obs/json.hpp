// The JSON the observability layer reads and writes (summary files in
// obs/export.cpp, stream records in obs/stream.cpp and the step records of
// analysis/insitu_stats.cpp): one number format,
// one string escape, and a minimal recursive-descent reader — just enough
// for their schemas: objects, arrays, strings, numbers, and skippable
// nested values. Not a general-purpose JSON library; malformed input
// throws std::runtime_error.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

namespace tess::obs::detail {

/// `v` as a JSON number, to nine significant digits ("%.9g").
inline std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// `s` escaped for the inside of a JSON string (no surrounding quotes):
/// `"` and `\` backslashed, \n and \t by name, other control characters
/// as \u00XX, so JsonReader::string() gives back the original bytes.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

class JsonReader {
 public:
  explicit JsonReader(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}
  JsonReader(const char* begin, const char* end) : p_(begin), end_(end) {}

  /// Parse `[ <value>, ... ]`, calling on_elem() positioned at each
  /// element; the callback must consume exactly that value.
  template <class F>
  void array(F&& on_elem) {
    expect('[');
    ws();
    if (eat(']')) return;
    while (true) {
      on_elem();
      ws();
      if (eat(',')) {
        ws();
        continue;
      }
      expect(']');
      return;
    }
  }

  /// Parse `{ "key": <value>, ... }`, calling on_key(key) positioned at
  /// each value; the callback must consume exactly that value.
  template <class F>
  void object(F&& on_key) {
    expect('{');
    ws();
    if (eat('}')) return;
    while (true) {
      const std::string key = string();
      expect(':');
      on_key(key);
      ws();
      if (eat(',')) {
        ws();
        continue;
      }
      expect('}');
      return;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (p_ < end_ && *p_ != '"') {
      char c = *p_++;
      if (c == '\\' && p_ < end_) {
        c = *p_++;
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // Exported names are ASCII; decode the low byte, else '?'.
            if (end_ - p_ < 4) fail("truncated \\u escape");
            const unsigned v = static_cast<unsigned>(
                std::strtoul(std::string(p_, p_ + 4).c_str(), nullptr, 16));
            p_ += 4;
            c = v < 0x80 ? static_cast<char>(v) : '?';
            break;
          }
          default: break;  // \" \\ \/ decode to themselves
        }
      }
      out += c;
    }
    expect('"');
    return out;
  }

  double number() {
    ws();
    char* after = nullptr;
    const double v = std::strtod(p_, &after);
    if (after == p_) fail("expected number");
    p_ = after;
    return v;
  }

  /// True when the next value (after whitespace) opens an object.
  [[nodiscard]] bool peek_object() {
    ws();
    return p_ < end_ && *p_ == '{';
  }
  /// True when the next value (after whitespace) is a number.
  [[nodiscard]] bool peek_number() {
    ws();
    return p_ < end_ && (*p_ == '-' || (*p_ >= '0' && *p_ <= '9'));
  }

  void skip_value() {
    ws();
    if (p_ >= end_) fail("unexpected end of input");
    switch (*p_) {
      case '{':
        object([this](const std::string&) { skip_value(); });
        break;
      case '[': {
        ++p_;
        ws();
        if (eat(']')) return;
        while (true) {
          skip_value();
          ws();
          if (eat(',')) continue;
          expect(']');
          return;
        }
      }
      case '"': (void)string(); break;
      case 't': literal("true"); break;
      case 'f': literal("false"); break;
      case 'n': literal("null"); break;
      default: (void)number();
    }
  }

  /// True when only whitespace remains.
  [[nodiscard]] bool at_end() {
    ws();
    return p_ >= end_;
  }

 private:
  void ws() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\n' || *p_ == '\t' || *p_ == '\r'))
      ++p_;
  }
  bool eat(char c) {
    ws();
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail("unexpected token");
  }
  void literal(const char* word) {
    for (const char* w = word; *w != '\0'; ++w)
      if (p_ >= end_ || *p_++ != *w) fail("bad literal");
  }
  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error(std::string("json: ") + what);
  }

  const char* p_;
  const char* end_;
};

}  // namespace tess::obs::detail
