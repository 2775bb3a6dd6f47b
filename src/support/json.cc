#include "support/json.h"

#include <charconv>
#include <climits>
#include <cstdio>

#include "support/check.h"

namespace chimera::json {

namespace {

/// Recursive descent over the RFC 8259 grammar. Nesting is bounded so a
/// hostile document cannot overflow the stack.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Value parse() {
    Value v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after the document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < pos_; ++i) {
      column = text_[i] == '\n' ? 1 : column + 1;
      line += text_[i] == '\n';
    }
    throw CheckError("JSON parse error at line " + std::to_string(line) +
                     ", column " + std::to_string(column) + ": " + msg);
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  bool at_digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ == text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  Value value(int depth) {
    if (depth > kMaxDepth)
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    const char c = peek();
    Value v;
    if (c == '{') {
      v.type = Value::Type::kObject;
      ++pos_;
      if (consume('}')) return v;
      do {
        if (peek() != '"') fail("expected a string key");
        std::string key = string_body();
        for (const auto& [k, unused] : v.object)
          if (k == key) fail("duplicate key \"" + key + '"');
        expect(':');
        v.object.emplace_back(std::move(key), value(depth + 1));
      } while (consume(','));
      expect('}');
    } else if (c == '[') {
      v.type = Value::Type::kArray;
      ++pos_;
      if (consume(']')) return v;
      do v.array.push_back(value(depth + 1));
      while (consume(','));
      expect(']');
    } else if (c == '"') {
      v.type = Value::Type::kString;
      v.string = string_body();
    } else if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else if (c == '-' || at_digit()) {
      v = number();
    } else {
      fail(std::string("unexpected character '") + c + "'");
    }
    return v;
  }

  /// The writer only \u-escapes control characters, so decoding stops at
  /// ASCII rather than carrying a UTF-8 encoder no document needs.
  std::string string_body() {
    ++pos_;  // the opening quote
    std::string out;
    while (!at('"')) {
      if (pos_ == text_.size()) fail("unterminated string");
      if (static_cast<unsigned char>(text_[pos_]) < 0x20)
        fail("unescaped control character in string");
      const char c = text_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ == text_.size()) fail("unterminated string");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          const char* hex = text_.data() + pos_;
          if (text_.size() - pos_ < 4 ||
              std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4)
            fail("\\u takes exactly four hex digits");
          if (code >= 0x80) fail("only ASCII \\u escapes are supported");
          out += static_cast<char>(code);
          pos_ += 4;
          break;
        }
        default:
          --pos_;
          fail(std::string("unknown escape '\\") + e + "'");
      }
    }
    ++pos_;  // the closing quote
    return out;
  }

  Value number() {
    const std::size_t start = pos_;
    auto digits = [&] {
      if (!at_digit()) fail("expected a digit");
      while (at_digit()) ++pos_;
    };
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;
      if (at_digit()) fail("leading zero in a number");
    } else {
      digits();
    }
    bool integral = true;
    if (at('.')) {
      ++pos_;
      digits();
      integral = false;
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      digits();
      integral = false;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    Value v;
    v.type = Value::Type::kNumber;
    v.is_integer = integral;
    const bool ok = std::from_chars(first, last, v.number).ec == std::errc() &&
                    (!integral || std::from_chars(first, last, v.integer).ec ==
                                      std::errc());
    if (!ok) {
      pos_ = start;
      fail(integral ? "integer out of int64 range" : "number out of range");
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return JsonParser(text).parse(); }

const std::vector<Value>& as_array(const Value& v, const std::string& what) {
  CHIMERA_CHECK_MSG(v.type == Value::Type::kArray,
                    what << ": expected an array");
  return v.array;
}

std::int64_t as_int64(const Value& v, const std::string& what) {
  CHIMERA_CHECK_MSG(v.type == Value::Type::kNumber && v.is_integer,
                    what << ": expected an integer");
  return v.integer;
}

int as_int(const Value& v, const std::string& what) {
  const std::int64_t i = as_int64(v, what);
  CHIMERA_CHECK_MSG(i >= INT_MIN && i <= INT_MAX,
                    what << ": " << i << " is out of int range");
  return static_cast<int>(i);
}

ObjectReader::ObjectReader(const Value& v, std::string what)
    : v_(v), what_(std::move(what)) {
  CHIMERA_CHECK_MSG(v.type == Value::Type::kObject,
                    what_ << ": expected an object");
  seen_.assign(v.object.size(), false);
}

const Value* ObjectReader::get_optional(const std::string& key) {
  for (std::size_t i = 0; i < v_.object.size(); ++i)
    if (v_.object[i].first == key) {
      seen_[i] = true;
      return &v_.object[i].second;
    }
  return nullptr;
}

const Value& ObjectReader::get(const std::string& key) {
  const Value* v = get_optional(key);
  CHIMERA_CHECK_MSG(v != nullptr, what_ << ": missing key \"" << key << '"');
  return *v;
}

const Value& ObjectReader::typed(const std::string& key, Value::Type type) {
  static const char* const kNames[] = {"an object", "an array", "a string",
                                       "a number", "a boolean"};
  const Value& v = get(key);
  CHIMERA_CHECK_MSG(v.type == type, path(key) << ": expected "
                                              << kNames[static_cast<int>(type)]);
  return v;
}

void ObjectReader::finish() const {
  for (std::size_t i = 0; i < seen_.size(); ++i)
    CHIMERA_CHECK_MSG(seen_[i], what_ << ": unknown key \""
                                      << v_.object[i].first << '"');
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace chimera::json
