// The one JSON layer under every document the library reads or writes:
// plan interchange (core/plan_json.h), traces (obs/trace_json.h) and the
// bench records (bench/bench_common.h) are schema layers on top of it.
//
// parse() is strict RFC 8259, minus `null` and non-ASCII `\u` escapes,
// which no schema writes: no leading '+' or zeros, four hex digits per
// `\u`, no raw control characters, duplicate keys or trailing garbage.
// Every failure throws CheckError naming its line and column.
//
// ObjectReader is the schema side: each get_* consumes one key, finish()
// rejects every key left over, and an integer that does not fit its field
// is an error, never narrowed. The writer is escape() and number().
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace chimera::json {

struct Value {
  enum class Type { kObject, kArray, kString, kNumber, kBool };
  Type type = Type::kBool;
  std::vector<std::pair<std::string, Value>> object;  ///< in document order
  std::vector<Value> array;
  std::string string;
  double number = 0.0;
  std::int64_t integer = 0;  ///< exact value when is_integer
  bool is_integer = false;   ///< lexed without '.', 'e' or 'E'
  bool boolean = false;
};

/// Parses one complete document.
Value parse(const std::string& text);

/// The array, or the exact integer, a value holds; `what` names the value
/// in the error message when it holds something else.
const std::vector<Value>& as_array(const Value& v, const std::string& what);
std::int64_t as_int64(const Value& v, const std::string& what);
int as_int(const Value& v, const std::string& what);  ///< range-checked

class ObjectReader {
 public:
  ObjectReader(const Value& v, std::string what);

  const Value& get(const std::string& key);
  const Value* get_optional(const std::string& key);  ///< nullptr if absent

  const std::vector<Value>& get_array(const std::string& key) {
    return as_array(get(key), path(key));
  }
  std::string get_string(const std::string& key) {
    return typed(key, Value::Type::kString).string;
  }
  bool get_bool(const std::string& key) {
    return typed(key, Value::Type::kBool).boolean;
  }
  double get_double(const std::string& key) {
    return typed(key, Value::Type::kNumber).number;
  }
  std::int64_t get_int64(const std::string& key) {
    return as_int64(get(key), path(key));
  }
  int get_int(const std::string& key) { return as_int(get(key), path(key)); }

  /// Rejects every key no get_* consumed.
  void finish() const;

 private:
  const Value& typed(const std::string& key, Value::Type type);
  std::string path(const std::string& key) const { return what_ + "." + key; }

  const Value& v_;
  std::string what_;
  std::vector<bool> seen_;
};

/// A string body with quotes, backslashes and control characters escaped
/// (no surrounding quotes).
std::string escape(const std::string& s);

/// %.17g, the printf form that round-trips every double bitwise.
std::string number(double v);

}  // namespace chimera::json
