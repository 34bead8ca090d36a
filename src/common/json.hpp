// Minimal streaming JSON writer for the run report, the Chrome trace and
// the bench probe files.
//
// The writer owns everything those outputs used to repeat by hand: string
// escaping, number formatting (12 significant digits, like an ostream at
// precision(12); JSON has no NaN or Inf, so non-finite values are written as
// 0) and comma placement between the members of objects and arrays.
// Integers are written exactly. Containers are opened and closed explicitly;
// a `key()` makes the next value or container that object member.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mri {

/// `s` with JSON string escapes applied: quote, backslash, newline and tab
/// get their short forms, every other byte below 0x20 becomes \u00XX.
std::string json_escape(std::string_view s);

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b);
  JsonWriter& value(double v);
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonWriter& value(T v) {
    separate();
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out_.append(buf, res.ptr);
    return *this;
  }

  /// One object member: key(name) then value(v).
  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  const std::string& str() const { return out_; }

 private:
  /// Writes the comma owed before a new element of the open container.
  void separate();

  std::string out_;
  std::vector<bool> first_;  // per open container: nothing written yet
  bool after_key_ = false;
};

}  // namespace mri
