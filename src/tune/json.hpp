#pragma once
// Minimal JSON reader/writer.
//
// The serve protocol, the bench --json emitter and the benchmark's reports
// need a dependency-free round-trip format. This is deliberately a small,
// tolerant subset parser: objects, arrays, strings (with \" \\ \/ \b \f \n
// \r \t \uXXXX escapes), numbers, true/false/null. Parse failures return
// false instead of throwing — a malformed request or file must never take
// down a process.

#include <concepts>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cats::tune {

/// Largest magnitude up to which a double — the parser's number type —
/// holds every integer exactly (2^53 - 1).
inline constexpr long long kJsonExactInt = (1LL << 53) - 1;

/// Default range of a checked integer read into T: T's own range, capped at
/// +-kJsonExactInt.
template <std::integral T>
inline constexpr long long json_int_lo =
    std::cmp_less(std::numeric_limits<T>::min(), -kJsonExactInt)
        ? -kJsonExactInt
        : static_cast<long long>(std::numeric_limits<T>::min());
template <std::integral T>
inline constexpr long long json_int_hi =
    std::cmp_greater(std::numeric_limits<T>::max(), kJsonExactInt)
        ? kJsonExactInt
        : static_cast<long long>(std::numeric_limits<T>::max());

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;                            // Kind::Array
  std::vector<std::pair<std::string, JsonValue>> members;  // Kind::Object

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* get(std::string_view key) const;

  /// Typed convenience getters with defaults (never throw).
  std::string get_string(std::string_view key, std::string dflt = {}) const;
  double get_number(std::string_view key, double dflt = 0.0) const;

  /// Checked integer member read. An absent member leaves `out` (the
  /// caller's default) untouched and succeeds. A present one must be a
  /// finite, integral Number within [lo, hi] (default: T's range, capped at
  /// +-kJsonExactInt); anything else fails and leaves `out` untouched, so a
  /// value is never truncated, rounded or wrapped into range.
  template <std::integral T>
  bool get_int(std::string_view key, T& out, long long lo = json_int_lo<T>,
               long long hi = json_int_hi<T>) const {
    const JsonValue* v = get(key);
    if (v == nullptr) return true;
    long long x = 0;
    if (!v->exact_int(lo, hi, x)) return false;
    out = static_cast<T>(x);
    return true;
  }

  /// This value as an integer: true (and `out` set) only for a finite,
  /// integral Number within [lo, hi] and within +-kJsonExactInt.
  bool exact_int(long long lo, long long hi, long long& out) const;
};

/// Parse a complete JSON document. Returns false (out untouched beyond
/// partial state) on any syntax error or trailing garbage.
bool json_parse(std::string_view text, JsonValue& out);

/// Escape a string's content for embedding between double quotes.
std::string json_escape(std::string_view s);

/// `"s"` with escaping.
std::string json_quote(std::string_view s);

/// Shortest round-trip representation of a double (handles NaN/inf as null,
/// which JSON cannot represent).
std::string json_number(double v);

}  // namespace cats::tune
