#include "tune/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace cats::tune {

const JsonValue* JsonValue::get(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

std::string JsonValue::get_string(std::string_view key, std::string dflt) const {
  const JsonValue* v = get(key);
  return v && v->kind == Kind::String ? v->str : dflt;
}

double JsonValue::get_number(std::string_view key, double dflt) const {
  const JsonValue* v = get(key);
  return v && v->kind == Kind::Number ? v->number : dflt;
}

bool JsonValue::exact_int(long long lo, long long hi, long long& out) const {
  if (kind != Kind::Number) return false;
  // Written so NaN fails every comparison; the magnitude bound also keeps
  // the conversion below defined.
  if (!(std::fabs(number) <= static_cast<double>(kJsonExactInt)) ||
      number != std::trunc(number)) {
    return false;
  }
  const auto x = static_cast<long long>(number);
  if (x < lo || x > hi) return false;
  out = x;
  return true;
}

namespace {

// Recursive-descent parser over [p, end). Depth-limited so a malicious file
// cannot blow the stack.
struct Parser {
  const char* p;
  const char* end;
  int depth = 0;
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  }

  bool literal(std::string_view lit) {
    if (static_cast<std::size_t>(end - p) < lit.size()) return false;
    if (std::string_view(p, lit.size()) != lit) return false;
    p += lit.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (p >= end || *p != '"') return false;
    ++p;
    out.clear();
    while (p < end && *p != '"') {
      char c = *p++;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (p >= end) return false;
      char e = *p++;
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (end - p < 4) return false;
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p++;
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // UTF-8 encode the BMP code point (surrogate pairs degrade to two
          // 3-byte sequences; the tuning DB only stores ASCII in practice).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: return false;
      }
    }
    if (p >= end) return false;
    ++p;  // closing quote
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (++depth > kMaxDepth) return false;
    skip_ws();
    if (p >= end) return false;
    bool ok = false;
    switch (*p) {
      case '{': ok = parse_object(out); break;
      case '[': ok = parse_array(out); break;
      case '"':
        out.kind = JsonValue::Kind::String;
        ok = parse_string(out.str);
        break;
      case 't':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = true;
        ok = literal("true");
        break;
      case 'f':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = false;
        ok = literal("false");
        break;
      case 'n':
        out.kind = JsonValue::Kind::Null;
        ok = literal("null");
        break;
      default: ok = parse_number(out); break;
    }
    --depth;
    return ok;
  }

  bool parse_number(JsonValue& out) {
    const char* start = p;
    if (p < end && (*p == '-' || *p == '+')) ++p;
    bool digits = false;
    while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) || *p == '.' ||
                       *p == 'e' || *p == 'E' || *p == '-' || *p == '+')) {
      digits = digits || std::isdigit(static_cast<unsigned char>(*p));
      ++p;
    }
    if (!digits) return false;
    out.kind = JsonValue::Kind::Number;
    out.number = std::strtod(std::string(start, p).c_str(), nullptr);
    return true;
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::Array;
    ++p;  // '['
    skip_ws();
    if (p < end && *p == ']') {
      ++p;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!parse_value(v)) return false;
      out.items.push_back(std::move(v));
      skip_ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == ']') {
        ++p;
        return true;
      }
      return false;
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::Object;
    ++p;  // '{'
    skip_ws();
    if (p < end && *p == '}') {
      ++p;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (p >= end || *p != ':') return false;
      ++p;
      JsonValue v;
      if (!parse_value(v)) return false;
      out.members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == '}') {
        ++p;
        return true;
      }
      return false;
    }
  }
};

}  // namespace

bool json_parse(std::string_view text, JsonValue& out) {
  Parser parser{text.data(), text.data() + text.size()};
  if (!parser.parse_value(out)) return false;
  parser.skip_ws();
  return parser.p == parser.end;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_quote(std::string_view s) { return '"' + json_escape(s) + '"'; }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[32];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

}  // namespace cats::tune
