#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ftms {

namespace {
constexpr int kMaxDepth = 64;
}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    JsonValue v;
    Status s = ParseValue(&v, 0);
    if (!s.ok()) return s;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type_ = JsonValue::Type::kString;
        return ParseString(&out->string_);
      case 't':
        if (!ConsumeLiteral("true")) return Error("bad literal");
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = true;
        return Status::Ok();
      case 'f':
        if (!ConsumeLiteral("false")) return Error("bad literal");
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = false;
        return Status::Ok();
      case 'n':
        if (!ConsumeLiteral("null")) return Error("bad literal");
        out->type_ = JsonValue::Type::kNull;
        return Status::Ok();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->type_ = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      if (Status s = ParseString(&key); !s.ok()) return s;
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      if (Status s = ParseValue(&value, depth + 1); !s.ok()) return s;
      out->members_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->type_ = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    while (true) {
      JsonValue value;
      if (Status s = ParseValue(&value, depth + 1); !s.ok()) return s;
      out->items_.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          // BMP-only UTF-8 encoding; surrogate pairs are not produced by
          // any of our writers.
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("bad number");
    out->type_ = JsonValue::Type::kNumber;
    out->number_ = v;
    return Status::Ok();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).Parse();
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void AppendJsonString(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append("\\u00");
          out->push_back(kHex[c >> 4]);
          out->push_back(kHex[c & 0xF]);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonInt(std::string* out, int64_t v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

namespace {

// std::to_chars with an explicit precision prints the same bytes as
// printf's "%.0f" / "%.<digits>g" for a finite value, without the
// format-string parse and locale lookup on every number.
void AppendFiniteNumber(std::string* out, double v, int digits) {
  char buf[64];
  const bool integral = v == std::floor(v) && std::fabs(v) < 1e15;
  const std::to_chars_result r =
      integral ? std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::fixed, 0)
               : std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::general, digits);
  out->append(buf, r.ptr);
}

}  // namespace

void AppendJsonNumber(std::string* out, double v, int digits) {
  if (std::isfinite(v)) {
    AppendFiniteNumber(out, v, digits);
  } else {
    out->append("null");
  }
}

void AppendTextNumber(std::string* out, double v, int digits) {
  if (std::isfinite(v)) {
    AppendFiniteNumber(out, v, digits);
  } else {
    out->append(std::isnan(v) ? "NaN" : (v > 0 ? "+Inf" : "-Inf"));
  }
}

Status WriteTextFile(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Unavailable("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  if (std::fclose(f) != 0 || written != text.size()) {
    return Status::Unavailable("short write to " + path);
  }
  return Status::Ok();
}

}  // namespace ftms
