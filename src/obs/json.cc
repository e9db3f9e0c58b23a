#include "obs/json.h"

#include <cerrno>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace nwd {
namespace obs {
namespace json {

void WriteString(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

const Value* Value::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

constexpr int kMaxDepth = 128;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  ParseResult Run() {
    ParseResult result;
    SkipWhitespace();
    if (!ParseValue(&result.value, 0)) {
      return Fail(result);
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      error_ = "trailing content after JSON document";
      return Fail(result);
    }
    result.ok = true;
    return result;
  }

 private:
  ParseResult Fail(ParseResult result) {
    result.ok = false;
    result.error_offset = pos_;
    char buf[32];
    std::snprintf(buf, sizeof(buf), " at byte %zu", pos_);
    result.error = (error_.empty() ? "invalid JSON" : error_) + buf;
    result.value = Value();
    return result;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      error_ = "unrecognized literal";
      return false;
    }
    pos_ += word.size();
    return true;
  }

  bool ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) {
      error_ = "nesting deeper than 128 levels";
      return false;
    }
    if (AtEnd()) {
      error_ = "unexpected end of document";
      return false;
    }
    switch (Peek()) {
      case 'n':
        out->kind = Value::Kind::kNull;
        return Literal("null");
      case 't':
        out->kind = Value::Kind::kBool;
        out->bool_value = true;
        return Literal("true");
      case 'f':
        out->kind = Value::Kind::kBool;
        out->bool_value = false;
        return Literal("false");
      case '"':
        out->kind = Value::Kind::kString;
        return ParseString(&out->string);
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseNumber(Value* out) {
    // Validate the RFC 8259 grammar first; strtod alone accepts hex,
    // "inf", leading '+', etc.
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      pos_ = start;
      error_ = "malformed number";
      return false;
    }
    if (Peek() == '0') {
      ++pos_;
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        error_ = "malformed number: digit required after '.'";
        return false;
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        error_ = "malformed number: digit required in exponent";
        return false;
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      error_ = "malformed number";
      return false;
    }
    // Overflow to +-inf is accepted (errno == ERANGE): the text was
    // valid JSON; the caller sees an out-of-range double.
    out->kind = Value::Kind::kNumber;
    out->number = value;
    return true;
  }

  void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) {
      error_ = "truncated \\u escape";
      return false;
    }
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        error_ = "non-hex digit in \\u escape";
        return false;
      }
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  bool ParseString(std::string* out) {
    out->clear();
    ++pos_;  // opening quote
    while (true) {
      if (AtEnd()) {
        error_ = "unterminated string";
        return false;
      }
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        error_ = "unescaped control character in string";
        return false;
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (AtEnd()) {
        error_ = "unterminated escape";
        return false;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          if (!ParseHex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              error_ = "high surrogate without low surrogate";
              return false;
            }
            pos_ += 2;
            uint32_t low = 0;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              error_ = "invalid low surrogate";
              return false;
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            error_ = "lone low surrogate";
            return false;
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          error_ = "unknown escape character";
          return false;
      }
    }
  }

  bool ParseArray(Value* out, int depth) {
    out->kind = Value::Kind::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Value element;
      if (!ParseValue(&element, depth + 1)) return false;
      out->array.push_back(std::move(element));
      SkipWhitespace();
      if (AtEnd()) {
        error_ = "unterminated array";
        return false;
      }
      if (Peek() == ',') {
        ++pos_;
        SkipWhitespace();
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      error_ = "expected ',' or ']' in array";
      return false;
    }
  }

  bool ParseObject(Value* out, int depth) {
    out->kind = Value::Kind::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') {
        error_ = "expected string key in object";
        return false;
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (AtEnd() || Peek() != ':') {
        error_ = "expected ':' after object key";
        return false;
      }
      ++pos_;
      SkipWhitespace();
      Value value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (AtEnd()) {
        error_ = "unterminated object";
        return false;
      }
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      error_ = "expected ',' or '}' in object";
      return false;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

ParseResult Parse(std::string_view text) { return Parser(text).Run(); }

ParseResult ParseFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ParseResult result;
    result.error = "cannot read '" + path + "'";
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  ParseResult result = Parse(buffer.str());
  if (!result.ok) result.error = path + ": " + result.error;
  return result;
}

}  // namespace json
}  // namespace obs
}  // namespace nwd
