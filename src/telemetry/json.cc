#include "telemetry/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hdov::telemetry {

void AppendJsonString(std::string* out, std::string_view text) {
  out->push_back('"');
  for (char c : text) {
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
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) {
      out_.push_back(',');
    }
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_.push_back('}');
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_.push_back(']');
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  if (!first_.empty()) {
    if (!first_.back()) {
      out_.push_back(',');
    }
    first_.back() = false;
  }
  AppendJsonString(&out_, key);
  out_.push_back(':');
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  AppendJsonString(&out_, value);
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_.append("null");  // JSON has no Inf/NaN.
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  out_.append(buf);
  return *this;
}

JsonWriter& JsonWriter::Number(uint64_t value) {
  BeforeValue();
  out_.append(std::to_string(value));
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_.append(value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_.append("null");
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_.append(json);
  return *this;
}

ChromeTraceWriter::ChromeTraceWriter() {
  w_.BeginObject();
  w_.Key("displayTimeUnit").String("ms");
  w_.Key("traceEvents").BeginArray();
}

void ChromeTraceWriter::ProcessName(uint64_t pid, std::string_view name) {
  Metadata("process_name", pid, nullptr, name);
}

void ChromeTraceWriter::ThreadName(uint64_t pid, uint64_t tid,
                                   std::string_view name) {
  Metadata("thread_name", pid, &tid, name);
}

void ChromeTraceWriter::Metadata(std::string_view kind, uint64_t pid,
                                 const uint64_t* tid, std::string_view name) {
  w_.BeginObject();
  w_.Key("name").String(kind);
  w_.Key("ph").String("M");
  w_.Key("pid").Number(pid);
  if (tid != nullptr) {
    w_.Key("tid").Number(*tid);
  }
  w_.Key("args").BeginObject();
  w_.Key("name").String(name);
  w_.EndObject();
  w_.EndObject();
}

void ChromeTraceWriter::Head(std::string_view name, std::string_view cat,
                             std::string_view ph, uint64_t pid, uint64_t tid,
                             double ts_us) {
  w_.BeginObject();
  w_.Key("name").String(name);
  if (!cat.empty()) {
    w_.Key("cat").String(cat);
  }
  w_.Key("ph").String(ph);
  if (ph == "i") {
    w_.Key("s").String("t");
  }
  w_.Key("pid").Number(pid);
  w_.Key("tid").Number(tid);
  w_.Key("ts").Number(ts_us);
}

void ChromeTraceWriter::Tail(const ArgsFn& args) {
  if (args) {
    w_.Key("args").BeginObject();
    args(w_);
    w_.EndObject();
  }
  w_.EndObject();
}

void ChromeTraceWriter::Complete(std::string_view name, std::string_view cat,
                                 uint64_t pid, uint64_t tid, double ts_us,
                                 double dur_us, const ArgsFn& args) {
  Head(name, cat, "X", pid, tid, ts_us);
  w_.Key("dur").Number(dur_us);
  Tail(args);
}

void ChromeTraceWriter::Event(std::string_view ph, std::string_view name,
                              std::string_view cat, uint64_t pid,
                              uint64_t tid, double ts_us,
                              const ArgsFn& args) {
  Head(name, cat, ph, pid, tid, ts_us);
  Tail(args);
}

std::string ChromeTraceWriter::Finish() {
  w_.EndArray();
  w_.EndObject();
  return w_.TakeString();
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : members) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    HDOV_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("json: " + message + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
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

  Status Expect(char c) {
    if (!Consume(c)) {
      return Error(std::string("expected '") + c + "'");
    }
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return Error("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string);
      case 't':
        return ParseLiteral("true", [out] {
          out->type = JsonValue::Type::kBool;
          out->boolean = true;
        });
      case 'f':
        return ParseLiteral("false", [out] {
          out->type = JsonValue::Type::kBool;
          out->boolean = false;
        });
      case 'n':
        return ParseLiteral("null",
                            [out] { out->type = JsonValue::Type::kNull; });
      default:
        return ParseNumber(out);
    }
  }

  template <typename Fn>
  Status ParseLiteral(std::string_view literal, Fn apply) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Error("invalid literal");
    }
    pos_ += literal.size();
    apply();
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("invalid value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Error("invalid number");
    }
    out->type = JsonValue::Type::kNumber;
    out->number = value;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    HDOV_RETURN_IF_ERROR(Expect('"'));
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return Status::OK();
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
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
          if (pos_ + 4 > text_.size()) {
            return Error("truncated unicode escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid unicode escape");
            }
          }
          // Telemetry output only escapes control characters; encode the
          // code point as UTF-8 (surrogate pairs are not needed here).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseObject(JsonValue* out, int depth) {
    HDOV_RETURN_IF_ERROR(Expect('{'));
    out->type = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) {
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      HDOV_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      HDOV_RETURN_IF_ERROR(Expect(':'));
      JsonValue value;
      HDOV_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      return Expect('}');
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    HDOV_RETURN_IF_ERROR(Expect('['));
    out->type = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) {
      return Status::OK();
    }
    while (true) {
      JsonValue value;
      HDOV_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->items.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      return Expect(']');
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace hdov::telemetry
