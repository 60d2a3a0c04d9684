#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace bati {

namespace {

/// Nesting bound for SkipValue, so hostile input cannot exhaust the stack.
constexpr int kMaxDepth = 64;

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Characters that may not directly follow a number or a literal: they
/// would make "0x10", "1.2.3" or "truex" look like a value plus junk.
bool ContinuesToken(char c) {
  return IsDigit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         c == '.' || c == '+' || c == '-' || c == '_';
}

/// The escapes JSON strings take besides \u, and what they stand for.
constexpr std::string_view kEscapes = "\"\\/bfnrt";
constexpr std::string_view kEscaped = "\"\\/\b\f\n\r\t";

Status KeyError(std::string_view key, const char* what) {
  std::string message = "\"";
  message.append(key);
  message.append("\" ");
  message.append(what);
  return Status::InvalidArgument(std::move(message));
}

}  // namespace

void JsonReader::SkipSpace() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                 text_[pos_] == '\n' || text_[pos_] == '\r')) {
    ++pos_;
  }
}

Status JsonReader::Error(std::string_view what) const {
  std::string message(what);
  message.append(" at position ");
  message.append(std::to_string(pos_));
  return Status::InvalidArgument(std::move(message));
}

Status JsonReader::BeginObject(std::string_view what) {
  SkipSpace();
  if (pos_ >= text_.size() || text_[pos_] != '{') {
    std::string message(what);
    message.append(" must be a JSON object");
    return Status::InvalidArgument(std::move(message));
  }
  ++pos_;
  first_ = true;
  return Status::Ok();
}

Status JsonReader::BeginArray() {
  SkipSpace();
  if (pos_ >= text_.size() || text_[pos_] != '[') {
    return Error("expected '['");
  }
  ++pos_;
  first_ = true;
  return Status::Ok();
}

Status JsonReader::NextKey(bool* more, std::string_view* key) {
  SkipSpace();
  if (pos_ < text_.size() && text_[pos_] == '}') {
    ++pos_;
    first_ = false;
    *more = false;
    return Status::Ok();
  }
  if (!first_) {
    if (pos_ >= text_.size() || text_[pos_] != ',') {
      return Error("expected ',' or '}'");
    }
    ++pos_;
    SkipSpace();
  }
  first_ = false;
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Error("expected '\"'");
  }
  // Keys are views into the text unless they hold escapes.
  const size_t start = pos_ + 1;
  Status st = ScanString(nullptr);
  if (!st.ok()) return st;
  *key = text_.substr(start, pos_ - 1 - start);
  if (key->find('\\') != std::string_view::npos) {
    pos_ = start - 1;
    key_.clear();
    st = ScanString(&key_);
    if (!st.ok()) return st;
    *key = key_;
  }
  SkipSpace();
  if (pos_ >= text_.size() || text_[pos_] != ':') {
    std::string message = "expected ':' after \"";
    message.append(*key);
    message.push_back('"');
    return Status::InvalidArgument(std::move(message));
  }
  ++pos_;
  SkipSpace();
  *more = true;
  return Status::Ok();
}

Status JsonReader::NextElement(bool* more) {
  SkipSpace();
  if (pos_ < text_.size() && text_[pos_] == ']') {
    ++pos_;
    first_ = false;
    *more = false;
    return Status::Ok();
  }
  if (!first_) {
    if (pos_ >= text_.size() || text_[pos_] != ',') {
      return Error("expected ',' or ']'");
    }
    ++pos_;
  }
  first_ = false;
  *more = true;
  return Status::Ok();
}

bool JsonReader::AtContainer() {
  SkipSpace();
  return pos_ < text_.size() && (text_[pos_] == '{' || text_[pos_] == '[');
}

Status JsonReader::ScanString(std::string* out) {
  ++pos_;  // the opening quote
  size_t run = pos_;
  while (pos_ < text_.size()) {
    const unsigned char c = static_cast<unsigned char>(text_[pos_]);
    if (c == '"') {
      if (out != nullptr) out->append(text_.data() + run, pos_ - run);
      ++pos_;
      return Status::Ok();
    }
    if (c < 0x20) return Error("control character in string");
    if (c != '\\') {
      ++pos_;
      continue;
    }
    if (out != nullptr) out->append(text_.data() + run, pos_ - run);
    if (++pos_ >= text_.size()) break;
    // \u is refused: no grammar needs it, and the writer never emits it
    // for anything the reader can produce.
    const char esc = text_[pos_++];
    const size_t which = kEscapes.find(esc);
    if (which == std::string_view::npos) {
      return Status::InvalidArgument(
          std::string("unsupported escape '\\") + esc + "' in string");
    }
    if (out != nullptr) out->push_back(kEscaped[which]);
    run = pos_;
  }
  return Status::InvalidArgument("unterminated string");
}

Status JsonReader::ScanNumber() {
  const size_t start = pos_;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  auto digits = [this]() {
    const size_t from = pos_;
    while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    return pos_ > from;
  };
  bool ok = true;
  if (pos_ < text_.size() && text_[pos_] == '0') {
    ++pos_;
  } else {
    ok = digits();
  }
  if (ok && pos_ < text_.size() && text_[pos_] == '.') {
    ++pos_;
    ok = digits();
  }
  if (ok && pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    ok = digits();
  }
  if (!ok || (pos_ < text_.size() && ContinuesToken(text_[pos_]))) {
    pos_ = start;
    return Error("malformed number");
  }
  return Status::Ok();
}

bool JsonReader::ScanLiteral(std::string_view word) {
  if (text_.substr(pos_, word.size()) != word) return false;
  const size_t end = pos_ + word.size();
  if (end < text_.size() && ContinuesToken(text_[end])) return false;
  pos_ = end;
  return true;
}

Status JsonReader::ReadString(std::string_view key, std::string* out) {
  SkipSpace();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return KeyError(key, "must be a string");
  }
  out->clear();
  return ScanString(out);
}

Status JsonReader::NumberToken(std::string_view key, std::string_view* token) {
  SkipSpace();
  if (pos_ >= text_.size() || (text_[pos_] != '-' && !IsDigit(text_[pos_]))) {
    return KeyError(key, "must be a number");
  }
  const size_t start = pos_;
  Status st = ScanNumber();
  *token = text_.substr(start, pos_ - start);
  return st;
}

Status JsonReader::ReadNumber(std::string_view key, double min, double max,
                              double* out) {
  std::string_view token;
  Status st = NumberToken(key, &token);
  if (!st.ok()) return st;
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || value < min || value > max) {
    return KeyError(key, "out of range");
  }
  *out = value;
  return Status::Ok();
}

Status JsonReader::ReadInt(std::string_view key, int64_t min, int64_t max,
                           int64_t* out) {
  std::string_view token;
  Status st = NumberToken(key, &token);
  if (!st.ok()) return st;
  const char* end = token.data() + token.size();
  int64_t value = 0;
  if (token.find_first_of(".eE") == std::string_view::npos) {
    // A plain integer literal converts exactly or not at all.
    if (std::from_chars(token.data(), end, value).ec != std::errc()) {
      return KeyError(key, "out of range");
    }
  } else {
    double real = 0.0;
    if (std::from_chars(token.data(), end, real).ec != std::errc()) {
      return KeyError(key, "out of range");
    }
    if (std::trunc(real) != real) return KeyError(key, "must be an integer");
    // Checked before the cast: converting an out-of-range double to an
    // integer is undefined behaviour.
    if (!(real >= -9.2e18 && real <= 9.2e18)) {
      return KeyError(key, "out of range");
    }
    value = static_cast<int64_t>(real);
  }
  if (value < min || value > max) return KeyError(key, "out of range");
  *out = value;
  return Status::Ok();
}

Status JsonReader::ReadBool(std::string_view key, bool* out) {
  SkipSpace();
  if (ScanLiteral("true")) {
    *out = true;
  } else if (ScanLiteral("false")) {
    *out = false;
  } else {
    return KeyError(key, "must be true or false");
  }
  return Status::Ok();
}

Status JsonReader::SkipValue() { return Skip(0); }

Status JsonReader::Skip(int depth) {
  SkipSpace();
  if (pos_ >= text_.size()) return Error("missing value");
  const char c = text_[pos_];
  if (c == '{' || c == '[') {
    if (depth >= kMaxDepth) return Error("nesting too deep");
    Status st = c == '{' ? BeginObject("value") : BeginArray();
    bool more = true;
    std::string_view key;
    while (st.ok() && more) {
      st = c == '{' ? NextKey(&more, &key) : NextElement(&more);
      if (st.ok() && more) st = Skip(depth + 1);
    }
    return st;
  }
  if (c == '"') return ScanString(nullptr);
  if (c == '-' || IsDigit(c)) return ScanNumber();
  if (ScanLiteral("true") || ScanLiteral("false") || ScanLiteral("null")) {
    return Status::Ok();
  }
  return Error("expected a string, number, true, false or null");
}

Status JsonReader::ExpectEnd() {
  SkipSpace();
  if (pos_ != text_.size()) {
    return Status::InvalidArgument("trailing characters after object");
  }
  return Status::Ok();
}

void AppendJsonEscaped(std::string* out, std::string_view text) {
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c != '"' && c != '\\' && c >= 0x20) continue;
    out->append(text.data() + run, i - run);
    run = i + 1;
    const size_t which = kEscaped.find(static_cast<char>(c));
    if (which != std::string_view::npos) {
      out->push_back('\\');
      out->push_back(kEscapes[which]);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    }
  }
  out->append(text.data() + run, text.size() - run);
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendJsonEscaped(&out, text);
  return out;
}

void JsonWriter::Key(std::string_view key) {
  if (out_.size() > 1) out_.push_back(',');
  out_.push_back('"');
  AppendJsonEscaped(&out_, key);
  out_.append("\":");
}

JsonWriter& JsonWriter::String(std::string_view key, std::string_view value) {
  Key(key);
  out_.push_back('"');
  AppendJsonEscaped(&out_, value);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Int(std::string_view key, int64_t value) {
  Key(key);
  out_.append(std::to_string(value));
  return *this;
}

JsonWriter& JsonWriter::Double(std::string_view key, double value) {
  Key(key);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_.append(buf);
  return *this;
}

JsonWriter& JsonWriter::Bool(std::string_view key, bool value) {
  Key(key);
  out_.append(value ? "true" : "false");
  return *this;
}

std::string JsonWriter::Finish() {
  out_.push_back('}');
  return std::move(out_);
}

}  // namespace bati
