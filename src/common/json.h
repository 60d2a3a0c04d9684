#ifndef BATI_COMMON_JSON_H_
#define BATI_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace bati {

/// Strict pull reader over one JSON text (RFC 8259) — the one JSON parser
/// behind spec lines, serve event lines and trace validation. The caller
/// walks the document: BeginObject, then NextKey until it reports the
/// closing brace, consuming each member's value with one typed Read* call
/// or SkipValue (arrays likewise with BeginArray / NextElement).
///
/// Numbers follow the RFC grammar exactly, so `nan`, `inf`, hex, a leading
/// `+` or `.`, and leading zeros are all rejected; integers must be exact
/// and in range. Strings may not hold raw control characters; the escapes
/// \" \\ \/ \b \f \n \r \t are decoded and `\u` is refused. Errors are
/// InvalidArgument with messages meant for the user ("\"budget\" out of
/// range"). Reading allocates nothing beyond the destination strings.
class JsonReader {
 public:
  /// Reads `text` in place: it must outlive the reader.
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Consumes '{'; anything else is "<what> must be a JSON object".
  Status BeginObject(std::string_view what);
  /// Consumes '['.
  Status BeginArray();

  /// Advances to the next member of the innermost open object: reads its
  /// key (into *key, valid until the next call) and the ':' and sets
  /// *more; or consumes the closing '}' and clears *more.
  Status NextKey(bool* more, std::string_view* key);
  /// Advances to the next element of the innermost open array, or
  /// consumes the closing ']' and clears *more.
  Status NextElement(bool* more);

  /// True when the next value is an object or an array.
  bool AtContainer();

  // Typed reads of the next value; `key` names it in error messages.
  Status ReadString(std::string_view key, std::string* out);
  Status ReadNumber(std::string_view key, double min, double max,
                    double* out);
  /// An integer-valued number ("3", "-2", "1e3") in [min, max].
  Status ReadInt(std::string_view key, int64_t min, int64_t max,
                 int64_t* out);
  Status ReadBool(std::string_view key, bool* out);
  /// Validates and skips any value, nested ones included.
  Status SkipValue();

  /// Only whitespace may follow the document.
  Status ExpectEnd();

 private:
  void SkipSpace();
  Status Error(std::string_view what) const;
  Status ScanString(std::string* out);
  Status ScanNumber();
  /// The next value as a validated number token.
  Status NumberToken(std::string_view key, std::string_view* token);
  bool ScanLiteral(std::string_view word);
  Status Skip(int depth);

  std::string_view text_;
  size_t pos_ = 0;
  /// True right after an opening bracket: the next member or element
  /// takes no leading comma.
  bool first_ = false;
  /// Decoded key storage, used only when a key holds escapes.
  std::string key_;
};

/// Walks one flat JSON object — every member a string, number, boolean or
/// null — calling `on_member(key)` for each in order; the callback consumes
/// the value through `reader`. A nested object or array is rejected, as is
/// anything after the closing brace.
template <typename OnMember>
Status ReadFlatObject(JsonReader* reader, std::string_view what,
                      OnMember&& on_member) {
  Status st = reader->BeginObject(what);
  bool more = true;
  std::string_view key;
  while (st.ok() && (st = reader->NextKey(&more, &key)).ok() && more) {
    if (reader->AtContainer()) {
      return Status::InvalidArgument("nested objects/arrays are not allowed");
    }
    st = on_member(key);
  }
  if (!st.ok()) return st;
  return reader->ExpectEnd();
}

/// Appends `text` escaped for a JSON string body (no quotes): '"', '\' and
/// the control characters with a short escape get a backslash, the other
/// control characters become \u00XX. The result is always one line, and
/// JsonReader decodes it back to `text` whenever `text` came from it.
void AppendJsonEscaped(std::string* out, std::string_view text);
std::string JsonEscape(std::string_view text);

/// Builds one flat JSON object member by member, in call order. Doubles
/// are written with 17 significant digits, so they read back bit-exactly.
class JsonWriter {
 public:
  JsonWriter& String(std::string_view key, std::string_view value);
  JsonWriter& Int(std::string_view key, int64_t value);
  JsonWriter& Double(std::string_view key, double value);
  JsonWriter& Bool(std::string_view key, bool value);
  /// Closes the object and returns it.
  std::string Finish();

 private:
  void Key(std::string_view key);

  std::string out_ = "{";
};

}  // namespace bati

#endif  // BATI_COMMON_JSON_H_
