#ifndef BATI_COMMON_RECORD_FILE_H_
#define BATI_COMMON_RECORD_FILE_H_

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace bati {

// The one durable-file format for everything bati reads back (the what-if
// checkpoint, the serve checkpoint, the fleet state file):
//
//   <magic>                      "<name> v<version>", e.g. "bati-serve v3"
//   checksum <crc32> <bytes>     CRC-32 (Crc32Hex) and length of the body
//   <body>                       the format's own line-based records
//
// Every truncation and every bit flip is caught by the framing before a
// record parser sees the body. Each format keeps only its record schema;
// the framing, the token helpers and the file I/O live here.

/// Prepends the magic and checksum lines to `body`.
std::string FrameRecordFile(std::string_view magic, std::string_view body);

/// Checks the magic line and the checksum framing of `text` and sets *body
/// to the guarded body (a view into `text`). A file of the same name but
/// another version is an error that names both versions. Errors are
/// InvalidArgument without a prefix; callers add their format's name.
Status UnframeRecordFile(std::string_view text, std::string_view magic,
                         std::string_view* body);

/// Writes `contents` to `path` crash-consistently: the bytes go to a
/// temporary sibling file (`path` + ".tmp") which is flushed, synced, and
/// atomically renamed over `path`, and the directory is synced after the
/// rename. A reader therefore observes either the previous complete file
/// or the new complete file — never a truncated mixture.
Status AtomicWriteFile(const std::string& path, const std::string& contents);

/// Reads a whole file: NotFound when it cannot be opened, Internal on a
/// read error.
StatusOr<std::string> ReadWholeFile(const std::string& path);

/// Line cursor over a record-file body.
class RecordLines {
 public:
  explicit RecordLines(std::string_view body) : rest_(body) {}

  /// The next '\n'-terminated line, without the newline. False at the end
  /// of the body (an unterminated tail is never a line).
  bool Next(std::string_view* line);
  /// The next line split on spaces, true iff it is `keyword` followed by
  /// exactly `count` tokens (toks[0] is the keyword).
  bool Next(std::string_view keyword, size_t count,
            std::vector<std::string_view>* toks);
  /// The next line when it starts with "`keyword` "; *rest is what
  /// follows (it may hold spaces).
  bool NextRest(std::string_view keyword, std::string_view* rest);
  bool AtEnd() const { return rest_.empty(); }

 private:
  std::string_view rest_;
};

/// Splits on runs of spaces; no empty tokens.
std::vector<std::string_view> SplitTokens(std::string_view line);

/// Strict decimal integer token: optional '-' (signed types only), digits,
/// nothing else, and in range for T.
template <typename T>
bool ParseInteger(std::string_view token, T* out) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (token.empty() || ec != std::errc() ||
      ptr != token.data() + token.size()) {
    return false;
  }
  *out = value;
  return true;
}

/// Hex-float doubles ("%a"): the text form round-trips every finite double
/// bit-exactly, which resume-to-identical-state requires. The parser takes
/// only what the writer emits — an optional '-', "0x", hex digits — and
/// rejects nan and inf.
void AppendHexDouble(std::string* out, double value);
bool ParseHexDouble(std::string_view token, double* out);

}  // namespace bati

#endif  // BATI_COMMON_RECORD_FILE_H_
