#include "common/record_file.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/crc32.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define BATI_HAVE_FSYNC 1
#endif

namespace bati {

namespace {

#ifdef BATI_HAVE_FSYNC
/// Syncs the directory containing `path`, making the rename itself — not
/// just the file's bytes — durable. Without this, a crash immediately after
/// rename(2) can lose the directory entry: the data blocks are on disk but
/// the name still points at the old file (or nothing).
bool SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = open(dir.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = fsync(fd) == 0;
  close(fd);
  return ok;
}
#endif

}  // namespace

std::string FrameRecordFile(std::string_view magic, std::string_view body) {
  std::string out(magic);
  out.append("\nchecksum ");
  out.append(Crc32Hex(Crc32(body.data(), body.size())));
  out.push_back(' ');
  out.append(std::to_string(body.size()));
  out.push_back('\n');
  out.append(body);
  return out;
}

Status UnframeRecordFile(std::string_view text, std::string_view magic,
                         std::string_view* body) {
  const size_t magic_end = text.find('\n');
  const std::string_view first =
      text.substr(0, magic_end == std::string_view::npos ? 0 : magic_end);
  if (first != magic) {
    // Same format, other version: name the version so the operator knows
    // why a file that looks right is refused.
    const std::string_view name = magic.substr(0, magic.rfind(" v") + 2);
    if (first.size() > name.size() && first.substr(0, name.size()) == name) {
      std::string message = "unsupported version ";
      message.append(first.substr(name.size() - 1, 16));
      message.append(" (this build reads ");
      message.append(magic.substr(name.size() - 1));
      message.append(")");
      return Status::InvalidArgument(std::move(message));
    }
    return Status::InvalidArgument("missing or unsupported header");
  }
  const size_t checksum_end = text.find('\n', magic_end + 1);
  if (checksum_end == std::string_view::npos) {
    return Status::InvalidArgument("truncated before checksum line");
  }
  const std::vector<std::string_view> toks =
      SplitTokens(text.substr(magic_end + 1, checksum_end - magic_end - 1));
  uint32_t declared_crc = 0;
  size_t declared_size = 0;
  if (toks.size() != 3 || toks[0] != "checksum" ||
      !ParseCrc32Hex(toks[1], &declared_crc) ||
      !ParseInteger(toks[2], &declared_size)) {
    return Status::InvalidArgument("bad checksum line");
  }
  *body = text.substr(checksum_end + 1);
  if (body->size() != declared_size) {
    return Status::InvalidArgument(
        "body size mismatch (truncated or padded file)");
  }
  if (Crc32(body->data(), body->size()) != declared_crc) {
    return Status::InvalidArgument("checksum mismatch (corrupted file)");
  }
  return Status::Ok();
}

Status AtomicWriteFile(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::NotFound("cannot open file for write: " + tmp + " (" +
                            std::strerror(errno) + ")");
  }
  bool ok = contents.empty() ||
            std::fwrite(contents.data(), 1, contents.size(), f) ==
                contents.size();
  ok = std::fflush(f) == 0 && ok;
#ifdef BATI_HAVE_FSYNC
  // Make the rename durable: without the fsync a crash shortly after the
  // rename could surface an empty (not merely stale) file on some
  // filesystems.
  ok = fsync(fileno(f)) == 0 && ok;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Internal("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename failed: " + tmp + " -> " + path + " (" +
                            std::strerror(errno) + ")");
  }
#ifdef BATI_HAVE_FSYNC
  if (!SyncParentDir(path)) {
    return Status::Internal("directory fsync failed after rename: " + path);
  }
#endif
  return Status::Ok();
}

StatusOr<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open file: " + path);
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::Internal("error reading file: " + path);
  return text;
}

bool RecordLines::Next(std::string_view* line) {
  const size_t end = rest_.find('\n');
  if (end == std::string_view::npos) return false;
  *line = rest_.substr(0, end);
  rest_.remove_prefix(end + 1);
  return true;
}

bool RecordLines::Next(std::string_view keyword, size_t count,
                       std::vector<std::string_view>* toks) {
  std::string_view line;
  if (!Next(&line)) return false;
  *toks = SplitTokens(line);
  return toks->size() == count + 1 && (*toks)[0] == keyword;
}

bool RecordLines::NextRest(std::string_view keyword, std::string_view* rest) {
  std::string_view line;
  if (!Next(&line) || line.size() <= keyword.size() ||
      line.substr(0, keyword.size()) != keyword ||
      line[keyword.size()] != ' ') {
    return false;
  }
  *rest = line.substr(keyword.size() + 1);
  return true;
}

std::vector<std::string_view> SplitTokens(std::string_view line) {
  std::vector<std::string_view> toks;
  size_t pos = 0;
  while (pos < line.size()) {
    if (line[pos] == ' ') {
      ++pos;
      continue;
    }
    const size_t end = std::min(line.find(' ', pos), line.size());
    toks.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  return toks;
}

void AppendHexDouble(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", value);
  out->append(buf);
}

bool ParseHexDouble(std::string_view token, double* out) {
  const bool negative = !token.empty() && token[0] == '-';
  if (negative) token.remove_prefix(1);
  // from_chars takes a sign of its own; the digit check keeps "0x-1p+0" out.
  if (token.size() < 3 || token.substr(0, 2) != "0x" ||
      !std::isxdigit(static_cast<unsigned char>(token[2]))) {
    return false;
  }
  token.remove_prefix(2);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(
      token.data(), token.data() + token.size(), value, std::chars_format::hex);
  if (ec != std::errc() || ptr != token.data() + token.size() ||
      !std::isfinite(value)) {
    return false;
  }
  *out = negative ? -value : value;
  return true;
}

}  // namespace bati
