#include "fleet/wire.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string_view>

#include "common/crc32.h"
#include "common/record_file.h"

namespace bati {

namespace {

/// First line of the fleet state file (see EncodeFleetState).
constexpr char kFleetStateMagic[] = "bati-fleet-state v2";

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed frame: ") + what);
}

/// Takes the next space-terminated token off the front of *rest; false
/// when it is empty.
bool NextToken(std::string_view* rest, std::string_view* token) {
  const size_t space = std::min(rest->find(' '), rest->size());
  *token = rest->substr(0, space);
  rest->remove_prefix(std::min(space + 1, rest->size()));
  return !token->empty();
}

/// The next token as a decimal integer in [min, max].
bool NextInteger(std::string_view* rest, uint64_t min, uint64_t max,
                 uint64_t* out) {
  std::string_view token;
  return NextToken(rest, &token) && ParseInteger(token, out) && *out >= min &&
         *out <= max;
}

}  // namespace

std::string EncodeTaskLine(const TaskFrame& frame) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "TASK %" PRIu64 " %d %d ", frame.task_id,
                frame.attempt, frame.resume ? 1 : 0);
  return buf + frame.spec_json + "\n";
}

Status ParseTaskLine(const std::string& line, TaskFrame* out) {
  if (line.rfind("TASK ", 0) != 0) return Malformed("not a task line");
  std::string_view rest(line);
  rest.remove_prefix(5);
  uint64_t id = 0, attempt = 0, resume = 0;
  if (!NextInteger(&rest, 1, UINT64_MAX, &id)) return Malformed("bad task id");
  if (!NextInteger(&rest, 1, 1000000, &attempt)) {
    return Malformed("bad attempt");
  }
  if (!NextInteger(&rest, 0, 1, &resume)) return Malformed("bad resume flag");
  out->task_id = id;
  out->attempt = static_cast<int>(attempt);
  out->resume = resume == 1;
  out->spec_json = std::string(rest);
  if (out->spec_json.empty()) return Malformed("missing spec");
  return Status::Ok();
}

std::string EncodeHeartbeatLine(uint64_t task_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "HB %" PRIu64 "\n", task_id);
  return buf;
}

std::string EncodeResultLine(const ResultFrame& frame) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "RESULT %" PRIu64 " %d %d %" PRId64 " %zu %s ",
                frame.task_id, frame.attempt, frame.ok ? 1 : 0,
                frame.recovered_calls, frame.payload.size(),
                Crc32Hex(Crc32(frame.payload)).c_str());
  return buf + frame.payload + "\n";
}

std::string EncodeGarbledResultLine(const ResultFrame& frame) {
  std::string line = EncodeResultLine(frame);
  // Drop the trailing third (newline included), as if the process died
  // mid-flush, then terminate the line so the coordinator sees a complete
  // — but checksum-violating — frame rather than blocking for more bytes.
  line.resize(line.size() - line.size() / 3);
  line.push_back('\n');
  return line;
}

WireKind ClassifyLine(const std::string& line) {
  if (line.rfind("HB ", 0) == 0) return WireKind::kHeartbeat;
  if (line.rfind("RESULT ", 0) == 0) return WireKind::kResult;
  return WireKind::kMalformed;
}

bool ParseHeartbeatLine(const std::string& line, uint64_t* task_id) {
  if (line.rfind("HB ", 0) != 0) return false;
  return ParseInteger(std::string_view(line).substr(3), task_id) &&
         *task_id != 0;
}

Status ParseResultLine(const std::string& line, ResultFrame* out) {
  if (line.rfind("RESULT ", 0) != 0) return Malformed("not a result line");
  std::string_view rest(line);
  rest.remove_prefix(7);
  uint64_t id = 0, attempt = 0, ok = 0, recovered = 0, len = 0;
  if (!NextInteger(&rest, 1, UINT64_MAX, &id)) return Malformed("bad task id");
  if (!NextInteger(&rest, 1, 1000000, &attempt)) {
    return Malformed("bad attempt");
  }
  if (!NextInteger(&rest, 0, 1, &ok)) return Malformed("bad ok flag");
  if (!NextInteger(&rest, 0, INT64_MAX, &recovered)) {
    return Malformed("bad recovered count");
  }
  if (!NextInteger(&rest, 0, UINT64_MAX, &len)) return Malformed("bad length");
  std::string_view crc;
  uint32_t declared_crc = 0;
  if (!NextToken(&rest, &crc) || !ParseCrc32Hex(crc, &declared_crc)) {
    return Malformed("bad checksum");
  }
  // The payload owns the rest of the line; its observed byte count must
  // match the declaration exactly — a truncated frame fails here.
  if (rest.size() != len) {
    return Malformed("payload length mismatch (truncated frame)");
  }
  if (Crc32(rest.data(), rest.size()) != declared_crc) {
    return Malformed("payload checksum mismatch (corrupted frame)");
  }
  out->task_id = id;
  out->attempt = static_cast<int>(attempt);
  out->ok = ok == 1;
  out->recovered_calls = static_cast<int64_t>(recovered);
  out->payload = std::string(rest);
  return Status::Ok();
}

std::string EncodeFleetState(const std::vector<ResultFrame>& done) {
  std::string body;
  for (const ResultFrame& frame : done) body += EncodeResultLine(frame);
  return FrameRecordFile(kFleetStateMagic, body);
}

Status ParseFleetState(const std::string& text, uint64_t num_tasks,
                       std::vector<ResultFrame>* done) {
  done->clear();
  std::string_view body;
  Status st = UnframeRecordFile(text, kFleetStateMagic, &body);
  RecordLines lines(body);
  std::string_view line;
  while (st.ok() && lines.Next(&line)) {
    ResultFrame frame;
    st = ParseResultLine(std::string(line), &frame);
    if (st.ok() && frame.task_id > num_tasks) {
      st = Status::InvalidArgument("task " + std::to_string(frame.task_id) +
                                   " but only " + std::to_string(num_tasks) +
                                   " specs were given");
    }
    if (st.ok()) done->push_back(std::move(frame));
  }
  if (st.ok() && !lines.AtEnd()) st = Malformed("unterminated last record");
  if (!st.ok()) {
    done->clear();
    return Status::InvalidArgument("fleet state: " + st.message());
  }
  return Status::Ok();
}

}  // namespace bati
