#include "whatif/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/record_file.h"

namespace bati {

namespace {

// v2 added the `checksum <crc32> <bytes>` line right after the magic (the
// common record-file framing): the whole body, "identity" through "end",
// is length- and CRC-guarded, so a truncated or bit-flipped checkpoint is
// rejected with a clear Status instead of silently replaying a partial
// journal prefix. v1 files (no checksum) are rejected as unsupported; a
// resuming caller falls back to a fresh start.
constexpr char kMagic[] = "bati-checkpoint v2";

Status Malformed(std::string_view what) {
  return Status::InvalidArgument("malformed checkpoint: " + std::string(what));
}

}  // namespace

std::string SerializeCheckpoint(const EngineCheckpoint& ckpt) {
  std::string out;
  out.reserve(160 + ckpt.events.size() * 48);
  // The guarded body is assembled first; the header's checksum line is a
  // pure function of its bytes.
  // The identity may contain spaces; it owns the rest of its line.
  out.append("identity ");
  out.append(ckpt.identity);
  out.push_back('\n');
  char buf[256];
  std::snprintf(buf, sizeof(buf), "shape %d %d\n", ckpt.num_queries,
                ckpt.num_candidates);
  out.append(buf);
  std::snprintf(buf, sizeof(buf), "budget %" PRId64 "\n", ckpt.budget);
  out.append(buf);
  std::snprintf(buf, sizeof(buf), "round %d\n", ckpt.round);
  out.append(buf);
  std::snprintf(buf, sizeof(buf),
                "counters %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64 "\n",
                ckpt.calls_made, ckpt.cache_hits, ckpt.degraded_cells,
                ckpt.batched_cells);
  out.append(buf);
  out.append("sim ");
  AppendHexDouble(&out, ckpt.sim_seconds);
  out.push_back('\n');
  std::snprintf(buf, sizeof(buf),
                "faults %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64 "\n",
                ckpt.fault_transient, ckpt.fault_sticky, ckpt.fault_timeouts,
                ckpt.retry_attempts);
  out.append(buf);
  std::snprintf(buf, sizeof(buf),
                "governor %" PRId64 " %" PRId64 " %" PRId64 " %d %" PRId64
                "\n",
                ckpt.governor_skipped, ckpt.governor_banked,
                ckpt.governor_reallocated, ckpt.governor_stop_round,
                ckpt.governor_stop_calls);
  out.append(buf);
  std::snprintf(buf, sizeof(buf), "events %zu\n", ckpt.events.size());
  out.append(buf);
  for (const CheckpointEvent& e : ckpt.events) {
    out.push_back(e.charged ? 'C' : 'D');
    std::snprintf(buf, sizeof(buf), " %d %d ", e.query_id, e.round);
    out.append(buf);
    AppendHexDouble(&out, e.sim_seconds);
    if (e.charged) {
      out.push_back(' ');
      AppendHexDouble(&out, e.cost);
    }
    for (size_t pos = 0; pos < e.positions.size(); ++pos) {
      std::snprintf(buf, sizeof(buf), "%s%zu", pos == 0 ? " " : ",",
                    e.positions[pos]);
      out.append(buf);
    }
    out.push_back('\n');
  }
  out.append("end\n");
  return FrameRecordFile(kMagic, out);
}

StatusOr<EngineCheckpoint> ParseCheckpoint(const std::string& text) {
  std::string_view body;
  const Status framed = UnframeRecordFile(text, kMagic, &body);
  if (!framed.ok()) return Malformed(framed.message());
  RecordLines in(body);
  EngineCheckpoint ckpt;
  std::string_view identity;
  if (!in.NextRest("identity", &identity)) {
    return Malformed("missing identity line");
  }
  ckpt.identity = std::string(identity);

  std::vector<std::string_view> toks;
  if (!in.Next("shape", 2, &toks) ||
      !ParseInteger(toks[1], &ckpt.num_queries) ||
      !ParseInteger(toks[2], &ckpt.num_candidates) || ckpt.num_queries <= 0 ||
      ckpt.num_candidates <= 0) {
    return Malformed("bad shape line");
  }
  if (!in.Next("budget", 1, &toks) || !ParseInteger(toks[1], &ckpt.budget) ||
      ckpt.budget < 0) {
    return Malformed("bad budget line");
  }
  if (!in.Next("round", 1, &toks) || !ParseInteger(toks[1], &ckpt.round) ||
      ckpt.round < 1) {
    return Malformed("bad round line");
  }
  if (!in.Next("counters", 4, &toks) ||
      !ParseInteger(toks[1], &ckpt.calls_made) ||
      !ParseInteger(toks[2], &ckpt.cache_hits) ||
      !ParseInteger(toks[3], &ckpt.degraded_cells) ||
      !ParseInteger(toks[4], &ckpt.batched_cells) || ckpt.calls_made < 0 ||
      ckpt.cache_hits < 0 || ckpt.degraded_cells < 0 ||
      ckpt.batched_cells < 0) {
    return Malformed("bad counters line");
  }
  if (!in.Next("sim", 1, &toks) ||
      !ParseHexDouble(toks[1], &ckpt.sim_seconds) || ckpt.sim_seconds < 0.0) {
    return Malformed("bad sim line");
  }
  if (!in.Next("faults", 4, &toks) ||
      !ParseInteger(toks[1], &ckpt.fault_transient) ||
      !ParseInteger(toks[2], &ckpt.fault_sticky) ||
      !ParseInteger(toks[3], &ckpt.fault_timeouts) ||
      !ParseInteger(toks[4], &ckpt.retry_attempts) ||
      ckpt.fault_transient < 0 || ckpt.fault_sticky < 0 ||
      ckpt.fault_timeouts < 0 || ckpt.retry_attempts < 0) {
    return Malformed("bad faults line");
  }
  if (!in.Next("governor", 5, &toks) ||
      !ParseInteger(toks[1], &ckpt.governor_skipped) ||
      !ParseInteger(toks[2], &ckpt.governor_banked) ||
      !ParseInteger(toks[3], &ckpt.governor_reallocated) ||
      !ParseInteger(toks[4], &ckpt.governor_stop_round) ||
      !ParseInteger(toks[5], &ckpt.governor_stop_calls)) {
    return Malformed("bad governor line");
  }
  size_t num_events = 0;
  if (!in.Next("events", 1, &toks) || !ParseInteger(toks[1], &num_events) ||
      num_events > body.size()) {
    return Malformed("bad events line");
  }
  ckpt.events.reserve(num_events);
  int64_t charged_count = 0;
  double sim_sum = 0.0;
  int prev_round = 0;
  for (size_t i = 0; i < num_events; ++i) {
    std::string_view line;
    if (!in.Next(&line)) return Malformed("truncated event list");
    toks = SplitTokens(line);
    CheckpointEvent e;
    if (toks.empty() || (toks[0] != "C" && toks[0] != "D")) {
      return Malformed("bad event kind");
    }
    e.charged = toks[0] == "C";
    const size_t expect = e.charged ? 6 : 5;
    if (toks.size() != expect || !ParseInteger(toks[1], &e.query_id) ||
        !ParseInteger(toks[2], &e.round) ||
        !ParseHexDouble(toks[3], &e.sim_seconds)) {
      return Malformed("bad event line");
    }
    size_t pos_tok = 4;
    if (e.charged) {
      if (!ParseHexDouble(toks[4], &e.cost)) return Malformed("bad event cost");
      pos_tok = 5;
    }
    // Comma-separated member positions, strictly ascending.
    std::string_view plist = toks[pos_tok];
    while (!plist.empty()) {
      const size_t comma = std::min(plist.find(','), plist.size());
      size_t p = 0;
      if (!ParseInteger(plist.substr(0, comma), &p) ||
          p >= static_cast<size_t>(ckpt.num_candidates)) {
        return Malformed("event position out of range");
      }
      if (!e.positions.empty() && p <= e.positions.back()) {
        return Malformed("event positions not ascending");
      }
      e.positions.push_back(p);
      plist.remove_prefix(std::min(comma + 1, plist.size()));
    }
    if (e.positions.empty()) return Malformed("event with empty configuration");
    if (e.query_id < 0 || e.query_id >= ckpt.num_queries) {
      return Malformed("event query out of range");
    }
    if (e.round < prev_round || e.round >= ckpt.round) {
      return Malformed("event round out of order");
    }
    prev_round = e.round;
    if (e.sim_seconds < 0.0) return Malformed("negative event time");
    if (e.charged) ++charged_count;
    sim_sum += e.sim_seconds;
    ckpt.events.push_back(std::move(e));
  }
  std::string_view line;
  if (!in.Next(&line) || line != "end" || !in.AtEnd()) {
    return Malformed("missing end marker");
  }
  if (charged_count != ckpt.calls_made) {
    return Malformed("charged events disagree with calls_made");
  }
  if (static_cast<int64_t>(ckpt.events.size()) - charged_count !=
      ckpt.degraded_cells) {
    return Malformed("degraded events disagree with degraded counter");
  }
  if (ckpt.calls_made > ckpt.budget) {
    return Malformed("calls_made exceeds budget");
  }
  // Summed in journal order, the event times must rebuild the recorded
  // simulated clock bit-exactly — the same order replay will use.
  if (sim_sum != ckpt.sim_seconds) {
    return Malformed("event times disagree with simulated clock");
  }
  return ckpt;
}

Status SaveCheckpoint(const EngineCheckpoint& ckpt, const std::string& path) {
  return AtomicWriteFile(path, SerializeCheckpoint(ckpt));
}

StatusOr<EngineCheckpoint> LoadCheckpoint(const std::string& path) {
  StatusOr<std::string> text = ReadWholeFile(path);
  if (!text.ok()) return text.status();
  return ParseCheckpoint(*text);
}

}  // namespace bati
