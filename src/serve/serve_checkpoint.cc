#include "serve/serve_checkpoint.h"

#include <cinttypes>
#include <cstdio>

#include "common/record_file.h"

namespace bati {

namespace {

/// v3 moved onto the common record-file framing (magic + checksum line),
/// so every truncation and bit flip is rejected. v1 and v2 files carry no
/// checksum and are refused with an error naming their version.
constexpr char kMagic[] = "bati-serve v3";

Status Malformed(std::string_view what) {
  return Status::InvalidArgument("malformed serve checkpoint: " +
                                 std::string(what));
}

/// Emits "keyword count p1 p2 ... pk\n" for a position list.
void AppendPositions(std::string* out, const char* keyword,
                     const std::vector<size_t>& positions) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s %zu", keyword, positions.size());
  out->append(buf);
  for (size_t pos : positions) {
    std::snprintf(buf, sizeof(buf), " %zu", pos);
    out->append(buf);
  }
  out->push_back('\n');
}

/// Parses the positions of a "keyword count p1 ... pk" token vector,
/// starting at toks[1]. Requires strict ascent.
bool ParsePositions(const std::vector<std::string_view>& toks,
                    std::vector<size_t>* positions) {
  size_t count = 0;
  if (toks.size() < 2 || !ParseInteger(toks[1], &count) ||
      toks.size() - 2 != count) {
    return false;
  }
  positions->clear();
  for (size_t i = 2; i < toks.size(); ++i) {
    size_t p = 0;
    if (!ParseInteger(toks[i], &p) ||
        (!positions->empty() && p <= positions->back())) {
      return false;
    }
    positions->push_back(p);
  }
  return true;
}

}  // namespace

std::string SerializeServeCheckpoint(const ServeCheckpoint& ckpt) {
  std::string out;
  out.reserve(512);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "events %" PRId64 "\n",
                ckpt.events_processed);
  out.append(buf);
  out.append("clock ");
  AppendHexDouble(&out, ckpt.clock);
  out.push_back('\n');
  std::snprintf(buf, sizeof(buf), "next-tune %" PRIu64 "\n",
                ckpt.next_tune_id);
  out.append(buf);
  std::snprintf(buf, sizeof(buf),
                "counters %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64
                " %" PRId64 " %" PRId64 " %" PRId64 "\n",
                ckpt.queries, ckpt.tunes_submitted, ckpt.tunes_applied,
                ckpt.errors, ckpt.drift_retunes, ckpt.shipped,
                ckpt.rollbacks);
  out.append(buf);
  out.append("signal ");
  out.append(SignalKindName(ckpt.signal));
  out.push_back('\n');

  std::snprintf(buf, sizeof(buf), "tenants %zu\n", ckpt.tenants.size());
  out.append(buf);
  for (const ServeTenantState& t : ckpt.tenants) {
    out.append("tenant ");
    out.append(t.name);
    out.push_back('\n');
    // The spec JSON owns the rest of its line (it contains spaces but,
    // by construction, no newlines).
    out.append("spec ");
    out.append(t.spec_json);
    out.push_back('\n');
    std::snprintf(buf, sizeof(buf),
                  "quotas %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64 "\n",
                  t.queue_quota, t.budget_quota, t.pending, t.budget_used);
    out.append(buf);
    std::snprintf(buf, sizeof(buf), "generation %" PRIu64 "\n",
                  t.generation);
    out.append(buf);
    std::snprintf(buf, sizeof(buf), "calibration %" PRId64 " ",
                  t.calib_samples);
    out.append(buf);
    AppendHexDouble(&out, t.calib_sum);
    out.push_back('\n');
    AppendPositions(&out, "deployed", t.deployed);
    // The observer payload is line-based itself; frame it by line count.
    size_t observer_lines = 0;
    for (char c : t.observer_state) observer_lines += c == '\n' ? 1 : 0;
    std::snprintf(buf, sizeof(buf), "observer %zu\n", observer_lines);
    out.append(buf);
    out.append(t.observer_state);
  }

  std::snprintf(buf, sizeof(buf), "pending %zu\n", ckpt.pending.size());
  out.append(buf);
  for (const ServePendingTune& p : ckpt.pending) {
    // Names are appended, not printed with %s, so every byte survives.
    std::snprintf(buf, sizeof(buf), "tune %" PRIu64 " ", p.tune_id);
    out.append(buf);
    out.append(p.tenant);
    out.push_back(' ');
    out.append(p.origin);
    std::snprintf(buf, sizeof(buf), " %" PRId64 " %d\n", p.reserved_budget,
                  p.failed ? 1 : 0);
    out.append(buf);
    out.append("times ");
    AppendHexDouble(&out, p.submit_clock);
    out.push_back(' ');
    AppendHexDouble(&out, p.tune_seconds);
    out.push_back('\n');
    if (p.failed) {
      out.append("error ");
      out.append(p.error);
      out.push_back('\n');
    } else {
      out.append("result ");
      AppendHexDouble(&out, p.improvement);
      std::snprintf(buf, sizeof(buf), " %" PRId64, p.calls_used);
      out.append(buf);
      std::snprintf(buf, sizeof(buf), " %zu", p.positions.size());
      out.append(buf);
      for (size_t pos : p.positions) {
        std::snprintf(buf, sizeof(buf), " %zu", pos);
        out.append(buf);
      }
      out.push_back('\n');
    }
  }
  out.append("end\n");
  return FrameRecordFile(kMagic, out);
}

StatusOr<ServeCheckpoint> ParseServeCheckpoint(const std::string& text) {
  std::string_view body;
  const Status framed = UnframeRecordFile(text, kMagic, &body);
  if (!framed.ok()) return Malformed(framed.message());
  RecordLines in(body);
  ServeCheckpoint ckpt;
  std::vector<std::string_view> toks;
  std::string_view line;

  if (!in.Next("events", 1, &toks) ||
      !ParseInteger(toks[1], &ckpt.events_processed) ||
      ckpt.events_processed < 0) {
    return Malformed("bad events line");
  }
  if (!in.Next("clock", 1, &toks) || !ParseHexDouble(toks[1], &ckpt.clock) ||
      ckpt.clock < 0.0) {
    return Malformed("bad clock line");
  }
  if (!in.Next("next-tune", 1, &toks) ||
      !ParseInteger(toks[1], &ckpt.next_tune_id) || ckpt.next_tune_id < 1) {
    return Malformed("bad next-tune line");
  }
  if (!in.Next("counters", 7, &toks) ||
      !ParseInteger(toks[1], &ckpt.queries) ||
      !ParseInteger(toks[2], &ckpt.tunes_submitted) ||
      !ParseInteger(toks[3], &ckpt.tunes_applied) ||
      !ParseInteger(toks[4], &ckpt.errors) ||
      !ParseInteger(toks[5], &ckpt.drift_retunes) ||
      !ParseInteger(toks[6], &ckpt.shipped) ||
      !ParseInteger(toks[7], &ckpt.rollbacks)) {
    return Malformed("bad counters line");
  }
  if (!in.Next("signal", 1, &toks) ||
      !ParseSignalKind(std::string(toks[1]), &ckpt.signal)) {
    return Malformed("bad signal line");
  }

  size_t num_tenants = 0;
  if (!in.Next("tenants", 1, &toks) || !ParseInteger(toks[1], &num_tenants)) {
    return Malformed("bad tenants line");
  }
  for (size_t i = 0; i < num_tenants; ++i) {
    ServeTenantState t;
    if (!in.Next("tenant", 1, &toks)) return Malformed("bad tenant line");
    t.name = std::string(toks[1]);
    if (!ckpt.tenants.empty() && t.name <= ckpt.tenants.back().name) {
      return Malformed("tenants out of order");
    }
    std::string_view spec_json;
    if (!in.NextRest("spec", &spec_json)) return Malformed("bad spec line");
    t.spec_json = std::string(spec_json);
    if (!in.Next("quotas", 4, &toks) ||
        !ParseInteger(toks[1], &t.queue_quota) ||
        !ParseInteger(toks[2], &t.budget_quota) ||
        !ParseInteger(toks[3], &t.pending) ||
        !ParseInteger(toks[4], &t.budget_used) || t.queue_quota < 1 ||
        t.budget_quota < 0 || t.pending < 0 || t.budget_used < 0) {
      return Malformed("bad quotas line");
    }
    if (!in.Next("generation", 1, &toks) ||
        !ParseInteger(toks[1], &t.generation)) {
      return Malformed("bad generation line");
    }
    if (!in.Next("calibration", 2, &toks) ||
        !ParseInteger(toks[1], &t.calib_samples) ||
        !ParseHexDouble(toks[2], &t.calib_sum) || t.calib_samples < 0 ||
        t.calib_sum < 0.0) {
      return Malformed("bad calibration line");
    }
    if (!in.Next(&line)) return Malformed("missing deployed line");
    toks = SplitTokens(line);
    if (toks.empty() || toks[0] != "deployed" ||
        !ParsePositions(toks, &t.deployed)) {
      return Malformed("bad deployed line");
    }
    size_t observer_lines = 0;
    if (!in.Next("observer", 1, &toks) ||
        !ParseInteger(toks[1], &observer_lines)) {
      return Malformed("bad observer line");
    }
    for (size_t j = 0; j < observer_lines; ++j) {
      if (!in.Next(&line)) return Malformed("truncated observer");
      t.observer_state.append(line);
      t.observer_state.push_back('\n');
    }
    ckpt.tenants.push_back(std::move(t));
  }

  size_t num_pending = 0;
  if (!in.Next("pending", 1, &toks) || !ParseInteger(toks[1], &num_pending)) {
    return Malformed("bad pending line");
  }
  for (size_t i = 0; i < num_pending; ++i) {
    ServePendingTune p;
    int failed = 0;
    if (!in.Next("tune", 5, &toks) || !ParseInteger(toks[1], &p.tune_id) ||
        !ParseInteger(toks[4], &p.reserved_budget) ||
        !ParseInteger(toks[5], &failed) || p.reserved_budget < 0 ||
        (failed != 0 && failed != 1)) {
      return Malformed("bad tune line");
    }
    p.tenant = std::string(toks[2]);
    p.origin = std::string(toks[3]);
    p.failed = failed == 1;
    if (p.origin != "register" && p.origin != "tune" &&
        p.origin != "drift") {
      return Malformed("bad tune origin");
    }
    if (!ckpt.pending.empty() &&
        p.tune_id <= ckpt.pending.back().tune_id) {
      return Malformed("pending tunes out of order");
    }
    if (p.tune_id >= ckpt.next_tune_id) {
      return Malformed("pending tune id beyond next-tune");
    }
    if (!in.Next("times", 2, &toks) ||
        !ParseHexDouble(toks[1], &p.submit_clock) ||
        !ParseHexDouble(toks[2], &p.tune_seconds) || p.submit_clock < 0.0 ||
        p.tune_seconds < 0.0) {
      return Malformed("bad times line");
    }
    if (p.failed) {
      std::string_view error;
      if (!in.NextRest("error", &error)) return Malformed("bad error line");
      p.error = std::string(error);
    } else {
      if (!in.Next(&line)) return Malformed("missing result line");
      toks = SplitTokens(line);
      if (toks.size() < 4 || toks[0] != "result" ||
          !ParseHexDouble(toks[1], &p.improvement) ||
          !ParseInteger(toks[2], &p.calls_used) || p.calls_used < 0) {
        return Malformed("bad result line");
      }
      // Reuse the "keyword count p1..pk" parser by dropping the leading
      // improvement/calls tokens.
      toks.erase(toks.begin(), toks.begin() + 2);
      if (!ParsePositions(toks, &p.positions)) {
        return Malformed("bad result positions");
      }
    }
    ckpt.pending.push_back(std::move(p));
  }
  if (!in.Next(&line) || line != "end" || !in.AtEnd()) {
    return Malformed("missing end marker");
  }
  return ckpt;
}

Status SaveServeCheckpoint(const ServeCheckpoint& ckpt,
                           const std::string& path) {
  return AtomicWriteFile(path, SerializeServeCheckpoint(ckpt));
}

StatusOr<ServeCheckpoint> LoadServeCheckpoint(const std::string& path) {
  StatusOr<std::string> text = ReadWholeFile(path);
  if (!text.ok()) return text.status();
  return ParseServeCheckpoint(*text);
}

}  // namespace bati
