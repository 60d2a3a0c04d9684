#include "obs/tracer.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "common/json.h"
#include "common/macros.h"
#include "common/record_file.h"

namespace bati {

namespace {

void AppendDouble(std::string* out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

}  // namespace

Tracer::Tracer(size_t capacity)
    : epoch_(std::chrono::steady_clock::now()),
      capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<size_t>(capacity_, 1024));
}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::TidLocked(std::thread::id id) {
  auto [it, inserted] = tids_.emplace(id, static_cast<int>(tids_.size()));
  (void)inserted;
  return it->second;
}

void Tracer::Append(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceEvent stamped = event;
  stamped.tid = TidLocked(std::this_thread::get_id());
  if (ring_.size() < capacity_) {
    ring_.push_back(stamped);
    return;
  }
  // Ring full: overwrite the oldest record.
  wrapped_ = true;
  ring_[next_] = stamped;
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

void Tracer::Complete(const char* name, const char* category,
                      double wall_start_us, double wall_dur_us,
                      double sim_start_s, double sim_dur_s,
                      std::initializer_list<TraceArg> args) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = 'X';
  e.wall_ts_us = wall_start_us;
  e.wall_dur_us = wall_dur_us;
  e.sim_ts_s = sim_start_s;
  e.sim_dur_s = sim_dur_s;
  for (const TraceArg& arg : args) {
    if (e.num_args >= TraceEvent::kMaxArgs) break;
    e.args[e.num_args++] = arg;
  }
  Append(e);
}

void Tracer::Instant(const char* name, const char* category, double sim_ts_s,
                     std::initializer_list<TraceArg> args) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = 'i';
  e.wall_ts_us = NowUs();
  e.sim_ts_s = sim_ts_s;
  for (const TraceArg& arg : args) {
    if (e.num_args >= TraceEvent::kMaxArgs) break;
    e.args[e.num_args++] = arg;
  }
  Append(e);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<TraceEvent> Tracer::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (wrapped_) {
    out.insert(out.end(), ring_.begin() + static_cast<ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<ptrdiff_t>(next_));
  } else {
    out = ring_;
  }
  return out;
}

std::string Tracer::ToChromeJson() const {
  const std::vector<TraceEvent> events = Events();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    out += e.name;
    out += "\",\"cat\":\"";
    out += e.category;
    out += "\",\"ph\":\"";
    out += e.phase;
    out += "\",\"pid\":1,\"tid\":" + std::to_string(e.tid);
    out += ",\"ts\":";
    AppendDouble(&out, e.wall_ts_us);
    if (e.phase == 'X') {
      out += ",\"dur\":";
      AppendDouble(&out, e.wall_dur_us);
    }
    if (e.phase == 'i') out += ",\"s\":\"t\"";
    out += ",\"args\":{\"sim_ts_s\":";
    AppendDouble(&out, e.sim_ts_s);
    if (e.phase == 'X') {
      out += ",\"sim_dur_s\":";
      AppendDouble(&out, e.sim_dur_s);
    }
    for (int i = 0; i < e.num_args; ++i) {
      out += ",\"";
      out += e.args[i].key;
      out += "\":";
      AppendDouble(&out, e.args[i].value);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string Tracer::ToTextReport() const {
  const std::vector<TraceEvent> events = Events();
  // Per-(category, name) rollup, ordered by first occurrence.
  struct Rollup {
    std::string key;
    int64_t count = 0;
    double wall_us = 0.0;
    double sim_s = 0.0;
  };
  std::vector<Rollup> rollups;
  for (const TraceEvent& e : events) {
    std::string key = std::string(e.category) + "/" + e.name;
    Rollup* row = nullptr;
    for (Rollup& r : rollups) {
      if (r.key == key) {
        row = &r;
        break;
      }
    }
    if (row == nullptr) {
      rollups.push_back(Rollup{std::move(key), 0, 0.0, 0.0});
      row = &rollups.back();
    }
    ++row->count;
    row->wall_us += e.wall_dur_us;
    row->sim_s += e.sim_dur_s;
  }
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "trace: %zu events retained (%llu dropped, capacity %zu)\n",
                events.size(), static_cast<unsigned long long>(dropped()),
                capacity_);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  %-36s %8s %14s %12s\n", "span/event",
                "count", "wall total ms", "sim total s");
  out += buf;
  for (const Rollup& r : rollups) {
    std::snprintf(buf, sizeof(buf), "  %-36s %8lld %14.3f %12.2f\n",
                  r.key.c_str(), static_cast<long long>(r.count),
                  r.wall_us / 1000.0, r.sim_s);
    out += buf;
  }
  return out;
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  return AtomicWriteFile(path, ToChromeJson());
}

namespace {

/// Checks one traceEvents entry: an object holding the required fields,
/// plus "dur" when its phase is 'X'.
Status ValidateTraceEvent(JsonReader* reader) {
  static constexpr std::string_view kFields[] = {"name", "cat", "ph", "ts",
                                                 "pid",  "tid", "dur"};
  if (!reader->BeginObject("event").ok()) {
    return Status::InvalidArgument("malformed event object");
  }
  uint32_t seen = 0;  // bit i: kFields[i] is present
  std::string ph;
  bool more = true;
  std::string_view key;
  Status st;
  while ((st = reader->NextKey(&more, &key)).ok() && more) {
    for (size_t i = 0; i < std::size(kFields); ++i) {
      if (kFields[i] == key) seen |= 1u << i;
    }
    st = key == "ph" ? reader->ReadString(key, &ph) : reader->SkipValue();
    if (!st.ok()) return st;
  }
  if (!st.ok()) return st;
  if ((seen & 0x3f) != 0x3f) {
    return Status::InvalidArgument(
        "event missing a required field (name/cat/ph/ts/pid/tid)");
  }
  if (ph == "X" && (seen & 0x40) == 0) {
    return Status::InvalidArgument("complete ('X') span without dur");
  }
  return Status::Ok();
}

}  // namespace

Status Tracer::ValidateChromeJson(const std::string& json,
                                  size_t* num_events) {
  JsonReader reader(json);
  size_t events = 0;
  bool saw_trace_events = false;
  Status st = reader.BeginObject("top level");
  bool more = true;
  std::string_view key;
  while (st.ok() && (st = reader.NextKey(&more, &key)).ok() && more) {
    if (key != "traceEvents") {
      st = reader.SkipValue();
      continue;
    }
    saw_trace_events = true;
    st = reader.BeginArray();
    if (!st.ok()) st = Status::InvalidArgument("traceEvents is not an array");
    while (st.ok() && (st = reader.NextElement(&more)).ok() && more) {
      st = ValidateTraceEvent(&reader);
      ++events;
    }
  }
  if (st.ok()) st = reader.ExpectEnd();
  if (st.ok() && !saw_trace_events) {
    st = Status::InvalidArgument("no traceEvents array");
  }
  if (!st.ok()) return Status::InvalidArgument("trace JSON: " + st.message());
  if (num_events != nullptr) *num_events = events;
  return Status::Ok();
}

}  // namespace bati
