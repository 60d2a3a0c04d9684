#include "session/spec_json.h"

#include <cstdint>
#include <limits>

namespace bati {

namespace {

constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();

/// Reads an integer in [min, max] into a field of another integer type.
template <typename T>
Status ReadIntInto(JsonReader* r, std::string_view key, int64_t min,
                   int64_t max, T* out) {
  int64_t value = 0;
  Status st = r->ReadInt(key, min, max, &value);
  if (st.ok()) *out = static_cast<T>(value);
  return st;
}

}  // namespace

Status RunSpecReader::Read(std::string_view key, JsonReader* r) {
  RunSpec& s = spec_;
  if (key == "workload") {
    Status st = r->ReadString(key, &s.workload);
    if (st.ok() && s.workload.empty()) {
      st = Status::InvalidArgument("\"workload\" must be non-empty");
    }
    return st;
  }
  if (key == "algorithm") return r->ReadString(key, &s.algorithm);
  if (key == "budget") return r->ReadInt(key, 0, kMaxInt64, &s.budget);
  if (key == "k") return ReadIntInto(r, key, 1, kMaxInt, &s.max_indexes);
  if (key == "storage_gb") {
    double gb = 0.0;
    Status st = r->ReadNumber(key, 0.0, 1e12, &gb);
    if (st.ok()) s.max_storage_bytes = gb * 1e9;
    return st;
  }
  if (key == "seed") return ReadIntInto(r, key, 0, kMaxInt64, &s.seed);
  if (key == "early_stop") return r->ReadBool(key, &early_stop_);
  if (key == "realloc_budget") return r->ReadBool(key, &realloc_budget_);
  if (key == "skip_threshold") {
    return r->ReadNumber(key, 0.0, 1e12, &skip_threshold_);
  }
  if (key == "stop_threshold") {
    return r->ReadNumber(key, 0.0, 1e12, &stop_threshold_);
  }
  if (key == "stop_window") {
    return r->ReadInt(key, 1, kMaxInt64, &stop_window_);
  }
  if (key == "fault_rate") {
    return r->ReadNumber(key, 0.0, 1.0, &s.faults.transient_rate);
  }
  if (key == "fault_sticky") {
    return r->ReadNumber(key, 0.0, 1.0, &s.faults.sticky_rate);
  }
  if (key == "fault_spike") {
    return r->ReadNumber(key, 0.0, 1.0, &s.faults.spike_rate);
  }
  if (key == "fault_spike_factor") {
    return r->ReadNumber(key, 1.0, 1e12, &s.faults.spike_factor);
  }
  if (key == "fault_seed") {
    return ReadIntInto(r, key, 0, kMaxInt64, &s.faults.seed);
  }
  if (key == "retry_attempts") {
    return ReadIntInto(r, key, 1, kMaxInt, &s.retry.max_attempts);
  }
  if (key == "retry_timeout") {
    return r->ReadNumber(key, 0.0, 1e12, &s.retry.call_timeout_seconds);
  }
  if (key == "collect_metrics") return r->ReadBool(key, &s.collect_metrics);
  if (key == "checkpoint") return r->ReadString(key, &s.checkpoint_path);
  if (key == "resume") return r->ReadString(key, &s.resume_path);
  if (key == "trace_out") return r->ReadString(key, &s.trace_path);
  if (key == "signal") {
    Status st = r->ReadString(key, &s.deploy_signal);
    // The valid names mirror src/signal's ParseSignalKind — the session
    // layer sits below the signal layer and cannot call it, so the list is
    // spelled out here (cross-checked by a test).
    const std::string& name = s.deploy_signal;
    if (st.ok() && !name.empty() && name != "whatif" &&
        name != "exec-deterministic" && name != "measured") {
      st = Status::InvalidArgument("unknown signal \"" + name + "\"");
    }
    return st;
  }
  return Status::InvalidArgument("unknown key \"" + std::string(key) + "\"");
}

Status RunSpecReader::Finish(RunSpec* spec) {
  if (spec_.workload.empty()) {
    return Status::InvalidArgument("\"workload\" is required");
  }
  if (spec_.algorithm.empty()) {
    spec_.algorithm = "mcts";  // bati_tune's default; never leave a spec
                               // that would CHECK-fail inside MakeTuner
  } else if (!IsKnownAlgorithm(spec_.algorithm)) {
    return Status::InvalidArgument("unknown algorithm \"" +
                                   spec_.algorithm + "\"");
  }
  spec_.faults.enabled = spec_.faults.transient_rate > 0.0 ||
                         spec_.faults.sticky_rate > 0.0 ||
                         spec_.faults.spike_rate > 0.0;
  // Governor threshold overrides apply only to a governed run, exactly
  // like bati_tune's --skip-threshold / --stop-threshold / --stop-window.
  if (early_stop_ || realloc_budget_) {
    spec_.governor.enabled = true;
    spec_.governor.early_stop = early_stop_;
    spec_.governor.skip_what_if = realloc_budget_;
    if (skip_threshold_ >= 0.0) {
      spec_.governor.realloc.skip_rel_threshold = skip_threshold_;
    }
    if (stop_threshold_ >= 0.0) {
      spec_.governor.stop.abs_threshold_pct = stop_threshold_;
    }
    if (stop_window_ > 0) spec_.governor.stop.window_calls = stop_window_;
  }
  *spec = std::move(spec_);
  return Status::Ok();
}

Status ParseRunSpecJson(const std::string& line, RunSpec* spec) {
  *spec = RunSpec();
  JsonReader reader(line);
  RunSpecReader fields;
  Status st = ReadFlatObject(&reader, "spec line", [&](std::string_view key) {
    return fields.Read(key, &reader);
  });
  if (!st.ok()) return st;
  return fields.Finish(spec);
}

Status ParseRunSpecJsonLine(const std::string& line, int lineno,
                            RunSpec* spec) {
  Status st = ParseRunSpecJson(line, spec);
  if (st.ok()) return st;
  return Status::InvalidArgument("line " + std::to_string(lineno) + ": " +
                                 st.message());
}

std::string RunSpecToJson(const RunSpec& spec) {
  const RunSpec def;  // emit only what differs from a default spec
  JsonWriter out;
  out.String("workload", spec.workload);
  if (!spec.algorithm.empty()) out.String("algorithm", spec.algorithm);
  if (spec.budget != def.budget) out.Int("budget", spec.budget);
  if (spec.max_indexes != def.max_indexes) out.Int("k", spec.max_indexes);
  if (spec.max_storage_bytes != def.max_storage_bytes) {
    out.Double("storage_gb", spec.max_storage_bytes / 1e9);
  }
  if (spec.seed != def.seed) {
    out.Int("seed", static_cast<int64_t>(spec.seed));
  }
  if (spec.governor.enabled) {
    if (spec.governor.early_stop) out.Bool("early_stop", true);
    if (spec.governor.skip_what_if) out.Bool("realloc_budget", true);
    out.Double("skip_threshold", spec.governor.realloc.skip_rel_threshold);
    out.Double("stop_threshold", spec.governor.stop.abs_threshold_pct);
    if (spec.governor.stop.window_calls >= 1) {
      out.Int("stop_window", spec.governor.stop.window_calls);
    }
  }
  if (spec.faults.transient_rate != def.faults.transient_rate) {
    out.Double("fault_rate", spec.faults.transient_rate);
  }
  if (spec.faults.sticky_rate != def.faults.sticky_rate) {
    out.Double("fault_sticky", spec.faults.sticky_rate);
  }
  if (spec.faults.spike_rate != def.faults.spike_rate) {
    out.Double("fault_spike", spec.faults.spike_rate);
  }
  if (spec.faults.spike_factor != def.faults.spike_factor) {
    out.Double("fault_spike_factor", spec.faults.spike_factor);
  }
  if (spec.faults.seed != def.faults.seed) {
    out.Int("fault_seed", static_cast<int64_t>(spec.faults.seed));
  }
  if (spec.retry.max_attempts != def.retry.max_attempts) {
    out.Int("retry_attempts", spec.retry.max_attempts);
  }
  if (spec.retry.call_timeout_seconds != def.retry.call_timeout_seconds) {
    out.Double("retry_timeout", spec.retry.call_timeout_seconds);
  }
  if (spec.collect_metrics) out.Bool("collect_metrics", true);
  if (!spec.checkpoint_path.empty()) {
    out.String("checkpoint", spec.checkpoint_path);
  }
  if (!spec.resume_path.empty()) out.String("resume", spec.resume_path);
  if (!spec.trace_path.empty()) out.String("trace_out", spec.trace_path);
  if (!spec.deploy_signal.empty()) out.String("signal", spec.deploy_signal);
  return out.Finish();
}

}  // namespace bati
