#ifndef BATI_SESSION_SPEC_JSON_H_
#define BATI_SESSION_SPEC_JSON_H_

#include <string>
#include <string_view>

#include "common/json.h"
#include "common/status.h"
#include "session/tuning_session.h"

namespace bati {

/// Parses one flat JSON object into a RunSpec — the line format of
/// `bati_batch --specs FILE` (one spec per line, JSONL). Example:
///
///   {"workload":"tpch","algorithm":"mcts","budget":2000,"k":10,"seed":3,
///    "early_stop":true,"fault_rate":0.05}
///
/// Recognized keys (all optional except "workload"):
///   workload, algorithm     strings; same names as bati_tune
///   budget                  integer >= 0
///   k                       integer >= 1 (max indexes)
///   storage_gb              number >= 0; 0 disables the constraint
///   seed, fault_seed        non-negative integers
///   early_stop, realloc_budget, collect_metrics   booleans
///   skip_threshold, stop_threshold                numbers >= 0
///   stop_window             integer >= 1
///   fault_rate, fault_sticky, fault_spike         rates in [0, 1]
///   fault_spike_factor      number >= 1
///   retry_attempts          integer >= 1
///   retry_timeout           number >= 0 (simulated seconds; 0 disables)
///   checkpoint, resume, trace_out                 path strings
///   signal                  "whatif" | "exec-deterministic" | "measured"
///
/// Numbers follow the RFC 8259 grammar (common/json.h): `nan`, `inf`, hex,
/// a leading `+` or `.`, and integers that do not fit their field are
/// rejected. Validation is strict, mirroring the CLI tools: an unknown key,
/// a malformed value, an out-of-range value, or an unknown algorithm name is
/// an InvalidArgument error, never a silent default (and never a crash deep
/// inside MakeTuner). On success `*spec` is a freshly defaulted RunSpec
/// with the line's fields applied — governor/fault plumbing wired exactly
/// as bati_tune wires the equivalent flags, and "algorithm" defaulted to
/// "mcts" (the paper's setting, bati_tune's default) when absent.
Status ParseRunSpecJson(const std::string& line, RunSpec* spec);

/// The spec grammar over JsonReader, one key at a time, for objects that
/// embed spec keys among their own (serve register events): Read() consumes
/// the value of one spec key, Finish() validates the whole and yields the
/// spec.
class RunSpecReader {
 public:
  /// Reads the value of spec key `key`; an unknown key is an error.
  Status Read(std::string_view key, JsonReader* reader);
  /// Checks the required keys and wires the governor and fault plumbing
  /// exactly as bati_tune wires the equivalent flags.
  Status Finish(RunSpec* spec);

 private:
  RunSpec spec_;
  bool early_stop_ = false;
  bool realloc_budget_ = false;
  double skip_threshold_ = -1.0;
  double stop_threshold_ = -1.0;
  int64_t stop_window_ = 0;
};

/// As ParseRunSpecJson, but errors are prefixed with "line N: " so a
/// multi-line consumer (bati_batch, bati_serve) reports the offending
/// input line without every caller re-implementing the bookkeeping.
Status ParseRunSpecJsonLine(const std::string& line, int lineno,
                            RunSpec* spec);

/// Serializes a spec back to the flat JSON object ParseRunSpecJson
/// accepts, emitting only fields that differ from a default RunSpec (plus
/// the mandatory "workload"). Round-trips: parsing the output reproduces
/// the spec. Doubles are printed with enough digits to round-trip
/// bit-exactly, which makes the string usable as a deterministic identity
/// (the serve checkpoint stores tenant templates this way).
std::string RunSpecToJson(const RunSpec& spec);

}  // namespace bati

#endif  // BATI_SESSION_SPEC_JSON_H_
