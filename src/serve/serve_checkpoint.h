#ifndef BATI_SERVE_SERVE_CHECKPOINT_H_
#define BATI_SERVE_SERVE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "signal/deployment_signal.h"

namespace bati {

/// One tuning run the daemon has admitted but not yet applied. Checkpoints
/// are written only after the session pool is drained, so a pending tune
/// always carries its *result*; what is still outstanding is applying it at
/// the simulated time the run would have finished (`submit_clock +
/// tune_seconds`) — which is what makes an interrupted stream resume to the
/// byte-identical end state of an uninterrupted one.
struct ServePendingTune {
  uint64_t tune_id = 0;  ///< serve-global, 1-based, submission order
  std::string tenant;
  /// What triggered it: "register" | "tune" | "drift".
  std::string origin;
  double submit_clock = 0.0;
  int64_t reserved_budget = 0;
  bool failed = false;
  std::string error;  ///< meaningful iff failed
  // The run's result (meaningful iff !failed).
  std::vector<size_t> positions;
  double improvement = 0.0;
  int64_t calls_used = 0;
  /// Simulated tuning duration (what-if plus other seconds).
  double tune_seconds = 0.0;

  bool operator==(const ServePendingTune&) const = default;
};

/// One tenant's durable state.
struct ServeTenantState {
  std::string name;
  /// The tuning template, as RunSpecToJson() — re-parsed on resume.
  std::string spec_json;
  int64_t queue_quota = 4;
  int64_t budget_quota = 0;
  int64_t pending = 0;
  int64_t budget_used = 0;
  /// Drift sub-workload generations minted so far.
  uint64_t generation = 0;
  /// Deployed configuration, ascending candidate positions.
  std::vector<size_t> deployed;
  /// Running observed/what-if calibration ratio, as sample count and sum
  /// (mean = sum / samples). Zero samples means "uncalibrated" (ratio 1).
  int64_t calib_samples = 0;
  double calib_sum = 0.0;
  /// WorkloadObserver::Serialize() payload.
  std::string observer_state;

  bool operator==(const ServeTenantState&) const = default;
};

/// A crash-consistent snapshot of the serve daemon between two input
/// events. Resume skips the first `events_processed` input lines (their
/// effects are all here) and continues the stream.
struct ServeCheckpoint {
  int64_t events_processed = 0;
  double clock = 0.0;
  uint64_t next_tune_id = 1;
  /// The deployment signal the run was judging decisions with. Resume
  /// adopts it: a daemon restarted with a different --signal keeps the
  /// checkpoint's kind so the stream's decision trail stays consistent.
  SignalKind signal = SignalKind::kWhatIf;
  // Lifetime summary counters.
  int64_t queries = 0;
  int64_t tunes_submitted = 0;
  int64_t tunes_applied = 0;
  int64_t errors = 0;
  int64_t drift_retunes = 0;
  int64_t shipped = 0;
  int64_t rollbacks = 0;
  /// Sorted by tenant name.
  std::vector<ServeTenantState> tenants;
  /// Sorted by tune_id.
  std::vector<ServePendingTune> pending;

  bool operator==(const ServeCheckpoint&) const = default;
};

/// Line-based records with hex-float doubles inside the common record-file
/// framing (`bati-serve v3`, common/record_file.h): serialization
/// round-trips every double bit-exactly, which resume-to-identical-state
/// requires, and every truncation or bit flip is rejected. v1 and v2 files
/// (no checksum) are refused with an error naming their version.
std::string SerializeServeCheckpoint(const ServeCheckpoint& ckpt);
StatusOr<ServeCheckpoint> ParseServeCheckpoint(const std::string& text);

/// File forms: save is write-temp-then-rename (AtomicWriteFile), load is
/// NotFound for a missing file and InvalidArgument for a malformed one.
Status SaveServeCheckpoint(const ServeCheckpoint& ckpt,
                           const std::string& path);
StatusOr<ServeCheckpoint> LoadServeCheckpoint(const std::string& path);

}  // namespace bati

#endif  // BATI_SERVE_SERVE_CHECKPOINT_H_
