#ifndef BATI_SERVE_DAEMON_H_
#define BATI_SERVE_DAEMON_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/tracer.h"
#include "serve/admission.h"
#include "serve/event_json.h"
#include "serve/lifecycle.h"
#include "serve/serve_checkpoint.h"
#include "serve/workload_observer.h"
#include "session/session_manager.h"
#include "signal/signal_hub.h"

namespace bati {

/// Configuration of a ServeDaemon.
struct ServeOptions {
  /// Session-pool workers executing tuning runs in the background.
  int parallelism = 2;
  /// Simulated seconds one query event advances the clock by.
  double tick_seconds = 1.0;
  /// Per-tenant sliding-window observer tunables.
  ObserverOptions observer;
  /// Maximum tolerated relative cost regression of a candidate over the
  /// deployed configuration on the live window; anything worse is rolled
  /// back (the DBA-bandits safety guarantee, serve-side).
  double safety_bound = 0.02;
  /// Checkpoint file; empty disables checkpointing (and resume).
  std::string state_path;
  /// When > 0, a checkpoint is also written after every N processed
  /// events, not just at shutdown — crash recovery at event granularity.
  int64_t checkpoint_every = 0;
  /// Which deployment signal judges lifecycle decisions. kWhatIf is the
  /// pre-signal-layer behavior, byte for byte. The exec-backed kinds run
  /// both configurations through src/exec and feed the measured cost back
  /// into the ship/rollback decision — closing the loop on execution.
  /// Resume overrides this with the checkpoint's kind.
  SignalKind signal = SignalKind::kWhatIf;
  /// Tunables for the exec-backed signals (repetitions, store cap, seed).
  ExecSignalOptions signal_options;
};

/// The long-running tuning daemon: consumes a JSONL event stream (one
/// ServeEvent per line), observes each tenant's live query mix through a
/// sliding-window sketch, re-tunes when the mix drifts from the window the
/// active configuration was tuned for, and runs every recommended or
/// operator-proposed configuration through a safety-guarded index
/// lifecycle before it ships.
///
/// Time is the simulated clock: query events tick it, advance events jump
/// it, and a tuning run's result is applied only once the clock passes
/// `submit + simulated tuning duration` — in submission order, at event
/// boundaries. Because application points are functions of the event
/// stream alone (never of scheduling), the daemon's output and final state
/// are byte-reproducible, and a SIGTERM-interrupted run resumed from its
/// checkpoint converges to the exact state of an uninterrupted one.
///
/// Threading: ProcessLine/Finish/Shutdown/DumpState run on one caller
/// thread (the event loop). Tuning runs execute on the SessionManager's
/// worker pool; their results cross back through a mutex-guarded table the
/// event loop blocks on at deterministic points.
class ServeDaemon {
 public:
  explicit ServeDaemon(const ServeOptions& options);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Restores state from options.state_path. The next
  /// `events_processed` input lines are then skipped as already applied —
  /// feed the daemon the same stream and it continues where the
  /// checkpoint left off. NotFound when no checkpoint exists.
  Status Resume();

  /// Processes one input line, appending zero or more complete output
  /// lines ('\n'-terminated JSONL) to *out: one acknowledgement or error
  /// line per event (skipped resume lines excepted), plus one tune-result
  /// line per tuning run whose application point was reached.
  void ProcessLine(const std::string& line, std::string* out);

  /// End of stream: applies every still-pending tuning result in
  /// submission order (emitting their tune-result lines), then
  /// checkpoints.
  void Finish(std::string* out);

  /// Graceful SIGTERM: waits for in-flight tuning runs to finish,
  /// checkpoints (results ride along, still pending application), and
  /// leaves application points to the resumed run. Ok when no state path
  /// is configured.
  Status Shutdown();

  /// The serialized current state (waits for in-flight runs first) —
  /// what Shutdown() would write. Tests compare these across runs.
  std::string DumpState();

  /// One-line human summary (tenants, queries, tunes, lifecycle counts).
  std::string SummaryLine() const;

  int64_t events_processed() const { return events_processed_; }
  MetricsRegistry& metrics() { return metrics_; }
  Tracer& tracer() { return tracer_; }

 private:
  struct Tenant {
    std::string name;
    RunSpec spec;  ///< the tuning template; spec.workload is the base name
    const WorkloadBundle* bundle = nullptr;
    TenantAdmission admission;
    IndexLifecycle lifecycle;
    WorkloadObserver observer;
    uint64_t generation = 0;
    /// Running observed/what-if ratio: every non-estimated signal
    /// evaluation contributes one sample per configuration side. The mean
    /// calibrates what-if estimates where the full signal is skipped
    /// (drift re-tunes, store-cap fallbacks).
    int64_t calib_samples = 0;
    double calib_sum = 0.0;

    double calibration() const {
      return calib_samples > 0
                 ? calib_sum / static_cast<double>(calib_samples)
                 : 1.0;
    }

    Tenant(std::string tenant_name, RunSpec template_spec,
           const WorkloadBundle* base, int64_t queue_quota,
           int64_t budget_quota, const ObserverOptions& observer_options,
           double safety_bound)
        : name(std::move(tenant_name)),
          spec(std::move(template_spec)),
          bundle(base),
          admission(queue_quota, budget_quota),
          lifecycle(safety_bound),
          observer(observer_options, base->workload.num_queries()) {}
  };

  /// One admitted tuning run, from submission until its application point.
  struct PendingTune {
    uint64_t tune_id = 0;
    uint64_t manager_id = 0;  ///< 0 when the result came from a checkpoint
    std::string tenant;
    std::string origin;  ///< "register" | "tune" | "drift"
    double submit_clock = 0.0;
    int64_t reserved_budget = 0;
    bool have_result = false;
    bool failed = false;
    std::string error;
    std::vector<size_t> positions;
    double improvement = 0.0;
    int64_t calls_used = 0;
    double tune_seconds = 0.0;
  };

  void HandleRegister(const ServeEvent& event, std::string* out);
  void HandleQuery(const ServeEvent& event, std::string* out);
  void HandleTune(const ServeEvent& event, std::string* out);
  void HandleDeploy(const ServeEvent& event, std::string* out);

  /// Admits and submits one tuning run for `tenant`. On success returns
  /// the new serve-global tune id; on rejection returns the admission
  /// error. `origin` is "register", "tune", or "drift"; drift runs tune a
  /// sub-workload built from the live window, the others the full
  /// workload.
  StatusOr<uint64_t> SubmitTune(Tenant* tenant, const RunSpec& spec,
                                const std::string& origin);

  /// Builds and registers the live-window sub-workload bundle for a drift
  /// re-tune; returns its dynamic registry name.
  std::string RegisterDriftBundle(Tenant* tenant);

  /// Resets the tenant's drift reference to the window a just-submitted
  /// tune is optimizing for (uniform when nothing was observed yet).
  void ResetReference(Tenant* tenant);

  /// Applies matured pending results in submission order: waits for the
  /// head's result, applies it if the clock passed its application point,
  /// stops at the first unmatured head. With `force`, maturity is ignored
  /// (EOF / drain event).
  void ApplyMatured(bool force, std::string* out);
  void ApplyTune(PendingTune* tune, std::string* out);

  /// Runs `candidate` through the tenant's lifecycle under the daemon's
  /// configured deployment signal. Under kWhatIf this is exactly the old
  /// direct lifecycle call. Under an exec-backed signal, drift-origin
  /// decisions and tenants whose store exceeds the signal's cap fall back
  /// to the calibrated what-if estimate; full evaluations feed the
  /// tenant's observed/what-if calibration ratio.
  LifecycleDecision Judge(Tenant* t, const std::string& origin,
                          const std::vector<size_t>& candidate);
  /// Folds one full signal evaluation into the tenant's calibration ratio
  /// and republishes the calibration gauges.
  void UpdateCalibration(Tenant* t, const LifecycleDecision& decision);
  void PublishCalibration(Tenant* t);

  /// Blocks until the SessionManager delivered the run's result, then
  /// copies it into the pending entry.
  void EnsureResult(PendingTune* tune);
  /// Waits for every pending run's result (the drain step of shutdown
  /// and checkpointing).
  void EnsureAllResults();

  ServeCheckpoint BuildCheckpoint();
  Status RestoreFromCheckpoint(const ServeCheckpoint& ckpt);
  void MaybePeriodicCheckpoint();

  Counter* TenantCounter(const std::string& tenant, const char* what);

  ServeOptions options_;
  MetricsRegistry metrics_;
  Tracer tracer_;
  std::unique_ptr<SessionManager> manager_;
  /// Deployment signals + their shared execution engines; exec.* operator
  /// counters land in metrics_. Constructed lazily per kind, so a
  /// what-if-only daemon never materializes a column store.
  std::unique_ptr<SignalHub> hub_;

  /// Results crossing from the session pool's worker threads to the event
  /// loop, keyed by manager ticket.
  std::mutex results_mu_;
  std::condition_variable results_cv_;
  std::map<uint64_t, SessionResult> results_;

  // Event-loop state (single-threaded).
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::deque<PendingTune> pending_;
  double clock_ = 0.0;
  int64_t lines_seen_ = 0;
  int64_t skip_lines_ = 0;  ///< resume: input lines already applied
  int64_t events_processed_ = 0;
  uint64_t next_tune_id_ = 1;
  // Lifetime summary counters (mirrored into the checkpoint).
  int64_t queries_ = 0;
  int64_t tunes_submitted_ = 0;
  int64_t tunes_applied_ = 0;
  int64_t errors_ = 0;
  int64_t drift_retunes_ = 0;
  int64_t shipped_ = 0;
  int64_t rollbacks_ = 0;
};

/// JsonEscape (common/json.h) under its former serve-layer name, kept for
/// callers outside the library.
std::string ServeJsonEscape(const std::string& text);

/// Lower-kebab-case rendering of a status code for structured error lines
/// ("invalid-argument", "unavailable", ...).
const char* ServeStatusCodeName(StatusCode code);

}  // namespace bati

#endif  // BATI_SERVE_DAEMON_H_
