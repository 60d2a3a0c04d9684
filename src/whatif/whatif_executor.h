#ifndef BATI_WHATIF_WHATIF_EXECUTOR_H_
#define BATI_WHATIF_WHATIF_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "faults/fault_injector.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "optimizer/what_if.h"
#include "whatif/budget_meter.h"

namespace bati {

/// How the executor retries a what-if call that an injected fault made
/// fail. Backoff and timeout run on the *simulated* clock (the paper's
/// Figure 2 "time spent on what-if calls"): failed attempts and the waits
/// between them burn simulated seconds but never real wall time, and —
/// crucially for the budget semantics — a cell is charged against the
/// what-if budget only when an attempt finally succeeds.
struct RetryPolicy {
  /// Total attempts per cell (first try included). Must be >= 1.
  int max_attempts = 4;
  /// Simulated backoff before the second attempt; doubles (capped) after.
  double initial_backoff_seconds = 0.25;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 4.0;
  /// Per-attempt timeout on the simulated clock: an attempt whose simulated
  /// latency exceeds this fails with DeadlineExceeded after burning exactly
  /// the timeout. 0 disables the timeout.
  double call_timeout_seconds = 8.0;

  /// Simulated backoff after failed attempt `attempt` (1-based).
  double BackoffSeconds(int attempt) const;
  /// One-line rendering, stamped into run identities.
  std::string ToIdentityString() const;
};

/// The final result of evaluating one cell through the retry loop.
struct CellOutcome {
  /// Ok, Unavailable (transient or sticky fault on the last attempt), or
  /// DeadlineExceeded (last attempt timed out).
  Status status;
  /// The what-if cost; meaningful only when status.ok().
  double cost = 0.0;
  /// Simulated seconds burned by every attempt (latency or timeout) plus
  /// the backoffs between them.
  double sim_seconds = 0.0;
  /// Attempts made (1 when the first try succeeded).
  int attempts = 0;
  /// Failed attempts by kind; attempts == transient + sticky + timeouts
  /// + (status.ok() ? 1 : 0).
  int transient_faults = 0;
  int sticky_faults = 0;
  int timeout_faults = 0;
};

/// The execution layer of the cost engine: wraps the what-if optimizer and
/// owns configuration materialization, simulated-latency accounting (the
/// paper's Figure 2 "time spent on what-if calls"), real wall-clock
/// accounting for observability, and — when a FaultInjector is configured —
/// the retry/backoff loop around every optimizer invocation.
///
/// The executor never meters anything itself — callers (the CostService
/// façade) charge the BudgetMeter around the executor: *before* dispatch on
/// the fault-free path, and *after* a successful outcome on the
/// fault-injected path (failed cells are never charged). The batched
/// EvaluateCells()/EvaluateCellsWithRetry() entry points are plain loops
/// over the per-cell code in input order; they exist to materialize each
/// distinct configuration once per batch and to observe the batch as one
/// unit. An executor belongs to one cost service and is used by one thread.
class WhatIfExecutor {
 public:
  /// A (query, configuration) cell to evaluate. `config` must outlive the
  /// EvaluateCells() call.
  struct CellRef {
    int query_id = -1;
    const Config* config = nullptr;
  };

  /// `optimizer`, `workload`, `candidates` must outlive the executor.
  WhatIfExecutor(const WhatIfOptimizer* optimizer, const Workload* workload,
                 const std::vector<Index>* candidates);

  WhatIfExecutor(const WhatIfExecutor&) = delete;
  WhatIfExecutor& operator=(const WhatIfExecutor&) = delete;

  /// Arms fault injection: every *WithRetry evaluation consults `injector`
  /// (which must outlive the executor) and retries per `policy`. Must be
  /// called before the first evaluation.
  void ConfigureFaults(const FaultInjector* injector,
                       const RetryPolicy& policy);

  /// Wires the executor's observability instruments (either argument may be
  /// null; both must outlive the executor). Evaluations then record per-cell
  /// and per-batch latency histograms and span/retry trace events — pure
  /// observation behind null-pointer guards, so an unwired executor runs the
  /// exact pre-observability code. Must be called before the first
  /// evaluation, like ConfigureFaults().
  void SetObservability(MetricsRegistry* metrics, Tracer* tracer);

  /// Materializes a configuration into concrete index definitions.
  std::vector<Index> Materialize(const Config& config) const;

  /// Evaluates one cell given the configuration's member positions — the
  /// caller already computed ToIndices(), so the index list is materialized
  /// exactly once. Accumulates simulated and wall-clock seconds. Fault-free
  /// path: never consults the injector.
  double EvaluateCell(int query_id, const std::vector<size_t>& positions);

  /// Evaluates a batch of independent cells in input order, returning their
  /// costs. Results and every accumulated statistic are identical to
  /// evaluating the cells one by one (the optimizer is pure and simulated
  /// seconds are summed in input order). Fault-free path.
  std::vector<double> EvaluateCells(const std::vector<CellRef>& cells);

  /// Evaluates one cell through the fault-injected retry loop.
  /// `config_hash` is Config::Hash() of the cell's configuration (the fault
  /// schedule's cell key). Burns the outcome's simulated seconds; never
  /// touches the budget.
  CellOutcome EvaluateCellWithRetry(int query_id,
                                    const std::vector<size_t>& positions,
                                    uint64_t config_hash);

  /// Batched equivalent of EvaluateCellWithRetry, in input order. The fault
  /// schedule is a pure per-(cell, attempt) function, so outcomes — costs,
  /// failures, attempt counts, and per-cell simulated seconds — are
  /// bit-identical to the one-by-one loop.
  std::vector<CellOutcome> EvaluateCellsWithRetry(
      const std::vector<CellRef>& cells);

  /// Uncounted ground-truth cost of one query (evaluation only).
  double TrueCost(const Query& query,
                  const std::vector<Index>& materialized) const;

  /// Simulated seconds spent inside counted what-if calls so far.
  double simulated_seconds() const { return simulated_seconds_; }

  /// Credits simulated seconds recorded by a checkpoint's event journal
  /// while the cost engine replays a resumed run (the optimizer is not
  /// re-invoked, so the executor would otherwise lose the prefix's time).
  void AccumulateReplaySimSeconds(double seconds) {
    simulated_seconds_ += seconds;
  }

  /// Restores the fault counters recorded in a checkpoint. Replay never
  /// consults the fault injector, so a resumed run re-seeds the counters
  /// here and then accumulates live faults on top.
  void RestoreFaultCounters(int64_t transient, int64_t sticky,
                            int64_t timeouts, int64_t retries) {
    transient_faults_ = transient;
    sticky_faults_ = sticky;
    timeout_faults_ = timeouts;
    retry_attempts_ = retries;
  }

  /// Real wall-clock seconds spent inside the executor so far.
  double wall_seconds() const { return wall_seconds_; }

  /// Cells that went through a batched entry point.
  int64_t batched_cells() const { return batched_cells_; }

  /// Retry-loop observability: failed attempts by kind, and retries (every
  /// attempt after a cell's first).
  int64_t transient_faults() const { return transient_faults_; }
  int64_t sticky_faults() const { return sticky_faults_; }
  int64_t timeout_faults() const { return timeout_faults_; }
  int64_t retry_attempts() const { return retry_attempts_; }

  /// Per-cell wall timings and per-call trace spans are recorded for one
  /// cell in every (kObsSampleMask + 1): the clock reads and the tracer's
  /// mutex would otherwise dominate the micro-second simulated what-if call
  /// itself. Sampling is by an observation-only ticket counter, so it can
  /// never feed back into the run. Simulated-clock histograms and batch- and
  /// round-level spans are not sampled — they stay complete.
  static constexpr uint64_t kObsSampleMask = 15;

 private:
  /// A batch's distinct configurations, each materialized exactly once (in
  /// practice all cells share a single one).
  struct Batch {
    /// Per cell: index into `materialized` and `config_hashes`.
    std::vector<size_t> config_of;
    std::vector<std::vector<Index>> materialized;
    std::vector<uint64_t> config_hashes;
  };

  Batch MaterializeBatch(const std::vector<CellRef>& cells) const;
  /// The optimizer cost of one cell, plus its wall latency in the per-cell
  /// histogram for every sampled ticket.
  double ObservedCellCost(const Query& query,
                          const std::vector<Index>& materialized);
  /// The retry loop for one cell: a pure function of the cell and the fault
  /// schedule (plus the stateless optimizer).
  CellOutcome RunCellWithRetry(int query_id,
                               const std::vector<Index>& materialized,
                               uint64_t config_hash) const;
  /// Merges one outcome's counters into the executor totals.
  void AccountOutcome(const CellOutcome& outcome);
  /// Batch-level observability: size/latency histograms plus a Complete
  /// span covering the whole batch.
  void ObserveBatch(const char* name, size_t cells, double wall,
                    double sim_start);

  const WhatIfOptimizer* optimizer_;
  const Workload* workload_;
  const std::vector<Index>* candidates_;
  const FaultInjector* injector_ = nullptr;
  RetryPolicy retry_;
  // Observability instruments; all null (and every guard dead) until
  // SetObservability() wires them.
  Tracer* tracer_ = nullptr;
  LatencyHistogram* obs_cell_wall_us_ = nullptr;
  LatencyHistogram* obs_cell_sim_s_ = nullptr;
  LatencyHistogram* obs_batch_cells_ = nullptr;
  LatencyHistogram* obs_batch_wall_us_ = nullptr;
  LatencyHistogram* obs_retry_attempts_ = nullptr;
  /// Sampling ticket for per-cell wall timings/spans. Never read by engine
  /// logic.
  uint64_t obs_ticket_ = 0;
  double simulated_seconds_ = 0.0;
  double wall_seconds_ = 0.0;
  int64_t batched_cells_ = 0;
  int64_t transient_faults_ = 0;
  int64_t sticky_faults_ = 0;
  int64_t timeout_faults_ = 0;
  int64_t retry_attempts_ = 0;
};

}  // namespace bati

#endif  // BATI_WHATIF_WHATIF_EXECUTOR_H_
