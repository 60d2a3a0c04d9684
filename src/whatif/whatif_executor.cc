#include "whatif/whatif_executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/macros.h"

namespace bati {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

double RetryPolicy::BackoffSeconds(int attempt) const {
  double backoff = initial_backoff_seconds;
  for (int i = 1; i < attempt; ++i) backoff *= backoff_multiplier;
  return std::min(backoff, max_backoff_seconds);
}

std::string RetryPolicy::ToIdentityString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "retry=attempts:%d,backoff:%g*%g<=%g,timeout:%g",
                max_attempts, initial_backoff_seconds, backoff_multiplier,
                max_backoff_seconds, call_timeout_seconds);
  return buf;
}

WhatIfExecutor::WhatIfExecutor(const WhatIfOptimizer* optimizer,
                               const Workload* workload,
                               const std::vector<Index>* candidates)
    : optimizer_(optimizer), workload_(workload), candidates_(candidates) {
  BATI_CHECK(optimizer_ != nullptr);
  BATI_CHECK(workload_ != nullptr);
  BATI_CHECK(candidates_ != nullptr);
}

void WhatIfExecutor::ConfigureFaults(const FaultInjector* injector,
                                     const RetryPolicy& policy) {
  BATI_CHECK(policy.max_attempts >= 1);
  BATI_CHECK(policy.initial_backoff_seconds >= 0.0);
  BATI_CHECK(policy.backoff_multiplier >= 1.0);
  BATI_CHECK(policy.call_timeout_seconds >= 0.0);
  injector_ = injector;
  retry_ = policy;
}

void WhatIfExecutor::SetObservability(MetricsRegistry* metrics,
                                      Tracer* tracer) {
  tracer_ = tracer;
  if (metrics == nullptr) return;
  // Instrument pointers are resolved once here so the hot path never takes
  // the registry mutex; recording is relaxed-atomic only.
  obs_cell_wall_us_ = metrics->GetHistogram(
      "whatif.cell_wall_us", ExponentialBuckets(0.25, 2.0, 32));
  obs_cell_sim_s_ = metrics->GetHistogram("whatif.cell_sim_s",
                                          ExponentialBuckets(1e-3, 2.0, 28));
  obs_batch_cells_ = metrics->GetHistogram("whatif.batch_cells",
                                           ExponentialBuckets(1.0, 2.0, 16));
  obs_batch_wall_us_ = metrics->GetHistogram(
      "whatif.batch_wall_us", ExponentialBuckets(1.0, 2.0, 32));
  obs_retry_attempts_ = metrics->GetHistogram(
      "whatif.retry_attempts", ExponentialBuckets(1.0, 2.0, 8));
}

std::vector<Index> WhatIfExecutor::Materialize(const Config& config) const {
  BATI_CHECK(config.universe_size() == candidates_->size());
  std::vector<Index> out;
  std::vector<size_t> positions = config.ToIndices();
  out.reserve(positions.size());
  for (size_t pos : positions) {
    out.push_back((*candidates_)[pos]);
  }
  return out;
}

WhatIfExecutor::Batch WhatIfExecutor::MaterializeBatch(
    const std::vector<CellRef>& cells) const {
  Batch batch;
  batch.config_of.reserve(cells.size());
  // Distinctness is by pointer, matching how CostService builds the batch.
  std::vector<const Config*> seen;
  for (const CellRef& cell : cells) {
    size_t idx = seen.size();
    for (size_t j = 0; j < seen.size(); ++j) {
      if (seen[j] == cell.config) {
        idx = j;
        break;
      }
    }
    if (idx == seen.size()) {
      seen.push_back(cell.config);
      batch.materialized.push_back(Materialize(*cell.config));
      batch.config_hashes.push_back(cell.config->Hash());
    }
    batch.config_of.push_back(idx);
  }
  return batch;
}

double WhatIfExecutor::ObservedCellCost(
    const Query& query, const std::vector<Index>& materialized) {
  if (obs_cell_wall_us_ == nullptr ||
      (obs_ticket_++ & kObsSampleMask) != 0) {
    return optimizer_->Cost(query, materialized);
  }
  const double t0 = NowSeconds();
  const double cost = optimizer_->Cost(query, materialized);
  obs_cell_wall_us_->Record((NowSeconds() - t0) * 1e6);
  return cost;
}

CellOutcome WhatIfExecutor::RunCellWithRetry(
    int query_id, const std::vector<Index>& materialized,
    uint64_t config_hash) const {
  const Query& query = workload_->queries[static_cast<size_t>(query_id)];
  const double base_latency = optimizer_->EstimateCallSeconds(query);
  CellOutcome out;
  if (injector_ == nullptr) {
    // No fault model configured: a single attempt that always succeeds.
    out.status = Status::Ok();
    out.cost = optimizer_->Cost(query, materialized);
    out.sim_seconds = base_latency;
    out.attempts = 1;
    return out;
  }
  for (int attempt = 1; attempt <= retry_.max_attempts; ++attempt) {
    out.attempts = attempt;
    const FaultDecision d = injector_->Decide(query_id, config_hash, attempt);
    const double latency = base_latency * d.latency_multiplier;
    const bool timed_out = retry_.call_timeout_seconds > 0.0 &&
                           latency > retry_.call_timeout_seconds;
    if (timed_out) {
      out.sim_seconds += retry_.call_timeout_seconds;
      out.status = Status::DeadlineExceeded("what-if call timed out");
      ++out.timeout_faults;
    } else if (d.kind == FaultKind::kTransient) {
      out.sim_seconds += latency;
      out.status = Status::Unavailable("transient what-if fault");
      ++out.transient_faults;
    } else if (d.kind == FaultKind::kSticky) {
      out.sim_seconds += latency;
      out.status = Status::Unavailable("sticky what-if fault");
      ++out.sticky_faults;
    } else {
      out.sim_seconds += latency;
      out.status = Status::Ok();
      out.cost = optimizer_->Cost(query, materialized);
      return out;
    }
    if (attempt < retry_.max_attempts) {
      out.sim_seconds += retry_.BackoffSeconds(attempt);
    }
  }
  return out;
}

double WhatIfExecutor::EvaluateCell(int query_id,
                                    const std::vector<size_t>& positions) {
  const double start = NowSeconds();
  std::vector<Index> materialized;
  materialized.reserve(positions.size());
  for (size_t pos : positions) {
    materialized.push_back((*candidates_)[pos]);
  }
  const Query& query = workload_->queries[static_cast<size_t>(query_id)];
  const double sim_start = simulated_seconds_;
  double cost = optimizer_->Cost(query, materialized);
  const double sim = optimizer_->EstimateCallSeconds(query);
  simulated_seconds_ += sim;
  const double wall = NowSeconds() - start;
  wall_seconds_ += wall;
  if (obs_cell_sim_s_ != nullptr || obs_cell_wall_us_ != nullptr ||
      tracer_ != nullptr) {
    if ((obs_ticket_++ & kObsSampleMask) == 0) {
      if (obs_cell_sim_s_ != nullptr) obs_cell_sim_s_->Record(sim);
      if (obs_cell_wall_us_ != nullptr) obs_cell_wall_us_->Record(wall * 1e6);
      if (tracer_ != nullptr) {
        const double wall_us = wall * 1e6;
        tracer_->Complete("whatif.call", "whatif", tracer_->NowUs() - wall_us,
                          wall_us, sim_start, sim,
                          {{"query", static_cast<double>(query_id)},
                           {"indexes", static_cast<double>(positions.size())}});
      }
    }
  }
  return cost;
}

std::vector<double> WhatIfExecutor::EvaluateCells(
    const std::vector<CellRef>& cells) {
  const double start = NowSeconds();
  const double sim_start = simulated_seconds_;
  const Batch batch = MaterializeBatch(cells);
  std::vector<double> out(cells.size(), 0.0);
  for (size_t i = 0; i < cells.size(); ++i) {
    const Query& query =
        workload_->queries[static_cast<size_t>(cells[i].query_id)];
    out[i] = ObservedCellCost(query, batch.materialized[batch.config_of[i]]);
    const double sim = optimizer_->EstimateCallSeconds(query);
    simulated_seconds_ += sim;
    if (obs_cell_sim_s_ != nullptr && (i & kObsSampleMask) == 0) {
      obs_cell_sim_s_->Record(sim);
    }
  }
  batched_cells_ += static_cast<int64_t>(cells.size());
  const double wall = NowSeconds() - start;
  wall_seconds_ += wall;
  ObserveBatch("whatif.batch", cells.size(), wall, sim_start);
  return out;
}

void WhatIfExecutor::ObserveBatch(const char* name, size_t cells, double wall,
                                  double sim_start) {
  if (obs_batch_cells_ != nullptr) {
    obs_batch_cells_->Record(static_cast<double>(cells));
  }
  if (obs_batch_wall_us_ != nullptr) obs_batch_wall_us_->Record(wall * 1e6);
  if (tracer_ != nullptr) {
    const double wall_us = wall * 1e6;
    tracer_->Complete(name, "whatif", tracer_->NowUs() - wall_us, wall_us,
                      sim_start, simulated_seconds_ - sim_start,
                      {{"cells", static_cast<double>(cells)}});
  }
}

void WhatIfExecutor::AccountOutcome(const CellOutcome& outcome) {
  simulated_seconds_ += outcome.sim_seconds;
  transient_faults_ += outcome.transient_faults;
  sticky_faults_ += outcome.sticky_faults;
  timeout_faults_ += outcome.timeout_faults;
  retry_attempts_ += outcome.attempts > 0 ? outcome.attempts - 1 : 0;
  if (obs_cell_sim_s_ != nullptr) obs_cell_sim_s_->Record(outcome.sim_seconds);
  if (obs_retry_attempts_ != nullptr) {
    obs_retry_attempts_->Record(static_cast<double>(outcome.attempts));
  }
  if (tracer_ != nullptr &&
      (outcome.attempts > 1 || !outcome.status.ok())) {
    tracer_->Instant(
        outcome.status.ok() ? "whatif.retry" : "whatif.cell_failed", "fault",
        simulated_seconds_,
        {{"attempts", static_cast<double>(outcome.attempts)},
         {"transient", static_cast<double>(outcome.transient_faults)},
         {"sticky", static_cast<double>(outcome.sticky_faults)},
         {"timeouts", static_cast<double>(outcome.timeout_faults)}});
  }
}

CellOutcome WhatIfExecutor::EvaluateCellWithRetry(
    int query_id, const std::vector<size_t>& positions,
    uint64_t config_hash) {
  const double start = NowSeconds();
  std::vector<Index> materialized;
  materialized.reserve(positions.size());
  for (size_t pos : positions) {
    materialized.push_back((*candidates_)[pos]);
  }
  CellOutcome out = RunCellWithRetry(query_id, materialized, config_hash);
  AccountOutcome(out);
  wall_seconds_ += NowSeconds() - start;
  return out;
}

std::vector<CellOutcome> WhatIfExecutor::EvaluateCellsWithRetry(
    const std::vector<CellRef>& cells) {
  const double start = NowSeconds();
  const double sim_start = simulated_seconds_;
  const Batch batch = MaterializeBatch(cells);
  std::vector<CellOutcome> out(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    const size_t c = batch.config_of[i];
    out[i] = RunCellWithRetry(cells[i].query_id, batch.materialized[c],
                              batch.config_hashes[c]);
    AccountOutcome(out[i]);
  }
  batched_cells_ += static_cast<int64_t>(cells.size());
  const double wall = NowSeconds() - start;
  wall_seconds_ += wall;
  ObserveBatch("whatif.batch_retry", cells.size(), wall, sim_start);
  return out;
}

double WhatIfExecutor::TrueCost(
    const Query& query, const std::vector<Index>& materialized) const {
  return optimizer_->Cost(query, materialized);
}

}  // namespace bati
