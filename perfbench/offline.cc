// Offline tuning workloads: one bundle, several algorithms run one after
// another, each on a fresh CostService at B=5000, K=10 — the shape of a
// `bati_tune` invocation per algorithm.

#include <bit>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "session/tuning_session.h"
#include "spans.h"
#include "whatif/trace_io.h"

namespace perfbench {

namespace {

constexpr int64_t kBudget = 5000;
constexpr int kMaxIndexes = 10;
/// Tuners run with bati_tune's default seed. The tuner seed moves No-DBA's
/// Real-D result between about 1% and 82% improvement, so a per-run seed
/// would swamp the quality gate. The workload seed still reaches the
/// workload generator (Real-M's and Real-D's schemas use fixed seeds of
/// their own).
constexpr uint64_t kTunerSeed = 1;

struct Algorithm {
  const char* module;  ///< the src/ module holding the tuner
  const char* name;    ///< MakeTuner() name
  /// Runs per untraced pass. A run of a third of a second sees the host's
  /// speed of that moment, which swings by a third over seconds on a shared
  /// host. Short algorithms therefore run several times, half of them at
  /// the start of the pass and half at its end, and their latency is the
  /// median of samples spread over the whole run.
  int reps = 1;
};

struct OfflineWorkload {
  const char* bundle;
  std::vector<Algorithm> algorithms;
  double nominal_pass_s;  ///< one pass on a 4-core x86 box
};

OfflineWorkload Lookup(const std::string& name) {
  if (name == "realm-offline") {
    return {"real-m",
            {{"tuner", "vanilla-greedy"},
             {"tuner", "two-phase-greedy", 2},
             {"tuner", "autoadmin-greedy", 2},
             {"mcts", "mcts"}},
            16.0};
  }
  return {"real-d",
          {{"dqn", "no-dba"},
           {"bandit", "dba-bandits", 4},
           {"mcts", "mcts", 4}},
          11.0};
}

/// One algorithm's run within one pass.
struct RunRecord {
  size_t algo = 0;        ///< index into OfflineWorkload::algorithms
  double init_s = 0.0;    ///< CostService construction
  double tune_s = 0.0;    ///< MakeTuner() + Tune()
  double report_s = 0.0;  ///< TrueImprovement() + ResultToJson()
  double op_s = 0.0;      ///< construction through the result line
  /// Engine counters frozen the moment Tune() returned.
  bati::CostEngineStats stats;
  int64_t rounds = 0;
  int64_t report_lookups = 0;  ///< derived lookups made after Tune()
  double improvement = 0.0;
  std::string result_line;
  double probe_s = 0.0;
  int64_t probes = 0;
};

struct PassRecord {
  std::vector<RunRecord> runs;
  double wall_s = 0.0;  ///< excludes output checks and the index probe
  int root_span = -1;
};

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Re-costs the recommended configuration with the reference optimizer
/// and requires the fast path to agree bit for bit, query by query and in
/// the workload total the service reports.
void CheckRecost(const bati::WorkloadBundle& bundle,
                 const bati::CostService& service, const bati::Config& config,
                 const std::string& label, WorkloadResult* result) {
  const std::vector<bati::Index> indexes = service.Materialize(config);
  double total = 0.0;
  for (const bati::Query& q : bundle.workload.queries) {
    const double fast = bundle.optimizer->Cost(q, indexes);
    const double ref =
        bundle.optimizer->ExplainReference(q, indexes).total_cost;
    if (!SameBits(fast, ref)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s: query %d costs %.17g fast, %.17g reference",
                    label.c_str(), q.id, fast, ref);
      result->Fail(buf);
      return;
    }
    total += ref;
  }
  if (!SameBits(total, service.TrueWorkloadCost(config))) {
    result->Fail(label + ": reference workload cost differs from the service");
  }
}

/// Times DerivedCostWithAdd over every (candidate outside the config,
/// query) pair, and checks each answer never exceeds d(q, C).
void ProbeIndex(const bati::CostService& service, const bati::Config& config,
                const std::string& label, RunRecord* run,
                WorkloadResult* result) {
  const std::vector<double> base = service.DerivedCosts(config);
  const int nq = service.num_queries();
  int64_t above = 0;
  const double start = Now();
  for (size_t pos = 0; pos < config.universe_size(); ++pos) {
    if (config.test(pos)) continue;
    for (int q = 0; q < nq; ++q) {
      if (service.DerivedCostWithAdd(q, config, pos, base[q]) > base[q]) {
        ++above;
      }
      ++run->probes;
    }
  }
  run->probe_s = Now() - start;
  if (above > 0) {
    result->Fail(label + ": " + std::to_string(above) +
                 " derived probes rose above d(q, C)");
  }
}

/// Runs every algorithm of `spec` once in order, or, when `repeat` is set,
/// the repeated ones reps / 2 times first, then the others, then the
/// repeated ones again.
PassRecord RunPass(const bati::WorkloadBundle& bundle,
                   const OfflineWorkload& spec, bool repeat,
                   SpanRecorder* rec, WorkloadResult* result) {
  // Every pass starts cold, as one bati_tune process does.
  bundle.optimizer->ClearPlanMemo();
  bati::TuningContext ctx;
  ctx.workload = &bundle.workload;
  ctx.candidates = &bundle.candidates;
  ctx.constraints.max_indexes = kMaxIndexes;

  PassRecord pass;
  double excluded = 0.0;
  const double start = Now();
  ScopedSpan root(rec, "pass", "unattributed");
  pass.root_span = root.id();
  std::vector<size_t> order;
  for (size_t a = 0; a < spec.algorithms.size(); ++a) {
    const int reps = spec.algorithms[a].reps;
    if (repeat && reps > 1) order.insert(order.end(), reps / 2, a);
  }
  for (size_t a = 0; a < spec.algorithms.size(); ++a) {
    const int reps = spec.algorithms[a].reps;
    if (!repeat || reps == 1) order.push_back(a);
  }
  for (size_t a = 0; a < spec.algorithms.size(); ++a) {
    const int reps = spec.algorithms[a].reps;
    if (repeat && reps > 1) order.insert(order.end(), reps - reps / 2, a);
  }
  for (size_t a : order) {
    const Algorithm& algo = spec.algorithms[a];
    RunRecord run;
    run.algo = a;
    ScopedSpan run_span(rec, algo.name, "unattributed");
    const double t0 = Now();
    std::unique_ptr<bati::CostService> service;
    {
      ScopedSpan s(rec, "CostService", "whatif");
      service = std::make_unique<bati::CostService>(
          bundle.optimizer.get(), &bundle.workload,
          &bundle.candidates.indexes, kBudget);
    }
    const double t1 = Now();
    std::unique_ptr<bati::Tuner> tuner;
    bati::TuningResult tuned;
    {
      ScopedSpan s(rec, std::string(algo.module) + ".Tune", "tuner");
      tuner = bati::MakeTuner(algo.name, ctx, kTunerSeed);
      tuned = tuner->Tune(*service);
      run.stats = service->EngineStats();
      rec->Carve(s.id(), "whatif", run.stats.executor_wall_seconds);
    }
    const double t2 = Now();
    {
      ScopedSpan s(rec, "report", "report");
      run.improvement = service->TrueImprovement(tuned.best_config);
      run.result_line = bati::ResultToJson(
          *service, bundle.workload, tuner->name(), tuned.best_config,
          run.improvement, nullptr, /*canonical=*/true);
    }
    const double t3 = Now();
    run.report_lookups =
        service->EngineStats().derived_lookups - run.stats.derived_lookups;
    if (const std::vector<double>* trace = tuner->progress_trace()) {
      run.rounds = static_cast<int64_t>(trace->size());
    }
    run.init_s = t1 - t0;
    run.tune_s = t2 - t1;
    run.report_s = t3 - t2;
    run.op_s = t3 - t0;

    const double c0 = Now();
    {
      ScopedSpan s(rec, "check", "check");
      CheckRecost(bundle, *service, tuned.best_config, algo.name, result);
    }
    if (rec->enabled()) {
      ScopedSpan s(rec, "probe", "index");
      ProbeIndex(*service, tuned.best_config, algo.name, &run, result);
    }
    excluded += Now() - c0;
    tuner.reset();
    service.reset();
    pass.runs.push_back(std::move(run));
  }
  pass.wall_s = Now() - start - excluded;
  return pass;
}

/// The counts of one run that must repeat exactly from run to run of the
/// same algorithm (and from invocation to invocation at the same seed).
std::vector<std::pair<std::string, double>> RunCounts(
    const OfflineWorkload& spec, const RunRecord& r) {
  const std::string p = spec.algorithms[r.algo].name + std::string(".");
  return {
      {p + "whatif.calls", r.stats.what_if_calls},
      {p + "whatif.cache_hits", r.stats.cache_hits},
      {p + "whatif.batched_cells", r.stats.batched_cells},
      {p + "index.derived_lookups", r.stats.derived_lookups},
      {p + "index.delta_lookups", r.stats.delta_lookups},
      {p + "index.scanned_entries", r.stats.index_scanned_entries},
      {p + "index.pruned_entries", r.stats.index_pruned_entries},
      {p + "whatif.sim_s", r.stats.simulated_whatif_seconds},
      {p + "rounds", static_cast<double>(r.rounds)},
      {p + "report.derived_lookups", static_cast<double>(r.report_lookups)},
      {p + "improvement_pct", r.improvement},
  };
}

}  // namespace

WorkloadResult RunOffline(const std::string& name, const RunSettings& run) {
  const OfflineWorkload spec = Lookup(name);
  WorkloadResult result;
  SpanRecorder rec(run.trace);
  SpanRecorder off(false);

  // Only one bundle is alive at a time, so the set-up's peak memory is that
  // of the one build a bati_tune process makes.
  std::vector<double> setup, build, init, candgen;
  std::vector<std::vector<int>> first_per_query;
  TimedBundle kept;
  for (int i = 0; i < kSetupReps; ++i) {
    ScopedSpan s(&rec, "bundle-build", "bundle");
    kept = TimedBundle();
    kept = BuildBundle(spec.bundle, run.seed);
    build.push_back(kept.workload_s);
    init.push_back(kept.optimizer_s);
    candgen.push_back(kept.candgen_s);
    setup.push_back(kept.workload_s + kept.optimizer_s + kept.candgen_s);
    if (i == 0) {
      first_per_query = kept.bundle->candidates.per_query;
    } else if (kept.bundle->candidates.per_query != first_per_query) {
      result.Fail(name + ": bundle builds differ between set-up repetitions");
    }
  }
  const bati::WorkloadBundle& bundle = *kept.bundle;

  // A traced run makes one untraced and one traced pass; their wall-time
  // difference is the tracing overhead. Peak RSS is read after the first
  // pass: the peak of one set-up and one pass, as of one bati_tune run per
  // algorithm, whatever the pass count.
  std::vector<PassRecord> passes;
  double peak_rss_mb = 0.0;
  const int pass_count = PassCount(run, spec.nominal_pass_s);
  for (int p = 0; p < pass_count; ++p) {
    const bool traced = run.trace && p == 1;
    passes.push_back(RunPass(bundle, spec, !run.trace,
                             traced ? &rec : &off, &result));
    if (p == 0) peak_rss_mb = PeakRssMb();
  }

  // Pass 0's first run of each algorithm is the reference every other run
  // of that algorithm must repeat exactly.
  std::vector<const RunRecord*> first(spec.algorithms.size(), nullptr);
  for (const RunRecord& r : passes[0].runs) {
    if (first[r.algo] == nullptr) first[r.algo] = &r;
  }
  double improvement = 0.0;
  for (const RunRecord* r : first) {
    const auto counts = RunCounts(spec, *r);
    result.counts.insert(result.counts.end(), counts.begin(), counts.end());
    improvement += r->improvement;
  }
  improvement /= static_cast<double>(first.size());
  for (size_t p = 0; p < passes.size(); ++p) {
    result.attempted += static_cast<int64_t>(passes[p].runs.size());
    for (const RunRecord& r : passes[p].runs) {
      const RunRecord& ref = *first[r.algo];
      const std::string label = name + ": pass " + std::to_string(p) + " " +
                                spec.algorithms[r.algo].name;
      if (RunCounts(spec, r) != RunCounts(spec, ref)) {
        result.Fail(label + " counts differ from its first run");
      }
      if (r.result_line != ref.result_line) {
        result.Fail(label + " result line differs from its first run");
      }
    }
  }

  if (!run.trace) {
    // Each algorithm's run latency is the median of its runs over all
    // passes, so one run slowed by a noisy neighbour moves no figure.
    // tune_s sums them; with fewer than a thousand runs, the p99.9 run
    // latency is the slowest algorithm's.
    std::vector<std::vector<double>> samples(spec.algorithms.size());
    for (size_t p = 0; p < passes.size(); ++p) {
      for (const RunRecord& r : passes[p].runs) {
        const Algorithm& algo = spec.algorithms[r.algo];
        std::vector<double>& mine = samples[r.algo];
        const size_t rep = mine.size() % algo.reps;
        result.Note("pass" + std::to_string(p) + "." + algo.name + "." +
                        std::to_string(rep) + ".s",
                    r.op_s);
        mine.push_back(r.op_s);
      }
    }
    std::vector<double> latencies;
    for (const std::vector<double>& mine : samples) {
      latencies.push_back(Median(mine));
    }
    double tune_s = 0.0;
    for (double s : latencies) tune_s += s;
    result.Add("setup_s", Median(setup), "s");
    result.Add("tune_s", tune_s, "s");
    result.Add("improvement_pct", improvement, "%");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    result.Add("events_per_s", static_cast<double>(latencies.size()) / tune_s,
               "1/s");
    result.Add("event_p50_us", Median(latencies) * 1e6, "us");
    result.Add("event_p999_ms", Percentile(latencies, 0.999) * 1e3, "ms");
    result.Note("samples.passes", static_cast<double>(passes.size()));
    for (size_t a = 0; a < samples.size(); ++a) {
      result.Note(std::string("samples.") + spec.algorithms[a].name,
                  static_cast<double>(samples[a].size()));
    }
    return result;
  }

  const PassRecord& traced = passes[1];
  result.Add("workload.build_s", Median(build), "s");
  result.Add("optimizer.init_s", Median(init), "s");
  result.Add("tuner.candgen_s", Median(candgen), "s");
  result.Add("tuner.candidates", bundle.candidates.size(), "count");
  result.Add("tuner.candidate_density", CandidateDensity(bundle), "ratio");

  bati::CostEngineStats sum;
  double init_s = 0.0, report_s = 0.0, probe_s = 0.0;
  int64_t probes = 0, report_lookups = 0;
  for (const RunRecord& r : traced.runs) {
    const std::string p = std::string(spec.algorithms[r.algo].module) + "." +
                          spec.algorithms[r.algo].name + ".";
    result.Add(p + "tune_s", r.tune_s, "s");
    result.Add(p + "rounds", static_cast<double>(r.rounds), "count");
    result.Add(p + "self_s", r.tune_s - r.stats.executor_wall_seconds, "s");
    sum.what_if_calls += r.stats.what_if_calls;
    sum.cache_hits += r.stats.cache_hits;
    sum.batched_cells += r.stats.batched_cells;
    sum.derived_lookups += r.stats.derived_lookups;
    sum.delta_lookups += r.stats.delta_lookups;
    sum.index_scanned_entries += r.stats.index_scanned_entries;
    sum.index_pruned_entries += r.stats.index_pruned_entries;
    sum.executor_wall_seconds += r.stats.executor_wall_seconds;
    sum.simulated_whatif_seconds += r.stats.simulated_whatif_seconds;
    init_s += r.init_s;
    report_s += r.report_s;
    report_lookups += r.report_lookups;
    probe_s += r.probe_s;
    probes += r.probes;
  }
  result.Add("whatif.init_s", init_s, "s");
  result.Add("whatif.calls", sum.what_if_calls, "count");
  result.Add("whatif.cache_hits", sum.cache_hits, "count");
  result.Add("whatif.batched_cells", sum.batched_cells, "count");
  result.Add("whatif.exec_s", sum.executor_wall_seconds, "s");
  result.Add("whatif.sim_s", sum.simulated_whatif_seconds, "s");
  result.Add("whatif.index.derived_lookups", sum.derived_lookups, "count");
  result.Add("whatif.index.delta_lookups", sum.delta_lookups, "count");
  result.Add("whatif.index.scanned_entries", sum.index_scanned_entries,
             "count");
  result.Add("whatif.index.pruned_entries", sum.index_pruned_entries,
             "count");
  const double visited = static_cast<double>(sum.index_scanned_entries +
                                             sum.index_pruned_entries);
  result.Add("whatif.index.scan_ratio",
             visited > 0 ? sum.index_scanned_entries / visited : 0.0,
             "ratio");
  result.Add("whatif.index.probe_ns",
             probes > 0 ? probe_s / static_cast<double>(probes) * 1e9 : 0.0,
             "ns");
  result.Add("report.s", report_s, "s");
  result.Add("report.derived_lookups", static_cast<double>(report_lookups),
             "count");

  const std::map<std::string, double> self = rec.SelfSeconds(traced.root_span);
  const auto layer = [&self](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  result.Add("trace.self.bundle_s", Median(setup), "s");
  result.Add("trace.self.whatif_s", layer("whatif"), "s");
  result.Add("trace.self.tuner_s", layer("tuner"), "s");
  result.Add("trace.self.index_s", layer("index"), "s");
  result.Add("trace.self.report_s", layer("report"), "s");
  result.Add("trace.unattributed_s", layer("unattributed"), "s");
  result.Add("trace.wall_s", traced.wall_s, "s");
  result.Add("trace.overhead_s", traced.wall_s - passes[0].wall_s, "s");
  return result;
}

}  // namespace perfbench
