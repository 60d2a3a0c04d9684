// The serve-drift workload: a seeded multi-tenant event stream replayed
// through ServeDaemon as a closed loop with one caller — the next line is
// handed over only after ProcessLine() returned, the way bati_serve reads
// its pipe. Each tenant's hot query set moves in 32 phases, so the
// daemon keeps re-tuning on live-window sub-bundles while it answers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

#include "bench.h"
#include "common/rng.h"
#include "common/strings.h"
#include "exec/store_cache.h"
#include "serve/daemon.h"
#include "spans.h"

namespace perfbench {

namespace {

struct TenantPlan {
  const char* tenant;
  const char* workload;
  const char* algorithm;
  int budget;
};

/// The drifting tenants.
constexpr TenantPlan kTenants[] = {
    {"tpch", "tpch", "mcts", 300},
    {"tpcds", "tpcds", "two-phase-greedy", 400},
    {"job", "job", "autoadmin-greedy", 350},
    {"realm", "real-m", "mcts", 500},
};
/// The drill tenant: a tuned toy configuration that operator drills try to
/// replace with the empty one, which the exec-judged lifecycle must refuse.
constexpr TenantPlan kDrill = {"drill", "toy", "vanilla-greedy", 40};
constexpr const char* kBundles[] = {"tpch", "tpcds", "job", "real-m", "toy"};

/// Short phases make the daemon re-tune often: about 295 drift re-tunes a
/// pass, and about 80 events that wait on a tuning result. p99.9 of the
/// 40,965 events is the 41st slowest, so it falls inside those stalls. With
/// four phases of a 20,485-event stream there were about 16 stalls, fewer
/// than the 21 events beyond p99.9; p99.9 then sat on the edge between the
/// stalls and the plain queries and jumped between 1.4 and 4.1 ms with the
/// seed.
constexpr int kPhases = 32;
constexpr int kEventsPerPhase = 1280;
constexpr int kHotQueries = 12;
constexpr double kHotShare = 0.9;
/// One event in this many goes to the drill tenant's (uniform) queries.
constexpr int kDrillQueryEvery = 40;
/// Deploy drills replace every kDrillEvery-th event from kFirstDrill on,
/// once the drill tenant's first configuration has shipped: four drills.
constexpr int kFirstDrill = 1500;
constexpr int kDrillEvery = kPhases * kEventsPerPhase / 4;
constexpr int kParallelism = 2;
/// One pass (replay of the whole stream) on a 4-core x86 box.
constexpr double kNominalPassSeconds = 14.0;

enum class EventKind { kRegister, kQuery, kDeploy };

struct StreamEvent {
  EventKind kind;
  std::string line;
};

/// Uniform integer in [0, n).
int Pick(bati::Rng* rng, int n) {
  return static_cast<int>(rng->UniformInt(0, n - 1));
}

std::vector<StreamEvent> MakeStream(uint64_t seed,
                                    const std::map<std::string, int>& sizes) {
  bati::Rng rng(seed ^ 0x5E27EDA1F7ULL);
  std::vector<StreamEvent> stream;
  const auto reg = [&](const TenantPlan& t) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"type\":\"register\",\"tenant\":\"%s\",\"workload\":"
                  "\"%s\",\"algorithm\":\"%s\",\"budget\":%d,\"seed\":%llu,"
                  "\"queue_quota\":16,\"tune\":true}",
                  t.tenant, t.workload, t.algorithm, t.budget,
                  static_cast<unsigned long long>(seed));
    stream.push_back({EventKind::kRegister, buf});
  };
  for (const TenantPlan& t : kTenants) reg(t);
  reg(kDrill);

  const auto query = [&](const char* tenant, int q) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "{\"type\":\"query\",\"tenant\":\"%s\",\"query\":%d}",
                  tenant, q);
    stream.push_back({EventKind::kQuery, buf});
  };
  for (int phase = 0; phase < kPhases; ++phase) {
    const int first = phase * kEventsPerPhase;
    std::vector<std::vector<int>> hot;
    for (const TenantPlan& t : kTenants) {
      const int n = sizes.at(t.workload);
      std::vector<int> set;
      while (static_cast<int>(set.size()) < std::min(kHotQueries, n)) {
        const int q = Pick(&rng, n);
        if (std::find(set.begin(), set.end(), q) == set.end()) {
          set.push_back(q);
        }
      }
      hot.push_back(std::move(set));
    }
    for (int i = 0; i < kEventsPerPhase; ++i) {
      const int g = first + i;
      if (g >= kFirstDrill && (g - kFirstDrill) % kDrillEvery == 0) {
        stream.push_back(
            {EventKind::kDeploy,
             std::string("{\"type\":\"deploy\",\"tenant\":\"") +
                 kDrill.tenant + "\",\"config\":\"\"}"});
        continue;
      }
      if (Pick(&rng, kDrillQueryEvery) == 0) {
        query(kDrill.tenant, Pick(&rng, sizes.at(kDrill.workload)));
        continue;
      }
      const int t = Pick(&rng, static_cast<int>(std::size(kTenants)));
      const int n = sizes.at(kTenants[t].workload);
      query(kTenants[t].tenant,
            rng.Bernoulli(kHotShare)
                ? hot[t][Pick(&rng, static_cast<int>(hot[t].size()))]
                : Pick(&rng, n));
    }
  }
  return stream;
}

/// The non-empty lines of a ProcessLine() answer.
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines = bati::Split(text, '\n');
  lines.erase(std::remove(lines.begin(), lines.end(), std::string()),
              lines.end());
  return lines;
}

bool HasType(const std::string& line, const char* type) {
  return bati::StartsWith(line, std::string("{\"type\":\"") + type + "\"");
}

/// The numeric value after `"key":` in a flat JSON line, or NaN.
double NumberField(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

struct PassRecord {
  double wall_s = 0.0;    ///< daemon construction through Finish()
  double stream_s = 0.0;  ///< first ProcessLine() through Finish()
  std::vector<double> event_s;
  std::vector<double> query_s, retune_s, deploy_s;
  double stall_s = 0.0;
  std::string output;
  double improvement_sum = 0.0;
  int64_t tune_results = 0;
  /// Improvement of the registration tunes (each tenant's full workload).
  double register_improvement_sum = 0.0;
  int64_t register_results = 0;
  bati::MetricsSnapshot metrics;
  int root_span = -1;
};

PassRecord RunPass(const std::vector<StreamEvent>& stream,
                   const std::vector<const bati::WorkloadBundle*>& bundles,
                   SpanRecorder* rec, WorkloadResult* result) {
  // Every pass starts cold, as one bati_serve process does.
  for (const bati::WorkloadBundle* b : bundles) b->optimizer->ClearPlanMemo();
  PassRecord pass;
  const double start = Now();
  ScopedSpan root(rec, "stream", "unattributed");
  pass.root_span = root.id();
  bati::ServeOptions options;
  options.parallelism = kParallelism;
  options.signal = bati::SignalKind::kDeterministicExec;
  auto daemon = std::make_unique<bati::ServeDaemon>(options);
  const double stream_start = Now();
  std::string out;
  const auto check_tune_results = [&](const std::vector<std::string>& lines) {
    for (const std::string& line : lines) {
      if (!HasType(line, "tune-result")) continue;
      ++pass.tune_results;
      if (line.find("\"status\":\"error\"") != std::string::npos) {
        result->Fail("tune failed: " + line);
        continue;
      }
      const double improvement = NumberField(line, "improvement");
      pass.improvement_sum += improvement;
      if (line.find("\"origin\":\"register\"") != std::string::npos) {
        pass.register_improvement_sum += improvement;
        ++pass.register_results;
      }
    }
  };
  for (size_t i = 0; i < stream.size(); ++i) {
    const StreamEvent& ev = stream[i];
    out.clear();
    const double t0 = Now();
    {
      ScopedSpan s(rec, ev.kind == EventKind::kDeploy ? "deploy" : "event",
                   ev.kind == EventKind::kDeploy ? "signal" : "serve");
      daemon->ProcessLine(ev.line, &out);
    }
    const double dt = Now() - t0;
    pass.event_s.push_back(dt);
    pass.output += out;

    const std::vector<std::string> lines = Lines(out);
    int answers = 0;
    bool applied = false;
    for (const std::string& line : lines) {
      if (HasType(line, "tune-result")) {
        applied = true;
      } else {
        ++answers;
      }
      if (HasType(line, "error")) result->Fail("error line: " + line);
    }
    if (answers != 1) {
      result->Fail("event " + std::to_string(i + 1) + " got " +
                   std::to_string(answers) + " answers");
      continue;
    }
    check_tune_results(lines);
    const std::string& answer = lines.front();
    if (applied) pass.stall_s += dt;
    if (ev.kind == EventKind::kDeploy) {
      pass.deploy_s.push_back(dt);
      if (answer.find("\"action\":\"safety-rollback\"") == std::string::npos) {
        result->Fail("drill at event " + std::to_string(i + 1) +
                     " did not roll back: " + answer);
      }
    } else if (ev.kind == EventKind::kQuery) {
      if (answer.find("\"retune_error\"") != std::string::npos) {
        result->Fail("drift re-tune refused: " + answer);
      } else if (answer.find("\"retune\":") != std::string::npos) {
        pass.retune_s.push_back(dt);
      } else if (!applied) {
        pass.query_s.push_back(dt);
      }
    }
  }
  out.clear();
  {
    ScopedSpan s(rec, "finish", "serve");
    daemon->Finish(&out);
  }
  const double end = Now();
  pass.output += out;
  check_tune_results(Lines(out));
  pass.metrics = daemon->metrics().Snapshot();
  pass.wall_s = end - start;
  pass.stream_s = end - stream_start;
  return pass;
}

}  // namespace

WorkloadResult RunServeDrift(const RunSettings& run) {
  WorkloadResult result;
  SpanRecorder rec(run.trace);
  SpanRecorder off(false);

  // Set-up: build every tenant bundle and materialize the drill tenant's
  // exec store, as a fresh daemon process would before answering. A timed
  // repetition materializes a private store and frees it; the process-wide
  // store cache never frees one, so it is warmed once, for the kept bundle.
  const bati::ExecSignalOptions signal_options;
  bati::exec::StoreOptions store_options;
  store_options.seed = signal_options.store_seed;
  store_options.max_rows_per_table = signal_options.max_store_rows;
  // Only one generation of bundles is alive at a time, so the set-up's
  // peak memory is that of the one set-up a bati_serve process makes.
  std::vector<double> setup, build, init, candgen;
  std::vector<TimedBundle> kept;
  for (int i = 0; i < kSetupReps; ++i) {
    ScopedSpan s(&rec, "bundle-build", "bundle");
    kept.clear();
    double b = 0.0, o = 0.0, c = 0.0;
    for (const char* name : kBundles) {
      kept.push_back(BuildBundle(name, run.seed));
      b += kept.back().workload_s;
      o += kept.back().optimizer_s;
      c += kept.back().candgen_s;
    }
    const double t0 = Now();
    {
      const bati::exec::ColumnStore store(
          *kept.back().bundle->workload.database, store_options);
    }
    setup.push_back(b + o + c + Now() - t0);
    build.push_back(b);
    init.push_back(o);
    candgen.push_back(c);
  }
  bati::exec::GetOrMaterializeStore(kept.back().bundle->workload.database,
                                    store_options);
  const double setup_s = Median(setup);
  // The daemon resolves tenant workloads by name; registering the bundles
  // built above makes it use exactly those.
  std::vector<const bati::WorkloadBundle*> bundles;
  std::map<std::string, int> sizes;
  double candidates = 0.0, density = 0.0;
  for (size_t i = 0; i < kept.size(); ++i) {
    sizes[kBundles[i]] = kept[i].bundle->workload.num_queries();
    candidates += kept[i].bundle->candidates.size();
    density += CandidateDensity(*kept[i].bundle) *
               kept[i].bundle->candidates.size();
    bundles.push_back(bati::BundleRegistry::Global().RegisterDynamic(
        kBundles[i], std::move(kept[i].bundle)));
  }
  const std::vector<StreamEvent> stream = MakeStream(run.seed, sizes);

  // Peak RSS is read after the first pass: the peak of one set-up and one
  // replay, as of one bati_serve process. Later passes add the drift
  // sub-bundles the registry retains, which one process would not hold.
  std::vector<PassRecord> passes;
  double peak_rss_mb = 0.0;
  const int pass_count = PassCount(run, kNominalPassSeconds);
  for (int p = 0; p < pass_count; ++p) {
    const bool traced = run.trace && p == 1;
    passes.push_back(RunPass(stream, bundles, traced ? &rec : &off, &result));
    if (p == 0) peak_rss_mb = PeakRssMb();
  }

  for (size_t p = 0; p < passes.size(); ++p) {
    result.attempted += static_cast<int64_t>(stream.size());
    if (p > 0 && passes[p].output != passes[0].output) {
      result.Fail("pass " + std::to_string(p) +
                  " output differs from pass 0");
    }
  }
  const PassRecord& first = passes[0];
  const auto counter = [&first](const char* name) {
    return static_cast<double>(first.metrics.CounterValue(name));
  };
  const char* const kCounters[] = {
      "serve.events",           "serve.tunes",
      "serve.drift",            "serve.applied",
      "serve.shipped",          "serve.rollbacks",
      "serve.rejects",          "serve.errors",
      "serve.signal.evals",     "serve.signal.estimates",
      "serve.signal.fallbacks", "exec.seqscan.rows",
      "exec.index.seeks",       "exec.hashjoin.build_rows",
      "exec.trees.built",       "exec.trees.cache_hits"};
  for (const char* name : kCounters) {
    result.counts.emplace_back(name, counter(name));
  }
  result.counts.emplace_back("serve.tune_results",
                             static_cast<double>(first.tune_results));
  result.counts.emplace_back("improvement_pct", first.improvement_sum);
  if (first.register_results == 0) {
    result.Fail("no registration tune was applied");
  }
  // Drift re-tunes optimize whichever queries a seed made hot, so their
  // improvement moves with the seed; the registration tunes optimize each
  // tenant's full workload and measure tuning quality alone.
  const double improvement =
      first.register_results > 0
          ? first.register_improvement_sum /
                static_cast<double>(first.register_results)
          : 0.0;

  if (!run.trace) {
    std::vector<double> walls, events;
    double total_stream = 0.0;
    for (const PassRecord& p : passes) {
      walls.push_back(p.wall_s);
      total_stream += p.stream_s;
      events.insert(events.end(), p.event_s.begin(), p.event_s.end());
    }
    result.Add("setup_s", setup_s, "s");
    result.Add("tune_s", Median(walls), "s");
    result.Add("improvement_pct", improvement, "%");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    result.Add("events_per_s",
               static_cast<double>(events.size()) / total_stream, "1/s");
    result.Add("event_p50_us", Median(events) * 1e6, "us");
    result.Add("event_p999_ms", Percentile(events, 0.999) * 1e3, "ms");
    result.Note("samples.passes", static_cast<double>(passes.size()));
    result.Note("samples.events", static_cast<double>(events.size()));
    return result;
  }

  const PassRecord& traced = passes[1];
  result.Add("workload.build_s", Median(build), "s");
  result.Add("optimizer.init_s", Median(init), "s");
  result.Add("tuner.candgen_s", Median(candgen), "s");
  result.Add("tuner.candidates", candidates, "count");
  result.Add("tuner.candidate_density", density / candidates, "ratio");
  result.Add("serve.query_us", Median(traced.query_s) * 1e6, "us");
  result.Add("serve.retune_ms", Median(traced.retune_s) * 1e3, "ms");
  result.Add("serve.stall_s", traced.stall_s, "s");
  result.Add("serve.deploy_ms", Median(traced.deploy_s) * 1e3, "ms");
  for (const char* name :
       {"serve.tunes", "serve.drift", "serve.shipped", "serve.rollbacks",
        "serve.signal.estimates", "serve.signal.fallbacks",
        "exec.seqscan.rows", "exec.index.seeks", "exec.hashjoin.build_rows",
        "exec.trees.built", "exec.trees.cache_hits"}) {
    result.Add(name, counter(name), "count");
  }
  const std::map<std::string, double> self = rec.SelfSeconds(traced.root_span);
  const auto layer = [&self](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  result.Add("trace.self.bundle_s", setup_s, "s");
  result.Add("trace.self.serve_s", layer("serve"), "s");
  result.Add("trace.self.signal_s", layer("signal"), "s");
  result.Add("trace.unattributed_s", layer("unattributed"), "s");
  result.Add("trace.wall_s", traced.wall_s, "s");
  result.Add("trace.overhead_s", traced.wall_s - passes[0].wall_s, "s");
  return result;
}

}  // namespace perfbench
