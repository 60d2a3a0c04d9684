// bati_exec: execution-backed validation of the what-if cost model.
//
// Materializes a real in-memory store for a workload, samples index
// configurations over the candidate universe, executes every workload query
// under each configuration with the plan the what-if optimizer chose (real
// B+-tree seeks, hash/merge/index-nested-loop joins), and reports the rank
// correlation between what-if cost ordering and measured wall-clock.
//
// Exit codes: 0 success, 1 correlation below --min-correlation (or
// validation failure), 2 usage/config errors.

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/record_file.h"
#include "exec/harness.h"
#include "exec/ycsb.h"
#include "obs/metrics.h"
#include "tuner/candidate_gen.h"
#include "workload/generators.h"

namespace bati {
namespace {

constexpr char kUsage[] =
    "usage: bati_exec [options]\n"
    "\n"
    "Execution-backed what-if validation: run real query plans over a\n"
    "materialized store and correlate measured time with what-if cost.\n"
    "\n"
    "  --workload NAME       toy | tpch | tpcds | job (default toy)\n"
    "  --scale X             workload scale factor for generated stats\n"
    "                        (default 0.002; toy ignores it)\n"
    "  --configs N           configurations to execute (default 8)\n"
    "  --samples N           configurations sampled+costed first (64)\n"
    "  --max-config-size N   max indexes per sampled config (default 4)\n"
    "  --reps N              timed repetitions per config, min kept (2)\n"
    "  --passes N            full measurement passes (default 2)\n"
    "  --seed N              sampling + store seed (default 42)\n"
    "  --no-spread           execute first N samples instead of spreading\n"
    "                        across the what-if cost range\n"
    "  --no-trajectory       do not seed the pool with the greedy tuning\n"
    "                        trajectory's prefix configurations\n"
    "  --no-validate         skip cross-executor result validation\n"
    "  --min-correlation X   exit 1 if combined Spearman < X (default off)\n"
    "  --max-rows N          refuse stores larger than N rows (default 10M)\n"
    "  --per-query           print per-query cost vs time diagnostics\n"
    "  --json FILE           write the report as JSON\n"
    "  --metrics FILE        write the exec.* metrics snapshot JSON\n"
    "  --ycsb                also run the YCSB-style B+-tree micro-harness\n"
    "  --ycsb-workers N      worker threads for --ycsb (default 4)\n"
    "  --ycsb-ops N          operations per worker (default 200000)\n"
    "  --ycsb-dist NAME      counter | uniform | zipfian | scrambled\n"
    "                        (default zipfian)\n";

std::string ReportJson(const std::string& workload,
                       const exec::CorrelationReport& report) {
  char buf[256];
  std::string out = "{\n";
  std::snprintf(buf, sizeof(buf),
                "  \"workload\": \"%s\",\n  \"num_configs\": %d,\n"
                "  \"store_rows\": %lld,\n  \"validated\": %s,\n",
                workload.c_str(), report.num_configs,
                static_cast<long long>(report.store_rows),
                report.validated ? "true" : "false");
  out += buf;
  out += "  \"spearman_per_pass\": [";
  for (size_t i = 0; i < report.spearman_per_pass.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", i == 0 ? "" : ", ",
                  report.spearman_per_pass[i]);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "],\n  \"spearman_min\": %.4f,\n"
                "  \"spearman_combined\": %.4f,\n  \"kendall\": %.4f,\n",
                report.spearman_min, report.spearman_combined,
                report.kendall);
  out += buf;
  out += "  \"configs\": [\n";
  for (size_t i = 0; i < report.configs.size(); ++i) {
    const exec::ConfigMeasurement& m = report.configs[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"indexes\": %d, \"whatif_cost\": %.1f, "
                  "\"seconds\": [",
                  static_cast<int>(m.positions.size()), m.whatif_cost);
    out += buf;
    for (size_t p = 0; p < m.seconds.size(); ++p) {
      std::snprintf(buf, sizeof(buf), "%s%.6f", p == 0 ? "" : ", ",
                    m.seconds[p]);
      out += buf;
    }
    out += "]}";
    out += i + 1 < report.configs.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

int Run(int argc, char** argv) {
  std::string workload_name = "toy";
  double scale = 0.002;
  int64_t configs = 8;
  int64_t samples = 64;
  int64_t max_config_size = 4;
  int64_t reps = 2;
  int64_t passes = 2;
  uint64_t seed = 42;
  bool no_spread = false;
  bool no_trajectory = false;
  bool no_validate = false;
  double min_correlation = -2.0;
  int64_t max_rows = 10 * 1000 * 1000;
  std::string json_path;
  std::string metrics_path;
  bool per_query = false;
  bool run_ycsb = false;
  int64_t ycsb_workers = 4;
  int64_t ycsb_ops = 200 * 1000;
  std::string ycsb_dist = "zipfian";

  FlagParser parser;
  parser.AddString("workload", &workload_name);
  parser.AddDouble("scale", &scale, 0.0);
  parser.AddInt64("configs", &configs, 2);
  parser.AddInt64("samples", &samples, 2);
  parser.AddInt64("max-config-size", &max_config_size, 1);
  parser.AddInt64("reps", &reps, 1);
  parser.AddInt64("passes", &passes, 1);
  parser.AddUint64("seed", &seed);
  parser.AddBool("no-spread", &no_spread);
  parser.AddBool("no-trajectory", &no_trajectory);
  parser.AddBool("no-validate", &no_validate);
  parser.AddDouble("min-correlation", &min_correlation, -2.0);
  parser.AddInt64("max-rows", &max_rows, 1);
  parser.AddString("json", &json_path);
  parser.AddString("metrics", &metrics_path);
  parser.AddBool("per-query", &per_query);
  parser.AddBool("ycsb", &run_ycsb);
  parser.AddInt64("ycsb-workers", &ycsb_workers, 1);
  parser.AddInt64("ycsb-ops", &ycsb_ops, 1);
  parser.AddString("ycsb-dist", &ycsb_dist);
  bool help = false;
  if (!parser.Parse(argc, argv, &help)) {
    std::fputs(kUsage, help ? stdout : stderr);
    return help ? 0 : 2;
  }

  WorkloadOptions wopts;
  wopts.scale = scale;
  wopts.seed = seed;
  const Workload w = MakeWorkloadByName(workload_name, wopts);
  if (w.database == nullptr) {
    std::fprintf(stderr, "bati_exec: unknown workload '%s'\n",
                 workload_name.c_str());
    return 2;
  }
  double total_rows = 0.0;
  for (int t = 0; t < w.database->num_tables(); ++t) {
    total_rows += w.database->table(t).row_count();
  }
  if (total_rows > static_cast<double>(max_rows)) {
    std::fprintf(stderr,
                 "bati_exec: %s at scale %g has %.0f rows; refusing to "
                 "materialize more than %lld (lower --scale or raise "
                 "--max-rows)\n",
                 workload_name.c_str(), scale, total_rows,
                 static_cast<long long>(max_rows));
    return 2;
  }

  std::fprintf(stderr, "[bati_exec] materializing %s (%.0f rows)...\n",
               workload_name.c_str(), total_rows);
  MetricsRegistry metrics;
  exec::StoreOptions sopts;
  sopts.seed = seed;
  exec::ExecutionEngine engine(w, sopts, &metrics);

  const CandidateSet candidates = GenerateCandidates(w);
  std::fprintf(stderr,
               "[bati_exec] %d queries, %d candidate indexes; executing "
               "%lld configurations (%lld sampled)...\n",
               w.num_queries(), candidates.size(),
               static_cast<long long>(configs),
               static_cast<long long>(samples));

  exec::CorrelationOptions copts;
  copts.num_configs = static_cast<int>(configs);
  copts.sample_configs = static_cast<int>(samples);
  copts.max_config_size = static_cast<int>(max_config_size);
  copts.repetitions = static_cast<int>(reps);
  copts.passes = static_cast<int>(passes);
  copts.spread = !no_spread;
  copts.trajectory = !no_trajectory;
  copts.validate = !no_validate;
  copts.seed = seed;
  const exec::CorrelationReport report =
      exec::RunCorrelation(&engine, candidates.indexes, copts);

  for (const exec::ConfigMeasurement& m : report.configs) {
    std::fprintf(stderr,
                 "[bati_exec]   %2d indexes  whatif %12.1f  measured %.4fs\n",
                 static_cast<int>(m.positions.size()), m.whatif_cost,
                 m.seconds_best);
  }
  std::printf(
      "workload=%s configs=%d spearman=%.4f spearman_min=%.4f "
      "kendall=%.4f validated=%s\n",
      workload_name.c_str(), report.num_configs, report.spearman_combined,
      report.spearman_min, report.kendall, report.validated ? "yes" : "no");

  if (per_query && !report.configs.empty()) {
    // Query-by-config matrix of measured milliseconds (pass 0) and what-if
    // cost: which queries invert the model's predicted ordering?
    std::fprintf(stderr, "[bati_exec] per-query ms by config "
                         "(cost-ascending columns):\n");
    for (int qi = 0; qi < w.num_queries(); ++qi) {
      std::string line = "[bati_exec]   ";
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%-10s ms ",
                    w.queries[static_cast<size_t>(qi)].name.c_str());
      line += buf;
      for (const exec::ConfigMeasurement& m : report.configs) {
        const double ms =
            qi < static_cast<int>(m.per_query_seconds.size())
                ? m.per_query_seconds[static_cast<size_t>(qi)] * 1e3
                : 0.0;
        std::snprintf(buf, sizeof(buf), " %7.2f", ms);
        line += buf;
      }
      line += "\n[bati_exec]              cost";
      for (const exec::ConfigMeasurement& m : report.configs) {
        std::vector<Index> config;
        for (int pos : m.positions) {
          config.push_back(candidates.indexes[static_cast<size_t>(pos)]);
        }
        const double cost = engine.optimizer().Cost(
            w.queries[static_cast<size_t>(qi)], config);
        std::snprintf(buf, sizeof(buf), " %7.0f", cost);
        line += buf;
      }
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }

  if (run_ycsb) {
    exec::YcsbOptions yopts;
    yopts.workers = static_cast<int>(ycsb_workers);
    yopts.ops_per_worker = ycsb_ops;
    yopts.seed = seed;
    if (ycsb_dist == "counter") {
      yopts.distribution = exec::KeyDistribution::kCounter;
    } else if (ycsb_dist == "uniform") {
      yopts.distribution = exec::KeyDistribution::kUniform;
    } else if (ycsb_dist == "zipfian") {
      yopts.distribution = exec::KeyDistribution::kZipfian;
    } else if (ycsb_dist == "scrambled") {
      yopts.distribution = exec::KeyDistribution::kScrambledZipfian;
    } else {
      std::fprintf(stderr, "bati_exec: unknown --ycsb-dist '%s'\n",
                   ycsb_dist.c_str());
      return 2;
    }
    const exec::YcsbReport y = exec::RunYcsb(yopts);
    std::printf(
        "ycsb dist=%s workers=%d ops/s=%.0f reads=%lld hits=%lld "
        "scans=%lld inserts=%lld tree=%lld\n",
        ycsb_dist.c_str(), yopts.workers, y.ops_per_second,
        static_cast<long long>(y.reads), static_cast<long long>(y.read_hits),
        static_cast<long long>(y.scans), static_cast<long long>(y.inserts),
        static_cast<long long>(y.tree_size));
  }

  if (!json_path.empty()) {
    const Status st =
        AtomicWriteFile(json_path, ReportJson(workload_name, report));
    if (!st.ok()) {
      std::fprintf(stderr, "bati_exec: write %s: %s\n", json_path.c_str(),
                   st.ToString().c_str());
      return 2;
    }
  }
  if (!metrics_path.empty()) {
    const Status st =
        AtomicWriteFile(metrics_path, metrics.Snapshot().ToJson());
    if (!st.ok()) {
      std::fprintf(stderr, "bati_exec: write %s: %s\n", metrics_path.c_str(),
                   st.ToString().c_str());
      return 2;
    }
  }

  if (min_correlation > -2.0 && report.spearman_combined < min_correlation) {
    std::fprintf(stderr,
                 "bati_exec: FAIL spearman %.4f < required %.4f\n",
                 report.spearman_combined, min_correlation);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bati

int main(int argc, char** argv) { return bati::Run(argc, argv); }
