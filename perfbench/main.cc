// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload realm-offline|reald-offline|serve-drift
//             --seed N --seconds S --trace 0|1
//
// Prints the run context, the deterministic counts, the metrics with their
// units, and as its last line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer ones. Exits 1 when any output
// check failed. perfbench/run.py builds this binary and runs it.

#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>

#include "bench.h"
#include "serve/daemon.h"

namespace perfbench {
namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, reported by every workload.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},       {"tune_s", "s"},        {"improvement_pct", "%"},
    {"peak_rss_mb", "MB"},  {"events_per_s", "1/s"}, {"event_p50_us", "us"},
    {"event_p999_ms", "ms"},
};

/// Workloads, as bits of a per-layer metric's `measured_on` mask.
constexpr unsigned kRealM = 1, kRealD = 2, kServe = 4;
constexpr unsigned kOffline = kRealM | kRealD, kAll = kOffline | kServe;

struct LayerMetricName {
  const char* name;
  const char* unit;
  unsigned measured_on;  ///< workloads that must report it
};

/// Every per-layer metric. A traced run must report each metric its
/// workload exercises and fails if one is missing; the others read 0
/// (e.g. serve.* on the offline workloads, dqn.* off reald-offline).
constexpr LayerMetricName kPerLayer[] = {
    {"workload.build_s", "s", kAll},
    {"optimizer.init_s", "s", kAll},
    {"tuner.candgen_s", "s", kAll},
    {"tuner.candidates", "count", kAll},
    {"tuner.candidate_density", "ratio", kAll},
    {"tuner.vanilla-greedy.tune_s", "s", kRealM},
    {"tuner.vanilla-greedy.rounds", "count", kRealM},
    {"tuner.vanilla-greedy.self_s", "s", kRealM},
    {"tuner.two-phase-greedy.tune_s", "s", kRealM},
    {"tuner.two-phase-greedy.rounds", "count", kRealM},
    {"tuner.two-phase-greedy.self_s", "s", kRealM},
    {"tuner.autoadmin-greedy.tune_s", "s", kRealM},
    {"tuner.autoadmin-greedy.rounds", "count", kRealM},
    {"tuner.autoadmin-greedy.self_s", "s", kRealM},
    {"mcts.mcts.tune_s", "s", kOffline},
    {"mcts.mcts.rounds", "count", kOffline},
    {"mcts.mcts.self_s", "s", kOffline},
    {"dqn.no-dba.tune_s", "s", kRealD},
    {"dqn.no-dba.rounds", "count", kRealD},
    {"dqn.no-dba.self_s", "s", kRealD},
    {"bandit.dba-bandits.tune_s", "s", kRealD},
    {"bandit.dba-bandits.rounds", "count", kRealD},
    {"bandit.dba-bandits.self_s", "s", kRealD},
    {"whatif.init_s", "s", kOffline},
    {"whatif.calls", "count", kOffline},
    {"whatif.cache_hits", "count", kOffline},
    {"whatif.batched_cells", "count", kOffline},
    {"whatif.exec_s", "s", kOffline},
    {"whatif.sim_s", "s", kOffline},
    {"whatif.index.derived_lookups", "count", kOffline},
    {"whatif.index.delta_lookups", "count", kOffline},
    {"whatif.index.scanned_entries", "count", kOffline},
    {"whatif.index.pruned_entries", "count", kOffline},
    {"whatif.index.scan_ratio", "ratio", kOffline},
    {"whatif.index.probe_ns", "ns", kOffline},
    {"report.s", "s", kOffline},
    {"report.derived_lookups", "count", kOffline},
    {"serve.query_us", "us", kServe},
    {"serve.retune_ms", "ms", kServe},
    {"serve.stall_s", "s", kServe},
    {"serve.tunes", "count", kServe},
    {"serve.drift", "count", kServe},
    {"serve.shipped", "count", kServe},
    {"serve.rollbacks", "count", kServe},
    {"serve.signal.estimates", "count", kServe},
    {"serve.signal.fallbacks", "count", kServe},
    {"serve.deploy_ms", "ms", kServe},
    {"exec.seqscan.rows", "count", kServe},
    {"exec.index.seeks", "count", kServe},
    {"exec.hashjoin.build_rows", "count", kServe},
    {"exec.trees.built", "count", kServe},
    {"exec.trees.cache_hits", "count", kServe},
    {"trace.self.bundle_s", "s", kAll},
    {"trace.self.whatif_s", "s", kOffline},
    {"trace.self.tuner_s", "s", kOffline},
    {"trace.self.index_s", "s", kOffline},
    {"trace.self.report_s", "s", kOffline},
    {"trace.self.serve_s", "s", kServe},
    {"trace.self.signal_s", "s", kServe},
    {"trace.unattributed_s", "s", kAll},
    {"trace.wall_s", "s", kAll},
    {"trace.overhead_s", "s", kAll},
};

/// Shortest decimal that reads back as the same double.
std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  return "\"" + bati::ServeJsonEscape(s) + "\"";
}

std::string PairsJson(const std::vector<std::pair<std::string, double>>& kv) {
  std::string out = "{";
  for (size_t i = 0; i < kv.size(); ++i) {
    out += (i ? "," : "") + Quote(kv[i].first) + ":" + Num(kv[i].second);
  }
  return out + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "realm-offline|reald-offline|serve-drift --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  RunSettings run;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
      if (!have_seed) return Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      run.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(run.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      run.trace = value[0] == '1';
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");

  WorkloadResult result;
  unsigned workload_bit = 0;
  if (workload == "realm-offline" || workload == "reald-offline") {
    workload_bit = workload == "realm-offline" ? kRealM : kRealD;
    result = RunOffline(workload, run);
  } else if (workload == "serve-drift") {
    workload_bit = kServe;
    result = RunServeDrift(run);
  } else {
    return Usage(("unknown workload \"" + workload + "\"").c_str());
  }

  // Every timed pass clears the optimizer skeleton memo first, so timed
  // repetitions never run warm.
  const unsigned hc = std::thread::hardware_concurrency();
  std::printf(
      "context {\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"nproc\":%ld,\"hardware_concurrency\":%u,\"whatif_pool\":%u,"
      "\"build_type\":%s,\"compiler\":%s,\"warm_memo\":false}\n",
      Quote(workload).c_str(), static_cast<unsigned long long>(run.seed),
      Num(run.seconds).c_str(), run.trace ? 1 : 0,
      sysconf(_SC_NPROCESSORS_ONLN), hc, hc < 8 ? hc : 8u,
      Quote(PERFBENCH_BUILD_TYPE).c_str(), Quote(PERFBENCH_COMPILER).c_str());
  std::printf("counts %s\n", PairsJson(result.counts).c_str());
  result.notes.emplace_back(
      "failed_frac", result.attempted > 0
                         ? static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted)
                         : 1.0);
  std::printf("notes %s\n", PairsJson(result.notes).c_str());

  std::string metrics;
  std::set<std::string> known;
  const auto emit = [&](const MetricName& m, bool required) {
    known.insert(m.name);
    const Metric* found = nullptr;
    for (const Metric& have : result.metrics) {
      if (have.name == m.name) found = &have;
    }
    if (found == nullptr && required) {
      result.Fail(std::string("metric ") + m.name + " was not measured");
    } else if (found != nullptr && !required) {
      result.Fail(std::string("metric ") + m.name +
                  " is not listed for this workload");
    }
    const double value = found != nullptr ? found->value : 0.0;
    std::printf("  %-32s %14.6g %s\n", m.name, value, m.unit);
    metrics += (metrics.empty() ? "" : ",") + Quote(m.name) +
               ":{\"value\":" + Num(value) + ",\"unit\":" + Quote(m.unit) +
               "}";
  };
  if (run.trace) {
    for (const LayerMetricName& m : kPerLayer) {
      emit({m.name, m.unit}, (m.measured_on & workload_bit) != 0);
    }
  } else {
    for (const MetricName& m : kEndToEnd) emit(m, true);
  }
  for (const Metric& have : result.metrics) {
    if (known.count(have.name) == 0) {
      result.Fail("metric " + have.name + " is not a listed metric");
    }
  }
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  const bool correct = result.failed == 0;
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
