#ifndef BATI_PERFBENCH_BENCH_H_
#define BATI_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "session/bundle_registry.h"

namespace perfbench {

/// Command-line settings shared by every workload.
struct RunSettings {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One reported metric: a name from BENCHMARK.json, its value and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run produces. `metrics` holds the end-to-end
/// metrics of an untraced run or the per-layer metrics of a traced run;
/// `counts` holds the deterministic per-layer counts the self-test compares
/// across repetitions and invocations.
struct WorkloadResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> counts;
  /// Values printed beside the metrics but not reported as metrics
  /// (sample counts, the failed fraction).
  std::vector<std::pair<std::string, double>> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Note(const std::string& name, double value) {
    notes.emplace_back(name, value);
  }
  /// Records a failed output check. Failures count against `failed` and
  /// make the command exit non-zero.
  void Fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }
};

/// Seconds on the steady clock.
double Now();

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Median by linear interpolation between the two middle samples.
double Median(std::vector<double> values);

/// Nearest-rank percentile (q in (0, 1]): the smallest sample with at least
/// q of all samples at or below it.
double Percentile(std::vector<double> values, double q);

/// One bundle build, timed by stage: workload generation, optimizer
/// construction (catalog snapshot) and candidate generation.
struct TimedBundle {
  std::unique_ptr<bati::WorkloadBundle> bundle;
  double workload_s = 0.0;
  double optimizer_s = 0.0;
  double candgen_s = 0.0;
};
TimedBundle BuildBundle(const std::string& name, uint64_t seed);

/// Mean over candidates of the share of the workload's queries whose
/// candidate set holds the candidate (the queries it can change).
double CandidateDensity(const bati::WorkloadBundle& bundle);

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 15;

/// Passes one run makes: as many nominal-length passes as fit in
/// --seconds, and always two, so every output is compared across
/// repetitions. A traced run makes one untraced and one traced pass. The
/// count depends only on the settings, never on measured times, so every
/// run of a workload pools the same number of samples.
int PassCount(const RunSettings& run, double nominal_pass_s);

WorkloadResult RunOffline(const std::string& name, const RunSettings& run);
WorkloadResult RunServeDrift(const RunSettings& run);

}  // namespace perfbench

#endif  // BATI_PERFBENCH_BENCH_H_
