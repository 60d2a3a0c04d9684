#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench.h"
#include "common/macros.h"
#include "tuner/candidate_gen.h"
#include "workload/generators.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

int PassCount(const RunSettings& run, double nominal_pass_s) {
  if (run.trace) return 2;
  return std::max(2, static_cast<int>(run.seconds / nominal_pass_s));
}

TimedBundle BuildBundle(const std::string& name, uint64_t seed) {
  TimedBundle out;
  out.bundle = std::make_unique<bati::WorkloadBundle>();
  bati::WorkloadOptions options;
  options.seed = seed;
  const double t0 = Now();
  out.bundle->workload = bati::MakeWorkloadByName(name, options);
  const double t1 = Now();
  BATI_CHECK(out.bundle->workload.database != nullptr);
  out.bundle->optimizer =
      std::make_shared<bati::WhatIfOptimizer>(out.bundle->workload.database);
  const double t2 = Now();
  out.bundle->candidates = bati::GenerateCandidates(out.bundle->workload);
  const double t3 = Now();
  out.workload_s = t1 - t0;
  out.optimizer_s = t2 - t1;
  out.candgen_s = t3 - t2;
  return out;
}

double CandidateDensity(const bati::WorkloadBundle& bundle) {
  const bati::CandidateSet& cands = bundle.candidates;
  if (cands.size() == 0) return 0.0;
  std::vector<int> queries_per_candidate(cands.indexes.size(), 0);
  for (const std::vector<int>& positions : cands.per_query) {
    for (int pos : positions) ++queries_per_candidate[pos];
  }
  double sum = 0.0;
  for (int n : queries_per_candidate) sum += n;
  return sum / static_cast<double>(cands.indexes.size()) /
         static_cast<double>(bundle.workload.num_queries());
}

}  // namespace perfbench
