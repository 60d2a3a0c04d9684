// Tests for the session subsystem: the thread-safe BundleRegistry (the
// regression test for the data race the old `static` LoadBundle map had),
// the SessionManager's FIFO + per-workload fair scheduling and
// cancellation, and the JSONL spec parser behind bati_batch.
//
// The registry tests hammer LoadBundle from many threads on purpose; run
// them under the TSan build (BATI_SANITIZE=thread) to prove the race is
// gone, not just unlikely.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "session/spec_json.h"

namespace bati {
namespace {

// ---------------------------------------------------------------------------
// BundleRegistry

TEST(BundleRegistryTest, ConcurrentLoadBundleReturnsOneBundle) {
  // The old implementation kept a bare `static std::map` that two threads
  // could rehash concurrently; this is the regression test for that race.
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 25;
  std::atomic<const WorkloadBundle*> first{nullptr};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&first, &mismatches] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const WorkloadBundle& bundle = LoadBundle("toy");
        const WorkloadBundle* expected = nullptr;
        if (!first.compare_exchange_strong(expected, &bundle) &&
            expected != &bundle) {
          mismatches.fetch_add(1);
        }
        // Read through the bundle the way sessions do, so TSan watches the
        // shared state, not just the pointer.
        if (bundle.workload.num_queries() <= 0) mismatches.fetch_add(1);
        if (bundle.candidates.indexes.empty()) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(first.load(), &LoadBundle("toy"));
}

TEST(BundleRegistryTest, ConcurrentMixedNamesIncludingUnknown) {
  constexpr int kThreads = 6;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&errors] {
      for (int i = 0; i < 10; ++i) {
        if (BundleRegistry::Global().TryGet("toy") == nullptr) {
          errors.fetch_add(1);
        }
        if (BundleRegistry::Global().TryGet("no-such-workload") != nullptr) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(BundleRegistryTest, UnknownNameIsNullAndCached) {
  BundleRegistry registry;
  EXPECT_EQ(registry.TryGet("definitely-not-a-workload"), nullptr);
  // Probing again must hit the cached null entry, not rebuild.
  EXPECT_EQ(registry.TryGet("definitely-not-a-workload"), nullptr);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(BundleRegistryTest, StablePointerAcrossLookups) {
  const WorkloadBundle* a = BundleRegistry::Global().TryGet("toy");
  const WorkloadBundle* b = BundleRegistry::Global().TryGet("toy");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, &LoadBundle("toy"));
}

// ---------------------------------------------------------------------------
// TuningSession

TEST(TuningSessionTest, SoloSessionMatchesRunOnce) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  RunSpec spec;
  spec.workload = "toy";
  spec.algorithm = "two-phase-greedy";
  spec.budget = 60;
  spec.max_indexes = 5;

  const RunOutcome via_runonce = RunOnce(bundle, spec);
  TuningSession session(bundle, spec);
  const RunOutcome& via_session = session.Run();

  EXPECT_DOUBLE_EQ(via_session.true_improvement,
                   via_runonce.true_improvement);
  EXPECT_DOUBLE_EQ(via_session.derived_improvement,
                   via_runonce.derived_improvement);
  EXPECT_EQ(via_session.calls_used, via_runonce.calls_used);
  EXPECT_EQ(via_session.config_size, via_runonce.config_size);
  EXPECT_EQ(via_session.trace, via_runonce.trace);
}

TEST(TuningSessionTest, CapturesArtifactsOnRequest) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  RunSpec spec;
  spec.workload = "toy";
  spec.algorithm = "vanilla-greedy";
  spec.budget = 40;
  spec.max_indexes = 5;

  SessionOptions options;
  options.capture_result_json = true;
  options.capture_layout_csv = true;
  TuningSession session(bundle, spec, options);
  session.Run();
  EXPECT_NE(session.result_json().find("\"workload\":\"toy\""),
            std::string::npos);
  EXPECT_NE(session.result_json().find("\"improvement\":"),
            std::string::npos);
  EXPECT_NE(session.layout_csv().find("round"), std::string::npos);

  // Off by default: the same run without switches keeps nothing.
  TuningSession bare(bundle, spec);
  bare.Run();
  EXPECT_TRUE(bare.result_json().empty());
  EXPECT_TRUE(bare.layout_csv().empty());
}

// ---------------------------------------------------------------------------
// SessionManager

RunSpec ToySpec(const std::string& algorithm, int64_t budget = 40) {
  RunSpec spec;
  spec.workload = "toy";
  spec.algorithm = algorithm;
  spec.budget = budget;
  spec.max_indexes = 5;
  return spec;
}

TEST(SessionManagerTest, DrainReturnsResultsInSubmissionOrder) {
  SessionManagerOptions options;
  options.parallelism = 4;
  SessionManager manager(options);
  const std::vector<std::string> algorithms = {
      "vanilla-greedy", "two-phase-greedy", "autoadmin-greedy", "dta"};
  for (const std::string& algorithm : algorithms) {
    manager.Submit(ToySpec(algorithm));
  }
  std::vector<SessionResult> results = manager.Drain();
  ASSERT_EQ(results.size(), algorithms.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].id, i + 1);
    EXPECT_EQ(results[i].spec.algorithm, algorithms[i]);
    EXPECT_FALSE(results[i].cancelled);
    EXPECT_TRUE(results[i].status.ok());
    EXPECT_GT(results[i].outcome.calls_used, 0);
  }
  EXPECT_EQ(manager.finished(), algorithms.size());
}

TEST(SessionManagerTest, SingleWorkerRunsFifoWithinOneWorkload) {
  SessionManagerOptions options;
  options.parallelism = 1;
  options.start_paused = true;
  SessionManager manager(options);
  for (int i = 0; i < 4; ++i) manager.Submit(ToySpec("vanilla-greedy"));
  manager.Start();
  std::vector<SessionResult> results = manager.Drain();
  ASSERT_EQ(results.size(), 4u);
  // One worker, one workload: completion order == submission order.
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].sequence, i + 1);
  }
}

TEST(SessionManagerTest, RoundRobinAcrossWorkloadsIsFair) {
  // Queue a burst of toy specs ahead of one tpch spec on a paused
  // single-worker manager: the rotation must interleave the two workloads
  // rather than let the burst starve tpch to the end.
  SessionManagerOptions options;
  options.parallelism = 1;
  options.start_paused = true;
  SessionManager manager(options);
  for (int i = 0; i < 3; ++i) manager.Submit(ToySpec("vanilla-greedy"));
  RunSpec tpch = ToySpec("vanilla-greedy", 100);
  tpch.workload = "tpch";
  const uint64_t tpch_id = manager.Submit(tpch);
  manager.Start();
  std::vector<SessionResult> results = manager.Drain();
  ASSERT_EQ(results.size(), 4u);
  // Rotation is [toy, tpch] in first-submission order, so the single
  // worker runs toy#1 then tpch then the remaining toys: the tpch spec
  // finishes second, not last.
  EXPECT_EQ(results[tpch_id - 1].spec.workload, "tpch");
  EXPECT_EQ(results[tpch_id - 1].sequence, 2u);
}

TEST(SessionManagerTest, CancelQueuedSessionNeverRuns) {
  SessionManagerOptions options;
  options.parallelism = 1;
  options.start_paused = true;
  SessionManager manager(options);
  const uint64_t keep1 = manager.Submit(ToySpec("vanilla-greedy"));
  const uint64_t victim = manager.Submit(ToySpec("two-phase-greedy"));
  const uint64_t keep2 = manager.Submit(ToySpec("dta"));
  EXPECT_TRUE(manager.Cancel(victim));
  EXPECT_FALSE(manager.Cancel(victim));  // already cancelled
  EXPECT_FALSE(manager.Cancel(999));     // unknown ticket
  manager.Start();
  std::vector<SessionResult> results = manager.Drain();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[keep1 - 1].cancelled);
  EXPECT_TRUE(results[victim - 1].cancelled);
  EXPECT_EQ(results[victim - 1].outcome.calls_used, 0);
  EXPECT_FALSE(results[keep2 - 1].cancelled);
  // A completed session can no longer be cancelled.
  EXPECT_FALSE(manager.Cancel(keep1));
}

TEST(SessionManagerTest, UnknownWorkloadYieldsErrorResult) {
  SessionManagerOptions options;
  options.parallelism = 2;
  SessionManager manager(options);
  RunSpec bad = ToySpec("vanilla-greedy");
  bad.workload = "no-such-workload";
  manager.Submit(bad);
  manager.Submit(ToySpec("vanilla-greedy"));
  std::vector<SessionResult> results = manager.Drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(results[0].status.message().find("no-such-workload"),
            std::string::npos);
  EXPECT_TRUE(results[1].status.ok());
}

TEST(SessionManagerTest, ManagerIsReusableAfterDrain) {
  SessionManagerOptions options;
  options.parallelism = 2;
  SessionManager manager(options);
  manager.Submit(ToySpec("vanilla-greedy"));
  EXPECT_EQ(manager.Drain().size(), 1u);
  manager.Submit(ToySpec("dta"));
  manager.Submit(ToySpec("two-phase-greedy"));
  std::vector<SessionResult> results = manager.Drain();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[2].spec.algorithm, "two-phase-greedy");
  EXPECT_EQ(manager.finished(), 3u);
}

TEST(SessionManagerTest, CapturesArtifactsWhenConfigured) {
  SessionManagerOptions options;
  options.parallelism = 2;
  options.session.capture_result_json = true;
  options.session.capture_layout_csv = true;
  SessionManager manager(options);
  manager.Submit(ToySpec("vanilla-greedy"));
  std::vector<SessionResult> results = manager.Drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].result_json.find("\"algorithm\":"),
            std::string::npos);
  EXPECT_FALSE(results[0].layout_csv.empty());
}

// ---------------------------------------------------------------------------
// ParseRunSpecJson

TEST(SpecJsonTest, ParsesFullSpec) {
  RunSpec spec;
  const Status st = ParseRunSpecJson(
      "{\"workload\":\"tpch\",\"algorithm\":\"mcts\",\"budget\":2000,"
      "\"k\":5,\"storage_gb\":2.5,\"seed\":9,\"early_stop\":true,"
      "\"realloc_budget\":true,\"skip_threshold\":0.01,"
      "\"stop_threshold\":0.2,\"stop_window\":40,\"fault_rate\":0.05,"
      "\"fault_sticky\":0.01,\"fault_spike\":0.1,"
      "\"fault_spike_factor\":8,\"fault_seed\":3,\"retry_attempts\":6,"
      "\"retry_timeout\":4.5,\"collect_metrics\":true,"
      "\"trace_out\":\"/tmp/t.json\"}",
      &spec);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(spec.workload, "tpch");
  EXPECT_EQ(spec.algorithm, "mcts");
  EXPECT_EQ(spec.budget, 2000);
  EXPECT_EQ(spec.max_indexes, 5);
  EXPECT_DOUBLE_EQ(spec.max_storage_bytes, 2.5e9);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_TRUE(spec.governor.enabled);
  EXPECT_TRUE(spec.governor.early_stop);
  EXPECT_TRUE(spec.governor.skip_what_if);
  EXPECT_DOUBLE_EQ(spec.governor.realloc.skip_rel_threshold, 0.01);
  EXPECT_DOUBLE_EQ(spec.governor.stop.abs_threshold_pct, 0.2);
  EXPECT_EQ(spec.governor.stop.window_calls, 40);
  EXPECT_TRUE(spec.faults.enabled);
  EXPECT_DOUBLE_EQ(spec.faults.transient_rate, 0.05);
  EXPECT_DOUBLE_EQ(spec.faults.sticky_rate, 0.01);
  EXPECT_DOUBLE_EQ(spec.faults.spike_rate, 0.1);
  EXPECT_DOUBLE_EQ(spec.faults.spike_factor, 8.0);
  EXPECT_EQ(spec.faults.seed, 3u);
  EXPECT_EQ(spec.retry.max_attempts, 6);
  EXPECT_DOUBLE_EQ(spec.retry.call_timeout_seconds, 4.5);
  EXPECT_TRUE(spec.collect_metrics);
  EXPECT_EQ(spec.trace_path, "/tmp/t.json");
}

TEST(SpecJsonTest, MinimalSpecLeavesDefaults) {
  RunSpec spec;
  ASSERT_TRUE(ParseRunSpecJson("{\"workload\":\"toy\"}", &spec).ok());
  EXPECT_EQ(spec.workload, "toy");
  EXPECT_EQ(spec.budget, RunSpec().budget);
  EXPECT_FALSE(spec.governor.enabled);
  EXPECT_FALSE(spec.faults.enabled);
  EXPECT_FALSE(spec.collect_metrics);
}

TEST(SpecJsonTest, RejectsBadInput) {
  RunSpec spec;
  // Strict validation: every one of these must fail loudly, never default.
  EXPECT_FALSE(ParseRunSpecJson("", &spec).ok());
  EXPECT_FALSE(ParseRunSpecJson("not json", &spec).ok());
  EXPECT_FALSE(ParseRunSpecJson("{}", &spec).ok());  // workload required
  EXPECT_FALSE(ParseRunSpecJson("{\"workload\":\"\"}", &spec).ok());
  EXPECT_FALSE(ParseRunSpecJson("{\"workload\":42}", &spec).ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",\"bogus\":1}", &spec).ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",\"budget\":-1}", &spec).ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",\"budget\":1.5}", &spec).ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",\"k\":0}", &spec).ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",\"fault_rate\":1.5}", &spec)
          .ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",\"seed\":{}}", &spec).ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\"} trailing", &spec).ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",}", &spec).ok());
}

TEST(SpecJsonTest, ValidatesAlgorithmAtParseTime) {
  // An unknown algorithm must be an InvalidArgument here, at the input
  // boundary — not a CHECK-crash later inside MakeTuner.
  RunSpec spec;
  const Status st = ParseRunSpecJson(
      "{\"workload\":\"toy\",\"algorithm\":\"qlearning\"}", &spec);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("qlearning"), std::string::npos);
  // An omitted algorithm gets the documented default instead of staying
  // empty (which MakeTuner would also reject).
  ASSERT_TRUE(ParseRunSpecJson("{\"workload\":\"toy\"}", &spec).ok());
  EXPECT_EQ(spec.algorithm, "mcts");
  EXPECT_TRUE(IsKnownAlgorithm("vanilla-greedy"));
  EXPECT_TRUE(IsKnownAlgorithm("mcts-uct-bce-fix0"));
  EXPECT_FALSE(IsKnownAlgorithm(""));
  EXPECT_FALSE(IsKnownAlgorithm("greedy"));
}

TEST(SpecJsonTest, LineParserPrefixesLineNumbers) {
  // The JSONL entry point must answer each malformed line with a non-OK
  // status that names the line — never a crash, never a default.
  struct Case {
    const char* line;
    const char* needle;  // expected fragment of the error message
  };
  const Case cases[] = {
      {"{\"workload\":\"toy\",\"algorithm\":\"qlearning\"}", "qlearning"},
      {"{\"workload\":\"toy\",\"budget\":-5}", "budget"},
      {"{\"workload\":\"toy\",\"budget\":\"lots\"}", "budget"},
      {"{\"workload\":\"toy\"} trailing garbage", "trailing"},
      // Numbers follow RFC 8259: none of these is a JSON number.
      {"{\"workload\":\"toy\",\"budget\":nan}", "budget"},
      {"{\"workload\":\"toy\",\"fault_rate\":nan}", "fault_rate"},
      {"{\"workload\":\"toy\",\"fault_rate\":inf}", "fault_rate"},
      {"{\"workload\":\"toy\",\"seed\":0x10}", "malformed number"},
      {"{\"workload\":\"toy\",\"seed\":+1}", "seed"},
      {"{\"workload\":\"toy\",\"storage_gb\":.5}", "storage_gb"},
      // Integers must fit the field, never wrap or truncate.
      {"{\"workload\":\"toy\",\"k\":4294967297}", "out of range"},
      {"{\"workload\":\"toy\",\"budget\":1e30}", "out of range"},
      {"{\"workload\":\"to\x01y\"}", "control character"},
  };
  int lineno = 40;
  for (const Case& c : cases) {
    RunSpec spec;
    const Status st = ParseRunSpecJsonLine(c.line, lineno, &spec);
    ASSERT_FALSE(st.ok()) << c.line;
    EXPECT_NE(st.message().find("line " + std::to_string(lineno)),
              std::string::npos)
        << st.message();
    EXPECT_NE(st.message().find(c.needle), std::string::npos)
        << st.message();
    ++lineno;
  }
  RunSpec spec;
  EXPECT_TRUE(
      ParseRunSpecJsonLine("{\"workload\":\"toy\"}", 7, &spec).ok());
}

TEST(SpecJsonTest, RunSpecToJsonRoundTrips) {
  RunSpec spec;
  ASSERT_TRUE(ParseRunSpecJson(
                  "{\"workload\":\"tpch\",\"algorithm\":\"dba-bandits\","
                  "\"budget\":750,\"k\":4,\"seed\":13,\"early_stop\":true,"
                  "\"stop_threshold\":0.15,\"stop_window\":25,"
                  "\"fault_rate\":0.02,\"retry_attempts\":4}",
                  &spec)
                  .ok());
  const std::string json = RunSpecToJson(spec);
  RunSpec reparsed;
  ASSERT_TRUE(ParseRunSpecJson(json, &reparsed).ok()) << json;
  // The round trip is exact: same identity and a fixed point of the
  // serializer itself.
  EXPECT_EQ(RunIdentity(reparsed), RunIdentity(spec));
  EXPECT_EQ(RunSpecToJson(reparsed), json);
  // Defaults stay implicit: a minimal spec serializes minimally.
  RunSpec minimal;
  ASSERT_TRUE(ParseRunSpecJson("{\"workload\":\"toy\"}", &minimal).ok());
  EXPECT_EQ(RunSpecToJson(minimal),
            "{\"workload\":\"toy\",\"algorithm\":\"mcts\"}");
}

TEST(SpecJsonTest, SignalKeyValidatesAndRoundTrips) {
  RunSpec spec;
  for (const char* name : {"whatif", "exec-deterministic", "measured"}) {
    ASSERT_TRUE(ParseRunSpecJson(
                    std::string("{\"workload\":\"toy\",\"signal\":\"") +
                        name + "\"}",
                    &spec)
                    .ok())
        << name;
    EXPECT_EQ(spec.deploy_signal, name);
    const std::string json = RunSpecToJson(spec);
    EXPECT_NE(json.find(std::string("\"signal\":\"") + name + "\""),
              std::string::npos)
        << json;
    RunSpec reparsed;
    ASSERT_TRUE(ParseRunSpecJson(json, &reparsed).ok()) << json;
    EXPECT_EQ(reparsed.deploy_signal, name);
  }
  // Unknown names and non-string values are strict errors; the absent key
  // means "daemon default" and stays implicit in the serialized form.
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",\"signal\":\"bogus\"}", &spec)
          .ok());
  EXPECT_FALSE(
      ParseRunSpecJson("{\"workload\":\"toy\",\"signal\":7}", &spec).ok());
  RunSpec minimal;
  ASSERT_TRUE(ParseRunSpecJson("{\"workload\":\"toy\"}", &minimal).ok());
  EXPECT_TRUE(minimal.deploy_signal.empty());
  EXPECT_EQ(RunSpecToJson(minimal).find("signal"), std::string::npos);
}

}  // namespace
}  // namespace bati
