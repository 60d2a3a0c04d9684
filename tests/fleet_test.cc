// Fleet tests: the wire protocol's corruption detection, the chaos
// injector's determinism, and the headline property — fleet output is
// byte-identical to sequential canonical execution regardless of worker
// count, injected crashes/stalls/garbled frames, speculation, or a
// coordinator stop + resume.
//
// The coordinator forks; these tests therefore never hold live threads
// across a RunFleet call (baselines run sessions to completion and destroy
// them first), which keeps the fork single-threaded even under TSan.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "common/record_file.h"
#include "fleet/chaos.h"
#include "fleet/coordinator.h"
#include "fleet/wire.h"
#include "fleet/worker.h"
#include "session/bundle_registry.h"
#include "session/tuning_session.h"

namespace bati {
namespace {

const char* kAllAlgorithms[] = {
    "vanilla-greedy", "two-phase-greedy", "autoadmin-greedy", "dba-bandits",
    "no-dba",         "dta",              "relaxation",       "mcts",
};

// ---- Wire protocol. ----------------------------------------------------

TEST(Wire, TaskRoundTrip) {
  TaskFrame frame;
  frame.task_id = 42;
  frame.attempt = 3;
  frame.resume = true;
  frame.spec_json = "{\"workload\":\"toy\",\"budget\":40}";
  TaskFrame parsed;
  const std::string line = EncodeTaskLine(frame);
  ASSERT_EQ(line.back(), '\n');
  ASSERT_TRUE(ParseTaskLine(line.substr(0, line.size() - 1), &parsed).ok());
  EXPECT_EQ(parsed.task_id, frame.task_id);
  EXPECT_EQ(parsed.attempt, frame.attempt);
  EXPECT_EQ(parsed.resume, frame.resume);
  EXPECT_EQ(parsed.spec_json, frame.spec_json);

  EXPECT_FALSE(ParseTaskLine("TASK 0 1 0 {}", &parsed).ok());
  EXPECT_FALSE(ParseTaskLine("TASK 1 0 0 {}", &parsed).ok());
  EXPECT_FALSE(ParseTaskLine("TASK 1 1 2 {}", &parsed).ok());
  EXPECT_FALSE(ParseTaskLine("TASK 1 1 0", &parsed).ok());
  EXPECT_FALSE(ParseTaskLine("TUSK 1 1 0 {}", &parsed).ok());
}

TEST(Wire, HeartbeatRoundTrip) {
  uint64_t ticket = 0;
  ASSERT_TRUE(ParseHeartbeatLine("HB 7", &ticket));
  EXPECT_EQ(ticket, 7u);
  EXPECT_FALSE(ParseHeartbeatLine("HB 0", &ticket));
  EXPECT_FALSE(ParseHeartbeatLine("HB x", &ticket));
  EXPECT_EQ(ClassifyLine("HB 7"), WireKind::kHeartbeat);
  EXPECT_EQ(ClassifyLine("RESULT 1 1 1 0 2 00000000 {}"),
            WireKind::kResult);
  EXPECT_EQ(ClassifyLine("noise"), WireKind::kMalformed);
}

TEST(Wire, ResultRoundTripAndCorruptionDetection) {
  ResultFrame frame;
  frame.task_id = 9;
  frame.attempt = 2;
  frame.ok = true;
  frame.recovered_calls = 17;
  frame.payload = "{\"workload\":\"toy\",\"calls\":40, with spaces}";
  const std::string line = EncodeResultLine(frame);
  ASSERT_EQ(line.back(), '\n');
  const std::string body = line.substr(0, line.size() - 1);
  ResultFrame parsed;
  ASSERT_TRUE(ParseResultLine(body, &parsed).ok());
  EXPECT_EQ(parsed.task_id, frame.task_id);
  EXPECT_EQ(parsed.attempt, frame.attempt);
  EXPECT_EQ(parsed.ok, frame.ok);
  EXPECT_EQ(parsed.recovered_calls, frame.recovered_calls);
  EXPECT_EQ(parsed.payload, frame.payload);

  // Truncation at every byte boundary is detected — never parsed into a
  // wrong payload.
  for (size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(ParseResultLine(body.substr(0, len), &parsed).ok())
        << "prefix of length " << len << " accepted";
  }
  // Any single corrupted payload byte is detected.
  for (size_t i = body.rfind(frame.payload); i < body.size(); ++i) {
    std::string flipped = body;
    flipped[i] ^= 0x01;
    EXPECT_FALSE(ParseResultLine(flipped, &parsed).ok())
        << "flip at byte " << i << " accepted";
  }
  // The chaos garble shape specifically must be rejected.
  const std::string garbled = EncodeGarbledResultLine(frame);
  EXPECT_FALSE(
      ParseResultLine(garbled.substr(0, garbled.size() - 1), &parsed).ok());
}

TEST(Wire, FleetStateRejectsEveryTruncationAndBitFlip) {
  std::vector<ResultFrame> done(2);
  done[0].task_id = 1;
  done[0].payload = "{\"workload\":\"toy\"}";
  done[1].task_id = 3;
  done[1].attempt = 2;
  done[1].ok = false;
  done[1].payload = "{\"error\":\"x\"}";
  const std::string good = EncodeFleetState(done);
  std::vector<ResultFrame> parsed;
  ASSERT_TRUE(ParseFleetState(good, 3, &parsed).ok());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[1].task_id, 3u);
  EXPECT_EQ(parsed[1].payload, done[1].payload);
  EXPECT_FALSE(ParseFleetState(good, 2, &parsed).ok());  // task 3 of 2
  // Every prefix fails — including the one that ends exactly where the
  // last RESULT line begins, which a per-line check alone accepts.
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(ParseFleetState(good.substr(0, len), 3, &parsed).ok())
        << "prefix of length " << len << " accepted";
    EXPECT_TRUE(parsed.empty());
  }
  for (size_t i = 0; i < good.size(); ++i) {
    std::string flipped = good;
    flipped[i] ^= 0x01;
    EXPECT_FALSE(ParseFleetState(flipped, 3, &parsed).ok())
        << "bit flip at byte " << i << " accepted";
  }
}

// ---- Chaos injector. ---------------------------------------------------

TEST(Chaos, DeterministicAndBounded) {
  ChaosOptions options;
  options.enabled = true;
  options.seed = 11;
  options.kill_rate = 0.3;
  options.stall_rate = 0.2;
  options.garble_rate = 0.2;
  options.max_faulty_attempts = 3;
  const ChaosInjector a(options), b(options);
  int faults = 0;
  for (uint64_t task = 1; task <= 200; ++task) {
    for (int attempt = 1; attempt <= 5; ++attempt) {
      const ChaosDecision da = a.Decide(task, attempt);
      const ChaosDecision db = b.Decide(task, attempt);
      EXPECT_EQ(da.kind, db.kind);
      EXPECT_EQ(da.kill_round, db.kill_round);
      if (attempt > options.max_faulty_attempts) {
        // The progress guarantee: the schedule goes quiet.
        EXPECT_EQ(da.kind, ChaosKind::kNone);
      }
      if (da.kind != ChaosKind::kNone) ++faults;
      if (da.kind == ChaosKind::kKill) {
        EXPECT_GE(da.kill_round, 1);
        EXPECT_LE(da.kill_round, options.kill_round_span);
      }
    }
  }
  // With these rates the schedule must actually inject faults.
  EXPECT_GT(faults, 100);

  ChaosOptions reseeded = options;
  reseeded.seed = 12;
  const ChaosInjector c(reseeded);
  int differs = 0;
  for (uint64_t task = 1; task <= 200; ++task) {
    if (c.Decide(task, 1).kind != a.Decide(task, 1).kind) ++differs;
  }
  EXPECT_GT(differs, 0) << "seed does not influence the schedule";
}

// ---- The fleet property. -----------------------------------------------

std::vector<RunSpec> AllAlgorithmSpecs() {
  std::vector<RunSpec> specs;
  for (const char* algorithm : kAllAlgorithms) {
    RunSpec spec;
    spec.workload = "toy";
    spec.algorithm = algorithm;
    spec.budget = 40;
    spec.max_indexes = 3;
    spec.seed = 7;
    specs.push_back(spec);
  }
  return specs;
}

/// What `bati_batch --canonical` prints for these specs: one session at a
/// time, canonical result lines. Sessions are destroyed before returning,
/// so no session-owned thread survives into a later fork.
std::vector<std::string> SequentialCanonical(
    const std::vector<RunSpec>& specs) {
  std::vector<std::string> lines;
  for (const RunSpec& spec : specs) {
    const WorkloadBundle* bundle =
        BundleRegistry::Global().TryGet(spec.workload);
    if (bundle == nullptr) {
      lines.push_back("{\"workload\":\"" + spec.workload +
                      "\",\"error\":\"unknown workload: " + spec.workload +
                      "\"}");
      continue;
    }
    SessionOptions options;
    options.capture_result_json = true;
    options.canonical_result_json = true;
    TuningSession session(*bundle, spec, options);
    session.Run();
    lines.push_back(session.result_json());
  }
  return lines;
}

std::string MakeTempDir(const std::string& tag) {
  std::string tmpl = testing::TempDir() + "bati_fleet_" + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* dir = mkdtemp(buf.data());
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

std::vector<std::string> CollectFleet(const FleetOptions& options,
                                      const std::vector<RunSpec>& specs,
                                      FleetStats* stats,
                                      Status* status_out = nullptr) {
  std::vector<std::string> out;
  const std::function<bool(const std::string&)> emit =
      [&out](const std::string& line) {
        out.push_back(line);
        return true;
      };
  const Status status = RunFleet(options, specs, emit, nullptr, stats);
  if (status_out != nullptr) {
    *status_out = status;
  } else {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  return out;
}

void ExpectSameLines(const std::vector<std::string>& got,
                     const std::vector<std::string>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "output line " << (i + 1);
  }
}

TEST(Fleet, ChaosByteIdentityAcrossParallelism) {
  const std::vector<RunSpec> specs = AllAlgorithmSpecs();
  const std::vector<std::string> baseline = SequentialCanonical(specs);

  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    FleetOptions options;
    options.workers = workers;
    options.heartbeat_ms = 20;
    options.lease_timeout_ms = 700;
    options.max_attempts = 10;
    options.chaos.enabled = true;
    options.chaos.seed = 7;
    options.chaos.kill_rate = 0.4;
    options.chaos.stall_rate = 0.15;
    options.chaos.garble_rate = 0.2;
    options.chaos.max_faulty_attempts = 3;
    options.state_dir = MakeTempDir("chaos" + std::to_string(workers));
    FleetStats stats;
    const std::vector<std::string> out =
        CollectFleet(options, specs, &stats);
    ExpectSameLines(out, baseline);
    EXPECT_EQ(stats.tasks, specs.size());
    EXPECT_EQ(stats.ok, specs.size());
    EXPECT_EQ(stats.failed, 0u);
  }
}

TEST(Fleet, SpeculationPreservesOutput) {
  const std::vector<RunSpec> specs = AllAlgorithmSpecs();
  const std::vector<std::string> baseline = SequentialCanonical(specs);
  FleetOptions options;
  options.workers = 4;
  options.heartbeat_ms = 20;
  options.lease_timeout_ms = 1000;
  // Aggressive speculation: the moment the queue empties, every still-
  // running task gets a twin. The twins' results are byte-identical, so
  // the output cannot depend on which copy wins.
  options.straggler_ms = 1;
  options.state_dir = MakeTempDir("spec");
  FleetStats stats;
  const std::vector<std::string> out = CollectFleet(options, specs, &stats);
  ExpectSameLines(out, baseline);
  EXPECT_EQ(stats.ok, specs.size());
}

TEST(Fleet, StopAndResumeConverges) {
  std::vector<RunSpec> specs = AllAlgorithmSpecs();
  specs.resize(4);
  const std::vector<std::string> baseline = SequentialCanonical(specs);
  const std::string dir = MakeTempDir("resume");
  FleetOptions options;
  options.workers = 1;
  options.heartbeat_ms = 20;
  options.lease_timeout_ms = 1000;
  options.state_dir = dir;
  options.state_path = dir + "/fleet.state";

  // First run: stop as soon as the first output line lands. With a single
  // worker, later tasks cannot all be done yet, so the run is interrupted
  // with partial state on disk.
  std::atomic<bool> stop{false};
  std::vector<std::string> first;
  const std::function<bool(const std::string&)> emit =
      [&](const std::string& line) {
        first.push_back(line);
        stop.store(true);
        return true;
      };
  FleetStats stats1;
  const Status st1 = RunFleet(options, specs, emit, &stop, &stats1);
  ASSERT_TRUE(st1.ok()) << st1.ToString();
  ASSERT_TRUE(stats1.interrupted);
  ASSERT_LT(first.size(), specs.size());

  // Restarted coordinator: loads the state, re-runs only unfinished
  // tasks, and re-emits the full output — byte-identical to the clean
  // sequential run.
  options.resume = true;
  FleetStats stats2;
  const std::vector<std::string> out = CollectFleet(options, specs, &stats2);
  ExpectSameLines(out, baseline);
  EXPECT_EQ(stats2.ok, specs.size());
  EXPECT_FALSE(stats2.interrupted);
}

TEST(Fleet, CorruptStateFileFallsBackFresh) {
  std::vector<RunSpec> specs = AllAlgorithmSpecs();
  specs.resize(2);
  const std::vector<std::string> baseline = SequentialCanonical(specs);
  const std::string dir = MakeTempDir("badstate");
  FleetOptions options;
  options.workers = 2;
  options.state_dir = dir;
  options.state_path = dir + "/fleet.state";
  options.resume = true;
  {
    std::FILE* f = std::fopen(options.state_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("bati-fleet-state v1\nRESULT 1 1 1 0 99 deadbeef {}\n", f);
    std::fclose(f);
  }
  FleetStats stats;
  const std::vector<std::string> out = CollectFleet(options, specs, &stats);
  ExpectSameLines(out, baseline);
  EXPECT_EQ(stats.ok, specs.size());
}

TEST(Fleet, TruncatedStateFileFallsBackFresh) {
  // A state file that lost its last RESULT line (a torn copy, say) is
  // rejected as a whole: the resumed fleet re-runs every task instead of
  // trusting the surviving lines.
  std::vector<RunSpec> specs = AllAlgorithmSpecs();
  specs.resize(2);
  const std::vector<std::string> baseline = SequentialCanonical(specs);
  const std::string dir = MakeTempDir("tornstate");
  FleetOptions options;
  options.workers = 2;
  options.state_dir = dir;
  options.state_path = dir + "/fleet.state";
  FleetStats first;
  ExpectSameLines(CollectFleet(options, specs, &first), baseline);
  StatusOr<std::string> state = ReadWholeFile(options.state_path);
  ASSERT_TRUE(state.ok());
  ASSERT_EQ(state->back(), '\n');
  const size_t last_line = state->rfind('\n', state->size() - 2) + 1;
  ASSERT_TRUE(
      AtomicWriteFile(options.state_path, state->substr(0, last_line)).ok());

  options.resume = true;
  FleetStats stats;
  ExpectSameLines(CollectFleet(options, specs, &stats), baseline);
  EXPECT_EQ(stats.ok, specs.size());
  EXPECT_GE(stats.dispatches, specs.size());
}

TEST(Fleet, UnknownWorkloadMatchesBatchErrorLine) {
  std::vector<RunSpec> specs;
  RunSpec good;
  good.workload = "toy";
  good.algorithm = "vanilla-greedy";
  good.budget = 40;
  good.max_indexes = 3;
  good.seed = 7;
  RunSpec bad = good;
  bad.workload = "no-such-workload";
  specs.push_back(good);
  specs.push_back(bad);
  const std::vector<std::string> baseline = SequentialCanonical(specs);
  ASSERT_EQ(baseline[1],
            "{\"workload\":\"no-such-workload\","
            "\"error\":\"unknown workload: no-such-workload\"}");

  FleetOptions options;
  options.workers = 2;
  options.state_dir = MakeTempDir("unknown");
  FleetStats stats;
  const std::vector<std::string> out = CollectFleet(options, specs, &stats);
  ExpectSameLines(out, baseline);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(Fleet, ExhaustedAttemptsYieldErrorLine) {
  std::vector<RunSpec> specs = AllAlgorithmSpecs();
  specs.resize(1);  // vanilla-greedy
  FleetOptions options;
  options.workers = 1;
  options.max_attempts = 2;
  // Every attempt is crash-killed, and with no state_dir there is no
  // checkpoint to resume past the crash point, so the task can never
  // complete: the attempt budget must convert it into an error line
  // rather than an infinite retry loop.
  options.chaos.enabled = true;
  options.chaos.seed = 3;
  options.chaos.kill_rate = 1.0;
  options.chaos.kill_round_span = 1;
  options.chaos.max_faulty_attempts = 100;
  FleetStats stats;
  const std::vector<std::string> out = CollectFleet(options, specs, &stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0],
            "{\"workload\":\"toy\","
            "\"error\":\"task failed after 2 attempts\"}");
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_GE(stats.worker_deaths, 2u);
}

TEST(Fleet, RecoversBudgetFromCheckpoints) {
  // A killed-then-resumed task reports the what-if calls it answered from
  // the checkpoint journal instead of re-spending them.
  std::vector<RunSpec> specs = AllAlgorithmSpecs();
  specs.resize(1);
  const std::vector<std::string> baseline = SequentialCanonical(specs);
  FleetOptions options;
  options.workers = 1;
  options.max_attempts = 6;
  options.state_dir = MakeTempDir("recover");
  options.chaos.enabled = true;
  options.chaos.kill_rate = 1.0;
  options.chaos.kill_round_span = 2;
  options.chaos.max_faulty_attempts = 1;  // attempt 1 dies, attempt 2 clean
  // Pick a seed whose kill lands at round 2, not round 1: the round-1
  // checkpoint predates every what-if call, so only a later crash point
  // exercises budget recovery.
  for (options.chaos.seed = 1; options.chaos.seed < 64;
       ++options.chaos.seed) {
    if (ChaosInjector(options.chaos).Decide(1, 1).kill_round == 2) break;
  }
  ASSERT_EQ(ChaosInjector(options.chaos).Decide(1, 1).kill_round, 2);
  FleetStats stats;
  const std::vector<std::string> out = CollectFleet(options, specs, &stats);
  ExpectSameLines(out, baseline);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.worker_deaths, 1u);
  EXPECT_EQ(stats.resumed_tasks, 1u);
  EXPECT_GT(stats.recovered_calls, 0);
}

}  // namespace
}  // namespace bati
