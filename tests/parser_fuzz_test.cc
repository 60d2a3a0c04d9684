// Seeded mutation fuzzing of every parser that reads input from outside
// the process: bati_batch spec lines, serve event lines, Chrome trace
// JSON, the what-if and serve checkpoints, the fleet state file, fleet
// wire frames, and the SQL/DDL front end.
//
// Self-contained (plain g++, no libFuzzer): a fixed seed and fixed
// iteration counts make every run replay the same inputs, and the whole
// binary finishes in a few seconds, under ASan+UBSan too. Properties:
// nothing crashes, and whenever a spec, checkpoint or state file parses,
// serializing the value and parsing that again gives an equal value.
// Record files are mutated twice over: as raw bytes (the framing must
// reject them) and as bodies re-framed with a fresh checksum (so the
// record parsers behind the framing see the damage).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/record_file.h"
#include "common/rng.h"
#include "fleet/wire.h"
#include "obs/tracer.h"
#include "serve/event_json.h"
#include "serve/serve_checkpoint.h"
#include "session/spec_json.h"
#include "whatif/checkpoint.h"
#include "workload/loader.h"

namespace bati {
namespace {

constexpr uint64_t kSeed = 0x5eed0f12;
constexpr int kIterations = 20000;

/// Bytes that matter to the grammars under test.
constexpr char kInteresting[] =
    "{}[]\":,\\ /0123456789-+.eEpx;()'*=\n\t\r\x01\x1f\x7f\x80\xff";

/// One to four random edits of `input`: bit flips, interesting bytes
/// replaced or inserted, spans erased or duplicated, truncation, and
/// splices from another corpus entry.
std::string Mutate(const std::vector<std::string>& corpus, Rng* rng) {
  // A uniform draw from [0, n].
  auto upto = [rng](size_t n) {
    return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n)));
  };
  std::string s = corpus[upto(corpus.size() - 1)];
  const size_t edits = 1 + upto(3);
  for (size_t e = 0; e < edits; ++e) {
    const size_t pos = upto(s.size());
    const size_t span = 1 + upto(7);
    const char byte = kInteresting[upto(sizeof(kInteresting) - 2)];
    switch (upto(6)) {
      case 0:
        if (pos < s.size()) s[pos] ^= static_cast<char>(1 << upto(7));
        break;
      case 1:
        if (pos < s.size()) s[pos] = byte;
        break;
      case 2:
        s.insert(pos, 1, byte);
        break;
      case 3:
        s.erase(pos, span);
        break;
      case 4:
        s.insert(pos, s.substr(pos, span));
        break;
      case 5:
        s.resize(pos);
        break;
      default: {
        const std::string& other = corpus[upto(corpus.size() - 1)];
        s.insert(pos, other.substr(upto(other.size()), span * 4));
        break;
      }
    }
  }
  return s;
}

/// Runs `check` over kIterations mutants of `corpus`, stopping at the
/// first failed property so one defect does not flood the log.
template <typename Check>
void Fuzz(const std::vector<std::string>& corpus, uint64_t salt,
          Check&& check) {
  Rng rng(kSeed ^ salt);
  for (const std::string& input : corpus) {
    check(input);
    ASSERT_FALSE(testing::Test::HasFailure()) << "corpus entry:\n" << input;
  }
  for (int i = 0; i < kIterations; ++i) {
    const std::string input = Mutate(corpus, &rng);
    check(input);
    ASSERT_FALSE(testing::Test::HasFailure()) << "mutant " << i << ":\n"
                                              << input;
  }
}

/// Record-file mutants: the raw file, and its body re-framed under `magic`.
template <typename Check>
void FuzzRecordFile(const std::string& file, const std::string& magic,
                    uint64_t salt, Check&& check) {
  Fuzz({file}, salt, check);
  std::string_view body;
  ASSERT_TRUE(UnframeRecordFile(file, magic, &body).ok());
  Fuzz({std::string(body)}, salt + 1, [&](const std::string& mutant) {
    check(FrameRecordFile(magic, mutant));
  });
}

void ExpectSpecRoundTrip(const RunSpec& spec) {
  const std::string json = RunSpecToJson(spec);
  RunSpec again;
  const Status st = ParseRunSpecJson(json, &again);
  ASSERT_TRUE(st.ok()) << st.ToString() << " re-parsing " << json;
  EXPECT_EQ(RunSpecToJson(again), json);
  EXPECT_EQ(RunIdentity(again), RunIdentity(spec));
}

TEST(ParserFuzz, SpecLines) {
  Fuzz(
      {R"({"workload":"tpch","algorithm":"mcts","budget":2000,"k":5})",
       R"({"workload":"toy","storage_gb":2.5,"seed":9,"early_stop":true,)"
       R"("realloc_budget":true,"skip_threshold":0.01,"stop_window":40})",
       R"({"workload":"toy","fault_rate":0.05,"fault_sticky":0.01,)"
       R"("fault_spike":0.1,"fault_spike_factor":8,"fault_seed":3,)"
       R"("retry_attempts":6,"retry_timeout":4.5,"collect_metrics":true})",
       R"({"workload":"to\"y\\","trace_out":"/té\n.json",)"
       R"("signal":"measured","checkpoint":"c","resume":"r"})"},
      1, [](const std::string& line) {
        RunSpec spec;
        if (ParseRunSpecJson(line, &spec).ok()) ExpectSpecRoundTrip(spec);
      });
}

TEST(ParserFuzz, EventLines) {
  Fuzz({R"({"type":"query","tenant":"t","query":3,"weight":2.5})",
        R"({"type":"register","tenant":"t","workload":"toy","budget":40,)"
        R"("queue_quota":2,"budget_quota":100,"tune":true,"k":3})",
        R"({"type":"tune","tenant":"t","budget":9,"seed":7,)"
        R"("algorithm":"vanilla-greedy"})",
        R"({"type":"deploy","tenant":"t","config":"1 4 7"})",
        R"({"type":"advance","seconds":30})", R"({"type":"drain"})"},
       2, [](const std::string& line) {
         ServeEvent event;
         if (ParseServeEventJson(line, 1, &event).ok() &&
             event.type == ServeEventType::kRegister) {
           ExpectSpecRoundTrip(event.spec);
         }
       });
}

TEST(ParserFuzz, TraceJson) {
  Tracer tracer(8);
  tracer.Complete("round", "tuner", 0.0, 3.0, 0.0, 0.5, {{"round", 1.0}});
  tracer.Instant("stop", "governor", 1.5);
  Fuzz({tracer.ToChromeJson(), R"({"a":[1,-2.5e3,true,null,{"b":"A"}],)"
                               R"("traceEvents":[]})"},
       3, [](const std::string& json) {
         size_t events = 0;
         (void)Tracer::ValidateChromeJson(json, &events);
       });
}

TEST(ParserFuzz, WhatIfCheckpoint) {
  EngineCheckpoint ckpt;
  ckpt.identity = "workload=toy,algorithm=mcts with spaces";
  ckpt.num_queries = 4;
  ckpt.num_candidates = 9;
  ckpt.budget = 100;
  ckpt.round = 3;
  ckpt.calls_made = 2;
  ckpt.degraded_cells = 1;
  ckpt.governor_stop_round = 2;
  CheckpointEvent charged;
  charged.query_id = 1;
  charged.cost = 0.1 + 0.2;
  charged.sim_seconds = 1.5;
  charged.positions = {0, 3, 8};
  CheckpointEvent degraded = charged;
  degraded.charged = false;
  degraded.round = 2;
  degraded.positions = {2};
  CheckpointEvent late = charged;
  late.round = 2;
  ckpt.events = {charged, degraded, late};
  ckpt.sim_seconds = 4.5;
  FuzzRecordFile(SerializeCheckpoint(ckpt), "bati-checkpoint v2", 4,
                 [](const std::string& text) {
                   StatusOr<EngineCheckpoint> parsed = ParseCheckpoint(text);
                   if (!parsed.ok()) return;
                   const std::string again = SerializeCheckpoint(*parsed);
                   StatusOr<EngineCheckpoint> reparsed = ParseCheckpoint(again);
                   ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
                   EXPECT_EQ(SerializeCheckpoint(*reparsed), again);
                   EXPECT_EQ(reparsed->events, parsed->events);
                   EXPECT_EQ(reparsed->identity, parsed->identity);
                 });
}

TEST(ParserFuzz, ServeCheckpoint) {
  ServeCheckpoint ckpt;
  ckpt.events_processed = 12;
  ckpt.clock = 0.1;
  ckpt.next_tune_id = 5;
  ckpt.queries = 30;
  ckpt.signal = SignalKind::kDeterministicExec;
  ServeTenantState tenant;
  tenant.name = "alpha";
  tenant.spec_json = R"({"workload":"toy","algorithm":"mcts"})";
  tenant.calib_samples = 3;
  tenant.calib_sum = 2.565;
  tenant.deployed = {0, 4, 9};
  tenant.observer_state = "counts 0 0\nwindow 0\nreference 0\n";
  ckpt.tenants = {tenant};
  ServePendingTune ok;
  ok.tune_id = 3;
  ok.tenant = "alpha";
  ok.origin = "drift";
  ok.submit_clock = 17.25;
  ok.positions = {0, 3, 7};
  ok.improvement = 1e-300;
  ServePendingTune failed;
  failed.tune_id = 4;
  failed.tenant = "alpha";
  failed.origin = "tune";
  failed.failed = true;
  failed.error = "cancelled after 3 attempts";
  ckpt.pending = {ok, failed};
  FuzzRecordFile(
      SerializeServeCheckpoint(ckpt), "bati-serve v3", 5,
      [](const std::string& text) {
        StatusOr<ServeCheckpoint> parsed = ParseServeCheckpoint(text);
        if (!parsed.ok()) return;
        StatusOr<ServeCheckpoint> reparsed =
            ParseServeCheckpoint(SerializeServeCheckpoint(*parsed));
        ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
        EXPECT_EQ(*reparsed, *parsed);
      });
}

bool SameFrames(const std::vector<ResultFrame>& a,
                const std::vector<ResultFrame>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].task_id != b[i].task_id || a[i].attempt != b[i].attempt ||
        a[i].ok != b[i].ok || a[i].recovered_calls != b[i].recovered_calls ||
        a[i].payload != b[i].payload) {
      return false;
    }
  }
  return true;
}

TEST(ParserFuzz, FleetState) {
  std::vector<ResultFrame> done(3);
  done[0].task_id = 1;
  done[0].payload = R"({"workload":"toy","calls":40})";
  done[1].task_id = 2;
  done[1].attempt = 3;
  done[1].ok = false;
  done[1].payload = R"({"workload":"x","error":"task failed"})";
  done[2].task_id = 4;
  done[2].recovered_calls = 17;
  FuzzRecordFile(EncodeFleetState(done), "bati-fleet-state v2", 6,
                 [](const std::string& text) {
                   std::vector<ResultFrame> parsed;
                   if (!ParseFleetState(text, 100, &parsed).ok()) return;
                   std::vector<ResultFrame> reparsed;
                   ASSERT_TRUE(
                       ParseFleetState(EncodeFleetState(parsed), 100, &reparsed)
                           .ok());
                   EXPECT_TRUE(SameFrames(reparsed, parsed));
                 });
}

TEST(ParserFuzz, WireFrames) {
  TaskFrame task;
  task.task_id = 42;
  task.attempt = 2;
  task.resume = true;
  task.spec_json = R"({"workload":"toy","budget":40})";
  ResultFrame result;
  result.task_id = 9;
  result.recovered_calls = 3;
  result.payload = R"({"workload":"toy", "calls":40})";
  auto line = [](std::string s) {
    s.pop_back();  // the newline the reader strips
    return s;
  };
  Fuzz({line(EncodeTaskLine(task)), line(EncodeResultLine(result)),
        line(EncodeHeartbeatLine(7))},
       7, [](const std::string& text) {
         TaskFrame t;
         if (ParseTaskLine(text, &t).ok()) {
           TaskFrame again;
           std::string encoded = EncodeTaskLine(t);
           encoded.pop_back();
           ASSERT_TRUE(ParseTaskLine(encoded, &again).ok());
           EXPECT_EQ(again.task_id, t.task_id);
           EXPECT_EQ(again.attempt, t.attempt);
           EXPECT_EQ(again.resume, t.resume);
           EXPECT_EQ(again.spec_json, t.spec_json);
         }
         ResultFrame r;
         if (ParseResultLine(text, &r).ok()) {
           std::string encoded = EncodeResultLine(r);
           encoded.pop_back();
           ResultFrame again;
           ASSERT_TRUE(ParseResultLine(encoded, &again).ok());
           EXPECT_TRUE(SameFrames({again}, {r}));
         }
         uint64_t id = 0;
         (void)ParseHeartbeatLine(text, &id);
         (void)ClassifyLine(text);
       });
}

TEST(ParserFuzz, SqlAndDdl) {
  const std::string ddl = R"(
CREATE TABLE orders (
  o_id     BIGINT NDV 5000000 RANGE (0, 5000000),
  o_cust   INT NDV 200000 RANGE (0, 200000),
  o_status VARCHAR(10) NDV 4,
  o_total  DOUBLE NDV 1000000 RANGE (1, 10000)
) WITH (ROWS = 5000000);
CREATE TABLE customers (
  c_id      BIGINT NDV 200000 RANGE (0, 200000),
  c_country CHAR(2) NDV 60
) WITH (ROWS = 200000);
)";
  auto db = LoadSchemaFromDdl("shop", ddl);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Fuzz({ddl}, 8, [](const std::string& script) {
    (void)LoadSchemaFromDdl("fuzz", script);
  });
  Fuzz({"SELECT o_id FROM orders WHERE o_status = 'OPEN' AND o_total > 10;",
        "SELECT c_country, COUNT(*) FROM orders, customers "
        "WHERE o_cust = c_id AND c_country IN ('DE', 'FR') "
        "GROUP BY c_country ORDER BY c_country;",
        "SELECT o_id, o_total FROM orders WHERE o_total BETWEEN 5 AND 9 "
        "OR o_cust < 100;\n-- comment\nSELECT * FROM customers;"},
       9, [&](const std::string& script) {
         (void)LoadWorkloadFromSql("fuzz", *db, script);
       });
}

}  // namespace
}  // namespace bati
