// Tests for util/json (escape, builder, parser) and util/run_log (the
// structured JSONL event writer), including thread-safety of Emit and
// the end-to-end trainer/checkpoint integration: a real Fit must produce
// a parseable event stream with the documented vocabulary and ordering.

#include "util/run_log.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ag/serialize.h"
#include "data/synthetic.h"
#include "graph/hetero_graph.h"
#include "models/bpr_mf.h"
#include "train/trainer.h"
#include "util/json.h"

namespace dgnn {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<util::JsonValue> ReadEvents(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<util::JsonValue> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = util::ParseJson(line);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
    if (parsed.ok()) out.push_back(std::move(parsed).value());
  }
  return out;
}

// ----- JSON -----------------------------------------------------------------

TEST(JsonTest, EscapeAndBuilderRoundTrip) {
  util::JsonObject o;
  o.Set("s", "a\"b\\c\n\t")
      .Set("i", int64_t{-7})
      .Set("d", 0.25)
      .Set("b", true)
      .SetRaw("nested", "{\"x\":[1,2]}");
  auto parsed = util::ParseJson(o.Build());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const util::JsonValue& v = parsed.value();
  EXPECT_EQ(v.StringOr("s", ""), "a\"b\\c\n\t");
  EXPECT_EQ(v.NumberOr("i", 0), -7);
  EXPECT_EQ(v.NumberOr("d", 0), 0.25);
  EXPECT_TRUE(v.BoolOr("b", false));
  const util::JsonValue* nested = v.Find("nested");
  ASSERT_NE(nested, nullptr);
  const util::JsonValue* x = nested->Find("x");
  ASSERT_NE(x, nullptr);
  ASSERT_TRUE(x->is_array());
  ASSERT_EQ(x->array.size(), 2u);
  EXPECT_EQ(x->array[1].number, 2);
}

TEST(JsonTest, DoubleRoundTripsAndNonFiniteIsZero) {
  EXPECT_EQ(util::JsonDouble(0.1), "0.10000000000000001");
  EXPECT_EQ(util::JsonDouble(std::nan("")), "0");
  EXPECT_EQ(util::JsonDouble(1.0 / 0.0), "0");
}

TEST(JsonTest, ParserHandlesEscapesNullsAndNesting) {
  auto v = util::ParseJson(
      "  {\"a\": [1, -2.5e2, \"\\u0041\\n\", null, {\"b\": false}]}  ");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const util::JsonValue* a = v.value().Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 5u);
  EXPECT_EQ(a->array[0].number, 1);
  EXPECT_EQ(a->array[1].number, -250);
  EXPECT_EQ(a->array[2].string_value, "A\n");
  EXPECT_EQ(a->array[3].kind, util::JsonValue::Kind::kNull);
  EXPECT_FALSE(a->array[4].BoolOr("b", true));
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(util::ParseJson("").ok());
  EXPECT_FALSE(util::ParseJson("{").ok());
  EXPECT_FALSE(util::ParseJson("{}extra").ok());
  EXPECT_FALSE(util::ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(util::ParseJson("\"unterminated").ok());
  EXPECT_FALSE(util::ParseJson("[1,]").ok());
  EXPECT_FALSE(util::ParseJson("nul").ok());
  // Nesting beyond the depth limit is rejected, not stack-overflowed.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(util::ParseJson(deep).ok());
}

TEST(JsonTest, NarrowIntTruncatesInRangeAndRefusesTheRest) {
  int32_t i = 7;
  EXPECT_TRUE(util::NarrowInt(3.7, &i));
  EXPECT_EQ(i, 3);
  EXPECT_TRUE(util::NarrowInt(-3.7, &i));
  EXPECT_EQ(i, -3);
  EXPECT_TRUE(util::NarrowInt(2147483647.9, &i));
  EXPECT_EQ(i, 2147483647);
  EXPECT_TRUE(util::NarrowInt(-2147483648.9, &i));
  EXPECT_EQ(i, -2147483647 - 1);
  for (double bad : {2147483648.0, -2147483649.0, 1e20, -1e20,
                     std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    i = 7;
    EXPECT_FALSE(util::NarrowInt(bad, &i)) << bad;
    EXPECT_EQ(i, 7) << bad;  // untouched
  }
  int64_t l = 0;
  EXPECT_TRUE(util::NarrowInt(-9223372036854775808.0, &l));
  EXPECT_EQ(l, std::numeric_limits<int64_t>::min());
  EXPECT_FALSE(util::NarrowInt(9223372036854775808.0, &l));
  EXPECT_FALSE(util::NarrowInt(1e300, &l));

  // ReadInt: absent and non-number members keep the default.
  auto v = util::ParseJson(R"({"a":5,"b":"5","c":1e20})");
  ASSERT_TRUE(v.ok());
  int32_t a = -1, b = -1, c = -1, d = -1;
  EXPECT_TRUE(v.value().ReadInt("a", &a));
  EXPECT_TRUE(v.value().ReadInt("b", &b));
  EXPECT_FALSE(v.value().ReadInt("c", &c));
  EXPECT_TRUE(v.value().ReadInt("d", &d));
  EXPECT_EQ(a, 5);
  EXPECT_EQ(b, -1);
  EXPECT_EQ(c, -1);
  EXPECT_EQ(d, -1);
}

// ----- Run log --------------------------------------------------------------

TEST(RunLogTest, InactiveByDefaultAndEmitIsNoOp) {
  runlog::Close();
  EXPECT_FALSE(runlog::Active());
  EXPECT_EQ(runlog::CurrentPath(), "");
  util::JsonObject o;
  o.Set("x", 1);
  runlog::Emit("epoch", o);  // must not crash
  EXPECT_EQ(runlog::NumEvents(), 0);
}

TEST(RunLogTest, EmitWritesEnvelopeAndFields) {
  const std::string path = TempPath("runlog_basic.jsonl");
  ASSERT_TRUE(runlog::Open(path).ok());
  EXPECT_TRUE(runlog::Active());
  EXPECT_EQ(runlog::CurrentPath(), path);
  util::JsonObject o;
  o.Set("epoch", 3).Set("loss", 0.5);
  runlog::Emit("epoch", o);
  runlog::Emit("run_end", util::JsonObject());  // empty payload is legal
  EXPECT_EQ(runlog::NumEvents(), 2);
  runlog::Close();
  EXPECT_FALSE(runlog::Active());

  auto events = ReadEvents(path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].StringOr("event", ""), "epoch");
  EXPECT_EQ(events[0].NumberOr("v", 0), runlog::kSchemaVersion);
  EXPECT_GE(events[0].NumberOr("elapsed_s", -1.0), 0.0);
  EXPECT_EQ(events[0].NumberOr("epoch", 0), 3);
  EXPECT_EQ(events[0].NumberOr("loss", 0), 0.5);
  EXPECT_EQ(events[1].StringOr("event", ""), "run_end");
  std::remove(path.c_str());
}

TEST(RunLogTest, ReopenTruncatesAndReplaces) {
  const std::string path1 = TempPath("runlog_first.jsonl");
  const std::string path2 = TempPath("runlog_second.jsonl");
  ASSERT_TRUE(runlog::Open(path1).ok());
  runlog::Emit("eval", util::JsonObject());
  // Opening a second log closes the first and resets the counter.
  ASSERT_TRUE(runlog::Open(path2).ok());
  EXPECT_EQ(runlog::NumEvents(), 0);
  EXPECT_EQ(runlog::CurrentPath(), path2);
  runlog::Emit("eval", util::JsonObject());
  runlog::Close();
  EXPECT_EQ(ReadEvents(path1).size(), 1u);
  EXPECT_EQ(ReadEvents(path2).size(), 1u);
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(RunLogTest, ConcurrentEmitsProduceValidLines) {
  const std::string path = TempPath("runlog_concurrent.jsonl");
  ASSERT_TRUE(runlog::Open(path).ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        util::JsonObject o;
        o.Set("thread", t).Set("i", i).Set("payload", "abc\"def\\ghi");
        runlog::Emit("eval", o);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(runlog::NumEvents(), kThreads * kPerThread);
  runlog::Close();
  // Every line must parse — torn/interleaved writes would corrupt JSON.
  auto events = ReadEvents(path);
  ASSERT_EQ(events.size(),
            static_cast<size_t>(kThreads) * kPerThread);
  for (const auto& e : events) {
    EXPECT_EQ(e.StringOr("event", ""), "eval");
    EXPECT_EQ(e.StringOr("payload", ""), "abc\"def\\ghi");
  }
  std::remove(path.c_str());
}

// ----- Trainer / checkpoint integration -------------------------------------

class RunLogIntegrationTest : public ::testing::Test {
 protected:
  RunLogIntegrationTest()
      : dataset_(data::GenerateSynthetic(data::SyntheticConfig::Tiny())),
        graph_(dataset_) {}
  ~RunLogIntegrationTest() override { runlog::Close(); }
  data::Dataset dataset_;
  graph::HeteroGraph graph_;
};

TEST_F(RunLogIntegrationTest, FitEmitsDocumentedEventStream) {
  const std::string path = TempPath("runlog_fit.jsonl");
  ASSERT_TRUE(runlog::Open(path).ok());
  models::BprMf model(graph_, 8, 3);
  train::TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 128;
  tc.eval_every = 2;
  tc.eval_cutoffs = {5, 10};
  tc.grad_stats_every = 3;
  train::Trainer trainer(&model, dataset_, tc);
  train::TrainResult result = trainer.Fit();
  runlog::Close();

  auto events = ReadEvents(path);
  ASSERT_GE(events.size(), 7u);
  EXPECT_EQ(events.front().StringOr("event", ""), "run_start");
  EXPECT_EQ(events.back().StringOr("event", ""), "run_end");

  const util::JsonValue& start = events.front();
  EXPECT_EQ(start.StringOr("model", ""), "BPR-MF");
  EXPECT_EQ(start.NumberOr("seed", 0), 42);
  const util::JsonValue* ds = start.Find("dataset_stats");
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->NumberOr("num_users", 0), dataset_.num_users);
  const util::JsonValue* cfg = start.Find("config");
  ASSERT_NE(cfg, nullptr);
  EXPECT_EQ(cfg->NumberOr("epochs", 0), 4);
  EXPECT_EQ(cfg->NumberOr("grad_stats_every", 0), 3);

  int epochs = 0, evals = 0, grad_stats = 0;
  for (const auto& e : events) {
    const std::string kind = e.StringOr("event", "");
    EXPECT_EQ(e.NumberOr("v", 0), runlog::kSchemaVersion) << kind;
    if (kind == "epoch") {
      ++epochs;
      EXPECT_GT(e.NumberOr("epoch", 0), 0);
      EXPECT_GE(e.NumberOr("train_seconds", -1), 0.0);
      if (e.BoolOr("evaluated", false)) {
        const util::JsonValue* m = e.Find("metrics");
        ASSERT_NE(m, nullptr);
        const util::JsonValue* hr = m->Find("hr");
        ASSERT_NE(hr, nullptr);
        EXPECT_NE(hr->Find("10"), nullptr);
      }
    } else if (kind == "eval") {
      ++evals;
    } else if (kind == "grad_stats") {
      ++grad_stats;
      const util::JsonValue* params = e.Find("params");
      ASSERT_NE(params, nullptr);
      ASSERT_TRUE(params->is_array());
      EXPECT_FALSE(params->array.empty());
      for (const auto& p : params->array) {
        EXPECT_TRUE(p.BoolOr("finite", false))
            << p.StringOr("name", "?");
      }
    }
  }
  EXPECT_EQ(epochs, 4);
  // Two periodic evals (epochs 2 and 4) plus the final one.
  EXPECT_EQ(evals, 3);
  EXPECT_GT(grad_stats, 0);

  const util::JsonValue& end = events.back();
  EXPECT_EQ(end.NumberOr("epochs_run", 0), 4);
  EXPECT_EQ(end.NumberOr("best_epoch", 0), result.best_epoch);
  EXPECT_EQ(end.NumberOr("best_metric", -1), result.best_metric);
  EXPECT_NE(end.Find("final_metrics"), nullptr);
  std::remove(path.c_str());
}

TEST_F(RunLogIntegrationTest, CheckpointEventsRecordSaveAndFailedLoad) {
  const std::string path = TempPath("runlog_ckpt.jsonl");
  const std::string params = TempPath("runlog_ckpt_params.bin");
  ASSERT_TRUE(runlog::Open(path).ok());
  models::BprMf model(graph_, 8, 3);
  ASSERT_TRUE(ag::SaveParameters(model.params(), params).ok());
  ASSERT_TRUE(ag::LoadParameters(model.params(), params).ok());
  EXPECT_FALSE(
      ag::LoadParameters(model.params(), params + ".missing").ok());
  runlog::Close();

  auto events = ReadEvents(path);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].StringOr("event", ""), "checkpoint");
  EXPECT_EQ(events[0].StringOr("action", ""), "save");
  EXPECT_TRUE(events[0].BoolOr("ok", false));
  EXPECT_GT(events[0].NumberOr("num_params", 0), 0);
  EXPECT_EQ(events[1].StringOr("action", ""), "load");
  EXPECT_TRUE(events[1].BoolOr("ok", false));
  EXPECT_EQ(events[2].StringOr("action", ""), "load");
  EXPECT_FALSE(events[2].BoolOr("ok", true));
  EXPECT_NE(events[2].Find("error"), nullptr);
  std::remove(path.c_str());
  std::remove(params.c_str());
}

TEST_F(RunLogIntegrationTest, BestEpochTracksHighestEvaluatedHr) {
  // No run log needed: this is the early-stop bookkeeping fix. Fit must
  // record which evaluated epoch scored best, with the final evaluation
  // attributed to the last epoch.
  models::BprMf model(graph_, 8, 3);
  train::TrainConfig tc;
  tc.epochs = 6;
  tc.batch_size = 128;
  tc.eval_every = 2;
  tc.eval_cutoffs = {10};
  train::Trainer trainer(&model, dataset_, tc);
  train::TrainResult result = trainer.Fit();
  ASSERT_GT(result.best_epoch, 0);
  ASSERT_LE(result.best_epoch, 6);
  // best_metric is the max over every evaluation that happened,
  // including the final one.
  double max_seen = result.final_metrics.hr[10];
  for (const auto& e : result.epochs) {
    if (e.evaluated) {
      auto it = e.metrics.hr.find(10);
      ASSERT_NE(it, e.metrics.hr.end());
      if (it->second > max_seen) max_seen = it->second;
    }
  }
  EXPECT_EQ(result.best_metric, max_seen);
}

}  // namespace
}  // namespace dgnn
