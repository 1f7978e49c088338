// End-to-end tests for the fault-tolerant router: real ShardService
// workers behind real Unix-socket SocketServers, a real Router
// scatter/gathering across them. Covers full-fleet bit-parity with the
// single-process engine, the kill-one-shard matrix (degraded:true with
// correct missing-shard attribution, popularity failover for a down
// user shard, hard failure only when every shard is gone, probe-driven
// recovery after restart, exact degraded/failover counter deltas per op
// and fleet state), shard replies and probes carrying numbers no int can
// hold, retry/hedging behavior under failpoints, the two-phase
// coordinated swap (commit everywhere / abort everywhere), and the drain
// barrier. The last tests drive client ops through
// ShardService::HandleLine, the one request->reply function behind both
// dgnn_serve front doors, out-of-range numbers and a k past the catalog
// included.

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/hetero_graph.h"
#include "models/bpr_mf.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "shard/partition.h"
#include "shard/router.h"
#include "shard/shard_service.h"
#include "shard/transport.h"
#include "train/recommender.h"
#include "util/failpoint.h"
#include "util/json.h"

namespace dgnn {
namespace {

using serve::Request;
using serve::Response;
using serve::ServingEngine;
using serve::Snapshot;

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

constexpr int kNumShards = 3;

// One in-process shard worker: engine + service + socket server, the
// exact wiring dgnn_serve --listen uses.
struct Worker {
  std::unique_ptr<ServingEngine> engine;
  std::unique_ptr<shard::ShardService> service;
  std::unique_ptr<shard::SocketServer> server;
  std::string snapshot_path;
  std::string socket_path;

  void Serve() {
    server = std::make_unique<shard::SocketServer>();
    ASSERT_TRUE(server
                    ->Start(socket_path,
                            [this](const std::string& line) {
                              return service->HandleLine(line);
                            })
                    .ok());
  }
  void Kill() { server->Stop(); }
};

class ShardRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::Clear();
    dataset_ = std::make_unique<data::Dataset>(
        data::GenerateSynthetic(data::SyntheticConfig::Tiny()));
    graph_ = std::make_unique<graph::HeteroGraph>(*dataset_);
    model_ = std::make_unique<models::BprMf>(*graph_, 8, 5);
    recommender_ =
        std::make_unique<train::Recommender>(*model_, *dataset_);
    full_ = serve::BuildSnapshot(*recommender_, *dataset_, "BPR-MF",
                                 "router-test");
    single_ = std::make_unique<ServingEngine>();
    single_->Swap(std::make_shared<const Snapshot>(full_));

    base_path_ = TestPath("router_fleet.snap");
    ASSERT_TRUE(serve::WriteSnapshot(full_, base_path_).ok());
    ASSERT_TRUE(
        shard::WriteShardSnapshots(full_, base_path_, kNumShards, 42)
            .ok());
    for (int s = 0; s < kNumShards; ++s) {
      auto w = std::make_unique<Worker>();
      w->snapshot_path =
          serve::ShardSnapshotPath(base_path_, s, kNumShards);
      w->socket_path =
          TestPath("router_s" + std::to_string(s) + ".sock");
      w->engine = std::make_unique<ServingEngine>();
      ASSERT_TRUE(w->engine->Load(w->snapshot_path).ok());
      w->service = std::make_unique<shard::ShardService>(
          *w->engine, w->snapshot_path);
      w->Serve();
      workers_.push_back(std::move(w));
    }
  }

  void TearDown() override {
    failpoint::Clear();
    router_.reset();
    for (auto& w : workers_) w->Kill();
  }

  shard::RouterConfig FastConfig() {
    shard::RouterConfig c;
    for (const auto& w : workers_) {
      c.shard_paths.push_back(w->socket_path);
    }
    c.connect_timeout_ms = 250;
    c.shard_timeout_ms = 2000;
    c.probe_timeout_ms = 250;
    c.probe_interval_ms = 20;
    c.default_deadline_ms = 5000;
    c.retries = 2;
    return c;
  }

  void StartRouter(shard::RouterConfig config) {
    router_ = std::make_unique<shard::Router>(std::move(config));
    util::Status s = router_->Start();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  // First user the ring assigns to `shard` — every kill test needs a
  // victim whose owner is (or is not) the dead worker.
  int32_t UserOwnedBy(int shard) {
    for (int32_t u = 0; u < full_.meta.num_users; ++u) {
      if (router_->OwnerShard(u) == shard) return u;
    }
    ADD_FAILURE() << "no user owned by shard " << shard;
    return 0;
  }

  void WaitForState(int shard, shard::HealthState want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (router_->ShardStatuses()[static_cast<size_t>(shard)].state ==
          want) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "shard " << shard << " never reached state "
           << shard::HealthStateName(want);
  }

  static void ExpectBitIdentical(const Response& want,
                                 const Response& got) {
    ASSERT_TRUE(want.ok);
    ASSERT_TRUE(got.ok);
    ASSERT_EQ(want.items.size(), got.items.size());
    for (size_t i = 0; i < want.items.size(); ++i) {
      EXPECT_EQ(want.items[i].item, got.items[i].item) << "rank " << i;
      EXPECT_EQ(std::memcmp(&want.items[i].score, &got.items[i].score,
                            sizeof(float)),
                0)
          << "rank " << i;
    }
  }

  Response SingleTopK(int32_t user, int k) {
    Request r;
    r.type = Request::Type::kTopK;
    r.user = user;
    r.k = k;
    return single_->Handle(r);
  }

  // One router op with the degraded and failover counts it added.
  struct Counted {
    Response resp;
    int64_t degraded = 0;
    int64_t failovers = 0;
  };
  template <typename Op>
  Counted Count(Op op) {
    const shard::RouterCounters before = router_->counters();
    Counted c;
    c.resp = op();
    const shard::RouterCounters after = router_->counters();
    c.degraded = after.degraded_responses - before.degraded_responses;
    c.failovers = after.failovers - before.failovers;
    return c;
  }

  // Replaces worker `s`'s socket server with one whose handler is
  // `rewrite(line, service reply)` — a worker that misbehaves on the wire.
  template <typename Rewrite>
  void ServeRewritten(int s, Rewrite rewrite) {
    Worker& w = *workers_[static_cast<size_t>(s)];
    w.Kill();
    w.server = std::make_unique<shard::SocketServer>();
    ASSERT_TRUE(w.server
                    ->Start(w.socket_path,
                            [&w, rewrite](const std::string& line) {
                              return rewrite(line,
                                             w.service->HandleLine(line));
                            })
                    .ok());
  }

  std::unique_ptr<data::Dataset> dataset_;
  std::unique_ptr<graph::HeteroGraph> graph_;
  std::unique_ptr<models::BprMf> model_;
  std::unique_ptr<train::Recommender> recommender_;
  Snapshot full_;
  std::unique_ptr<ServingEngine> single_;
  std::string base_path_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<shard::Router> router_;
};

// ----- fleet admission ------------------------------------------------------

TEST_F(ShardRouterTest, StartRefusesSocketsOutOfShardOrder) {
  shard::RouterConfig c = FastConfig();
  std::swap(c.shard_paths[0], c.shard_paths[2]);
  shard::Router router(std::move(c));
  util::Status s = router.Start();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("shard-index order"), std::string::npos)
      << s.ToString();
}

TEST_F(ShardRouterTest, StartRefusesMissingWorker) {
  shard::RouterConfig c = FastConfig();
  c.shard_paths[1] = TestPath("router_nobody_home.sock");
  c.connect_timeout_ms = 100;
  shard::Router router(std::move(c));
  EXPECT_FALSE(router.Start().ok());
}

// ----- full-fleet parity ----------------------------------------------------

TEST_F(ShardRouterTest, TopKBitIdenticalToSingleProcess) {
  StartRouter(FastConfig());
  for (int32_t user = 0; user < full_.meta.num_users; ++user) {
    const Response got = router_->TopK(user, 10);
    EXPECT_TRUE(got.missing_shards.empty());
    EXPECT_FALSE(got.degraded);
    ExpectBitIdentical(SingleTopK(user, 10), got);
  }
}

TEST_F(ShardRouterTest, ScoreAndSimilarUsersMatchSingleProcess) {
  StartRouter(FastConfig());
  for (int32_t user = 0; user < 8; ++user) {
    Request sr;
    sr.type = Request::Type::kScore;
    sr.user = user;
    sr.item = 42;
    const Response want = single_->Handle(sr);
    const Response got = router_->Score(user, 42);
    ASSERT_TRUE(want.ok);
    ASSERT_TRUE(got.ok);
    EXPECT_EQ(std::memcmp(&want.score, &got.score, sizeof(float)), 0);

    Request su;
    su.type = Request::Type::kSimilarUsers;
    su.user = user;
    su.k = 5;
    ExpectBitIdentical(single_->Handle(su),
                       router_->SimilarUsers(user, 5));
  }
}

TEST_F(ShardRouterTest, UnknownUserDegradesToPopularityEverywhere) {
  StartRouter(FastConfig());
  const auto unknown = static_cast<int32_t>(full_.meta.num_users + 3);
  const Response want = SingleTopK(unknown, 10);
  ASSERT_TRUE(want.degraded);
  const Response got = router_->TopK(unknown, 10);
  EXPECT_TRUE(got.degraded);
  // A cold user is a degradation but NOT a shard failure: full fleet,
  // nothing missing, and the exact popularity order of the single
  // process.
  EXPECT_TRUE(got.missing_shards.empty());
  ExpectBitIdentical(want, got);
}

// ----- kill-one-shard matrix ------------------------------------------------

TEST_F(ShardRouterTest, DeadItemShardYieldsDegradedWithAttribution) {
  StartRouter(FastConfig());
  // Victim shard 2 is an item shard for this user but not their owner.
  const int32_t user = UserOwnedBy(0);
  workers_[2]->Kill();

  const auto t0 = std::chrono::steady_clock::now();
  const Response got = router_->TopK(user, 10);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 8.0) << "kill must degrade, not hang";

  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_TRUE(got.degraded);
  ASSERT_EQ(got.missing_shards.size(), 1u);
  EXPECT_EQ(got.missing_shards[0], 2);
  // Every returned item lives OUTSIDE the dead shard's range, and the
  // surviving slices still rank bit-identically to the single process
  // with shard 2's items deleted.
  Response want = SingleTopK(user, 10);
  const auto dead = workers_[2]->engine->snapshot()->shard;
  std::vector<serve::ScoredItem> filtered;
  Request full_req;
  full_req.type = Request::Type::kTopK;
  full_req.user = user;
  full_req.k = 10 + static_cast<int>(dead.item_end - dead.item_begin);
  const Response wide = single_->Handle(full_req);
  for (const auto& it : wide.items) {
    if (it.item < dead.item_begin || it.item >= dead.item_end) {
      filtered.push_back(it);
    }
    if (filtered.size() == 10u) break;
  }
  ASSERT_EQ(got.items.size(), filtered.size());
  for (size_t i = 0; i < filtered.size(); ++i) {
    EXPECT_EQ(got.items[i].item, filtered[i].item);
    EXPECT_EQ(std::memcmp(&got.items[i].score, &filtered[i].score,
                          sizeof(float)),
              0);
  }
  EXPECT_GE(router_->counters().degraded_responses, 1);
}

TEST_F(ShardRouterTest, DeadUserShardFailsOverToPopularity) {
  StartRouter(FastConfig());
  const int32_t user = UserOwnedBy(1);
  workers_[1]->Kill();

  const Response got = router_->TopK(user, 10);
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_TRUE(got.degraded);
  // The owner is named missing even though the answer substitutes
  // popularity rather than dropping items.
  ASSERT_FALSE(got.missing_shards.empty());
  EXPECT_EQ(got.missing_shards[0], 1);
  EXPECT_FALSE(got.items.empty());
  EXPECT_GE(router_->counters().failovers, 1);
}

TEST_F(ShardRouterTest, DeadShardScoreDegradesToNeutral) {
  StartRouter(FastConfig());
  const int32_t user = UserOwnedBy(2);
  workers_[2]->Kill();
  const Response got = router_->Score(user, 3);
  ASSERT_TRUE(got.ok);
  EXPECT_TRUE(got.degraded);
  EXPECT_EQ(got.score, 0.0f);
  ASSERT_FALSE(got.missing_shards.empty());
  EXPECT_EQ(got.missing_shards[0], 2);
}

TEST_F(ShardRouterTest, AllShardsDownFailsInsteadOfDegrading) {
  shard::RouterConfig c = FastConfig();
  c.default_deadline_ms = 1500;
  StartRouter(std::move(c));
  const int32_t user = UserOwnedBy(0);
  for (auto& w : workers_) w->Kill();

  // topk fails outright: a failed reply is never counted degraded, even
  // though its owner lookup already counted a failover.
  const Counted topk = Count([&] { return router_->TopK(user, 10); });
  EXPECT_FALSE(topk.resp.ok);
  EXPECT_EQ(topk.resp.error.rfind("all shards unavailable: ", 0), 0u)
      << topk.resp.error;
  EXPECT_EQ(topk.degraded, 0);
  EXPECT_EQ(topk.failovers, 1);
  // score and similar_users stop at the unreachable owner and answer the
  // degraded fallback, which is counted.
  for (const Counted& got :
       {Count([&] { return router_->Score(user, 3); }),
        Count([&] { return router_->SimilarUsers(user, 5); })}) {
    ASSERT_TRUE(got.resp.ok) << got.resp.error;
    EXPECT_TRUE(got.resp.degraded);
    EXPECT_EQ(got.resp.missing_shards, std::vector<int32_t>{0});
    EXPECT_EQ(got.degraded, 1);
    EXPECT_EQ(got.failovers, 1);
  }
}

TEST_F(ShardRouterTest, SimilarUsersWithDeadShardDropsOnlyItsUsers) {
  StartRouter(FastConfig());
  // Shard 2 holds a slice of the users ranked, not the query user.
  const int32_t user = UserOwnedBy(0);
  workers_[2]->Kill();

  const Counted got = Count([&] { return router_->SimilarUsers(user, 5); });
  ASSERT_TRUE(got.resp.ok) << got.resp.error;
  EXPECT_TRUE(got.resp.degraded);
  EXPECT_EQ(got.resp.missing_shards, std::vector<int32_t>{2});
  EXPECT_EQ(got.degraded, 1);
  EXPECT_EQ(got.failovers, 0);
  // Bit-identical to the single process with shard 2's users deleted.
  Request wide_req;
  wide_req.type = Request::Type::kSimilarUsers;
  wide_req.user = user;
  wide_req.k = static_cast<int>(full_.meta.num_users);
  const Response wide = single_->Handle(wide_req);
  Response want;
  want.ok = true;
  for (const auto& it : wide.items) {
    if (router_->OwnerShard(it.item) != 2) want.items.push_back(it);
    if (want.items.size() == 5u) break;
  }
  ExpectBitIdentical(want, got.resp);
}

TEST_F(ShardRouterTest, SimilarUsersWithDeadOwnerDegradesToEmpty) {
  StartRouter(FastConfig());
  const int32_t user = UserOwnedBy(1);
  workers_[1]->Kill();

  const Counted got = Count([&] { return router_->SimilarUsers(user, 5); });
  ASSERT_TRUE(got.resp.ok) << got.resp.error;
  EXPECT_TRUE(got.resp.degraded);
  EXPECT_TRUE(got.resp.items.empty());
  EXPECT_EQ(got.resp.missing_shards, std::vector<int32_t>{1});
  // The newest version the probes saw: every worker loaded once.
  EXPECT_EQ(got.resp.snapshot_version, 1);
  EXPECT_EQ(got.degraded, 1);
  EXPECT_EQ(got.failovers, 1);
}

// Exact counter deltas for every op in each fleet state: one degraded
// count per ok degraded reply, one failover per unreachable owner.
TEST_F(ShardRouterTest, CounterDeltasPerOpAndKillCase) {
  StartRouter(FastConfig());
  struct Case {
    const char* name;
    std::function<Response()> op;
    std::vector<int32_t> missing;
    int64_t degraded;
    int64_t failovers;
  };
  const auto run = [&](const std::vector<Case>& cases) {
    for (const Case& c : cases) {
      const Counted got = Count(c.op);
      ASSERT_TRUE(got.resp.ok) << c.name << ": " << got.resp.error;
      EXPECT_EQ(got.resp.degraded, c.degraded == 1) << c.name;
      EXPECT_EQ(got.resp.missing_shards, c.missing) << c.name;
      EXPECT_EQ(got.degraded, c.degraded) << c.name;
      EXPECT_EQ(got.failovers, c.failovers) << c.name;
    }
  };
  const int32_t live_user = UserOwnedBy(0);
  const int32_t dead_user = UserOwnedBy(2);
  const auto dead = workers_[2]->engine->snapshot()->shard;
  const auto live = workers_[0]->engine->snapshot()->shard;
  const auto dead_item = static_cast<int32_t>(dead.item_begin);
  const auto live_item = static_cast<int32_t>(live.item_begin);
  const auto unknown = static_cast<int32_t>(full_.meta.num_users + 3);

  run({
      {"full topk", [&] { return router_->TopK(live_user, 10); }, {}, 0, 0},
      {"full score", [&] { return router_->Score(live_user, dead_item); },
       {}, 0, 0},
      {"full similar", [&] { return router_->SimilarUsers(live_user, 5); },
       {}, 0, 0},
      {"unknown topk", [&] { return router_->TopK(unknown, 10); }, {}, 1, 0},
      {"unknown score", [&] { return router_->Score(unknown, live_item); },
       {}, 1, 0},
      {"unknown similar", [&] { return router_->SimilarUsers(unknown, 5); },
       {}, 1, 0},
  });

  workers_[2]->Kill();
  run({
      {"dead item shard topk", [&] { return router_->TopK(live_user, 10); },
       {2}, 1, 0},
      {"dead item shard score",
       [&] { return router_->Score(live_user, dead_item); }, {2}, 1, 0},
      {"live item shard score",
       [&] { return router_->Score(live_user, live_item); }, {}, 0, 0},
      {"dead item shard similar",
       [&] { return router_->SimilarUsers(live_user, 5); }, {2}, 1, 0},
      {"dead owner topk", [&] { return router_->TopK(dead_user, 10); }, {2},
       1, 1},
      {"dead owner score",
       [&] { return router_->Score(dead_user, live_item); }, {2}, 1, 1},
      {"dead owner similar",
       [&] { return router_->SimilarUsers(dead_user, 5); }, {2}, 1, 1},
  });
}

TEST_F(ShardRouterTest, OutOfRangeShardReplyCountsAsMissingShard) {
  // Worker 2 answers every partial and score_item with a number no int
  // can hold; the router must treat the reply as malformed.
  ServeRewritten(2, [](const std::string& line, std::string reply) {
    if (line.find("\"topk_partial\"") != std::string::npos) {
      return std::string(
          "{\"ok\":true,\"snapshot_version\":1,"
          "\"items\":[{\"item\":1e20,\"score\":1}]}");
    }
    if (line.find("\"similar_partial\"") != std::string::npos ||
        line.find("\"score_item\"") != std::string::npos) {
      return std::string(
          "{\"ok\":true,\"snapshot_version\":1e30,\"items\":[],"
          "\"score\":1}");
    }
    return reply;
  });
  StartRouter(FastConfig());
  const int32_t user = UserOwnedBy(0);
  const auto dead_item =
      static_cast<int32_t>(workers_[2]->engine->snapshot()->shard.item_begin);
  for (const Response& got :
       {router_->TopK(user, 10), router_->SimilarUsers(user, 5),
        router_->Score(user, dead_item)}) {
    ASSERT_TRUE(got.ok) << got.error;
    EXPECT_TRUE(got.degraded);
    EXPECT_EQ(got.missing_shards, std::vector<int32_t>{2});
    EXPECT_EQ(got.snapshot_version, 1);
  }
}

TEST_F(ShardRouterTest, StartRefusesOutOfRangeProbe) {
  // The first "dim" member wins, so this probe reports an impossible dim.
  ServeRewritten(1, [](const std::string& line, std::string reply) {
    if (line.find("\"probe\"") == std::string::npos) return reply;
    return "{\"dim\":1e300," + reply.substr(1);
  });
  shard::Router router(FastConfig());
  const util::Status s = router.Start();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("malformed probe response"), std::string::npos)
      << s.ToString();
}

TEST_F(ShardRouterTest, ProbesTakeDeadShardDownAndRecoverAfterRestart) {
  StartRouter(FastConfig());
  workers_[2]->Kill();
  WaitForState(2, shard::HealthState::kDown);

  // While down, dispatches short-circuit: still degraded, still fast.
  const Response during = router_->TopK(UserOwnedBy(0), 10);
  ASSERT_TRUE(during.ok);
  EXPECT_TRUE(during.degraded);

  // Restart the worker on the same socket; the probe loop must re-admit
  // it (down -> degraded on first good probe, never straight healthy)
  // and full-fleet answers must be bit-identical again.
  workers_[2]->Serve();
  WaitForState(2, shard::HealthState::kDegraded);
  const int32_t user = UserOwnedBy(0);
  const Response after = router_->TopK(user, 10);
  ASSERT_TRUE(after.ok);
  EXPECT_TRUE(after.missing_shards.empty());
  ExpectBitIdentical(SingleTopK(user, 10), after);
}

// ----- retries / hedging ----------------------------------------------------

TEST_F(ShardRouterTest, TransientDispatchErrorIsRetried) {
  StartRouter(FastConfig());
  ASSERT_TRUE(failpoint::Configure("shard.dispatch=once").ok());
  const int32_t user = UserOwnedBy(0);
  const Response got = router_->TopK(user, 10);
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_TRUE(got.missing_shards.empty());
  ExpectBitIdentical(SingleTopK(user, 10), got);
  EXPECT_GE(router_->counters().retries, 1);
}

TEST_F(ShardRouterTest, HedgedFleetStillBitIdentical) {
  shard::RouterConfig c = FastConfig();
  c.hedge_ms = 1;  // hedge aggressively; results must not change
  StartRouter(std::move(c));
  for (int32_t user = 0; user < 10; ++user) {
    ExpectBitIdentical(SingleTopK(user, 10), router_->TopK(user, 10));
  }
}

TEST_F(ShardRouterTest, MaxInflightShedsInsteadOfQueueing) {
  shard::RouterConfig c = FastConfig();
  c.max_inflight = 1;
  StartRouter(std::move(c));
  // Saturate the single slot from many threads; at least one op must be
  // shed with the PR-5 "overloaded" contract (and none may hang).
  std::vector<Response> responses(16);
  std::vector<std::thread> threads;
  for (int i = 0; i < 16; ++i) {
    threads.emplace_back([this, &responses, i] {
      responses[static_cast<size_t>(i)] = router_->TopK(i % 8, 10);
    });
  }
  for (auto& t : threads) t.join();
  int64_t shed = 0;
  for (const auto& r : responses) {
    if (!r.ok && r.error == "overloaded") ++shed;
  }
  EXPECT_EQ(shed, router_->counters().shed);
}

// ----- two-phase coordinated swap -------------------------------------------

TEST_F(ShardRouterTest, CoordinatedSwapCommitsOnEveryShard) {
  StartRouter(FastConfig());
  // Second export under a different prefix (same content is fine — the
  // point is the fleet-wide version bump).
  const std::string next = TestPath("router_fleet_v2.snap");
  ASSERT_TRUE(
      shard::WriteShardSnapshots(full_, next, kNumShards, 42).ok());
  auto version = router_->CoordinatedSwap(next);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  for (const auto& w : workers_) {
    EXPECT_EQ(w->engine->swap_count(), 2);  // initial load + commit
    EXPECT_FALSE(w->service->has_staged());
  }
  // The fleet still answers bit-identically on the new snapshot.
  const int32_t user = UserOwnedBy(0);
  ExpectBitIdentical(SingleTopK(user, 10), router_->TopK(user, 10));
}

TEST_F(ShardRouterTest, PrepareFailureAbortsOnEveryShard) {
  StartRouter(FastConfig());
  const std::string next = TestPath("router_fleet_v3.snap");
  ASSERT_TRUE(
      shard::WriteShardSnapshots(full_, next, kNumShards, 42).ok());
  // One prepare RPC fails -> the whole swap must abort everywhere: no
  // staged snapshots anywhere, no engine swaps anywhere.
  ASSERT_TRUE(failpoint::Configure("shard.swap=once").ok());
  auto version = router_->CoordinatedSwap(next);
  EXPECT_FALSE(version.ok());
  EXPECT_NE(version.status().ToString().find("aborted"),
            std::string::npos)
      << version.status().ToString();
  for (const auto& w : workers_) {
    EXPECT_FALSE(w->service->has_staged());
    EXPECT_EQ(w->engine->swap_count(), 1);
  }
}

TEST_F(ShardRouterTest, PrepareRejectsCorruptSliceAndAbortsFleet) {
  StartRouter(FastConfig());
  const std::string next = TestPath("router_fleet_v4.snap");
  ASSERT_TRUE(
      shard::WriteShardSnapshots(full_, next, kNumShards, 42).ok());
  // Truncate shard 1's slice: its prepare must fail validation, and the
  // router must abort the stage on shards 0 and 2.
  const std::string victim =
      serve::ShardSnapshotPath(next, 1, kNumShards);
  {
    std::ofstream f(victim, std::ios::trunc | std::ios::binary);
    f << "DGNNSNP1 but not really";
  }
  auto version = router_->CoordinatedSwap(next);
  EXPECT_FALSE(version.ok());
  for (const auto& w : workers_) {
    EXPECT_FALSE(w->service->has_staged());
    EXPECT_EQ(w->engine->swap_count(), 1);
  }
}

// ----- drain ----------------------------------------------------------------

TEST_F(ShardRouterTest, DrainWaitsOutInflightOpsThenStops) {
  StartRouter(FastConfig());
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([this, &done, i] {
      const Response r = router_->TopK(i, 10);
      if (r.ok) done.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  router_->BeginDrain();
  EXPECT_EQ(done.load(), 8);
  router_->Stop();  // idempotent after drain
}

TEST_F(ShardRouterTest, WorkerDrainAbortsStagedSwap) {
  StartRouter(FastConfig());
  // Stage (prepare) directly on worker 0 without committing, then run
  // the worker's drain path: the staged snapshot must be dropped — a
  // SIGTERM mid-two-phase-swap leaves the fleet on the old version.
  const std::string next = TestPath("router_fleet_v5.snap");
  ASSERT_TRUE(
      shard::WriteShardSnapshots(full_, next, kNumShards, 42).ok());
  const std::string line =
      "{\"op\":\"swap_prepare\",\"prefix\":\"" + next +
      "\",\"token\":\"t1\"}";
  const std::string resp = workers_[0]->service->HandleLine(line);
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  ASSERT_TRUE(workers_[0]->service->has_staged());
  EXPECT_TRUE(workers_[0]->service->AbortStagedSwap());
  EXPECT_FALSE(workers_[0]->service->has_staged());
  EXPECT_EQ(workers_[0]->engine->swap_count(), 1);
}

// ----- stats ----------------------------------------------------------------

TEST_F(ShardRouterTest, StatsJsonCarriesPerShardHealth) {
  StartRouter(FastConfig());
  (void)router_->TopK(0, 5);
  const std::string stats = router_->StatsJson();
  EXPECT_NE(stats.find("\"op\":\"stats\""), std::string::npos);
  EXPECT_NE(stats.find("\"bench\":\"dgnn_router\""), std::string::npos);
  EXPECT_NE(stats.find("serve.shard.retries"), std::string::npos);
  EXPECT_NE(stats.find("serve.shard.failovers"), std::string::npos);
  EXPECT_NE(stats.find("serve.shard.degraded_responses"),
            std::string::npos);
  for (int s = 0; s < kNumShards; ++s) {
    EXPECT_NE(stats.find(workers_[static_cast<size_t>(s)]->socket_path),
              std::string::npos);
  }
}

// ----- the one front door --------------------------------------------------

// Parses one HandleLine reply; a reply that is not a JSON object fails.
util::JsonValue Reply(shard::ShardService& service, const std::string& line) {
  const std::string out = service.HandleLine(line);
  EXPECT_EQ(out.find('\n'), std::string::npos) << out;
  auto parsed = util::ParseJson(out);
  EXPECT_TRUE(parsed.ok() && parsed.value().is_object()) << out;
  return parsed.ok() ? parsed.value() : util::JsonValue();
}

std::vector<std::string> Keys(const util::JsonValue& v) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : v.object) keys.push_back(key);
  return keys;
}

// The tiny synthetic world's snapshot, as every door test serves it.
Snapshot DoorSnapshot() {
  const data::Dataset dataset =
      data::GenerateSynthetic(data::SyntheticConfig::Tiny());
  const graph::HeteroGraph graph(dataset);
  models::BprMf model(graph, 8, 5);
  train::Recommender recommender(model, dataset);
  return serve::BuildSnapshot(recommender, dataset, "BPR-MF", "door-test");
}

TEST(ShardServiceTest, EveryClientOpAnswersThroughHandleLine) {
  const Snapshot snap = DoorSnapshot();
  const std::string path = TestPath("door_a.snap");
  const std::string other = TestPath("door_b.snap");
  const std::string corrupt = TestPath("door_corrupt.snap");
  ASSERT_TRUE(serve::WriteSnapshot(snap, path).ok());
  ASSERT_TRUE(serve::WriteSnapshot(snap, other).ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::string head(100, '\0');
    in.read(head.data(), static_cast<std::streamsize>(head.size()));
    std::ofstream(corrupt, std::ios::binary | std::ios::trunc) << head;
  }
  ServingEngine engine;
  ASSERT_TRUE(engine.Load(path).ok());
  shard::ShardService service(engine, path);

  util::JsonValue r = Reply(service, "{\"op\":\"topk\",\"user\":3,\"k\":5}");
  EXPECT_EQ(Keys(r), (std::vector<std::string>{
                         "ok", "op", "user", "trace_id", "degraded",
                         "snapshot_version", "k", "items"}));
  EXPECT_TRUE(r.BoolOr("ok", false));
  EXPECT_EQ(r.StringOr("op", ""), "topk");
  EXPECT_EQ(r.NumberOr("user", -1), 3);
  EXPECT_EQ(r.NumberOr("trace_id", 0), 1);
  EXPECT_FALSE(r.BoolOr("degraded", true));
  EXPECT_EQ(r.NumberOr("snapshot_version", 0), 1);
  ASSERT_NE(r.Find("items"), nullptr);
  EXPECT_EQ(r.Find("items")->array.size(), 5u);

  r = Reply(service, "{\"op\":\"score\",\"user\":3,\"item\":7}");
  EXPECT_EQ(Keys(r), (std::vector<std::string>{
                         "ok", "op", "user", "trace_id", "degraded",
                         "snapshot_version", "item", "score"}));
  EXPECT_EQ(r.NumberOr("item", -1), 7);

  r = Reply(service, "{\"op\":\"similar_users\",\"user\":3,\"k\":3}");
  EXPECT_EQ(r.StringOr("op", ""), "similar_users");
  ASSERT_NE(r.Find("items"), nullptr);
  EXPECT_EQ(r.Find("items")->array.size(), 3u);

  r = Reply(service, "{\"op\":\"stats\"}");
  EXPECT_TRUE(r.BoolOr("ok", false));
  EXPECT_EQ(r.StringOr("op", ""), "stats");
  EXPECT_EQ(r.NumberOr("requests", -1), 3);
  EXPECT_NE(r.Find("windows"), nullptr);
  EXPECT_NE(r.Find("slo"), nullptr);

  r = Reply(service, "{\"op\":\"stats\",\"format\":\"prom\"}");
  EXPECT_EQ(Keys(r),
            (std::vector<std::string>{"ok", "op", "format", "text"}));
  EXPECT_EQ(r.StringOr("format", ""), "prom");
  EXPECT_NE(r.StringOr("text", "").find("dgnn_serve_requests_total 3"),
            std::string::npos)
      << r.StringOr("text", "");

  r = Reply(service, "{\"op\":\"stats\",\"format\":\"xml\"}");
  EXPECT_FALSE(r.BoolOr("ok", true));
  EXPECT_EQ(r.StringOr("error", ""), "unknown stats format 'xml'");

  r = Reply(service, "{\"op\":\"swap\",\"snapshot\":\"" + other + "\"}");
  EXPECT_EQ(Keys(r),
            (std::vector<std::string>{"ok", "op", "snapshot_version"}));
  EXPECT_TRUE(r.BoolOr("ok", false));
  EXPECT_EQ(r.NumberOr("snapshot_version", 0), 2);

  r = Reply(service,
            "{\"op\":\"swap\",\"snapshot\":\"" + corrupt + "\"}");
  EXPECT_FALSE(r.BoolOr("ok", true));
  EXPECT_NE(r.StringOr("error", ""), "");
  EXPECT_EQ(engine.swap_count(), 2);  // still serving the good snapshot

  r = Reply(service, "{\"op\":\"swap\"}");
  EXPECT_EQ(r.StringOr("error", ""), "swap requires a \"snapshot\" path");

  r = Reply(service, "{\"op\":\"reload\"}");
  EXPECT_TRUE(r.BoolOr("ok", false));
  EXPECT_EQ(r.StringOr("op", ""), "reload");
  EXPECT_EQ(r.NumberOr("snapshot_version", 0), 3);

  r = Reply(service, "{\"op\":\"burst\",\"n\":16,\"user\":3,\"k\":5}");
  EXPECT_EQ(Keys(r), (std::vector<std::string>{"ok", "op", "n", "completed",
                                               "shed", "expired",
                                               "failed"}));
  EXPECT_EQ(r.NumberOr("n", 0), 16);
  EXPECT_EQ(r.NumberOr("completed", 0), 16);
  EXPECT_EQ(r.NumberOr("shed", -1) + r.NumberOr("expired", -1) +
                r.NumberOr("failed", -1),
            0);

  r = Reply(service, "{\"op\":\"burst\",\"n\":0}");
  EXPECT_EQ(r.StringOr("error", ""), "burst requires \"n\" in [1, 256]");

  // One past the cap is refused before any unit runs: the engine sees no
  // new request, so no thread was started.
  const double before = Reply(service, "{\"op\":\"stats\"}")
                            .NumberOr("requests", -1);
  r = Reply(service, "{\"op\":\"burst\",\"n\":257,\"user\":3,\"k\":5}");
  EXPECT_EQ(r.StringOr("error", ""), "burst requires \"n\" in [1, 256]");
  EXPECT_EQ(Reply(service, "{\"op\":\"stats\"}").NumberOr("requests", -1),
            before);

  r = Reply(service, "{\"op\":\"topk\",\"user\":3,\"k\":0}");
  EXPECT_EQ(Keys(r), (std::vector<std::string>{"ok", "error", "trace_id"}));
  EXPECT_EQ(r.StringOr("error", ""), "k must be positive");

  r = Reply(service, "not json");
  EXPECT_EQ(Keys(r), (std::vector<std::string>{"ok", "error"}));
  EXPECT_EQ(r.StringOr("error", "").rfind("request is not valid JSON: ", 0),
            0u);

  // "quit" ends the stdin loop only; the handler does not know it.
  for (const char* op : {"frobnicate", "quit"}) {
    r = Reply(service, std::string("{\"op\":\"") + op + "\"}");
    EXPECT_EQ(Keys(r), (std::vector<std::string>{"ok", "error"}));
    EXPECT_EQ(r.StringOr("error", ""), std::string("unknown op '") + op + "'");
  }

  // The served snapshot after swap + reload is still the one from `path`.
  r = Reply(service, "{\"op\":\"topk\",\"user\":3,\"k\":5}");
  EXPECT_EQ(r.NumberOr("snapshot_version", 0), 3);
}

// Request numbers a field cannot hold are refused by name, before any
// engine sees them: a cast would be undefined behaviour.
TEST(ShardServiceTest, OutOfRangeNumbersAreRefusedNamingTheField) {
  ServingEngine engine;
  engine.Swap(std::make_shared<const Snapshot>(DoorSnapshot()));
  shard::ShardService service(engine, "");
  const struct {
    const char* line;
    const char* field;
  } cases[] = {
      {R"({"op":"topk","user":1e20,"k":5})", "user"},
      {R"({"op":"topk","user":2147483648,"k":5})", "user"},
      {R"({"op":"similar_users","user":-1e20,"k":5})", "user"},
      {R"({"op":"score","user":3,"item":-1e20})", "item"},
      {R"({"op":"topk","user":3,"k":1e12})", "k"},
      {R"({"op":"topk","user":3,"k":5,"deadline_ms":1e300})", "deadline_ms"},
      {R"({"op":"score","user":3,"item":7,"deadline_ms":-1e300})",
       "deadline_ms"},
      {R"({"op":"burst","n":4,"user":1e20})", "user"},
      {R"({"op":"burst","n":4,"user":3,"k":1e12})", "k"},
      {R"({"op":"burst","n":4,"user":3,"deadline_ms":1e300})",
       "deadline_ms"},
      {R"({"op":"user_vector","user":1e20})", "user"},
      {R"({"op":"topk_partial","k":1e12,"popularity":true})", "k"},
      {R"({"op":"score_item","item":1e20,"query":[0]})", "item"},
  };
  for (const auto& c : cases) {
    const util::JsonValue r = Reply(service, c.line);
    EXPECT_FALSE(r.BoolOr("ok", true)) << c.line;
    EXPECT_EQ(r.StringOr("error", ""),
              std::string("\"") + c.field + "\" is out of range")
        << c.line;
  }
  EXPECT_EQ(engine.stats().requests, 0);

  // In-range numbers are read as before: truncated toward zero, the int
  // bounds included, and a deadline far past any op still answers.
  util::JsonValue r = Reply(service, R"({"op":"topk","user":3.7,"k":5.9})");
  EXPECT_EQ(r.NumberOr("user", 0), 3);
  EXPECT_EQ(r.NumberOr("k", 0), 5);
  r = Reply(service, R"({"op":"topk","user":2147483647,"k":5})");
  EXPECT_TRUE(r.BoolOr("ok", false));
  EXPECT_TRUE(r.BoolOr("degraded", false));
  EXPECT_EQ(r.NumberOr("user", 0), 2147483647);
  r = Reply(service, R"({"op":"score","user":3,"item":-2147483648})");
  EXPECT_TRUE(r.BoolOr("ok", false));
  EXPECT_EQ(r.NumberOr("item", 0), -2147483648.0);
  r = Reply(service, R"({"op":"topk","user":3,"k":5,"deadline_ms":1e15})");
  EXPECT_TRUE(r.BoolOr("ok", false)) << r.StringOr("error", "");
}

// A k past the catalog answers like k = catalog size and echoes the k
// asked for, on dense and on quantized (IVF-probed) storage alike.
TEST(ShardServiceTest, KPastTheCatalogRanksTheWholeCatalog) {
  for (const bool quantized : {false, true}) {
    SCOPED_TRACE(quantized ? "int8 + IVF" : "fp32");
    auto snap = std::make_shared<Snapshot>(DoorSnapshot());
    serve::EngineConfig config;
    if (quantized) {
      index::IvfConfig ivf;
      ivf.nlist = 4;
      ASSERT_TRUE(serve::BuildSnapshotIndex(snap.get(), ivf).ok());
      ASSERT_TRUE(
          serve::QuantizeSnapshot(snap.get(), quant::Codec::kInt8).ok());
      config.nprobe = 2;
    }
    const int64_t items = snap->meta.num_items;
    const int64_t users = snap->meta.num_users;
    ServingEngine engine(config);
    engine.Swap(std::move(snap));
    shard::ShardService service(engine, "");
    // The items array closes every ranked reply.
    const auto items_of = [&](const std::string& line) {
      const std::string out = service.HandleLine(line);
      EXPECT_NE(out.find("\"ok\":true"), std::string::npos) << out;
      const size_t at = out.find("\"items\":");
      return at == std::string::npos ? out : out.substr(at);
    };
    for (const auto& [op, n] : {std::pair<std::string, int64_t>{"topk", items},
                                {"similar_users", users}}) {
      const std::string head = R"({"op":")" + op + R"(","user":3,"k":)";
      const std::string huge = head + "1000000000}";
      EXPECT_EQ(items_of(huge), items_of(head + std::to_string(n) + "}"))
          << op;
      EXPECT_EQ(Reply(service, huge).NumberOr("k", 0), 1e9) << op;
    }
  }
}

}  // namespace
}  // namespace dgnn
