#include "shard/shard_service.h"

#include <thread>
#include <utility>
#include <vector>

#include "serve/observe.h"
#include "serve/snapshot.h"
#include "shard/wire.h"
#include "util/json.h"
#include "util/run_log.h"
#include "util/status.h"

namespace dgnn::shard {
namespace {

using util::JsonObject;
using util::JsonValue;

std::string ErrorLine(const std::string& op, const std::string& message) {
  JsonObject o;
  o.Set("ok", false).Set("op", op).Set("error", message);
  return o.Build();
}

// The common prefix of every successful shard-op reply.
JsonObject ResponseHead(const std::string& op, const serve::Response& resp) {
  JsonObject o;
  o.Set("ok", true)
      .Set("op", op)
      .Set("trace_id", resp.trace_id)
      .Set("degraded", resp.degraded)
      .Set("snapshot_version", resp.snapshot_version);
  return o;
}

}  // namespace

std::string ShardService::Probe() {
  const auto snap = engine_.snapshot();
  if (snap == nullptr) {
    return ErrorLine("probe", "no snapshot loaded");
  }
  const serve::EngineStats stats = engine_.stats();
  JsonObject o;
  o.Set("ok", true)
      .Set("op", "probe")
      .Set("shard_index", static_cast<int64_t>(snap->shard.shard_index))
      .Set("num_shards", static_cast<int64_t>(snap->shard.num_shards))
      .Set("item_begin", snap->shard.item_begin)
      .Set("item_end", snap->shard.item_end)
      // Decimal string, not a JSON number: a 64-bit seed must survive
      // the wire exactly and doubles only carry 53 bits.
      .Set("hash_seed", std::to_string(snap->shard.hash_seed))
      .Set("num_users", snap->meta.num_users)
      .Set("num_items", snap->meta.num_items)
      .Set("dim", snap->meta.embedding_dim)
      .Set("snapshot_version", engine_.swap_count())
      .Set("queue_depth", engine_.queue_depth())
      .Set("shed_requests", stats.shed_requests)
      .Set("resident_bytes", serve::SnapshotResidentBytes(*snap))
      .Set("staged", has_staged());
  return o.Build();
}

std::string ShardService::SwapPrepare(const JsonValue& req) {
  const std::string prefix = req.StringOr("prefix", "");
  const std::string token = req.StringOr("token", "");
  if (prefix.empty() || token.empty()) {
    return ErrorLine("swap_prepare",
                     "swap_prepare requires \"prefix\" and \"token\"");
  }
  const auto current = engine_.snapshot();
  if (current == nullptr) {
    return ErrorLine("swap_prepare", "no snapshot loaded");
  }
  // Sharded workers resolve their own slice of the export; an unsharded
  // worker (single-process deployment speaking the same protocol) takes
  // the prefix as the literal path.
  const std::string path =
      current->shard.empty()
          ? prefix
          : serve::ShardSnapshotPath(prefix, current->shard.shard_index,
                                     current->shard.num_shards);
  auto loaded = serve::ReadSnapshot(path);
  if (!loaded.ok()) {
    return ErrorLine("swap_prepare", loaded.status().ToString());
  }
  serve::Snapshot snap = std::move(loaded).value();
  // The staged snapshot must be a slice for THIS shard identity: same
  // ring (num_shards + seed) and same index, or committing would splice
  // a foreign ownership map into a live fleet.
  if (!current->shard.empty()) {
    if (snap.shard.num_shards != current->shard.num_shards ||
        snap.shard.shard_index != current->shard.shard_index ||
        snap.shard.hash_seed != current->shard.hash_seed) {
      return ErrorLine(
          "swap_prepare",
          "staged snapshot '" + path + "' is for shard " +
              std::to_string(snap.shard.shard_index) + "/" +
              std::to_string(snap.shard.num_shards) +
              ", this worker serves shard " +
              std::to_string(current->shard.shard_index) + "/" +
              std::to_string(current->shard.num_shards));
    }
  } else if (!snap.shard.empty()) {
    return ErrorLine("swap_prepare",
                     "staged snapshot '" + path +
                         "' is a shard slice but this worker serves an "
                         "unsharded snapshot");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    staged_ = std::make_shared<const serve::Snapshot>(std::move(snap));
    staged_token_ = token;
  }
  JsonObject o;
  o.Set("ok", true)
      .Set("op", "swap_prepare")
      .Set("token", token)
      .Set("path", path);
  return o.Build();
}

std::string ShardService::SwapCommit(const JsonValue& req) {
  const std::string token = req.StringOr("token", "");
  std::shared_ptr<const serve::Snapshot> snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (staged_ == nullptr || staged_token_ != token) {
      return ErrorLine("swap_commit",
                       staged_ == nullptr
                           ? "no staged swap"
                           : "staged token mismatch (staged '" +
                                 staged_token_ + "', commit '" + token +
                                 "')");
    }
    snap = std::move(staged_);
    staged_.reset();
    staged_token_.clear();
  }
  engine_.Swap(std::move(snap));
  JsonObject o;
  o.Set("ok", true)
      .Set("op", "swap_commit")
      .Set("token", token)
      .Set("snapshot_version", engine_.swap_count());
  return o.Build();
}

std::string ShardService::SwapAbort(const JsonValue& req) {
  const std::string token = req.StringOr("token", "");
  bool aborted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Abort is idempotent and forgiving: an empty token (or the staged
    // one) drops the stage; a mismatched token is a no-op "nothing to
    // abort", never an error — the caller is cleaning up.
    if (staged_ != nullptr && (token.empty() || token == staged_token_)) {
      staged_.reset();
      staged_token_.clear();
      aborted = true;
    }
  }
  JsonObject o;
  o.Set("ok", true)
      .Set("op", "swap_abort")
      .Set("token", token)
      .Set("aborted", aborted);
  return o.Build();
}

bool ShardService::AbortStagedSwap() {
  std::lock_guard<std::mutex> lock(mu_);
  const bool had = staged_ != nullptr;
  staged_.reset();
  staged_token_.clear();
  return had;
}

util::Status ShardService::Load(const std::string& trigger,
                                const std::string& path) {
  util::Status loaded = engine_.Load(path);
  if (runlog::Active()) {
    JsonObject o;
    o.Set("trigger", trigger)
        .Set("path", path)
        .Set("snapshot_version", engine_.swap_count())
        .Set("ok", loaded.ok());
    if (!loaded.ok()) o.Set("error", loaded.ToString());
    runlog::Emit("snapshot_swap", o);
  }
  return loaded;
}

std::string ShardService::LoadOp(const JsonValue& req, const std::string& op) {
  const std::string path =
      op == "swap" ? req.StringOr("snapshot", "") : snapshot_path_;
  if (path.empty()) return ErrorReply("swap requires a \"snapshot\" path");
  util::Status loaded = Load(op, path);
  if (!loaded.ok()) return ErrorReply(loaded.ToString());
  JsonObject o;
  o.Set("ok", true).Set("op", op).Set("snapshot_version",
                                      engine_.swap_count());
  return o.Build();
}

// {"op":"stats"} returns the flat counters plus the rolling windows and
// SLO burn accounting; {"op":"stats","format":"prom"} wraps the
// Prometheus text exposition of the same snapshot in a single-line reply
// (NDJSON cannot carry raw multi-line text).
std::string ShardService::Stats(const JsonValue& req) {
  const std::string format = req.StringOr("format", "json");
  JsonObject o;
  o.Set("ok", true).Set("op", "stats");
  if (format == "prom") {
    auto prom = serve::observe::PromTextFromStatsJson(
        serve::observe::StatsJson(engine_));
    if (!prom.ok()) return ErrorReply(prom.status().ToString());
    o.Set("format", format).Set("text", prom.value());
    return o.Build();
  }
  if (format != "json") {
    return ErrorReply("unknown stats format '" + format + "'");
  }
  serve::observe::AppendStatsFields(engine_, &o);
  return o.Build();
}

// Runs n copies of one topk request from n threads at once — the way a
// scripted client exercises load shedding — and tallies the outcomes.
std::string ShardService::Burst(const JsonValue& req) {
  // Each unit is one OS thread and any client of the socket can ask, so
  // n stays small; callers use 8-64. Range-checked as a double so the
  // cast below never sees an out-of-range value.
  constexpr int kMaxBurst = 256;
  const double requested = req.NumberOr("n", 0);
  if (!(requested >= 1 && requested <= kMaxBurst)) {
    return ErrorReply("burst requires \"n\" in [1, 256]");
  }
  const int n = static_cast<int>(requested);
  serve::Request base;
  base.type = serve::Request::Type::kTopK;
  base.user = 0;
  base.k = 10;
  base.timeout_ms = 0;
  const auto refuse = [](const char* field) {
    return ErrorReply(FieldOutOfRange(field).message());
  };
  if (!req.ReadInt("user", &base.user)) return refuse("user");
  if (!req.ReadInt("k", &base.k)) return refuse("k");
  if (!req.ReadInt("deadline_ms", &base.timeout_ms)) {
    return refuse("deadline_ms");
  }
  std::vector<serve::Response> responses(static_cast<size_t>(n));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([this, &responses, base, i] {
      responses[static_cast<size_t>(i)] = engine_.Handle(base);
    });
  }
  for (auto& t : threads) t.join();
  int64_t completed = 0, shed = 0, expired = 0, failed = 0;
  for (const auto& r : responses) {
    if (r.ok) {
      ++completed;
    } else if (r.error == "overloaded") {
      ++shed;
    } else if (r.error == "deadline exceeded") {
      ++expired;
    } else {
      ++failed;
    }
  }
  JsonObject o;
  o.Set("ok", true)
      .Set("op", "burst")
      .Set("n", static_cast<int64_t>(n))
      .Set("completed", completed)
      .Set("shed", shed)
      .Set("expired", expired)
      .Set("failed", failed);
  return o.Build();
}

bool ShardService::HandleShardOp(const JsonValue& req, const std::string& op,
                                 std::string* out) {
  if (op == "probe") {
    *out = Probe();
    return true;
  }
  if (op == "swap_prepare") {
    *out = SwapPrepare(req);
    return true;
  }
  if (op == "swap_commit") {
    *out = SwapCommit(req);
    return true;
  }
  if (op == "swap_abort") {
    *out = SwapAbort(req);
    return true;
  }

  serve::Request::Type type;
  if (op == "user_vector") {
    type = serve::Request::Type::kUserVector;
  } else if (op == "topk_partial") {
    type = serve::Request::Type::kTopKPartial;
  } else if (op == "similar_partial") {
    type = serve::Request::Type::kSimilarPartial;
  } else if (op == "score_item") {
    type = serve::Request::Type::kScoreItem;
  } else {
    return false;
  }
  auto parsed = ScoringRequest(req, type);
  if (!parsed.ok()) {
    *out = ErrorLine(op, parsed.status().message());
    return true;
  }
  serve::Request request = std::move(parsed).value();
  request.popularity = req.BoolOr("popularity", false);
  request.query_norm = static_cast<float>(req.NumberOr("norm", 0.0));
  const JsonValue* query = req.Find("query");
  if (query != nullptr && !ParseFloatArray(query, &request.query)) {
    *out = ErrorLine(op, "\"query\" must be a number array");
    return true;
  }

  const serve::Response resp = engine_.Handle(request);
  if (!resp.ok) {
    *out = FailedReply(resp);
    return true;
  }
  JsonObject o = ResponseHead(op, resp);
  switch (request.type) {
    case serve::Request::Type::kUserVector:
      o.Set("user", static_cast<int64_t>(request.user))
          .Set("norm", static_cast<double>(resp.vector_norm))
          .SetRaw("vector", FloatsJson(resp.vector));
      break;
    case serve::Request::Type::kScoreItem:
      o.Set("item", static_cast<int64_t>(request.item))
          .Set("score", static_cast<double>(resp.score));
      break;
    default:  // the partial rankers
      o.Set("k", static_cast<int64_t>(request.k))
          .SetRaw("items", ItemsJson(resp.items));
      break;
  }
  *out = o.Build();
  return true;
}

std::string ShardService::HandleLine(const std::string& line) {
  auto parsed = util::ParseJson(line);
  if (!parsed.ok()) return NotJsonReply(parsed.status());
  return Handle(parsed.value());
}

std::string ShardService::Handle(const JsonValue& req) {
  const std::string op = req.StringOr("op", "");
  std::string out;
  if (HandleShardOp(req, op, &out)) return out;
  if (op == "reload" || op == "swap") return LoadOp(req, op);
  if (op == "stats") return Stats(req);
  if (op == "burst") return Burst(req);
  serve::Request::Type type;
  if (!ClientOpType(op, &type)) return ErrorReply("unknown op '" + op + "'");
  auto request = ScoringRequest(req, type);
  if (!request.ok()) return ErrorReply(request.status().message());
  return ClientReply(op, request.value(), engine_.Handle(request.value()));
}

}  // namespace dgnn::shard
