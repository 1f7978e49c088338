#include "shard/router.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "serve/observe.h"
#include "serve/ranking.h"
#include "shard/wire.h"
#include "util/failpoint.h"
#include "util/json.h"

namespace dgnn::shard {
namespace {

using util::JsonObject;
using util::JsonValue;
using util::Status;
using util::StatusOr;

using Clock = std::chrono::steady_clock;

int64_t RemainMs(TimePoint deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             deadline - Clock::now())
      .count();
}

void BumpTelemetry(const char* name) {
  if (telemetry::Enabled()) telemetry::GetCounter(name)->Add(1);
}

// One shard's parsed response to a scatter/gather partial.
struct PartialResult {
  bool ok = false;
  bool degraded = false;
  int64_t version = 0;
  float score = 0.0f;
  std::string error;
  std::vector<serve::ScoredItem> items;
};

bool ParsePartial(const std::string& line, PartialResult* p) {
  auto parsed = util::ParseJson(line);
  if (!parsed.ok()) return false;
  const JsonValue& v = parsed.value();
  p->ok = v.BoolOr("ok", false);
  p->error = v.StringOr("error", "");
  p->degraded = v.BoolOr("degraded", false);
  p->version = static_cast<int64_t>(v.NumberOr("snapshot_version", 0));
  p->score = static_cast<float>(v.NumberOr("score", 0.0));
  const JsonValue* items = v.Find("items");
  if (items != nullptr && !ParseItems(items, &p->items)) return false;
  return true;
}

void SortUniqueShards(std::vector<int32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

// RAII in-flight op accounting: admission check against max_inflight and
// the drain barrier's op count, in one critical section.
class Router::OpGuard {
 public:
  explicit OpGuard(Router* r) : r_(r) {
    std::lock_guard<std::mutex> lock(r_->drain_mu_);
    if (r_->config_.max_inflight > 0 &&
        r_->inflight_ops_ >= r_->config_.max_inflight) {
      shed_ = true;
      return;
    }
    ++r_->inflight_ops_;
    admitted_ = true;
  }
  ~OpGuard() {
    if (!admitted_) return;
    // Under the lock, as in DecAttempts: the router may be destroyed as
    // soon as Stop() observes zero ops.
    std::lock_guard<std::mutex> lock(r_->drain_mu_);
    --r_->inflight_ops_;
    r_->drain_cv_.notify_all();
  }
  OpGuard(const OpGuard&) = delete;
  OpGuard& operator=(const OpGuard&) = delete;
  bool shed() const { return shed_; }

 private:
  Router* r_;
  bool admitted_ = false;
  bool shed_ = false;
};

Router::Router(RouterConfig config) : config_(std::move(config)) {}

Router::~Router() { Stop(); }

void Router::IncAttempts() {
  std::lock_guard<std::mutex> lock(drain_mu_);
  ++inflight_attempts_;
}

void Router::DecAttempts() {
  // Notify under the lock: Stop() may return, and ~Router destroy
  // drain_cv_, as soon as it observes zero attempts.
  std::lock_guard<std::mutex> lock(drain_mu_);
  --inflight_attempts_;
  drain_cv_.notify_all();
}

TimePoint Router::DeadlineFor(int64_t deadline_ms) const {
  int64_t ms = deadline_ms > 0   ? deadline_ms
               : deadline_ms < 0 ? 0
                                 : config_.default_deadline_ms;
  // "No deadline" is still bounded (an hour): the no-hang guarantee
  // holds even for clients that opt out of deadlines.
  if (ms <= 0) ms = 3600 * 1000;
  return Clock::now() + std::chrono::milliseconds(ms);
}

StatusOr<std::unique_ptr<ShardConn>> Router::GetConn(ShardEntry& e) {
  {
    std::lock_guard<std::mutex> lock(e.pool_mu);
    if (!e.pool.empty()) {
      auto conn = std::move(e.pool.back());
      e.pool.pop_back();
      return conn;
    }
  }
  return ShardConn::Connect(e.path, config_.connect_timeout_ms);
}

void Router::PutConn(ShardEntry& e, std::unique_ptr<ShardConn> conn) {
  std::lock_guard<std::mutex> lock(e.pool_mu);
  if (e.pool.size() < 8) e.pool.push_back(std::move(conn));
}

StatusOr<std::string> Router::AttemptOnce(ShardEntry& e,
                                          const std::string& line,
                                          TimePoint deadline, bool probe) {
  if (!probe) {
    e.requests.fetch_add(1, std::memory_order_relaxed);
    if (failpoint::Enabled()) {
      Status st = failpoint::Check("shard.dispatch");
      if (!st.ok()) {
        e.failures.fetch_add(1, std::memory_order_relaxed);
        e.health.RecordOutcome(false);
        return st;
      }
    }
  }
  const auto t0 = Clock::now();
  auto conn_or = GetConn(e);
  if (!conn_or.ok()) {
    if (!probe) {
      e.failures.fetch_add(1, std::memory_order_relaxed);
      e.health.RecordOutcome(false);
    }
    return conn_or.status();
  }
  std::unique_ptr<ShardConn> conn = std::move(conn_or).value();
  auto r = conn->Call(line, deadline);
  if (r.ok()) {
    // A failed Call leaves the connection dead or desynced — only a
    // clean round-trip returns it to the pool.
    PutConn(e, std::move(conn));
    if (!probe) {
      e.ok.fetch_add(1, std::memory_order_relaxed);
      e.health.RecordOutcome(true);
      e.latency.Record(
          std::chrono::duration<double>(Clock::now() - t0).count());
    }
    return r;
  }
  if (!probe) {
    e.failures.fetch_add(1, std::memory_order_relaxed);
    e.health.RecordOutcome(false);
  }
  return r.status();
}

namespace {
struct HedgeSlot {
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  bool success = false;
  std::string result;
  Status error = Status::Ok();
};
}  // namespace

StatusOr<std::string> Router::HedgedAttempt(ShardEntry& e,
                                            const std::string& line,
                                            TimePoint deadline) {
  auto slot = std::make_shared<HedgeSlot>();
  auto spawn = [this, &e, line, deadline, slot] {
    IncAttempts();
    std::thread([this, &e, line, deadline, slot] {
      auto r = AttemptOnce(e, line, deadline, /*probe=*/false);
      {
        std::lock_guard<std::mutex> lock(slot->mu);
        ++slot->done;
        if (r.ok()) {
          if (!slot->success) {
            slot->success = true;
            slot->result = std::move(r).value();
          }
        } else if (slot->error.ok()) {
          slot->error = r.status();
        }
      }
      slot->cv.notify_all();
      DecAttempts();
    }).detach();
  };

  spawn();
  int launched = 1;
  std::unique_lock<std::mutex> lock(slot->mu);
  const TimePoint hedge_at =
      Clock::now() + std::chrono::milliseconds(config_.hedge_ms);
  slot->cv.wait_until(lock, std::min(deadline, hedge_at), [&] {
    return slot->success || slot->done >= launched;
  });
  if (!slot->success && slot->done == 0 && Clock::now() < deadline) {
    // The primary is a straggler: race a second attempt on a fresh
    // connection, first success wins.
    n_hedges_.fetch_add(1, std::memory_order_relaxed);
    BumpTelemetry("serve.shard.hedges");
    launched = 2;
    lock.unlock();
    spawn();
    lock.lock();
  }
  // Attempts self-bound on `deadline`; the slack covers their teardown.
  slot->cv.wait_until(lock, deadline + std::chrono::milliseconds(250),
                      [&] { return slot->success || slot->done >= launched; });
  if (slot->success) return slot->result;
  if (slot->done >= launched && !slot->error.ok()) return slot->error;
  return Status::DeadlineExceeded("hedged shard dispatch");
}

StatusOr<std::string> Router::CallShard(int shard, const std::string& line,
                                        TimePoint deadline) {
  ShardEntry& e = *shards_[static_cast<size_t>(shard)];
  if (e.health.state() == HealthState::kDown) {
    // Fail fast; the probe thread keeps watching for recovery.
    return Status::FailedPrecondition("shard " + std::to_string(shard) +
                                      " is down");
  }
  const int attempts = 1 + std::max(0, config_.retries);
  Status last = Status::Internal("no attempt made");
  int backoff_ms = 1;
  for (int a = 0; a < attempts; ++a) {
    const TimePoint att_deadline = std::min(
        deadline,
        Clock::now() + std::chrono::milliseconds(config_.shard_timeout_ms));
    auto r = config_.hedge_ms > 0
                 ? HedgedAttempt(e, line, att_deadline)
                 : AttemptOnce(e, line, att_deadline, /*probe=*/false);
    if (r.ok()) return r;
    last = r.status();
    // Only transient transport errors retry; a passed deadline means the
    // budget is spent no matter what the shard would have said.
    if (last.code() != util::StatusCode::kInternal) break;
    if (a + 1 >= attempts) break;
    if (Clock::now() + std::chrono::milliseconds(backoff_ms) >= deadline) {
      break;
    }
    n_retries_.fetch_add(1, std::memory_order_relaxed);
    BumpTelemetry("serve.shard.retries");
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, 16);
  }
  return last;
}

std::vector<StatusOr<std::string>> Router::Scatter(const std::string& line,
                                                   TimePoint deadline) {
  const size_t n = shards_.size();
  std::vector<StatusOr<std::string>> out(
      n, StatusOr<std::string>(Status::Internal("not dispatched")));
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([this, i, &line, deadline, &out] {
      out[i] = CallShard(static_cast<int>(i), line, deadline);
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

util::Status Router::ProbeShardOnce(ShardEntry& e, ShardIdentity* id_out) {
  if (failpoint::Enabled()) {
    Status st = failpoint::Check("shard.probe");
    if (!st.ok()) return st;
  }
  const TimePoint deadline =
      Clock::now() + std::chrono::milliseconds(config_.probe_timeout_ms);
  auto r = AttemptOnce(e, "{\"op\":\"probe\"}", deadline, /*probe=*/true);
  if (!r.ok()) return r.status();
  auto parsed = util::ParseJson(r.value());
  if (!parsed.ok()) {
    return Status::Internal("probe response is not JSON: " +
                            parsed.status().message());
  }
  const JsonValue& v = parsed.value();
  if (!v.BoolOr("ok", false)) {
    return Status::Internal("probe failed: " + v.StringOr("error", "?"));
  }
  e.snapshot_version.store(
      static_cast<int64_t>(v.NumberOr("snapshot_version", 0)),
      std::memory_order_relaxed);
  e.queue_depth.store(static_cast<int64_t>(v.NumberOr("queue_depth", 0)),
                      std::memory_order_relaxed);
  // The worker's own admission-control counter (PR-5 overload signal):
  // sheds since the last probe mark the shard overloaded for this
  // interval.
  const int64_t shed = static_cast<int64_t>(v.NumberOr("shed_requests", 0));
  e.overloaded.store(e.last_shed >= 0 && shed > e.last_shed,
                     std::memory_order_relaxed);
  e.last_shed = shed;
  if (id_out != nullptr) {
    id_out->shard_index = static_cast<int32_t>(v.NumberOr("shard_index", 0));
    id_out->num_shards = static_cast<int32_t>(v.NumberOr("num_shards", 0));
    id_out->item_begin = static_cast<int64_t>(v.NumberOr("item_begin", 0));
    id_out->item_end = static_cast<int64_t>(v.NumberOr("item_end", 0));
    id_out->num_users = static_cast<int64_t>(v.NumberOr("num_users", 0));
    id_out->num_items = static_cast<int64_t>(v.NumberOr("num_items", 0));
    id_out->dim = static_cast<int64_t>(v.NumberOr("dim", 0));
    id_out->hash_seed = std::strtoull(
        v.StringOr("hash_seed", "0").c_str(), nullptr, 10);
  }
  return Status::Ok();
}

void Router::TickWindows() {
  const auto now = Clock::now();
  if (last_tick_ == Clock::time_point{}) {
    last_tick_ = now;
    return;
  }
  const double secs = std::chrono::duration<double>(now - last_tick_).count();
  if (secs < 1.0) return;
  last_tick_ = now;
  for (auto& ep : shards_) {
    ShardEntry& e = *ep;
    telemetry::WindowedStats::Sample s;
    s.seconds = secs;
    const int64_t req = e.requests.load(std::memory_order_relaxed);
    const int64_t ok = e.ok.load(std::memory_order_relaxed);
    s.requests = req - e.win_requests;
    s.ok = ok - e.win_ok;
    s.failed = s.requests - s.ok;
    e.win_requests = req;
    e.win_ok = ok;
    s.latency = e.latency.SnapshotDelta(&e.win_latency);
    s.queue_depth = e.queue_depth.load(std::memory_order_relaxed);
    e.windows->Push(s);
  }
}

void Router::ProbeLoop() {
  std::unique_lock<std::mutex> lock(probe_mu_);
  while (!probe_stop_.load(std::memory_order_acquire)) {
    probe_cv_.wait_for(
        lock, std::chrono::milliseconds(std::max(config_.probe_interval_ms, 1)),
        [this] { return probe_stop_.load(std::memory_order_acquire); });
    if (probe_stop_.load(std::memory_order_acquire)) return;
    lock.unlock();
    for (auto& e : shards_) {
      const Status st = ProbeShardOnce(*e, nullptr);
      e->health.RecordProbe(st.ok());
    }
    TickWindows();
    lock.lock();
  }
}

util::Status Router::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("router already started");
  }
  if (config_.shard_paths.empty()) {
    return Status::InvalidArgument("router needs at least one shard socket");
  }
  shards_.clear();
  for (const std::string& path : config_.shard_paths) {
    auto e = std::make_unique<ShardEntry>(config_.health);
    e->path = path;
    e->last_shed = -1;
    e->windows = std::make_unique<telemetry::WindowedStats>(
        telemetry::WindowedStats::Config{});
    shards_.push_back(std::move(e));
  }
  const size_t n = shards_.size();
  std::vector<ShardIdentity> ids(n);
  for (size_t i = 0; i < n; ++i) {
    Status st = Status::Ok();
    const int attempts = 2 + std::max(0, config_.retries);
    for (int a = 0; a < attempts; ++a) {
      st = ProbeShardOnce(*shards_[i], &ids[i]);
      if (st.ok()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (!st.ok()) {
      return Status::Internal("initial probe of shard " + std::to_string(i) +
                              " (" + shards_[i]->path +
                              ") failed: " + st.ToString());
    }
    shards_[i]->health.RecordProbe(true);
  }

  // Fleet agreement: one manifest, or refuse to start.
  const ShardIdentity& first = ids[0];
  if (n == 1 && first.num_shards == 0) {
    // A single unsharded worker behind the router (degenerate fleet).
    ids[0].item_begin = 0;
    ids[0].item_end = first.num_items;
    shards_[0]->id = ids[0];
    ring_ = serve::ShardRing(1, first.hash_seed);
  } else {
    if (first.num_shards != static_cast<int32_t>(n)) {
      return Status::FailedPrecondition(
          "router has " + std::to_string(n) +
          " shard sockets but shard 0 reports num_shards=" +
          std::to_string(first.num_shards));
    }
    for (size_t i = 0; i < n; ++i) {
      const ShardIdentity& id = ids[i];
      if (id.num_shards != first.num_shards ||
          id.hash_seed != first.hash_seed ||
          id.num_users != first.num_users ||
          id.num_items != first.num_items || id.dim != first.dim) {
        return Status::FailedPrecondition(
            "shard " + std::to_string(i) +
            " disagrees with shard 0 on the manifest (num_shards/seed/"
            "catalog shape)");
      }
      if (id.shard_index != static_cast<int32_t>(i)) {
        return Status::FailedPrecondition(
            "socket position " + std::to_string(i) + " is shard " +
            std::to_string(id.shard_index) +
            " — shard sockets must be listed in shard-index order");
      }
      int64_t begin = 0, end = 0;
      serve::ShardItemRange(first.num_items, first.num_shards,
                            static_cast<int32_t>(i), &begin, &end);
      if (id.item_begin != begin || id.item_end != end) {
        return Status::FailedPrecondition(
            "shard " + std::to_string(i) + " serves items [" +
            std::to_string(id.item_begin) + ", " +
            std::to_string(id.item_end) + "), expected the canonical [" +
            std::to_string(begin) + ", " + std::to_string(end) + ")");
      }
      shards_[i]->id = id;
    }
    ring_ = serve::ShardRing(first.num_shards, first.hash_seed);
  }
  num_users_ = first.num_users;
  num_items_ = first.num_items;
  dim_ = first.dim;

  probe_stop_.store(false, std::memory_order_release);
  started_.store(true, std::memory_order_release);
  probe_thread_ = std::thread(&Router::ProbeLoop, this);
  return Status::Ok();
}

void Router::BeginDrain() {
  probe_stop_.store(true, std::memory_order_release);
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] {
    return inflight_ops_ == 0 && inflight_attempts_ == 0;
  });
}

void Router::Stop() {
  if (!started_.load(std::memory_order_acquire)) {
    // Never started (or already stopped) — still join a probe thread if
    // Start() failed halfway (it never starts one, but stay defensive).
    probe_stop_.store(true, std::memory_order_release);
    if (probe_thread_.joinable()) probe_thread_.join();
    return;
  }
  BeginDrain();
  started_.store(false, std::memory_order_release);
  for (auto& e : shards_) {
    std::lock_guard<std::mutex> lock(e->pool_mu);
    e->pool.clear();
  }
}

bool Router::FetchUserVector(int32_t user, TimePoint deadline,
                             std::vector<float>* vec, float* norm,
                             std::vector<int32_t>* missing, bool* failover) {
  *failover = false;
  if (user < 0 || user >= num_users_) return false;  // unknown fleet-wide
  const int32_t owner = ring_.Owner(user);
  JsonObject line;
  line.Set("op", "user_vector")
      .Set("user", static_cast<int64_t>(user))
      .Set("deadline_ms", std::max<int64_t>(RemainMs(deadline), 1));
  auto r = CallShard(owner, line.Build(), deadline);
  const auto fail = [&] {
    missing->push_back(owner);
    *failover = true;
    return false;
  };
  if (!r.ok()) return fail();
  auto parsed = util::ParseJson(r.value());
  if (!parsed.ok()) return fail();
  const JsonValue& v = parsed.value();
  if (!v.BoolOr("ok", false)) return fail();
  // The owner answered and says the user is unknown — that is the same
  // popularity fallback a single process takes, not a failover.
  if (v.BoolOr("degraded", false)) return false;
  if (!ParseFloatArray(v.Find("vector"), vec) || vec->empty()) return fail();
  *norm = static_cast<float>(v.NumberOr("norm", 0.0));
  return true;
}

serve::Response Router::TopK(int32_t user, int k, int64_t deadline_ms) {
  serve::Response resp;
  resp.trace_id = n_requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  OpGuard guard(this);
  if (guard.shed()) {
    n_shed_.fetch_add(1, std::memory_order_relaxed);
    resp.error = "overloaded";
    return resp;
  }
  if (!started_.load(std::memory_order_acquire)) {
    resp.error = "router not started";
    return resp;
  }
  if (k <= 0) {
    resp.error = "k must be positive";
    return resp;
  }
  const TimePoint deadline = DeadlineFor(deadline_ms);

  std::vector<float> query;
  float norm = 0.0f;
  bool failover = false;
  std::vector<int32_t> missing;
  const bool have_vec =
      FetchUserVector(user, deadline, &query, &norm, &missing, &failover);
  if (failover) {
    n_failovers_.fetch_add(1, std::memory_order_relaxed);
    BumpTelemetry("serve.shard.failovers");
  }

  const int64_t rem = RemainMs(deadline);
  if (rem <= 0) {
    resp.error = "deadline exceeded";
    return resp;
  }
  JsonObject line;
  line.Set("op", "topk_partial")
      .Set("k", static_cast<int64_t>(k))
      .Set("deadline_ms", rem);
  if (have_vec) {
    line.Set("user", static_cast<int64_t>(user))
        .SetRaw("query", FloatsJson(query));
  } else {
    line.Set("popularity", true);
    resp.degraded = true;
  }
  auto raw = Scatter(line.Build(), deadline);

  std::vector<serve::ScoredItem> all;
  int64_t version = 0;
  int successes = 0;
  std::string last_err;
  for (size_t i = 0; i < raw.size(); ++i) {
    PartialResult p;
    if (!raw[i].ok()) {
      last_err = raw[i].status().ToString();
      missing.push_back(static_cast<int32_t>(i));
      resp.degraded = true;
      continue;
    }
    if (!ParsePartial(raw[i].value(), &p) || !p.ok) {
      last_err = p.error.empty() ? "malformed shard response" : p.error;
      missing.push_back(static_cast<int32_t>(i));
      resp.degraded = true;
      continue;
    }
    ++successes;
    version = std::max(version, p.version);
    all.insert(all.end(), p.items.begin(), p.items.end());
  }
  if (successes == 0) {
    resp.error = "all shards unavailable: " + last_err;
    return resp;
  }
  if (failpoint::Enabled()) {
    Status st = failpoint::Check("shard.merge");
    if (!st.ok()) {
      resp.error = st.ToString();
      return resp;
    }
  }
  // Per-shard top-ks each cover their slice, so the union contains every
  // global top-k candidate; SelectTopK applies the same (score desc, id
  // asc) total order every scoring path uses — bit-identical merge.
  serve::SelectTopK(all, k);
  resp.items = std::move(all);
  SortUniqueShards(&missing);
  resp.missing_shards = std::move(missing);
  if (!resp.missing_shards.empty()) resp.degraded = true;
  resp.snapshot_version = version;
  resp.ok = true;
  if (resp.degraded) {
    n_degraded_.fetch_add(1, std::memory_order_relaxed);
    BumpTelemetry("serve.shard.degraded_responses");
  }
  return resp;
}

serve::Response Router::Score(int32_t user, int32_t item,
                              int64_t deadline_ms) {
  serve::Response resp;
  resp.trace_id = n_requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  OpGuard guard(this);
  if (guard.shed()) {
    n_shed_.fetch_add(1, std::memory_order_relaxed);
    resp.error = "overloaded";
    return resp;
  }
  if (!started_.load(std::memory_order_acquire)) {
    resp.error = "router not started";
    return resp;
  }
  const TimePoint deadline = DeadlineFor(deadline_ms);

  int64_t max_version = 0;
  for (const auto& e : shards_) {
    max_version = std::max(
        max_version, e->snapshot_version.load(std::memory_order_relaxed));
  }
  const auto degrade = [&](std::vector<int32_t> missing) {
    resp.ok = true;
    resp.degraded = true;
    resp.score = 0.0f;
    resp.snapshot_version = max_version;
    resp.missing_shards = std::move(missing);
    n_degraded_.fetch_add(1, std::memory_order_relaxed);
    BumpTelemetry("serve.shard.degraded_responses");
    return resp;
  };

  // Unknown user or item: the same neutral degraded score the
  // single-process engine returns.
  if (user < 0 || user >= num_users_ || item < 0 || item >= num_items_) {
    return degrade({});
  }
  std::vector<float> query;
  float norm = 0.0f;
  bool failover = false;
  std::vector<int32_t> missing;
  if (!FetchUserVector(user, deadline, &query, &norm, &missing, &failover)) {
    if (failover) {
      n_failovers_.fetch_add(1, std::memory_order_relaxed);
      BumpTelemetry("serve.shard.failovers");
    }
    return degrade(std::move(missing));
  }

  int item_shard = -1;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (item >= shards_[i]->id.item_begin &&
        item < shards_[i]->id.item_end) {
      item_shard = static_cast<int>(i);
      break;
    }
  }
  if (item_shard < 0) return degrade({});
  JsonObject line;
  line.Set("op", "score_item")
      .Set("item", static_cast<int64_t>(item))
      .Set("deadline_ms", std::max<int64_t>(RemainMs(deadline), 1))
      .SetRaw("query", FloatsJson(query));
  auto r = CallShard(item_shard, line.Build(), deadline);
  PartialResult p;
  if (!r.ok() || !ParsePartial(r.value(), &p) || !p.ok) {
    return degrade({static_cast<int32_t>(item_shard)});
  }
  resp.ok = true;
  resp.score = p.score;
  resp.degraded = p.degraded;
  resp.snapshot_version = p.version;
  if (resp.degraded) {
    n_degraded_.fetch_add(1, std::memory_order_relaxed);
    BumpTelemetry("serve.shard.degraded_responses");
  }
  return resp;
}

serve::Response Router::SimilarUsers(int32_t user, int k,
                                     int64_t deadline_ms) {
  serve::Response resp;
  resp.trace_id = n_requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  OpGuard guard(this);
  if (guard.shed()) {
    n_shed_.fetch_add(1, std::memory_order_relaxed);
    resp.error = "overloaded";
    return resp;
  }
  if (!started_.load(std::memory_order_acquire)) {
    resp.error = "router not started";
    return resp;
  }
  if (k <= 0) {
    resp.error = "k must be positive";
    return resp;
  }
  const TimePoint deadline = DeadlineFor(deadline_ms);

  int64_t max_version = 0;
  for (const auto& e : shards_) {
    max_version = std::max(
        max_version, e->snapshot_version.load(std::memory_order_relaxed));
  }
  std::vector<float> query;
  float norm = 0.0f;
  bool failover = false;
  std::vector<int32_t> missing;
  if (!FetchUserVector(user, deadline, &query, &norm, &missing, &failover)) {
    // Without the query vector there is nothing to rank against —
    // degraded empty answer (single-process parity for unknown users;
    // attributed to the owner when it was a failover).
    if (failover) {
      n_failovers_.fetch_add(1, std::memory_order_relaxed);
      BumpTelemetry("serve.shard.failovers");
    }
    resp.ok = true;
    resp.degraded = true;
    resp.snapshot_version = max_version;
    SortUniqueShards(&missing);
    resp.missing_shards = std::move(missing);
    n_degraded_.fetch_add(1, std::memory_order_relaxed);
    BumpTelemetry("serve.shard.degraded_responses");
    return resp;
  }

  const int64_t rem = RemainMs(deadline);
  if (rem <= 0) {
    resp.error = "deadline exceeded";
    return resp;
  }
  JsonObject line;
  line.Set("op", "similar_partial")
      .Set("user", static_cast<int64_t>(user))
      .Set("k", static_cast<int64_t>(k))
      .Set("norm", static_cast<double>(norm))
      .Set("deadline_ms", rem)
      .SetRaw("query", FloatsJson(query));
  auto raw = Scatter(line.Build(), deadline);

  std::vector<serve::ScoredItem> all;
  int64_t version = 0;
  int successes = 0;
  std::string last_err;
  for (size_t i = 0; i < raw.size(); ++i) {
    PartialResult p;
    if (!raw[i].ok()) {
      last_err = raw[i].status().ToString();
      missing.push_back(static_cast<int32_t>(i));
      resp.degraded = true;
      continue;
    }
    if (!ParsePartial(raw[i].value(), &p) || !p.ok) {
      last_err = p.error.empty() ? "malformed shard response" : p.error;
      missing.push_back(static_cast<int32_t>(i));
      resp.degraded = true;
      continue;
    }
    ++successes;
    version = std::max(version, p.version);
    all.insert(all.end(), p.items.begin(), p.items.end());
  }
  if (successes == 0) {
    resp.error = "all shards unavailable: " + last_err;
    return resp;
  }
  if (failpoint::Enabled()) {
    Status st = failpoint::Check("shard.merge");
    if (!st.ok()) {
      resp.error = st.ToString();
      return resp;
    }
  }
  serve::SelectTopK(all, k);
  resp.items = std::move(all);
  SortUniqueShards(&missing);
  resp.missing_shards = std::move(missing);
  if (!resp.missing_shards.empty()) resp.degraded = true;
  resp.snapshot_version = version;
  resp.ok = true;
  if (resp.degraded) {
    n_degraded_.fetch_add(1, std::memory_order_relaxed);
    BumpTelemetry("serve.shard.degraded_responses");
  }
  return resp;
}

util::StatusOr<int64_t> Router::CoordinatedSwap(const std::string& prefix) {
  if (!started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("router not started");
  }
  OpGuard guard(this);
  if (guard.shed()) return Status::FailedPrecondition("overloaded");
  const std::string token =
      "swap-" + std::to_string(swap_seq_.fetch_add(1) + 1);
  JsonObject prep;
  prep.Set("op", "swap_prepare").Set("prefix", prefix).Set("token", token);
  const std::string prep_line = prep.Build();
  JsonObject abort;
  abort.Set("op", "swap_abort").Set("token", token);
  const std::string abort_line = abort.Build();

  const auto swap_deadline = [this] {
    return Clock::now() +
           std::chrono::milliseconds(std::max(config_.swap_timeout_ms, 1));
  };
  const auto abort_all = [&] {
    // Best effort: a shard that cannot be reached has nothing staged to
    // worry about (its prepare failed or it is down).
    for (size_t i = 0; i < shards_.size(); ++i) {
      (void)CallShard(static_cast<int>(i), abort_line, swap_deadline());
    }
  };

  // Phase 1: prepare everywhere; any failure aborts everywhere and no
  // worker changes snapshots.
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::string err;
    Status fp = Status::Ok();
    if (failpoint::Enabled()) fp = failpoint::Check("shard.swap");
    if (!fp.ok()) {
      err = fp.ToString();
    } else {
      auto r = CallShard(static_cast<int>(i), prep_line, swap_deadline());
      if (!r.ok()) {
        err = r.status().ToString();
      } else {
        auto parsed = util::ParseJson(r.value());
        if (!parsed.ok()) {
          err = "malformed prepare response";
        } else if (!parsed.value().BoolOr("ok", false)) {
          err = parsed.value().StringOr("error", "prepare refused");
        }
      }
    }
    if (!err.empty()) {
      abort_all();
      return Status::FailedPrecondition(
          "swap prepare failed on shard " + std::to_string(i) + " (" +
          shards_[i]->path + "): " + err + " — aborted on all shards");
    }
  }

  // Phase 2: commit everywhere. A commit failure is reported (the fleet
  // may serve mixed versions until the next successful swap), never
  // silently swallowed.
  JsonObject commit;
  commit.Set("op", "swap_commit").Set("token", token);
  const std::string commit_line = commit.Build();
  int64_t version = 0;
  std::string commit_errs;
  for (size_t i = 0; i < shards_.size(); ++i) {
    auto r = CallShard(static_cast<int>(i), commit_line, swap_deadline());
    std::string err;
    if (!r.ok()) {
      err = r.status().ToString();
    } else {
      auto parsed = util::ParseJson(r.value());
      if (!parsed.ok() || !parsed.value().BoolOr("ok", false)) {
        err = parsed.ok() ? parsed.value().StringOr("error", "commit refused")
                          : "malformed commit response";
      } else {
        version = std::max(
            version, static_cast<int64_t>(
                         parsed.value().NumberOr("snapshot_version", 0)));
      }
    }
    if (!err.empty()) {
      if (!commit_errs.empty()) commit_errs += "; ";
      commit_errs += "shard " + std::to_string(i) + ": " + err;
    }
  }
  if (!commit_errs.empty()) {
    return Status::Internal(
        "swap commit failed (fleet may serve mixed snapshot versions): " +
        commit_errs);
  }
  return version;
}

RouterCounters Router::counters() const {
  RouterCounters c;
  c.requests = n_requests_.load(std::memory_order_relaxed);
  c.retries = n_retries_.load(std::memory_order_relaxed);
  c.hedges = n_hedges_.load(std::memory_order_relaxed);
  c.failovers = n_failovers_.load(std::memory_order_relaxed);
  c.degraded_responses = n_degraded_.load(std::memory_order_relaxed);
  c.shed = n_shed_.load(std::memory_order_relaxed);
  return c;
}

std::vector<RouterShardStatus> Router::ShardStatuses() {
  std::vector<RouterShardStatus> out;
  out.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardEntry& e = *shards_[i];
    RouterShardStatus s;
    s.shard = static_cast<int>(i);
    s.path = e.path;
    s.state = e.health.state();
    s.failure_ewma = e.health.failure_ewma();
    s.overloaded = e.overloaded.load(std::memory_order_relaxed);
    s.snapshot_version = e.snapshot_version.load(std::memory_order_relaxed);
    s.queue_depth = e.queue_depth.load(std::memory_order_relaxed);
    s.requests = e.requests.load(std::memory_order_relaxed);
    s.failures = e.failures.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

std::string Router::StatsJson() {
  const RouterCounters c = counters();
  JsonObject o;
  o.Set("ok", true)
      .Set("op", "stats")
      .Set("bench", "dgnn_router")
      .Set("requests", c.requests)
      .Set("serve.shard.retries", c.retries)
      .Set("serve.shard.hedges", c.hedges)
      .Set("serve.shard.failovers", c.failovers)
      .Set("serve.shard.degraded_responses", c.degraded_responses)
      .Set("shed", c.shed)
      .Set("num_shards", static_cast<int64_t>(shards_.size()))
      .Set("num_users", num_users_)
      .Set("num_items", num_items_);
  std::string shards = "[";
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardEntry& e = *shards_[i];
    if (i > 0) shards += ",";
    JsonObject s;
    s.Set("shard", static_cast<int64_t>(i))
        .Set("path", e.path)
        .Set("state", HealthStateName(e.health.state()))
        .Set("failure_ewma", e.health.failure_ewma())
        .Set("overloaded", e.overloaded.load(std::memory_order_relaxed))
        .Set("snapshot_version",
             e.snapshot_version.load(std::memory_order_relaxed))
        .Set("queue_depth", e.queue_depth.load(std::memory_order_relaxed))
        .Set("requests", e.requests.load(std::memory_order_relaxed))
        .Set("failures", e.failures.load(std::memory_order_relaxed))
        .SetRaw("windows",
                "{\"1s\":" +
                    serve::observe::WindowJson(e.windows->Aggregate(1)) +
                    ",\"10s\":" +
                    serve::observe::WindowJson(e.windows->Aggregate(10)) +
                    ",\"60s\":" +
                    serve::observe::WindowJson(e.windows->Aggregate(60)) +
                    "}");
    shards += s.Build();
  }
  shards += "]";
  o.SetRaw("shards", shards);
  return o.Build();
}

}  // namespace dgnn::shard
