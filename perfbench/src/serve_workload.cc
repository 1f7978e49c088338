// Serving workloads. Each generates clustered user/item embeddings with
// seen and social lists from the seed, exports them as snapshots, and
// replays open-loop Poisson traffic at a fixed ladder of rates through
// serve::ReplayTrace's handler overload:
//
//  serve-retrieval  int8 + IVF snapshot, TopK only, users uniform so the
//                   working set dwarfs the LRU (the cache is bypassed).
//  serve-mixed      fp32 brute force with social recalibration; 70% TopK,
//                   10% Score, 10% SimilarUsers, 10% unknown users; 80%
//                   of traffic on a hot eighth of the users that fits the
//                   LRU; ServingEngine::Load hot-swaps between two
//                   snapshots twice in every rung. Its traced run then
//                   replays the same catalog and traffic through an
//                   in-process shard::Router over dgnn_serve --listen
//                   workers, with Router::CoordinatedSwap as the swap.
//
// Latency is measured from each request's scheduled arrival. The traced
// run repeats the ladder with telemetry and spans on and splits every
// request into generator lateness, the Handle/Router call, the engine's
// admission-to-handoff time and its stages, each with its unattributed
// remainder.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <memory>
#include <mutex>
#include <thread>

#include "kernels/kernels.h"
#include "serve/engine.h"
#include "serve/ranking.h"
#include "serve/replay.h"
#include "serve/snapshot.h"
#include "serve/trace.h"
#include "shard/partition.h"
#include "shard/router.h"
#include "shard/transport.h"
#include "spans.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

namespace serve = dgnn::serve;
namespace telemetry = dgnn::telemetry;

constexpr int kTopK = 10;
// SLO behind throughput_per_s.
constexpr double kSloP99Ms = 10.0;
constexpr double kSloSuccess = 0.99;
constexpr double kSloAchievedFrac = 0.98;
constexpr int kCheckUsers = 200;
constexpr uint64_t kShardHashSeed = 7;

struct ServeSpec {
  int32_t users = 0, items = 0;
  int dim = 32;
  bool quant_ivf = false;
  int nprobe = 0;
  float social_alpha = 0.0f;
  double hot_fraction = 0.0;
  bool topk_only = false;
  int cache = 4096;
  std::vector<double> rungs;  // offered qps, ascending
  size_t low = 0, high = 0;   // indices of the reported rungs
  bool swaps = false;          // hot swaps during the ladder
  int shards = 0;              // 0 = in-process engine
};

ServeSpec SpecFor(const Options& opts) {
  ServeSpec s;
  if (opts.workload == "serve-retrieval") {
    s.users = 100000;
    s.items = 200000;
    s.quant_ivf = true;
    s.nprobe = 16;
    s.topk_only = true;
    s.rungs = {250, 450, 600};
    s.low = 0;
    s.high = 1;
  } else {
    s.users = 20000;
    s.items = 20000;
    s.hot_fraction = 0.8;
    s.swaps = true;
    s.social_alpha = 0.3f;
    s.rungs = {350, 600, 800};
    s.low = 0;
    s.high = 1;
  }
  if (opts.tiny) {
    s.users = 2000;
    s.items = 3000;
    s.cache = 256;
    s.rungs = {100, 200};
    s.low = 0;
    s.high = 1;
  }
  return s;
}

// The sharded path of serve-mixed's traced run: the same catalog and
// traffic through a shard::Router over three dgnn_serve workers. Social
// recalibration is off because sharded export drops the social lists.
ServeSpec FleetSpecFor(ServeSpec s, bool tiny) {
  s.shards = 3;
  s.social_alpha = 0.0f;
  s.rungs = tiny ? std::vector<double>{100, 200}
                 : std::vector<double>{175, 300, 400};
  return s;
}

// --- Input generation -----------------------------------------------

// Clustered embeddings: users and items belong to communities; an item
// is a community centroid plus noise, a user likewise, and seen/social
// lists lean towards the user's community.
serve::Snapshot GenerateSnapshot(const ServeSpec& spec, uint64_t seed,
                                 int variant) {
  constexpr int kCommunities = 64;
  dgnn::util::Rng rng(seed * 7919 + 17);
  std::vector<float> centroids(static_cast<size_t>(kCommunities) * spec.dim);
  for (float& c : centroids) c = static_cast<float>(rng.Gaussian());
  // The swap variant keeps the structure and redraws the noise.
  dgnn::util::Rng noise(seed * 104729 + 31 + static_cast<uint64_t>(variant));
  auto fill = [&](dgnn::ag::Tensor& t, int64_t rows) {
    t = dgnn::ag::Tensor(rows, spec.dim);
    for (int64_t r = 0; r < rows; ++r) {
      const float* c = &centroids[static_cast<size_t>(r % kCommunities) *
                                  spec.dim];
      float* row = t.row(r);
      for (int d = 0; d < spec.dim; ++d) {
        row[d] = 0.25f * (c[d] + 0.7f * static_cast<float>(noise.Gaussian()));
      }
    }
  };
  serve::Snapshot s;
  s.meta.model_name = "perfbench";
  s.meta.dataset_name = "synthetic";
  s.meta.tag = "variant" + std::to_string(variant);
  s.meta.num_users = spec.users;
  s.meta.num_items = spec.items;
  s.meta.embedding_dim = spec.dim;
  fill(s.users, spec.users);
  fill(s.items, spec.items);

  const int64_t per_community = spec.items / kCommunities;
  auto community_item = [&](int64_t community) {
    return static_cast<int32_t>(community +
                                kCommunities * rng.UniformInt(per_community));
  };
  s.seen.resize(static_cast<size_t>(spec.users));
  s.social.resize(static_cast<size_t>(spec.users));
  s.item_counts.assign(static_cast<size_t>(spec.items), 0);
  for (int32_t u = 0; u < spec.users; ++u) {
    auto& seen = s.seen[static_cast<size_t>(u)];
    const int64_t n = 4 + rng.UniformInt(16);
    for (int64_t j = 0; j < n; ++j) {
      seen.push_back(rng.Bernoulli(0.8)
                         ? community_item(u % kCommunities)
                         : static_cast<int32_t>(rng.UniformInt(spec.items)));
    }
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    for (int32_t i : seen) ++s.item_counts[static_cast<size_t>(i)];
    for (int j = 0; j < 3; ++j) {
      const auto v = static_cast<int32_t>(
          rng.Bernoulli(0.8)
              ? (u % kCommunities) +
                    kCommunities * rng.UniformInt(spec.users / kCommunities)
              : rng.UniformInt(spec.users));
      if (v == u) continue;
      s.social[static_cast<size_t>(u)].push_back(v);
      s.social[static_cast<size_t>(v)].push_back(u);
    }
  }
  for (auto& nb : s.social) {
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
  }
  return s;
}

// --- Shard fleet ---------------------------------------------------

class Fleet {
 public:
  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { Stop(); }

  // Launches one dgnn_serve --listen worker per slice, then starts a
  // router over them.
  bool Start(const Options& opts, const std::string& base, int shards,
             const std::string& request_log_prefix, std::string* error) {
    std::vector<std::string> sockets;
    for (int i = 0; i < shards; ++i) {
      const std::string sock =
          opts.work_dir + "/w" + std::to_string(i) + ".sock";
      ::unlink(sock.c_str());
      sockets.push_back(sock);
      std::vector<std::string> args = {
          opts.serve_bin,
          "--snapshot=" + serve::ShardSnapshotPath(base, i, shards),
          "--listen=" + sock, "--threads=1", "--deterministic=1",
          "--cache=4096"};
      if (!request_log_prefix.empty()) {
        args.push_back("--request-log=" + request_log_prefix +
                       std::to_string(i) + ".ndjson");
        args.push_back("--trace-sample-rate=1");
      }
      if (!Spawn(args, opts.work_dir + "/w" + std::to_string(i) + ".log")) {
        *error = "cannot launch " + opts.serve_bin;
        return false;
      }
    }
    // Wait for the sockets, then start the router.
    const auto give_up = Clock::now() + std::chrono::seconds(30);
    for (const std::string& sock : sockets) {
      struct stat st;
      while (::stat(sock.c_str(), &st) != 0) {
        if (Clock::now() > give_up || !AllAlive()) {
          *error = "shard worker did not come up (" + sock + ")";
          return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    dgnn::shard::RouterConfig rc;
    rc.shard_paths = sockets;
    router_ = std::make_unique<dgnn::shard::Router>(rc);
    dgnn::util::Status st = router_->Start();
    while (!st.ok() && Clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      router_ = std::make_unique<dgnn::shard::Router>(rc);
      st = router_->Start();
    }
    if (!st.ok()) {
      *error = "router start: " + st.ToString();
      return false;
    }
    sockets_ = sockets;
    return true;
  }

  dgnn::shard::Router& router() { return *router_; }

  // "requests" counter of every worker, through its stats op.
  std::vector<int64_t> WorkerRequests() {
    std::vector<int64_t> out;
    for (const std::string& sock : sockets_) {
      int64_t n = -1;
      auto conn = dgnn::shard::ShardConn::Connect(sock, 1000);
      if (conn.ok()) {
        auto line = conn.value()->Call(
            "{\"op\":\"stats\"}", Clock::now() + std::chrono::seconds(5));
        if (line.ok()) {
          auto parsed = dgnn::util::ParseJson(line.value());
          if (parsed.ok()) {
            n = static_cast<int64_t>(parsed.value().NumberOr("requests", -1));
          }
        }
      }
      out.push_back(n);
    }
    return out;
  }

  // Summed user + system CPU seconds of the workers.
  double WorkersCpuSeconds() const {
    double s = 0;
    const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
    for (pid_t pid : pids_) {
      std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
      std::string line;
      std::getline(in, line);
      // Fields after the parenthesised command name; utime and stime are
      // the 12th and 13th of them.
      const size_t close = line.rfind(')');
      if (close == std::string::npos) continue;
      std::istringstream rest(line.substr(close + 2));
      std::string field;
      double utime = 0, stime = 0;
      for (int i = 1; i <= 13 && rest >> field; ++i) {
        if (i == 12) utime = std::stod(field);
        if (i == 13) stime = std::stod(field);
      }
      s += (utime + stime) / tick;
    }
    return s;
  }

  // Stops the router, closes every worker's stdin (its drain signal) and
  // waits for each worker to exit.
  void Stop() {
    if (router_) {
      router_->Stop();
      router_.reset();
    }
    for (int fd : stdin_fds_) ::close(fd);
    stdin_fds_.clear();
    for (pid_t pid : pids_) {
      int status = 0;
      const auto deadline = Clock::now() + std::chrono::seconds(10);
      while (::waitpid(pid, &status, WNOHANG) == 0) {
        if (Clock::now() > deadline) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    pids_.clear();
    for (const std::string& sock : sockets_) ::unlink(sock.c_str());
    sockets_.clear();
  }

 private:
  bool Spawn(const std::vector<std::string>& args, const std::string& log) {
    int fds[2];
    if (::pipe(fds) != 0) return false;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[0], 0);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char*> argv;
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc =
        posix_spawn(&pid, args[0].c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[0]);
    if (rc != 0) {
      ::close(fds[1]);
      return false;
    }
    ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);
    pids_.push_back(pid);
    stdin_fds_.push_back(fds[1]);
    return true;
  }

  bool AllAlive() {
    for (pid_t pid : pids_) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) != 0) return false;
    }
    return true;
  }

  std::vector<pid_t> pids_;
  std::vector<int> stdin_fds_;
  std::vector<std::string> sockets_;
  std::unique_ptr<dgnn::shard::Router> router_;
};

// --- The system under test --------------------------------------------

struct System {
  ServeSpec spec;
  // Snapshot files: A is served first, swaps alternate A <-> B.
  std::string path_a, path_b;
  std::unique_ptr<serve::ServingEngine> engine;
  std::unique_ptr<Fleet> fleet;
  // fp32 embeddings of snapshot A (the recall reference for quantized
  // serving) and its seen lists.
  dgnn::ag::Tensor users_fp32, items_fp32;
  std::vector<std::vector<int32_t>> seen;
  double resident_mb = 0;
  bool on_b = false;  // which snapshot is live

  serve::Response Call(const serve::Request& r) {
    if (!fleet) return engine->Handle(r);
    dgnn::shard::Router& router = fleet->router();
    switch (r.type) {
      case serve::Request::Type::kScore:
        return router.Score(r.user, r.item);
      case serve::Request::Type::kSimilarUsers:
        return router.SimilarUsers(r.user, r.k);
      default:
        return router.TopK(r.user, r.k);
    }
  }

  // One hot swap to the other snapshot.
  bool Swap() {
    const std::string& next = on_b ? path_a : path_b;
    bool ok;
    if (fleet) {
      ok = fleet->router().CoordinatedSwap(next).ok();
    } else {
      ok = engine->Load(next).ok();
    }
    if (ok) on_b = !on_b;
    return ok;
  }
};

struct SetupTimes {
  double generate = 0, model = 0, quantize = 0, index = 0, write = 0;
  double load = 0, fleet = 0;
  double Total() const {
    return generate + model + quantize + index + write + load + fleet;
  }
};

serve::EngineConfig EngineConfigFor(const ServeSpec& spec) {
  serve::EngineConfig c;
  c.cache_capacity = spec.cache;
  c.social_alpha = spec.social_alpha;
  c.nprobe = spec.nprobe;
  return c;
}

// One complete set-up. Returns false (with *error) when a step fails.
// A fleet's workers write per-request logs to `request_log_prefix`<i>
// when it is not empty.
bool SetUp(const Options& opts, const ServeSpec& spec,
           const std::string& request_log_prefix, System* sys,
           SetupTimes* t, std::string* error) {
  sys->spec = spec;
  const auto t0 = Clock::now();
  serve::Snapshot a = GenerateSnapshot(spec, opts.seed, 0);
  const auto t1 = Clock::now();
  const bool swaps = spec.swaps;
  serve::Snapshot b = swaps ? GenerateSnapshot(spec, opts.seed, 1)
                            : serve::Snapshot{};
  sys->users_fp32 = a.users;
  sys->items_fp32 = a.items;
  sys->seen = a.seen;
  const auto t2 = Clock::now();
  t->generate = SecondsBetween(t0, t1);
  // The second snapshot (the swap target) and the reference copies.
  t->model = SecondsBetween(t1, t2);
  if (spec.quant_ivf) {
    // The index is built over the fp32 items, before quantization.
    const auto q0 = Clock::now();
    dgnn::index::IvfConfig ivf;
    ivf.seed = opts.seed;
    // Lloyd iterations on a 32k-row sample keep the three set-ups of a
    // run affordable; every item is still assigned to its nearest list.
    ivf.train_sample = 32768;
    dgnn::util::Status st = serve::BuildSnapshotIndex(&a, ivf);
    if (st.ok() && swaps) st = serve::BuildSnapshotIndex(&b, ivf);
    const auto q1 = Clock::now();
    if (st.ok()) st = serve::QuantizeSnapshot(&a, dgnn::quant::Codec::kInt8);
    if (st.ok() && swaps) {
      st = serve::QuantizeSnapshot(&b, dgnn::quant::Codec::kInt8);
    }
    const auto q2 = Clock::now();
    if (!st.ok()) {
      *error = "index/quantize: " + st.ToString();
      return false;
    }
    t->index = SecondsBetween(q0, q1);
    t->quantize = SecondsBetween(q1, q2);
  }
  sys->resident_mb =
      static_cast<double>(serve::SnapshotResidentBytes(a)) / (1024.0 * 1024.0);
  sys->path_a = opts.work_dir + "/a.snap";
  sys->path_b = opts.work_dir + "/b.snap";
  const auto w0 = Clock::now();
  bool wrote = serve::WriteSnapshot(a, sys->path_a).ok() &&
               (!swaps || serve::WriteSnapshot(b, sys->path_b).ok());
  if (wrote && spec.shards > 0) {
    wrote = dgnn::shard::WriteShardSnapshots(a, sys->path_a, spec.shards,
                                             kShardHashSeed)
                .ok() &&
            dgnn::shard::WriteShardSnapshots(b, sys->path_b, spec.shards,
                                             kShardHashSeed)
                .ok();
  }
  const auto w1 = Clock::now();
  t->write = SecondsBetween(w0, w1);
  if (!wrote) {
    *error = "snapshot write failed";
    return false;
  }
  a = serve::Snapshot{};
  b = serve::Snapshot{};
  sys->on_b = false;
  if (spec.shards > 0) {
    const auto f0 = Clock::now();
    sys->fleet = std::make_unique<Fleet>();
    if (!sys->fleet->Start(opts, sys->path_a, spec.shards,
                           request_log_prefix, error)) {
      return false;
    }
    t->fleet = SecondsBetween(f0, Clock::now());
  } else {
    const auto l0 = Clock::now();
    sys->engine = std::make_unique<serve::ServingEngine>(EngineConfigFor(spec));
    dgnn::util::Status st = sys->engine->Load(sys->path_a);
    t->load = SecondsBetween(l0, Clock::now());
    if (!st.ok()) {
      *error = "load: " + st.ToString();
      return false;
    }
  }
  return true;
}

// --- Replay with per-call recording -------------------------------------

// One handler call as the benchmark saw it (traced run only).
struct Call {
  int64_t call_ns = 0, ret_ns = 0;
  uint8_t type = 0;
  int32_t user = 0, item = 0, k = 0;
};

// Per-thread call buffers, reset for every rung.
class CallLog {
 public:
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    bufs_.clear();
    generation_.fetch_add(1);
  }
  void Add(const Call& c) {
    thread_local std::vector<Call>* mine = nullptr;
    thread_local int64_t gen = -1;
    const int64_t g = generation_.load();
    if (mine == nullptr || gen != g) {
      std::lock_guard<std::mutex> lock(mu_);
      bufs_.push_back(std::make_unique<std::vector<Call>>());
      mine = bufs_.back().get();
      gen = g;
    }
    mine->push_back(c);
  }
  // Buffers in per-thread call order.
  std::vector<std::vector<Call>> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<Call>> out;
    for (auto& b : bufs_) out.push_back(std::move(*b));
    bufs_.clear();
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Call>>> bufs_;
  std::atomic<int64_t> generation_{0};
};

uint8_t TypeCode(serve::Request::Type t) {
  switch (t) {
    case serve::Request::Type::kScore:
      return 1;
    case serve::Request::Type::kSimilarUsers:
      return 2;
    default:
      return 0;
  }
}

// ReplayTrace dispatches record i on worker i % workers, in order. Each
// thread's call sequence is matched to its residue class to recover
// every call's record index (-1 where no class matches).
std::vector<int64_t> MatchCalls(const std::vector<std::vector<Call>>& bufs,
                                const std::vector<serve::TraceRecord>& recs,
                                int workers,
                                std::vector<const Call*>* calls_out) {
  calls_out->clear();
  std::vector<int64_t> index;
  std::vector<bool> used(static_cast<size_t>(workers), false);
  for (const auto& buf : bufs) {
    int found = -1;
    for (int w = 0; w < workers && found < 0; ++w) {
      if (used[static_cast<size_t>(w)]) continue;
      const size_t expect =
          (recs.size() + static_cast<size_t>(workers - w) - 1) /
          static_cast<size_t>(workers);
      if (buf.size() != expect) continue;
      bool ok = true;
      for (size_t j = 0; ok && j < buf.size(); ++j) {
        const serve::TraceRecord& r = recs[static_cast<size_t>(w) +
                                           j * static_cast<size_t>(workers)];
        ok = r.type == buf[j].type && r.user == buf[j].user &&
             r.k == buf[j].k && (r.type != 1 || r.item == buf[j].item);
      }
      if (ok) found = w;
    }
    if (found >= 0) used[static_cast<size_t>(found)] = true;
    for (size_t j = 0; j < buf.size(); ++j) {
      calls_out->push_back(&buf[j]);
      index.push_back(found < 0 ? -1
                                : found + static_cast<int64_t>(j) * workers);
    }
  }
  return index;
}

struct SwapEvent {
  int64_t start_ns = 0, end_ns = 0;
  bool ok = false;
};

// Engine-side histograms and counters, read around a repetition.
struct EngineSide {
  double e2e_s = 0, queue_s = 0, recal_s = 0, compute_s = 0, rank_s = 0;
  double reply_s = 0;
  int64_t e2e_n = 0;
  int64_t requests = 0, batches = 0, hits = 0, misses = 0, degraded = 0;
  int64_t retries = 0, hedges = 0, failovers = 0, router_degraded = 0;

  static EngineSide Read(System& sys) {
    EngineSide e;
    auto h = [](const char* n) { return telemetry::GetHistogram(n); };
    e.e2e_s = h("serve.e2e_seconds")->sum_seconds();
    e.e2e_n = h("serve.e2e_seconds")->count();
    e.queue_s = h("serve.stage.queue_seconds")->sum_seconds();
    e.recal_s = h("serve.stage.recal_seconds")->sum_seconds();
    e.compute_s = h("serve.stage.compute_seconds")->sum_seconds();
    e.rank_s = h("serve.stage.rank_seconds")->sum_seconds();
    e.reply_s = h("serve.stage.reply_seconds")->sum_seconds();
    if (sys.engine) {
      const serve::EngineStats s = sys.engine->stats();
      e.requests = s.requests;
      e.batches = s.batches;
      e.hits = s.cache_hits;
      e.misses = s.cache_misses;
      e.degraded = s.degraded_requests;
    }
    if (sys.fleet) {
      const dgnn::shard::RouterCounters c = sys.fleet->router().counters();
      e.retries = c.retries;
      e.hedges = c.hedges;
      e.failovers = c.failovers;
      e.router_degraded = c.degraded_responses;
    }
    return e;
  }
  // *this += b - a
  void AddDelta(const EngineSide& a, const EngineSide& b) {
    e2e_s += b.e2e_s - a.e2e_s;
    queue_s += b.queue_s - a.queue_s;
    recal_s += b.recal_s - a.recal_s;
    compute_s += b.compute_s - a.compute_s;
    rank_s += b.rank_s - a.rank_s;
    reply_s += b.reply_s - a.reply_s;
    e2e_n += b.e2e_n - a.e2e_n;
    requests += b.requests - a.requests;
    batches += b.batches - a.batches;
    hits += b.hits - a.hits;
    misses += b.misses - a.misses;
    degraded += b.degraded - a.degraded;
    retries += b.retries - a.retries;
    hedges += b.hedges - a.hedges;
    failovers += b.failovers - a.failovers;
    router_degraded += b.router_degraded - a.router_degraded;
  }
};

// One rung: several repetitions of the same rate with fresh schedules.
// Latency is reported as the median over repetitions, so one burst of
// outside noise moves one repetition, not the rung.
struct RungResult {
  double rate = 0;
  std::vector<serve::ReplayResult> reps;
  std::vector<SwapEvent> swaps;
  int64_t requests = 0, ok = 0;
  double cpu_s = 0;  // CPU time of the serving processes
  // Traced passes: sums over the repetitions.
  double lateness_sum = 0, handle_sum = 0, client_sum = 0;
  int64_t matched = 0, calls = 0;
  std::vector<double> swap_window_ms;
  EngineSide engine;
  // Shard workers' request counters around each repetition.
  std::vector<std::pair<std::vector<int64_t>, std::vector<int64_t>>> worker_ids;
  RungLayers layers;

  double MedianOf(double serve::ReplayResult::*field) const {
    std::vector<double> v;
    for (const auto& r : reps) v.push_back(r.*field);
    return Median(v);
  }
};

constexpr int kRepsPerRung = 6;

// Requests per repetition of each rung: every rung gets the same time,
// and the ladder fills `seconds`.
int64_t RequestsPerRep(const ServeSpec& spec, size_t rung, double seconds,
                       bool tiny) {
  const double slot_s =
      seconds / static_cast<double>(spec.rungs.size() * kRepsPerRung);
  return std::max<int64_t>(tiny ? 20 : 100,
                           static_cast<int64_t>(spec.rungs[rung] * slot_s));
}

std::vector<serve::TraceRecord> MakeTrace(const ServeSpec& spec,
                                          uint64_t seed, double rate,
                                          int64_t n) {
  serve::ScheduleConfig sc;
  sc.arrival = serve::ArrivalProcess::kPoisson;
  sc.target_qps = rate;
  sc.num_requests = n;
  sc.seed = seed;
  sc.topk_only = spec.topk_only;
  serve::Trace trace =
      serve::GenerateTrace(sc, spec.users, spec.items, kTopK,
                           spec.hot_fraction);
  // Stretch the Poisson schedule so its span is exactly (n-1)/rate: the
  // offered rate is then the rung's rate on every seed.
  auto& recs = trace.records;
  if (recs.size() > 1 && recs.back().arrival_ns > 0) {
    const double want = static_cast<double>(n - 1) / rate * 1e9;
    const double scale = want / static_cast<double>(recs.back().arrival_ns);
    for (auto& r : recs) {
      r.arrival_ns = static_cast<int64_t>(
          std::llround(static_cast<double>(r.arrival_ns) * scale));
    }
  }
  return trace.records;
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// CPU time (user + system) of this process plus, for a fleet, its
// workers.
double ServingCpuSeconds(System& sys) {
  return ProcessCpuSeconds() +
         (sys.fleet ? sys.fleet->WorkersCpuSeconds() : 0.0);
}

// One repetition of a rung, folded into *out.
// With `swap_mid`, one hot swap runs halfway through the repetition,
// concurrently with its traffic.
void RunRep(System& sys, bool swap_mid, double rate, int64_t requests,
            int workers, bool traced, uint64_t trace_seed, RungResult* out) {
  const ServeSpec& spec = sys.spec;
  const std::vector<serve::TraceRecord> recs =
      MakeTrace(spec, trace_seed, rate, requests);

  serve::ReplayConfig rc;
  rc.workers = workers;
  static CallLog call_log;
  EngineSide before;
  std::vector<int64_t> ids_before;
  if (traced) {
    call_log.Reset();
    before = EngineSide::Read(sys);
    if (sys.fleet) ids_before = sys.fleet->WorkerRequests();
  }
  SampleHostSpeed();
  const double cpu0 = ServingCpuSeconds(sys);
  const int64_t replay_start_ns = spans::NowNs();
  std::vector<SwapEvent> swaps;
  std::thread swapper;
  if (swap_mid) {
    swapper = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          recs.back().arrival_ns / 2));
      SwapEvent ev;
      ev.start_ns = spans::NowNs();
      {
        spans::Scope span(sys.fleet ? "router.swap" : "serve.swap");
        ev.ok = sys.Swap();
      }
      ev.end_ns = spans::NowNs();
      swaps.push_back(ev);
    });
  }
  serve::ReplayResult replay;
  if (traced) {
    replay = serve::ReplayTrace(
        [&sys](const serve::Request& r) {
          Call c;
          c.type = TypeCode(r.type);
          c.user = r.user;
          c.item = r.item;
          c.k = r.k;
          c.call_ns = spans::NowNs();
          serve::Response resp;
          {
            spans::Scope span(sys.fleet ? "router.handle" : "serve.handle");
            resp = sys.Call(r);
            span.set_group(resp.trace_id);
          }
          c.ret_ns = spans::NowNs();
          call_log.Add(c);
          return resp;
        },
        recs, rc);
  } else {
    replay = serve::ReplayTrace(
        [&sys](const serve::Request& r) { return sys.Call(r); }, recs, rc);
  }
  if (swapper.joinable()) swapper.join();
  out->cpu_s += ServingCpuSeconds(sys) - cpu0;
  out->reps.push_back(replay);
  out->requests += replay.requests;
  out->ok += replay.ok;
  out->swaps.insert(out->swaps.end(), swaps.begin(), swaps.end());
  if (!traced) return;

  out->engine.AddDelta(before, EngineSide::Read(sys));
  if (sys.fleet) {
    out->worker_ids.emplace_back(ids_before, sys.fleet->WorkerRequests());
  }

  // ReplayTrace schedules record i at epoch + arrival_ns[i], with its
  // epoch 5 ms after the call; dispatch never precedes the schedule, so
  // the epoch is also bounded by min(call - arrival).
  const std::vector<std::vector<Call>> bufs = call_log.Take();
  std::vector<const Call*> calls;
  const std::vector<int64_t> idx = MatchCalls(bufs, recs, workers, &calls);
  int64_t epoch_ns = replay_start_ns + 5000000;
  for (size_t i = 0; i < calls.size(); ++i) {
    if (idx[i] < 0) continue;
    epoch_ns = std::min(
        epoch_ns,
        calls[i]->call_ns - recs[static_cast<size_t>(idx[i])].arrival_ns);
  }
  for (size_t i = 0; i < calls.size(); ++i) {
    out->handle_sum += NsToMs(calls[i]->ret_ns - calls[i]->call_ns);
    ++out->calls;
    if (idx[i] < 0) continue;
    const int64_t sched =
        epoch_ns + recs[static_cast<size_t>(idx[i])].arrival_ns;
    out->lateness_sum += NsToMs(calls[i]->call_ns - sched);
    ++out->matched;
    for (const SwapEvent& ev : swaps) {
      if (sched >= ev.start_ns && sched <= ev.end_ns) {
        out->swap_window_ms.push_back(NsToMs(calls[i]->ret_ns - sched));
        break;
      }
    }
  }
  out->client_sum += replay.mean_ms * static_cast<double>(replay.requests);
}

// Per-request layer split of a traced rung.
void ComputeLayers(RungResult* r) {
  RungLayers& L = r->layers;
  const EngineSide& e = r->engine;
  const double n = static_cast<double>(std::max<int64_t>(1, r->calls));
  const double requests =
      static_cast<double>(std::max<int64_t>(1, r->requests));
  L.client_ms = r->client_sum / requests;
  L.client_p50_ms = r->MedianOf(&serve::ReplayResult::p50_ms);
  L.client_p99_ms = r->MedianOf(&serve::ReplayResult::p99_ms);
  L.lateness_ms = r->matched > 0
                      ? r->lateness_sum / static_cast<double>(r->matched)
                      : 0;
  int64_t late = 0;
  for (const auto& rep : r->reps) late += rep.late_dispatches;
  L.late_frac = static_cast<double>(late) / requests;
  L.handle_ms = r->handle_sum / n;
  L.unattributed_ms = L.client_ms - L.lateness_ms - L.handle_ms;
  std::sort(r->swap_window_ms.begin(), r->swap_window_ms.end());
  L.swap_window_p99_ms = QuantileSorted(r->swap_window_ms, 0.99);
  if (e.e2e_n > 0) {
    // serve.e2e_ms counts executed engine requests; with one engine
    // request per client request the per-request means line up.
    const double en = static_cast<double>(e.e2e_n);
    L.e2e_ms = e.e2e_s * 1e3 / en;
    L.queue_ms = e.queue_s * 1e3 / en;
    L.recal_ms = e.recal_s * 1e3 / en;
    L.compute_ms = e.compute_s * 1e3 / en;
    L.rank_ms = e.rank_s * 1e3 / en;
    L.reply_ms = e.reply_s * 1e3 / en;
    L.stage_other_ms = L.e2e_ms - L.queue_ms - L.recal_ms - L.compute_ms -
                       L.rank_ms - L.reply_ms;
    L.wakeup_ms = L.handle_ms - L.e2e_ms;
    L.batch_size = e.batches > 0 ? static_cast<double>(e.requests) /
                                       static_cast<double>(e.batches)
                                 : 0;
    const double lookups = static_cast<double>(e.hits + e.misses);
    L.cache_hit_ratio =
        lookups > 0 ? static_cast<double>(e.hits) / lookups : 0;
    L.degraded_ratio = e.requests > 0 ? static_cast<double>(e.degraded) /
                                            static_cast<double>(e.requests)
                                      : 0;
  } else {
    L.router_handle_ms = L.handle_ms;
    L.router_retries = static_cast<double>(e.retries);
    L.router_hedges = static_cast<double>(e.hedges);
    L.router_failovers = static_cast<double>(e.failovers);
    L.router_degraded = static_cast<double>(e.router_degraded);
    L.degraded_ratio = L.router_degraded / n;
  }
}

// Stage means of the shard engines from their request logs: records
// whose trace id (per worker, 1-based admission order) falls in a
// repetition's range of the worker's request counter.
void FillShardLayers(const std::string& prefix, int shards,
                     std::vector<RungResult*> rungs) {
  struct Sums {
    double e2e = 0, queue = 0, recal = 0, compute = 0, rank = 0, reply = 0;
    int64_t n = 0;
  };
  std::vector<Sums> sums(rungs.size());
  for (int w = 0; w < shards; ++w) {
    std::ifstream in(prefix + std::to_string(w) + ".ndjson");
    std::string line;
    while (std::getline(in, line)) {
      auto parsed = dgnn::util::ParseJson(line);
      if (!parsed.ok()) continue;
      const dgnn::util::JsonValue& v = parsed.value();
      const auto id = static_cast<int64_t>(v.NumberOr("trace_id", -1));
      for (size_t ri = 0; ri < rungs.size(); ++ri) {
        bool in_range = false;
        for (const auto& [lo, hi] : rungs[ri]->worker_ids) {
          const auto ws = static_cast<size_t>(w);
          if (lo.size() > ws && hi.size() > ws && id > lo[ws] && id <= hi[ws]) {
            in_range = true;
          }
        }
        if (!in_range) continue;
        Sums& s = sums[ri];
        s.e2e += v.NumberOr("total_s", 0) * 1e3;
        s.queue += v.NumberOr("queue_s", 0) * 1e3;
        s.recal += v.NumberOr("recal_s", 0) * 1e3;
        s.compute += v.NumberOr("compute_s", 0) * 1e3;
        s.rank += v.NumberOr("rank_s", 0) * 1e3;
        s.reply += v.NumberOr("reply_s", 0) * 1e3;
        ++s.n;
      }
    }
  }
  for (size_t ri = 0; ri < rungs.size(); ++ri) {
    const Sums& s = sums[ri];
    if (s.n == 0) continue;
    RungLayers& L = rungs[ri]->layers;
    const double n = static_cast<double>(s.n);
    L.shard_engine_e2e_ms = s.e2e / n;
    L.queue_ms = s.queue / n;
    L.recal_ms = s.recal / n;
    L.compute_ms = s.compute / n;
    L.rank_ms = s.rank / n;
    L.reply_ms = s.reply / n;
    L.stage_other_ms = L.shard_engine_e2e_ms - L.queue_ms - L.recal_ms -
                       L.compute_ms - L.rank_ms - L.reply_ms;
    // Every router op makes two sequential shard hops (the owner's user
    // vector, then the scatter), so the engine share of the critical
    // path is two shard-engine requests.
    L.shard_wire_ms = L.router_handle_ms - 2.0 * L.shard_engine_e2e_ms;
  }
}

// --- Output checks ---------------------------------------------------

bool SameItems(const std::vector<serve::ScoredItem>& a,
               const std::vector<serve::ScoredItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

double Recall(const std::vector<serve::ScoredItem>& got,
              const std::vector<serve::ScoredItem>& want) {
  if (want.empty()) return 1.0;
  int64_t hit = 0;
  for (const auto& w : want) {
    for (const auto& g : got) {
      if (g.item == w.item) {
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) / static_cast<double>(want.size());
}

std::vector<int32_t> CheckUsers(const ServeSpec& spec, uint64_t seed) {
  dgnn::util::Rng rng(seed * 31 + 5);
  std::vector<int32_t> users;
  for (int i = 0; i < kCheckUsers; ++i) {
    users.push_back(static_cast<int32_t>(rng.UniformInt(spec.users)));
  }
  return users;
}

// Returns quality_at_10 and records the workload's output check.
double CheckOutputs(const Options& opts, System& sys, Report* report) {
  const ServeSpec& spec = sys.spec;
  const std::vector<int32_t> users = CheckUsers(spec, opts.seed);
  serve::Request topk;
  topk.type = serve::Request::Type::kTopK;
  topk.k = kTopK;

  if (spec.quant_ivf) {
    // Recall against the exact fp32 top-10 (reported, not gated); the
    // gate is that every answer is a well-formed unseen top-k.
    double recall = 0;
    int64_t malformed = 0;
    for (int32_t u : users) {
      topk.user = u;
      serve::Response r = sys.engine->Handle(topk);
      if (opts.inject_mismatch && !r.items.empty()) r.items.pop_back();
      const auto want = serve::TopKUnseenItems(
          sys.users_fp32.row(u), sys.items_fp32,
          sys.seen[static_cast<size_t>(u)], kTopK);
      recall += Recall(r.items, want);
      bool ok = r.ok && r.items.size() == static_cast<size_t>(kTopK);
      for (size_t i = 0; ok && i < r.items.size(); ++i) {
        const auto& seen = sys.seen[static_cast<size_t>(u)];
        ok = !std::binary_search(seen.begin(), seen.end(), r.items[i].item) &&
             (i == 0 || !serve::ScoreGreater(r.items[i], r.items[i - 1]));
      }
      if (!ok) ++malformed;
    }
    report->Check("serve.topk_well_formed", malformed == 0,
                  std::to_string(malformed) + " malformed of " +
                      std::to_string(users.size()));
    return recall / static_cast<double>(users.size());
  }

  if (sys.fleet) {
    // Router TopK must equal a single-process engine on the same
    // snapshot, tie-breaks included.
    if (sys.on_b && !sys.Swap()) {
      report->Check("serve.sharded_swap_back", false, "swap back failed");
    }
    serve::EngineConfig ec = EngineConfigFor(spec);
    serve::ServingEngine ref(ec);
    if (!ref.Load(sys.path_a).ok()) {
      report->Check("serve.reference_load", false, "cannot load " + sys.path_a);
      return 0;
    }
    int64_t differ = 0;
    double recall = 0;
    for (int32_t u : users) {
      topk.user = u;
      const serve::Response got = sys.fleet->router().TopK(u, kTopK);
      serve::Response want = ref.Handle(topk);
      if (opts.inject_mismatch && want.items.size() > 1) {
        std::swap(want.items[0], want.items[1]);
      }
      if (!got.ok || !SameItems(got.items, want.items)) ++differ;
      recall += Recall(got.items, want.items);
    }
    report->Check("serve.router_equals_engine", differ == 0,
                  std::to_string(differ) + " of " +
                      std::to_string(users.size()) + " users differ");
    return recall / static_cast<double>(users.size());
  }

  // Engine TopK must equal TopKUnseenItems over the engine's own
  // scoring vector (social recalibration included).
  const auto snap = sys.engine->snapshot();
  int64_t differ = 0;
  double recall = 0;
  for (int32_t u : users) {
    serve::Request vec_req;
    vec_req.type = serve::Request::Type::kUserVector;
    vec_req.user = u;
    const serve::Response vec = sys.engine->Handle(vec_req);
    topk.user = u;
    const serve::Response got = sys.engine->Handle(topk);
    std::vector<serve::ScoredItem> want;
    if (vec.ok && !vec.vector.empty()) {
      want = serve::TopKUnseenItems(vec.vector.data(), snap->items,
                                    snap->seen[static_cast<size_t>(u)], kTopK);
    }
    if (opts.inject_mismatch && want.size() > 1) std::swap(want[0], want[1]);
    if (!got.ok || !SameItems(got.items, want)) ++differ;
    recall += Recall(got.items, want);
  }
  report->Check("serve.topk_equals_reference", differ == 0,
                std::to_string(differ) + " of " +
                    std::to_string(users.size()) + " users differ");
  return recall / static_cast<double>(users.size());
}

// --- Driver ------------------------------------------------------------

// The SLO behind throughput_per_s, on a rung's repetition medians.
bool SloMet(const RungResult& r) {
  return r.MedianOf(&serve::ReplayResult::p99_ms) <= kSloP99Ms &&
         static_cast<double>(r.ok) >=
             kSloSuccess * static_cast<double>(r.requests) &&
         r.MedianOf(&serve::ReplayResult::achieved_qps) >=
             kSloAchievedFrac * r.MedianOf(&serve::ReplayResult::offered_qps);
}

struct LadderResult {
  std::vector<RungResult> rungs;
  int64_t requests = 0, ok = 0;

  int64_t FailedSwaps() const {
    int64_t n = 0;
    for (const RungResult& r : rungs) {
      for (const SwapEvent& ev : r.swaps) n += ev.ok ? 0 : 1;
    }
    return n;
  }
};

LadderResult RunLadder(const Options& opts, System& sys, double seconds,
                       bool traced, int workers) {
  const ServeSpec& spec = sys.spec;
  // Warm-up at the low rate: fills caches and the pool before timing.
  RungResult warm;
  RunRep(sys, false, spec.rungs[0], opts.tiny ? 20 : 200, workers, false,
         opts.seed * 1000 + 999, &warm);
  // Repetitions are interleaved across rungs, so a slow spell of the
  // host lands on every rung alike instead of on one.
  std::vector<RungResult> rungs(spec.rungs.size());
  for (int rep = 0; rep < kRepsPerRung; ++rep) {
    for (size_t i = 0; i < spec.rungs.size(); ++i) {
      rungs[i].rate = spec.rungs[i];
      // Two swaps per rung, in the same repetitions of every rung, so
      // each rung carries the same write load on every run.
      const bool swap_mid = spec.swaps && rep % (kRepsPerRung / 2) == 0;
      RunRep(sys, swap_mid, rungs[i].rate,
             RequestsPerRep(spec, i, seconds, opts.tiny), workers, traced,
             opts.seed * 1000 + i * kRepsPerRung + rep, &rungs[i]);
    }
  }
  LadderResult out;
  for (RungResult& rung : rungs) {
    if (traced) ComputeLayers(&rung);
    out.requests += rung.requests;
    out.ok += rung.ok;
    out.rungs.push_back(std::move(rung));
  }
  return out;
}

void ReportRung(const std::string& name, const RungResult& r,
                Report* report) {
  // The tail note lists every repetition's value, so a reader sees the
  // spread behind the median.
  auto per_rep = [&](double serve::ReplayResult::*field) {
    std::string out = dgnn::util::StrFormat(
        "per repetition of %lld:", static_cast<long long>(r.reps[0].requests));
    for (const auto& rep : r.reps) {
      out += dgnn::util::StrFormat(" %.3g", rep.*field);
    }
    return out;
  };
  report->Metric("p50_ms." + name, r.MedianOf(&serve::ReplayResult::p50_ms),
                 "ms", r.requests, per_rep(&serve::ReplayResult::p50_ms));
  report->Metric("p99_ms." + name, r.MedianOf(&serve::ReplayResult::p99_ms),
                 "ms", r.requests, per_rep(&serve::ReplayResult::p99_ms));
  const double cpu_ms = r.cpu_s * 1e3 / static_cast<double>(r.requests);
  report->Metric("cpu_ms." + name, cpu_ms * HostSpeedFactor(), "ms",
                 r.requests);
  report->Metric("cpu_ms." + name + ".raw", cpu_ms, "ms", r.requests);

}

// serve-mixed's traced run continues on a shard fleet over the same
// catalog and traffic: router and shard-worker layers, the two-phase swap,
// and the router-equals-engine output check. Its router.* and shard.*
// numbers join the engine ladder's rung layers.
void RunFleetPhase(const Options& opts, const ServeSpec& spec, double seconds,
                   LadderResult* engine_ladder, RunLayers* run,
                   std::vector<spans::Span>* all_spans, Report* report) {
  Options fleet_opts = opts;
  fleet_opts.work_dir = opts.work_dir + "/fleet";
  ::mkdir(fleet_opts.work_dir.c_str(), 0755);
  const ServeSpec fspec = FleetSpecFor(spec, opts.tiny);
  const std::string log_prefix = fleet_opts.work_dir + "/requests-w";
  System fsys;
  SetupTimes t;
  std::string error;
  if (!SetUp(fleet_opts, fspec, log_prefix, &fsys, &t, &error)) {
    report->Check("serve.fleet_setup", false, error);
    return;
  }
  run->fleet_s = t.fleet;
  telemetry::SetEnabled(true);
  spans::SetEnabled(true);
  // The fleet's pool lanes count against the generator's thread budget.
  LadderResult ladder = RunLadder(fleet_opts, fsys, seconds, true,
                                  std::max(1, opts.nproc - fspec.shards));
  spans::SetEnabled(false);
  telemetry::SetEnabled(false);
  const std::vector<spans::Span> fleet_spans = spans::Drain();
  CheckOutputs(fleet_opts, fsys, report);
  report->Check("serve.fleet_swaps_ok", ladder.FailedSwaps() == 0,
                std::to_string(ladder.FailedSwaps()) + " failed swaps");
  fsys.fleet->Stop();
  FillShardLayers(log_prefix, fspec.shards,
                  {&ladder.rungs[fspec.low], &ladder.rungs[fspec.high]});
  const size_t idx[2][2] = {{spec.low, fspec.low}, {spec.high, fspec.high}};
  for (const auto& [engine_rung, fleet_rung] : idx) {
    RungLayers& L = engine_ladder->rungs[engine_rung].layers;
    const RungLayers& F = ladder.rungs[fleet_rung].layers;
    L.router_handle_ms = F.router_handle_ms;
    L.shard_engine_e2e_ms = F.shard_engine_e2e_ms;
    L.shard_wire_ms = F.shard_wire_ms;
    L.router_retries = F.router_retries;
    L.router_hedges = F.router_hedges;
    L.router_failovers = F.router_failovers;
    L.router_degraded = F.router_degraded;
    report->Check(std::string("reconcile.router.") +
                      (engine_rung == spec.low ? "low" : "high"),
                  F.unattributed_ms > -0.05,
                  "client " + std::to_string(F.client_ms) +
                      " ms = lateness " + std::to_string(F.lateness_ms) +
                      " + router " + std::to_string(F.handle_ms) +
                      " + unattributed " + std::to_string(F.unattributed_ms));
  }
  report->AddAttempts(ladder.requests, ladder.requests - ladder.ok);
  all_spans->insert(all_spans->end(), fleet_spans.begin(), fleet_spans.end());
}

}  // namespace

bool IsServeWorkload(const std::string& name) {
  return name == "serve-retrieval" || name == "serve-mixed";
}

void RunServe(const Options& opts, Report* report) {
  dgnn::kernels::SetDeterministic(true);
  const ServeSpec spec = SpecFor(opts);
  // Load comes from one process with at most nproc generator threads.
  const int workers = opts.nproc;
  dgnn::util::SetNumThreads(opts.nproc);

  std::vector<double> setup_s;
  std::vector<SetupTimes> times;
  std::unique_ptr<System> sys;
  for (int rep = 0; rep < 3; ++rep) {
    sys = std::make_unique<System>();
    SetupTimes t;
    std::string error;
    if (!SetUp(opts, spec, "", sys.get(), &t, &error)) {
      report->Check("serve.setup", false, error);
      return;
    }
    times.push_back(t);
    setup_s.push_back(t.Total());
  }
  auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : times) v.push_back(t.*field);
    return Median(v);
  };

  const double seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
  LadderResult ladder = RunLadder(opts, *sys, seconds, false, workers);
  // Hot swaps with no traffic running: their CPU time is the cost of
  // putting a new model in place. Retrieval reloads its one snapshot.
  constexpr int kQuietSwaps = 15;
  std::vector<double> swap_s;
  const double swap_cpu0 = ServingCpuSeconds(*sys);
  for (int i = 0; i < kQuietSwaps; ++i) {
    const auto t0 = Clock::now();
    const bool ok =
        spec.swaps ? sys->Swap() : sys->engine->Load(sys->path_a).ok();
    if (ok) swap_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  const double swap_cpu_s = (ServingCpuSeconds(*sys) - swap_cpu0) / kQuietSwaps;
  const int64_t failed_swaps = ladder.FailedSwaps();

  if (!opts.trace) {
    report->MedianMetric("setup_s", setup_s, "s");
    const RungResult& low = ladder.rungs[spec.low];
    const RungResult& high = ladder.rungs[spec.high];
    ReportRung("low", low, report);
    ReportRung("high", high, report);
    double best = 0;
    for (const RungResult& r : ladder.rungs) {
      if (SloMet(r)) best = r.MedianOf(&serve::ReplayResult::achieved_qps);
    }
    report->Metric("throughput_per_s", best, "1/s",
                   static_cast<int64_t>(ladder.rungs.size()));
    report->Metric("refresh_cpu_s", swap_cpu_s * HostSpeedFactor(), "s",
                   kQuietSwaps);
    report->Metric("refresh_cpu_s.raw", swap_cpu_s, "s", kQuietSwaps);
    report->Metric("host_probe_ms", HostProbeMs(), "ms",
                   static_cast<int64_t>(ladder.rungs.size() * kRepsPerRung));
    report->MedianMetric("swap_s", swap_s, "s");
    report->Metric("success_rate",
                   static_cast<double>(ladder.ok) /
                       static_cast<double>(ladder.requests),
                   "frac", ladder.requests);
    report->AddAttempts(ladder.requests, ladder.requests - ladder.ok);
    report->Metric("quality_at_10", CheckOutputs(opts, *sys, report), "frac",
                   kCheckUsers);
    report->Check("serve.swaps_ok", failed_swaps == 0,
                  std::to_string(failed_swaps) + " failed swaps");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced pass: same ladder with telemetry and spans on.
  telemetry::SetEnabled(true);
  spans::SetEnabled(true);
  LadderResult traced = RunLadder(opts, *sys, seconds, true, workers);
  spans::SetEnabled(false);
  telemetry::SetEnabled(false);
  std::vector<spans::Span> all_spans = spans::Drain();
  CheckOutputs(opts, *sys, report);
  RunLayers run;
  if (spec.swaps) {
    RunFleetPhase(opts, spec, seconds, &traced, &run, &all_spans, report);
  }

  const char* names[2] = {"low", "high"};
  const size_t idx[2] = {spec.low, spec.high};
  for (int i = 0; i < 2; ++i) {
    const RungLayers& L = traced.rungs[idx[i]].layers;
    EmitRungLayers(names[i], L, report);
    // The decomposition must not claim more time than the client saw.
    report->Check(std::string("reconcile.client.") + names[i],
                  L.unattributed_ms > -0.05,
                  "client " + std::to_string(L.client_ms) + " ms = lateness " +
                      std::to_string(L.lateness_ms) + " + handle " +
                      std::to_string(L.handle_ms) + " + unattributed " +
                      std::to_string(L.unattributed_ms));
    if (sys->engine) {
      report->Check(std::string("reconcile.engine.") + names[i],
                    L.stage_other_ms > -0.01 && L.wakeup_ms > -0.05,
                    "e2e " + std::to_string(L.e2e_ms) + " ms, stages sum to " +
                        std::to_string(L.e2e_ms - L.stage_other_ms) +
                        ", wakeup " + std::to_string(L.wakeup_ms));
    }
  }
  EmitTrainLayers(TrainLayers{}, report);

  const auto layers = spans::SelfTimes(all_spans);
  auto mean_ms = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ms / static_cast<double>(it->second.count);
  };
  run.swap_ms = mean_ms("serve.swap");
  run.router_swap_ms = mean_ms("router.swap");
  if (!spec.swaps) run.swap_ms = Median(swap_s) * 1e3;
  run.resident_mb = sys->resident_mb;
  run.generate_s = med(&SetupTimes::generate);
  run.model_s = med(&SetupTimes::model);
  run.quantize_s = med(&SetupTimes::quantize);
  run.index_s = med(&SetupTimes::index);
  run.write_s = med(&SetupTimes::write);
  run.load_s = med(&SetupTimes::load);
  run.error_rate = 1.0 - static_cast<double>(traced.ok) /
                             static_cast<double>(traced.requests);
  run.trace_overhead_frac =
      traced.rungs[spec.low].MedianOf(&serve::ReplayResult::p50_ms) /
          ladder.rungs[spec.low].MedianOf(&serve::ReplayResult::p50_ms) -
      1.0;
  EmitRunLayers(run, report);
  report->AddAttempts(traced.requests, traced.requests - traced.ok);
  if (!opts.work_dir.empty()) {
    spans::WriteChromeTrace(all_spans, opts.work_dir + "/spans.json");
  }
}

}  // namespace perfbench
