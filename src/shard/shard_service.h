// The serving worker's request handler: every op a dgnn_serve process
// answers, on stdin and on its --listen socket alike, plus the staged
// two-phase snapshot swap. One ShardService wraps one ServingEngine;
// HandleLine() is the complete NDJSON request->reply function the socket
// transport plugs in, and Handle() the same function for a request the
// stdin loop (shard::ServeStdin) has already parsed.
//
// Client ops (one JSON object per line; replies in shard/wire.h):
//   {"op":"topk","user":3,"k":10}
//   {"op":"score","user":3,"item":7}
//   {"op":"similar_users","user":3,"k":5}
//   {"op":"reload"}                        re-read the snapshot path
//   {"op":"swap","snapshot":"other.snap"}  hot-swap to another file
//   {"op":"stats"}                         counters + rolling windows
//   {"op":"stats","format":"prom"}         Prometheus text (in "text")
//   {"op":"burst","n":64,"user":3,"k":10}  fire n concurrent topk calls
// Shard-worker ops (what dgnn_router sends):
//   {"op":"probe"}                          liveness + identity + load
//   {"op":"user_vector","user":u}           owning shard's scoring vector
//   {"op":"topk_partial","k":K,"query":[..],"user":u}
//   {"op":"topk_partial","k":K,"popularity":true}
//   {"op":"similar_partial","k":K,"query":[..],"norm":x,"user":u}
//   {"op":"score_item","item":i,"query":[..]}
//   {"op":"swap_prepare","prefix":P,"token":T}   stage (read+validate)
//   {"op":"swap_commit","token":T}               publish staged snapshot
//   {"op":"swap_abort","token":T}                drop staged snapshot
// "quit" is not an op here: ending the process belongs to the stdin loop.
//
// Two-phase swap contract: prepare reads and FULLY validates the new
// snapshot (sharded workers resolve "<prefix>.shard<i>of<N>" themselves
// and reject slices for the wrong shard identity) but publishes nothing;
// commit atomically swaps the staged snapshot in; abort (or a drain —
// dgnn_serve calls AbortStagedSwap on SIGTERM) drops it. A prepare
// failure on any shard lets the router abort everywhere, so the fleet
// never serves mixed versions because one worker's disk was bad.

#ifndef DGNN_SHARD_SHARD_SERVICE_H_
#define DGNN_SHARD_SHARD_SERVICE_H_

#include <memory>
#include <mutex>
#include <string>

#include "serve/engine.h"
#include "util/json.h"
#include "util/status.h"

namespace dgnn::shard {

class ShardService {
 public:
  ShardService(serve::ServingEngine& engine, std::string snapshot_path)
      : engine_(engine), snapshot_path_(std::move(snapshot_path)) {}

  // Full line handler: parse, dispatch, reply (single-line JSON).
  // Thread-safe; scoring ops micro-batch through the engine as usual.
  std::string HandleLine(const std::string& line);

  // HandleLine for an already-parsed request.
  std::string Handle(const util::JsonValue& req);

  // Loads `path` into the engine and records a snapshot_swap run-log
  // event tagged `trigger` ("reload", "swap", or the caller's own, e.g.
  // "SIGHUP"). A failed load keeps the current snapshot.
  util::Status Load(const std::string& trigger, const std::string& path);

  // Drops a staged (prepared-but-uncommitted) swap, if any; returns
  // whether one was staged. The drain path calls this so a SIGTERM
  // mid-two-phase-swap aborts instead of orphaning the staged snapshot.
  bool AbortStagedSwap();

  bool has_staged() const {
    std::lock_guard<std::mutex> lock(mu_);
    return staged_ != nullptr;
  }

 private:
  // Answers the shard-worker ops; false when `op` is not one of them.
  bool HandleShardOp(const util::JsonValue& req, const std::string& op,
                     std::string* out);
  std::string Probe();
  std::string LoadOp(const util::JsonValue& req, const std::string& op);
  std::string Stats(const util::JsonValue& req);
  std::string Burst(const util::JsonValue& req);
  std::string SwapPrepare(const util::JsonValue& req);
  std::string SwapCommit(const util::JsonValue& req);
  std::string SwapAbort(const util::JsonValue& req);

  serve::ServingEngine& engine_;
  const std::string snapshot_path_;
  mutable std::mutex mu_;
  std::shared_ptr<const serve::Snapshot> staged_;
  std::string staged_token_;
};

}  // namespace dgnn::shard

#endif  // DGNN_SHARD_SHARD_SERVICE_H_
