// JSON wire helpers shared by every process on the shard protocol —
// dgnn_serve (shard worker side), dgnn_router, and the tests — plus the
// one client-reply formatter both a worker and the router print.
//
// Bit-identity across the wire is the whole point: floats are widened to
// double and printed with util::JsonDouble (%.17g), which round-trips
// every float value exactly, and parsed floats are narrowed back with a
// plain static_cast — so a score or query vector that crosses a process
// boundary is the SAME float on both sides, and the router's merged
// top-k can be memcmp-identical to a single-process scan. Integers come
// back through util::NarrowInt, which refuses a number its field cannot
// hold instead of casting it.

#ifndef DGNN_SHARD_WIRE_H_
#define DGNN_SHARD_WIRE_H_

#include <string>
#include <vector>

#include "serve/engine.h"
#include "serve/ranking.h"
#include "util/json.h"
#include "util/status.h"

namespace dgnn::shard {

// "[v0,v1,...]" with exact float round-trip.
inline std::string FloatsJson(const std::vector<float>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += util::JsonDouble(static_cast<double>(v[i]));
  }
  out += "]";
  return out;
}

// Parses a JSON number array into floats; false on missing/non-array/
// non-number input (empty arrays parse fine).
inline bool ParseFloatArray(const util::JsonValue* v,
                            std::vector<float>* out) {
  if (v == nullptr || !v->is_array()) return false;
  out->clear();
  out->reserve(v->array.size());
  for (const util::JsonValue& e : v->array) {
    if (!e.is_number()) return false;
    out->push_back(static_cast<float>(e.number));
  }
  return true;
}

// '[{"item":N,"score":S},...]' — the exact shape dgnn_serve has always
// printed for topk/similar_users, reused for partial responses.
inline std::string ItemsJson(const std::vector<serve::ScoredItem>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"item\":" + std::to_string(items[i].item) +
           ",\"score\":" +
           util::JsonDouble(static_cast<double>(items[i].score)) + "}";
  }
  out += "]";
  return out;
}

inline bool ParseItems(const util::JsonValue* v,
                       std::vector<serve::ScoredItem>* out) {
  if (v == nullptr || !v->is_array()) return false;
  out->clear();
  out->reserve(v->array.size());
  for (const util::JsonValue& e : v->array) {
    if (!e.is_object()) return false;
    const util::JsonValue* item = e.Find("item");
    const util::JsonValue* score = e.Find("score");
    if (item == nullptr || !item->is_number() || score == nullptr ||
        !score->is_number()) {
      return false;
    }
    int32_t id = 0;
    if (!util::NarrowInt(item->number, &id)) return false;
    out->push_back({id, static_cast<float>(score->number)});
  }
  return true;
}

// {"ok":false,"error":message} — the reply to a request no op could serve.
inline std::string ErrorReply(const std::string& message) {
  util::JsonObject o;
  o.Set("ok", false).Set("error", message);
  return o.Build();
}

// The reply to a line that does not parse, on every front door.
inline std::string NotJsonReply(const util::Status& parse_error) {
  return ErrorReply("request is not valid JSON: " + parse_error.message());
}

// {"ok":false,"error":..,"trace_id":..} — a request the engine (or the
// router) admitted and then failed.
inline std::string FailedReply(const serve::Response& resp) {
  util::JsonObject o;
  o.Set("ok", false).Set("error", resp.error).Set("trace_id", resp.trace_id);
  return o.Build();
}

// Maps a client op name to its request type; false for any other op.
inline bool ClientOpType(const std::string& op, serve::Request::Type* type) {
  if (op == "topk") {
    *type = serve::Request::Type::kTopK;
  } else if (op == "score") {
    *type = serve::Request::Type::kScore;
  } else if (op == "similar_users") {
    *type = serve::Request::Type::kSimilarUsers;
  } else {
    return false;
  }
  return true;
}

// The error for a request number that does not fit its field.
inline util::Status FieldOutOfRange(const std::string& field) {
  return util::Status::InvalidArgument("\"" + field + "\" is out of range");
}

// Reads the fields every scoring request carries: user and item (default
// -1), k (default 10) and deadline_ms (default 0, the server's own). A
// number its field cannot hold fails with an error naming the field.
inline util::StatusOr<serve::Request> ScoringRequest(
    const util::JsonValue& req, serve::Request::Type type) {
  serve::Request request;
  request.type = type;
  request.user = -1;
  request.item = -1;
  request.k = 10;
  request.timeout_ms = 0;
  if (!req.ReadInt("user", &request.user)) return FieldOutOfRange("user");
  if (!req.ReadInt("item", &request.item)) return FieldOutOfRange("item");
  if (!req.ReadInt("k", &request.k)) return FieldOutOfRange("k");
  if (!req.ReadInt("deadline_ms", &request.timeout_ms)) {
    return FieldOutOfRange("deadline_ms");
  }
  return request;
}

// The reply to a topk / score / similar_users request, byte for byte the
// same from a worker's stdin, its socket and dgnn_router: ok, op, user,
// trace_id, degraded, snapshot_version, then item+score (score) or
// k+items (the rankers), and missing_shards only when a routed answer
// lost a shard's slice.
inline std::string ClientReply(const std::string& op,
                               const serve::Request& request,
                               const serve::Response& resp) {
  if (!resp.ok) return FailedReply(resp);
  util::JsonObject o;
  o.Set("ok", true)
      .Set("op", op)
      .Set("user", static_cast<int64_t>(request.user))
      .Set("trace_id", resp.trace_id)
      .Set("degraded", resp.degraded)
      .Set("snapshot_version", resp.snapshot_version);
  if (request.type == serve::Request::Type::kScore) {
    o.Set("item", static_cast<int64_t>(request.item))
        .Set("score", static_cast<double>(resp.score));
  } else {
    o.Set("k", static_cast<int64_t>(request.k))
        .SetRaw("items", ItemsJson(resp.items));
  }
  if (!resp.missing_shards.empty()) {
    std::string missing = "[";
    for (size_t i = 0; i < resp.missing_shards.size(); ++i) {
      if (i > 0) missing += ",";
      missing += std::to_string(resp.missing_shards[i]);
    }
    o.SetRaw("missing_shards", missing + "]");
  }
  return o.Build();
}

}  // namespace dgnn::shard

#endif  // DGNN_SHARD_WIRE_H_
