#!/usr/bin/env bash
# Serving gate: exercise the offline-to-online pipeline end-to-end and
# fail on any snapshot-format or serving regression.
#
#   0. The brute-force reference serve::TopKUnseenItems has no caller
#      under src/ outside serve/ranking.h (every production path ranks
#      through the one item scan); a planted caller must be flagged.
#   1. dgnn_cli trains on a synthetic dataset, saves parameters, and
#      exports two embedding snapshots (--mode=export, distinct tags).
#   2. dgnn_serve serves snapshot A over NDJSON: topk / score /
#      similar_users answers for a known user must be well-formed and
#      non-degraded; an unknown user must degrade to the popularity
#      ranking (degraded:true, k items); stats must account for every
#      request.
#   3. Corrupt snapshots (truncated, bit-flipped) must be REJECTED at
#      startup (exit 1, no crash) — the writer-side checksum is only
#      worth anything if the reader enforces it.
#   4. Hot swap mid-stream: requests, then {"op":"swap"} to snapshot B,
#      then more requests — every request gets a response (none
#      dropped) and snapshot_version bumps across the swap.
#   5. {"op":"reload"} re-reads --snapshot from disk and also bumps the
#      version.
#   6. bench_serve_load runs at a small scale and must report qps and
#      p50/p95/p99 columns.
#   7. Overload control, on a FRESH server instance so the exact-count
#      stats assertions above stay untouched: with --max-queue small and
#      a DGNN_FAILPOINTS="serve.execute=delay:..." slowdown, a burst of
#      concurrent requests must be partially SHED (fast "overloaded"
#      errors, never a hang); a burst with a tiny deadline_ms must
#      produce "deadline exceeded" expiries; and SIGTERM must drain
#      in-flight work, write serve_end reason=signal, and exit 0.
#
# Usage: ci/check_serve.sh [build-dir]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/examples/dgnn_cli"
SERVE="$BUILD_DIR/examples/dgnn_serve"
BENCH="$BUILD_DIR/bench/bench_serve_load"

if [[ ! -x "$CLI" || ! -x "$SERVE" || ! -x "$BENCH" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target dgnn_cli dgnn_serve bench_serve_load
fi

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

# ---- one ranking path: the reference stays a reference --------------------
# serve::TopKUnseenItems is the brute-force yardstick that tests and
# benchmarks compare the item scan against. Code under src/ must rank
# through the item scan (TopKUnseenFromView) instead; reference_callers
# prints every call site outside serve/ranking.h, where it is defined.
reference_callers() {
  grep -rnE --include='*.h' --include='*.cc' --include='*.cpp' \
    '(^|[^A-Za-z0-9_])TopKUnseenItems\(' "$1" \
    | grep -v "^$1/serve/ranking.h:" || true
}
if [[ -n "$(reference_callers src)" ]]; then
  echo "check_serve: production code calls the reference TopKUnseenItems:" >&2
  reference_callers src >&2
  exit 1
fi
# Must-fail: the guard has to flag a planted caller.
mkdir -p "$WORK_DIR/guard/serve" "$WORK_DIR/guard/train"
cp src/serve/ranking.h "$WORK_DIR/guard/serve/"
echo 'auto r = serve::TopKUnseenItems(u, items, seen, k);' \
  > "$WORK_DIR/guard/train/planted.cc"
if [[ -z "$(reference_callers "$WORK_DIR/guard")" ]]; then
  echo "check_serve: guard missed a planted TopKUnseenItems caller" >&2
  exit 1
fi
echo "check_serve: reference TopKUnseenItems has no production caller"

"$CLI" --mode=generate --data_dir="$WORK_DIR/data" --preset=tiny
"$CLI" --mode=train --data_dir="$WORK_DIR/data" --epochs=2 --batch=128 \
  --params="$WORK_DIR/model.bin" > /dev/null
"$CLI" --mode=export --data_dir="$WORK_DIR/data" \
  --params="$WORK_DIR/model.bin" --snapshot="$WORK_DIR/snap_a.bin" --tag=a
"$CLI" --mode=export --data_dir="$WORK_DIR/data" \
  --params="$WORK_DIR/model.bin" --snapshot="$WORK_DIR/snap_b.bin" --tag=b

# ---- corrupt snapshots must fail fast at startup --------------------------
head -c 100 "$WORK_DIR/snap_a.bin" > "$WORK_DIR/snap_trunc.bin"
cp "$WORK_DIR/snap_a.bin" "$WORK_DIR/snap_flip.bin"
python3 - "$WORK_DIR/snap_flip.bin" <<'EOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
data[len(data) // 2] ^= 0x40  # flip one bit in the middle of the body
open(path, "wb").write(data)
EOF

for bad in snap_trunc.bin snap_flip.bin; do
  rc=0
  "$SERVE" --snapshot="$WORK_DIR/$bad" < /dev/null > /dev/null 2>&1 || rc=$?
  if [[ "$rc" -ne 1 ]]; then
    echo "check_serve: corrupt snapshot $bad: expected exit 1, got $rc" >&2
    exit 1
  fi
done
echo "check_serve: corrupt snapshots rejected"

# ---- scripted NDJSON session: answers, degradation, hot swap, reload ------
# The driver speaks to a dgnn_serve subprocess over pipes so responses are
# validated as they stream back (not just after exit).
python3 - "$SERVE" "$WORK_DIR" <<'EOF'
import json, subprocess, sys

serve, work = sys.argv[1], sys.argv[2]
proc = subprocess.Popen(
    [serve, f"--snapshot={work}/snap_a.bin", f"--run-log={work}/serve.jsonl"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

def ask(obj):
    proc.stdin.write(json.dumps(obj) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    assert line, f"no response for {obj} (server died?)"
    return json.loads(line)

# Well-formed, non-degraded answers for a known user.
r = ask({"op": "topk", "user": 3, "k": 5})
assert r["ok"] and not r["degraded"], r
assert len(r["items"]) == 5, r
scores = [it["score"] for it in r["items"]]
assert scores == sorted(scores, reverse=True), f"unsorted topk: {r}"
assert len({it["item"] for it in r["items"]}) == 5, f"dup items: {r}"
v1 = r["snapshot_version"]

r = ask({"op": "score", "user": 3, "item": 7})
assert r["ok"] and not r["degraded"] and isinstance(r["score"], (int, float)), r

r = ask({"op": "similar_users", "user": 3, "k": 3})
assert r["ok"] and len(r["items"]) == 3, r
assert all(it["item"] != 3 for it in r["items"]), f"self in neighbors: {r}"

# Unknown user degrades to popularity, still k items, flagged.
r = ask({"op": "topk", "user": 999999, "k": 5})
assert r["ok"] and r["degraded"] and len(r["items"]) == 5, r

# Malformed requests get error responses, not a dead server.
r = ask({"op": "topk", "user": 3, "k": 0})
assert not r["ok"] and "k must be positive" in r["error"], r
r = ask({"op": "frobnicate"})
assert not r["ok"], r

# Hot swap mid-stream: issue requests, swap, issue more. Every request
# must get a response and the version must bump.
pre = [ask({"op": "topk", "user": u, "k": 5}) for u in range(8)]
assert all(p["ok"] and p["snapshot_version"] == v1 for p in pre)
r = ask({"op": "swap", "snapshot": f"{work}/snap_b.bin"})
assert r["ok"] and r["snapshot_version"] == v1 + 1, r
post = [ask({"op": "topk", "user": u, "k": 5}) for u in range(8)]
assert all(p["ok"] and p["snapshot_version"] == v1 + 1 for p in post)
# Same parameters on both snapshots: rankings must agree across the swap.
for a, b in zip(pre, post):
    assert [i["item"] for i in a["items"]] == [i["item"] for i in b["items"]]

# A swap to a corrupt file fails but the server keeps serving.
r = ask({"op": "swap", "snapshot": f"{work}/snap_flip.bin"})
assert not r["ok"], r
r = ask({"op": "topk", "user": 3, "k": 5})
assert r["ok"] and r["snapshot_version"] == v1 + 1, r

# Reload re-reads --snapshot and bumps the version again.
r = ask({"op": "reload"})
assert r["ok"] and r["snapshot_version"] == v1 + 2, r

# Stats account for every ranking request sent above (errors included —
# the engine counts whatever it handled; 22 Handle() calls so far).
r = ask({"op": "stats"})
assert r["ok"] and r["requests"] == 22, r
assert r["snapshot_swaps"] == 3, r  # startup load + swap + reload
assert r["degraded_requests"] == 1, r

r = ask({"op": "quit"})
assert r["ok"], r
assert proc.wait(timeout=30) == 0

# The run log must record the lifecycle and both successful swaps.
events = [json.loads(l) for l in open(f"{work}/serve.jsonl") if l.strip()]
kinds = [e["event"] for e in events]
assert kinds[0] == "serve_start" and kinds[-1] == "serve_end", kinds
assert kinds.count("snapshot_swap") == 3, kinds  # incl. the failed one
assert any(e["event"] == "snapshot_swap" and not e["ok"] for e in events)
print("check_serve: NDJSON session valid")
EOF

# ---- overload control: shedding, deadlines, graceful SIGTERM drain --------
# Fresh server instance: a slow execute (injected via failpoint) plus a
# small admission queue forces load shedding under a concurrent burst.
python3 - "$SERVE" "$WORK_DIR" <<'EOF'
import json, os, signal, subprocess, sys

serve, work = sys.argv[1], sys.argv[2]
env = dict(os.environ, DGNN_FAILPOINTS="serve.execute=delay:60")
proc = subprocess.Popen(
    [serve, f"--snapshot={work}/snap_a.bin", "--max-queue=2",
     f"--run-log={work}/serve_overload.jsonl"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

def ask(obj):
    proc.stdin.write(json.dumps(obj) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    assert line, f"no response for {obj} (server died?)"
    return json.loads(line)

# Burst of 32 concurrent requests against a 60ms execute and a 2-slot
# queue: one leader + at most a couple of followers get in, the rest must
# be shed immediately instead of queuing unboundedly.
r = ask({"op": "burst", "n": 32, "user": 3, "k": 5})
assert r["ok"], r
assert r["completed"] >= 1, f"no request completed: {r}"
assert r["shed"] >= 1, f"nothing shed under overload: {r}"
assert r["failed"] == 0, r
assert r["completed"] + r["shed"] + r["expired"] == 32, r
shed_so_far = r["shed"]

# Tiny per-request deadline: followers queued behind the slow leader
# batch expire ("deadline exceeded") instead of burning execute capacity.
r = ask({"op": "burst", "n": 32, "user": 3, "k": 5, "deadline_ms": 5})
assert r["ok"], r
assert r["expired"] >= 1, f"no deadline expiry under overload: {r}"
assert r["failed"] == 0, r

# The engine's own counters agree with what the bursts reported.
r = ask({"op": "stats"})
assert r["ok"] and r["shed_requests"] >= shed_so_far, r
assert r["expired_requests"] >= 1, r

# Graceful drain: SIGTERM interrupts the blocking stdin read, in-flight
# batches finish, serve_end is written with reason=signal, exit code 0.
proc.send_signal(signal.SIGTERM)
rc = proc.wait(timeout=30)
assert rc == 0, f"SIGTERM drain exited {rc}, want 0"

events = [json.loads(l)
          for l in open(f"{work}/serve_overload.jsonl") if l.strip()]
end = [e for e in events if e["event"] == "serve_end"]
assert len(end) == 1, events
assert end[0]["reason"] == "signal", end[0]
assert end[0]["shed_requests"] >= shed_so_far, end[0]
assert end[0]["expired_requests"] >= 1, end[0]
print("check_serve: overload shedding + SIGTERM drain OK")
EOF

# ---- load bench smoke: must report qps and tail latencies -----------------
BENCH_OUT="$("$BENCH" --preset=tiny --requests=64 --clients=1,4)"
echo "$BENCH_OUT" | grep -q "qps" || {
  echo "check_serve: bench output missing qps column" >&2; exit 1; }
echo "$BENCH_OUT" | grep -q "p99_ms" || {
  echo "check_serve: bench output missing p99 column" >&2; exit 1; }
echo "check_serve: load bench OK"

echo "Serving check passed."
