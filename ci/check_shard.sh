#!/usr/bin/env bash
# Sharded-serving gate: exercise the fault-tolerant router end-to-end
# against a real 3-shard dgnn_serve fleet and fail on any regression in
# partitioning, bit-identity, degradation, or recovery.
#
#   1. dgnn_cli trains on a synthetic dataset and exports one unsharded
#      snapshot plus a 3-shard manifest (--mode=export --shards=3).
#      --shards combined with --quant must be rejected (exit 2).
#   2. Corrupt shard slice must be REJECTED: a bit-flipped slice fails
#      dgnn_serve startup (exit 1) AND fails a coordinated swap prepare
#      fleet-wide (no worker changes snapshots).
#   3. Bit-identity: every user's topk through the router (scatter to 3
#      workers + merge) must equal the single-process answer on the
#      unsharded snapshot EXACTLY — item ids and %.17g score text.
#   4. Coordinated swap: {"op":"swap"} through the router two-phase
#      commits on all 3 workers and bumps every worker's version.
#   5. Kill matrix: SIGKILL one worker; the router must answer degraded
#      (ok=true, degraded=true, missing_shards naming the dead shard,
#      popularity failover for users the dead shard owned) and mark the
#      shard down, and answer similar_users and score for every user with
#      ok=true, naming no other shard; a restarted worker must be
#      re-admitted and full-fleet bit-identity must hold again, with the
#      shard back to healthy after a burst of successful requests.
#   6. Availability under mid-replay kill: replay a recorded trace
#      through the router, SIGKILL one of the three workers mid-replay;
#      >= 99% of requests must complete ok (degraded allowed, failed
#      not), the replay must not hang, and the emitted bench JSON must
#      validate with `dgnn_inspect bench`.
#
# Usage: ci/check_shard.sh [build-dir]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/examples/dgnn_cli"
SERVE="$BUILD_DIR/examples/dgnn_serve"
ROUTER="$BUILD_DIR/examples/dgnn_router"
INSPECT="$BUILD_DIR/examples/dgnn_inspect"
BENCH="$BUILD_DIR/bench/bench_serve_load"

if [[ ! -x "$CLI" || ! -x "$SERVE" || ! -x "$ROUTER" || \
      ! -x "$INSPECT" || ! -x "$BENCH" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target dgnn_cli dgnn_serve dgnn_router dgnn_inspect bench_serve_load
fi

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

"$CLI" --mode=generate --data_dir="$WORK_DIR/data" --preset=tiny
"$CLI" --mode=train --data_dir="$WORK_DIR/data" --epochs=2 --batch=128 \
  --params="$WORK_DIR/model.bin" > /dev/null
"$CLI" --mode=export --data_dir="$WORK_DIR/data" \
  --params="$WORK_DIR/model.bin" --snapshot="$WORK_DIR/snap.bin" \
  --tag=fleet --shards=3
"$CLI" --mode=export --data_dir="$WORK_DIR/data" \
  --params="$WORK_DIR/model.bin" --snapshot="$WORK_DIR/snap_v2.bin" \
  --tag=fleet-v2 --shards=3

for s in 0 1 2; do
  if [[ ! -f "$WORK_DIR/snap.bin.shard${s}of3" ]]; then
    echo "check_shard: missing shard slice snap.bin.shard${s}of3" >&2
    exit 1
  fi
done
echo "check_shard: 3-shard export present"

# ---- sharding composes with nothing that breaks bit-identity --------------
rc=0
"$CLI" --mode=export --data_dir="$WORK_DIR/data" \
  --params="$WORK_DIR/model.bin" --snapshot="$WORK_DIR/snap_q.bin" \
  --tag=q --shards=3 --quant=int8 > /dev/null 2>&1 || rc=$?
if [[ "$rc" -ne 2 ]]; then
  echo "check_shard: --shards --quant: expected exit 2, got $rc" >&2
  exit 1
fi
echo "check_shard: --shards rejects --quant"

# ---- corrupt shard slice must fail startup --------------------------------
cp "$WORK_DIR/snap.bin.shard1of3" "$WORK_DIR/bad_slice.bin"
python3 - "$WORK_DIR/bad_slice.bin" <<'EOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
data[len(data) // 2] ^= 0x40
open(path, "wb").write(data)
EOF
rc=0
"$SERVE" --snapshot="$WORK_DIR/bad_slice.bin" < /dev/null \
  > /dev/null 2>&1 || rc=$?
if [[ "$rc" -ne 1 ]]; then
  echo "check_shard: corrupt slice: expected exit 1, got $rc" >&2
  exit 1
fi
echo "check_shard: corrupt shard slice rejected at startup"

# ---- fleet session: bit-identity, swap, kill matrix, recovery -------------
python3 - "$SERVE" "$ROUTER" "$WORK_DIR" <<'EOF'
import json, os, signal, subprocess, sys, time

serve, router_bin, work = sys.argv[1], sys.argv[2], sys.argv[3]

def start_worker(s, base="snap.bin"):
    # Workers keep stdin open (EOF would drain them) and serve the shard
    # protocol on a Unix socket, exactly as production would run them.
    return subprocess.Popen(
        [serve, f"--snapshot={work}/{base}.shard{s}of3",
         f"--listen={work}/s{s}.sock"],
        stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, text=True)

workers = {s: start_worker(s) for s in range(3)}
single = subprocess.Popen(
    [serve, f"--snapshot={work}/snap.bin"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    stderr=subprocess.DEVNULL, text=True)
time.sleep(0.3)
router = subprocess.Popen(
    [router_bin, f"--shards={work}/s0.sock,{work}/s1.sock,{work}/s2.sock",
     "--deadline-ms=5000", "--shard-timeout-ms=500",
     "--probe-interval-ms=30", "--retries=2",
     f"--run-log={work}/router.jsonl"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    stderr=subprocess.DEVNULL, text=True)

def ask(proc, obj):
    proc.stdin.write(json.dumps(obj) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    assert line, f"no response for {obj} (process died?)"
    return json.loads(line)

def wait_state(shard, want, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        st = ask(router, {"op": "stats"})
        if st["shards"][shard]["state"] == want:
            return st
        time.sleep(0.05)
    raise AssertionError(f"shard {shard} never became {want}: {st}")

NUM_USERS = 60

# Bit-identity: full fleet vs single process, every user, ids AND score
# bits (both sides print %.17g so equal floats mean equal JSON).
for u in range(NUM_USERS):
    a = ask(single, {"op": "topk", "user": u, "k": 10})
    b = ask(router, {"op": "topk", "user": u, "k": 10})
    assert a["ok"] and b["ok"], (a, b)
    assert not b["degraded"] and "missing_shards" not in b, b
    assert a["items"] == b["items"], f"user {u}: {a['items']} != {b['items']}"
# Score + similar_users parity and the degraded cold-user contract too.
for u in (0, 7, 23):
    a = ask(single, {"op": "score", "user": u, "item": 11})
    b = ask(router, {"op": "score", "user": u, "item": 11})
    assert a["score"] == b["score"], (a, b)
    a = ask(single, {"op": "similar_users", "user": u, "k": 5})
    b = ask(router, {"op": "similar_users", "user": u, "k": 5})
    assert a["items"] == b["items"], (a, b)
a = ask(single, {"op": "topk", "user": 999999, "k": 10})
b = ask(router, {"op": "topk", "user": 999999, "k": 10})
assert a["degraded"] and b["degraded"], (a, b)
assert "missing_shards" not in b, b  # cold user is not a shard failure
assert a["items"] == b["items"], (a, b)
print("check_shard: full-fleet topk/score/similar bit-identical")

# Coordinated swap: two-phase commit across all 3 workers.
r = ask(router, {"op": "swap", "snapshot": f"{work}/snap_v2.bin"})
assert r["ok"] and r["snapshot_version"] == 2, r
b = ask(router, {"op": "topk", "user": 3, "k": 10})
assert b["ok"] and b["snapshot_version"] == 2 and not b["degraded"], b
# Same parameters in both exports: the ranking must not move.
a = ask(single, {"op": "topk", "user": 3, "k": 10})
assert a["items"] == b["items"], (a, b)
print("check_shard: coordinated swap committed fleet-wide")

# A swap whose prepare fails (corrupt slice for shard 1) must abort
# everywhere: error response, and the fleet keeps serving version 2.
os.makedirs(f"{work}/badswap", exist_ok=True)
for s in (0, 2):
    os.link(f"{work}/snap.bin.shard{s}of3",
            f"{work}/badswap/next.bin.shard{s}of3")
with open(f"{work}/badswap/next.bin.shard1of3", "wb") as f:
    f.write(b"DGNNSNP1 corrupt")
r = ask(router, {"op": "swap", "snapshot": f"{work}/badswap/next.bin"})
assert not r["ok"], r
b = ask(router, {"op": "topk", "user": 3, "k": 10})
assert b["ok"] and b["snapshot_version"] == 2, b
print("check_shard: failed prepare aborted fleet-wide")

# Kill matrix: SIGKILL worker 2, assert degraded-not-failed with correct
# attribution, down state, then restart and require full recovery.
workers[2].kill()
workers[2].wait()
wait_state(2, "down")

degraded = failover = 0
t0 = time.time()
for u in range(NUM_USERS):
    b = ask(router, {"op": "topk", "user": u, "k": 10})
    assert b["ok"], f"user {u} failed instead of degrading: {b}"
    assert b["degraded"], f"user {u} not flagged degraded: {b}"
    assert b.get("missing_shards") == [2], b
    degraded += 1
elapsed = time.time() - t0
assert elapsed < 30, f"kill-one-shard answers too slow: {elapsed:.1f}s"
st = ask(router, {"op": "stats"})
assert st["serve.shard.degraded_responses"] >= degraded, st
assert st["serve.shard.failovers"] >= 1, st  # some users lived on shard 2
print(f"check_shard: dead shard -> {degraded} degraded answers, "
      f"{st['serve.shard.failovers']} failovers, no failures")

# similar_users and score through the same outage, score both inside and
# outside the dead shard's item range (it holds the last range): every
# answer is ok, and a degraded one names only the dead shard.
last_item = st["num_items"] - 1
for u in range(NUM_USERS):
    for req in ({"op": "similar_users", "user": u, "k": 5},
                {"op": "score", "user": u, "item": 11},
                {"op": "score", "user": u, "item": last_item}):
        b = ask(router, req)
        assert b["ok"], f"{req} failed instead of degrading: {b}"
        if b["degraded"]:
            assert b.get("missing_shards") == [2], (req, b)
        else:
            assert "missing_shards" not in b, (req, b)
print("check_shard: dead shard -> similar_users and score all answered")

# Restart on the same socket with the CURRENT (swapped) slice: probes
# re-admit the shard (degraded first, then healthy after enough clean
# outcomes) and bit-identity returns.
workers[2] = start_worker(2, base="snap_v2.bin")
wait_state(2, "degraded")
for u in range(NUM_USERS):
    b = ask(router, {"op": "topk", "user": u, "k": 10})
    assert b["ok"] and not b["degraded"] and "missing_shards" not in b, b
wait_state(2, "healthy")
for u in range(10):
    a = ask(single, {"op": "topk", "user": u, "k": 10})
    b = ask(router, {"op": "topk", "user": u, "k": 10})
    # The fleet is back on snap_v2 (same params as snap), single on snap.
    assert a["items"] == b["items"], (a, b)
print("check_shard: restarted shard re-admitted and healthy again")

# Drain the router (SIGTERM) and the fleet; serve_end must be written.
router.send_signal(signal.SIGTERM)
assert router.wait(timeout=30) == 0
events = [json.loads(l) for l in open(f"{work}/router.jsonl") if l.strip()]
kinds = [e["event"] for e in events]
assert "router_start" in kinds and "serve_end" in kinds, kinds
end = [e for e in events if e["event"] == "serve_end"][0]
assert end["reason"] == "signal", end
assert end["degraded_responses"] >= degraded, end
for w in workers.values():
    w.send_signal(signal.SIGTERM)
    assert w.wait(timeout=30) == 0
single.send_signal(signal.SIGTERM)
single.wait(timeout=30)
print("check_shard: router drain wrote serve_end reason=signal")
EOF

# ---- availability floor under a mid-replay SIGKILL ------------------------
"$BENCH" --preset=tiny --dim=8 --arrival=poisson --qps=800 \
  --requests=2400 --workers=4 --record-trace="$WORK_DIR/trace.bin" \
  > /dev/null
python3 - "$SERVE" "$ROUTER" "$INSPECT" "$WORK_DIR" <<'EOF'
import json, subprocess, sys, time

serve, router_bin, inspect, work = sys.argv[1:5]

workers = {}
for s in range(3):
    workers[s] = subprocess.Popen(
        [serve, f"--snapshot={work}/snap.bin.shard{s}of3",
         f"--listen={work}/r{s}.sock"],
        stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, text=True)
time.sleep(0.3)

# ~3s replay; the SIGKILL lands about a third of the way in.
router = subprocess.Popen(
    [router_bin, f"--shards={work}/r0.sock,{work}/r1.sock,{work}/r2.sock",
     "--deadline-ms=2000", "--shard-timeout-ms=250",
     "--probe-interval-ms=30", "--retries=2",
     f"--replay-trace={work}/trace.bin", "--workers=8",
     f"--bench-json={work}/BENCH_shard.json", "--preset=tiny"],
    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
time.sleep(1.0)
workers[1].kill()
workers[1].wait()

try:
    out, _ = router.communicate(timeout=120)
except subprocess.TimeoutExpired:
    router.kill()
    raise AssertionError("replay hung after mid-replay SIGKILL")
assert router.returncode == 0, f"router replay exited {router.returncode}"
r = json.loads(out.strip().splitlines()[-1])
assert r["requests"] == 2400, r
ok_rate = r["completed"] / r["requests"]
assert ok_rate >= 0.99, (
    f"availability {ok_rate:.4f} < 0.99 with one of three shards "
    f"SIGKILLed mid-replay: {r}")
assert r["degraded"] >= 1, f"kill left no degraded answers (too early?): {r}"
assert r["failed"] <= r["requests"] * 0.01, r
assert r["down_shards"] >= 1, r
print(f"check_shard: availability {ok_rate:.4f} with shard 1 killed "
      f"mid-replay ({r['degraded']} degraded, {r['failed']} failed, "
      f"{r['shard_failovers']} failovers)")

for s in (0, 2):
    workers[s].terminate()
    workers[s].wait(timeout=30)
EOF

"$INSPECT" bench "$WORK_DIR/BENCH_shard.json"
echo "check_shard: router bench JSON validates"

echo "check_shard: all sharded-serving checks passed"
