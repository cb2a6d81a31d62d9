#!/bin/sh
# CI entry point: typecheck, build everything, run the test suite and
# its per-area aliases, then these end-to-end smoke tests, in order:
#   - one compile request served through the qcx_serve --once NDJSON
#     path;
#   - a chaos crash-recovery drill (kill -9 the daemon mid-load,
#     restart, require the snapshot + write-ahead journal to hand back
#     every recorded schedule bit for bit, with entries read from the
#     snapshot, then drain cleanly on SIGTERM);
#   - a drift drill (a poisoned calibration epoch under load must be
#     canary-rejected with the epoch and cache intact);
#   - a fleet drill (3 shards + router: kill -9 a shard, fail over
#     bit-identically, rebuild it from its peer replica);
#   - the 20-day drift campaign (jobs 1/2/4), which is deterministic
#     and must reproduce the committed BENCH_drift.json byte for byte;
#   - the seeded 20-run chaos campaign (its kill offsets vary from run
#     to run, so its report is not compared with BENCH_chaos.json);
#   - a scheduler-core smoke benchmark, checked against the frozen
#     legacy baseline: it fails if an objective is worse than the
#     frozen one, if nodes are not at least 2x below the frozen
#     totals, or if any schedule differs between --jobs 1 and 4;
#   - a scale smoke benchmark (windowed scheduler on the generated
#     127-qubit heavy-hex model, jobs-deterministic, quality-gated
#     against the exact solver on small control slices);
#   - an error-mitigation smoke benchmark (DD must beat no-DD on the
#     idle-heavy XtalkSched slice, ZNE must beat the unmitigated
#     aggregate, the cell table must be jobs-identical);
#   - the full fleet benchmark (shard-count determinism matrix plus
#     seeded kill drills), whose matrix digests, gates, lost count and
#     clean-seed rows must equal the committed BENCH_fleet.json (the
#     fault seeds' rows vary from run to run and are not compared);
#   - a short perfbench serve-hot run (perfbench/README.md): the
#     shipped daemon over its socket under a Zipf replay of cached
#     compiles, every response checked against perfbench's own
#     reference; it must be correct, with no failed request and a
#     sustained rate of at least 1000 req/s;
#   - a perfbench serve-cold run: distinct seeded circuits compiled
#     cold through the daemon (exact and windowed rungs, DD padding,
#     the journal), every response checked against perfbench's own
#     reference; it must be correct with no failed request.  It runs
#     --seconds 20 (about 50 s in all): a shorter run leaves
#     serve-cold's reference phase too small for a p99 and exits 2.
set -eu
cd "$(dirname "$0")/.."

# perfbench writes .perfbench/results/serve-hot-seed<N>-trace0.json
# and overwrites it on the next run with that seed, so the CI run uses
# a seed that no perfbench comparison uses.
PERF_SEED=9001
# The same holds for serve-cold's .perfbench/results/serve-cold-seed<N>-trace0.json.
PERF_COLD_SEED=9002

dune build @check
dune build
dune runtest
dune build @serve
dune build @chaos
dune build @fleet
dune build @drift
dune build @sched
dune build @scale
dune build @mitig

SCRATCH="$(mktemp -d "${TMPDIR:-/tmp}/qcx-ci.XXXXXX")"
DAEMON=""
FLEET_PIDS=""
cleanup() {
  [ -n "$DAEMON" ] && kill -9 "$DAEMON" 2>/dev/null || true
  for P in $FLEET_PIDS; do kill -9 "$P" 2>/dev/null || true; done
  rm -rf "$SCRATCH"
}
trap cleanup EXIT

# Serving-layer smoke test: one compile request in --once mode must
# come back with status ok and a schedule.
SERVE_REQ='{"op":"compile","id":"ci","device":"example6q","circuit":{"nqubits":6,"gates":[{"g":"h","q":[0]},{"g":"cx","q":[0,1]},{"g":"measure","q":[0]},{"g":"measure","q":[1]}]}}'
SERVE_OUT="$(printf '%s\n' "$SERVE_REQ" | dune exec bin/qcx_serve.exe -- --once --devices example6q --oracle-xtalk)"
case "$SERVE_OUT" in
  *'"status": "ok"'*'"schedule"'*) ;;
  *)
    echo "ci: serve smoke test failed: $SERVE_OUT" >&2
    exit 1
    ;;
esac

# Chaos crash-recovery drill.  The daemon must run as the built
# binary (not under `dune exec`) so kill -9 hits the server itself.
SERVE=_build/default/bin/qcx_serve.exe
BENCH=_build/default/bench/main.exe
SOCK="$SCRATCH/qcx.sock"
CACHE="$SCRATCH/cache.json"

echo "ci: chaos drill: warm up and record"
"$SERVE" --devices example6q --oracle-xtalk --socket "$SOCK" \
  --cache-file "$CACHE" --checkpoint-every 4 --jobs 2 &
DAEMON=$!
"$BENCH" --chaos-client --socket "$SOCK" --mode record \
  --file "$SCRATCH/expected.json" --requests 24

echo "ci: chaos drill: kill -9 mid-load"
"$BENCH" --chaos-client --socket "$SOCK" --mode load --requests 40 --seed 11 &
LOADER=$!
sleep 0.5
kill -9 "$DAEMON"
wait "$DAEMON" 2>/dev/null || true
wait "$LOADER" 2>/dev/null || true

echo "ci: chaos drill: restart; snapshot + journal replay must restore the cache"
"$SERVE" --devices example6q --oracle-xtalk --socket "$SOCK" \
  --cache-file "$CACHE" --checkpoint-every 4 --jobs 2 2> "$SCRATCH/restart.err" &
DAEMON=$!
"$BENCH" --chaos-client --socket "$SOCK" --mode verify \
  --file "$SCRATCH/expected.json" --requests 24 --min-cached 24
# The restart must have read entries from the snapshot file itself,
# not only replayed the journal.
if ! grep -Eq 'cache: restored [1-9][0-9]* snapshot' "$SCRATCH/restart.err"; then
  echo "ci: chaos drill: the restart restored no snapshot entries:" >&2
  cat "$SCRATCH/restart.err" >&2
  exit 1
fi

echo "ci: chaos drill: graceful drain (SIGTERM must exit 0)"
kill -TERM "$DAEMON"
wait "$DAEMON"
DAEMON=""

# Calibration drill: with compile load in flight, an operator pushes a
# poisoned (truncated-merge) calibration epoch.  The canary gate must
# reject it, the registry must stay on the incumbent epoch, and the
# schedule cache must survive untouched (the post-drill compile comes
# back cached).  The drill client asserts every one of its responses is
# typed ok — availability 1.0 for the whole exchange.
echo "ci: drift drill: poisoned epoch under load must be canary-rejected"
CSOCK="$SCRATCH/qcx-cal.sock"
"$SERVE" --devices example6q --oracle-xtalk --socket "$CSOCK" \
  --calibration-dir "$SCRATCH/calibration" --jobs 2 &
DAEMON=$!
"$BENCH" --chaos-client --socket "$CSOCK" --mode load --requests 30 --seed 13 &
LOADER=$!
"$BENCH" --drift-drill --socket "$CSOCK" --device example6q
wait "$LOADER" 2>/dev/null || true
kill -TERM "$DAEMON"
wait "$DAEMON"
DAEMON=""

# Fleet drill (kill-a-shard chaos, DESIGN.md section 14): 3 shard
# daemons + the router, each its own process so kill -9 hits exactly
# one crash domain.  Record 24 schedules through the router, kill one
# shard mid-load and delete its snapshot AND journal (only the peer
# replica survives), verify every recorded schedule still comes back
# bit-identical through failover, restart the shard (it must rebuild
# from the peer replica), assert via the router's aggregated health
# that the whole fleet is live again with zero replication lag and a
# recorded failover, then verify all 24 are served from cache.
echo "ci: fleet drill: 3 shards + router"
FSOCK="$SCRATCH/qcx-fleet.sock"
FLEET="$SCRATCH/fleet"
SHARD1=""
for K in 0 1 2; do
  "$SERVE" --devices example6q --oracle-xtalk --socket "$FSOCK" \
    --shards 3 --shard-index "$K" --fleet-dir "$FLEET" --jobs 2 &
  PID=$!
  FLEET_PIDS="$FLEET_PIDS $PID"
  [ "$K" = 1 ] && SHARD1=$PID
done
"$SERVE" --devices example6q --oracle-xtalk --socket "$FSOCK" \
  --shards 3 --router-only --backlog 32 --jobs 2 &
FLEET_PIDS="$FLEET_PIDS $!"
"$BENCH" --chaos-client --socket "$FSOCK" --mode record \
  --file "$SCRATCH/fleet-expected.json" --requests 24

echo "ci: fleet drill: kill -9 shard 1 mid-load (peer replica is the only survivor)"
"$BENCH" --chaos-client --socket "$FSOCK" --mode load --requests 40 --seed 17 &
LOADER=$!
sleep 0.5
kill -9 "$SHARD1"
wait "$SHARD1" 2>/dev/null || true
rm -f "$FLEET/shard-1/cache.json" "$FLEET/shard-1/cache.json.journal"
wait "$LOADER" 2>/dev/null || true

echo "ci: fleet drill: failover must keep every recorded schedule bit-identical"
"$BENCH" --chaos-client --socket "$FSOCK" --mode verify \
  --file "$SCRATCH/fleet-expected.json" --requests 24 --min-cached 0

echo "ci: fleet drill: restarted shard must rebuild from the peer replica"
"$SERVE" --devices example6q --oracle-xtalk --socket "$FSOCK" \
  --shards 3 --shard-index 1 --fleet-dir "$FLEET" --jobs 2 &
FLEET_PIDS="$FLEET_PIDS $!"
"$BENCH" --fleet-drill --socket "$FSOCK" --shards 3 --timeout 30
"$BENCH" --chaos-client --socket "$FSOCK" --mode verify \
  --file "$SCRATCH/fleet-expected.json" --requests 24 --min-cached 24

echo "ci: fleet drill: graceful drain (SIGTERM must exit 0)"
for P in $FLEET_PIDS; do kill -TERM "$P" 2>/dev/null || true; done
for P in $FLEET_PIDS; do
  if [ "$P" != "$SHARD1" ]; then wait "$P"; else wait "$P" 2>/dev/null || true; fi
done
FLEET_PIDS=""

echo "ci: drift campaign (20 days, jobs 1/2/4) must reproduce BENCH_drift.json"
dune exec bench/main.exe -- --drift-bench --days 20 --seed 7 \
  --drift-dir "$SCRATCH/drift" --out "$SCRATCH/BENCH_drift.json"
if ! cmp "$SCRATCH/BENCH_drift.json" BENCH_drift.json; then
  echo "ci: drift campaign: report differs from the committed BENCH_drift.json" >&2
  exit 1
fi

echo "ci: chaos campaign (20 seeds)"
dune exec bench/main.exe -- --chaos-bench --seeds 20 --requests 60 --jobs 2 \
  --chaos-dir "$SCRATCH/chaos" --out "$SCRATCH/BENCH_chaos.json"

echo "ci: scheduler-core smoke (vs frozen legacy baseline, --jobs 1 vs 4 determinism)"
dune exec bench/main.exe -- --bench-sched --smoke --jobs 4 \
  --out "$SCRATCH/BENCH_sched.json"

echo "ci: scale smoke (windowed scheduler on heavy-hex-127)"
dune exec bench/main.exe -- --bench-scale --smoke --jobs 4 \
  --out "$SCRATCH/BENCH_scale.json"

echo "ci: mitigation smoke (dd/zne leaderboard gates, --jobs 1 vs 2 determinism)"
dune exec bench/main.exe -- --mitig-bench --smoke --jobs 2 \
  --out "$SCRATCH/BENCH_mitig.json"

echo "ci: fleet bench (determinism matrix + seeded kill drills) must match BENCH_fleet.json"
dune exec bench/main.exe -- --fleet-bench \
  --fleet-dir "$SCRATCH/fleet-bench" --out "$SCRATCH/BENCH_fleet.json"
python3 - "$SCRATCH/BENCH_fleet.json" BENCH_fleet.json <<'PY'
import json, sys
new, ref = (json.load(open(p)) for p in sys.argv[1:])
def pinned(d):
    clean = [r for r in d["per_seed"] if not r["faulty"]]
    return {"matrix": d["matrix"], "gates": d["gates"],
            "lost_acknowledged": d["lost_acknowledged"], "clean_seeds": clean}
a, b = pinned(new), pinned(ref)
bad = [k for k in a if a[k] != b[k]]
if bad:
    sys.exit("ci: fleet bench differs from the committed BENCH_fleet.json in: " + ", ".join(bad))
print("ci: fleet bench: matrix, gates, lost count and clean seeds match")
PY

echo "ci: perfbench serve-hot (seed $PERF_SEED, 5 s): correct, 0 failed, >= 1000 req/s"
if ! python3 perfbench/run.py --workload serve-hot --seed "$PERF_SEED" --seconds 5 \
  --trace 0 > "$SCRATCH/perfbench.out"; then
  echo "ci: perfbench serve-hot: run.py failed" >&2
  exit 1
fi
tail -n 1 "$SCRATCH/perfbench.out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
rate = r["metrics"]["max_rate_rps"]["value"]
bad = [why for why, hit in [
    ("not correct", r["correct"] is not True),
    ("%d failed requests" % r["failed"], r["failed"] > 0),
    ("max_rate_rps %.0f < 1000" % rate, rate < 1000),
] if hit]
if bad:
    sys.exit("ci: perfbench serve-hot: " + "; ".join(bad))
print("ci: perfbench serve-hot: correct, %d requests, max_rate_rps %.0f" % (r["attempted"], rate))
'

echo "ci: perfbench serve-cold (seed $PERF_COLD_SEED, 20 s): correct, 0 failed"
if ! python3 perfbench/run.py --workload serve-cold --seed "$PERF_COLD_SEED" --seconds 20 \
  --trace 0 > "$SCRATCH/perfbench-cold.out"; then
  echo "ci: perfbench serve-cold: run.py failed" >&2
  exit 1
fi
tail -n 1 "$SCRATCH/perfbench-cold.out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
bad = [why for why, hit in [
    ("not correct", r["correct"] is not True),
    ("%d failed requests" % r["failed"], r["failed"] > 0),
] if hit]
if bad:
    sys.exit("ci: perfbench serve-cold: " + "; ".join(bad))
print("ci: perfbench serve-cold: correct, %d requests" % r["attempted"])
'

echo "ci: OK"
