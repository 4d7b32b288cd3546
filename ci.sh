#!/usr/bin/env bash
# GVEX CI gate — run from the workspace root.
#
#   ./ci.sh          full gate: fmt, clippy, build, tests, bench smoke
#   ./ci.sh --fast   skip the bench smoke (useful while iterating)
#
# The bench smoke runs the hot-path benchmark and rewrites
# BENCH_hotpaths.json at the workspace root, so every green CI run leaves
# a fresh perf snapshot behind.

set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --release --all-targets -- -D warnings

echo "==> cargo clippy (dev profile)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q --workspace --release

if [[ "${1:-}" != "--fast" ]]; then
    echo "==> bench smoke (writes BENCH_hotpaths.json + OBS_report.json)"
    cargo run -q --release -p gvex-bench --bin hotpaths
    python3 - <<'PY'
import json

bench = json.load(open("BENCH_hotpaths.json"))

vf2 = bench["vf2_match"]
if vf2["speedup"] < 3.0:
    raise SystemExit(f"bench gate: vf2 bitset speedup {vf2['speedup']:.2f}x below the 3x gate")

small = bench["explain_database"]
ratio_small = small["secs_4_threads"] / small["secs_1_thread"]
if ratio_small > 1.1:
    raise SystemExit(f"bench gate: small explain_database 4-thread/1-thread ratio {ratio_small:.3f} above 1.1")
if not small["obs_identical"]:
    raise SystemExit("bench gate: explain_database results differ across thread counts / obs")

large = bench["explain_database_large"]
ratio_large = large["secs_4_threads"] / large["secs_1_thread"]
if ratio_large > 1.1:
    raise SystemExit(f"bench gate: large explain_database 4-thread/1-thread ratio {ratio_large:.3f} above 1.1")
if not large["identical"]:
    raise SystemExit("bench gate: large explain_database results differ across thread counts")

session = bench["explain_session"]
if session["speedup"] < 1.5:
    raise SystemExit(f"bench gate: explain_session reuse speedup {session['speedup']:.2f}x below the 1.5x gate")
if not session["identical"]:
    raise SystemExit("bench gate: explain_session arms produced different selections")

bforward = bench["batched_forward"]
if bforward["speedup"] < 2.0:
    raise SystemExit(f"bench gate: batched forward speedup {bforward['speedup']:.2f}x below the 2x gate")
if not bforward["identical"]:
    raise SystemExit("bench gate: batched forward labels differ from the per-graph path")

btrain = bench["batched_train_epoch"]
if btrain["speedup"] < 1.5:
    raise SystemExit(f"bench gate: mini-batch training speedup {btrain['speedup']:.2f}x below the 1.5x gate")

# The trace ring must stay in the noise next to the observed kernel: an
# obs-on run with the ring recording may cost at most 2x the obs-on run.
obs_over = bench["obs_overhead"]
if obs_over["trace_ring_ratio"] > 2.0:
    raise SystemExit(f"bench gate: trace ring ratio {obs_over['trace_ring_ratio']:.3f} above the 2x gate")

# Kernel races: the production call sites (lane kernels) must beat the
# scalar oracle at the shapes the trainer actually runs.
for section, floor in (("simd_matmul", 1.5), ("simd_spmm", 1.5), ("simd_segmented", 1.2)):
    kb = bench[section]
    if kb["speedup"] < floor:
        raise SystemExit(f"bench gate: {section} speedup {kb['speedup']:.2f}x below the {floor}x gate ({kb['shape']})")

# The matching-engine counters are exercised by the bench's obs epilogue
# (tiny CLI graphs never reach the bitset/truncation/reuse paths).
counters = json.load(open("OBS_report.json"))["counters"]
for required in ("iso.vf2.frontier_prunes", "iso.vf2.truncated", "mining.pgen.embedding_reuse_hits"):
    if counters.get(required, 0) <= 0:
        raise SystemExit(f"bench gate: counter {required!r} missing or zero in OBS_report.json")

# Store serving: opening a .gvex database and serving the first explanation
# must beat the regenerate+retrain+mine cold start by 10x, bitwise identical.
db_open = bench["db_open"]
if db_open["open_secs"] > 0.25:
    raise SystemExit(f"bench gate: Store::open took {db_open['open_secs']*1e3:.1f} ms — not 'milliseconds'")
serve = bench["serve_from_db"]
if serve["speedup"] < 10.0:
    raise SystemExit(f"bench gate: serve-from-db speedup {serve['speedup']:.1f}x below the 10x gate")
if not serve["identical"]:
    raise SystemExit("bench gate: store-served views/labels differ from the in-memory pipeline")

# Serving QPS: a warm daemon under a concurrent Zipfian mix must sustain
# 10x the per-request cold-start throughput, byte-identical bodies.
serve_qps = bench["serve_qps"]
if serve_qps["speedup"] < 10.0:
    raise SystemExit(f"bench gate: serve_qps speedup {serve_qps['speedup']:.1f}x below the 10x gate")
if not serve_qps["identical"]:
    raise SystemExit("bench gate: served bodies differ from the sequential pipeline")
if serve_qps["cache_hits"] <= 0:
    raise SystemExit("bench gate: serve_qps recorded zero answer-cache hits under a Zipfian mix")
if serve_qps["mixed_qps"] <= 0:
    raise SystemExit("bench gate: serve_qps mixed read/write arm recorded no throughput")
if serve_qps["mixed_epochs"] < 1:
    raise SystemExit("bench gate: serve_qps mixed arm published no epochs under ingest")

# Live ingest: incremental view maintenance over localized updates must
# beat apply+full-recompute by 10x, and the incremental epoch state must
# be differentially identical to a from-scratch rebuild.
ingest = bench["ingest"]
if ingest["speedup"] < 10.0:
    raise SystemExit(f"bench gate: ingest incremental speedup {ingest['speedup']:.1f}x below the 10x gate")
if not ingest["differential_ok"]:
    raise SystemExit("bench gate: incremental epoch state diverged from the from-scratch rebuild")
if ingest["epochs"] < 1:
    raise SystemExit("bench gate: ingest bench published no epochs")

print(f"bench gates: vf2 {vf2['speedup']:.2f}x, explain ratios {ratio_small:.3f}/{ratio_large:.3f}, session reuse {session['speedup']:.2f}x, batched forward {bforward['speedup']:.2f}x, mini-batch train {btrain['speedup']:.2f}x, kernels {bench['simd_matmul']['speedup']:.2f}x/{bench['simd_spmm']['speedup']:.2f}x/{bench['simd_segmented']['speedup']:.2f}x, serve-from-db {serve['speedup']:.0f}x, serve-qps {serve_qps['speedup']:.0f}x, ingest {ingest['speedup']:.0f}x — OK")
PY
fi

echo "==> obs smoke (GVEX_OBS=1 explain run, validates OBS_report.json + chrome trace)"
obs_report="$(mktemp -t gvex_obs_report.XXXXXX.json)"
obs_trace="$(mktemp -t gvex_obs_trace.XXXXXX.json)"
obs_regressed="$(mktemp -t gvex_obs_regressed.XXXXXX.json)"
store_db="$(mktemp -t gvex_store.XXXXXX.gvex)"
store_build_report="$(mktemp -t gvex_store_build.XXXXXX.json)"
store_serve_report="$(mktemp -t gvex_store_serve.XXXXXX.json)"
daemon_log="$(mktemp -t gvex_daemon_log.XXXXXX.txt)"
daemon_report="$(mktemp -t gvex_daemon_obs.XXXXXX.json)"
ingest_log="$(mktemp -t gvex_ingest_log.XXXXXX.jsonl)"
ingest_report="$(mktemp -t gvex_ingest_obs.XXXXXX.json)"
ingest_snapshot="$(mktemp -t gvex_ingest_snap.XXXXXX.gvex)"
ingest_daemon_report="$(mktemp -t gvex_ingest_daemon_obs.XXXXXX.json)"
trap 'rm -f "$obs_report" "$obs_trace" "$obs_regressed" "$store_db" "$store_build_report" "$store_serve_report" "$daemon_log" "$daemon_report" "$ingest_log" "$ingest_report" "$ingest_snapshot" "$ingest_daemon_report"' EXIT
# GVEX_THREADS pinned to the baseline's thread count: per-worker counters
# (and the diff gate below) only compare across runs with the same fan-out.
GVEX_THREADS=2 GVEX_OBS=1 GVEX_OBS_JSON="$obs_report" GVEX_OBS_TRACE="$obs_trace" \
    cargo run -q --release -- explain --dataset MUT --scale small --upper 4 >/dev/null
python3 - "$obs_report" "$obs_trace" <<'PY'
import json, sys

with open(sys.argv[1]) as fh:
    report = json.load(fh)

if report["schema_version"] != 2:
    sys.exit(f"obs smoke: expected schema_version 2, got {report['schema_version']}")
if report["open_spans"] != 0:
    sys.exit(f"obs smoke: {report['open_spans']} span(s) left open at exit")

paths = {span["path"] for span in report["spans"]}
for required in ("explain_db", "explain_db/predict", "explain_db/summarize"):
    if required not in paths:
        sys.exit(f"obs smoke: mandatory span {required!r} missing from {sorted(paths)}")
for span in report["spans"]:
    for field in ("p50_ms", "p90_ms", "p99_ms", "p999_ms"):
        if field not in span:
            sys.exit(f"obs smoke: span {span['path']!r} missing v2 field {field!r}")
    if span["p50_ms"] > span["p999_ms"]:
        sys.exit(f"obs smoke: span {span['path']!r} has p50 > p999")

requests = report["requests"]
for required in ("session.explain", "session.verify"):
    if required not in requests:
        sys.exit(f"obs smoke: request {required!r} missing from {sorted(requests)}")
    if requests[required]["count"] < 1:
        sys.exit(f"obs smoke: request {required!r} recorded zero completions")
if not requests["session.explain"]["spans"]:
    sys.exit("obs smoke: session.explain attributed no spans")

counters = report["counters"]
if not any(name.startswith("gnn.trace_cache.") for name in counters):
    sys.exit("obs smoke: no gnn.trace_cache.* counters recorded")
if not any(name.startswith("linalg.matmul.dispatch.") for name in counters):
    sys.exit("obs smoke: no linalg.matmul.dispatch.* counters recorded")
for required in ("gnn.trace_cache.evictions", "core.session.influence_misses"):
    if required not in counters:
        sys.exit(f"obs smoke: counter {required!r} missing (registered-at-zero expected)")

if not report["trace"]["active"]:
    sys.exit("obs smoke: trace section says the ring was inactive")

# The flushed chrome trace parses, and every begin/end is matched per track.
with open(sys.argv[2]) as fh:
    trace = json.load(fh)
events = trace["traceEvents"]
if not events:
    sys.exit("obs smoke: chrome trace is empty")
open_by_tid = {}
for e in events:
    if e["ph"] == "B":
        open_by_tid[e["tid"]] = open_by_tid.get(e["tid"], 0) + 1
    elif e["ph"] == "E":
        open_by_tid[e["tid"]] = open_by_tid.get(e["tid"], 0) - 1
        if open_by_tid[e["tid"]] < 0:
            sys.exit(f"obs smoke: end before begin on tid {e['tid']}")
    else:
        sys.exit(f"obs smoke: unexpected ph {e['ph']!r}")
unmatched = {tid: n for tid, n in open_by_tid.items() if n != 0}
if unmatched:
    sys.exit(f"obs smoke: unmatched begin/end events per tid: {unmatched}")

print(f"obs smoke: {len(paths)} span paths, {len(counters)} counters, "
      f"{len(requests)} requests, {len(events)} trace events — OK")
PY

echo "==> obs diff gate (vs committed OBS_baseline.json)"
# Generous thresholds: wall-clock varies across machines, counters are
# near-deterministic for the pinned workload — the gate catches gross
# regressions, not jitter.
cargo run -q --release -- obs diff OBS_baseline.json "$obs_report" \
    --span-pct 900 --counter-pct 200 --p99-pct 1900

# And the gate must actually fire: a doctored report with one big counter
# tripled has to make the diff exit nonzero under strict thresholds.
python3 - "$obs_report" "$obs_regressed" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
name = max(report["counters"], key=report["counters"].get)
report["counters"][name] = report["counters"][name] * 3 + 1000
json.dump(report, open(sys.argv[2], "w"))
PY
if cargo run -q --release -- obs diff "$obs_report" "$obs_regressed" \
    --counter-pct 50 --min-counter 1 >/dev/null; then
    echo "obs diff gate: doctored regression was NOT detected" >&2
    exit 1
fi
echo "obs diff gate: clean pass + doctored regression detected — OK"

echo "==> store smoke (.gvex built once, inspected, served)"
GVEX_OBS=1 GVEX_OBS_JSON="$store_build_report" \
    cargo run -q --release -- db build --dataset MUT --scale small --seed 42 \
    --epochs 20 --upper 4 --out "$store_db" >/dev/null
inspect_out="$(cargo run -q --release -- db inspect "$store_db")"
for required in meta features model views; do
    if ! grep -q "$required" <<<"$inspect_out"; then
        echo "store smoke: 'db inspect' output is missing the $required section" >&2
        exit 1
    fi
done
# Serve explain (which re-verifies views) and query from the same file; the
# explain leaves the serve-side obs report for the counter check below.
GVEX_THREADS=2 GVEX_OBS=1 GVEX_OBS_JSON="$store_serve_report" \
    cargo run -q --release -- explain --dataset MUT --scale small --upper 4 \
    --db "$store_db" >/dev/null
cargo run -q --release -- query --db "$store_db" >/dev/null
python3 - "$store_build_report" "$store_serve_report" <<'PY'
import json, sys

build = json.load(open(sys.argv[1]))["counters"]
if build.get("store.build.bytes", 0) <= 0:
    sys.exit("store smoke: store.build.bytes missing or zero in the build report")

serve = json.load(open(sys.argv[2]))
counters = serve["counters"]
if counters.get("store.opens", 0) < 1:
    sys.exit("store smoke: store.opens missing from the serve report")
if counters.get("store.open_ms", 0) < 1:
    sys.exit("store smoke: store.open_ms missing from the serve report")
if counters.get("store.mapped_bytes", 0) <= 0:
    sys.exit("store smoke: store.mapped_bytes missing or zero in the serve report")
sections = [n for n in counters if n.startswith("store.section.") and n.endswith(".bytes")]
if len(sections) < 5:
    sys.exit(f"store smoke: expected per-section byte counters, got {sections}")
spans = {span["path"] for span in serve["spans"]}
# `--db` serving goes through ServeState, so store.open nests under the
# serve.state_open span
if not any(p == "store.open" or p.endswith("/store.open") for p in spans):
    sys.exit(f"store smoke: store.open span missing from {sorted(spans)}")

print(f"store smoke: {counters['store.mapped_bytes']} bytes mapped across "
      f"{len(sections)} sections, open_ms={counters['store.open_ms']} — OK")
PY

echo "==> serve smoke (daemon on an ephemeral port, mixed traffic)"
# The daemon serves the store built above; the one-shot `gvex request`
# client drives a mixed explain/query/node workload, a repeat request must
# come back from the answer cache, and a reload + shutdown must both land
# cleanly. The obs report (written at daemon exit) is validated below.
: > "$daemon_log"
GVEX_THREADS=2 GVEX_OBS=1 GVEX_OBS_JSON="$daemon_report" \
    cargo run -q --release -- serve --db "$store_db" >"$daemon_log" &
daemon_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$daemon_log")"
    [[ -n "$addr" ]] && break
    sleep 0.1
done
if [[ -z "$addr" ]]; then
    echo "serve smoke: daemon never reported its address" >&2
    kill "$daemon_pid" 2>/dev/null || true
    exit 1
fi
req() { cargo run -q --release -- request --addr "$addr" "$@"; }
req --kind stats >/dev/null
req --kind explain --label 0 --upper 4 >/dev/null
# the identical request again: must be served from the answer cache
cached_note="$(req --kind explain --label 0 --upper 4 2>&1 >/dev/null)"
if ! grep -q "cached=true" <<<"$cached_note"; then
    echo "serve smoke: repeat explain missed the cache: $cached_note" >&2
    exit 1
fi
req --kind query --label 0 >/dev/null
req --kind query --discriminative 1 >/dev/null
req --kind node --graph 0 --target 0 --upper 4 >/dev/null
req --kind reload >/dev/null
req --kind shutdown >/dev/null
wait "$daemon_pid"
if ! grep -q "gvex serve: stopped" "$daemon_log"; then
    echo "serve smoke: daemon did not stop cleanly" >&2
    exit 1
fi
python3 - "$daemon_report" <<'PY'
import json, sys

report = json.load(open(sys.argv[1]))
counters = report["counters"]
for required in ("serve.accepted", "serve.connections", "serve.requests",
                 "serve.requests.explain", "serve.requests.query",
                 "serve.requests.node", "serve.cache.hits",
                 "serve.cache.inserts", "serve.reloads", "serve.shutdowns"):
    if counters.get(required, 0) <= 0:
        sys.exit(f"serve smoke: counter {required!r} missing or zero")
requests = report["requests"]
for required in ("serve.explain", "serve.query", "serve.node", "serve.reload"):
    if required not in requests or requests[required]["count"] < 1:
        sys.exit(f"serve smoke: request scope {required!r} missing")

print(f"serve smoke: {counters['serve.requests']} requests over "
      f"{counters['serve.connections']} connections, "
      f"{counters['serve.cache.hits']} cache hit(s), "
      f"{counters['serve.reloads']} reload(s) — OK")
PY

echo "==> ingest smoke (offline replay + verify, then mutations streamed into a live daemon)"
# Generate a mutation log against the store built above, replay it offline
# with the incremental-vs-recompute verifier on, and snapshot the final
# epoch as a servable store. The obs report must carry the ingest.*
# counters and the staleness histogram.
cargo run -q --release -- ingest gen --db "$store_db" --out "$ingest_log" \
    --count 16 --seed 7 --profile localized >/dev/null
GVEX_THREADS=2 GVEX_OBS=1 GVEX_OBS_JSON="$ingest_report" \
    cargo run -q --release -- ingest replay --db "$store_db" --mutations "$ingest_log" \
    --upper 4 --epoch-interval 4 --verify --snapshot-out "$ingest_snapshot" >/dev/null
if ! cargo run -q --release -- db inspect "$ingest_snapshot" | grep -Eq "epoch [1-9]"; then
    echo "ingest smoke: snapshot store does not carry a post-ingest epoch" >&2
    exit 1
fi
python3 - "$ingest_report" <<'PY'
import json, sys

report = json.load(open(sys.argv[1]))
counters = report["counters"]
if counters.get("ingest.mutations_applied", 0) != 16:
    sys.exit(f"ingest smoke: expected 16 mutations applied, got {counters.get('ingest.mutations_applied')}")
if counters.get("ingest.epochs_published", 0) < 4:
    sys.exit(f"ingest smoke: expected >= 4 epochs, got {counters.get('ingest.epochs_published')}")
if counters.get("ingest.views_patched", 0) <= 0:
    sys.exit("ingest smoke: no views were incrementally patched")
if "ingest.views_recomputed" not in counters:
    sys.exit("ingest smoke: ingest.views_recomputed not registered")
hist = report["histograms"].get("ingest.staleness_ms")
if hist is None or hist["count"] < 4:
    sys.exit(f"ingest smoke: ingest.staleness_ms histogram missing or short: {hist}")

print(f"ingest smoke (offline): {counters['ingest.mutations_applied']} mutations, "
      f"{counters['ingest.epochs_published']} epochs, "
      f"{counters['ingest.views_patched']} views patched — OK")
PY
# Live daemon: stream the same log without committing (large epoch interval
# so nothing auto-publishes), then commit. Answers must be stable before the
# epoch, flip after it, and the pre-epoch cached answer must be invalidated.
: > "$daemon_log"
GVEX_THREADS=2 GVEX_OBS=1 GVEX_OBS_JSON="$ingest_daemon_report" \
    cargo run -q --release -- serve --db "$store_db" --epoch-interval 1000 >"$daemon_log" &
daemon_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$daemon_log")"
    [[ -n "$addr" ]] && break
    sleep 0.1
done
if [[ -z "$addr" ]]; then
    echo "ingest smoke: daemon never reported its address" >&2
    kill "$daemon_pid" 2>/dev/null || true
    exit 1
fi
req() { cargo run -q --release -- request --addr "$addr" "$@"; }
fp_before="$(req --kind stats | grep -o '"fingerprint":[0-9]*')"
req --kind explain --upper 4 >/dev/null
cached_note="$(req --kind explain --upper 4 2>&1 >/dev/null)"
if ! grep -q "cached=true" <<<"$cached_note"; then
    echo "ingest smoke: warm-up explain missed the cache: $cached_note" >&2
    exit 1
fi
# Stream the log without --commit: mutations buffer, the served state (and
# its cached answers) must not move yet.
cargo run -q --release -- ingest send --addr "$addr" --mutations "$ingest_log" \
    --upper 4 --batch 8 >/dev/null
fp_mid="$(req --kind stats | grep -o '"fingerprint":[0-9]*')"
if [[ "$fp_mid" != "$fp_before" ]]; then
    echo "ingest smoke: fingerprint moved before any epoch was committed" >&2
    exit 1
fi
cached_note="$(req --kind explain --upper 4 2>&1 >/dev/null)"
if ! grep -q "cached=true" <<<"$cached_note"; then
    echo "ingest smoke: pre-epoch cached answer was dropped early: $cached_note" >&2
    exit 1
fi
# Commit: the buffered mutations fold into a published epoch — the
# fingerprint flips and the pre-epoch cached answer is gone.
commit_body="$(req --kind mutate --commit --upper 4)"
if ! grep -q '"published":true' <<<"$commit_body"; then
    echo "ingest smoke: commit did not publish an epoch: $commit_body" >&2
    exit 1
fi
fp_after="$(req --kind stats | grep -o '"fingerprint":[0-9]*')"
if [[ "$fp_after" == "$fp_before" ]]; then
    echo "ingest smoke: fingerprint did not flip after the epoch published" >&2
    exit 1
fi
cached_note="$(req --kind explain --upper 4 2>&1 >/dev/null)"
if grep -q "cached=true" <<<"$cached_note"; then
    echo "ingest smoke: post-epoch explain was served from a stale cache entry" >&2
    exit 1
fi
cached_note="$(req --kind explain --upper 4 2>&1 >/dev/null)"
if ! grep -q "cached=true" <<<"$cached_note"; then
    echo "ingest smoke: post-epoch explain did not re-enter the cache: $cached_note" >&2
    exit 1
fi
req --kind shutdown >/dev/null
wait "$daemon_pid"
if ! grep -q "gvex serve: stopped" "$daemon_log"; then
    echo "ingest smoke: daemon did not stop cleanly" >&2
    exit 1
fi
python3 - "$ingest_daemon_report" <<'PY'
import json, sys

report = json.load(open(sys.argv[1]))
counters = report["counters"]
for required in ("serve.mutations_rx", "serve.epoch_publishes",
                 "serve.cache.invalidations", "ingest.mutations_applied",
                 "ingest.epochs_published"):
    if counters.get(required, 0) <= 0:
        sys.exit(f"ingest smoke: counter {required!r} missing or zero in the daemon report")
if "serve.mutate" not in report["requests"]:
    sys.exit("ingest smoke: serve.mutate request scope missing from the daemon report")

print(f"ingest smoke (live): {counters['ingest.mutations_applied']} mutations over "
      f"{counters['serve.mutations_rx']} mutate request(s), "
      f"{counters['serve.epoch_publishes']} epoch(s), "
      f"{counters['serve.cache.invalidations']} cache invalidation(s) — OK")
PY

echo "==> CI green"
