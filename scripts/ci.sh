#!/bin/sh
# Local CI: formatting, lints, tier-1 verify (ROADMAP.md), all offline.
# Usage: scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release --workspace --offline

echo "==> tier-1: cargo test -q"
cargo test --workspace -q --offline

echo "==> end-to-end benchmark tests (e2e_bench: public API it drives, traced == untraced digest)"
cargo test --release --offline --manifest-path e2e_bench/Cargo.toml

echo "==> source hygiene: no wall clock or native sockets in simulator crates"
# Everything in simcore/tcpsim/cdnsim must run on virtual time over
# simulated sockets; the only sanctioned wall-clock seam is the
# telemetry registry's observe-only wall spans (explicitly classed
# "wall" and excluded from deterministic artifacts).
if grep -rn -E 'std::net::|std::thread::sleep|Instant::now' \
    crates/simcore/src crates/tcpsim/src crates/cdnsim/src \
    | grep -v '^crates/simcore/src/telemetry.rs:'; then
  echo "wall-clock/native-socket API in simulator crate code" >&2
  exit 1
fi
echo "    simulator crates are wall-clock- and socket-free"

echo "==> campaign smoke: exp_whatif serial vs 4 workers (streaming result path)"
FECDN_THREADS=1 ./target/release/exp_whatif > /tmp/ci_whatif_t1.tsv 2> /tmp/ci_whatif_t1.log
FECDN_THREADS=4 FECDN_METRICS_JSON=BENCH_metrics.json \
  ./target/release/exp_whatif > /tmp/ci_whatif_t4.tsv 2> /tmp/ci_whatif_t4.log
cmp /tmp/ci_whatif_t1.tsv /tmp/ci_whatif_t4.tsv || {
  echo "exp_whatif stdout differs between thread counts" >&2; exit 1;
}
echo "    exp_whatif stdout identical at FECDN_THREADS=1 and 4"
grep -q "^run	metric	kind" /tmp/ci_whatif_t4.log || {
  echo "exp_whatif stderr is missing the metrics.tsv document" >&2; exit 1;
}
echo "    exp_whatif stderr carries the metrics.tsv document"

echo "==> overload smoke: exp_overload shapes + exp_metastable hysteresis tripwire"
# exp_overload's own shape checks (load-model overhead curve, admission
# shedding, determinism) gate via its exit status.
./target/release/exp_overload > /tmp/ci_exp_overload.tsv 2> /tmp/ci_exp_overload.log
FECDN_THREADS=4 ./target/release/exp_metastable --out BENCH_overload.json \
  > /tmp/ci_exp_metastable.tsv 2> /tmp/ci_exp_metastable.log
python3 - <<'EOF'
import json, sys
cur = json.load(open("BENCH_overload.json"))
naive, budgeted = cur["recovery_ratio_naive"], cur["recovery_ratio_budgeted"]
print(f"    post/pre goodput: naive {naive:.2f} (stuck), budgeted {budgeted:.2f} (recovered)")
fail = []
# The metastable-failure tripwire: with budgeted retries the post-step
# goodput must recover to >= 90% of the pre-step level, while naive
# retries must demonstrate the hysteresis (stuck below half).
if budgeted < 0.9:
    fail.append(f"budgeted recovery {budgeted:.2f} < 0.90: retry budget no longer breaks the storm")
if naive >= 0.5:
    fail.append(f"naive recovery {naive:.2f} >= 0.50: the metastable regime vanished")
for msg in fail:
    print(f"exp_metastable: {msg}", file=sys.stderr)
sys.exit(1 if fail else 0)
EOF

echo "==> popularity smoke: exp_popularity policy crossover + 10^5-session slab memory contract"
# The binary internally re-runs its end-to-end arms at FECDN_THREADS=1
# and 4 and byte-compares the TSVs, so one invocation covers the thread
# matrix; its exit status gates the crossover shape and the memory
# contract. The memory phase here is the CI-sized smoke (10^4 -> 10^5
# sessions); FECDN_SCALE=paper runs the full 10^5 -> 10^6 contract.
./target/release/exp_popularity --out BENCH_popularity.json \
  > /tmp/ci_exp_popularity.tsv 2> /tmp/ci_exp_popularity.log
python3 - <<'EOF'
import json, sys
cur = json.load(open("BENCH_popularity.json"))
lru, lfu, ttl = cur["hit_lru"], cur["hit_lfu"], cur["hit_ttl"]
growth = cur["retained_growth_factor"]
print(f"    static Zipf: lfu {lfu[0]:.3f} vs lru {lru[0]:.3f}; "
      f"fastest churn: lru {lru[-1]:.3f} / ttl {ttl[-1]:.3f} vs lfu {lfu[-1]:.3f}")
print(f"    slab memory: {cur['sessions_base']:,} -> {cur['sessions_10x']:,} sessions, "
      f"retained growth {growth:.2f}x, pending growth {cur['pending_growth_factor']:.2f}x")
fail = []
# The paper-shaped crossover: frequency wins under a static law, loses
# under fast churn to both recency and freshness.
if not lfu[0] > lru[0]:
    fail.append(f"static Zipf: LFU {lfu[0]:.3f} no longer beats LRU {lru[0]:.3f}")
if not (lru[-1] > lfu[-1] and ttl[-1] > lfu[-1]):
    fail.append(f"fast churn: LFU {lfu[-1]:.3f} not beaten by LRU {lru[-1]:.3f} and TTL {ttl[-1]:.3f}")
if cur["crossover_churn"] is None:
    fail.append("no crossover churn rate found")
# Peak-memory tripwire: 10x the sessions, <= 1.5x the footprint.
if growth > 1.5:
    fail.append(f"retained growth {growth:.2f}x > 1.5x at 10x sessions")
if cur["pending_growth_factor"] > 1.5:
    fail.append(f"pending-event growth {cur['pending_growth_factor']:.2f}x > 1.5x at 10x sessions")
for msg in fail:
    print(f"exp_popularity: {msg}", file=sys.stderr)
sys.exit(1 if fail else 0)
EOF

echo "==> re-mapping smoke: exp_temapping strategy x flash-crowd crossover"
# The binary internally byte-compares the sweep at FECDN_THREADS=1 vs 4
# and across same-seed reruns; its exit status gates those plus the
# accounting-conservation and telemetry-liveness checks.
./target/release/exp_temapping --out BENCH_temapping.json \
  > /tmp/ci_exp_temapping.tsv 2> /tmp/ci_exp_temapping.log
python3 - <<'EOF'
import json, sys
cur = json.load(open("BENCH_temapping.json"))
base = json.load(open("BENCH_temapping.baseline.json"))
calm, flash = cur["p95_calm_ms"], cur["p95_flash_ms"]
print(f"    p95 calm: nearest {calm[0]:.1f} vs loadaware {calm[2]:.1f} ms; "
      f"flash: nearest {flash[0]:.1f} vs loadaware {flash[2]:.1f} ms "
      f"({cur['flash_remap_events']} remap epochs)")
fail = []
# The saturation-crossover tripwire: proximity must win (or tie) while
# unloaded, and load-aware re-mapping must beat it on p95 end-to-end
# latency once the flash crowd pushes the hot FEs past their knee.
if not calm[2] <= calm[0] * 1.02:
    fail.append(f"calm: loadaware p95 {calm[2]:.1f} ms regressed nearest "
                f"{calm[0]:.1f} ms: deflection fired while unloaded")
if not flash[2] < flash[0]:
    fail.append(f"flash: loadaware p95 {flash[2]:.1f} ms >= nearest "
                f"{flash[0]:.1f} ms: the saturation crossover vanished")
if cur["flash_remap_events"] <= 0:
    fail.append("no re-mapping epochs fired under the flash crowd")
# Virtual-time latencies are deterministic, so any drift from the
# committed baseline is a real behaviour change — reviewable like a
# golden (refresh the baseline intentionally alongside the change).
for key in ("p95_calm_ms", "p95_busy_ms", "p95_flash_ms"):
    if cur[key] != base[key]:
        fail.append(f"{key} drifted from baseline: {cur[key]} vs {base[key]}")
for msg in fail:
    print(f"exp_temapping: {msg}", file=sys.stderr)
sys.exit(1 if fail else 0)
EOF

echo "==> packet hot-path throughput: bench_tcpsim (smoke mode)"
./target/release/bench_tcpsim --smoke --out BENCH_tcpsim.json \
  2> /tmp/ci_bench_tcpsim.log
python3 - <<'EOF'
import json, sys
cur = json.load(open("BENCH_tcpsim.json"))
base = json.load(open("BENCH_tcpsim.baseline.json"))
key = "events_per_sec_tracing_on"
ratio = cur[key] / base[key]
print(f"    tracing-on {cur[key]:,} ev/s vs baseline {base[key]:,} "
      f"({ratio:.2f}x), tracing-off {cur['events_per_sec_tracing_off']:,} ev/s")
fail = []
# Coarse tripwire: the shared container's run-to-run noise is ~±19%,
# so only a drop past 30% is treated as a regression.
if ratio < 0.70:
    fail.append(f"{key} dropped >30% below baseline")
# Telemetry overhead tripwire: the paired-median estimator converges to
# ~±4% on this host, so a reading at or past 5% means the record path
# grew real work (ISSUE budget: <2% measured, <5% enforced).
overhead = cur["telemetry_overhead_pct"]
print(f"    telemetry overhead {overhead:+.2f}% "
      f"(off {cur['events_per_sec_telemetry_off']:,} ev/s, "
      f"on {cur['events_per_sec_telemetry_on']:,} ev/s)")
if overhead >= 5.0:
    fail.append(f"telemetry overhead {overhead:.2f}% >= 5%")
# The wheel-vs-heap tripwire is paired and in-process (both engines run
# the same trajectory back-to-back), so it is far less noisy than the
# end-to-end cells: the wheel must stay decisively ahead of the heap
# reference. Measured ~3.8x on this host; 2.0 allows for noise.
speedup = cur["wheel_speedup_vs_heap"]
print(f"    scheduler wheel vs heap {speedup:.2f}x (paired median)")
if speedup < 2.0:
    fail.append(f"wheel_speedup_vs_heap {speedup:.2f}x < 2.0x")
for msg in fail:
    print(f"bench_tcpsim: {msg}", file=sys.stderr)
sys.exit(1 if fail else 0)
EOF

echo "==> bench artifact schema check (BENCH_*.json and baselines)"
python3 - <<'EOF'
import json, sys

NUM, STR, LST, OBJ = (int, float), str, list, dict
SCHEMAS = {
    "BENCH_tcpsim": {
        "bench": STR, "mode": STR, "repeats": NUM,
        "events_per_sec_tracing_off": NUM, "events_per_sec_tracing_on": NUM,
        "recorded_pkts_per_sec": NUM,
        "events_per_sec_telemetry_off": NUM, "events_per_sec_telemetry_on": NUM,
        "telemetry_overhead_pct": NUM,
        "wheel_speedup_vs_heap": NUM, "cells": LST,
    },
    "BENCH_overload": {
        "binary": STR, "trigger_start_ms": NUM, "trigger_end_ms": NUM,
        "queries_per_arm": NUM,
        "pre_goodput_naive": NUM, "trigger_goodput_naive": NUM,
        "post_goodput_naive": NUM,
        "pre_goodput_budgeted": NUM, "trigger_goodput_budgeted": NUM,
        "post_goodput_budgeted": NUM,
        "recovery_ratio_naive": NUM, "recovery_ratio_budgeted": NUM,
    },
    "BENCH_temapping": {
        "binary": STR, "queries_per_cell": NUM, "intensity_gaps_ms": LST,
        "strategies": LST, "p95_calm_ms": LST, "p95_busy_ms": LST,
        "p95_flash_ms": LST, "flash_remap_events": NUM,
        "flash_fe_demand_hiwater": NUM,
    },
    "BENCH_popularity": {
        "binary": STR, "catalog": NUM, "trace_lookups": NUM,
        "capacity_bytes": NUM, "churn_levels": LST,
        "hit_lru": LST, "hit_lfu": LST, "hit_ttl": LST,
        "crossover_churn": NUM,
        "e2e_sessions": NUM, "e2e_lru_hits": NUM, "e2e_lru_evictions": NUM,
        "sessions_base": NUM, "sessions_10x": NUM,
        "peak_retained_base_bytes": NUM, "peak_retained_10x_bytes": NUM,
        "retained_growth_factor": NUM,
        "peak_pending_base": NUM, "peak_pending_10x": NUM,
        "pending_growth_factor": NUM,
    },
}
# Every bench_tcpsim cell carries its best wall with the median and IQR
# of its repeats.
TCPSIM_CELL = {
    "workload": STR, "events": NUM, "recorded_pkts": NUM,
    "wall_ms": NUM, "wall_ms_median": NUM, "wall_ms_iqr": NUM,
    "events_per_sec": NUM, "recorded_pkts_per_sec": NUM,
}

def check(where, doc, schema):
    for k, ty in schema.items():
        if k not in doc:
            fail.append(f"{where}: missing required key {k!r}")
        elif not isinstance(doc[k], ty) or isinstance(doc[k], bool):
            fail.append(f"{where}: key {k!r} has type "
                        f"{type(doc[k]).__name__}, want {ty}")

fail = []
for stem, schema in SCHEMAS.items():
    for path in (f"{stem}.json", f"{stem}.baseline.json"):
        try:
            doc = json.load(open(path))
        except Exception as e:
            fail.append(f"{path}: unreadable ({e})")
            continue
        check(path, doc, schema)
        if stem == "BENCH_tcpsim" and isinstance(doc.get("cells"), list):
            for i, cell in enumerate(doc["cells"]):
                if isinstance(cell, dict):
                    check(f"{path}: cells[{i}]", cell, TCPSIM_CELL)
                else:
                    fail.append(f"{path}: cells[{i}] is not an object")

# The merged telemetry artifact (written by the exp_whatif smoke above):
# a flat object of metrics, each an object with a known kind and numeric
# fields only.
try:
    doc = json.load(open("BENCH_metrics.json"))
    if not isinstance(doc, dict):
        fail.append("BENCH_metrics.json: top level is not an object")
    else:
        for name, m in doc.items():
            if not isinstance(m, dict) or m.get("kind") not in ("counter", "gauge", "hist"):
                fail.append(f"BENCH_metrics.json: {name!r} has bad kind")
                continue
            for k, v in m.items():
                if k != "kind" and (isinstance(v, bool) or not isinstance(v, (int, float))):
                    fail.append(f"BENCH_metrics.json: {name}.{k} is not numeric")
except Exception as e:
    fail.append(f"BENCH_metrics.json: unreadable ({e})")

for msg in fail:
    print(f"schema: {msg}", file=sys.stderr)
if not fail:
    n = len(SCHEMAS) * 2 + 1
    print(f"    {n} artifacts conform")
sys.exit(1 if fail else 0)
EOF

echo "CI OK"
