#!/bin/sh
# Local CI: formatting, lints, tier-1 verify (ROADMAP.md), all offline.
# Usage: scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (deny warnings: broken or redundant intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> tier-1: cargo build --release"
cargo build --release --workspace --offline

echo "==> tier-1: cargo test -q"
cargo test --workspace -q --offline

echo "==> end-to-end benchmark tests (e2e_bench: public API it drives, traced == untraced digest)"
cargo test --release --offline --manifest-path e2e_bench/Cargo.toml

echo "==> end-to-end benchmark: one full-size run per workload passes its gate"
# The e2e_bench tests run Tiny-size campaigns. This runs each workload at
# the benchmark's full size, so its gate (the Eq. 1 share, google-like
# below bing-like threshold, the digest repeat, a defined p99) is checked
# here too: exit 0 and "correct": true on the last line. Peak RSS and
# setup time are printed for information only.
cargo build --release --offline --manifest-path e2e_bench/Cargo.toml
for w in fixed_fe sessions_churn faults_overload; do
  out="/tmp/ci_e2e_$w.txt"
  ./e2e_bench/target/release/e2e_bench --workload "$w" --seed 1 --seconds 1 --trace 0 \
    > "$out" 2> "/tmp/ci_e2e_$w.log" || {
    echo "e2e_bench $w exited $? (output in $out)" >&2; exit 1;
  }
  tail -n 1 "$out" | grep -q '^{"correct": true,' || {
    echo "e2e_bench $w: the last line of $out is not a correct result" >&2; exit 1;
  }
  echo "    $w correct; $(grep -E '^metric (peak_rss_mb|setup_s) ' "$out" \
    | sed 's/^metric //' | paste -sd ';' - | sed 's/;/, /')"
done

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

echo "==> source hygiene: no default-hashed maps in simulator crates"
# A std HashMap/HashSet seeds SipHash per process, so its iteration
# order changes from run to run. Simulator maps key through the seedless
# simcore::hash::HashMap instead (simcore/src/hash.rs, where the alias
# is defined, is the one exception). Test code is skipped: awk stops
# reading a file at its inline `mod tests {`, and `tests.rs` files are
# test-only modules.
hashed=$(find crates/simcore/src crates/tcpsim/src crates/cdnsim/src -name '*.rs' \
    ! -name tests.rs ! -path crates/simcore/src/hash.rs -print0 \
  | xargs -0 awk '/^mod tests \{/ { nextfile }
      /std::collections::(\{([^}]*[^A-Za-z0-9_])?)?Hash(Map|Set)([^A-Za-z0-9_]|$)/ {
        print FILENAME ":" FNR ": " $0
      }')
if [ -n "$hashed" ]; then
  echo "$hashed" >&2
  echo "std HashMap/HashSet in simulator crate code: use simcore::hash::HashMap" >&2
  exit 1
fi
echo "    simulator crates key every map through simcore::hash"

echo "==> source hygiene: every declared dependency is used"
# Each [dependencies] and [dev-dependencies] entry of the root package
# and of every workspace member must be referred to (`name::` or
# `use name`) by that crate's sources, tests, examples or benches. An
# unused entry still costs every build and misstates the crate graph.
python3 - <<'EOF'
import glob, os, re, sys, tomllib

def manifest(d):
    with open(os.path.join(d, "Cargo.toml"), "rb") as f:
        return tomllib.load(f)

root = manifest(".")
crates = ["."] + sorted(d for m in root["workspace"]["members"] for d in glob.glob(m))
unused = []
for d in crates:
    doc = manifest(d)
    text = ""
    for sub in ("src", "tests", "examples", "benches"):
        for path in sorted(glob.glob(os.path.join(d, sub, "**", "*.rs"), recursive=True)):
            with open(path) as f:
                text += f.read()
    for section in ("dependencies", "dev-dependencies"):
        for dep in doc.get(section, {}):
            name = re.escape(dep.replace("-", "_"))
            if not re.search(rf"(?<![\w:]){name}::|\buse {name}\b", text):
                unused.append(f"{doc['package']['name']} ({d}): [{section}] {dep}")
for u in unused:
    print(f"unused dependency: {u}", file=sys.stderr)
if unused:
    sys.exit(1)
print(f"    {len(crates)} packages use every dependency they declare")
EOF

echo "==> harness gate: every artefact passes its checks and matches its stdout golden"
# Each artefact gates its paper claims through its [PASS]/[FAIL] checks
# and the claims binary's exit status. Its stdout is compared with the
# golden that scripts/update_golden.sh wrote on one worker, so running on
# 4 workers here also pins thread invariance. Default seed (42) and scale
# (quick).
unset FECDN_SCALE FECDN_SEED
claims=./target/release/claims
artefacts=$("$claims" --list)
# Every artefact has a golden in the directory, and every golden there
# names an artefact.
check_goldens() {
  for a in $artefacts; do
    [ -f "$1/$a.tsv" ] || { echo "$a has no golden $1/$a.tsv" >&2; exit 1; }
  done
  for g in "$1"/*.tsv; do
    echo "$artefacts" | grep -qx "$(basename "$g" .tsv)" || {
      echo "golden $g has no artefact" >&2; exit 1;
    }
  done
}
golden=tests/golden/harness
check_goldens "$golden"
n=0
for a in $artefacts; do
  FECDN_THREADS=4 "$claims" "$a" > "/tmp/ci_$a.tsv" 2> "/tmp/ci_$a.log" || {
    echo "$a exited $? (checks in /tmp/ci_$a.log)" >&2; exit 1;
  }
  cmp "$golden/$a.tsv" "/tmp/ci_$a.tsv" || {
    echo "$a stdout differs from $golden/$a.tsv" >&2; exit 1;
  }
  n=$((n + 1))
done
echo "    $n artefacts exit 0 at FECDN_THREADS=4 and match their goldens"
grep -q "^run	metric	kind" /tmp/ci_exp_whatif.log || {
  echo "exp_whatif stderr is missing the metrics.tsv document" >&2; exit 1;
}
echo "    exp_whatif stderr carries the metrics.tsv document"

echo "==> claims binary: every bad invocation exits 2"
expect_exit_2() {
  status=0
  env "$@" > /dev/null 2>&1 || status=$?
  [ "$status" -eq 2 ] || { echo "'$*' exited $status, want 2" >&2; exit 1; }
}
expect_exit_2 "$claims"
expect_exit_2 "$claims" no_such_artefact
expect_exit_2 "$claims" fig5 fig6
expect_exit_2 FECDN_SCALE=bogus "$claims" fig5
expect_exit_2 FECDN_SEED=x "$claims" fig5
for bad in x -3 1.5; do
  expect_exit_2 FECDN_THREADS="$bad" "$claims" fig5
done
echo "    no argument, an unknown artefact, a second argument, a bad FECDN_SCALE, FECDN_SEED or FECDN_THREADS"

echo "==> paper scale: every artefact passes and matches its paper-scale golden"
# Paper scale runs larger designs than quick scale (more vantages,
# keywords and repeats), so it reaches inputs quick scale never does.
# One pass at seed 42 on 2 workers, ~45 s, most of it exp_popularity;
# scripts/update_golden.sh wrote the goldens on one worker.
golden=tests/golden/harness/paper
check_goldens "$golden"
n=0
passes=0
for a in $artefacts; do
  FECDN_SCALE=paper FECDN_SEED=42 FECDN_THREADS=2 "$claims" "$a" \
    > "/tmp/ci_paper_$a.tsv" 2> "/tmp/ci_paper_$a.log" || {
    echo "$a exited $? at paper scale (checks in /tmp/ci_paper_$a.log)" >&2; exit 1;
  }
  cmp "$golden/$a.tsv" "/tmp/ci_paper_$a.tsv" || {
    echo "$a paper-scale stdout differs from $golden/$a.tsv" >&2; exit 1;
  }
  passes=$((passes + $(grep -c '\[PASS\]' "/tmp/ci_paper_$a.log" || true)))
  n=$((n + 1))
done
echo "    $n artefacts exit 0 at paper scale and match their goldens, $passes [PASS] checks"

echo "==> examples: every example exits 0 and matches its stdout golden"
# The examples drive the public API end to end (scenarios, Datasets A
# and B, campaigns); tier-1 only compiles them. Their stdout is compared
# with the golden scripts/update_golden.sh wrote.
cargo build --release --offline --examples
golden=tests/golden/examples
n=0
for src in examples/*.rs; do
  ex=$(basename "$src" .rs)
  [ -f "$golden/$ex.txt" ] || { echo "example $ex has no golden $golden/$ex.txt" >&2; exit 1; }
  "./target/release/examples/$ex" > "/tmp/ci_example_$ex.txt" 2> "/tmp/ci_example_$ex.log" || {
    echo "example $ex exited $? (stderr in /tmp/ci_example_$ex.log)" >&2; exit 1;
  }
  cmp "$golden/$ex.txt" "/tmp/ci_example_$ex.txt" || {
    echo "example $ex stdout differs from $golden/$ex.txt" >&2; exit 1;
  }
  n=$((n + 1))
done
for g in "$golden"/*.txt; do
  ex=$(basename "$g" .txt)
  [ -f "examples/$ex.rs" ] || { echo "golden $g has no example" >&2; exit 1; }
done
echo "    $n examples exit 0 and match their goldens"

echo "==> packet hot-path throughput: bench_tcpsim (smoke mode)"
./target/release/bench_tcpsim --smoke --out /tmp/ci_bench_tcpsim.json \
  2> /tmp/ci_bench_tcpsim.log
python3 - <<'EOF'
import json, sys
cur = json.load(open("/tmp/ci_bench_tcpsim.json"))
base = json.load(open("BENCH_tcpsim.baseline.json"))
fail = []
# Coarse tripwire on the fixed workload's wall time: the sum of the best
# wall_ms over the tracing-on cells may not exceed the baseline's sum
# divided by 0.70. The shared container's run-to-run noise is ~±19%, so
# only a slowdown past that is treated as a regression. Gating on wall
# time, not events/s, keeps a change that removes events from the same
# transfers from reading as a slowdown.
def on_wall(doc):
    return sum(c["wall_ms"] for c in doc["cells"] if c.get("tracing") is True)
wall, base_wall = on_wall(cur), on_wall(base)
limit = base_wall / 0.70
key = "events_per_sec_tracing_on"
print(f"    tracing-on cells {wall:.3f} ms vs baseline {base_wall:.3f} ms "
      f"(limit {limit:.2f} ms); tracing-on {cur[key]:,} ev/s vs baseline "
      f"{base[key]:,}, tracing-off {cur['events_per_sec_tracing_off']:,} ev/s")
if not wall > 0:
    fail.append("no tracing-on cells in the smoke result")
elif wall > limit:
    fail.append(f"tracing-on wall {wall:.3f} ms > {limit:.2f} ms "
                f"(baseline {base_wall:.3f} ms / 0.70)")
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

echo "==> bench artifact schema check (bench_tcpsim smoke result and baseline)"
python3 - <<'EOF'
import json, sys

NUM, STR, LST = (int, float), str, list
SCHEMA = {
    "bench": STR, "mode": STR, "repeats": NUM,
    "events_per_sec_tracing_off": NUM, "events_per_sec_tracing_on": NUM,
    "recorded_pkts_per_sec": NUM,
    "events_per_sec_telemetry_off": NUM, "events_per_sec_telemetry_on": NUM,
    "telemetry_overhead_pct": NUM,
    "wheel_speedup_vs_heap": NUM, "cells": LST,
}
# Every bench_tcpsim cell carries its best wall with the median and IQR
# of its repeats.
CELL = {
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
paths = ("/tmp/ci_bench_tcpsim.json", "BENCH_tcpsim.baseline.json")
for path in paths:
    try:
        doc = json.load(open(path))
    except Exception as e:
        fail.append(f"{path}: unreadable ({e})")
        continue
    check(path, doc, SCHEMA)
    if isinstance(doc.get("cells"), list):
        for i, cell in enumerate(doc["cells"]):
            if isinstance(cell, dict):
                check(f"{path}: cells[{i}]", cell, CELL)
            else:
                fail.append(f"{path}: cells[{i}] is not an object")

for msg in fail:
    print(f"schema: {msg}", file=sys.stderr)
if not fail:
    print(f"    {len(paths)} artifacts conform")
sys.exit(1 if fail else 0)
EOF

echo "CI OK"
