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

# The crates whose code runs inside every simulated world: the event
# core, the packet simulator, the network model it runs per packet, the
# back-end model and the service layer.
sim_srcs="crates/simcore/src crates/tcpsim/src crates/nettopo/src crates/searchbe/src crates/cdnsim/src"

echo "==> source hygiene: no wall clock or native sockets in simulator crates"
# Everything in the simulator crates must run on virtual time over
# simulated sockets; the only sanctioned wall-clock seam is the
# telemetry registry's observe-only wall spans (explicitly classed
# "wall" and excluded from deterministic artifacts).
if grep -rn -E 'std::net::|std::thread::sleep|Instant::now' $sim_srcs \
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
hashed=$(find $sim_srcs -name '*.rs' \
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
# `use name`, `-` read as `_`) by that crate's sources, tests, examples
# or benches. An unused entry still costs every build and misstates the
# crate graph.
members=$(awk '/^members *=/ { on = 1 }
    on { last = /\]/; sub(/^members *= */, ""); gsub(/[][",]/, " "); print; if (last) exit }' Cargo.toml)
n=0
unused=0
for d in . $members; do
  srcs=$(for sub in src tests examples benches; do
    [ ! -d "$d/$sub" ] || find "$d/$sub" -name '*.rs'
  done)
  # The manifest is read first: each dependency it declares becomes two
  # patterns, and the source lines read after it strike them off.
  awk -v dir="$d" '
    function declare(section, dep) {
      deps[++k] = dep; sect[k] = section
      gsub(/-/, "_", dep)
      qual[k] = "(^|[^A-Za-z0-9_:])" dep "::"
      imp[k] = "(^|[^A-Za-z0-9_])use " dep "([^A-Za-z0-9_]|$)"
    }
    FNR == NR {
      line = $0; sub(/^[ \t]+/, "", line)
      if (line ~ /^\[/) {
        section = line; sub(/#.*/, "", section); gsub(/[][ \t]/, "", section)
        if (section ~ /^(dev-)?dependencies\./) {
          split(section, part, "."); declare(part[1], part[2])
        }
      } else if (section == "package" && line ~ /^name *=/) {
        pkg = line; sub(/^name *= *"/, "", pkg); sub(/".*/, "", pkg)
      } else if (section ~ /^(dev-)?dependencies$/ && match(line, /^[A-Za-z0-9_-]+/)) {
        declare(section, substr(line, 1, RLENGTH))
      }
      next
    }
    { for (i = 1; i <= k; i++) if (!hit[i] && ($0 ~ qual[i] || $0 ~ imp[i])) hit[i] = 1 }
    END {
      for (i = 1; i <= k; i++) if (!hit[i]) {
        print "unused dependency: " pkg " (" dir "): [" sect[i] "] " deps[i]; bad = 1
      }
      exit bad
    }' "$d/Cargo.toml" $srcs >&2 || unused=1
  n=$((n + 1))
done
[ "$unused" -eq 0 ] || exit 1
echo "    $n packages use every dependency they declare"

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

echo "==> packet hot-path tripwires: bench_tcpsim"
# bench_tcpsim times the tcpsim hot path and decides its own tripwires:
# the tracing-on cells' best walls against its recorded baseline / 0.70,
# telemetry overhead below 5%, and the timing wheel at least 2.0x the
# heap reference. It prints one [PASS]/[FAIL] line each and exits 1 if
# one fails.
./target/release/bench_tcpsim || {
  echo "bench_tcpsim exited $? (a tripwire failed)" >&2; exit 1;
}

echo "CI OK"
