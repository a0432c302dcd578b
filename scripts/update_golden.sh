#!/usr/bin/env bash
# Refreshes the committed goldens under tests/golden/: campaign traces and
# harness binary stdouts.
#
# Run this only when an output change is *intentional* (simulator
# behaviour, seed derivation, or TSV format changed on purpose), then
# review the diff like any other code change.
#
# Each campaign golden is rewritten by the one test that owns it. The
# invariance tests in the overload, cache_model, telemetry and mapping
# suites compare against the same files and never run with UPDATE_GOLDEN
# set. Each harness golden (tests/golden/harness/<bin>.tsv) is that
# binary's stdout at the default seed and scale on one worker;
# scripts/ci.sh compares it with a 4-worker run.
set -euo pipefail
cd "$(dirname "$0")/.."
unset FECDN_SCALE FECDN_SEED

mkdir -p tests/golden
# campaign_seed42.tsv, campaign_seed7.tsv
UPDATE_GOLDEN=1 cargo test --offline --test determinism -- --exact --nocapture \
  golden_trace_seed42_matches golden_trace_seed7_matches
# campaign_churned_seed42.tsv
UPDATE_GOLDEN=1 cargo test --offline --test workload -- --exact --nocapture \
  churned_campaign_is_thread_invariant_and_matches_golden
# mapping_loadaware_flash.tsv
UPDATE_GOLDEN=1 cargo test --offline --test mapping -- --exact --nocapture \
  loadaware_flash_crowd_matches_golden
# tests/golden/harness/<bin>.tsv for every harness binary except the
# bench_tcpsim microbench. A run whose checks fail is not a golden.
cargo build --release --workspace --offline
mkdir -p tests/golden/harness
for src in crates/bench/src/bin/*.rs; do
  bin=$(basename "$src" .rs)
  [ "$bin" = bench_tcpsim ] && continue
  if ! FECDN_THREADS=1 "./target/release/$bin" > "/tmp/golden_$bin.tsv" 2> "/tmp/golden_$bin.log"; then
    echo "$bin exited non-zero; its golden is not rewritten (see /tmp/golden_$bin.log)" >&2
    exit 1
  fi
  mv "/tmp/golden_$bin.tsv" "tests/golden/harness/$bin.tsv"
done
git --no-pager diff --stat -- tests/golden || true
