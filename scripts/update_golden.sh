#!/usr/bin/env bash
# Refreshes the committed goldens under tests/golden/: campaign traces,
# claims stdouts at both scales and example stdouts.
#
# Run this only when an output change is *intentional* (simulator
# behaviour, seed derivation, or TSV format changed on purpose), then
# review the diff like any other code change.
#
# Each campaign golden is rewritten by the one test that owns it. The
# invariance tests in the overload, cache_model, telemetry and mapping
# suites compare against the same files and never run with UPDATE_GOLDEN
# set. Each claims golden (tests/golden/harness/<artefact>.tsv, and
# paper/<artefact>.tsv at paper scale) is `claims <artefact>`'s stdout
# at the default seed on one worker; scripts/ci.sh compares it with a
# 4-worker (quick) or 2-worker (paper) run. Each example golden
# (tests/golden/examples/<name>.txt) is that example's stdout.
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
# tests/golden/harness/<artefact>.tsv (quick scale) and
# tests/golden/harness/paper/<artefact>.tsv (paper scale) for every
# artefact the claims binary lists. A run whose checks fail is not a
# golden.
cargo build --release --workspace --offline
mkdir -p tests/golden/harness/paper
for artefact in $(./target/release/claims --list); do
  for scale in quick paper; do
    out=tests/golden/harness/$artefact.tsv
    [ "$scale" = paper ] && out=tests/golden/harness/paper/$artefact.tsv
    log=/tmp/golden_${scale}_$artefact.log
    if ! FECDN_SCALE=$scale FECDN_THREADS=1 ./target/release/claims "$artefact" \
        > "/tmp/golden_${scale}_$artefact.tsv" 2> "$log"; then
      echo "$artefact exited non-zero at $scale scale; its golden is not rewritten (see $log)" >&2
      exit 1
    fi
    mv "/tmp/golden_${scale}_$artefact.tsv" "$out"
  done
done
# tests/golden/examples/<name>.txt for every example. A run that exits
# non-zero is not a golden.
cargo build --release --offline --examples
mkdir -p tests/golden/examples
for src in examples/*.rs; do
  ex=$(basename "$src" .rs)
  if ! "./target/release/examples/$ex" > "/tmp/golden_example_$ex.txt" 2> "/tmp/golden_example_$ex.log"; then
    echo "example $ex exited non-zero; its golden is not rewritten (see /tmp/golden_example_$ex.log)" >&2
    exit 1
  fi
  mv "/tmp/golden_example_$ex.txt" "tests/golden/examples/$ex.txt"
done
git --no-pager diff --stat -- tests/golden || true
