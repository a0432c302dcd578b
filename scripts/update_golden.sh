#!/usr/bin/env bash
# Refreshes the committed golden campaign traces under tests/golden/.
#
# Run this only when an output change is *intentional* (simulator
# behaviour, seed derivation, or TSV format changed on purpose), then
# review the diff like any other code change.
#
# Each golden is rewritten by the one test that owns it. The invariance
# tests in the overload, cache_model, telemetry and mapping suites
# compare against the same files and never run with UPDATE_GOLDEN set.
set -euo pipefail
cd "$(dirname "$0")/.."

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
git --no-pager diff --stat -- tests/golden || true
