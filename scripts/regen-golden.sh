#!/bin/sh
# Regenerates tests/golden/search_outcome.json,
# tests/golden/search_trace.json and tests/golden/fleet_outcome.json from
# the frozen golden recipes in tests/src/lib.rs. Run this after an
# intentional behaviour change invalidates the golden-snapshot,
# trace-determinism or sharded-equivalence suite, then
# commit the updated snapshots alongside the change that caused it.
set -eu

cd "$(dirname "$0")/.."

cargo test -q --offline -p muffin-integration-tests --test golden_snapshot \
    -- --ignored regenerate_golden_snapshot

echo "regen-golden: tests/golden/search_outcome.json, search_trace.json and fleet_outcome.json refreshed"
