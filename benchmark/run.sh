#!/usr/bin/env bash
# The one command of BENCHMARK.json: build the ledger and the worker
# binary offline, then run the ledger with the arguments given.
#
#   bash benchmark/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh compare A.jsonl B.jsonl
#
# It runs from the repository root whatever the caller's directory, so
# that every path the ledger writes stays inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
manifest=benchmark/Cargo.toml

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path "$manifest" \
    -p ledger -p dist-exec --bin ledger --bin rldt-worker >&2

exec "$CARGO_TARGET_DIR/release/ledger" "$@"
