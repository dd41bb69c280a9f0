#!/usr/bin/env bash
# Build the server under test and the benchmark from source, then run
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload estimate_rpc --seed 1 --seconds 36 --trace 0
#
# `all` in place of `--workload NAME` runs every workload in turn, each
# printing its metrics and result line; the exit status is nonzero if
# any run failed or got a wrong answer:
#
#   bash perfbench/run.sh all --seed 1 --seconds 36 --trace 0
#
# Both builds share CARGO_TARGET_DIR (default: target). Build output
# goes to stderr, so the last line of stdout stays the result.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p pmca-cli --bin slope-pmc >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --target-dir "$target" >&2
# Only a repository at this directory names the commit, never one above it.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_COMMIT="$commit"
bench=("$target/release/perfbench")
server=(--server-bin "$target/release/slope-pmc")
if [ "${1:-}" = all ]; then
    shift
    status=0
    for workload in estimate_rpc estimate_batch stream_ingest; do
        "${bench[@]}" --workload "$workload" "$@" "${server[@]}" || status=1
    done
    exit "$status"
fi
exec "${bench[@]}" "$@" "${server[@]}"
