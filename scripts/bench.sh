#!/usr/bin/env bash
# Run the criterion benches and collect a JSON-lines baseline so future
# PRs get a performance trajectory.
#
# Usage:
#   scripts/bench.sh [baseline-name] [-- extra cargo-bench args]
#
# The baseline is written to target/criterion/<name>.jsonl (default
# name: "baseline"), one JSON object per benchmark:
#   {"id":"batch/detect_matrix_1008x121","median_ns":…,"mean_ns":…,…}
#
# Compare two baselines with e.g.:
#   join -t, <(sort a.jsonl) <(sort b.jsonl)   # or any JSON tooling

set -euo pipefail
cd "$(dirname "$0")/.."

name="${1:-baseline}"
shift || true
if [ "${1:-}" = "--" ]; then shift; fi

out="$(pwd)/target/criterion/${name}.jsonl"
mkdir -p target/criterion
rm -f "$out"

# Absolute path: cargo runs bench binaries from the package directory,
# not the workspace root.
export CRITERION_BASELINE_FILE="$out"
cargo bench -p netanom-bench "$@"

echo
echo "baseline written to $out:"
cat "$out"
