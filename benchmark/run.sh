#!/usr/bin/env bash
# The performance ledger, one command (see benchmark/README.md):
#
#   benchmark/run.sh [--seed N] [--laps N] [--smoke]
#       every workload: laps of the release binary, one traced run each,
#       the correctness gate, every metric as `workload metric value unit`
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload for S seconds; the last stdout line is one JSON
#       object (the form BENCHMARK.json's `command` is run in)
#   benchmark/run.sh gen --seed N [--smoke]
#       only generate the inputs and print their digests
#
# Builds the repo's release binary and the harness first, from source,
# into $CARGO_TARGET_DIR (default: target/ at the repo root).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates" ]]; then
    echo "benchmark/run.sh: $root is not a netanom checkout (no Cargo.toml or crates/): nothing to measure" >&2
    exit 3
fi

# cargo resolves a relative CARGO_TARGET_DIR against its own working
# directory; pin it so the two builds below share one.
target="${CARGO_TARGET_DIR:-$root/target}"
[[ "$target" == /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target"

(cd "$root" && cargo build --release --offline --quiet -p netanom-cli) >&2
(cd "$here" && cargo build --release --offline --quiet) >&2

mode=all
for arg in "$@"; do
    [[ "$arg" == "--workload" ]] && mode=run
done
if [[ "${1:-}" == "gen" ]]; then
    mode=gen
    shift
fi

cd "$root"
exec "$target/release/ledger" "$mode" "$@" --bin "$target/release/netanom" --out "$here/out"
