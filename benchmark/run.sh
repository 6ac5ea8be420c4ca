#!/usr/bin/env bash
# Builds the benchmark and phloemd, then runs the benchmark.
#
#   benchmark/run.sh                          every workload untraced, then traced; full report
#   benchmark/run.sh --runs 10 --out A.json   ten untraced runs per workload (seed, seed+1, ...), recorded
#   benchmark/run.sh --compare A.json B.json  two recordings, metric by metric against the bounds
#   benchmark/run.sh --smoke                  every workload short, names checked against BENCHMARK.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                             one run; the last line of stdout is its result
#
# Builds into the repository's target/ unless CARGO_TARGET_DIR says
# otherwise. Fails, printing no result, where the repository's crates
# are absent.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
manifest=benchmark/Cargo.toml
# The bench binary spawns the phloemd built next to it.
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
cargo build --release --offline --quiet --manifest-path "$manifest" -p phloem-service --bin phloemd >&2
exec "$CARGO_TARGET_DIR/release/phloem-benchmark" "$@"
