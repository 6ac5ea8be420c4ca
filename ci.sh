#!/usr/bin/env bash
# Repo CI gate. Run from the repo root; fails fast on the first error.
#
#   ./ci.sh            # build + test + lint + format check
#
# Tier-1 (must always pass): release build + default-package tests.
# The remaining steps hold the whole workspace to the same bar.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace --exclude phloem-suite -q"
# Every member crate's own tests, among them the figure harness
# (crates/bench/tests/figures_tiny.rs renders Tables I-V and Fig. 6 at
# SCALE=tiny against results/tiny/). The root package `phloem-suite` is
# excluded: its tests/*.rs files (native_equivalence, pool_determinism,
# golden_cycles, golden_ir, ...) and doctest are the step above, and
# `--workspace` alone would run them a second time.
cargo test --workspace --exclude phloem-suite -q

echo "==> simspeed --smoke (cycle/atom equality + tracing-overhead budgets)"
# Identical simulated cycles across the six session modes (watchdog
# on/off, four tracing modes), identical atom counts between the bare
# interpreter and the full timing world, and the two tracing budgets
# (mask-0 sink <= 1%, digest sink <= 15%), all measured interleaved
# inside the one process. It reads no recording and gates no absolute
# throughput: that is the paired parent/change comparison of
# `benchmark/run.sh --runs 10 --out ...` + `--compare` (DESIGN §4).
cargo run --release -q -p phloem-bench --bin simspeed -- --smoke

echo "==> trace-smoke (Perfetto schema + trace-vs-untraced cycle identity)"
cargo run --release -q -p phloem-bench --bin trace -- --smoke

echo "==> fuzzdiff --smoke (differential fuzzing, fixed seed)"
cargo run --release -q -p phloem-bench --bin fuzzdiff -- --smoke

echo "==> fuzzdiff --faults --smoke (fault injection: bounded, uncorrupted, deterministic outcomes)"
cargo run --release -q -p phloem-bench --bin fuzzdiff -- --faults --smoke

echo "==> fuzzdiff --native --smoke (generated genomes on real threads vs the serial oracle)"
# Every generated pipeline runs at 1/2/4 worker threads (every queue
# an SPSC ring), on the bytecode engine, against the tree engine's
# serial run; any divergence is delta-debugged to a minimal reproducer
# before the run fails.
cargo run --release -q -p phloem-bench --bin fuzzdiff -- --native --smoke

echo "==> native --smoke (native-backend wall clock: oracle-verified runs, host-gated overhead bound)"
# Every app runs as a pipeline at one thread per stage, one worker
# and nproc workers, against the serial kernel on
# one native worker, and verifies against its host oracle. On a
# multi-core host the best configuration that crosses threads (per
# stage or nproc; one worker is recorded, not gated) must reach 0.25x
# serial at every app; on a single-core host that gate is skipped
# (stage threads time-slice; flat-or-worse is physics). On every host
# each app's nproc cell must have run at most nproc stages: a static
# Phloem pipeline is fitted to its workers, never folded.
SCALE=tiny cargo run --release -q -p phloem-bench --bin native -- --smoke

echo "==> chaos --smoke (deterministic fault injection against a live phloemd)"
# 8 fault shapes (severed connections, malformed/oversized input, slow
# partial writes, shutdown races, SIGKILL restart, snapshot corruption)
# x 3 seeds; every seed must pass. The full run uses 20 seeds. chaos
# spawns the phloemd next to it, which no earlier step builds.
cargo build --release -q -p phloem-service --bin phloemd
cargo run --release -q -p phloem-bench --bin chaos -- --smoke

echo "==> benchmark/run.sh --smoke (every BENCHMARK.json workload, short; metric names checked; benchmark/ left as committed)"
bash benchmark/run.sh --smoke
# Only a benchmark-archetype PR may change benchmark/ or BENCHMARK.json,
# and building the benchmark must not do it either: a [dependencies]
# edit in a member crate silently rewrites benchmark/Cargo.lock.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    dirty="$(git status --porcelain -- benchmark BENCHMARK.json)"
    if [ -n "$dirty" ]; then
        echo "benchmark/ or BENCHMARK.json differs from HEAD:" >&2
        echo "$dirty" >&2
        exit 1
    fi
else
    echo "    (not a git checkout: benchmark/ cleanliness check skipped)"
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI OK"
