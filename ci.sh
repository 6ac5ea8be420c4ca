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

echo "==> simspeed --smoke (cycle/atom equality + engine-ratio floor + throughput regression gate)"
# Besides the cycle/atom-equality asserts, the bytecode engine must stay
# 1.2x the tree engine or better per atom, and smoke mode gates the
# measured session throughput against the `session` row of the recorded
# BENCH_simspeed.json and fails on a >15% regression (skips with a note
# if the file is absent; fails if it is there without the row).
cargo run --release -q -p phloem-bench --bin simspeed -- --smoke

echo "==> trace-smoke (Perfetto schema + trace-vs-untraced cycle identity)"
cargo run --release -q -p phloem-bench --bin trace -- --smoke

echo "==> fuzzdiff --smoke (differential fuzzing, fixed seed)"
cargo run --release -q -p phloem-bench --bin fuzzdiff -- --smoke

echo "==> fuzzdiff --faults --smoke (fault injection: bounded, uncorrupted, deterministic outcomes)"
cargo run --release -q -p phloem-bench --bin fuzzdiff -- --faults --smoke

echo "==> fuzzdiff --native --smoke (generated genomes on real threads vs the serial oracle)"
# Every generated pipeline runs on all three channel backends at
# 1/2/4 worker threads, on the bytecode engine, against the tree
# engine's serial run; any divergence is delta-debugged to a minimal
# reproducer before the run fails.
cargo run --release -q -p phloem-bench --bin fuzzdiff -- --native --smoke

echo "==> native --smoke (native-backend wall clock: oracle-verified runs, host-gated overhead bound)"
# Every app runs as a pipeline on every channel at one thread per
# stage, one worker and nproc workers, against the serial kernel on
# one native worker, and verifies against its host oracle. On a
# multi-core host the best configuration that crosses threads (per
# stage or nproc; one worker is recorded, not gated) must reach 0.25x
# serial at every app; on a single-core host that gate is skipped
# (stage threads time-slice; flat-or-worse is physics).
SCALE=tiny cargo run --release -q -p phloem-bench --bin native -- --smoke

echo "==> chaos --smoke (deterministic fault injection against a live phloemd)"
# 8 fault shapes (severed connections, malformed/oversized input, slow
# partial writes, shutdown races, SIGKILL restart, snapshot corruption)
# x 3 seeds; every seed must pass. The full run uses 20 seeds. chaos
# spawns the phloemd next to it, which no earlier step builds.
cargo build --release -q -p phloem-service --bin phloemd
cargo run --release -q -p phloem-bench --bin chaos -- --smoke

echo "==> benchmark/run.sh --smoke (every BENCHMARK.json workload, short; metric names checked)"
bash benchmark/run.sh --smoke

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI OK"
