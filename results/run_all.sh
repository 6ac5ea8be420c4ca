#!/bin/bash
# Runs every table and figure (`figures <name>`, one process each, so one
# that traps or crashes is recorded in the final `FAILED:` summary
# instead of aborting the sweep; the ALL_HARNESSES_DONE sentinel always
# prints when the loop itself completes). Writes results/<name>.txt
# (tracked; EXPERIMENTS.md cites them at the default SCALE=small) and
# results/<name>.log (stderr, ignored).
set -o pipefail
cd "$(dirname "$0")/.."
export SCALE="${SCALE:-small}"
# One host-parallelism knob for the whole sweep: every harness fans its
# per-candidate simulations over the phloem-pool fleet,
# sized by PHLOEM_WORKERS. JOBS=<n> overrides; results are bit-identical
# at any worker count.
JOBS="${JOBS:-$(nproc)}"
export PHLOEM_WORKERS="$JOBS"
echo "=== host jobs: $JOBS ==="
FAILED=()

run_harness() {
  local name=$1; shift
  echo "=== running $name ($(date +%H:%M:%S)) ==="
  if "$@" > "results/$name.txt" 2> "results/$name.log"; then
    echo "=== $name done (exit 0) ==="
  else
    local rc=$?
    FAILED+=("$name")
    echo "=== $name FAILED (exit $rc); see results/$name.log ==="
    tail -n 3 "results/$name.log" | sed 's/^/    /'
  fi
}

cargo build -q --release -p phloem-bench || { echo "build failed"; exit 1; }

echo "=== fault-injection smoke ==="
if ! cargo run -q --release -p phloem-bench --bin fuzzdiff -- --faults --smoke; then
  FAILED+=(fuzzdiff-faults)
fi

for f in tables fig6 fig12 fig13 fig9 fig14; do
  run_harness "$f" cargo run -q --release -p phloem-bench --bin figures -- "$f"
done
# Breakdown figures measure the whole Fig. 9 matrix again; tiny scale
# keeps the total runtime sane and the shapes are scale-insensitive.
for f in fig10 fig11; do
  run_harness "$f" env SCALE=tiny cargo run -q --release -p phloem-bench --bin figures -- "$f"
done

if [ ${#FAILED[@]} -gt 0 ]; then
  echo "FAILED: ${FAILED[*]}"
else
  echo "FAILED: none"
fi
echo ALL_HARNESSES_DONE
[ ${#FAILED[@]} -eq 0 ]
