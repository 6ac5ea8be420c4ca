//! Differential fuzzing of the Phloem compiler against the functional
//! oracle. The genome generator, per-genome exhaustive check, and
//! minimizer live in [`phloem_bench::fuzz`]; this binary is the CLI.
//!
//! Generates seeded random PhloemC-shaped loop nests (nested for/while,
//! indirect loads, filters, atomic RMWs, write-then-read hazards, early
//! breaks), compiles each at every cut subset of its top-ranked
//! decoupling points across the pass-ablation grid, runs every pipeline
//! that compiles on the timed machine, and compares its final memory
//! against [`phloem_ir::interp::run_serial`] (the correctness oracle).
//!
//! A successfully compiled pipeline that traps at runtime is also a
//! failure: the validator and `Pipeline::check` are supposed to reject
//! anything that cannot run.
//!
//! On a divergence the failing program is minimized automatically
//! (segments dropped, trip counts halved, loop shape simplified) and
//! printed as a ready-to-paste regression test body.
//!
//! Genome checks and fault plans fan out over the shared host
//! fleet (`phloem-pool`); the sweep's totals, failure list, and
//! per-plan outcomes are keyed by index, so the report is byte-identical
//! at every worker count.
//!
//! Usage:
//!
//! ```text
//! fuzzdiff                      # full run: 1000 programs, seed 1
//! fuzzdiff --smoke              # CI: 100 programs, fixed seed, <60 s
//! fuzzdiff --seed S --count N   # custom sweep
//! fuzzdiff --faults             # fault injection: 40 plans x 6 targets, each run twice
//! fuzzdiff --faults --smoke     # CI: 6 plans per target
//! fuzzdiff --native             # native backend vs oracle: 200 genomes,
//!                               # 1/2/4 worker threads, real OS threads
//! fuzzdiff --native --smoke     # CI: 25 genomes
//! ```
//!
//! Exits nonzero on any divergence.

use phloem_bench::fuzz::{
    check_native, fuzz_sweep, fuzz_sweep_with, minimize, minimize_with, render_failure, NATIVE_GRID,
};
use phloem_benchsuite::fault_targets::targets as fault_targets;
use phloem_ir::MemState;
use phloem_pool::Pool;
use pipette_sim::{FaultPlan, MachineConfig, Session, WatchdogConfig};

// ---------------------------------------------------------------------
// Fault-injection enforcement mode (`--faults`).
// ---------------------------------------------------------------------

/// Renders a faulted run's outcome as a canonical string: either the
/// final cycle count (with a memory check against the unfaulted
/// reference) or the structured trap.
fn faulted_outcome(
    target: &phloem_benchsuite::fault_targets::FaultTarget,
    plan: &FaultPlan,
    cfg: &MachineConfig,
    ref_mem: &MemState,
) -> String {
    let mut session = Session::new(cfg.clone(), target.mem.clone());
    session.set_faults(plan.clone());
    match session.run(&target.pipeline, &target.params) {
        Ok(_) => {
            let (mem, stats) = session.finish();
            if mem.same_contents(ref_mem) {
                format!("ok at cycle {}", stats.cycles)
            } else {
                // A fault plan that lets the run finish must not corrupt
                // the output: the only fault with a visible architectural
                // effect is a kill, and a fired kill always traps.
                format!("SILENT CORRUPTION at cycle {}", stats.cycles)
            }
        }
        Err(t) => format!("trap: {t}"),
    }
}

/// What one fault plan resolved to.
enum PlanVerdict {
    /// Both runs completed with the same clean outcome.
    Completed,
    /// Both runs trapped identically.
    Trapped,
    /// Nondeterminism or silent corruption: the rendered report.
    Failed(String),
}

/// Runs every fault target under `plans_per_target` seeded fault plans
/// and checks that every faulted run (a) terminates within the watchdog
/// budget, (b) never silently corrupts memory, and (c) is
/// deterministic: the same plan run twice resolves to the *same*
/// outcome string — same trap or same completion cycle. Plans fan out
/// over the pool; verdicts are reported in plan order, so the output is
/// worker-count-independent.
fn fault_mode(seed: u64, plans_per_target: u64, pool: &Pool) -> i32 {
    let base_cfg = MachineConfig::paper_1core();
    let start = std::time::Instant::now();
    let mut failures = 0u64;
    let mut plans = 0u64;
    let mut runs = 0u64;
    let mut trapped = 0u64;
    let mut completed = 0u64;
    for (ti, target) in fault_targets(&base_cfg).iter().enumerate() {
        // Unfaulted reference: cycles bound the fault horizons and the
        // watchdog budget; memory is the corruption oracle.
        let mut session = Session::new(base_cfg.clone(), target.mem.clone());
        if let Err(t) = session.run(&target.pipeline, &target.params) {
            println!("FAIL {}: unfaulted reference trapped: {t}", target.name);
            return 1;
        }
        let (ref_mem, ref_stats) = session.finish();
        let atom_horizon = ref_stats
            .threads
            .iter()
            .map(|t| t.uops + t.branches + t.loads + t.stores + t.enqs + t.deqs)
            .max()
            .unwrap_or(0);
        // Generous enough that only a genuine hang can hit it: latency
        // spikes add at most a few thousand cycles per fault.
        let mut cfg = base_cfg.clone();
        cfg.watchdog = WatchdogConfig {
            cycle_cap: ref_stats.cycles.saturating_mul(32) + 1_000_000,
            ..WatchdogConfig::default()
        };
        let verdicts = pool.run(plans_per_target as usize, |pi| {
            let plan_seed = seed ^ ((ti as u64 + 1) << 32) ^ (pi as u64 + 1);
            let plan = FaultPlan::random(
                plan_seed,
                target.pipeline.total_stages(),
                target.pipeline.num_queues as usize,
                ref_stats.cycles,
                atom_horizon,
            );
            let first = faulted_outcome(target, &plan, &cfg, &ref_mem);
            let again = faulted_outcome(target, &plan, &cfg, &ref_mem);
            if first != again || first.contains("SILENT CORRUPTION") {
                let mut report = format!(
                    "FAIL {} plan_seed={plan_seed:#x} ({} faults):\n",
                    target.name,
                    plan.faults.len()
                );
                for f in &plan.faults {
                    report.push_str(&format!("    {f:?}\n"));
                }
                report.push_str(&format!("    first run  -> {first}\n"));
                report.push_str(&format!("    second run -> {again}\n"));
                PlanVerdict::Failed(report)
            } else if first.starts_with("trap") {
                PlanVerdict::Trapped
            } else {
                PlanVerdict::Completed
            }
        });
        for v in verdicts {
            plans += 1;
            runs += 2;
            match v {
                Ok(PlanVerdict::Completed) => completed += 1,
                Ok(PlanVerdict::Trapped) => trapped += 1,
                Ok(PlanVerdict::Failed(report)) => {
                    failures += 1;
                    print!("{report}");
                }
                Err(panic) => {
                    failures += 1;
                    println!(
                        "FAIL {}: fault check panicked: {}",
                        target.name, panic.message
                    );
                }
            }
        }
        println!(
            "... {}: {plans_per_target} plans done ({} cycles unfaulted)",
            target.name, ref_stats.cycles
        );
    }
    println!(
        "fuzzdiff --faults: seed {seed:#x}: {plans} fault plans, {runs} runs, \
         {completed} completed clean, {trapped} trapped uniformly, {failures} failures ({:.1}s)",
        start.elapsed().as_secs_f64()
    );
    if failures == 0 {
        0
    } else {
        1
    }
}

// ---------------------------------------------------------------------

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| args.iter().any(|a| a == f);
    let val = |f: &str| {
        args.iter()
            .position(|a| a == f)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<u64>().ok())
    };
    let pool = Pool::new(phloem_pool::default_workers());
    if has("--faults") {
        let plans = if has("--smoke") {
            6
        } else {
            val("--count").unwrap_or(40)
        };
        std::process::exit(fault_mode(val("--seed").unwrap_or(0xFA17), plans, &pool));
    }
    if has("--native") {
        // Native-backend differential sweep: the same genome stream the
        // simulator sweep draws, but every pipeline runs on real OS
        // threads at every thread count of the grid and is diffed
        // against the serial oracle's memory (bytecode engine on the
        // threads, tree engine in the oracle).
        let (seed, count) = if has("--smoke") {
            (0xF00D, 25)
        } else {
            (val("--seed").unwrap_or(1), val("--count").unwrap_or(200))
        };
        let start = std::time::Instant::now();
        let progress = |k: u64| println!("... {k}/{count} programs done");
        let outcome = fuzz_sweep_with(seed, count, &pool, Some(&progress), check_native);
        for (_, g, why) in &outcome.failures {
            let (min_g, min_why) = minimize_with(g.clone(), why.clone(), check_native);
            println!("{}", render_failure(&min_g, &min_why));
        }
        println!(
            "[native, {} grid points] {} ({:.1}s, {} workers)",
            NATIVE_GRID.len(),
            outcome.summary(seed),
            start.elapsed().as_secs_f64(),
            pool.workers(),
        );
        std::process::exit(i32::from(!outcome.failures.is_empty()));
    }

    let (seed, count) = if has("--smoke") {
        (0xF00D, 100)
    } else {
        (val("--seed").unwrap_or(1), val("--count").unwrap_or(1000))
    };

    let start = std::time::Instant::now();
    let progress = |k: u64| println!("... {k}/{count} programs done");
    let outcome = fuzz_sweep(seed, count, &pool, Some(&progress));
    for (_, g, why) in &outcome.failures {
        let (min_g, min_why) = minimize(g.clone(), why.clone());
        println!("{}", render_failure(&min_g, &min_why));
    }
    println!(
        "{} ({:.1}s, {} workers)",
        outcome.summary(seed),
        start.elapsed().as_secs_f64(),
        pool.workers(),
    );
    if !outcome.failures.is_empty() {
        std::process::exit(1);
    }
}
