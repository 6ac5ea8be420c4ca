//! Host simulation throughput (`BENCH_simspeed.json`): simulated
//! megacycles per wall-clock second on the PGO search workload.
//!
//! The PGO search (Fig. 13) is the simulator's heaviest consumer — it
//! profiles every candidate pipeline over the training inputs — so it
//! is where simulator host-efficiency matters most. Three sections:
//!
//! * **session** — the full sweep through `Session`, plus the same
//!   sweep with the watchdog off and under the four tracing modes
//!   (each must reproduce the baseline's simulated cycles exactly);
//! * **engine-isolated** — the serial BFS kernel on `FlatInterp` (the
//!   engine of the simulator and the native backend) against
//!   `phloem_ir::FunctionalWorld`, which models no time at all, so host
//!   time is interpreter dispatch and little else;
//! * **world-isolated** — the same serial kernel through the full
//!   `Session`, so the gap to the engine-isolated row is the per-atom
//!   host cost of the timing model (both rows execute identical atom
//!   sequences, asserted).
//!
//! Output: a summary on stdout and `BENCH_simspeed.json` in the current
//! directory. Set `SCALE=tiny|small|full` as usual; `REPS=<n>` (default
//! 3) controls how many timed repetitions each combination gets (the
//! best repetition is reported, minimizing host noise). With `--smoke`
//! (used by CI) the sweep is truncated to a handful of candidates, one
//! repetition, and no JSON is written.
//!
//! What it gates, in both modes: identical simulated cycles across the
//! six session modes, identical atom counts between the two isolated
//! rows, and the two tracing budgets — all compared inside this one
//! process, interleaved. It gates no absolute throughput: whether a
//! change slowed the simulator is judged by `benchmark/run.sh` on the
//! parent and on the change, paired (DESIGN §4).

use std::time::Instant;

use phloem_bench::record::{self, num, Gate};
use phloem_bench::{app, header, machine, phloem_with_cuts, scale};
use phloem_benchsuite::apps::Input;
use phloem_benchsuite::{bfs, Variant};
use phloem_compiler::search::{enumerate_pipelines, SearchOptions};
use phloem_ir::{
    bind_params, compile, BlockReason, FlatInterp, FunctionalWorld, LoadId, StepResult, Tid, Value,
    World,
};
use phloem_service::Json;
use phloem_workloads::{training_graphs, GraphInput};
use pipette_sim::{DigestSink, MachineConfig, NoopSink, TraceSink, WatchdogConfig};

/// How each timed run engages the tracing layer.
#[derive(Clone, Copy, PartialEq)]
enum TraceMode {
    /// No sink installed (the `trace_mask` short-circuit never loads).
    None,
    /// A [`NoopSink`] with an empty interest mask: the sink is
    /// installed, but every emit point reduces to one cached mask test.
    /// This is the cost of *having* the tracing layer while it is off.
    DisabledSink,
    /// A [`NoopSink`] subscribed to every event: events are constructed
    /// and dispatched, then discarded. This isolates the emit-path cost
    /// from any real sink's aggregation work.
    CountingSink,
    /// A [`DigestSink`]: every event is folded into the stream digest,
    /// as `phloemd`'s `trace` op runs it. Its budget is asserted.
    DigestSink,
}

/// Profiles one candidate cut set over the training graphs; returns the
/// total simulated cycles, or `None` if the candidate fails to compile
/// or run (the search skips such candidates too).
fn profile_candidate(
    cuts: &[LoadId],
    cfg: &MachineConfig,
    graphs: &[GraphInput],
    trace: TraceMode,
) -> Option<u64> {
    let (bfs_app, v) = (app("BFS"), phloem_with_cuts(cuts));
    let mut total = 0u64;
    for gi in graphs {
        let sink: Option<Box<dyn TraceSink>> = match trace {
            TraceMode::None => None,
            TraceMode::DisabledSink => Some(Box::new(NoopSink::disabled())),
            TraceMode::CountingSink => Some(Box::new(NoopSink::counting())),
            TraceMode::DigestSink => Some(Box::new(DigestSink::new())),
        };
        let input = Input::Graph(&gi.graph);
        let run = || bfs_app.run(&v, input, cfg, gi.name, sink).0;
        let m = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .ok()?
            .ok()?;
        total += m.cycles;
    }
    Some(total)
}

struct Timed {
    label: &'static str,
    best_secs: f64,
    sim_cycles: u64,
    /// Cycle total per candidate, compared across rows to assert
    /// bit-identical timing.
    per_candidate: Vec<Option<u64>>,
}

impl Timed {
    fn mcps(&self) -> f64 {
        self.sim_cycles as f64 / 1e6 / self.best_secs
    }
}

/// One row of the session table: label, watchdog, tracing mode.
type Mode = (&'static str, WatchdogConfig, TraceMode);

/// Times sweeps of the whole PGO search workload — every candidate,
/// every training graph — once per mode, interleaved within each
/// repetition so that host-load drift hits the modes alike and cannot
/// masquerade as overhead. Returns the modes in order (best repetition
/// kept for each) plus the raw wall times, one row per repetition, for
/// the paired overhead estimator.
fn time_modes(
    modes: &[Mode],
    candidates: &[Vec<LoadId>],
    graphs: &[GraphInput],
    reps: usize,
) -> (Vec<Timed>, Vec<Vec<f64>>) {
    let mut out = Vec::new();
    let mut cfgs = Vec::new();
    for (label, watchdog, trace) in modes {
        let mut cfg = machine();
        cfg.watchdog = *watchdog;
        // Warm-up (page cache, lazy allocations) outside the timed region.
        let _ = profile_candidate(&candidates[0], &cfg, graphs, *trace);
        cfgs.push(cfg);
        out.push(Timed {
            label,
            best_secs: f64::INFINITY,
            sim_cycles: 0,
            per_candidate: Vec::new(),
        });
    }
    let mut rep_secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut row = Vec::with_capacity(modes.len());
        for ((timed, cfg), (_, _, trace)) in out.iter_mut().zip(&cfgs).zip(modes) {
            let t0 = Instant::now();
            let profile = |cuts: &Vec<LoadId>| profile_candidate(cuts, cfg, graphs, *trace);
            timed.per_candidate = candidates.iter().map(profile).collect();
            row.push(t0.elapsed().as_secs_f64());
            timed.best_secs = timed.best_secs.min(row[row.len() - 1]);
            timed.sim_cycles = timed.per_candidate.iter().flatten().sum();
        }
        rep_secs.push(row);
    }
    (out, rep_secs)
}

struct InterpTimed {
    best_secs: f64,
    atoms: u64,
}

impl InterpTimed {
    fn ns_per_atom(&self) -> f64 {
        self.best_secs * 1e9 / self.atoms as f64
    }
}

/// Engine-isolated: full serial BFS (all rounds, host fringe swap
/// between rounds) over every training graph, `passes` times, on
/// `FlatInterp` against a [`FunctionalWorld`] — functional memory, no
/// timing, so host time is interpreter dispatch. Returns total atoms
/// executed (World calls, not interpreter steps — one step of a compound
/// instruction can issue several atoms), the unit `ThreadStats` counts
/// in, so this row and the world-isolated one share one atom definition.
fn interp_run(graphs: &[GraphInput], passes: usize) -> u64 {
    let f = bfs::kernel();
    let prog = compile(&f, &[]).expect("serial BFS kernel compiles");
    let mut atoms = 0u64;
    for _ in 0..passes {
        for gi in graphs {
            let (mem, arrays) = bfs::build_mem(&gi.graph, 0, 1);
            let mut w = FunctionalWorld::new(mem, 0, 0, 1);
            let mut len = 1i64;
            let mut cur_dist = 1i64;
            while len > 0 {
                let mem = w.mem_mut();
                mem.store(arrays.fringe_len, 0, Value::I64(len)).unwrap();
                let bound = bind_params(&f, &[("cur_dist", Value::I64(cur_dist))]);
                drive(&mut FlatInterp::new(&prog, Tid(0), &bound), &mut w);
                let mem = w.mem_mut();
                let ol = mem.load(arrays.out_len, 0).unwrap().as_i64().unwrap();
                for k in 0..ol {
                    let v = mem.load(arrays.next_fringe, k).unwrap();
                    mem.store(arrays.fringe, k, v).unwrap();
                }
                len = ol;
                cur_dist += 1;
            }
            atoms += w.total_counts().total();
        }
    }
    atoms
}

/// Drives one invocation to completion in scheduler-sized slices,
/// mirroring how the simulator's scheduler activates a stage.
fn drive(it: &mut FlatInterp<'_>, w: &mut FunctionalWorld) {
    loop {
        match it.run_slice(w, 1024).expect("serial kernel cannot trap") {
            (_, StepResult::Blocked(BlockReason::Budget)) => {}
            (_, StepResult::Finished) => return,
            (_, r) => panic!("serial kernel cannot block: {r:?}"),
        }
    }
}

/// Best wall time of `reps` runs of `run`, which returns atoms executed.
fn best_of(reps: usize, mut run: impl FnMut() -> u64) -> InterpTimed {
    let (mut best_secs, mut atoms) = (f64::INFINITY, 0);
    for _ in 0..reps {
        let t0 = Instant::now();
        atoms = run();
        best_secs = best_secs.min(t0.elapsed().as_secs_f64());
    }
    InterpTimed { best_secs, atoms }
}

fn time_interp(graphs: &[GraphInput], passes: usize, reps: usize) -> InterpTimed {
    let _ = interp_run(graphs, 1); // warm-up
    best_of(reps, || interp_run(graphs, passes))
}

/// World-isolated: the *same* serial BFS kernel as the interp rows, but
/// driven through the full `Session` — cycle-accurate caches, issue
/// calendar, predictors, watchdog.
/// Both sides execute identical atom sequences (asserted in `main`), so
/// the gap between this row's ns/atom and `interp_flat`'s is the host
/// cost of the timing model itself, per atom.
fn time_world_isolated(graphs: &[GraphInput], passes: usize, reps: usize) -> InterpTimed {
    let cfg = machine();
    let run_all = |passes: usize| -> u64 {
        let mut atoms = 0u64;
        for _ in 0..passes {
            for gi in graphs {
                let m = bfs::run(&Variant::Serial, &gi.graph, 0, &cfg, gi.name)
                    .expect("serial BFS through the full world");
                atoms += m
                    .stats
                    .threads
                    .iter()
                    .map(|t| t.uops + t.branches + t.loads + t.stores + t.enqs + t.deqs)
                    .sum::<u64>();
            }
        }
        atoms
    };
    let _ = run_all(1); // warm-up
    best_of(reps, || run_all(passes))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { record::reps(3) };
    let kernel = bfs::kernel();
    let mut candidates: Vec<Vec<LoadId>> = enumerate_pipelines(&kernel, &SearchOptions::default())
        .into_iter()
        .map(|(cuts, _)| cuts)
        .collect();
    if smoke {
        candidates.truncate(6);
    }
    let graphs = training_graphs(scale());

    header("Sim throughput: BFS PGO search workload");
    println!(
        "  {} candidate pipelines x {} training graphs, {} reps each (best kept)",
        candidates.len(),
        graphs.len(),
        reps
    );

    let time_one = |label, watchdog| {
        let modes = [(label, watchdog, TraceMode::None)];
        time_modes(&modes, &candidates, &graphs, reps).0.remove(0)
    };
    let session = time_one("session", WatchdogConfig::default());
    // Watchdog overhead: the same sweep with the watchdog fully
    // disabled. The checks run at round boundaries only, so the target
    // is well under 2% of host time.
    let session_wd_off = time_one("session (watchdog off)", WatchdogConfig::off());
    // Tracing overhead. The off-overhead comparison (no sink vs. a
    // disabled sink) is the CI-pinned number, so the four tracing
    // modes are timed *interleaved*, rep by rep, with at least five
    // repetitions even in smoke mode: host drift (frequency scaling,
    // neighbors on a shared box) then hits all four modes alike, and
    // the best-of-reps comparison converges on the true delta instead
    // of on whichever block ran during a quiet spell.
    let trace_modes = [
        ("session (rebaselined)", TraceMode::None),
        ("session, sink mask 0", TraceMode::DisabledSink),
        ("session, null sink on", TraceMode::CountingSink),
        ("session, digest sink", TraceMode::DigestSink),
    ]
    .map(|(label, trace)| (label, WatchdogConfig::default(), trace));
    let (modes, trace_rep_secs) = time_modes(&trace_modes, &candidates, &graphs, reps.max(5));
    let [trace_base, trace_off, trace_null, trace_digest] = &modes[..] else {
        unreachable!("four modes in, four out");
    };

    for t in [
        &session_wd_off,
        trace_base,
        trace_off,
        trace_null,
        trace_digest,
    ] {
        assert_eq!(
            t.per_candidate, session.per_candidate,
            "{} disagreed with the baseline on simulated cycles",
            t.label
        );
    }

    for t in [
        &session,
        &session_wd_off,
        trace_base,
        trace_off,
        trace_null,
        trace_digest,
    ] {
        println!(
            "  {:<26}: {:>8.1} Mcycles/s  ({:.3} s, {} Mcycles)",
            t.label,
            t.mcps(),
            t.best_secs,
            t.sim_cycles / 1_000_000
        );
    }
    let watchdog_overhead_pct = (session_wd_off.mcps() / session.mcps() - 1.0).max(0.0) * 100.0;
    // Tracing overhead estimator. The true cost is a constant, so every
    // noise source only ever *inflates* a measured ratio; the cleanest
    // observation is therefore the smallest. Two views, take the lower:
    // best-of-reps against best-of-reps (filters independent per-sweep
    // noise), and the best *same-repetition* pairing (filters host-load
    // drift that spans several adjacent sweeps — cgroup throttling
    // windows on a shared box routinely swallow a whole repetition and
    // would otherwise masquerade as multi-percent tracing overhead).
    let trace_overhead_pct = |col: usize| {
        let min_col = |c: usize| {
            trace_rep_secs
                .iter()
                .map(|r| r[c])
                .fold(f64::INFINITY, f64::min)
        };
        let best_of = min_col(col) / min_col(0);
        let paired = trace_rep_secs
            .iter()
            .map(|r| r[col] / r[0])
            .fold(f64::INFINITY, f64::min);
        (best_of.min(paired) - 1.0).max(0.0) * 100.0
    };
    let tracing_off_overhead_pct = trace_overhead_pct(1);
    let tracing_null_sink_overhead_pct = trace_overhead_pct(2);
    let digest_sink_overhead_pct = trace_overhead_pct(3);
    println!("  watchdog overhead (on vs off)                     : {watchdog_overhead_pct:.2}%");
    println!(
        "  tracing-disabled overhead (mask-0 sink vs no sink): {tracing_off_overhead_pct:.2}%"
    );
    println!("  null-sink overhead (all events built, discarded)  : {tracing_null_sink_overhead_pct:.2}%");
    println!(
        "  digest-sink overhead (every event hashed)         : {digest_sink_overhead_pct:.2}%"
    );
    println!("  (identical simulated cycles in every row)");
    // Budgets, in percent. A `trace` request is its simulation plus the
    // digest sink; hashing the events as `Debug` text read >150% here.
    let gates = [
        Gate::at_most(
            "tracing_off_overhead_pct",
            tracing_off_overhead_pct,
            1.0,
            true,
        )
        .enforce(),
        Gate::at_most(
            "digest_sink_overhead_pct",
            digest_sink_overhead_pct,
            15.0,
            true,
        )
        .enforce(),
    ];

    // Engine-isolated: serial kernel, functional world. More passes
    // than sweep reps so each timed run is long enough to be stable.
    let passes = if smoke { 1 } else { 20 };
    let interp_flat = time_interp(&graphs, passes, reps);
    header("Engine-isolated: serial BFS kernel, functional world");
    println!(
        "  flat: {:>5.1} ns/atom   ({} atoms)",
        interp_flat.ns_per_atom(),
        interp_flat.atoms
    );

    // World-isolated: the same serial kernel and atom sequence through
    // the full timing model. ns/atom here minus interp_flat's is the
    // per-atom host cost of the cycle-accurate World.
    let world_flat = time_world_isolated(&graphs, passes, reps);
    assert_eq!(
        world_flat.atoms, interp_flat.atoms,
        "the full world disagreed with the functional world on the serial kernel's atom count"
    );
    let world_over_interp = world_flat.ns_per_atom() / interp_flat.ns_per_atom();
    header("World-isolated: same serial kernel, full timing model");
    println!(
        "  full world: {:>5.1} ns/atom   functional world: {:>5.1} ns/atom   ({} atoms)",
        world_flat.ns_per_atom(),
        interp_flat.ns_per_atom(),
        world_flat.atoms
    );
    println!("  timing-model cost over interpreter dispatch       : {world_over_interp:.2}x");

    if smoke {
        println!("  smoke mode: cycle and atom equality held, tracing budgets met; OK");
        return;
    }

    let sweep = |name: &str, t: &Timed| {
        Json::obj([
            ("name", Json::str(name)),
            ("wall_s", num(t.best_secs, 6)),
            ("mcycles_per_s", num(t.mcps(), 3)),
        ])
    };
    let interp = |name: &str, t: &InterpTimed| {
        Json::obj([
            ("name", Json::str(name)),
            ("wall_s", num(t.best_secs, 6)),
            ("ns_per_atom", num(t.ns_per_atom(), 3)),
        ])
    };
    let ratio = |name: &str, v: f64| Json::obj([("name", Json::str(name)), ("value", num(v, 4))]);
    let workload = Json::obj([
        ("name", Json::str("workload")),
        ("what", Json::str("BFS PGO search over training graphs")),
        ("candidates", Json::u64(candidates.len() as u64)),
        ("sim_cycles_total", Json::u64(session.sim_cycles)),
    ]);
    let rows = [
        workload,
        sweep("session", &session),
        sweep("session_watchdog_off", &session_wd_off),
        sweep("session_trace_disabled", trace_off),
        sweep("session_null_sink", trace_null),
        sweep("session_digest_sink", trace_digest),
        interp("interp_flat", &interp_flat),
        interp("session_world_isolated", &world_flat),
        ratio("world_over_interp_ratio", world_over_interp),
        ratio("watchdog_overhead_pct", watchdog_overhead_pct),
        ratio(
            "tracing_null_sink_overhead_pct",
            tracing_null_sink_overhead_pct,
        ),
    ];
    record::write("simspeed", scale(), reps, &rows, &gates);
}
