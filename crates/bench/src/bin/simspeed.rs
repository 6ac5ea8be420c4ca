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
//! * **engine-isolated** — the serial BFS kernel driven against a
//!   unit-latency world on each interpreter, so host time is
//!   interpreter dispatch and little else (`FlatInterp`, the engine of
//!   the simulator and the native backend, against `StepInterp`, the
//!   oracle's; both execute identical atom sequences and flat must stay
//!   1.2x tree or better, both asserted);
//! * **world-isolated** — the same serial kernel through the full
//!   `Session`, so the gap to the engine-isolated flat row is the
//!   per-atom host cost of the timing model.
//!
//! Output: a summary on stdout and `BENCH_simspeed.json` in the current
//! directory. Set `SCALE=tiny|small|full` as usual; `REPS=<n>` (default
//! 3) controls how many timed repetitions each combination gets (the
//! best repetition is reported, minimizing host noise). With `--smoke`
//! (used by CI) the sweep is truncated to a handful of candidates, one
//! repetition, and no JSON is written — the cycle-equality and
//! atom-equality assertions still run.
//!
//! Noise policy: every timed section is best-of-reps, and the smoke
//! regression gate additionally runs **pool-quiesced** — it takes the
//! fleet-exclusion lock in `phloem-pool`, so no in-process
//! work-stealing fleet can run concurrently and steal host cycles from
//! the measurement. With `PHLOEM_PIN=1` the measuring thread is also
//! pinned to core 0, taking CPU migration off the table on multi-core
//! hosts. External load (shared-box neighbors, frequency scaling) is
//! handled by the gate's re-measure-before-failing protocol.

use std::time::Instant;

use phloem_bench::{header, machine, scale};
use phloem_benchsuite::{bfs, Variant};
use phloem_compiler::search::{enumerate_pipelines, SearchOptions};
use phloem_compiler::PassConfig;
use phloem_ir::ExecEngine;
use phloem_ir::{
    bind_params, compile, ArrayId, BinOp, BlockReason, BranchId, FlatInterp, LoadId, MemState,
    QueueId, StageExec, StageSpec, StepInterp, StepResult, Tid, Time, Trap, UopClass, Value, World,
};
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
    let v = Variant::Phloem {
        passes: PassConfig::all(),
        stages: 4,
        cuts: cuts.to_vec(),
    };
    let mut total = 0u64;
    for gi in graphs {
        let sink: Option<Box<dyn TraceSink>> = match trace {
            TraceMode::None => None,
            TraceMode::DisabledSink => Some(Box::new(NoopSink::disabled())),
            TraceMode::CountingSink => Some(Box::new(NoopSink::counting())),
            TraceMode::DigestSink => Some(Box::new(DigestSink::new())),
        };
        let m = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match sink {
            None => bfs::run(&v, &gi.graph, 0, cfg, gi.name),
            Some(sink) => bfs::run_traced(&v, &gi.graph, 0, cfg, gi.name, sink).0,
        }))
        .ok()?
        .ok()?;
        total += m.cycles;
    }
    Some(total)
}

/// One timed sweep of the whole PGO search workload: every candidate,
/// every training graph. Returns `(total simulated cycles, per-candidate
/// cycle totals)` — the latter is compared across rows to assert
/// bit-identical timing.
fn sweep(
    candidates: &[Vec<LoadId>],
    cfg: &MachineConfig,
    graphs: &[GraphInput],
    trace: TraceMode,
) -> (u64, Vec<Option<u64>>) {
    let mut per_candidate = Vec::with_capacity(candidates.len());
    let mut total = 0u64;
    for cuts in candidates {
        let c = profile_candidate(cuts, cfg, graphs, trace);
        total += c.unwrap_or(0);
        per_candidate.push(c);
    }
    (total, per_candidate)
}

struct Timed {
    label: &'static str,
    best_secs: f64,
    sim_cycles: u64,
    per_candidate: Vec<Option<u64>>,
}

impl Timed {
    fn mcps(&self) -> f64 {
        self.sim_cycles as f64 / 1e6 / self.best_secs
    }
}

fn time_sweep(
    label: &'static str,
    watchdog: WatchdogConfig,
    candidates: &[Vec<LoadId>],
    graphs: &[GraphInput],
    reps: usize,
    trace: TraceMode,
) -> Timed {
    let mut cfg = machine();
    cfg.watchdog = watchdog;
    // Warm-up (page cache, lazy allocations) outside the timed region.
    let _ = profile_candidate(&candidates[0], &cfg, graphs, trace);
    let mut best_secs = f64::INFINITY;
    let mut sim_cycles = 0;
    let mut per_candidate = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let (total, per) = sweep(candidates, &cfg, graphs, trace);
        let secs = t0.elapsed().as_secs_f64();
        if secs < best_secs {
            best_secs = secs;
        }
        sim_cycles = total;
        per_candidate = per;
    }
    Timed {
        label,
        best_secs,
        sim_cycles,
        per_candidate,
    }
}

/// Times the four tracing modes (no sink, disabled sink, null sink
/// on, digest sink), interleaved within each repetition so that
/// host-load drift cannot masquerade as tracing overhead. Returns the
/// modes in declaration order (best repetition kept for each) plus the
/// raw per-repetition wall times, one `[none, disabled, null, digest]`
/// row per repetition, for the paired overhead estimator.
fn time_trace_modes(
    candidates: &[Vec<LoadId>],
    graphs: &[GraphInput],
    reps: usize,
) -> ([Timed; 4], Vec<[f64; 4]>) {
    const MODES: [(&str, TraceMode); 4] = [
        ("session (rebaselined)", TraceMode::None),
        ("session, sink mask 0", TraceMode::DisabledSink),
        ("session, null sink on", TraceMode::CountingSink),
        ("session, digest sink", TraceMode::DigestSink),
    ];
    let cfg = machine();
    for (_, mode) in MODES {
        let _ = profile_candidate(&candidates[0], &cfg, graphs, mode);
    }
    let mut out = MODES.map(|(label, _)| Timed {
        label,
        best_secs: f64::INFINITY,
        sim_cycles: 0,
        per_candidate: Vec::new(),
    });
    let mut rep_secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut row = [0.0f64; 4];
        for (i, (_, mode)) in MODES.iter().enumerate() {
            let t0 = Instant::now();
            let (total, per) = sweep(candidates, &cfg, graphs, *mode);
            let secs = t0.elapsed().as_secs_f64();
            row[i] = secs;
            if secs < out[i].best_secs {
                out[i].best_secs = secs;
            }
            out[i].sim_cycles = total;
            out[i].per_candidate = per;
        }
        rep_secs.push(row);
    }
    (out, rep_secs)
}

// ---------------------------------------------------------------------
// Engine-isolated measurement: the same BFS kernel, serial, against a
// unit-latency world. Host time here is interpreter dispatch (plus the
// functional memory both engines share), so the flat/tree ratio
// measures the engine swap itself rather than the cycle-level model.
// ---------------------------------------------------------------------

/// A `World` that charges one time unit per atom and models nothing
/// else: functional memory, no cache hierarchy, no issue ports, no
/// queues (the serial kernel uses none). `atoms` counts World calls —
/// the same unit `ThreadStats` counts — so the engine-isolated and
/// world-isolated rows share one atom definition.
struct UnitWorld {
    mem: MemState,
    t: Time,
    atoms: u64,
}

impl World for UnitWorld {
    fn uop(&mut self, _tid: Tid, _c: UopClass, dep: Time) -> Time {
        self.t += 1;
        self.atoms += 1;
        self.t.max(dep + 1)
    }
    fn branch(&mut self, _tid: Tid, _s: BranchId, _tk: bool, ready: Time) -> Time {
        self.t += 1;
        self.atoms += 1;
        self.t.max(ready + 1)
    }
    fn load(&mut self, _tid: Tid, a: ArrayId, i: i64, _dep: Time) -> Result<(Value, Time), Trap> {
        let v = self.mem.load(a, i)?;
        self.t += 1;
        self.atoms += 1;
        Ok((v, self.t))
    }
    fn store(&mut self, _tid: Tid, a: ArrayId, i: i64, v: Value, _dep: Time) -> Result<Time, Trap> {
        self.mem.store(a, i, v)?;
        self.t += 1;
        self.atoms += 1;
        Ok(self.t)
    }
    fn atomic_rmw(
        &mut self,
        _tid: Tid,
        op: BinOp,
        a: ArrayId,
        i: i64,
        v: Value,
        _dep: Time,
    ) -> Result<(Value, Time), Trap> {
        let old = self.mem.load(a, i)?;
        let new = phloem_ir::eval_binop(op, old, v)?;
        self.mem.store(a, i, new)?;
        self.t += 1;
        self.atoms += 1;
        Ok((old, self.t))
    }
    fn try_enq(
        &mut self,
        _tid: Tid,
        _q: QueueId,
        _v: Value,
        _dep: Time,
    ) -> Result<Option<Time>, Trap> {
        Err(Trap::Malformed("no queues in the serial kernel".into()))
    }
    fn try_deq(
        &mut self,
        _tid: Tid,
        _q: QueueId,
        _dep: Time,
    ) -> Result<Option<(Value, Time)>, Trap> {
        Err(Trap::Malformed("no queues in the serial kernel".into()))
    }
    fn mem(&self) -> &MemState {
        &self.mem
    }
    fn mem_mut(&mut self) -> &mut MemState {
        &mut self.mem
    }
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

/// Runs full serial BFS (all rounds, host fringe swap between rounds)
/// over every training graph, `passes` times, on one engine; returns
/// total atoms executed (World calls, not interpreter steps — one step
/// of a compound instruction can issue several atoms).
fn interp_run(engine: ExecEngine, graphs: &[GraphInput], passes: usize) -> u64 {
    let f = bfs::kernel();
    let prog = compile(&f, &[]).expect("serial BFS kernel compiles");
    let mut atoms = 0u64;
    for _ in 0..passes {
        for gi in graphs {
            let (mem, arrays) = bfs::build_mem(&gi.graph, 0, 1);
            let mut w = UnitWorld {
                mem,
                t: 0,
                atoms: 0,
            };
            let mut len = 1i64;
            let mut cur_dist = 1i64;
            while len > 0 {
                w.mem.store(arrays.fringe_len, 0, Value::I64(len)).unwrap();
                let bound = bind_params(&f, &[("cur_dist", Value::I64(cur_dist))]);
                match engine {
                    ExecEngine::Tree => {
                        let mut it = StepInterp::new(
                            StageSpec {
                                func: &f,
                                handlers: &[],
                            },
                            Tid(0),
                            &bound,
                        );
                        drive(|n| it.run_slice(&mut w, n));
                    }
                    ExecEngine::Flat => {
                        let mut it = FlatInterp::new(&prog, Tid(0), &bound);
                        drive(|n| StageExec::run_slice(&mut it, &mut w, n));
                    }
                };
                let ol = w.mem.load(arrays.out_len, 0).unwrap().as_i64().unwrap();
                for k in 0..ol {
                    let v = w.mem.load(arrays.next_fringe, k).unwrap();
                    w.mem.store(arrays.fringe, k, v).unwrap();
                }
                len = ol;
                cur_dist += 1;
            }
            atoms += w.atoms;
        }
    }
    atoms
}

/// Drives one invocation to completion in scheduler-sized slices,
/// mirroring how the simulator's scheduler activates a stage.
fn drive(mut run_slice: impl FnMut(u32) -> Result<(u32, StepResult), Trap>) -> u64 {
    let mut steps = 0u64;
    loop {
        match run_slice(1024).expect("serial kernel cannot trap") {
            (n, StepResult::Blocked(BlockReason::Budget)) => steps += n as u64,
            (n, StepResult::Finished) => {
                steps += n as u64;
                return steps;
            }
            (_, r) => panic!("serial kernel cannot block: {r:?}"),
        }
    }
}

fn time_interp(
    engine: ExecEngine,
    graphs: &[GraphInput],
    passes: usize,
    reps: usize,
) -> InterpTimed {
    let _ = interp_run(engine, graphs, 1); // warm-up
    let mut best_secs = f64::INFINITY;
    let mut atoms = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        atoms = interp_run(engine, graphs, passes);
        best_secs = best_secs.min(t0.elapsed().as_secs_f64());
    }
    InterpTimed { best_secs, atoms }
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
    let mut best_secs = f64::INFINITY;
    let mut atoms = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        atoms = run_all(passes);
        best_secs = best_secs.min(t0.elapsed().as_secs_f64());
    }
    InterpTimed { best_secs, atoms }
}

/// CI regression gate (smoke mode only): compares the measured
/// session throughput against the last recorded
/// `BENCH_simspeed.json` and fails on a >15% regression. This host's
/// throughput drifts ~±10% on minute timescales (frequency scaling,
/// shared-box neighbors), so a dip below the floor triggers up to two
/// fresh re-measurements (`remeasure`) before failing — a transient
/// dip recovers, a real regression fails every time. Skips with a note
/// when no recording exists or it cannot be parsed, so a fresh
/// checkout is not blocked on running the full bench first.
///
/// The caller must invoke this inside [`phloem_pool::quiesced`]: the
/// re-measurements are only trustworthy when no in-process fleet is
/// competing for cores (quiescence makes self-inflicted load — e.g. a
/// harness that runs the gate while a search fleet is live —
/// structurally impossible; it cannot help against other processes,
/// which the re-measure protocol covers).
fn gate_against_recorded(measured_mcps: f64, mut remeasure: impl FnMut() -> f64) {
    const PATH: &str = "BENCH_simspeed.json";
    const MAX_REGRESSION: f64 = 0.15;
    let Ok(text) = std::fs::read_to_string(PATH) else {
        println!("  regression gate: {PATH} not found; skipped (run the full bench to record)");
        return;
    };
    // Hand-rolled extraction of `"session": { ... "mcycles_per_s": N }`
    // (no JSON crate in-tree; the bench itself writes this shape).
    let recorded = text
        .split("\"session\"")
        .nth(1)
        .and_then(|s| s.split("\"mcycles_per_s\":").nth(1))
        .and_then(|s| s.trim().split([',', '}']).next())
        .and_then(|s| s.trim().parse::<f64>().ok());
    let Some(recorded) = recorded else {
        println!("  regression gate: could not parse session from {PATH}; skipped");
        return;
    };
    let floor = recorded * (1.0 - MAX_REGRESSION);
    let mut measured = measured_mcps;
    for _ in 0..2 {
        if measured >= floor {
            break;
        }
        println!(
            "  regression gate: {measured:.1} Mcycles/s below floor {floor:.1}; \
             re-measuring (host-noise guard)"
        );
        measured = measured.max(remeasure());
    }
    println!(
        "  regression gate: measured {measured:.1} Mcycles/s, recorded {recorded:.1}, \
         floor {floor:.1}"
    );
    assert!(
        measured >= floor,
        "simspeed regression: session measured {measured:.1} Mcycles/s, \
         more than {:.0}% below the recorded {recorded:.1} in {PATH}",
        MAX_REGRESSION * 100.0
    );
}

/// Floor on `interp_speedup_flat_over_tree`; see the assertion.
const MIN_FLAT_OVER_TREE: f64 = 1.2;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps: usize = if smoke {
        1
    } else {
        std::env::var("REPS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(3)
            .max(1)
    };
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

    // Even in smoke mode the headline row gets three repetitions: it
    // feeds the CI regression gate, and one-rep numbers on a noisy host
    // would trip a 15% threshold spuriously.
    let session_reps = if smoke { 3 } else { reps };
    let session = time_sweep(
        "session",
        WatchdogConfig::default(),
        &candidates,
        &graphs,
        session_reps,
        TraceMode::None,
    );
    // Watchdog overhead: the same sweep with the watchdog fully
    // disabled. The checks run at round boundaries only, so the target
    // is well under 2% of host time.
    let session_wd_off = time_sweep(
        "session (watchdog off)",
        WatchdogConfig::off(),
        &candidates,
        &graphs,
        reps,
        TraceMode::None,
    );
    // Tracing overhead. The off-overhead comparison (no sink vs. a
    // disabled sink) is the CI-pinned number, so the four tracing
    // modes are timed *interleaved*, rep by rep, with at least five
    // repetitions even in smoke mode: host drift (frequency scaling,
    // neighbors on a shared box) then hits all four modes alike, and
    // the best-of-reps comparison converges on the true delta instead
    // of on whichever block ran during a quiet spell.
    let trace_reps = reps.max(5);
    let (modes, trace_rep_secs) = time_trace_modes(&candidates, &graphs, trace_reps);
    let [trace_base, trace_off, trace_null, trace_digest] = modes;

    for t in [
        &session_wd_off,
        &trace_base,
        &trace_off,
        &trace_null,
        &trace_digest,
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
        &trace_base,
        &trace_off,
        &trace_null,
        &trace_digest,
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
    assert!(
        tracing_off_overhead_pct < 1.0,
        "tracing-disabled overhead {tracing_off_overhead_pct:.2}% breaches the 1% budget"
    );
    // A `trace` request is its simulation plus this; hashing the events
    // as `Debug` text read >150% here.
    assert!(
        digest_sink_overhead_pct <= 15.0,
        "digest-sink overhead {digest_sink_overhead_pct:.2}% breaches the 15% budget"
    );

    // Engine-isolated: serial kernel, unit-latency world. More passes
    // than sweep reps so each timed run is long enough to be stable.
    let passes = if smoke { 1 } else { 20 };
    let interp_tree = time_interp(ExecEngine::Tree, &graphs, passes, reps);
    let interp_flat = time_interp(ExecEngine::Flat, &graphs, passes, reps);
    assert_eq!(
        interp_tree.atoms, interp_flat.atoms,
        "engines disagreed on the atom count of the serial kernel"
    );
    let interp_ratio = interp_tree.ns_per_atom() / interp_flat.ns_per_atom();
    header("Engine-isolated: serial BFS kernel, unit-latency world");
    println!(
        "  tree: {:>5.1} ns/atom   flat: {:>5.1} ns/atom   ({} atoms)",
        interp_tree.ns_per_atom(),
        interp_flat.ns_per_atom(),
        interp_tree.atoms
    );
    println!("  flat engine over tree, interpreter dispatch only  : {interp_ratio:.2}x");
    // The simulator and the native backend both run the flat engine on
    // the strength of this ratio. It read 1.26x before the engine's
    // integer fast path and reads 1.33-1.51x with it (six smoke runs on
    // the 2-core host); a change that takes it under 1.2x has undone the
    // fast path or tipped the dispatch loop's codegen, and says nothing
    // about either in any test.
    assert!(
        interp_ratio >= MIN_FLAT_OVER_TREE,
        "FlatInterp is only {interp_ratio:.2}x StepInterp per atom (floor {MIN_FLAT_OVER_TREE}x)"
    );

    // World-isolated: the same serial kernel and atom sequence through
    // the full timing model. ns/atom here minus interp_flat's is the
    // per-atom host cost of the cycle-accurate World.
    let world_flat = time_world_isolated(&graphs, passes, reps);
    assert_eq!(
        world_flat.atoms, interp_flat.atoms,
        "the full world disagreed with the unit world on the serial kernel's atom count"
    );
    let world_over_interp = world_flat.ns_per_atom() / interp_flat.ns_per_atom();
    header("World-isolated: same serial kernel, full timing model");
    println!(
        "  full world: {:>5.1} ns/atom   unit world: {:>5.1} ns/atom   ({} atoms)",
        world_flat.ns_per_atom(),
        interp_flat.ns_per_atom(),
        world_flat.atoms
    );
    println!("  timing-model cost over interpreter dispatch       : {world_over_interp:.2}x");

    if smoke {
        println!("  smoke mode: cycle and atom equality held; OK");
        // Quiesced: no in-process fleet may run while the gate (and its
        // noise-guard re-measurements) time the simulator. Optional
        // pinning (PHLOEM_PIN=1) removes CPU migration as a noise
        // source on multi-core hosts.
        phloem_pool::quiesced(|| {
            if phloem_pool::pinning_requested() {
                let pinned = phloem_pool::pin_to_core(0);
                println!("  regression gate: pin to core 0: {pinned}");
            }
            gate_against_recorded(session.mcps(), || {
                time_sweep(
                    "session (gate retry)",
                    WatchdogConfig::default(),
                    &candidates,
                    &graphs,
                    3,
                    TraceMode::None,
                )
                .mcps()
            });
        });
        return;
    }

    let sweep_json = |t: &Timed| {
        format!(
            "{{ \"wall_s\": {:.6}, \"mcycles_per_s\": {:.3} }}",
            t.best_secs,
            t.mcps()
        )
    };
    let interp_json = |t: &InterpTimed| {
        format!(
            "{{ \"wall_s\": {:.6}, \"ns_per_atom\": {:.3} }}",
            t.best_secs,
            t.ns_per_atom()
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"simspeed\",\n  \"workload\": \"BFS PGO search over training graphs\",\n  \"scale\": \"{:?}\",\n  \"candidates\": {},\n  \"reps\": {},\n  \"sim_cycles_total\": {},\n  \"session\": {},\n  \"interp_tree\": {},\n  \"interp_flat\": {},\n  \"interp_speedup_flat_over_tree\": {:.4},\n  \"session_world_isolated\": {},\n  \"world_over_interp_ratio\": {:.4},\n  \"session_watchdog_off\": {},\n  \"watchdog_overhead_pct\": {:.4},\n  \"session_trace_disabled\": {},\n  \"session_null_sink\": {},\n  \"session_digest_sink\": {},\n  \"tracing_off_overhead_pct\": {:.4},\n  \"tracing_null_sink_overhead_pct\": {:.4},\n  \"digest_sink_overhead_pct\": {:.4},\n  \"note\": \"session is the full sweep through Session. interp_speedup_flat_over_tree isolates the two interpreters (same kernel, unit-latency world, identical atom sequences): FlatInterp is the engine of the simulator and the native backend, StepInterp the serial oracle's; the bench fails under 1.2x. session_world_isolated drives the identical serial kernel and atom sequence through the full cycle-accurate Session, so world_over_interp_ratio (its ns/atom over interp_flat's) is the per-atom host cost of the timing model itself. In --smoke mode the bench additionally gates the measured session throughput against the value recorded here, failing on a >15 percent regression. watchdog_overhead_pct compares session against the same sweep with the watchdog disabled (target <2%); the interp_* rows bypass the scheduler entirely and so carry no watchdog checks by construction. tracing_off_overhead_pct compares a run with no trace sink against one with an installed sink whose interest mask is empty (every emit point reduces to one cached mask test; budget <1%, asserted); tracing_null_sink_overhead_pct is the same comparison against a sink subscribed to every event that discards them, isolating the emit-path cost from aggregation; digest_sink_overhead_pct is the same comparison against a DigestSink folding every event word-wise, the sink behind phloemd's trace op (budget 15%, asserted). The four tracing modes are timed interleaved within each repetition, and the reported ratio is the cleanest of best-of-reps and same-repetition pairings: the true cost is a constant, so host-load noise can only inflate a measured ratio.\"\n}}\n",
        scale(),
        candidates.len(),
        reps,
        session.sim_cycles,
        sweep_json(&session),
        interp_json(&interp_tree),
        interp_json(&interp_flat),
        interp_ratio,
        interp_json(&world_flat),
        world_over_interp,
        sweep_json(&session_wd_off),
        watchdog_overhead_pct,
        sweep_json(&trace_off),
        sweep_json(&trace_null),
        sweep_json(&trace_digest),
        tracing_off_overhead_pct,
        tracing_null_sink_overhead_pct,
        digest_sink_overhead_pct,
    );
    std::fs::write("BENCH_simspeed.json", &json).expect("write BENCH_simspeed.json");
    println!("  wrote BENCH_simspeed.json");
}
