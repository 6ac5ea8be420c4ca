//! Shared benchmark-runner infrastructure: variants, measurements, and
//! helpers used by every application module and the figure harnesses.

use phloem_compiler::search::{CandidateProfile, ProfileOutcome};
use phloem_compiler::{
    compile_static, decouple_with_cuts, CompileError, CompileOptions, PassConfig,
};
use phloem_ir::{ArrayId, Function, MemState, Pipeline, StageProgram, Trap, Value};
use pipette_sim::{MachineConfig, RunStats, Session, StallKind, TraceSink};

/// Which program variant to run (the four bars of Fig. 9).
#[derive(Clone, Debug, PartialEq)]
pub enum Variant {
    /// The original serial code on one thread.
    Serial,
    /// A competitive data-parallel implementation on `usize` threads.
    DataParallel(usize),
    /// Phloem-generated pipeline with the given passes; `stages` caps the
    /// total stage count, compute and RA stages alike (the cost model's
    /// top `stages - 1` cuts), unless `cuts` pins them.
    Phloem {
        /// Pass ablation switches.
        passes: PassConfig,
        /// Requested stage count for the static cost model, RA stages
        /// included: BFS at 4 is 2 compute + 2 RA stages. Under a native
        /// backend with fewer workers the run compiles to fewer (see
        /// [`compile_fitted`]).
        stages: usize,
        /// Explicit cut loads (PGO mode); empty = static mode.
        cuts: Vec<phloem_ir::LoadId>,
    },
    /// The hand-optimized Pipette pipeline.
    Manual,
}

impl Variant {
    /// Default Phloem variant: all passes, 4-stage static compilation.
    pub fn phloem() -> Variant {
        Variant::Phloem {
            passes: PassConfig::all(),
            stages: 4,
            cuts: Vec::new(),
        }
    }

    /// Hardware threads the variant's kernels are partitioned across
    /// (sizes the per-thread output segments in each app's `build_mem`).
    pub fn threads(&self) -> usize {
        match self {
            Variant::DataParallel(t) => *t,
            _ => 1,
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            Variant::Serial => "serial".into(),
            Variant::DataParallel(t) => format!("data-parallel({t})"),
            Variant::Phloem { passes, cuts, .. } => {
                if cuts.is_empty() {
                    format!("phloem[{}]", passes.label())
                } else {
                    format!("phloem[{};{} cuts]", passes.label(), cuts.len())
                }
            }
            Variant::Manual => "manual".into(),
        }
    }
}

/// One measured run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Variant label.
    pub variant: String,
    /// Input name.
    pub input: String,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Full statistics (cycle breakdown, energy, cache counters).
    pub stats: RunStats,
}

impl Measurement {
    /// Speedup of this measurement relative to a baseline cycle count.
    pub fn speedup_over(&self, baseline_cycles: u64) -> f64 {
        baseline_cycles as f64 / self.cycles.max(1) as f64
    }
}

/// Compile options for a Phloem variant targeting `cfg`'s machine.
pub fn compile_options(cfg: &MachineConfig, passes: PassConfig) -> CompileOptions {
    CompileOptions {
        passes,
        smt_threads: cfg.smt_threads,
        max_queues: cfg.max_queues,
        max_ras: cfg.ras_per_core,
        start_core: 0,
    }
}

/// Static Phloem compilation of `kernel` into at most `stages` stages,
/// fitted to the ambient backend: where [`pipette_sim::BackendScope`]
/// names a backend with a [`stage_budget`] of `w` workers, at most `w`
/// stages, so no worker folds two. The cost model ranks its cuts best
/// first and [`compile_static`] keeps the top `stages - 1`, so fitting is
/// truncation: the dropped boundaries stay local variables, not queues.
/// Every static compile in the suite comes through here.
///
/// # Errors
/// Propagates [`compile_static`]'s errors.
///
/// [`stage_budget`]: pipette_sim::ExecBackend::stage_budget
pub fn compile_fitted(
    kernel: &Function,
    stages: usize,
    cfg: &MachineConfig,
    passes: PassConfig,
) -> Result<Pipeline, CompileError> {
    let budget = pipette_sim::BackendScope::current().and_then(|b| b.stage_budget());
    let stages = budget.map_or(stages, |w| stages.min(w));
    compile_static(kernel, stages, &compile_options(cfg, passes))
}

/// Builds the pipeline of one Fig. 9 variant from an app's three code
/// sources: its serial `kernel` (run as is, or compiled by Phloem), its
/// `dp_kernel(tid, threads)` partition, and its `manual` pipeline.
///
/// # Errors
/// Propagates compile errors from the Phloem variants.
pub fn variant_pipeline(
    variant: &Variant,
    cfg: &MachineConfig,
    kernel: impl Fn() -> Function,
    dp_kernel: impl Fn(usize, usize) -> Function,
    manual: impl Fn() -> Pipeline,
) -> Result<Pipeline, CompileError> {
    match variant {
        Variant::Serial => Ok(serial_pipeline(kernel())),
        Variant::DataParallel(t) => Ok(data_parallel_pipeline(
            (0..*t).map(|tid| dp_kernel(tid, *t)).collect(),
            cfg.smt_threads,
        )),
        Variant::Phloem {
            passes,
            stages,
            cuts,
        } => {
            if cuts.is_empty() {
                compile_fitted(&kernel(), *stages, cfg, *passes)
            } else {
                decouple_with_cuts(&kernel(), cuts, &compile_options(cfg, *passes))
            }
        }
        Variant::Manual => Ok(manual()),
    }
}

/// A trace sink handed to, and back from, a run.
pub type Sink = Box<dyn TraceSink>;
/// What a run hands back: the oracle-checked measurement or the trap,
/// and the sink if one was given (even when the run traps).
pub type Ran = (Result<Measurement, Trap>, Option<Sink>);

/// Runs `body` on a fresh session over `mem`, observed by `sink` if one
/// is given, folds the session into a [`Measurement`] and hands the
/// final memory to the app's oracle `check` with the variant label. A
/// failed check panics: the variant miscompiled. The sink comes back
/// even when the run traps, so callers can inspect the partial trace of
/// a failed run.
pub fn measure(
    variant: String,
    input: &str,
    cfg: &MachineConfig,
    mem: MemState,
    sink: Option<Sink>,
    body: impl FnOnce(&mut Session) -> Result<(), Trap>,
    check: impl FnOnce(&MemState, &str),
) -> Ran {
    let mut session = Session::new(cfg.clone(), mem);
    if let Some(s) = sink {
        session.set_trace(s);
    }
    let driven = body(&mut session);
    let sink = session.take_trace();
    if let Err(e) = driven {
        return (Err(e), sink);
    }
    let (mem, stats) = session.finish();
    check(&mem, &variant);
    let m = Measurement {
        variant,
        input: input.into(),
        cycles: stats.cycles,
        stats,
    };
    (Ok(m), sink)
}

/// Where a frontier app keeps its work list: a dense `fringe` the
/// kernels read `fringe_len[0]` entries of, and per-thread segments of
/// `next` (thread `t` writes `out_len[t]` entries from `starts[t]`) that
/// the host gathers into the next round's fringe.
pub struct Fringe {
    /// Dense current fringe.
    pub fringe: ArrayId,
    /// `fringe_len[0]` = current fringe length.
    pub fringe_len: ArrayId,
    /// Per-thread next-fringe segments.
    pub next: ArrayId,
    /// `out_len[t]` = entries thread `t` produced.
    pub out_len: ArrayId,
    /// Start of each thread's segment in `next`.
    pub starts: Vec<i64>,
}

impl Fringe {
    /// A fringe over `(fringe, fringe_len)` whose thread `t` segment of
    /// `(next, out_len)` starts at `t * stride`.
    pub fn strided(
        (fringe, fringe_len): (ArrayId, ArrayId),
        (next, out_len): (ArrayId, ArrayId),
        threads: usize,
        stride: usize,
    ) -> Fringe {
        Fringe {
            fringe,
            fringe_len,
            next,
            out_len,
            starts: (0..threads).map(|t| (t * stride) as i64).collect(),
        }
    }

    /// Makes `values` the current fringe; returns its length.
    pub fn fill(&self, mem: &mut MemState, values: impl IntoIterator<Item = Value>) -> i64 {
        let mut len = 0;
        for v in values {
            mem.store(self.fringe, len, v).unwrap();
            len += 1;
        }
        mem.store(self.fringe_len, 0, Value::I64(len)).unwrap();
        len
    }

    /// Host work between rounds (free — a pointer swap in the paper):
    /// gathers every thread's segment into the fringe.
    fn gather(&self, mem: &mut MemState) -> i64 {
        let mut next = Vec::new();
        for (t, &start) in self.starts.iter().enumerate() {
            let produced = mem.load(self.out_len, t as i64).unwrap();
            for k in 0..produced.as_i64().unwrap() {
                next.push(mem.load(self.next, start + k).unwrap());
            }
        }
        self.fill(mem, next)
    }
}

/// Runs `round(session, k)` for `k = 0, 1, ...` while the fringe (`len`
/// entries to begin with) is non-empty, gathering the next fringe after
/// each round, for at most `max_rounds` rounds. Returns whether the
/// fringe drained.
///
/// # Errors
/// Propagates the round body's traps.
pub fn run_rounds(
    session: &mut Session,
    fringe: &Fringe,
    mut len: i64,
    max_rounds: u64,
    mut round: impl FnMut(&mut Session, u64) -> Result<(), Trap>,
) -> Result<bool, Trap> {
    let len0 = Value::I64(len);
    session.mem_mut().store(fringe.fringe_len, 0, len0).unwrap();
    let mut rounds = 0;
    while len > 0 && rounds < max_rounds {
        round(session, rounds)?;
        len = fringe.gather(session.mem_mut());
        rounds += 1;
    }
    Ok(len == 0)
}

/// [`run_rounds`] for algorithms that run to a fixpoint: a fringe still
/// non-empty after `max_rounds` is a livelock.
///
/// # Errors
/// Propagates the round body's traps; `Trap::Livelock` naming `what` if
/// the fringe never drains.
pub fn run_to_fixpoint(
    session: &mut Session,
    fringe: &Fringe,
    len: i64,
    max_rounds: u64,
    what: &str,
    round: impl FnMut(&mut Session, u64) -> Result<(), Trap>,
) -> Result<(), Trap> {
    if run_rounds(session, fringe, len, max_rounds, round)? {
        return Ok(());
    }
    Err(Trap::Livelock {
        cycle: session.elapsed(),
        detail: format!("{what} did not converge after {max_rounds} rounds"),
    })
}

/// Runs `f` with the given execution backend ambient: every session the
/// closure constructs (all of the suite's `run()` entry points build
/// theirs internally) executes on that backend. With
/// [`pipette_sim::ExecBackend::Native`] the measured "cycles" are
/// wall-clock nanoseconds; final memory — and therefore every oracle
/// check inside the apps — is identical for correct pipelines.
pub fn with_backend<R>(backend: pipette_sim::ExecBackend, f: impl FnOnce() -> R) -> R {
    let _scope = pipette_sim::BackendScope::enter(backend);
    f()
}

/// Runs a measurement closure, converting both structured traps and
/// panics into a printable failure string.
///
/// Figure harnesses use this to record a failed variant as an annotated
/// entry (and fall back to the serial baseline) instead of aborting the
/// whole sweep.
pub fn run_guarded(
    label: &str,
    f: impl FnOnce() -> Result<Measurement, phloem_ir::Trap>,
) -> Result<Measurement, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(m)) => Ok(m),
        Ok(Err(trap)) => Err(format!("{label}: {trap}")),
        Err(payload) => Err(format!("{label}: panicked: {}", panic_text(&*payload))),
    }
}

/// What a PGO candidate's training runs mean: the one evaluation every
/// search uses (`phloem_bench::pgo_search` behind Figs. 9 and 13,
/// `phloemd`'s `search` op). `runs` yields one result per training
/// input, in order, and is consumed lazily: the first trap ends the
/// evaluation, so a failed candidate never pays for its remaining
/// inputs. A watchdog expiry (`CycleLimit`, `Livelock`) is `TimedOut`,
/// which the search retries once at a larger budget; any other trap is
/// `Trapped` with its message. Otherwise the outcome is the gmean of the
/// runs' cycles, and the candidate's stall profile is read from the
/// first run's own statistics: no run is repeated to learn it.
pub fn candidate_outcome(
    runs: impl IntoIterator<Item = Result<Measurement, Trap>>,
) -> (ProfileOutcome, Option<CandidateProfile>) {
    let mut cycles = Vec::new();
    let mut profile = None;
    for run in runs {
        match run {
            Ok(m) => {
                profile.get_or_insert_with(|| profile_from_stats(&m.stats));
                cycles.push(m.cycles as f64);
            }
            Err(Trap::CycleLimit { .. } | Trap::Livelock { .. }) => {
                return (ProfileOutcome::TimedOut, None)
            }
            Err(trap) => return (ProfileOutcome::Trapped(trap.to_string()), None),
        }
    }
    // One run is its own mean: `exp(ln c)` need not round-trip, and a
    // `search` answer prints `train_cycles` in full.
    let mean = match cycles[..] {
        [only] => only,
        _ => gmean(cycles),
    };
    (ProfileOutcome::Ok(mean), profile)
}

/// Builds a cycle-attribution profile from one run's statistics, to
/// [`CandidateProfile`]'s contract: the critical stage is the compute
/// stage bounding the makespan, utilization is the non-stalled share of
/// each stage's active window, and the dominant stall is the largest
/// stall class summed across all stages (the first on ties) — `"none"`
/// when nothing stalled.
fn profile_from_stats(stats: &RunStats) -> CandidateProfile {
    let critical = stats.critical_stage();
    let stage_utilization = stats
        .threads
        .iter()
        .map(|t| {
            let stalls = t.queue_stall_cycles + t.backend_stall_cycles + t.frontend_stall_cycles;
            let util = if t.finish_time == 0 {
                0.0
            } else {
                1.0 - (stalls.min(t.finish_time) as f64 / t.finish_time as f64)
            };
            (t.name.clone(), util)
        })
        .collect();
    let total = |kind| stats.threads.iter().map(|t| t.stall(kind)).sum();
    let dominant_stall = StallKind::dominant(total).to_string();
    CandidateProfile {
        critical_stage: critical.map(|t| t.name.clone()).unwrap_or_default(),
        stage_utilization,
        dominant_stall,
    }
}

/// The message of a caught panic payload.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "unknown panic".into())
}

/// Geometric mean of an iterator of positive values.
pub fn gmean(vals: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in vals {
        sum += v.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        return 1.0;
    }
    (sum / n as f64).exp()
}

/// Wraps a serial function as a one-stage pipeline.
pub fn serial_pipeline(func: Function) -> Pipeline {
    let mut p = Pipeline::new(format!("{}-serial", func.name));
    p.add_stage(StageProgram::plain(func), 0);
    p
}

/// Places `funcs` as independent data-parallel stages, `smt` per core.
pub fn data_parallel_pipeline(funcs: Vec<Function>, smt: usize) -> Pipeline {
    let mut p = Pipeline::new("data-parallel");
    for (i, f) in funcs.into_iter().enumerate() {
        p.add_stage(StageProgram::plain(f), i / smt);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_sim::ThreadStats;

    #[test]
    fn gmean_basics() {
        assert!((gmean([2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(gmean(Vec::<f64>::new()), 1.0);
    }

    #[test]
    fn profile_from_stats_picks_critical_and_dominant() {
        let stats = RunStats {
            threads: vec![
                ThreadStats {
                    name: "s0".into(),
                    finish_time: 100,
                    queue_full_stall_cycles: 30,
                    queue_stall_cycles: 30,
                    ..Default::default()
                },
                ThreadStats {
                    name: "s1".into(),
                    finish_time: 200,
                    backend_stall_cycles: 10,
                    ..Default::default()
                },
                // An RA helper drains last; it is never the critical
                // stage, and its stalls still count toward the class.
                ThreadStats {
                    name: "ra".into(),
                    is_ra: true,
                    finish_time: 210,
                    backend_stall_cycles: 25,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        let p = profile_from_stats(&stats);
        assert_eq!(p.critical_stage, "s1");
        assert_eq!(p.dominant_stall, "backend");
        assert!((p.stage_utilization[0].1 - 0.7).abs() < 1e-12);
        assert!((p.stage_utilization[1].1 - 0.95).abs() < 1e-12);

        let idle = RunStats {
            threads: vec![ThreadStats {
                name: "s0".into(),
                finish_time: 10,
                ..Default::default()
            }],
            ..Default::default()
        };
        assert_eq!(profile_from_stats(&idle).dominant_stall, "none");
    }

    /// The one trap -> outcome rule, and what a candidate's runs add up
    /// to: gmean cycles, the *first* run's profile, nothing after a trap.
    #[test]
    fn a_candidates_outcome_is_its_training_runs() {
        let ran = |cycles: u64, stage: &str| {
            let stats = RunStats {
                threads: vec![ThreadStats {
                    name: stage.into(),
                    finish_time: cycles,
                    ..Default::default()
                }],
                ..Default::default()
            };
            Ok(Measurement {
                variant: "v".into(),
                input: "i".into(),
                cycles,
                stats,
            })
        };
        let (outcome, profile) = candidate_outcome([ran(200, "first"), ran(800, "second")]);
        assert_eq!(outcome, ProfileOutcome::Ok(gmean([200.0, 800.0])));
        assert_eq!(profile.unwrap().critical_stage, "first");
        // A single run's cycles come back exactly, not through exp(ln).
        assert_eq!(
            candidate_outcome([ran(12_345_677, "s")]).0.cycles(),
            Some(12_345_677.0)
        );

        let expired = |trap| {
            let mut later = 0;
            let runs = [ran(100, "s"), Err(trap), ran(100, "s")];
            let out = candidate_outcome(runs.into_iter().inspect(|_| later += 1));
            assert_eq!(later, 2, "a run after the trap was evaluated");
            out
        };
        let cap = Trap::CycleLimit {
            cycle: 9,
            detail: "cap 8".into(),
        };
        assert_eq!(expired(cap), (ProfileOutcome::TimedOut, None));
        let (outcome, profile) = expired(Trap::DivByZero);
        assert_eq!(
            outcome,
            ProfileOutcome::Trapped(Trap::DivByZero.to_string())
        );
        assert!(profile.is_none());
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(Variant::Serial.label(), Variant::Manual.label());
        assert!(Variant::phloem().label().contains("phloem"));
    }
}
