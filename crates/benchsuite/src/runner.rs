//! Shared benchmark-runner infrastructure: variants, measurements, and
//! helpers used by every application module and the figure harnesses.

use phloem_compiler::{
    compile_static, decouple_with_cuts, CompileError, CompileOptions, PassConfig,
};
use phloem_ir::{ArrayId, Function, MemState, Pipeline, StageProgram, Trap, Value};
use pipette_sim::{MachineConfig, RunStats, Session, TraceSink};
use serde::{Deserialize, Serialize};

/// Which program variant to run (the four bars of Fig. 9).
#[derive(Clone, Debug, PartialEq)]
pub enum Variant {
    /// The original serial code on one thread.
    Serial,
    /// A competitive data-parallel implementation on `usize` threads.
    DataParallel(usize),
    /// Phloem-generated pipeline with the given passes; `stages` caps the
    /// compute-stage count (cost-model cuts) unless `cuts` pins them.
    Phloem {
        /// Pass ablation switches.
        passes: PassConfig,
        /// Requested stage count for the static cost model.
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
#[derive(Clone, Debug, Serialize, Deserialize)]
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
            let opts = compile_options(cfg, *passes);
            if cuts.is_empty() {
                compile_static(&kernel(), *stages, &opts)
            } else {
                decouple_with_cuts(&kernel(), cuts, &opts)
            }
        }
        Variant::Manual => Ok(manual()),
    }
}

/// What [`measure`] hands back: the measurement with the final memory
/// (for the app's oracle check), or the trap; plus the trace sink, if
/// one was installed — returned even when the run traps, so callers can
/// inspect the partial trace of a failed run.
pub type Measured = (
    Result<(Measurement, MemState), Trap>,
    Option<Box<dyn TraceSink>>,
);

/// Runs `body` on a fresh session over `mem`, observed by `sink` if one
/// is given, and folds the session into a [`Measurement`].
pub fn measure(
    variant: String,
    input: &str,
    cfg: &MachineConfig,
    mem: MemState,
    sink: Option<Box<dyn TraceSink>>,
    body: impl FnOnce(&mut Session) -> Result<(), Trap>,
) -> Measured {
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
    let m = Measurement {
        variant,
        input: input.into(),
        cycles: stats.cycles,
        stats,
    };
    (Ok((m, mem)), sink)
}

/// Unwraps the sink half of a traced run.
pub fn with_sink<T>((r, sink): (T, Option<Box<dyn TraceSink>>)) -> (T, Box<dyn TraceSink>) {
    (r, sink.expect("sink was installed"))
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
    /// A fringe whose thread `t` segment starts at `t * stride`.
    pub fn strided(
        fringe: ArrayId,
        fringe_len: ArrayId,
        next: ArrayId,
        out_len: ArrayId,
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

    #[test]
    fn gmean_basics() {
        assert!((gmean([2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(gmean(Vec::<f64>::new()), 1.0);
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(Variant::Serial.label(), Variant::Manual.label());
        assert!(Variant::phloem().label().contains("phloem"));
    }
}
