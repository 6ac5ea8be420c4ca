//! Simulation sessions: pipeline invocation, statistics roll-up, and
//! energy accounting.
//!
//! The machine is split across three modules:
//!
//! * `crate::timing` — the cycle-level [`phloem_ir::World`]
//!   implementation (cores, caches, branch prediction, timed queues);
//! * `crate::queue` — hardware FIFO state and occupancy accounting;
//! * `crate::scheduler` — the event-driven SMT scheduler that drives
//!   the stage interpreters.
//!
//! This module owns the user-facing [`Session`]/[`Machine`] API.

use crate::cache::MemHierarchy;
use crate::config::MachineConfig;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::faults::FaultPlan;
use crate::native::{BackendScope, ExecBackend};
use crate::scheduler;
use crate::stats::RunStats;
use crate::timing::{build_flat_interps, compile_pipeline, AdvanceEvent, TimingWorld};
use crate::trace::{StageMeta, TraceMeta, TraceSink};
use phloem_ir::{MemState, Pipeline, StageKind, Time, Trap, Value};
use phloem_pool::CancelToken;
use std::cell::RefCell;

/// Per-thread step budget for timed runs.
pub const DEFAULT_BUDGET: u64 = 4_000_000_000;

thread_local! {
    /// Ambient cancellation stack for [`CancelScope`]: sessions created
    /// while a scope is live inherit its token without every caller in
    /// between having to thread one through (the benchsuite's `run()`
    /// entry points construct their own sessions internally).
    static AMBIENT_CANCEL: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard installing an ambient [`CancelToken`] for the current
/// thread: every [`Session`] *created* while the guard is live (and not
/// given an explicit token via [`Session::set_cancel`]) polls this token
/// at its watchdog window boundaries. Scopes nest; the innermost wins.
///
/// This is how the service layer cancels work that builds its sessions
/// several stack frames down (benchsuite runners, the PGO search): the
/// pool task enters a scope with the request's token and everything the
/// task constructs inherits it. The token is captured at session
/// *creation*, so a session outliving the scope keeps honouring it.
pub struct CancelScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl CancelScope {
    /// Installs `token` as the current thread's ambient cancel token
    /// until the returned guard drops.
    pub fn enter(token: CancelToken) -> CancelScope {
        AMBIENT_CANCEL.with(|s| s.borrow_mut().push(token));
        CancelScope {
            _not_send: std::marker::PhantomData,
        }
    }

    /// The innermost ambient token, if a scope is live on this thread.
    pub fn current() -> Option<CancelToken> {
        AMBIENT_CANCEL.with(|s| s.borrow().last().cloned())
    }
}

impl Drop for CancelScope {
    fn drop(&mut self) {
        AMBIENT_CANCEL.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// A pipeline's stage programs lowered to bytecode ahead of time.
///
/// [`Session::run`] lowers every stage program to bytecode on each
/// invocation. That cost is negligible for one-shot runs, but
/// host-driven algorithms invoke the same pipeline once per round (BFS
/// rounds, PageRank-Delta phases): compile once with
/// [`CompiledPipeline::new`] and invoke via [`Session::run_compiled`].
///
/// A `CompiledPipeline` is immutable after construction apart from the
/// monotonic validation cache below, so one artifact can be shared
/// across sessions and host threads behind an `Arc`: the *first*
/// invocation under a given machine's limits pays the O(pipeline)
/// pre-sim checks, and every later `run_compiled` against the same
/// limits skips them.
pub struct CompiledPipeline {
    progs: Vec<phloem_ir::BytecodeProgram>,
    /// Machine limits the pipeline has already passed the pre-sim checks
    /// against ([`Pipeline::check`] + `validate_pipeline` + the core
    /// budget). Set after the first invocation so per-round
    /// re-invocations skip the O(pipeline) validation walk — sound
    /// because `run_compiled` requires the same pipeline every call. A
    /// session with different limits misses the key and re-validates.
    validated: std::sync::OnceLock<ValidationKey>,
}

/// (max_queues, cores, smt_threads, ras_per_core) — every machine
/// parameter the pre-sim pipeline checks read.
type ValidationKey = (u16, usize, usize, usize);

impl CompiledPipeline {
    /// Lowers each stage program of `pipeline` to bytecode.
    ///
    /// # Errors
    /// Traps on malformed stage programs (see [`phloem_ir::compile`]).
    pub fn new(pipeline: &Pipeline) -> Result<CompiledPipeline, Trap> {
        Ok(CompiledPipeline {
            progs: compile_pipeline(pipeline)?,
            validated: std::sync::OnceLock::new(),
        })
    }
}

/// A persistent simulation session: cache state, memory, and accumulated
/// statistics survive across pipeline invocations, so host-driven
/// algorithms (BFS rounds, PageRank-Delta phases) are charged realistic
/// warm-cache behaviour plus a launch overhead per invocation.
pub struct Session {
    cfg: MachineConfig,
    emodel: EnergyModel,
    hier: MemHierarchy,
    mem: MemState,
    now: Time,
    stats: RunStats,
    /// Cores that hosted at least one mapped stage in any invocation;
    /// static energy is charged only for these (idle cores of a
    /// multicore config are power-gated, matching the paper's per-core
    /// accounting for the Fig. 11/14 replication experiments).
    active_cores: std::collections::BTreeSet<usize>,
    /// Injected faults applied to every subsequent invocation (see
    /// [`crate::faults`]); `None` keeps the timed hot path fault-free.
    faults: Option<FaultPlan>,
    /// Structured-event trace sink observing every subsequent invocation
    /// (see [`crate::trace`]); `None` keeps the timed hot path
    /// trace-free.
    trace: Option<Box<dyn TraceSink>>,
    /// Host-side cancellation token polled at watchdog window
    /// boundaries; captured from the ambient [`CancelScope`] at session
    /// creation unless [`Session::set_cancel`] overrides it.
    cancel: Option<CancelToken>,
    /// Execution substrate: the cycle-level simulator (default) or the
    /// native thread backend. Captured from the ambient [`BackendScope`]
    /// at creation unless [`Session::set_backend`] overrides it.
    backend: ExecBackend,
}

impl Session {
    /// Creates a session over `mem` with the given machine configuration.
    pub fn new(cfg: MachineConfig, mem: MemState) -> Session {
        let hier = MemHierarchy::new(&cfg);
        Session {
            cfg,
            emodel: EnergyModel::default(),
            hier,
            mem,
            now: 0,
            stats: RunStats::default(),
            active_cores: std::collections::BTreeSet::new(),
            faults: None,
            trace: None,
            cancel: CancelScope::current(),
            backend: BackendScope::current().unwrap_or(ExecBackend::Sim),
        }
    }

    /// Selects the execution substrate for subsequent invocations. The
    /// simulator predicts cycles; the native backend runs the pipeline
    /// on real OS threads and reports wall-clock nanoseconds in the
    /// cycle slot (final memory is identical for correct pipelines —
    /// `tests/native_equivalence.rs` pins this).
    pub fn set_backend(&mut self, backend: ExecBackend) {
        self.backend = backend;
    }

    /// The currently selected execution substrate.
    pub fn backend(&self) -> &ExecBackend {
        &self.backend
    }

    /// Installs a cancellation token checked at every watchdog window
    /// boundary of subsequent invocations: once it fires (wall-clock
    /// deadline or explicit cancel), the run stops with a structured
    /// [`Trap::Cancelled`] instead of running away. Cancellation is
    /// cycle-neutral — a token that never fires changes nothing, and a
    /// fired one stops the run *between* rounds, never mid-round.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Applies a fault plan to every subsequent invocation (fuzzing and
    /// robustness tests). Ordinal/cycle windows in the plan are relative
    /// to each invocation (queues are rebuilt per invocation and cycle
    /// windows are measured from the invocation's launch base). Faults
    /// act on the timing world only: under a native backend a non-empty
    /// plan makes every invocation fail with [`Trap::Malformed`].
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = if plan.is_empty() { None } else { Some(plan) };
    }

    /// Installs a trace sink observing every subsequent invocation. The
    /// sink sees `begin`/`end` per invocation plus every structured
    /// event whose interest bit it declares; tracing never changes a
    /// single simulated cycle (`tests/trace_oracle.rs` pins this).
    pub fn set_trace(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Removes and returns the installed trace sink (typically to
    /// downcast it and read what it collected).
    pub fn take_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Elapsed simulated cycles.
    pub fn elapsed(&self) -> Time {
        self.now
    }

    /// Current memory state.
    pub fn mem(&self) -> &MemState {
        &self.mem
    }

    /// Mutable memory (host-side work between invocations, e.g. swapping
    /// fringe buffers, is free — as in the paper, where it is negligible).
    pub fn mem_mut(&mut self) -> &mut MemState {
        &mut self.mem
    }

    /// Runs one pipeline invocation to completion; returns the cycles it
    /// took (including the launch overhead).
    ///
    /// # Errors
    /// Traps on malformed pipelines, runtime errors, or deadlock.
    pub fn run(&mut self, pipeline: &Pipeline, params: &[(&str, Value)]) -> Result<Time, Trap> {
        self.run_inner(pipeline, params, None)
    }

    /// Like [`Session::run`], reusing bytecode lowered ahead of time by
    /// [`CompiledPipeline::new`]. `compiled` must come from an identical
    /// pipeline.
    ///
    /// # Errors
    /// See [`Session::run`].
    pub fn run_compiled(
        &mut self,
        pipeline: &Pipeline,
        compiled: &CompiledPipeline,
        params: &[(&str, Value)],
    ) -> Result<Time, Trap> {
        self.run_inner(pipeline, params, Some(compiled))
    }

    fn run_inner(
        &mut self,
        pipeline: &Pipeline,
        params: &[(&str, Value)],
        compiled: Option<&CompiledPipeline>,
    ) -> Result<Time, Trap> {
        let limits: ValidationKey = (
            self.cfg.max_queues,
            self.cfg.cores,
            self.cfg.smt_threads,
            self.cfg.ras_per_core,
        );
        if compiled.is_none_or(|c| c.validated.get() != Some(&limits)) {
            // The queue budget is per core ("16 queues max"); replicated
            // pipelines get one set per core.
            pipeline.check(
                self.cfg.max_queues * self.cfg.cores as u16,
                self.cfg.smt_threads,
                self.cfg.ras_per_core,
            )?;
            if pipeline.cores_used() > self.cfg.cores {
                return Err(Trap::Malformed(format!(
                    "pipeline uses {} cores, machine has {}",
                    pipeline.cores_used(),
                    self.cfg.cores
                )));
            }
            // Queue-protocol validation before simulation: a malformed
            // pipeline should fail with a named invariant here, not as an
            // opaque deadlock or a silently wrong result.
            phloem_ir::validate_pipeline(
                pipeline,
                &phloem_ir::ValidateLimits {
                    queues_per_core: self.cfg.max_queues,
                },
                "pre-sim",
            )
            .map_err(|e| Trap::Malformed(e.to_string()))?;
            if let Some(c) = compiled {
                let _ = c.validated.set(limits);
            }
        }
        for s in &pipeline.stages {
            self.active_cores.insert(s.core);
        }
        let owned;
        let progs = match compiled {
            Some(c) => &c.progs,
            None => {
                owned = compile_pipeline(pipeline)?;
                &owned
            }
        };
        if let ExecBackend::Native(ncfg) = self.backend {
            // Native runs share the validation path and the bytecode
            // above (malformed pipelines fail identically on both
            // backends) and then bypass the timing world entirely:
            // stages execute on real threads, over rings sized for the
            // host, and "cycles" are wall-clock nanoseconds. Faults are
            // injected into the timing world, so a native run with a
            // plan would silently run fault-free.
            if self.faults.is_some() {
                return Err(Trap::Malformed(
                    "fault injection is simulator-only: a native run cannot apply a fault plan"
                        .into(),
                ));
            }
            let (run, trap) = crate::native::run_compiled(
                pipeline,
                progs,
                &self.mem,
                params,
                &ncfg,
                crate::native::ring_depth(self.cfg.queue_capacity),
                self.cancel.as_ref(),
            );
            if let Some(t) = trap {
                return Err(t);
            }
            let mut invocation = RunStats {
                cycles: self.now + run.wall_nanos,
                threads: Vec::with_capacity(pipeline.stages.len()),
                queues: Vec::new(),
                cache: self.hier.stats,
                energy: EnergyBreakdown::default(),
                invocations: 1,
            };
            for (s, c) in pipeline.stages.iter().zip(&run.counts) {
                invocation.threads.push(crate::stats::ThreadStats {
                    name: s.program.func.name.clone(),
                    is_ra: matches!(s.kind, StageKind::Ra(_)),
                    uops: c.uops,
                    branches: c.branches,
                    // An atomic RMW is one load and one store, as the
                    // timing world counts it.
                    loads: c.loads + c.atomics,
                    stores: c.stores + c.atomics,
                    enqs: c.enqs,
                    deqs: c.deqs,
                    finish_time: self.now + run.wall_nanos,
                    ..Default::default()
                });
            }
            self.stats.accumulate(&invocation);
            self.now += run.wall_nanos;
            return Ok(run.wall_nanos);
        }
        let base = self.now + self.cfg.launch_overhead;
        let nstages = pipeline.stages.len();

        if let Some(sink) = self.trace.as_deref_mut() {
            let nq = pipeline.num_queues.max(1) as usize;
            let meta = TraceMeta {
                pipeline: pipeline.name.clone(),
                base,
                stages: pipeline
                    .stages
                    .iter()
                    .map(|s| StageMeta {
                        name: s.program.func.name.clone(),
                        core: s.core,
                        is_ra: matches!(s.kind, StageKind::Ra(_)),
                    })
                    .collect(),
                queue_capacity: vec![self.cfg.queue_capacity; nq],
            };
            sink.begin(&meta);
        }
        let mut world = TimingWorld::new(
            &self.cfg,
            &mut self.hier,
            &self.mem,
            pipeline,
            base,
            self.faults.as_ref(),
            self.cancel.clone(),
            self.trace.as_deref_mut(),
        );
        let is_compute: Vec<bool> = pipeline
            .stages
            .iter()
            .map(|s| matches!(s.kind, StageKind::Compute))
            .collect();

        let mut interps = build_flat_interps(progs, pipeline, params, DEFAULT_BUDGET);
        let sched_result = scheduler::run(&mut world, &mut interps, &is_compute, pipeline);

        // Final advance (no verdict) plus the makespan: last completion
        // among the pipeline's threads.
        world.advance_to(AdvanceEvent::InvocationEnd);
        let end = world.frontier();
        let thread_states = std::mem::take(&mut world.threads);
        let queue_states = std::mem::take(&mut world.queues);
        drop(world);
        // Trapped invocations still close the trace (sinks flush open
        // spans at `end`); the trap itself is already in the stream as a
        // `Verdict` event when the watchdog or scheduler raised it.
        if let Some(sink) = self.trace.as_deref_mut() {
            sink.end(end);
        }
        sched_result?;

        // Fold per-thread stats into the session (positional by stage).
        let mut invocation = RunStats {
            cycles: end,
            threads: Vec::with_capacity(nstages),
            queues: queue_states.into_iter().map(|q| q.stats).collect(),
            cache: self.hier.stats,
            energy: EnergyBreakdown::default(),
            invocations: 1,
        };
        for mut th in thread_states {
            // Materialize the hot-state completion time into the
            // user-facing statistics.
            th.stats.finish_time = th.finish_time;
            invocation.threads.push(th.stats);
        }
        self.stats.accumulate(&invocation);
        self.now = end;
        Ok(end - (base - self.cfg.launch_overhead))
    }

    /// Finishes the session: computes energy and returns memory + stats.
    pub fn finish(mut self) -> (MemState, RunStats) {
        let m = &self.emodel;
        let mut e = EnergyBreakdown::default();
        for t in &self.stats.threads {
            let per_op = if t.is_ra { m.ra_pj } else { m.uop_pj };
            let ops = t.uops + t.loads + t.stores;
            e.core_dynamic_pj += ops as f64 * per_op;
            e.core_dynamic_pj += t.branches as f64 * m.branch_pj;
            e.core_dynamic_pj += t.mispredicts as f64 * m.mispredict_pj;
            e.core_dynamic_pj += (t.enqs + t.deqs) as f64 * m.queue_pj;
        }
        let c = &self.hier.stats;
        e.cache_pj += c.l1_hits as f64 * m.l1_pj;
        e.cache_pj += c.l2_hits as f64 * (m.l1_pj + m.l2_pj);
        e.cache_pj += c.l3_hits as f64 * (m.l1_pj + m.l2_pj + m.l3_pj);
        e.cache_pj += c.mem_accesses as f64 * (m.l1_pj + m.l2_pj + m.l3_pj);
        e.dram_pj += (c.mem_accesses + c.prefetches) as f64 * m.dram_pj;
        e.static_pj = self.now as f64 * self.active_cores.len() as f64 * m.static_core_pj_per_cycle;
        self.stats.energy = e;
        self.stats.cycles = self.now;
        self.stats.cache = self.hier.stats;
        (self.mem, self.stats)
    }

    /// Accumulated statistics so far (energy is filled in by
    /// [`Session::finish`]).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }
}

/// One-shot convenience runner.
pub struct Machine;

/// Result of [`Machine::run_once`].
#[derive(Debug)]
pub struct RunOutcome {
    /// Final memory.
    pub mem: MemState,
    /// Statistics (energy included).
    pub stats: RunStats,
}

impl Machine {
    /// Runs a single pipeline invocation on a fresh machine.
    ///
    /// # Errors
    /// See [`Session::run`].
    pub fn run_once(
        cfg: &MachineConfig,
        pipeline: &Pipeline,
        mem: MemState,
        params: &[(&str, Value)],
    ) -> Result<RunOutcome, Trap> {
        let mut session = Session::new(cfg.clone(), mem);
        session.run(pipeline, params)?;
        let (mem, stats) = session.finish();
        Ok(RunOutcome { mem, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phloem_ir::{ArrayDecl, Expr, FunctionBuilder, Pipeline, StageProgram};

    /// One artifact can be shared across sessions and host threads
    /// behind an `Arc`; that contract is a compile-time property, pinned
    /// here so a future field (say, an `Rc`-backed constant pool) cannot
    /// silently revoke it.
    #[test]
    fn compiled_pipelines_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<std::sync::Arc<CompiledPipeline>>();
    }

    /// The validation cache is keyed by machine limits: an artifact that
    /// passed the pre-sim checks under a roomy machine is checked again,
    /// and refused, under a machine it does not fit.
    #[test]
    fn a_pipeline_validated_on_a_roomy_machine_still_traps_on_a_tight_one() {
        let (p, mem) = spread_pipeline(4);
        let compiled = CompiledPipeline::new(&p).unwrap();
        let roomy = MachineConfig::paper_multicore(4);
        let mut session = Session::new(roomy, mem.clone());
        session.run_compiled(&p, &compiled, &[]).unwrap();
        let mut tight = Session::new(MachineConfig::paper_1core(), mem);
        let err = tight.run_compiled(&p, &compiled, &[]).unwrap_err();
        assert!(matches!(err, Trap::Malformed(_)), "{err:?}");
    }

    /// `stages` independent one-stage summing programs, one per core.
    fn spread_pipeline(stages: usize) -> (Pipeline, MemState) {
        let mut p = Pipeline::new("spread");
        for k in 0..stages {
            let mut b = FunctionBuilder::new(format!("s{k}"));
            let a = b.array_i64("a");
            let out = b.array_i64("out");
            let i = b.var_i64("i");
            let s = b.var_i64("s");
            b.for_loop(i, Expr::i64(0), Expr::i64(64), |b| {
                let l = b.load(a, Expr::var(i));
                b.assign(s, Expr::add(Expr::var(s), l));
            });
            b.store(out, Expr::i64(k as i64), Expr::var(s));
            p.add_stage(StageProgram::plain(b.build()), k);
        }
        let mut mem = MemState::new();
        mem.alloc_i64(ArrayDecl::i64("a"), 0..64);
        mem.alloc(ArrayDecl::i64("out"), stages.max(1));
        (p, mem)
    }

    /// Static energy is charged per *active* core (one with a mapped
    /// stage), not per configured core: a 1-core pipeline must pay the
    /// same static rate on a 4-core machine as on a 1-core one.
    #[test]
    fn static_energy_counts_only_mapped_cores() {
        let per_cycle = EnergyModel::default().static_core_pj_per_cycle;

        let (p, mem) = spread_pipeline(1);
        let cfg1 = MachineConfig::paper_1core();
        let r1 = Machine::run_once(&cfg1, &p, mem, &[]).unwrap();
        assert_eq!(
            r1.stats.energy.static_pj,
            r1.stats.cycles as f64 * per_cycle
        );

        let (p, mem) = spread_pipeline(1);
        let cfg4 = MachineConfig::paper_multicore(4);
        let r4 = Machine::run_once(&cfg4, &p, mem, &[]).unwrap();
        assert_eq!(
            r4.stats.energy.static_pj,
            r4.stats.cycles as f64 * per_cycle,
            "idle cores of the 4-core config must not be charged"
        );

        let (p, mem) = spread_pipeline(4);
        let r44 = Machine::run_once(&cfg4, &p, mem, &[]).unwrap();
        assert_eq!(
            r44.stats.energy.static_pj,
            r44.stats.cycles as f64 * 4.0 * per_cycle,
            "a 4-core placement pays four cores' static power"
        );
    }
}
