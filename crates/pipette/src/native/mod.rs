//! Native execution backend: Phloem pipelines on real OS threads.
//!
//! The simulator predicts what a Pipette machine *would* do; this
//! backend actually runs the compiled pipeline on the host, mapping
//!
//! * each pipeline **stage** (compute and RA alike — RAs are stage
//!   programs too) to an OS thread from a [`phloem_pool::Pool`] fleet,
//! * each **hardware queue** to a bounded channel (pluggable behind
//!   [`ChannelBackend`]; see [`ChannelKind`]), wired from the IR's
//!   [`phloem_ir::queue_topology`] so single-producer queues take the
//!   lock-free SPSC path,
//! * **RA** stages to prefetch-hinted threads (their base-array loads
//!   issue a hardware prefetch a few elements ahead),
//! * **control values** to in-band messages on the same channels — a
//!   `Value::Ctrl` word travels the FIFO like any datum and dispatches
//!   the consumer's handlers through the shared [`StepInterp`], so the
//!   CV protocol is byte-identical to the simulator's.
//!
//! Stages step through the same [`StepInterp`] as the interpreter and
//! simulator against a [`NativeWorld`] that backs loads/stores with
//! [`SharedMem`] and queue ops with the channels. Determinism needs no
//! cycle pins: every queue has one consumer, data queues have one
//! producer (FIFO order is program order), and stages are deterministic
//! state machines — so the value *sequence* each stage observes is
//! schedule-independent, and final memory equals the serial
//! interpreter's whenever the pipeline is correctly decoupled. The
//! differential harness (`tests/native_equivalence.rs`, `fuzzdiff
//! --native`) exists to hunt the cases where it does not.
//!
//! Blocked stages park on a [`Hub`] epoch (the same protocol as the
//! pool's idle workers): queue progress bumps the epoch and wakes
//! parked workers; a full park timeout with every live worker parked
//! and the epoch unchanged is a deadlock, reported as
//! [`Trap::Deadlock`] just like the interpreter's scheduler loop.

pub mod channel;
pub mod shared_mem;

pub use channel::{
    channel, ChannelBackend, ChannelError, ChannelKind, Receiver, Sender, TryRecvError,
    TrySendError,
};
pub use shared_mem::SharedMem;

use phloem_ir::{
    bind_params, queue_topology, ArrayId, BinOp, BlockReason, BranchId, MemState, Pipeline,
    QueueId, StageKind, StageSpec, StepInterp, StepResult, Tid, Time, Trap, UopClass, Value, World,
};
use phloem_ir::{OpCounts, RaMode};
use phloem_pool::{CancelToken, Pool};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which execution substrate a [`crate::Session`] drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecBackend {
    /// The cycle-level simulator (default).
    Sim,
    /// Real OS threads and bounded channels on the host.
    Native(NativeConfig),
}

/// Configuration of the native backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NativeConfig {
    /// Channel implementation backing the hardware queues.
    pub channel: ChannelKind,
    /// Worker threads. Stages are assigned round-robin (`stage %
    /// threads`); `0` means one thread per stage, the paper's model.
    pub threads: usize,
}

impl Default for NativeConfig {
    fn default() -> NativeConfig {
        NativeConfig {
            channel: ChannelKind::Mpsc,
            threads: 0,
        }
    }
}

thread_local! {
    /// Ambient backend stack for [`BackendScope`], mirroring
    /// [`crate::CancelScope`]: sessions created while a scope is live
    /// inherit its backend, so the benchsuite's `run()` entry points
    /// (which construct sessions internally) route to the native
    /// backend with no signature changes.
    static AMBIENT_BACKEND: RefCell<Vec<ExecBackend>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard installing an ambient [`ExecBackend`] for the current
/// thread; every [`crate::Session`] created while the guard is live
/// (and not overridden via [`crate::Session::set_backend`]) uses it.
/// Scopes nest; the innermost wins.
pub struct BackendScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl BackendScope {
    /// Installs `backend` until the returned guard drops.
    pub fn enter(backend: ExecBackend) -> BackendScope {
        AMBIENT_BACKEND.with(|s| s.borrow_mut().push(backend));
        BackendScope {
            _not_send: std::marker::PhantomData,
        }
    }

    /// The innermost ambient backend, if a scope is live on this thread.
    pub fn current() -> Option<ExecBackend> {
        AMBIENT_BACKEND.with(|s| s.borrow().last().copied())
    }
}

impl Drop for BackendScope {
    fn drop(&mut self) {
        AMBIENT_BACKEND.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Atoms per stage slice before round-robining to the worker's next
/// stage (matches the interpreter scheduler's slice).
const SLICE: u32 = 256;

/// Park timeout: bounds deadlock-detection and cancellation-poll
/// latency. Progress wakes parked workers immediately; this only fires
/// when nothing happens at all.
const PARK_TIMEOUT: Duration = Duration::from_millis(10);

/// How many elements ahead an RA's base-array loads prefetch.
const RA_PREFETCH_DIST: i64 = 8;

/// Result of one native pipeline invocation.
#[derive(Debug)]
pub struct NativeRun {
    /// Wall-clock nanoseconds the invocation took (at least 1).
    pub wall_nanos: u64,
    /// Committed dynamic-op counters, one slot per stage.
    pub counts: Vec<OpCounts>,
}

/// Rendezvous point for the stage workers: progress epoch, park/wake,
/// first-trap capture, and liveness counters.
struct Hub {
    /// Bumped on every committed enq/deq and stage completion. SeqCst
    /// pairs with `parked` (Dekker-style) so a producer that sees no
    /// parked worker is guaranteed the would-be parker sees its bump.
    epoch: AtomicU64,
    /// Workers currently inside [`Hub::park`].
    parked: AtomicUsize,
    /// Workers that have not yet exited.
    live: AtomicUsize,
    /// Unfinished compute stages; the run is done when it reaches zero
    /// (RAs may stay blocked, exactly like the interpreter scheduler).
    compute_remaining: AtomicUsize,
    abort: AtomicBool,
    trap: Mutex<Option<Trap>>,
    lock: Mutex<Registered>,
    cv: Condvar,
}

/// The deadlock predicate's view of [`Hub::park`]: how many workers are
/// parked having seen `epoch`. Keyed by epoch because `parked` alone
/// over-counts: a worker woken by a bump stays in `parked` until the
/// host schedules it again, which under load can outlast a peer's whole
/// [`PARK_TIMEOUT`]. A bump voids every older registration at once.
#[derive(Default)]
struct Registered {
    epoch: u64,
    count: usize,
}

impl Hub {
    fn new(workers: usize, compute: usize) -> Hub {
        Hub {
            epoch: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            live: AtomicUsize::new(workers),
            compute_remaining: AtomicUsize::new(compute),
            abort: AtomicBool::new(false),
            trap: Mutex::new(None),
            lock: Mutex::new(Registered::default()),
            cv: Condvar::new(),
        }
    }

    fn epoch_now(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Records progress and wakes parked workers. The wake is skipped
    /// when nobody is parked; the SeqCst epoch bump before the `parked`
    /// read keeps that skip free of lost wakeups (a concurrent parker
    /// re-reads the epoch under the lock and sees the bump).
    fn progress(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }

    fn done(&self) -> bool {
        self.compute_remaining.load(Ordering::SeqCst) == 0
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// Parks until the epoch moves past `seen`, an abort, or the
    /// timeout. Returns the deadlock predicate: the park timed out, the
    /// epoch still equals `seen`, and every live worker is registered
    /// at that same epoch — so nobody has anything left to react to.
    fn park(&self, seen: u64) -> bool {
        self.parked.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + PARK_TIMEOUT;
        let mut timed_out = false;
        let mut g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        if g.epoch < seen {
            *g = Registered {
                epoch: seen,
                count: 0,
            };
        }
        if g.epoch == seen {
            g.count += 1;
        }
        while self.epoch.load(Ordering::SeqCst) == seen && !self.aborted() {
            let now = Instant::now();
            if now >= deadline {
                timed_out = true;
                break;
            }
            let (ng, _) = self
                .cv
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            g = ng;
        }
        let deadlocked = timed_out
            && g.epoch == seen
            && g.count == self.live.load(Ordering::SeqCst)
            && self.epoch.load(Ordering::SeqCst) == seen;
        if g.epoch == seen {
            g.count -= 1;
        }
        drop(g);
        self.parked.fetch_sub(1, Ordering::SeqCst);
        deadlocked
    }

    /// Records the first trap and aborts everyone.
    fn fail(&self, t: Trap) {
        let mut g = self.trap.lock().unwrap_or_else(|e| e.into_inner());
        if g.is_none() {
            *g = Some(t);
        }
        drop(g);
        self.abort.store(true, Ordering::SeqCst);
        self.progress();
    }

    fn finish_compute(&self) {
        self.compute_remaining.fetch_sub(1, Ordering::SeqCst);
        self.progress();
    }

    fn worker_exit(&self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
        self.progress();
    }
}

/// Aborts the fleet if a stage worker unwinds (the pool contains the
/// panic to its slot; without this, the surviving workers would block
/// forever on the dead worker's channels).
struct PanicGuard<'a> {
    hub: &'a Hub,
    stage_names: Vec<String>,
}

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.hub.fail(Trap::Malformed(format!(
                "native stage worker panicked (stages {:?})",
                self.stage_names
            )));
        }
    }
}

/// Per-stage channel endpoints, handed to the owning worker at startup.
struct StageEndpoints {
    /// Sender per queue id this stage enqueues into.
    senders: Vec<Option<Sender>>,
    /// Receiver per queue id this stage dequeues from.
    receivers: Vec<Option<Receiver>>,
}

/// The native [`World`]: shared memory + channels, no timing. All
/// completion times are 0 — wall-clock is measured around the whole
/// invocation, never per operation.
struct NativeWorld<'a> {
    mem: &'a SharedMem,
    hub: &'a Hub,
    endpoints: StageEndpoints,
    counts: OpCounts,
    /// RA base array: loads from it prefetch ahead.
    ra_base: Option<ArrayId>,
    /// Dummy for the `World::mem` accessors, which the shared stepping
    /// interpreter never calls (memory flows through `load`/`store`).
    scratch: MemState,
}

impl NativeWorld<'_> {
    fn sender(&self, q: QueueId) -> Result<&Sender, Trap> {
        self.endpoints
            .senders
            .get(q.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or_else(|| Trap::BadId(format!("queue {}", q.0)))
    }

    fn receiver(&self, q: QueueId) -> Result<&Receiver, Trap> {
        self.endpoints
            .receivers
            .get(q.0 as usize)
            .and_then(|r| r.as_ref())
            .ok_or_else(|| Trap::BadId(format!("queue {}", q.0)))
    }
}

impl World for NativeWorld<'_> {
    fn uop(&mut self, _t: Tid, _class: UopClass, _dep: Time) -> Time {
        self.counts.uops += 1;
        0
    }

    fn branch(&mut self, _t: Tid, _site: BranchId, _taken: bool, _cond_ready: Time) -> Time {
        self.counts.branches += 1;
        0
    }

    fn load(
        &mut self,
        _t: Tid,
        array: ArrayId,
        index: i64,
        _dep: Time,
    ) -> Result<(Value, Time), Trap> {
        self.counts.loads += 1;
        if self.ra_base == Some(array) {
            self.mem.prefetch(array, index + RA_PREFETCH_DIST);
        }
        Ok((self.mem.load(array, index)?, 0))
    }

    fn store(
        &mut self,
        _t: Tid,
        array: ArrayId,
        index: i64,
        value: Value,
        _dep: Time,
    ) -> Result<Time, Trap> {
        self.counts.stores += 1;
        self.mem.store(array, index, value)?;
        Ok(0)
    }

    fn atomic_rmw(
        &mut self,
        _t: Tid,
        op: BinOp,
        array: ArrayId,
        index: i64,
        value: Value,
        _dep: Time,
    ) -> Result<(Value, Time), Trap> {
        self.counts.atomics += 1;
        Ok((self.mem.rmw(op, array, index, value)?, 0))
    }

    fn try_enq(&mut self, _t: Tid, q: QueueId, w: Value, _dep: Time) -> Result<Option<Time>, Trap> {
        match self.sender(q)?.try_send(w) {
            Ok(()) => {
                self.counts.enqs += 1;
                self.hub.progress();
                Ok(Some(0))
            }
            // A dead consumer means this enqueue can never complete; the
            // producer blocks forever and the deadlock detector reports
            // it, matching the interpreter's behaviour for the same
            // pipeline shape.
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => Ok(None),
        }
    }

    fn try_deq(&mut self, _t: Tid, q: QueueId, _dep: Time) -> Result<Option<(Value, Time)>, Trap> {
        match self.receiver(q)?.try_recv() {
            Ok(v) => {
                self.counts.deqs += 1;
                self.hub.progress();
                Ok(Some((v, 0)))
            }
            Err(TryRecvError::Empty | TryRecvError::Disconnected) => Ok(None),
        }
    }

    fn mem(&self) -> &MemState {
        &self.scratch
    }

    fn mem_mut(&mut self) -> &mut MemState {
        &mut self.scratch
    }
}

/// Builds one channel per referenced queue and distributes the
/// endpoints to the stages the topology names.
fn build_channels(
    pipeline: &Pipeline,
    kind: ChannelKind,
    capacity: usize,
) -> Result<Vec<StageEndpoints>, Trap> {
    let nstages = pipeline.stages.len();
    let nq = pipeline.num_queues as usize;
    let mut eps: Vec<StageEndpoints> = (0..nstages)
        .map(|_| StageEndpoints {
            senders: (0..nq).map(|_| None).collect(),
            receivers: (0..nq).map(|_| None).collect(),
        })
        .collect();
    for q in queue_topology(pipeline) {
        let qi = q.queue.0 as usize;
        if qi >= nq {
            return Err(Trap::BadId(format!("queue {}", q.queue.0)));
        }
        let (tx, rx) = channel(kind, capacity.max(1))
            .map_err(|e| Trap::Malformed(format!("queue {}: {e}", q.queue.0)))?;
        if let Some(c) = q.consumer {
            eps[c].receivers[qi] = Some(rx);
        }
        let mut tx = Some(tx);
        for (i, &p) in q.producers.iter().enumerate() {
            let s = if i + 1 == q.producers.len() {
                tx.take().expect("sender handed out once")
            } else {
                tx.as_ref().expect("sender still held").clone()
            };
            eps[p].senders[qi] = Some(s);
        }
        // A queue with no producers keeps `tx` alive here only until
        // this iteration ends; its receiver then reports Disconnected,
        // which the runtime treats as blocked-forever (deadlock parity
        // with the interpreter). Validation rejects such pipelines
        // before we ever get here.
    }
    Ok(eps)
}

/// Runs one pipeline invocation natively. `mem` is mirrored into shared
/// storage, the stages run to completion on a thread fleet, and the
/// results (partial on a trap) are written back.
///
/// # Errors
/// Traps on runtime errors, deadlock, or cancellation — the same
/// failure surface as the simulator.
pub fn run_native(
    pipeline: &Pipeline,
    mem: &mut MemState,
    params: &[(&str, Value)],
    cfg: &NativeConfig,
    queue_capacity: usize,
    cancel: Option<&CancelToken>,
) -> Result<NativeRun, Trap> {
    let nstages = pipeline.stages.len();
    if nstages == 0 {
        return Ok(NativeRun {
            wall_nanos: 1,
            counts: Vec::new(),
        });
    }
    let threads = if cfg.threads == 0 {
        nstages
    } else {
        cfg.threads
    };
    let nworkers = threads.min(nstages).max(1);
    let is_compute: Vec<bool> = pipeline
        .stages
        .iter()
        .map(|s| matches!(s.kind, StageKind::Compute))
        .collect();
    let ncompute = is_compute.iter().filter(|&&c| c).count();

    let endpoints = build_channels(pipeline, cfg.channel, queue_capacity)?;
    let slots: Vec<Mutex<Option<StageEndpoints>>> =
        endpoints.into_iter().map(|e| Mutex::new(Some(e))).collect();
    let shared = SharedMem::from_mem(mem);
    let hub = Hub::new(nworkers, ncompute);

    let start = Instant::now();
    let pool = Pool::new(nworkers);
    let results = pool.run(nworkers, |widx| {
        // Stage i runs on worker i % nworkers.
        let mine: Vec<usize> = (0..nstages).filter(|i| i % nworkers == widx).collect();
        let _guard = PanicGuard {
            hub: &hub,
            stage_names: mine
                .iter()
                .map(|&i| pipeline.stages[i].program.func.name.clone())
                .collect(),
        };
        let mut interps: Vec<StepInterp> = Vec::with_capacity(mine.len());
        let mut worlds: Vec<NativeWorld> = Vec::with_capacity(mine.len());
        for &i in &mine {
            let s = &pipeline.stages[i];
            let bound = bind_params(&s.program.func, params);
            interps.push(
                StepInterp::new(
                    StageSpec {
                        func: &s.program.func,
                        handlers: &s.program.handlers,
                    },
                    Tid(i as u32),
                    &bound,
                )
                .with_budget(crate::machine::DEFAULT_BUDGET),
            );
            let ra_base = match &s.kind {
                StageKind::Ra(ra) if matches!(ra.mode, RaMode::Indirect | RaMode::Scan) => {
                    Some(ra.base)
                }
                _ => None,
            };
            worlds.push(NativeWorld {
                mem: &shared,
                hub: &hub,
                endpoints: slots[i]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("each stage's endpoints are claimed once"),
                counts: OpCounts::default(),
                ra_base,
                scratch: MemState::new(),
            });
        }
        let mut finished = vec![false; mine.len()];
        'run: loop {
            if hub.aborted() || hub.done() {
                break;
            }
            if let Some(tok) = cancel {
                if tok.is_set() || tok.poll_expired() {
                    hub.fail(Trap::Cancelled {
                        cycle: 0,
                        detail: format!("native backend: {}", tok.reason()),
                    });
                    break;
                }
            }
            let seen = hub.epoch_now();
            let mut progressed = false;
            let mut all_done = true;
            for k in 0..mine.len() {
                if finished[k] {
                    continue;
                }
                all_done = false;
                match interps[k].run_slice(&mut worlds[k], SLICE) {
                    Ok((n, res)) => {
                        if n > 0 {
                            progressed = true;
                        }
                        match res {
                            StepResult::Finished => {
                                finished[k] = true;
                                if is_compute[mine[k]] {
                                    hub.finish_compute();
                                } else {
                                    hub.progress();
                                }
                            }
                            StepResult::Blocked(BlockReason::Budget) | StepResult::Progress => {
                                progressed = true;
                            }
                            StepResult::Blocked(_) => {}
                        }
                    }
                    Err(t) => {
                        hub.fail(t);
                        break 'run;
                    }
                }
            }
            if all_done {
                break;
            }
            let idle = !progressed && !hub.done() && !hub.aborted();
            if idle && hub.park(seen) && !hub.done() && !hub.aborted() {
                let blocked: Vec<String> = mine
                    .iter()
                    .zip(&finished)
                    .filter(|(_, &f)| !f)
                    .map(|(&i, _)| pipeline.stages[i].program.func.name.clone())
                    .collect();
                hub.fail(Trap::Deadlock(format!(
                    "stages blocked with no progress: {blocked:?}"
                )));
                break;
            }
        }
        hub.worker_exit();
        let counts: Vec<(usize, OpCounts)> = mine
            .iter()
            .zip(&worlds)
            .map(|(&i, w)| (i, w.counts))
            .collect();
        counts
    });
    let wall_nanos = (start.elapsed().as_nanos() as u64).max(1);

    shared.write_back(mem);
    if let Some(t) = hub.trap.lock().unwrap_or_else(|e| e.into_inner()).take() {
        return Err(t);
    }
    let mut counts = vec![OpCounts::default(); nstages];
    for r in results {
        match r {
            Ok(per_stage) => {
                for (i, c) in per_stage {
                    counts[i] = c;
                }
            }
            Err(p) => {
                // The panic guard should already have recorded a trap;
                // this is the backstop if the guard itself was skipped.
                return Err(Trap::Malformed(format!(
                    "native stage worker panicked: {p}"
                )));
            }
        }
    }
    Ok(NativeRun { wall_nanos, counts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phloem_ir::{ArrayDecl, CtrlHandler, Expr, FunctionBuilder, HandlerEnd, StageProgram};

    const DONE: u32 = 0;

    /// Two-stage producer/consumer pipeline: stage 0 enqueues a[i] for
    /// i in 0..n plus DONE; stage 1 accumulates into out[0].
    fn pc_pipeline() -> (Pipeline, MemState) {
        let q = QueueId(0);
        let mut p = Pipeline::new("pc");

        let mut s0 = FunctionBuilder::new("produce");
        let a = s0.array_i64("a");
        let _out = s0.array_i64("out");
        let i = s0.var_i64("i");
        s0.for_loop(i, Expr::i64(0), Expr::i64(64), |f| {
            let l = f.load(a, Expr::var(i));
            f.enq(q, l);
        });
        s0.enq_ctrl(q, DONE);
        p.add_stage(StageProgram::plain(s0.build()), 0);

        let mut s1 = FunctionBuilder::new("consume");
        let _a = s1.array_i64("a");
        let out = s1.array_i64("out");
        let v = s1.var_i64("v");
        let acc = s1.var_i64("acc");
        s1.while_true(|f| {
            f.deq(v, q);
            f.assign(acc, Expr::add(Expr::var(acc), Expr::var(v)));
        });
        s1.store(out, Expr::i64(0), Expr::var(acc));
        let handlers = vec![CtrlHandler {
            queue: q,
            ctrl: Some(DONE),
            bind: None,
            body: vec![],
            end: HandlerEnd::BreakLoops(1),
        }];
        p.add_stage(
            StageProgram {
                func: s1.build(),
                handlers,
            },
            0,
        );

        let mut mem = MemState::new();
        mem.alloc_i64(ArrayDecl::i64("a"), 0..64);
        mem.alloc(ArrayDecl::i64("out"), 1);
        (p, mem)
    }

    #[test]
    fn producer_consumer_runs_on_every_channel_kind() {
        for kind in ChannelKind::ALL {
            for threads in [1, 2] {
                let (p, mut mem) = pc_pipeline();
                let cfg = NativeConfig {
                    channel: kind,
                    threads,
                };
                let run = run_native(&p, &mut mem, &[], &cfg, 4, None).unwrap();
                assert_eq!(
                    mem.i64_vec(ArrayId(1)),
                    vec![(0..64).sum::<i64>()],
                    "kind={kind} threads={threads}"
                );
                assert!(run.wall_nanos >= 1);
                assert_eq!(run.counts[0].enqs, 65, "64 data + DONE");
                assert_eq!(run.counts[1].deqs, 65);
            }
        }
    }

    #[test]
    fn a_stuck_pipeline_reports_deadlock() {
        // The consumer never sees DONE: producer enqueues one value and
        // finishes; the consumer's while-true blocks forever.
        let q = QueueId(0);
        let mut p = Pipeline::new("stuck");
        let mut s0 = FunctionBuilder::new("one");
        s0.enq(q, Expr::i64(7));
        p.add_stage(StageProgram::plain(s0.build()), 0);
        let mut s1 = FunctionBuilder::new("forever");
        let v = s1.var_i64("v");
        s1.while_true(|f| {
            f.deq(v, q);
        });
        p.add_stage(StageProgram::plain(s1.build()), 0);
        let mut mem = MemState::new();
        let err = run_native(&p, &mut mem, &[], &NativeConfig::default(), 4, None).unwrap_err();
        assert!(
            matches!(err, Trap::Deadlock(ref d) if d.contains("forever")),
            "{err:?}"
        );
    }

    #[test]
    fn cancellation_stops_a_native_run() {
        let q = QueueId(0);
        let mut p = Pipeline::new("cancel");
        let mut s1 = FunctionBuilder::new("forever");
        let v = s1.var_i64("v");
        s1.while_true(|f| {
            f.deq(v, q);
        });
        p.add_stage(StageProgram::plain(s1.build()), 0);
        let mut s0 = FunctionBuilder::new("slow");
        s0.enq(q, Expr::i64(1));
        p.add_stage(StageProgram::plain(s0.build()), 0);
        let mut mem = MemState::new();
        let token = CancelToken::new();
        token.cancel("test says stop");
        let err =
            run_native(&p, &mut mem, &[], &NativeConfig::default(), 4, Some(&token)).unwrap_err();
        assert!(
            matches!(err, Trap::Cancelled { ref detail, .. } if detail.contains("test says stop")),
            "{err:?}"
        );
    }

    /// The interleaving behind the false deadlocks, forced: a peer parks,
    /// a bump wakes it, and the host does not schedule it again before
    /// this worker's own park times out. The peer is still in `parked`,
    /// but it has progress to react to, so this is not a deadlock; once
    /// the peer has re-run and parked at the new epoch too, it is.
    #[test]
    fn a_woken_but_unscheduled_peer_is_not_a_deadlock() {
        let hub = Hub::new(2, 1);
        // The peer, inside `park(0)`.
        hub.parked.fetch_add(1, Ordering::SeqCst);
        hub.lock.lock().unwrap().count = 1;
        hub.progress();
        assert!(!hub.park(1), "the peer has epoch 1 to react to");
        // The peer re-ran, found nothing to do, and parked at epoch 1.
        hub.lock.lock().unwrap().count = 1;
        assert!(hub.park(1), "both workers are stuck at epoch 1");
    }

    /// Seeded stress for the deadlock predicate: a healthy
    /// producer/consumer pair, one thread per stage, small seeded queue
    /// depths (so both stages park constantly), on a host saturated by
    /// busy-spinning neighbours (so a woken peer is often pre-empted
    /// before it leaves `park`). No run may ever report a deadlock.
    #[test]
    fn busy_neighbours_never_cause_a_false_deadlock() {
        use std::sync::atomic::AtomicBool;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..8 * cores {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                });
            }
            let mut seed = 0x5eed_f00d_u64;
            let mut failures = Vec::new();
            for run in 0..150 {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let capacity = 1 + (seed % 3) as usize;
                let channel = ChannelKind::ALL[(seed >> 8) as usize % ChannelKind::ALL.len()];
                let (p, mut mem) = pc_pipeline();
                let cfg = NativeConfig {
                    channel,
                    threads: 0,
                };
                let sum = run_native(&p, &mut mem, &[], &cfg, capacity, None)
                    .map(|_| mem.i64_vec(ArrayId(1)));
                if sum != Ok(vec![(0..64).sum::<i64>()]) {
                    failures.push(format!("run {run} ({channel}, depth {capacity}): {sum:?}"));
                }
            }
            // Stop the neighbours before asserting: the scope joins them.
            stop.store(true, Ordering::Relaxed);
            assert!(
                failures.is_empty(),
                "{} of 150 healthy runs failed: {:?}",
                failures.len(),
                &failures[..failures.len().min(3)]
            );
        });
    }
}
