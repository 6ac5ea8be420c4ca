//! Native execution backend: Phloem pipelines on real OS threads.
//!
//! The simulator predicts what a Pipette machine *would* do; this
//! backend actually runs the compiled pipeline on the host, mapping
//!
//! * each pipeline **stage** (compute and RA alike — RAs are stage
//!   programs too) to a worker of a [`phloem_pool::run_resident`] set:
//!   one worker per stage (`threads: 0`), or stage `i` folded onto
//!   worker `i % threads`, which round-robins its stages a slice at a
//!   time. Folding is for pipelines handed over as built: a benchsuite
//!   app compiled under a native [`BackendScope`] asks
//!   [`ExecBackend::stage_budget`] first and gets at most one stage per
//!   worker. Worker 0 is the calling thread and the others are the pool's
//!   resident threads, woken for the invocation rather than spawned and
//!   joined by it (a graph app invokes a pipeline per round),
//! * each **hardware queue** to a bounded SPSC ring of [`ring_depth`]
//!   slots — sized for the host, not for Pipette's 24-entry queues —
//!   wired from the IR's [`phloem_ir::queue_topology`] so
//!   single-producer queues take the lock-free path and fan-in queues a
//!   locked one,
//! * **RA** stages to prefetch-hinted stage threads (their base-array
//!   loads issue a hardware prefetch a few elements ahead),
//! * **control values** to in-band messages on the same channels — a
//!   `Value::Ctrl` word travels the FIFO like any datum and dispatches
//!   the consumer's handlers through the shared [`FlatInterp`], so the
//!   CV protocol is byte-identical to the simulator's.
//!
//! Stages run the simulator's engine, [`FlatInterp`] over the stage
//! bytecode (lowered once per pipeline when the caller holds a
//! [`crate::CompiledPipeline`], per invocation otherwise), against a
//! `NativeWorld` that loads and stores the caller's [`MemState`] in
//! place — its elements are atomics, so the stages share one memory as
//! Pipette's SMT threads share one address space, and nothing is copied
//! in or out — and backs queue ops with the channels. A stage's
//! interpreter state — a pending select-enqueue, the handler dispatch
//! stack — lives in the interpreter across blocked retries, slice ends
//! and the worker's round-robin; the world carries none of it.
//! Determinism needs no
//! cycle pins: every queue has one consumer, data queues have one
//! producer (FIFO order is program order), and stages are deterministic
//! state machines — so the value *sequence* each stage observes is
//! schedule-independent, and final memory equals the serial
//! interpreter's whenever the pipeline is correctly decoupled. The
//! differential harness (`tests/native_equivalence.rs`, `fuzzdiff
//! --native`) exists to hunt the cases where it does not.
//!
//! # What a hop costs
//!
//! Threads synchronise per stage slice and per blocked episode, never
//! per value. An enqueue or dequeue touches only the stage's own
//! cursor and a slot ([`mod@channel`]'s slab endpoints: a ring's head
//! and tail plus one private cursor per endpoint, and no other shared
//! state); the shared ring indices move once per slab, an eighth of the
//! ring ([`channel::slab_len`]), before an endpoint reports full or
//! empty, and when a slice ends — on *every* queue of the stage, so a
//! stage blocked on one queue never withholds slots or values on
//! another. Nothing is published when an endpoint drops: a worker drops
//! its stages' endpoints only on exit, after the slice end that
//! published everything. A fan-in queue's producers take one lock per
//! value and publish it at once. After a slice that moved a value the
//! worker bumps the run's progress epoch once, indices first, so whoever
//! sees the bump sees what it announces. Endpoints carry no
//! lifecycle: a stage whose peer has finished sees empty or full, never
//! a disconnection, and blocks like any other.
//!
//! A worker none of whose stages advanced retries them for
//! `IDLE_ROUNDS` rounds (spinning when every worker has a core,
//! yielding when they do not) and only then parks, in the run's `Hub`,
//! the workspace's one park (a pool fleet never parks): it read the
//! epoch before its last attempts, and sleeps only while the epoch still
//! has that value. A full park timeout with every live worker parked at
//! the same unchanged epoch is a deadlock, reported as
//! [`Trap::Deadlock`] just like the interpreter's scheduler loop. The
//! predicate needs no more than it did when every value bumped: each
//! bump still follows real progress and still voids older
//! registrations, and a worker that is spinning is not registered.
//!
//! # Ring depth
//!
//! On Pipette a hop is register-cheap and 24 entries keep a pipeline
//! flowing; on a host a hop costs a cache-line transfer, and 24 slots
//! hold producer and consumer within a few slabs of each other, so they
//! block and flush in lockstep. A [`crate::Session`] therefore gives
//! every ring [`ring_depth`] slots, at least [`HOST_RING_DEPTH`].
//! Deeper rings cannot change final memory — stages are deterministic
//! and queues FIFO, so a pipeline that completes at the architectural
//! depth completes with the same queue histories at any greater one —
//! but they can complete a pipeline whose only deadlock in the
//! simulator comes from queue capacity. That deadlock is the
//! simulator's verdict about Pipette, not a property of the host.
//! [`run_native`] takes a literal depth and builds rings of exactly that
//! many slots.

pub mod channel;

pub use channel::{
    channel, ChannelError, ChannelKind, Receiver, Sender, TryRecvError, TrySendError,
};
use channel::{slab_channel, SlabReceiver, SlabSender};

use phloem_ir::{
    bind_params, compile_pipeline, queue_topology, ArrayId, BinOp, BlockReason, BranchId,
    BytecodeProgram, FlatInterp, MemState, Pipeline, QueueId, StageKind, StepResult, Tid, Time,
    Trap, Ty, UopClass, Value, World,
};
use phloem_ir::{OpCounts, RaMode};
use phloem_pool::{run_resident, CancelToken};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Which execution substrate a [`crate::Session`] drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecBackend {
    /// The cycle-level simulator (default).
    Sim,
    /// Real OS threads and bounded channels on the host.
    Native(NativeConfig),
}

impl ExecBackend {
    /// How many stages this backend places without folding two onto
    /// one worker: `Some(threads)` for a native backend with a fixed
    /// worker count, `None` where every stage gets its own thread (the
    /// simulator's SMT contexts, native `threads: 0`).
    pub fn stage_budget(&self) -> Option<usize> {
        match self {
            ExecBackend::Native(NativeConfig { threads }) if *threads > 0 => Some(*threads),
            _ => None,
        }
    }
}

/// Configuration of the native backend. Every hardware queue is an
/// SPSC ring, so the worker count is all there is to choose.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct NativeConfig {
    /// Worker threads. Stages are assigned round-robin (`stage %
    /// threads`); `0` (the default) means one thread per stage, the
    /// paper's model. A nonzero count is also the
    /// [`ExecBackend::stage_budget`] static compiles fit to.
    pub threads: usize,
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
/// stage. Its own constant, not the simulator scheduler's (128): it
/// bounds how long one stage holds its host worker, and no simulated
/// cycle depends on it.
const SLICE: u32 = 256;

/// Park timeout: bounds deadlock-detection and cancellation-poll
/// latency. Progress wakes parked workers immediately; this only fires
/// when nothing happens at all.
const PARK_TIMEOUT: Duration = Duration::from_millis(10);

/// Rounds over its blocked stages a worker retries before it sleeps in
/// [`Hub::park`]. A peer that is running is usually one slab (well under
/// a microsecond of its work) from unblocking us, while a futex sleep
/// and wake costs tens of microseconds on this kind of host: parking on
/// every blocked episode measured 0.10x serial on two workers, 256
/// rounds 0.60x (64: 0.49x, 1024: 0.62x).
const IDLE_ROUNDS: u32 = 256;

/// Cores this process may run on, asked once (the standard library reads
/// cgroup files to answer, and a graph app invokes a pipeline per round).
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How many elements ahead an RA's base-array loads prefetch.
const RA_PREFETCH_DIST: i64 = 8;

/// The fewest slots a [`crate::Session`]'s native ring holds: 16 KB of
/// 16-byte [`Value`] slots, published a slab of 128 at a time.
pub const HOST_RING_DEPTH: usize = 1024;

/// Slots per ring of a [`crate::Session`]'s native run on a machine
/// whose queues hold `queue_capacity` entries: the architectural
/// capacity, floored at [`HOST_RING_DEPTH`] (see the module doc).
pub fn ring_depth(queue_capacity: usize) -> usize {
    queue_capacity.max(HOST_RING_DEPTH)
}

/// Result of one native pipeline invocation.
#[derive(Debug)]
pub struct NativeRun {
    /// Wall-clock nanoseconds the invocation took (at least 1).
    pub wall_nanos: u64,
    /// Committed dynamic-op counters, one slot per stage.
    pub counts: Vec<OpCounts>,
    /// Times any worker bumped the progress epoch: once per stage slice
    /// that moved a value, once per stage finish and worker exit.
    pub epoch_bumps: u64,
    /// Times any worker went to sleep in the park path.
    pub parks: u64,
}

/// Totals over every native invocation this thread has finished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NativeCounters {
    /// Sum of [`NativeRun::epoch_bumps`].
    pub epoch_bumps: u64,
    /// Sum of [`NativeRun::parks`].
    pub parks: u64,
}

thread_local! {
    static COUNTERS: Cell<NativeCounters> =
        const { Cell::new(NativeCounters { epoch_bumps: 0, parks: 0 }) };
}

/// What the backend has counted over the invocations this thread made
/// since it started. A [`crate::Session`] reports a native run as
/// [`crate::RunStats`], which has no slot for these; a harness that
/// reaches the backend through one (the `native` bench bin) reads this
/// before and after instead. Per thread, so invocations made
/// concurrently elsewhere in the process do not leak into the count.
pub fn lifetime_counters() -> NativeCounters {
    COUNTERS.get()
}

impl Default for NativeRun {
    /// A run that executed nothing.
    fn default() -> NativeRun {
        NativeRun {
            wall_nanos: 1,
            counts: Vec::new(),
            epoch_bumps: 0,
            parks: 0,
        }
    }
}

/// Rendezvous point for the stage workers: the progress epoch and the
/// workspace's one park (see the module doc), first-trap capture,
/// liveness counters, and the deadlock rule. A bump is one SeqCst
/// `fetch_add` and one load while nobody is parked: a parker announces
/// itself in `parked` (SeqCst) before it re-reads the epoch under the
/// lock, so a bumper that sees nobody there is guaranteed the parker
/// sees its bump (Dekker), and [`PARK_TIMEOUT`] is a backstop, not a
/// poll.
#[derive(Default)]
struct Hub {
    /// Bumped after every stage slice that moved a value (its queue
    /// indices published first), on stage completion and worker exit.
    epoch: AtomicU64,
    /// Workers inside [`Hub::park`] past its abort check.
    parked: AtomicUsize,
    waiting: Mutex<Waiting>,
    cv: Condvar,
    /// Workers that have not yet exited.
    live: AtomicUsize,
    /// Unfinished compute stages; the run is done when it reaches zero
    /// (RAs may stay blocked, exactly like the interpreter scheduler).
    compute_remaining: AtomicUsize,
    abort: AtomicBool,
    /// Calls to [`Hub::park`] (a statistic; publishes nothing).
    parks: AtomicU64,
    trap: Mutex<Option<Trap>>,
}

/// How many workers are parked having seen `epoch`, the newest epoch
/// any has parked at. Keyed by epoch because `parked` alone over-counts:
/// a worker woken by a bump stays in `parked` until the host schedules
/// it again, which under load can outlast a peer's whole timeout. A
/// newer registration voids every older one at once.
#[derive(Default)]
struct Waiting {
    epoch: u64,
    count: usize,
}

impl Hub {
    fn new(workers: usize, compute: usize) -> Hub {
        Hub {
            live: AtomicUsize::new(workers),
            compute_remaining: AtomicUsize::new(compute),
            ..Hub::default()
        }
    }

    /// The progress epoch, read before the attempts that may end in a park.
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Records progress: bumps the epoch and wakes every parked worker,
    /// taking the lock only when somebody is parked.
    fn progress(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _g = self.waiting.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }

    fn done(&self) -> bool {
        self.compute_remaining.load(Ordering::SeqCst) == 0
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// Parks until the epoch moves past `seen` (at once if it already
    /// has), an abort, or [`PARK_TIMEOUT`]. Returns the deadlock
    /// predicate: the park timed out with every live worker registered
    /// at `seen`, and the epoch still equals `seen` — so nobody has
    /// anything left to react to.
    fn park(&self, seen: u64) -> bool {
        self.parks.fetch_add(1, Ordering::Relaxed);
        // An abort raised after `seen` was read has bumped the epoch;
        // one raised before it is visible here.
        if self.aborted() {
            return false;
        }
        self.parked.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + PARK_TIMEOUT;
        let mut g = self.waiting.lock().unwrap_or_else(|e| e.into_inner());
        if g.epoch < seen {
            *g = Waiting {
                epoch: seen,
                count: 0,
            };
        }
        if g.epoch == seen {
            g.count += 1;
        }
        let mut timed_out = None;
        while self.epoch() == seen {
            let now = Instant::now();
            if now >= deadline {
                // Nobody registers past `seen` while the epoch is `seen`,
                // so this worker is among the count.
                timed_out = Some(g.count);
                break;
            }
            #[allow(clippy::disallowed_methods)] // the workspace's one park
            let woken = self.cv.wait_timeout(g, deadline - now);
            g = woken.unwrap_or_else(|e| e.into_inner()).0;
        }
        if g.epoch == seen {
            g.count -= 1;
        }
        drop(g);
        self.parked.fetch_sub(1, Ordering::SeqCst);
        timed_out.is_some_and(|n| n == self.live.load(Ordering::SeqCst) && self.epoch() == seen)
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
    senders: Vec<Option<SlabSender>>,
    /// Receiver per queue id this stage dequeues from.
    receivers: Vec<Option<SlabReceiver>>,
}

/// The native [`World`]: the invocation's one [`MemState`], shared in
/// place, plus channels, no timing. All completion times are 0 —
/// wall-clock is measured around the whole invocation, never per
/// operation.
struct NativeWorld<'a> {
    mem: &'a MemState,
    endpoints: StageEndpoints,
    counts: OpCounts,
    /// A value was enqueued or dequeued since the last [`Self::end_slice`].
    moved: bool,
    /// RA base array: loads from it prefetch ahead.
    ra_base: Option<ArrayId>,
}

impl NativeWorld<'_> {
    fn sender(&mut self, q: QueueId) -> Result<&mut SlabSender, Trap> {
        self.endpoints
            .senders
            .get_mut(q.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or_else(|| Trap::BadId(format!("queue {}", q.0)))
    }

    fn receiver(&mut self, q: QueueId) -> Result<&mut SlabReceiver, Trap> {
        self.endpoints
            .receivers
            .get_mut(q.0 as usize)
            .and_then(|r| r.as_mut())
            .ok_or_else(|| Trap::BadId(format!("queue {}", q.0)))
    }

    /// Publishes what the slice just run left on private cursors — on
    /// every queue of the stage, so a stage blocked on one queue never
    /// sits on slots or values its peers on another are waiting for —
    /// and returns whether the slice moved a value. The caller bumps the
    /// epoch *after* this, so whoever sees the bump sees the indices.
    fn end_slice(&mut self) -> bool {
        if !self.moved {
            return false;
        }
        self.endpoints
            .senders
            .iter_mut()
            .flatten()
            .for_each(SlabSender::flush);
        self.endpoints
            .receivers
            .iter_mut()
            .flatten()
            .for_each(SlabReceiver::flush);
        self.moved = false;
        true
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

    // Out of line, the `Result<(Value, Time), Trap>` comes back through
    // memory as two 8-byte stores that the interpreter reloads as one
    // 16-byte word, which the store buffer cannot forward: that reload
    // was the hottest address of a native serial SpMM (212 of 1 997
    // samples; 24.2 -> 20.0 ms per invocation inlined).
    #[inline(always)]
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

    // Inlined like `load`, for the same reason.
    #[inline(always)]
    fn load_word(
        &mut self,
        _t: Tid,
        array: ArrayId,
        index: i64,
        ty: Ty,
        _dep: Time,
    ) -> Result<(u64, Time), Trap> {
        self.counts.loads += 1;
        if self.ra_base == Some(array) {
            self.mem.prefetch(array, index + RA_PREFETCH_DIST);
        }
        Ok((self.mem.load_word(array, index, ty)?.0, 0))
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

    #[inline]
    fn store_word(
        &mut self,
        _t: Tid,
        array: ArrayId,
        index: i64,
        w: u64,
        ty: Ty,
        _dep: Time,
    ) -> Result<Time, Trap> {
        self.counts.stores += 1;
        self.mem.store_word(array, index, w, ty)?;
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
        Ok((self.mem.rmw(op, array, index, value)?.0, 0))
    }

    fn try_enq(&mut self, _t: Tid, q: QueueId, w: Value, _dep: Time) -> Result<Option<Time>, Trap> {
        if self.sender(q)?.try_send(w).is_err() {
            return Ok(None);
        }
        self.counts.enqs += 1;
        self.moved = true;
        Ok(Some(0))
    }

    fn try_deq(&mut self, _t: Tid, q: QueueId, _dep: Time) -> Result<Option<(Value, Time)>, Trap> {
        let Some(v) = self.receiver(q)?.try_recv() else {
            return Ok(None);
        };
        self.counts.deqs += 1;
        self.moved = true;
        Ok(Some((v, 0)))
    }
}

/// Builds one ring per referenced queue and distributes the endpoints
/// to the stages the topology names.
fn build_channels(pipeline: &Pipeline, depth: usize) -> Result<Vec<StageEndpoints>, Trap> {
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
        let (senders, rx) = slab_channel(depth.max(1), q.producers.len());
        if let Some(c) = q.consumer {
            eps[c].receivers[qi] = Some(rx);
        }
        for (&p, tx) in q.producers.iter().zip(senders) {
            eps[p].senders[qi] = Some(tx);
        }
        // A queue with no producers stays empty: its consumer blocks
        // forever and the deadlock rule reports it, as the interpreter
        // does. Validation rejects such pipelines before we get here.
    }
    Ok(eps)
}

/// Runs one pipeline invocation natively. The stages run to completion
/// on a thread fleet that loads and stores `mem` in place, so it holds
/// the results, partial on a trap. The stage programs are
/// lowered to bytecode on the way in, as [`crate::Session::run`] does
/// for the simulator.
///
/// `depth` is the literal number of slots every ring holds (at least
/// one), publishing a [`channel::slab_len`] at a time. A
/// [`crate::Session`] passes [`ring_depth`] of its machine's queue
/// capacity instead; a caller that wants the simulator's blocking,
/// capacity deadlocks included, passes `queue_capacity` itself.
///
/// # Errors
/// Traps on runtime errors, deadlock, or cancellation — the same
/// failure surface as the simulator.
pub fn run_native(
    pipeline: &Pipeline,
    mem: &mut MemState,
    params: &[(&str, Value)],
    cfg: &NativeConfig,
    depth: usize,
    cancel: Option<&CancelToken>,
) -> Result<NativeRun, Trap> {
    let progs = compile_pipeline(pipeline)?;
    let (run, trap) = run_compiled(pipeline, &progs, mem, params, cfg, depth, cancel);
    trap.map_or(Ok(run), Err)
}

/// [`run_native`] over bytecode the caller already holds (`progs[i]` is
/// stage `i` of `pipeline`, lowered), keeping the run's statistics when
/// it trapped (the op counters are then partial).
pub(crate) fn run_compiled(
    pipeline: &Pipeline,
    progs: &[BytecodeProgram],
    mem: &MemState,
    params: &[(&str, Value)],
    cfg: &NativeConfig,
    depth: usize,
    cancel: Option<&CancelToken>,
) -> (NativeRun, Option<Trap>) {
    let nstages = pipeline.stages.len();
    let mut run = NativeRun::default();
    if nstages == 0 {
        return (run, None);
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

    let endpoints = match build_channels(pipeline, depth) {
        Ok(e) => e,
        Err(t) => return (run, Some(t)),
    };
    let slots: Vec<Mutex<Option<StageEndpoints>>> =
        endpoints.into_iter().map(|e| Mutex::new(Some(e))).collect();
    let hub = Hub::new(nworkers, ncompute);
    // How an idle worker waits out its `IDLE_ROUNDS`. With a core per
    // worker the peer it waits for is running, so it spins: a yield
    // would queue it behind whatever else the host runs (the busy-
    // neighbour stress took 9x longer with two yields per episode). With
    // more workers than cores the peer may be waiting for *this* core,
    // so it yields: spinning there measured 0.05x serial, yielding 0.5x.
    let oversubscribed = nworkers > host_cores();

    let start = Instant::now();
    let results = run_resident(nworkers, |widx| {
        // Stage i runs on worker i % nworkers.
        let mine: Vec<usize> = (0..nstages).filter(|i| i % nworkers == widx).collect();
        let _guard = PanicGuard {
            hub: &hub,
            stage_names: mine
                .iter()
                .map(|&i| pipeline.stages[i].program.func.name.clone())
                .collect(),
        };
        let mut interps: Vec<FlatInterp> = Vec::with_capacity(mine.len());
        let mut worlds: Vec<NativeWorld> = Vec::with_capacity(mine.len());
        for &i in &mine {
            let s = &pipeline.stages[i];
            let bound = bind_params(&s.program.func, params);
            interps.push(
                FlatInterp::new(&progs[i], Tid(i as u32), &bound)
                    .with_budget(crate::machine::DEFAULT_BUDGET),
            );
            let ra_base = match &s.kind {
                StageKind::Ra(ra) if matches!(ra.mode, RaMode::Indirect | RaMode::Scan) => {
                    Some(ra.base)
                }
                _ => None,
            };
            worlds.push(NativeWorld {
                mem,
                endpoints: slots[i]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("each stage's endpoints are claimed once"),
                counts: OpCounts::default(),
                moved: false,
                ra_base,
            });
        }
        let mut finished = vec![false; mine.len()];
        // Consecutive rounds in which no stage of this worker advanced.
        let mut idle_rounds = 0u32;
        let mut cancel_rounds = 0u32;
        'run: loop {
            if hub.aborted() || hub.done() {
                break;
            }
            if let Some(tok) = cancel.filter(|t| t.poll_throttled(&mut cancel_rounds)) {
                hub.fail(Trap::Cancelled {
                    cycle: 0,
                    detail: format!("native backend: {}", tok.reason()),
                });
                break;
            }
            // Read before the attempts below, every round: a bump before
            // this read published indices the attempts will see, and one
            // after it keeps `park(seen)` from sleeping.
            let seen = hub.epoch();
            let mut progressed = false;
            let mut all_done = true;
            for k in 0..mine.len() {
                if finished[k] {
                    continue;
                }
                all_done = false;
                match interps[k].run_slice(&mut worlds[k], SLICE) {
                    Ok((n, res)) => {
                        let moved = worlds[k].end_slice();
                        progressed |= n > 0;
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
                        // A finish has just bumped the epoch.
                        if moved && !finished[k] {
                            hub.progress();
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
            if progressed {
                idle_rounds = 0;
                continue;
            }
            idle_rounds += 1;
            if idle_rounds <= IDLE_ROUNDS {
                if oversubscribed {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                continue;
            }
            idle_rounds = 0;
            if hub.park(seen) && !hub.done() && !hub.aborted() {
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
            // A park may have slept a whole `PARK_TIMEOUT`: latch an
            // expired deadline now for the next round's flag check.
            if let Some(tok) = cancel {
                tok.poll_expired();
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
    run.wall_nanos = (start.elapsed().as_nanos() as u64).max(1);
    run.epoch_bumps = hub.epoch();
    run.parks = hub.parks.load(Ordering::Relaxed);
    let before = lifetime_counters();
    COUNTERS.set(NativeCounters {
        epoch_bumps: before.epoch_bumps + run.epoch_bumps,
        parks: before.parks + run.parks,
    });

    let mut trap = hub.trap.lock().unwrap_or_else(|e| e.into_inner()).take();
    run.counts = vec![OpCounts::default(); nstages];
    for r in results {
        match r {
            Ok(per_stage) => {
                for (i, c) in per_stage {
                    run.counts[i] = c;
                }
            }
            // The panic guard should already have recorded a trap; this
            // is the backstop if the guard itself was skipped.
            Err(p) => {
                trap.get_or_insert(Trap::Malformed(format!(
                    "native stage worker panicked: {p}"
                )));
            }
        }
    }
    (run, trap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phloem_ir::{
        ArrayDecl, CtrlHandler, Expr, FunctionBuilder, HandlerEnd, StageProgram, VarId,
    };

    const DONE: u32 = 0;

    fn pc_pipeline() -> (Pipeline, MemState) {
        pc_pipeline_of(64)
    }

    /// Two-stage producer/consumer pipeline: stage 0 enqueues a[i] for
    /// i in 0..n plus DONE; stage 1 accumulates into out[0].
    fn pc_pipeline_of(n: i64) -> (Pipeline, MemState) {
        let q = QueueId(0);
        let mut p = Pipeline::new("pc");

        let mut s0 = FunctionBuilder::new("produce");
        let a = s0.array_i64("a");
        let _out = s0.array_i64("out");
        let i = s0.var_i64("i");
        s0.for_loop(i, Expr::i64(0), Expr::i64(n), |f| {
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
        mem.alloc_i64(ArrayDecl::i64("a"), 0..n);
        mem.alloc(ArrayDecl::i64("out"), 1);
        (p, mem)
    }

    #[test]
    fn only_a_fixed_worker_count_budgets_stages() {
        let native = |threads| ExecBackend::Native(NativeConfig { threads });
        assert_eq!(ExecBackend::Sim.stage_budget(), None);
        assert_eq!(native(0).stage_budget(), None);
        assert_eq!(native(1).stage_budget(), Some(1));
        assert_eq!(native(2).stage_budget(), Some(2));
    }

    #[test]
    fn producer_consumer_runs_on_one_and_two_workers() {
        for threads in [1, 2] {
            let (p, mut mem) = pc_pipeline();
            let cfg = NativeConfig { threads };
            let run = run_native(&p, &mut mem, &[], &cfg, 4, None).unwrap();
            assert_eq!(
                mem.i64_vec(ArrayId(1)),
                vec![(0..64).sum::<i64>()],
                "threads={threads}"
            );
            assert!(run.wall_nanos >= 1);
            assert_eq!(run.counts[0].enqs, 65, "64 data + DONE");
            assert_eq!(run.counts[1].deqs, 65);
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

    /// A bump between the epoch sample and the park: the park must
    /// return at once instead of sleeping out [`PARK_TIMEOUT`] — exactly
    /// the lost-wakeup window the epoch closes. A hundred such parks that
    /// each slept would take a hundred timeouts; a loaded host stretches
    /// immediate returns far less.
    #[test]
    fn a_notify_between_sample_and_park_is_not_lost() {
        let hub = Hub::new(1, 1);
        let t0 = Instant::now();
        for _ in 0..100 {
            let seen = hub.epoch();
            hub.progress();
            assert!(!hub.park(seen));
        }
        assert!(t0.elapsed() < 100 * PARK_TIMEOUT, "woke via epoch");
        // No bump at all: the backstop expires with the one live worker
        // parked at `seen`.
        assert!(hub.park(hub.epoch()));
    }

    /// The interleaving behind the native backend's false deadlocks: a
    /// peer parks, a bump wakes it, and the host does not schedule it
    /// again before this worker's own park times out. The peer is still
    /// in `parked`, but not at the new epoch; once it has parked there
    /// too, it counts. `live` is set to the count each park must find:
    /// the verdict is a deadlock exactly when the two are equal.
    #[test]
    fn a_woken_but_unscheduled_peer_is_not_counted() {
        let hub = Hub::new(1, 1);
        // The peer, inside `park(0)`.
        hub.parked.fetch_add(1, Ordering::SeqCst);
        hub.waiting.lock().unwrap().count = 1;
        hub.progress();
        assert!(hub.park(1), "this worker alone is parked at epoch 1");
        // The peer re-ran, found nothing to do, and parked at epoch 1.
        hub.live.store(2, Ordering::SeqCst);
        hub.waiting.lock().unwrap().count = 1;
        assert!(hub.park(1), "both are parked at epoch 1");
    }

    /// An abort raised before the park: the call is counted, but the
    /// worker never registers, so no peer's deadlock count includes it.
    /// Were it to park, it would time out alone at `seen` — a deadlock
    /// verdict, since it is the one live worker.
    #[test]
    fn an_aborted_park_returns_without_registering() {
        let hub = Hub::new(1, 1);
        hub.progress();
        hub.abort.store(true, Ordering::SeqCst);
        assert!(!hub.park(1));
        assert_eq!(hub.parked.load(Ordering::SeqCst), 0);
        let w = hub.waiting.lock().unwrap();
        assert_eq!((w.epoch, w.count), (0, 0), "never registered");
        assert_eq!(hub.parks.load(Ordering::Relaxed), 1);
    }

    /// The interleaving behind the false deadlocks: a peer parks, a bump
    /// wakes it, and the host may not schedule it again before this
    /// worker's own park times out. The peer has progress to react to,
    /// so this is not a deadlock whether or not it has left its park
    /// (`a_woken_but_unscheduled_peer_is_not_counted` forces the case
    /// where it has not). Both parked at one epoch is the stuck-pipeline
    /// test below.
    #[test]
    #[allow(clippy::disallowed_methods)]
    fn a_woken_but_unscheduled_peer_is_not_a_deadlock() {
        let hub = Hub::new(2, 1);
        std::thread::scope(|s| {
            let peer = s.spawn(|| hub.park(0));
            hub.progress();
            assert!(!hub.park(1), "the peer has epoch 1 to react to");
            assert!(!peer.join().unwrap(), "the peer was woken");
        });
    }

    /// Seeded stress for the deadlock predicate: a healthy
    /// producer/consumer pair, one thread per stage, small seeded queue
    /// depths (so both stages park constantly), on a host saturated by
    /// busy-spinning neighbours (so a woken peer is often pre-empted
    /// before it leaves `park`). No run may ever report a deadlock.
    #[test]
    #[allow(clippy::disallowed_methods)]
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
                let (p, mut mem) = pc_pipeline();
                let cfg = NativeConfig::default();
                let sum = run_native(&p, &mut mem, &[], &cfg, capacity, None)
                    .map(|_| mem.i64_vec(ArrayId(1)));
                if sum != Ok(vec![(0..64).sum::<i64>()]) {
                    failures.push(format!("run {run} (depth {capacity}): {sum:?}"));
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
    /// Synchronisation is per slice, not per value: on one worker (so
    /// the schedule, and with it the count, is fixed) the producer fills
    /// the queue and bumps once, the consumer drains it and bumps once.
    /// A bump per value, as before, would read `2 * (N + 1)`.
    #[test]
    fn epoch_bumps_scale_with_slices_not_values() {
        const N: i64 = 4096;
        let (p, mut mem) = pc_pipeline_of(N);
        let cfg = NativeConfig { threads: 1 };
        let run = run_native(&p, &mut mem, &[], &cfg, 24, None).unwrap();
        assert_eq!(mem.i64_vec(ArrayId(1)), vec![(0..N).sum::<i64>()]);
        assert_eq!(run.counts[0].enqs + run.counts[1].deqs, 2 * (N as u64 + 1));
        assert!(
            run.epoch_bumps <= N as u64 / 8,
            "{} bumps for {N} values",
            run.epoch_bumps
        );
        assert_eq!(run.parks, 0, "a lone worker with work never sleeps");
    }

    /// `pipeline` on a native [`crate::Session`] over `mem` with
    /// `threads` workers, the way every app reaches the backend.
    fn session_run(
        pipeline: &Pipeline,
        mem: MemState,
        threads: usize,
    ) -> (Result<Time, Trap>, MemState) {
        let mut s = crate::Session::new(crate::MachineConfig::paper_1core(), mem);
        s.set_backend(ExecBackend::Native(NativeConfig { threads }));
        (s.run(pipeline, &[]), s.mem().clone())
    }

    /// The same count through a `Session`, which sizes its rings for the
    /// host: a 24-slot ring cuts every slice after 24 values (343 bumps
    /// for this run), a 1024-slot one only where the slice budget ends
    /// (88).
    #[test]
    fn a_session_bumps_once_per_slice_budget_not_per_architectural_queue() {
        const N: i64 = 4096;
        let (p, mem) = pc_pipeline_of(N);
        let before = lifetime_counters();
        let (res, mem) = session_run(&p, mem, 1);
        res.unwrap();
        let bumps = lifetime_counters().epoch_bumps - before.epoch_bumps;
        assert_eq!(mem.i64_vec(ArrayId(1)), vec![(0..N).sum::<i64>()]);
        assert!(bumps <= N as u64 / 32, "{bumps} bumps for {N} values");
    }

    /// A deadlock that comes only from queue capacity: `fill` pushes 40
    /// values through q0 before the one on q1 that `drain` waits for
    /// first. Pipette's 24-entry queue cannot hold them, so the
    /// simulator and a native run at the literal depth 24 both trap; a
    /// native session's host rings can, so it completes with the serial
    /// kernel's memory. Native completes everything the simulator
    /// completes, and may complete more.
    #[test]
    fn a_capacity_only_deadlock_traps_at_depth_24_and_completes_on_host_rings() {
        const N: i64 = 40;
        let (q0, q1) = (QueueId(0), QueueId(1));
        let mut p = Pipeline::new("overfill");
        let mut s0 = FunctionBuilder::new("fill");
        let _out = s0.array_i64("out");
        let i = s0.var_i64("i");
        s0.for_loop(i, Expr::i64(0), Expr::i64(N), |f| f.enq(q0, Expr::var(i)));
        s0.enq(q1, Expr::i64(1000));
        p.add_stage(StageProgram::plain(s0.build()), 0);
        let mut s1 = FunctionBuilder::new("drain");
        let out = s1.array_i64("out");
        let (i, v, acc) = (s1.var_i64("i"), s1.var_i64("v"), s1.var_i64("acc"));
        s1.deq(acc, q1);
        s1.for_loop(i, Expr::i64(0), Expr::i64(N), |f| {
            f.deq(v, q0);
            f.assign(acc, Expr::add(Expr::var(acc), Expr::var(v)));
        });
        s1.store(out, Expr::i64(0), Expr::var(acc));
        p.add_stage(StageProgram::plain(s1.build()), 0);

        let mut k = FunctionBuilder::new("serial");
        let out = k.array_i64("out");
        let (i, acc) = (k.var_i64("i"), k.var_i64("acc"));
        k.assign(acc, Expr::i64(1000));
        k.for_loop(i, Expr::i64(0), Expr::i64(N), |f| {
            f.assign(acc, Expr::add(Expr::var(acc), Expr::var(i)));
        });
        k.store(out, Expr::i64(0), Expr::var(acc));

        let mut mem = MemState::new();
        mem.alloc(ArrayDecl::i64("out"), 1);
        let want = phloem_ir::interp::run_serial(&k.build(), mem.clone(), &[]).unwrap();

        let cfg = crate::MachineConfig::paper_1core();
        assert_eq!(cfg.queue_capacity, 24);
        let sim = crate::Session::new(cfg, mem.clone()).run(&p, &[]);
        assert!(matches!(sim, Err(Trap::Deadlock(_))), "simulator: {sim:?}");
        let literal = run_native(
            &p,
            &mut mem.clone(),
            &[],
            &NativeConfig::default(),
            24,
            None,
        );
        assert!(
            matches!(literal, Err(Trap::Deadlock(_))),
            "depth 24: {literal:?}"
        );
        for threads in [1, 2, 0] {
            let (res, got) = session_run(&p, mem.clone(), threads);
            assert!(res.is_ok(), "session, threads {threads}: {res:?}");
            assert!(got.same_contents(&want.mem), "session, threads {threads}");
        }
    }

    /// Two workers, each stuck on the other's queue. Neither may trap
    /// while the other is still in its spin phase (it is not registered
    /// yet), and once both have parked at the same epoch the next timeout
    /// must: a worker whose park timed out before its peer registered
    /// parks once more and is there when the peer's times out. Counted in
    /// parks, not milliseconds, so a loaded host stretches the run
    /// without failing it; the slack over two parks per worker is for a
    /// peer the host keeps off its core for a whole [`PARK_TIMEOUT`].
    #[test]
    fn a_stuck_pipeline_traps_within_a_few_parks_of_the_spin_phase() {
        let (a, b) = (QueueId(0), QueueId(1));
        let mut p = Pipeline::new("embrace");
        for (name, from, to) in [("left", a, b), ("right", b, a)] {
            let mut s = FunctionBuilder::new(name);
            let v = s.var_i64("v");
            s.deq(v, from);
            s.enq(to, Expr::var(v));
            p.add_stage(StageProgram::plain(s.build()), 0);
        }
        let progs = compile_pipeline(&p).unwrap();
        let t0 = Instant::now();
        let (run, trap) = run_compiled(
            &p,
            &progs,
            &MemState::new(),
            &[],
            &NativeConfig::default(),
            4,
            None,
        );
        assert!(matches!(trap, Some(Trap::Deadlock(_))), "{trap:?}");
        assert!(
            t0.elapsed() >= PARK_TIMEOUT,
            "trapped after {:?}: nobody sat a park out",
            t0.elapsed()
        );
        assert!(
            run.parks >= 2,
            "{} parks: a worker never registered",
            run.parks
        );
        assert!(run.parks <= 2 * 3, "{} parks to call a deadlock", run.parks);
    }

    /// The consumer reads `taken` values of queue A — fewer than a slab
    /// of its ring wherever the slab is longer than one value, so its
    /// endpoint has not vacated them — and then blocks on queue B, which
    /// the producer only feeds after pushing `depth + taken` values
    /// through A. The machine has room for those; the native backend
    /// has it only if a stage that blocks on one queue publishes what it
    /// did on all of them. Even cases draw depths up to Pipette's 24,
    /// odd ones up to the native 1024.
    #[test]
    fn blocking_on_one_queue_publishes_pops_held_on_another() {
        let (a, b) = (QueueId(0), QueueId(1));
        let mut rng = 0x51AB_5EED_u64;
        for case in 0..40 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let top = if case % 2 == 0 { 24 } else { HOST_RING_DEPTH };
            let depth = 1 + (rng % top as u64) as i64;
            let slab = channel::slab_len(depth as usize) as i64;
            let taken = 1 + (rng >> 12) as i64 % (slab - 1).max(1);
            let threads = 1 + (rng >> 24) as usize % 2;

            let mut p = Pipeline::new("two-queues");
            let mut s0 = FunctionBuilder::new("feed");
            let _out = s0.array_i64("out");
            let i = s0.var_i64("i");
            s0.for_loop(i, Expr::i64(0), Expr::i64(depth + taken), |f| {
                f.enq(a, Expr::var(i));
            });
            s0.enq(b, Expr::i64(1000));
            p.add_stage(StageProgram::plain(s0.build()), 0);

            let mut s1 = FunctionBuilder::new("drain");
            let out = s1.array_i64("out");
            let (i, v, acc) = (s1.var_i64("i"), s1.var_i64("v"), s1.var_i64("acc"));
            let sum = |f: &mut FunctionBuilder, q| {
                f.deq(v, q);
                f.assign(acc, Expr::add(Expr::var(acc), Expr::var(v)));
            };
            s1.for_loop(i, Expr::i64(0), Expr::i64(taken), |f| sum(f, a));
            sum(&mut s1, b);
            s1.for_loop(i, Expr::i64(0), Expr::i64(depth), |f| sum(f, a));
            s1.store(out, Expr::i64(0), Expr::var(acc));
            p.add_stage(StageProgram::plain(s1.build()), 0);

            let mut mem = MemState::new();
            mem.alloc(ArrayDecl::i64("out"), 1);
            let cfg = NativeConfig { threads };
            let res = run_native(&p, &mut mem, &[], &cfg, depth as usize, None);
            assert!(
                res.is_ok(),
                "case {case} (depth {depth}, taken {taken}, {threads} workers): {res:?}"
            );
            assert_eq!(
                mem.i64_vec(ArrayId(0)),
                vec![(0..depth + taken).sum::<i64>() + 1000],
                "case {case}"
            );
        }
    }

    const NEXT: u32 = 1;

    /// A handler with no body that breaks `levels` loops out of the
    /// dequeue that saw `ctrl`.
    fn break_on(queue: QueueId, ctrl: u32, levels: u32) -> CtrlHandler {
        CtrlHandler {
            queue,
            ctrl: Some(ctrl),
            bind: None,
            body: vec![],
            end: HandlerEnd::BreakLoops(levels),
        }
    }

    /// Runs `p` natively on one, two and per-stage workers. Final memory
    /// must equal what `serial` leaves under the oracle
    /// (`interp::run_serial`, on the tree engine), and each stage must
    /// commit exactly the ops it commits under `interp::run_pipeline`: a
    /// micro-op issued twice across a blocked retry, or a handler resumed
    /// in the wrong place, shows in one or the other.
    fn assert_matches_the_oracle(
        p: &Pipeline,
        serial: &phloem_ir::Function,
        mem: &MemState,
        capacity: usize,
    ) {
        let want = phloem_ir::interp::run_serial(serial, mem.clone(), &[]).unwrap();
        let tree = phloem_ir::interp::run_pipeline(p, mem.clone(), &[], capacity).unwrap();
        assert!(
            tree.mem.same_contents(&want.mem),
            "{}: tree pipeline",
            p.name
        );
        for threads in [1, 2, 0] {
            let cfg = NativeConfig { threads };
            let mut got = mem.clone();
            let run = run_native(p, &mut got, &[], &cfg, capacity, None).unwrap();
            let at = format!("{} at depth {capacity}, threads {threads}", p.name);
            assert!(got.same_contents(&want.mem), "{at}: memory");
            assert_eq!(run.counts, tree.counts, "{at}: per-stage op counts");
        }
    }

    /// `distribute`: the stage issues its select micro-op, finds the
    /// chosen lane full and blocks. The choice and the issued micro-op
    /// wait in the interpreter (`pending_enq_sel`) across the slice end
    /// and, on one worker, across both lanes' slices; the retry must
    /// enqueue to the same lane and issue nothing again. Runs of five to
    /// a lane against a depth of two block on every run.
    #[test]
    fn a_select_enqueue_blocked_after_its_select_keeps_its_choice() {
        const N: i64 = 200;
        let lanes = [QueueId(0), QueueId(1)];
        let run_of = |i: VarId| Expr::bin(BinOp::Div, Expr::var(i), Expr::i64(5));
        let mut p = Pipeline::new("distribute");

        let mut s0 = FunctionBuilder::new("distribute");
        let a = s0.array_i64("a");
        let _out = s0.array_i64("out");
        let i = s0.var_i64("i");
        s0.for_loop(i, Expr::i64(0), Expr::i64(N), |f| {
            let l = f.load(a, Expr::var(i));
            f.enq_sel(lanes.to_vec(), run_of(i), l);
        });
        for q in lanes {
            s0.enq_ctrl(q, DONE);
        }
        p.add_stage(StageProgram::plain(s0.build()), 0);

        for (lane, q) in lanes.into_iter().enumerate() {
            let mut s = FunctionBuilder::new(format!("lane{lane}"));
            let _a = s.array_i64("a");
            let out = s.array_i64("out");
            let (v, acc) = (s.var_i64("v"), s.var_i64("acc"));
            s.while_true(|f| {
                f.deq(v, q);
                f.assign(acc, Expr::add(Expr::var(acc), Expr::var(v)));
            });
            s.store(out, Expr::i64(lane as i64), Expr::var(acc));
            p.add_stage(
                StageProgram {
                    func: s.build(),
                    handlers: vec![break_on(q, DONE, 1)],
                },
                0,
            );
        }

        let mut k = FunctionBuilder::new("serial");
        let a = k.array_i64("a");
        let out = k.array_i64("out");
        let (i, v) = (k.var_i64("i"), k.var_i64("v"));
        let acc = [k.var_i64("acc0"), k.var_i64("acc1")];
        k.for_loop(i, Expr::i64(0), Expr::i64(N), |f| {
            let l = f.load(a, Expr::var(i));
            f.assign(v, l);
            let add = |f: &mut FunctionBuilder, acc| {
                f.assign(acc, Expr::add(Expr::var(acc), Expr::var(v)));
            };
            f.if_else(
                Expr::eq(Expr::bin(BinOp::Rem, run_of(i), Expr::i64(2)), Expr::i64(0)),
                |f| add(f, acc[0]),
                |f| add(f, acc[1]),
            );
        });
        for (lane, acc) in acc.into_iter().enumerate() {
            k.store(out, Expr::i64(lane as i64), Expr::var(acc));
        }

        let mut mem = MemState::new();
        mem.alloc_i64(ArrayDecl::i64("a"), (0..N).map(|x| x * x + 1));
        mem.alloc(ArrayDecl::i64("out"), 2);
        assert_matches_the_oracle(&p, &k.build(), &mem, 2);
    }

    /// Rows of one value fewer than a slab, a slab and one more, each
    /// closed by `NEXT`, so the control value falls on every position of
    /// a slab in turn — the slot whose dequeue publishes the cursor, the
    /// first slot of the next slab, a ring wrap — and `DONE` arrives with
    /// both loops open. `NEXT` breaks one loop out of the dequeue, `DONE`
    /// two. Slabs of 3, 8 and 128 (depths 24, 64 and the native 1024).
    #[test]
    fn a_handler_break_dispatched_at_a_slab_boundary_leaves_the_right_loops() {
        const ROWS: i64 = 48;
        let q = QueueId(0);
        for depth in [24, 64, HOST_RING_DEPTH] {
            let slab = channel::slab_len(depth) as i64;
            let width = |r: VarId| {
                Expr::add(
                    Expr::i64(slab - 1),
                    Expr::bin(BinOp::Rem, Expr::var(r), Expr::i64(3)),
                )
            };
            let cell = |r: VarId, k: VarId| {
                Expr::add(Expr::mul(Expr::var(r), Expr::i64(16)), Expr::var(k))
            };
            let mut p = Pipeline::new("rows");

            let mut s0 = FunctionBuilder::new("rows");
            let _out = s0.array_i64("out");
            let (r, k) = (s0.var_i64("r"), s0.var_i64("k"));
            s0.for_loop(r, Expr::i64(0), Expr::i64(ROWS), |f| {
                f.for_loop(k, Expr::i64(0), width(r), |f| f.enq(q, cell(r, k)));
                f.enq_ctrl(q, NEXT);
            });
            s0.enq_ctrl(q, DONE);
            p.add_stage(StageProgram::plain(s0.build()), 0);

            let mut s1 = FunctionBuilder::new("sums");
            let out = s1.array_i64("out");
            let (r, v, acc) = (s1.var_i64("r"), s1.var_i64("v"), s1.var_i64("acc"));
            // More trips than rows: only `DONE` ends this loop.
            s1.for_loop(r, Expr::i64(0), Expr::i64(ROWS + 8), |f| {
                f.assign(acc, Expr::i64(0));
                f.while_true(|f| {
                    f.deq(v, q);
                    f.assign(acc, Expr::add(Expr::var(acc), Expr::var(v)));
                });
                f.store(out, Expr::var(r), Expr::var(acc));
            });
            p.add_stage(
                StageProgram {
                    func: s1.build(),
                    handlers: vec![break_on(q, NEXT, 1), break_on(q, DONE, 2)],
                },
                0,
            );

            let mut sk = FunctionBuilder::new("serial");
            let out = sk.array_i64("out");
            let (r, k, acc) = (sk.var_i64("r"), sk.var_i64("k"), sk.var_i64("acc"));
            sk.for_loop(r, Expr::i64(0), Expr::i64(ROWS), |f| {
                f.assign(acc, Expr::i64(0));
                f.for_loop(k, Expr::i64(0), width(r), |f| {
                    f.assign(acc, Expr::add(Expr::var(acc), cell(r, k)));
                });
                f.store(out, Expr::var(r), Expr::var(acc));
            });
            let serial = sk.build();

            let mut mem = MemState::new();
            mem.alloc(ArrayDecl::i64("out"), ROWS as usize);
            assert_matches_the_oracle(&p, &serial, &mem, depth);
        }
    }

    /// A handler body of 400 atoms against a slice of [`SLICE`]: every
    /// `NEXT` leaves the consumer's slice on `Budget` inside the handler,
    /// with the dispatch record on the interpreter's stack while the
    /// worker flushes the stage's endpoints and (folded onto one worker)
    /// runs the producer. The handler must pick up where it stopped and
    /// `Resume` must retry the dequeue that dispatched it.
    #[test]
    fn a_slice_that_ends_inside_a_handler_resumes_inside_it() {
        const ROUNDS: i64 = 12;
        const SPIN: i64 = 200;
        let q = QueueId(0);
        let mut p = Pipeline::new("long-handler");

        let mut s0 = FunctionBuilder::new("rounds");
        let _out = s0.array_i64("out");
        let r = s0.var_i64("r");
        s0.for_loop(r, Expr::i64(0), Expr::i64(ROUNDS), |f| {
            f.enq(q, Expr::add(Expr::var(r), Expr::i64(1)));
            f.enq_ctrl(q, NEXT);
        });
        s0.enq_ctrl(q, DONE);
        p.add_stage(StageProgram::plain(s0.build()), 0);

        // The work of one round after its value has been added: the
        // handler's body in the pipeline, inline in the serial kernel.
        let settle = |f: &mut FunctionBuilder, out, acc, j, r| {
            f.for_loop(j, Expr::i64(0), Expr::i64(SPIN), |f| {
                f.assign(acc, Expr::add(Expr::var(acc), Expr::var(j)));
            });
            f.store(out, Expr::var(r), Expr::var(acc));
        };

        let mut s1 = FunctionBuilder::new("settle");
        let out = s1.array_i64("out");
        let (v, acc, j, r) = (
            s1.var_i64("v"),
            s1.var_i64("acc"),
            s1.var_i64("j"),
            s1.var_i64("r"),
        );
        s1.while_true(|f| {
            f.deq(v, q);
            f.assign(acc, Expr::add(Expr::var(acc), Expr::var(v)));
        });
        s1.store(out, Expr::i64(ROUNDS), Expr::var(acc));
        s1.push_scope();
        settle(&mut s1, out, acc, j, r);
        s1.assign(r, Expr::add(Expr::var(r), Expr::i64(1)));
        let body = s1.pop_scope();
        assert!(
            2 * SPIN > i64::from(SLICE),
            "the handler must outlast a slice"
        );
        let handlers = vec![
            CtrlHandler {
                queue: q,
                ctrl: Some(NEXT),
                bind: None,
                body,
                end: HandlerEnd::Resume,
            },
            break_on(q, DONE, 1),
        ];
        p.add_stage(
            StageProgram {
                func: s1.build(),
                handlers,
            },
            0,
        );

        let mut sk = FunctionBuilder::new("serial");
        let out = sk.array_i64("out");
        let (acc, j, r) = (sk.var_i64("acc"), sk.var_i64("j"), sk.var_i64("r"));
        sk.for_loop(r, Expr::i64(0), Expr::i64(ROUNDS), |f| {
            f.assign(
                acc,
                Expr::add(Expr::var(acc), Expr::add(Expr::var(r), Expr::i64(1))),
            );
            settle(f, out, acc, j, r);
        });
        sk.store(out, Expr::i64(ROUNDS), Expr::var(acc));

        let mut mem = MemState::new();
        mem.alloc(ArrayDecl::i64("out"), ROUNDS as usize + 1);
        assert_matches_the_oracle(&p, &sk.build(), &mem, 4);
    }
}
