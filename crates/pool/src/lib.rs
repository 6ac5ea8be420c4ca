//! # phloem-pool
//!
//! Work-stealing host-execution fleet: the one scheduling layer every
//! fleet-shaped consumer in the workspace routes through — the PGO
//! candidate search, `fuzzdiff`'s plan × cut × ablation grids, and the
//! figure harnesses' training sweeps.
//!
//! ## Why not static chunking
//!
//! Splitting the task list into `len.div_ceil(workers)` contiguous
//! chunks, one thread each, loses to uneven task costs: a 4-stage
//! pipeline over the big training graph can cost 50x a 1-stage one over
//! the small graph, so whichever chunk draws the expensive candidates
//! head-of-line-blocks its worker while the rest of the host idles.
//! This pool keeps every worker busy:
//!
//! * **per-worker deques, seeded contiguously** — worker `w` starts
//!   with the contiguous index block static chunking would give it, so
//!   the common case keeps that cache locality;
//! * **steal-half** — a worker that runs dry takes half of the richest
//!   neighbour's remaining block (from the back, preserving the
//!   victim's locality at the front), amortizing steal traffic;
//! * **park/unpark** — a worker that finds nothing while tasks are
//!   still running sleeps on the fleet's [`Parker`] instead of
//!   spinning. Parking is epoch-guarded: the worker samples the
//!   parker's epoch *before* its work scan and parks only while the
//!   epoch is unchanged, so an unpark between scan and park can never be
//!   lost; new stealable work, fleet completion and cancellation all
//!   notify explicitly, and a coarse timeout backstop exists purely as a
//!   diagnostic of last resort ([`FleetStats::timeout_wakeups`] counts
//!   it and is asserted zero by the unit tests);
//! * **panic isolation** — each task runs under `catch_unwind`; a
//!   panicking task yields `Err(TaskPanic)` in its own result slot and
//!   cannot take a worker (or the whole fleet) down.
//!
//! This crate is where the workspace gets its threads and parks them.
//! A fleet's worker 0 is the caller; the others are **resident**
//! threads, parked between runs rather than spawned and joined by each
//! (`resident.rs`). Tasks that wait on *each other* — the native
//! backend's stage workers — need a thread each, all at once, and a
//! graph app launches them once per round: [`run_resident`] gives them
//! exactly that, with the same panic isolation and nothing stolen, and
//! they sleep on a [`Parker`] of their own.
//!
//! ## Determinism contract
//!
//! Tasks carry their index and results land in a pre-sized partition
//! (`Vec` of once-set slots), so **output order and content are
//! independent of interleaving**: scheduling decides only *when* and
//! *where* a task runs, never what it computes or where its result
//! lands. A fleet of pure tasks therefore produces byte-identical
//! results at every worker count — the contract `tests/pool_determinism.rs`
//! pins for the search, fuzzdiff, and figure-sweep consumers. Simulated
//! cycles cannot change: the pool schedules whole simulations onto host
//! threads and never reaches into the simulated clock.
//!
//! Mutexes guard the deques, but tasks here are coarse (whole
//! simulations, milliseconds to seconds); the lock cost is noise, and
//! the result partition itself is written without any lock.

mod cancel;
mod park;
mod resident;

pub use cancel::{CancelToken, WakerRegistration};
pub use park::Parker;

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Shared worker-count default for every pool consumer: the
/// `PHLOEM_WORKERS` env override when set, otherwise the host's
/// available parallelism, clamped ≥ 1.
///
/// `PHLOEM_WORKERS` accepts an integer **≥ 1** (there is no "auto"
/// sentinel — unset the variable to get the host default). Any other
/// value — `0`, negative, or non-numeric — is *rejected with a warning*
/// naming the variable, not silently ignored: a silent fall-through made
/// `PHLOEM_WORKERS=0` behave like full parallelism, the opposite of
/// what the caller plausibly meant.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("PHLOEM_WORKERS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => {
                // Warn once per process, not once per fleet.
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "[phloem-pool] rejecting PHLOEM_WORKERS={v:?}: expected an integer >= 1 \
                         (worker threads per fleet); using the host's available parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A task that panicked: the fleet records it in the task's own result
/// slot instead of unwinding the worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the panicking task.
    pub index: usize,
    /// The panic payload, when it was a string (the common case).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Host-side scheduling counters for one fleet run. None of these can
/// affect task results; they exist for the steal-fairness and
/// park/unpark unit tests and for bench diagnostics.
#[derive(Clone, Debug, Default)]
pub struct FleetStats {
    /// Worker threads the fleet actually ran with (clamped to the task
    /// count; 1 means the fleet ran inline on the caller's thread).
    pub workers: usize,
    /// Successful steal-half operations.
    pub steals: u64,
    /// Tasks moved by those steals.
    pub stolen_tasks: u64,
    /// Times a worker parked because it found no runnable task while
    /// other tasks were still in flight.
    pub parks: u64,
    /// Tasks executed per worker (indexed by worker id).
    pub per_worker_tasks: Vec<u64>,
    /// Tasks skipped because the fleet's [`CancelToken`] fired before
    /// they were dequeued (always 0 for uncancellable fleets).
    pub skipped: u64,
    /// Park wakeups delivered by the coarse timeout backstop rather than
    /// an explicit notification. The epoch-guarded park protocol makes
    /// every legitimate wake explicit (work, completion, cancel), so
    /// this is structurally zero; a nonzero value means some wake path
    /// forgot to call [`Parker::notify`].
    pub timeout_wakeups: u64,
}

/// The work-stealing fleet executor: a worker count. Each
/// [`Pool::run`]/[`Pool::map`] call borrows its workers' threads for the
/// call alone (see the crate docs), so borrowed task closures need no
/// `'static` bound.
#[derive(Clone, Debug)]
pub struct Pool {
    /// Worker threads per fleet (clamped to the task count at run time).
    workers: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new(default_workers())
    }
}

impl Pool {
    /// A pool with an explicit worker count.
    pub fn new(workers: usize) -> Pool {
        Pool {
            workers: workers.max(1),
        }
    }

    /// A pool configured from the environment (`PHLOEM_WORKERS`),
    /// falling back to the host's available parallelism.
    pub fn from_env() -> Pool {
        Pool::default()
    }

    /// The configured worker count (before per-fleet clamping).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `n` indexed tasks and returns their results in index order,
    /// one slot per task; a panicking task yields `Err(TaskPanic)` in
    /// its slot. Deterministic by construction: slot `i` always holds
    /// the result of task `i`, whatever the interleaving.
    pub fn run<R, F>(&self, n: usize, f: F) -> Vec<Result<R, TaskPanic>>
    where
        R: Send + Sync,
        F: Fn(usize) -> R + Sync,
    {
        self.run_stats(n, f).0
    }

    /// [`Pool::run`] over a slice: task `i` receives `(i, &items[i])`.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, TaskPanic>>
    where
        T: Sync,
        R: Send + Sync,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run(items.len(), |i| f(i, &items[i]))
    }

    /// [`Pool::run`], also returning the fleet's scheduling counters.
    pub fn run_stats<R, F>(&self, n: usize, f: F) -> (Vec<Result<R, TaskPanic>>, FleetStats)
    where
        R: Send + Sync,
        F: Fn(usize) -> R + Sync,
    {
        let (slots, stats) = self.run_inner(n, None, f);
        let results = slots
            .into_iter()
            .map(|s| s.expect("every fleet task ran exactly once"))
            .collect();
        (results, stats)
    }

    /// [`Pool::run_stats`] under a [`CancelToken`]: once the token fires
    /// (explicit cancel or expired deadline), still-queued tasks are
    /// *skipped* — their slots come back `None` — while tasks already
    /// executing finish normally (the task body is expected to observe
    /// the same token cooperatively, as the simulator's watchdog does).
    /// Parked workers are woken by the cancel itself, not by a timeout,
    /// so drain latency is bounded by the running tasks' own response
    /// to the token — never by queue depth.
    pub fn run_cancellable<R, F>(
        &self,
        n: usize,
        cancel: &CancelToken,
        f: F,
    ) -> (Vec<Option<Result<R, TaskPanic>>>, FleetStats)
    where
        R: Send + Sync,
        F: Fn(usize) -> R + Sync,
    {
        self.run_inner(n, Some(cancel), f)
    }

    /// [`run_resident`]; the pool's worker count plays no part.
    pub fn run_resident<R, F>(&self, n: usize, f: F) -> Vec<Result<R, TaskPanic>>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        run_resident(n, f)
    }

    fn run_inner<R, F>(
        &self,
        n: usize,
        cancel: Option<&CancelToken>,
        f: F,
    ) -> (Vec<Option<Result<R, TaskPanic>>>, FleetStats)
    where
        R: Send + Sync,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.workers().min(n.max(1));
        let slots: Vec<OnceLock<Result<R, TaskPanic>>> = (0..n).map(|_| OnceLock::new()).collect();
        let shared = Shared::new(workers, n, cancel.cloned());
        // Cancelling the token must notify the fleet's parker directly:
        // parked workers observe a drain request the moment it happens,
        // not on the next timeout expiry.
        let _reg = cancel.map(|t| t.register_waker(Arc::clone(&shared.idle)));
        resident::run(workers, |w| worker_loop(w, &shared, &slots, &f));
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let stats = FleetStats {
            workers,
            steals: load(&shared.steals),
            stolen_tasks: load(&shared.stolen_tasks),
            parks: load(&shared.parks),
            per_worker_tasks: shared.per_worker_tasks.iter().map(load).collect(),
            skipped: load(&shared.skipped),
            timeout_wakeups: load(&shared.timeout_wakeups),
        };
        let results = slots.into_iter().map(|s| s.into_inner()).collect();
        (results, stats)
    }
}

/// Runs `n` indexed tasks that are all live at once, each on a thread of
/// its own, and returns their results in index order with
/// [`Pool::run`]'s panic isolation. For tasks that wait on one another —
/// the native backend's stage workers — which [`Pool::run`] does not
/// promise to overlap (an early worker may steal a late one's task): `n`
/// tasks take the calling thread and `n - 1` resident ones, and
/// concurrent runs never share one.
pub fn run_resident<R, F>(n: usize, f: F) -> Vec<Result<R, TaskPanic>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    resident::run(n, |w| run_guarded(w, &f))
}

/// Runs `f(i)` under panic isolation.
fn run_guarded<R, F>(i: usize, f: &F) -> Result<R, TaskPanic>
where
    F: Fn(usize) -> R + Sync,
{
    catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        TaskPanic { index: i, message }
    })
}

/// Fleet-shared scheduling state.
struct Shared {
    /// Per-worker deques of task indices. Workers pop their own from
    /// the front; thieves take from the back.
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Tasks not yet *completed*. Workers may park while this is
    /// nonzero; the worker completing the last task wakes everyone.
    remaining: AtomicUsize,
    /// Park/unpark: idle workers wait here; notified on new stealable
    /// work, on fleet completion, and — when the fleet runs under a
    /// [`CancelToken`] — by the cancel itself (the parker is registered
    /// with the token for the fleet's lifetime).
    idle: Arc<Parker>,
    /// The fleet's cancellation token, if any. Checked before each
    /// dequeued task runs; a fired token turns the task into a skip.
    cancel: Option<CancelToken>,
    steals: AtomicU64,
    stolen_tasks: AtomicU64,
    parks: AtomicU64,
    skipped: AtomicU64,
    timeout_wakeups: AtomicU64,
    per_worker_tasks: Vec<AtomicU64>,
}

impl Shared {
    /// Seeds worker `w` with the contiguous index block static chunking
    /// would have given it (locality).
    fn new(workers: usize, n: usize, cancel: Option<CancelToken>) -> Shared {
        let chunk = n.div_ceil(workers);
        let deques = (0..workers)
            .map(|w| {
                let lo = (w * chunk).min(n);
                let hi = ((w + 1) * chunk).min(n);
                Mutex::new((lo..hi).collect::<VecDeque<usize>>())
            })
            .collect();
        Shared {
            deques,
            remaining: AtomicUsize::new(n),
            idle: Arc::new(Parker::default()),
            cancel,
            steals: AtomicU64::new(0),
            stolen_tasks: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            timeout_wakeups: AtomicU64::new(0),
            per_worker_tasks: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn lock_deque(&self, w: usize) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
        self.deques[w].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// True once the fleet's token has fired (authoritative deadline
    /// poll: one clock read per dequeued task, which is noise next to
    /// whole-simulation task bodies).
    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.poll_expired())
    }

    /// Marks one task complete; wakes all parked workers when it was
    /// the last so they can observe termination and exit.
    fn complete_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.idle.notify();
        }
    }

    /// Steal-half from the richest victim's back. Returns the next task
    /// to run; surplus goes into `w`'s own deque and parked workers are
    /// notified (the surplus is itself stealable).
    fn steal(&self, w: usize) -> Option<usize> {
        let workers = self.deques.len();
        // Richest-victim scan keeps steals rare and fair: one steal
        // rebalances half of the worst backlog instead of one task.
        let mut victim = None;
        for off in 1..workers {
            let v = (w + off) % workers;
            let len = self.lock_deque(v).len();
            if len > 0 && victim.map(|(_, best)| len > best).unwrap_or(true) {
                victim = Some((v, len));
            }
        }
        let (v, _) = victim?;
        let mut taken: VecDeque<usize> = {
            let mut vd = self.lock_deque(v);
            let keep = vd.len() - vd.len().div_ceil(2);
            vd.split_off(keep)
        };
        if taken.is_empty() {
            return None; // the victim was drained while we scanned
        }
        self.steals.fetch_add(1, Ordering::Relaxed);
        self.stolen_tasks
            .fetch_add(taken.len() as u64, Ordering::Relaxed);
        let first = taken.pop_front();
        if !taken.is_empty() {
            self.lock_deque(w).extend(taken);
            // New stealable work: wake parked workers to share it.
            self.idle.notify();
        }
        first
    }
}

/// Coarse backstop for epoch-guarded parks: with every wake path
/// explicit this should never expire; it exists so an unforeseen bug
/// degrades to a half-second hiccup (and a nonzero
/// [`FleetStats::timeout_wakeups`]) instead of a hang.
const PARK_BACKSTOP: Duration = Duration::from_millis(500);

/// One worker's scheduling loop: own deque front → steal-half
/// → epoch-guarded park while tasks remain in flight. The park samples
/// the waker epoch *before* the work scan, so any wake-worthy event
/// after the sample (new stealable work, completion, cancel) bumps the
/// epoch and the park returns immediately — no lost wakeups, and no
/// 1 ms timeout treadmill while a long task holds the fleet open.
fn worker_loop<R, F>(w: usize, shared: &Shared, slots: &[OnceLock<Result<R, TaskPanic>>], f: &F)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    loop {
        // Sampled before the scan: the park below only sleeps while the
        // epoch is still this value.
        let seen = shared.idle.epoch();
        let task = self_pop(shared, w).or_else(|| shared.steal(w));
        match task {
            Some(i) => {
                // A fired token turns every still-queued task into a
                // skip: the slot stays unset (`None` to the caller) and
                // the task is completed without running, so drain
                // latency never depends on queue depth.
                if shared.cancelled() {
                    shared.skipped.fetch_add(1, Ordering::Relaxed);
                    shared.complete_one();
                    continue;
                }
                let r = run_guarded(i, f);
                let _ = slots[i].set(r);
                shared.per_worker_tasks[w].fetch_add(1, Ordering::Relaxed);
                shared.complete_one();
            }
            None => {
                if shared.remaining.load(Ordering::Acquire) == 0 {
                    return;
                }
                // Tasks are still in flight elsewhere: park until an
                // explicit notification (new stealable work, fleet
                // completion, cancellation) bumps the epoch past the
                // pre-scan sample. An event that raced the scan already
                // bumped it, so the wait returns without sleeping. The
                // coarse backstop should never fire; count it when it
                // does so the unit tests can assert it stays zero.
                shared.parks.fetch_add(1, Ordering::Relaxed);
                if shared.idle.park(seen, PARK_BACKSTOP).is_some() {
                    shared.timeout_wakeups.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

fn self_pop(shared: &Shared, w: usize) -> Option<usize> {
    shared.lock_deque(w).pop_front()
}
