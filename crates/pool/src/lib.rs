//! # phloem-pool
//!
//! The host-execution fleet: the one scheduling layer every
//! fleet-shaped consumer in the workspace routes through — the PGO
//! candidate search, `fuzzdiff`'s plan × cut × ablation grids, the
//! figure harnesses' training sweeps and `phloemd`'s batches.
//!
//! ## One cursor
//!
//! A fleet's tasks are the indices `0..n`, and its workers share one
//! atomic cursor: worker `w` runs task `w`, then takes
//! `next.fetch_add(1)` (the cursor starts at the worker count) and runs
//! that task, until the cursor passes `n`. Static chunking
//! (`len.div_ceil(workers)` contiguous blocks, one per thread) loses to
//! uneven task costs: a 4-stage pipeline over the big training graph
//! can cost 50x a 1-stage one over the small graph, and whichever chunk
//! draws the expensive candidates head-of-line-blocks its worker while
//! the rest of the host idles. A cursor cannot: an idle worker is one
//! index away from the next task nobody has started, so a worker idles
//! only once every task has started. Tasks never create tasks, so a
//! worker that finds the cursor past `n` has nothing left to wait for
//! and returns; a fleet never parks. Each task runs under
//! `catch_unwind`: a panicking task yields `Err(TaskPanic)` in its own
//! result slot and cannot take a worker (or the whole fleet) down.
//!
//! This crate is where the workspace gets its threads. A fleet's
//! worker 0 is the caller; the others are **resident** threads, idle
//! between runs rather than spawned and joined by each (`resident.rs`).
//! Tasks that wait on *each other* — the native backend's stage
//! workers — need a thread each, all at once, and a graph app launches
//! them once per round: [`run_resident`] gives them exactly that, with
//! the same panic isolation. How they wait for each other is theirs to
//! decide; nothing here parks.
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

mod cancel;
mod resident;

pub use cancel::CancelToken;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

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
/// affect task results; they exist for the unit tests and for bench
/// diagnostics.
#[derive(Clone, Debug, Default)]
pub struct FleetStats {
    /// Worker threads the fleet actually ran with (clamped to the task
    /// count; 1 means the fleet ran inline on the caller's thread).
    pub workers: usize,
    /// Always 0: no task moves between workers. ROADMAP item 1 deletes
    /// it with the benchmark row that reads it.
    pub steals: u64,
    /// Always 0: a fleet does not park. ROADMAP item 1 deletes it with
    /// the benchmark row that reads it.
    pub parks: u64,
    /// Tasks executed per worker (indexed by worker id).
    pub per_worker_tasks: Vec<u64>,
    /// Tasks skipped because the fleet's [`CancelToken`] fired before
    /// they were taken (always 0 for uncancellable fleets).
    pub skipped: u64,
    /// Always 0: a fleet does not park. ROADMAP item 1 deletes it with
    /// the benchmark row that reads it.
    pub timeout_wakeups: u64,
}

/// The fleet executor: a worker count. Each
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
    /// (explicit cancel or expired deadline), tasks not yet started are
    /// *skipped* — their slots come back `None` — while tasks already
    /// executing finish normally (the task body is expected to observe
    /// the same token cooperatively, as the simulator's watchdog does).
    /// Every worker polls the token before each task it takes, so drain
    /// latency is bounded by the running tasks' own response to the
    /// token — never by the number of tasks left.
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
        // Worker `w` starts at task `w`, then takes the cursor's next
        // index until none is left, and returns how many tasks it ran.
        let next = AtomicUsize::new(workers);
        let skipped = AtomicU64::new(0);
        let per_worker_tasks = resident::run(workers, |w| {
            let mut ran = 0;
            let mut i = w;
            loop {
                if i >= n {
                    return ran;
                }
                // A fired token turns every task not yet started into a
                // skip: its slot stays unset (`None` to the caller).
                // One clock read per task is noise next to a whole
                // simulation.
                if cancel.is_some_and(|t| t.poll_expired()) {
                    skipped.fetch_add(1, Ordering::Relaxed);
                } else {
                    let _ = slots[i].set(run_guarded(i, &f));
                    ran += 1;
                }
                i = next.fetch_add(1, Ordering::Relaxed);
            }
        });
        let stats = FleetStats {
            workers,
            per_worker_tasks,
            skipped: skipped.into_inner(),
            ..FleetStats::default()
        };
        let results = slots.into_iter().map(|s| s.into_inner()).collect();
        (results, stats)
    }
}

/// Runs `n` indexed tasks that are all live at once, each on a thread of
/// its own, and returns their results in index order with
/// [`Pool::run`]'s panic isolation. For tasks that wait on one another —
/// the native backend's stage workers — which [`Pool::run`] does not
/// promise to overlap (a worker that finishes one task takes the next,
/// so two tasks may run one after the other on one thread): `n` tasks
/// take the calling thread and `n - 1` resident ones, and concurrent
/// runs never share one.
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
