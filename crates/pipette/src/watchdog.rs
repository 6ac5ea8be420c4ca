//! Forward-progress watchdog: converts livelocks and runaway runs into
//! structured traps carrying a diagnostics snapshot.
//!
//! The timing world records the completion time of the most recent
//! *progress event* — a successful enqueue, a successful dequeue, or a
//! stage finishing — globally and per thread. At every scheduler round
//! boundary the watchdog compares the simulated-time frontier (the
//! latest completion over all threads) against two limits:
//!
//! * **`cycle_cap`** — an absolute bound on session time. Crossing it
//!   raises [`Trap::CycleLimit`]. Off by default; the PGO search uses it
//!   as the per-candidate profiling budget.
//! * **`livelock_window`** — the maximum distance the frontier may run
//!   ahead of the last progress event. A stage spinning on a memory flag
//!   that will never be set (a CV-polling livelock) keeps *executing*,
//!   so deadlock detection never fires — but it stops touching queues,
//!   so this window catches it as [`Trap::Livelock`]. Pipelines without
//!   queues are exempt (a serial stage has no queue activity at all);
//!   their backstop is the op budget and the cycle cap.
//!
//! Both checks run at scheduler round boundaries and compare simulated
//! quantities only (completion times, atom counts), so a watchdog trap
//! fires at the *same simulated cycle with the same message* on every
//! run. `tests/sim_robustness.rs` pins the trap shapes.
//!
//! The diagnostics snapshot lists every thread with its scheduler state,
//! atoms executed, and cycles since its own last progress event, plus
//! all queue occupancies. Deadlock reports append the same snapshot, so
//! all stall-shaped traps share one format.

use crate::timing::TimingWorld;
use phloem_ir::{BlockReason, FlatInterp, Trap};

/// Forward-progress watchdog limits (see the module docs). Part of
/// [`crate::MachineConfig`]; the defaults are safe for every workload in
/// the repo (the slowest golden pipeline finishes in ~115 k cycles,
/// three orders of magnitude under the default window).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Absolute simulated-cycle cap for the session; `u64::MAX`
    /// disables it (the default).
    pub cycle_cap: u64,
    /// Maximum cycles the frontier may advance past the last progress
    /// event before the run is declared livelocked; `u64::MAX` disables
    /// the check.
    pub livelock_window: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            cycle_cap: u64::MAX,
            livelock_window: 4_000_000,
        }
    }
}

impl WatchdogConfig {
    /// Disables both checks (measurement baselines).
    pub fn off() -> Self {
        WatchdogConfig {
            cycle_cap: u64::MAX,
            livelock_window: u64::MAX,
        }
    }
}

/// Which watchdog limit fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The session frontier crossed [`WatchdogConfig::cycle_cap`].
    CycleLimit,
    /// No progress event within [`WatchdogConfig::livelock_window`].
    Livelock,
    /// The session's host-side `CancelToken` fired (wall-clock deadline
    /// or an explicit cancel, e.g. a draining service). Unlike the two
    /// limits above this verdict is *host-timing-driven*: the simulated
    /// state at the firing round is exactly what an uncancelled run
    /// would have had there, but *which* round it fires at depends on
    /// the host clock — so it is never emitted as a trace event.
    Cancelled,
}

/// Cheap per-round check: compares the frontier against both limits.
/// Returns `None` on the hot path without building any diagnostics.
pub(crate) fn verdict(world: &TimingWorld<'_>) -> Option<Verdict> {
    let wd = world.watchdog;
    let frontier = world.frontier();
    if frontier > wd.cycle_cap {
        return Some(Verdict::CycleLimit);
    }
    if wd.livelock_window != u64::MAX
        && world.monitor_queues()
        && frontier.saturating_sub(world.last_progress()) > wd.livelock_window
    {
        return Some(Verdict::Livelock);
    }
    None
}

/// Scheduler-visible thread condition at snapshot time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ThreadCond {
    /// Runnable (or mid-slice) at the round boundary.
    Ready,
    /// Parked on a queue.
    Waiting(BlockReason),
    /// The stage program terminated normally.
    Finished,
    /// Terminated by an injected [`crate::faults::Fault::ThreadKill`].
    Killed,
}

/// One-line occupancy description of a queue (`q3 full 24/24`): the
/// deadlock wait-cycle edges and this snapshot both render through
/// [`crate::queue::QueueOcc`]'s single `Display` impl.
pub(crate) fn qdesc(world: &TimingWorld<'_>, q: phloem_ir::QueueId) -> String {
    world.queues[q.0 as usize].occ(q.0).to_string()
}

/// Renders the shared diagnostics snapshot: per-thread state, atoms
/// executed, cycles since that thread's last progress event, and every
/// queue's occupancy. All quantities are simulated state.
pub(crate) fn render_snapshot(
    world: &TimingWorld<'_>,
    interps: &[FlatInterp<'_>],
    conds: &[ThreadCond],
) -> String {
    let frontier = world.frontier();
    let threads: Vec<String> = interps
        .iter()
        .enumerate()
        .map(|(i, it)| {
            let what = match conds[i] {
                ThreadCond::Ready => "ready".to_string(),
                ThreadCond::Waiting(BlockReason::QueueFull(q)) => {
                    format!("enq blocked, {}", qdesc(world, q))
                }
                ThreadCond::Waiting(BlockReason::QueueEmpty(q)) => {
                    format!("deq blocked, {}", qdesc(world, q))
                }
                ThreadCond::Waiting(BlockReason::Budget) => "preempted".to_string(),
                ThreadCond::Finished => "finished".to_string(),
                ThreadCond::Killed => "killed (fault)".to_string(),
            };
            let ra = if world.threads[i].is_ra { " (RA)" } else { "" };
            let idle = frontier.saturating_sub(world.threads[i].last_progress);
            format!(
                "`{}`{}: {}, atoms={}, idle={}",
                it.name(),
                ra,
                what,
                it.steps(),
                idle
            )
        })
        .collect();
    let queues: Vec<String> = (0..world.queues.len())
        .map(|q| qdesc(world, phloem_ir::QueueId(q as u16)))
        .collect();
    let mut s = format!("snapshot @cycle {}: {}", frontier, threads.join("; "));
    if world.monitor_queues() {
        s.push_str(&format!("; queues: {}", queues.join(", ")));
    }
    s
}

/// Builds the trap for a fired watchdog verdict.
pub(crate) fn fire(
    v: Verdict,
    world: &TimingWorld<'_>,
    interps: &[FlatInterp<'_>],
    conds: &[ThreadCond],
    pipeline_name: &str,
) -> Trap {
    let cycle = world.frontier();
    let detail = format!(
        "pipeline `{}` (window={}, cap={}); {}",
        pipeline_name,
        world.watchdog.livelock_window,
        world.watchdog.cycle_cap,
        render_snapshot(world, interps, conds)
    );
    match v {
        Verdict::CycleLimit => Trap::CycleLimit { cycle, detail },
        Verdict::Livelock => Trap::Livelock { cycle, detail },
        Verdict::Cancelled => Trap::Cancelled {
            cycle,
            detail: format!("reason: {}; {}", world.cancel_reason(), detail),
        },
    }
}

/// Builds the trap for a run that ended with fault-killed threads: a
/// kill can never produce a silent success, even if every surviving
/// compute stage drained cleanly.
pub(crate) fn killed_trap(
    world: &TimingWorld<'_>,
    interps: &[FlatInterp<'_>],
    conds: &[ThreadCond],
    pipeline_name: &str,
) -> Trap {
    Trap::ThreadKilled {
        cycle: world.frontier(),
        detail: format!(
            "pipeline `{}`; {}",
            pipeline_name,
            render_snapshot(world, interps, conds)
        ),
    }
}
