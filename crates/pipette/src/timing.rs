//! The cycle-level timing [`World`]: per-thread instruction windows,
//! shared issue bandwidth, branch prediction, the cache hierarchy, and
//! timed hardware queues.
//!
//! ## Timing model
//!
//! Each stage (or RA) runs as a hardware thread driven by the bytecode
//! interpreter ([`FlatInterp`](phloem_ir::FlatInterp)) from `phloem-ir`.
//! The model captures the phenomena the paper's results hinge on:
//!
//! * **Bounded instruction window per thread** (ROB partitioned among
//!   active SMT threads): in-order dispatch, out-of-order completion,
//!   in-order retirement — dependent cache misses serialize while
//!   independent ones overlap up to the window and MSHR limits.
//! * **Shared issue bandwidth** (6 uops/cycle/core across SMT threads).
//! * **Branch misprediction penalties** from a 2-bit predictor, so
//!   data-dependent branches serialize execution.
//! * **Hardware queues** with blocking enq/deq, bounded depth, 1-cycle
//!   operations through the register file, and an inter-core delivery
//!   penalty.
//! * **Reference accelerators** as dedicated FSM threads: no core issue
//!   bandwidth, fixed op latency, limited outstanding accesses.
//! * **Cache hierarchy + DRAM bandwidth** shared by threads and RAs.
//!
//! ## Host layout (SoA arena + calendar ring)
//!
//! All per-thread retirement windows and MSHR rings live in one shared
//! slot arena (`TimingWorld::slots`, see [`SlotRing`]); per-core issue
//! bandwidth lives in a bounded calendar ring ([`IssueTracker`]) whose
//! base advances past reclaimed cycles at round boundaries
//! ([`TimingWorld::advance_to`]), so the clock skips idle stretches
//! without touching them. The unit tests below check the ring against a
//! dense one-byte-per-cycle reference. DESIGN.md § "Timing world"
//! documents the layout and the reclaim-floor invariant.
//!
//! ## Blocked operations have no timing side effects
//!
//! [`World::try_enq`] and [`World::try_deq`] return `Ok(None)` *before*
//! touching any timing state when the queue is full/empty. The
//! event-driven scheduler relies on this: skipping a re-poll of a
//! blocked thread cannot change simulated time, because the poll it
//! skips would have been a pure no-op. Every *successful* queue
//! operation is appended to the [`QueueEvent`] log the scheduler drains
//! to wake waiters.

use crate::branch::BranchPredictor;
use crate::cache::{HitLevel, MemHierarchy};
use crate::config::MachineConfig;
use crate::faults::FaultPlan;
use crate::queue::{HwQueue, QueueEntry, QueueEvent};
use crate::stats::ThreadStats;
use crate::trace::{
    StallKind, TraceEvent, TraceSink, EV_CTRL, EV_FAULT, EV_QUEUE, EV_RA, EV_STALL,
};
use crate::watchdog::{self, Verdict, WatchdogConfig};
use phloem_pool::CancelToken;

use phloem_ir::{
    ArrayId, BinOp, BranchId, MemState, QueueId, StageKind, Tid, Time, Trap, Ty, UopClass, Value,
    World,
};

/// A fixed-length ring of completion timestamps carved out of the shared
/// slot arena (`TimingWorld::slots`). Models both the per-thread
/// retirement window (ROB share / RA outstanding-load limit) and the
/// per-thread MSHR share: `oldest()` is the in-order resource floor, and
/// `replace()` retires the oldest entry with a new completion time.
/// Keeping only `(offset, len, pos)` here and the timestamps themselves
/// in one contiguous arena removes a pointer chase per window/MSHR touch
/// and keeps every thread's hot ring on the same few cache lines.
#[derive(Clone, Copy, Debug)]
struct SlotRing {
    off: u32,
    len: u32,
    pos: u32,
}

impl SlotRing {
    /// Appends `len` slots filled with `fill` to the arena and returns
    /// the ring that owns them.
    fn carve(slots: &mut Vec<Time>, len: usize, fill: Time) -> SlotRing {
        let off = slots.len();
        slots.extend(std::iter::repeat_n(fill, len));
        SlotRing {
            off: off as u32,
            len: len as u32,
            pos: 0,
        }
    }

    /// The oldest (next-to-retire) entry: the resource floor.
    #[inline(always)]
    fn oldest(&self, slots: &[Time]) -> Time {
        slots[(self.off + self.pos) as usize]
    }

    /// Overwrites the oldest entry with `v` and advances the ring.
    #[inline(always)]
    fn replace(&mut self, slots: &mut [Time], v: Time) {
        slots[(self.off + self.pos) as usize] = v;
        let p = self.pos + 1;
        self.pos = if p == self.len { 0 } else { p };
    }
}

#[derive(Debug)]
pub(crate) struct ThreadTiming {
    pub(crate) core: usize,
    pub(crate) is_ra: bool,
    /// Retirement window (compute) / outstanding-load ring (RA).
    win: SlotRing,
    /// Outstanding long-miss limit (fill-buffer share), per thread so
    /// the accounting stays time-coherent.
    mshr: SlotRing,
    last_retire: Time,
    cursor: Time,
    flow: Time,
    /// Latest completion of this thread (hot state; materialized into
    /// [`ThreadStats::finish_time`] when the invocation folds its
    /// statistics).
    pub(crate) finish_time: Time,
    /// Completion time of this thread's most recent progress event
    /// (successful queue op or finish); feeds the watchdog snapshot.
    pub(crate) last_progress: Time,
    predictor: BranchPredictor,
    pub(crate) stats: ThreadStats,
}

impl ThreadTiming {
    /// The thread's issue cursor (the timestamp of scheduler-level
    /// trace events like parks).
    pub(crate) fn cursor(&self) -> Time {
        self.cursor
    }
}

/// Per-core issue-bandwidth tracker: micro-ops issued per cycle, first
/// fit.
///
/// Each core has a bounded power-of-two *calendar ring*:
/// `counts[(head + (t - base)) & mask]` holds the uops issued in cycle
/// `t`; [`IssueTracker::advance`] moves `base` past cycles no in-flight
/// op can claim anymore (the reclaim floor, see
/// [`TimingWorld::advance_to`]), zeroing only the reclaimed span. The
/// working set is the *active* issue span, not the invocation length —
/// this is what lets the clock skip idle stretches without touching (or
/// ever allocating) the skipped cycles.
#[derive(Debug)]
pub(crate) struct IssueTracker {
    /// Issue width in uops/cycle (fits a byte; asserted at build).
    width: u8,
    lanes: Vec<IssueLane>,
}

/// One core's issue calendar.
#[derive(Debug)]
struct IssueLane {
    /// Uops issued per cycle; a ring of power-of-two length.
    counts: Vec<u8>,
    /// Ring slot holding cycle `base`.
    head: usize,
    /// Cycle held by slot `head`; the reclaim floor.
    base: Time,
}

impl IssueLane {
    /// First-fit scan over the calendar ring. `want >= base` is the
    /// reclaim-floor invariant — every
    /// allocation request is at or past the oldest unretired window
    /// entry, and `advance` never moves `base` beyond that floor.
    #[inline]
    fn alloc_ring(&mut self, width: u8, want: Time) -> Time {
        debug_assert!(
            want >= self.base,
            "issue request at cycle {want} below the reclaim floor {}",
            self.base
        );
        let mut off = (want - self.base) as usize;
        loop {
            if off >= self.counts.len() {
                self.grow(off);
            }
            let idx = (self.head + off) & (self.counts.len() - 1);
            if self.counts[idx] < width {
                self.counts[idx] += 1;
                return self.base + off as Time;
            }
            off += 1;
        }
    }

    /// Grows the ring to cover offset `min_off`, unrolling the old
    /// contents to start at slot 0.
    #[cold]
    fn grow(&mut self, min_off: usize) {
        let old_cap = self.counts.len();
        let new_cap = (min_off + 1).next_power_of_two().max(1024);
        let mut counts = vec![0u8; new_cap];
        if old_cap > 0 {
            let mask = old_cap - 1;
            for (k, c) in counts.iter_mut().enumerate().take(old_cap) {
                *c = self.counts[(self.head + k) & mask];
            }
        }
        self.counts = counts;
        self.head = 0;
    }

    /// Advances the reclaim floor to `floor`, zeroing exactly the slots
    /// that held the reclaimed cycles (at most one lap of the ring).
    fn advance(&mut self, floor: Time) {
        let delta = floor.saturating_sub(self.base);
        if delta == 0 {
            return;
        }
        self.base = floor;
        let cap = self.counts.len();
        if cap == 0 {
            return;
        }
        let mask = cap - 1;
        let n = delta.min(cap as Time) as usize;
        for k in 0..n {
            self.counts[(self.head + k) & mask] = 0;
        }
        self.head = (self.head + delta as usize) & mask;
    }
}

impl IssueTracker {
    fn new(cfg: &MachineConfig, base: Time) -> IssueTracker {
        debug_assert!(cfg.issue_width <= u8::MAX as u64);
        IssueTracker {
            width: cfg.issue_width.min(u8::MAX as u64) as u8,
            lanes: (0..cfg.cores)
                .map(|_| IssueLane {
                    counts: Vec::new(),
                    head: 0,
                    base,
                })
                .collect(),
        }
    }

    /// Allocates the earliest issue slot `>= want` on `core` with spare
    /// issue bandwidth.
    #[inline]
    fn alloc(&mut self, core: usize, want: Time) -> Time {
        self.lanes[core].alloc_ring(self.width, want)
    }

    /// Moves every lane's base to `floor`.
    fn advance(&mut self, floor: Time) {
        for lane in &mut self.lanes {
            lane.advance(floor);
        }
    }
}

/// Stall attribution for [`TimingWorld::issue_at`].
#[derive(Clone, Copy)]
enum Attr {
    Normal,
    /// Waiting for a slot in a full downstream queue.
    QueueFull,
    /// Waiting for data from an empty (or late) upstream queue.
    QueueEmpty,
}

/// The events [`TimingWorld::advance_to`] is driven by. Clock
/// advancement (issue-calendar reclamation *and* the watchdog's
/// forward-progress checks) is consolidated behind this one entry point
/// so reclamation can never skip a watchdog window: the only place the
/// clock base moves is also the place the watchdog looks.
pub(crate) enum AdvanceEvent {
    /// A scheduler round boundary: reclaim issue slots up to the window
    /// floor, then run the watchdog verdict.
    RoundEnd,
    /// End of the invocation: final reclamation, no verdict (the run
    /// already completed or trapped).
    InvocationEnd,
}

pub(crate) struct TimingWorld<'a> {
    cfg: &'a MachineConfig,
    hier: &'a mut MemHierarchy,
    mem: &'a MemState,
    pub(crate) queues: Vec<HwQueue>,
    pub(crate) threads: Vec<ThreadTiming>,
    /// Shared slot arena backing every thread's window and MSHR ring
    /// (see [`SlotRing`]).
    slots: Vec<Time>,
    issue: IssueTracker,
    base: Time,
    /// Successful queue operations since the scheduler last drained;
    /// used to wake threads parked on wait-lists. Only operations on
    /// queues some thread is actually parked on (per
    /// [`TimingWorld::wait_flags`]) are logged, so the log stays tiny.
    events: Vec<QueueEvent>,
    /// Per-queue waiter flags maintained by the scheduler
    /// ([`WAIT_EMPTY`] / [`WAIT_FULL`] bits). Purely a host-side
    /// fast-path filter for event logging; no effect on timing.
    pub(crate) wait_flags: Vec<u8>,
    /// Forward-progress limits (copied from the machine config).
    pub(crate) watchdog: WatchdogConfig,
    /// Fault plan for this invocation, if any.
    faults: Option<&'a FaultPlan>,
    /// Host-side cancellation token for this invocation, if any.
    /// Checked only at round boundaries ([`TimingWorld::advance_to`]),
    /// reads host state only, and never mutates anything simulated —
    /// a token that does not fire is observationally free.
    cancel: Option<CancelToken>,
    /// Round counter for [`CancelToken::poll_throttled`].
    cancel_rounds: u32,
    /// Completion time of the most recent progress event across all
    /// threads (successful queue op or finish).
    last_progress: Time,
    /// True when the pipeline has architectural queues: the livelock
    /// monitor only makes sense when queue activity *is* the progress
    /// signal (a queue-less serial stage never produces any).
    monitor_queues: bool,
    /// Trace sink for this invocation, if one is installed.
    trace: Option<&'a mut dyn TraceSink>,
    /// Cached [`TraceSink::interest`] mask (zero with no sink): every
    /// emit site tests this one register before constructing anything,
    /// which is what makes tracing free when off.
    trace_mask: u32,
}

/// Bit in [`TimingWorld::wait_flags`]: a thread is parked on this queue
/// being empty (wake it on enqueue).
pub(crate) const WAIT_EMPTY: u8 = 1;
/// Bit in [`TimingWorld::wait_flags`]: a thread is parked on this queue
/// being full (wake it on dequeue).
pub(crate) const WAIT_FULL: u8 = 2;

impl<'a> TimingWorld<'a> {
    /// Builds the timing world for one pipeline invocation starting at
    /// cycle `base`. `stages` describes each hardware thread (core,
    /// kind, name); window partitioning follows the per-core compute
    /// thread count.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cfg: &'a MachineConfig,
        hier: &'a mut MemHierarchy,
        mem: &'a MemState,
        pipeline: &phloem_ir::Pipeline,
        base: Time,
        faults: Option<&'a FaultPlan>,
        cancel: Option<CancelToken>,
        trace: Option<&'a mut dyn TraceSink>,
    ) -> TimingWorld<'a> {
        let mut compute_per_core = vec![0usize; cfg.cores];
        for s in &pipeline.stages {
            if matches!(s.kind, StageKind::Compute) {
                compute_per_core[s.core] += 1;
            }
        }
        let mut slots: Vec<Time> = Vec::new();
        let threads: Vec<ThreadTiming> = pipeline
            .stages
            .iter()
            .map(|s| {
                let is_ra = matches!(s.kind, StageKind::Ra(_));
                let window = if is_ra {
                    cfg.ra_concurrency
                } else {
                    cfg.window_per_thread(compute_per_core[s.core])
                };
                ThreadTiming {
                    core: s.core,
                    is_ra,
                    win: SlotRing::carve(&mut slots, window.max(1), base),
                    mshr: SlotRing::carve(&mut slots, cfg.mshrs.max(1), base),
                    last_retire: base,
                    cursor: base,
                    flow: base,
                    finish_time: base,
                    last_progress: base,
                    predictor: BranchPredictor::new(),
                    stats: ThreadStats {
                        name: s.program.func.name.clone(),
                        is_ra,
                        finish_time: base,
                        ..Default::default()
                    },
                }
            })
            .collect();
        let nq = pipeline.num_queues.max(1) as usize;
        TimingWorld {
            cfg,
            hier,
            mem,
            queues: (0..nq).map(|_| HwQueue::new(cfg.queue_capacity)).collect(),
            threads,
            slots,
            issue: IssueTracker::new(cfg, base),
            base,
            events: Vec::new(),
            wait_flags: vec![0; nq],
            watchdog: cfg.watchdog,
            faults,
            cancel,
            cancel_rounds: 0,
            last_progress: base,
            monitor_queues: pipeline.num_queues > 0,
            trace_mask: trace.as_ref().map_or(0, |s| s.interest()),
            trace,
        }
    }

    /// Emits one trace event if the sink's interest covers `bit`. The
    /// closure defers event construction past the mask test, so a
    /// disabled (or absent) sink costs exactly one branch per site.
    #[inline(always)]
    pub(crate) fn emit(&mut self, bit: u32, ev: impl FnOnce() -> TraceEvent) {
        if self.trace_mask & bit != 0 {
            if let Some(sink) = self.trace.as_deref_mut() {
                sink.event(&ev());
            }
        }
    }

    /// Simulated-time frontier: the latest completion over all threads.
    pub(crate) fn frontier(&self) -> Time {
        self.threads
            .iter()
            .map(|t| t.finish_time)
            .max()
            .unwrap_or(self.base)
            .max(self.base)
    }

    /// Completion time of the most recent progress event (see the
    /// watchdog docs).
    pub(crate) fn last_progress(&self) -> Time {
        self.last_progress
    }

    /// True when the livelock monitor applies (the pipeline has queues).
    pub(crate) fn monitor_queues(&self) -> bool {
        self.monitor_queues
    }

    /// The issue-calendar reclaim floor: no future allocation can
    /// request a cycle below the oldest unretired window entry of any
    /// compute thread (every `want` is `>= win.oldest()`, window
    /// entries are monotone, and RA threads never allocate issue
    /// slots), so cycles below the minimum are dead and the calendar
    /// base may skip past them.
    fn issue_floor(&self) -> Time {
        self.threads
            .iter()
            .filter(|th| !th.is_ra)
            .map(|th| th.win.oldest(&self.slots))
            .min()
            .unwrap_or(self.base)
    }

    /// The single clock-advancement entry point (see [`AdvanceEvent`]):
    /// moves the issue calendar past reclaimed idle cycles and, at round
    /// boundaries, runs the watchdog verdict. Reclamation is host-side
    /// only — it can never change simulated time, stall attribution,
    /// fault windows (keyed on ordinals/atom counts, queried inline per
    /// op), or trace emission.
    pub(crate) fn advance_to(&mut self, ev: AdvanceEvent) -> Option<Verdict> {
        let floor = self.issue_floor();
        self.issue.advance(floor);
        match ev {
            AdvanceEvent::RoundEnd => {
                // Cancellation shares the watchdog's window boundaries:
                // the one place the clock advances is also the one place
                // a deadline or drain request can stop the run, so a
                // cancelled run's simulated state is exactly an
                // uncancelled run's state at that round.
                if self
                    .cancel
                    .as_ref()
                    .is_some_and(|t| t.poll_throttled(&mut self.cancel_rounds))
                {
                    return Some(Verdict::Cancelled);
                }
                watchdog::verdict(self)
            }
            AdvanceEvent::InvocationEnd => None,
        }
    }

    /// Why the cancel token fired (watchdog trap detail).
    pub(crate) fn cancel_reason(&self) -> String {
        self.cancel.as_ref().map(|t| t.reason()).unwrap_or_default()
    }

    /// Records a stage finishing as a progress event.
    pub(crate) fn note_finish(&mut self, i: usize) {
        let ft = self.threads[i].finish_time;
        self.threads[i].last_progress = self.threads[i].last_progress.max(ft);
        self.last_progress = self.last_progress.max(ft);
    }

    /// Atom count at which the fault plan kills thread `i`, if any.
    pub(crate) fn fault_kill_at(&self, i: usize) -> Option<u64> {
        self.faults.and_then(|f| f.kill_at(i))
    }

    /// Moves the pending queue-event log into `buf` (scheduler wakeup
    /// source); both buffers keep their capacity across calls. Callers
    /// must hand back an empty buffer so no capacity is ever dropped.
    pub(crate) fn drain_events_into(&mut self, buf: &mut Vec<QueueEvent>) {
        debug_assert!(buf.is_empty());
        std::mem::swap(&mut self.events, buf);
    }

    /// Computes the issue time of one op for thread `t` whose inputs are
    /// ready at `dep`, attributing any stall per `attr`.
    ///
    /// `inline(always)`: this is the per-micro-op kernel of the whole
    /// simulator; left to its own devices the compiler keeps it
    /// outlined (it has many callers), which costs ~20% of host time in
    /// call overhead and lost constant propagation.
    #[inline(always)]
    fn issue_at(&mut self, t: Tid, dep: Time, attr: Attr) -> Time {
        let TimingWorld {
            threads,
            issue,
            slots,
            base,
            ..
        } = self;
        let th = &mut threads[t.0 as usize];
        let base = *base;
        let cursor0 = th.cursor;
        // RA engines are sequential FSMs: steps are strictly in order
        // and not bounded by an instruction window or core issue
        // bandwidth (only their outstanding loads are, see `load`). OOO
        // cores execute out of order bounded by the window and the
        // shared issue calendar — but see `last_qop` for queue ops.
        let t_issue = if th.is_ra {
            dep.max(base).max(th.flow).max(cursor0)
        } else {
            let want = dep.max(th.win.oldest(slots)).max(th.flow);
            issue.alloc(th.core, want)
        };
        th.cursor = cursor0.max(t_issue);
        let gap = t_issue.saturating_sub(cursor0.max(base));
        if gap > 0 {
            self.record_stall(t, attr, dep, cursor0, gap, t_issue);
        }
        t_issue
    }

    /// Stall-attribution slow path of [`Self::issue_at`] (`cursor0` is
    /// the thread's cursor *before* this op issued).
    #[cold]
    #[inline(never)]
    fn record_stall(&mut self, t: Tid, attr: Attr, dep: Time, cursor0: Time, gap: u64, at: Time) {
        let th = &mut self.threads[t.0 as usize];
        let kind = match attr {
            Attr::QueueFull => StallKind::QueueFull,
            Attr::QueueEmpty => StallKind::QueueEmpty,
            Attr::Normal => {
                if dep <= th.flow && th.flow > cursor0 {
                    StallKind::Frontend
                } else {
                    StallKind::Backend
                }
            }
        };
        match kind {
            StallKind::QueueFull => th.stats.queue_full_stall_cycles += gap,
            StallKind::QueueEmpty => th.stats.queue_empty_stall_cycles += gap,
            StallKind::Frontend => th.stats.frontend_stall_cycles += gap,
            StallKind::Backend => th.stats.backend_stall_cycles += gap,
        }
        self.emit(EV_STALL, || TraceEvent::Stall {
            thread: t.0,
            kind,
            cycles: gap,
            at,
        });
    }

    /// Retires one op completing at `completion`. Returns the thread so
    /// callers can bump their op counter on the same borrow (one indexed
    /// lookup instead of two on the per-atom hot path).
    #[inline(always)]
    fn complete(&mut self, t: Tid, completion: Time) -> &mut ThreadTiming {
        let TimingWorld { threads, slots, .. } = self;
        let th = &mut threads[t.0 as usize];
        th.finish_time = th.finish_time.max(completion);
        if !th.is_ra {
            // (RA concurrency rings are only advanced by loads, below.)
            let retire = completion.max(th.last_retire);
            th.last_retire = retire;
            th.win.replace(slots, retire);
        }
        th
    }

    /// Applies the RA outstanding-access limit to a load issued at `ti`,
    /// returning the constrained issue time.
    fn ra_load_slot(&mut self, t: Tid, ti_want: Time, lat: u64) -> Time {
        let TimingWorld { threads, slots, .. } = self;
        let th = &mut threads[t.0 as usize];
        let ti = ti_want.max(th.win.oldest(slots));
        th.win.replace(slots, ti + lat);
        ti
    }

    #[inline]
    fn op_latency(&self, t: Tid, class: UopClass) -> u64 {
        if self.threads[t.0 as usize].is_ra {
            self.cfg.ra_op_latency
        } else {
            self.cfg.uop_latency(class)
        }
    }

    /// Timing for one cache-hierarchy access at `addr` (the bounds check
    /// and address translation already happened in the fused
    /// [`MemState::load_with_addr`] / [`MemState::store_with_addr`]
    /// lookup, so this path cannot trap).
    #[inline]
    fn mem_access(&mut self, t: Tid, addr: u64, dep: Time) -> (u64, Time) {
        let t_probe = self.issue_at(t, dep, Attr::Normal);
        let core = self.threads[t.0 as usize].core;
        let (lat, level) = self.hier.access(core, addr, t_probe);
        // Long misses contend for the thread's miss-buffer share.
        let t_issue = if matches!(level, HitLevel::L3 | HitLevel::Mem) {
            let TimingWorld { threads, slots, .. } = self;
            let th = &mut threads[t.0 as usize];
            let ti = t_probe.max(th.mshr.oldest(slots));
            th.mshr.replace(slots, ti + lat);
            ti
        } else {
            t_probe
        };
        (lat, t_issue)
    }

    /// Timing of a load of the element at `addr` issued at `dep`:
    /// cache access, fault latency, the RA outstanding-access limit.
    /// Returns the completion time.
    #[inline]
    fn load_timing(&mut self, t: Tid, addr: u64, dep: Time) -> Time {
        let (lat, mut ti) = self.mem_access(t, addr, dep);
        let lat = match self.faults {
            Some(f) => {
                let extra = f.latency_extra(t.0 as usize, ti);
                if extra > 0 {
                    self.emit(EV_FAULT, || TraceEvent::FaultLatency {
                        thread: t.0,
                        extra,
                        at: ti,
                    });
                }
                lat + extra
            }
            None => lat,
        };
        if self.threads[t.0 as usize].is_ra {
            ti = self.ra_load_slot(t, ti, lat);
        }
        let tc = ti + lat;
        self.complete(t, tc).stats.loads += 1;
        tc
    }

    /// Timing of a store to `addr` issued at `dep`; returns the
    /// completion time.
    #[inline]
    fn store_timing(&mut self, t: Tid, addr: u64, dep: Time) -> Time {
        let (_lat, ti) = self.mem_access(t, addr, dep);
        // Stores drain through the store buffer: retirement is fast.
        let tc = ti + 1;
        self.complete(t, tc).stats.stores += 1;
        tc
    }
}
impl World for TimingWorld<'_> {
    /// The single most frequent [`World`] call: issue, latency, and
    /// retirement fused over one thread borrow (the split
    /// [`TimingWorld::issue_at`]/[`TimingWorld::complete`] pair would
    /// index `threads` three times per micro-op). Semantics — issue
    /// time, stall attribution, fault latency, window retirement, and
    /// trace-event order (stall before fault) — are identical to the
    /// split path the other ops use.
    #[inline]
    fn uop(&mut self, t: Tid, class: UopClass, dep: Time) -> Time {
        let (tc, ti, cursor0, gap, extra) = {
            let TimingWorld {
                cfg,
                threads,
                issue,
                slots,
                base,
                faults,
                ..
            } = &mut *self;
            let th = &mut threads[t.0 as usize];
            let base = *base;
            let cursor0 = th.cursor;
            let (ti, lat) = if th.is_ra {
                (dep.max(base).max(th.flow).max(cursor0), cfg.ra_op_latency)
            } else {
                let want = dep.max(th.win.oldest(slots)).max(th.flow);
                (issue.alloc(th.core, want), cfg.uop_latency(class))
            };
            th.cursor = cursor0.max(ti);
            let gap = ti.saturating_sub(cursor0.max(base));
            let extra = match faults {
                Some(f) => f.latency_extra(t.0 as usize, ti),
                None => 0,
            };
            let tc = ti + lat + extra;
            th.finish_time = th.finish_time.max(tc);
            if !th.is_ra {
                let retire = tc.max(th.last_retire);
                th.last_retire = retire;
                th.win.replace(slots, retire);
            }
            th.stats.uops += 1;
            (tc, ti, cursor0, gap, extra)
        };
        if gap > 0 {
            self.record_stall(t, Attr::Normal, dep, cursor0, gap, ti);
        }
        if extra > 0 {
            self.emit(EV_FAULT, || TraceEvent::FaultLatency {
                thread: t.0,
                extra,
                at: ti,
            });
        }
        tc
    }

    fn note_ctrl_handler(&mut self, t: Tid, q: QueueId, tag: u32, at: Time) {
        self.emit(EV_CTRL, || TraceEvent::HandlerFire {
            thread: t.0,
            queue: q.0,
            tag,
            at,
        });
    }

    #[inline]
    fn branch(&mut self, t: Tid, site: BranchId, taken: bool, cond_ready: Time) -> Time {
        let ti = self.issue_at(t, cond_ready, Attr::Normal);
        let tc = ti + 1;
        let penalty = self.cfg.mispredict_penalty;
        let th = self.complete(t, tc);
        th.stats.branches += 1;
        if th.is_ra {
            // RA FSM sequencing has no speculation; each branch is a
            // state transition of the accelerator's FSM.
            let flow = th.flow;
            self.emit(EV_RA, || TraceEvent::RaTransition {
                thread: t.0,
                site: site.0,
                taken,
                at: tc,
            });
            return flow;
        }
        if th.predictor.mispredicted(site, taken) {
            th.stats.mispredicts += 1;
            let resume = tc + penalty;
            th.stats.frontend_stall_cycles += penalty;
            th.flow = th.flow.max(resume);
            self.emit(EV_STALL, || TraceEvent::Stall {
                thread: t.0,
                kind: StallKind::Frontend,
                cycles: penalty,
                at: resume,
            });
        }
        self.threads[t.0 as usize].flow
    }

    #[inline]
    fn load(
        &mut self,
        t: Tid,
        array: ArrayId,
        index: i64,
        dep: Time,
    ) -> Result<(Value, Time), Trap> {
        let (v, addr) = self.mem.load_with_addr(array, index)?;
        Ok((v, self.load_timing(t, addr, dep)))
    }

    #[inline]
    fn load_word(
        &mut self,
        t: Tid,
        array: ArrayId,
        index: i64,
        ty: Ty,
        dep: Time,
    ) -> Result<(u64, Time), Trap> {
        let (w, addr) = self.mem.load_word(array, index, ty)?;
        Ok((w, self.load_timing(t, addr, dep)))
    }

    #[inline]
    fn store(
        &mut self,
        t: Tid,
        array: ArrayId,
        index: i64,
        value: Value,
        dep: Time,
    ) -> Result<Time, Trap> {
        let addr = self.mem.store_with_addr(array, index, value)?;
        Ok(self.store_timing(t, addr, dep))
    }

    #[inline]
    fn store_word(
        &mut self,
        t: Tid,
        array: ArrayId,
        index: i64,
        w: u64,
        ty: Ty,
        dep: Time,
    ) -> Result<Time, Trap> {
        let addr = self.mem.store_word(array, index, w, ty)?;
        Ok(self.store_timing(t, addr, dep))
    }

    fn atomic_rmw(
        &mut self,
        t: Tid,
        op: BinOp,
        array: ArrayId,
        index: i64,
        value: Value,
        dep: Time,
    ) -> Result<(Value, Time), Trap> {
        let (old, addr) = self.mem.rmw(op, array, index, value)?;
        let (lat, ti) = self.mem_access(t, addr, dep);
        // Atomics pay the access round trip plus locked-RMW overhead
        // (~Skylake `lock xadd` cost).
        let tc = ti + lat + 16;
        let th = self.complete(t, tc);
        th.stats.loads += 1;
        th.stats.stores += 1;
        Ok((old, tc))
    }

    fn try_enq(&mut self, t: Tid, q: QueueId, w: Value, dep: Time) -> Result<Option<Time>, Trap> {
        let qi = q.0 as usize;
        if qi >= self.queues.len() {
            return Err(Trap::BadId(format!("queue {}", q.0)));
        }
        let (full, squeeze) = match self.faults {
            // A squeeze clamps the *admission* check only; physical
            // slot-recycling timing is untouched (effective cap <=
            // physical cap, so the seed full-check is subsumed).
            Some(f) => {
                let q = &self.queues[qi];
                let cap = f.queue_cap(qi, q.enq_ord(), q.capacity());
                let clamped = if cap < q.capacity() { Some(cap) } else { None };
                (q.len() >= cap, clamped)
            }
            None => (self.queues[qi].is_full(), None),
        };
        if full {
            return Ok(None);
        }
        let slot_free = self.queues[qi].slot_free_time();
        let (cursor, is_ra) = {
            let th = &self.threads[t.0 as usize];
            (th.cursor, th.is_ra)
        };
        let waited = slot_free.saturating_sub(dep.max(cursor));
        let lat = self.op_latency(t, UopClass::QueuePush);
        // RA engines "launch memory requests in parallel but deliver
        // loads in order": the FSM issues the enqueue at its own pace and
        // the entry becomes ready when the data arrives.
        let ti = if is_ra {
            self.issue_at(t, slot_free, Attr::QueueFull)
        } else {
            self.issue_at(t, dep.max(slot_free), Attr::QueueFull)
        };
        let tc = (ti + lat).max(if is_ra { dep } else { 0 });
        let extra = waited.saturating_sub(ti.saturating_sub(cursor));
        let core = {
            let th = self.complete(t, tc);
            th.stats.enqs += 1;
            th.stats.queue_full_stall_cycles += extra;
            th.last_progress = th.last_progress.max(tc);
            th.core
        };
        if extra > 0 {
            // Back-pressure wait not already covered by the issue gap:
            // reported as its own QueueFull stall span so event sums
            // reconcile with `queue_full_stall_cycles` exactly.
            self.emit(EV_STALL, || TraceEvent::Stall {
                thread: t.0,
                kind: StallKind::QueueFull,
                cycles: extra,
                at: tc,
            });
        }
        if let Some(cap) = squeeze {
            self.emit(EV_FAULT, || TraceEvent::FaultSqueeze {
                queue: q.0,
                cap: cap as u32,
                at: tc,
            });
        }
        self.last_progress = self.last_progress.max(tc);
        self.queues[qi].push(QueueEntry {
            value: w,
            ready: tc,
            core,
        });
        let occupancy = self.queues[qi].len() as u32;
        self.emit(EV_QUEUE, || TraceEvent::Enq {
            queue: q.0,
            thread: t.0,
            at: tc,
            occupancy,
        });
        if self.wait_flags[qi] & WAIT_EMPTY != 0 {
            self.events.push(QueueEvent::Enq(q, tc));
        }
        Ok(Some(tc))
    }

    fn try_deq(&mut self, t: Tid, q: QueueId, dep: Time) -> Result<Option<(Value, Time)>, Trap> {
        let qi = q.0 as usize;
        if qi >= self.queues.len() {
            return Err(Trap::BadId(format!("queue {}", q.0)));
        }
        if self.queues[qi].is_empty() {
            return Ok(None);
        }
        let (entry_ready, entry_core) = {
            let entry = self.queues[qi].front().expect("nonempty");
            (entry.ready, entry.core)
        };
        let th_core = self.threads[t.0 as usize].core;
        let avail = if entry_core == th_core {
            entry_ready
        } else {
            entry_ready + self.cfg.inter_core_queue_latency
        };
        // A dequeue-stall fault delays delivery of the entry itself (a
        // pure latency addition: it can never turn this successful
        // dequeue into a blocked one).
        let deq_extra = match self.faults {
            Some(f) => f.deq_extra(qi, self.queues[qi].deq_ord()),
            None => 0,
        };
        let avail = avail + deq_extra;
        let lat = self.op_latency(t, UopClass::QueuePop);
        let ti = self.issue_at(t, dep.max(avail.saturating_sub(lat)), Attr::QueueEmpty);
        let tc = (ti + lat).max(avail);
        // (The wait is folded into the Attr::QueueEmpty stall gap.)
        {
            let th = self.complete(t, tc);
            th.stats.deqs += 1;
            th.last_progress = th.last_progress.max(tc);
        }
        self.last_progress = self.last_progress.max(tc);
        if deq_extra > 0 {
            self.emit(EV_FAULT, || TraceEvent::FaultDeqStall {
                queue: q.0,
                extra: deq_extra,
                at: tc,
            });
        }
        let entry = self.queues[qi].pop(tc);
        let occupancy = self.queues[qi].len() as u32;
        self.emit(EV_QUEUE, || TraceEvent::Deq {
            queue: q.0,
            thread: t.0,
            at: tc,
            occupancy,
        });
        if self.wait_flags[qi] & WAIT_FULL != 0 {
            self.events.push(QueueEvent::Deq(q, tc));
        }
        Ok(Some((entry.value, tc)))
    }
}

/// Builds the bytecode interpreters for a pipeline's stages (one
/// hardware thread per stage), each with the given step budget.
pub(crate) fn build_flat_interps<'p>(
    progs: &'p [phloem_ir::BytecodeProgram],
    pipeline: &phloem_ir::Pipeline,
    params: &[(&str, Value)],
    budget: u64,
) -> Vec<phloem_ir::FlatInterp<'p>> {
    progs
        .iter()
        .zip(&pipeline.stages)
        .enumerate()
        .map(|(i, (p, s))| {
            let bound = phloem_ir::bind_params(&s.program.func, params);
            phloem_ir::FlatInterp::new(p, Tid(i as u32), &bound).with_budget(budget)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl IssueLane {
        /// Dense first-fit reference for the ring: byte per cycle since
        /// the base, grown on demand, never reclaimed.
        fn alloc_dense(&mut self, width: u8, want: Time) -> Time {
            let mut slot = (want - self.base) as usize;
            if slot >= self.counts.len() {
                self.counts.resize(slot + 64, 0);
            }
            loop {
                if self.counts[slot] < width {
                    self.counts[slot] += 1;
                    return self.base + slot as Time;
                }
                slot += 1;
                if slot >= self.counts.len() {
                    self.counts.resize(slot + 64, 0);
                }
            }
        }
    }

    fn lane() -> IssueLane {
        IssueLane {
            counts: Vec::new(),
            head: 0,
            base: 100,
        }
    }

    /// The ring and dense layouts are the same first-fit policy: for an
    /// arbitrary allocation sequence (no reclamation), both return the
    /// identical issue times.
    #[test]
    fn ring_and_dense_first_fit_agree() {
        let width = 3u8;
        let mut ring = lane();
        let mut dense = lane();
        let mut s = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..10_000 {
            let want = 100 + next() % 3_000;
            assert_eq!(ring.alloc_ring(width, want), dense.alloc_dense(width, want));
        }
    }

    /// Advancing the ring base past fully-retired cycles never changes
    /// subsequent allocations (requests are always >= the floor).
    #[test]
    fn ring_reclamation_preserves_first_fit() {
        let width = 2u8;
        let mut ring = lane();
        let mut dense = lane();
        let mut s = 0xfeed_f00d_dead_beefu64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut floor = 100u64;
        for round in 0..200 {
            for _ in 0..64 {
                // Monotone-ish floor: requests stay at or above it, as
                // the window-floor invariant guarantees in the world.
                let want = floor + next() % 512;
                assert_eq!(
                    ring.alloc_ring(width, want),
                    dense.alloc_dense(width, want),
                    "diverged in round {round}"
                );
            }
            floor += next() % 300;
            ring.advance(floor);
        }
    }

    /// A floor jump far past the ring's span (a long idle stretch) must
    /// clear the whole calendar, not leave stale counts behind.
    #[test]
    fn ring_survives_a_jump_larger_than_its_capacity() {
        let width = 1u8;
        let mut ring = lane();
        for w in 100..1100 {
            ring.alloc_ring(width, w);
        }
        ring.advance(1_000_000);
        // Every slot must be free again at the new base.
        for w in 0..2048u64 {
            assert_eq!(ring.alloc_ring(width, 1_000_000 + w), 1_000_000 + w);
        }
    }
}
