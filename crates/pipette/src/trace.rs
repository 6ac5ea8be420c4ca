//! Structured, zero-overhead-when-off event tracing for the timed
//! simulator.
//!
//! The timing world and the scheduler emit [`TraceEvent`]s at every
//! semantically meaningful point of a pipeline invocation: successful
//! queue operations (with the occupancy they leave behind), fine-grained
//! stall attributions (one event per counted stall gap), scheduler
//! park/wake transitions, control-value handler dispatches, RA FSM
//! branch transitions, fault-injection applications, and watchdog
//! verdicts. Events flow into a [`TraceSink`] installed with
//! [`crate::Session::set_trace`].
//!
//! ## Determinism
//!
//! The event stream is a pure function of (pipeline, memory, machine
//! configuration, fault plan): every emit point sits on a code path
//! whose order and operands depend on simulated state only. No event is
//! emitted for a blocked queue attempt, and fault events fire only at
//! the *successful* operation or round boundary that applies them.
//! `tests/golden_cycles.rs` pins stream digests for the golden
//! workloads; `tests/trace_oracle.rs` pins that the trace totals
//! reconcile exactly with [`crate::RunStats`].
//!
//! ## Zero overhead when off
//!
//! Emit sites compile to a single test of a cached interest mask
//! ([`TraceSink::interest`]); with no sink installed the mask is zero
//! and no event is ever constructed. `simspeed` measures the disabled
//! path (sink installed with an empty interest mask vs. no sink) at
//! under 1% and records it in `BENCH_simspeed.json`.

use phloem_ir::Time;
use std::any::Any;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Interest bit: queue traffic ([`TraceEvent::Enq`]/[`TraceEvent::Deq`]).
pub const EV_QUEUE: u32 = 1 << 0;
/// Interest bit: stall attributions ([`TraceEvent::Stall`]).
pub const EV_STALL: u32 = 1 << 1;
/// Interest bit: scheduler transitions ([`TraceEvent::Park`],
/// [`TraceEvent::Wake`], [`TraceEvent::SpuriousWake`],
/// [`TraceEvent::Finish`]).
pub const EV_SCHED: u32 = 1 << 2;
/// Interest bit: control-value handler dispatches
/// ([`TraceEvent::HandlerFire`]).
pub const EV_CTRL: u32 = 1 << 3;
/// Interest bit: RA FSM branch transitions ([`TraceEvent::RaTransition`]).
pub const EV_RA: u32 = 1 << 4;
/// Interest bit: fault-injection applications ([`TraceEvent::FaultLatency`],
/// [`TraceEvent::FaultDeqStall`], [`TraceEvent::FaultSqueeze`],
/// [`TraceEvent::FaultKill`]).
pub const EV_FAULT: u32 = 1 << 5;
/// Interest bit: watchdog / termination verdicts ([`TraceEvent::Verdict`]).
pub const EV_WATCHDOG: u32 = 1 << 6;
/// All interest bits.
pub const EV_ALL: u32 = EV_QUEUE | EV_STALL | EV_SCHED | EV_CTRL | EV_RA | EV_FAULT | EV_WATCHDOG;

/// Stall categories; mirror the [`crate::ThreadStats`] stall counters,
/// so per-kind event sums reconcile exactly with the aggregates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// Waiting for a slot in a full downstream queue.
    QueueFull,
    /// Waiting for data from an empty (or late) upstream queue.
    QueueEmpty,
    /// Backend stalls (memory dependences, window-full).
    Backend,
    /// Frontend stalls (misprediction penalties, fetch resume).
    Frontend,
}

impl StallKind {
    /// Every class, in the order reports list them.
    pub const ALL: [StallKind; 4] = [
        StallKind::QueueFull,
        StallKind::QueueEmpty,
        StallKind::Backend,
        StallKind::Frontend,
    ];

    /// The class as reports and the `search` payload name it.
    pub fn label(self) -> &'static str {
        match self {
            StallKind::QueueFull => "queue-full",
            StallKind::QueueEmpty => "queue-empty",
            StallKind::Backend => "backend",
            StallKind::Frontend => "frontend",
        }
    }

    /// The label of the class with the most `cycles`, the first of
    /// [`StallKind::ALL`] on ties; `"none"` when no class stalled.
    pub fn dominant(cycles: impl Fn(StallKind) -> u64) -> &'static str {
        let mut best = ("none", 0);
        for kind in StallKind::ALL {
            let c = cycles(kind);
            if c > best.1 {
                best = (kind.label(), c);
            }
        }
        best.0
    }
}

/// Why a traced run terminated abnormally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceVerdict {
    /// The watchdog's absolute cycle cap fired.
    CycleLimit,
    /// The watchdog's livelock window fired.
    Livelock,
    /// A scheduler round made no progress with compute stages live.
    Deadlock,
    /// The run ended with fault-killed threads.
    Killed,
}

/// One structured trace event. All fields are plain integers (no
/// allocation on the emit path); stage and queue names come from the
/// per-invocation [`TraceMeta`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A successful enqueue completed at `at`, leaving `occupancy`
    /// entries in the queue.
    Enq {
        /// Architectural queue index.
        queue: u16,
        /// Enqueuing hardware thread (stage index).
        thread: u32,
        /// Completion cycle.
        at: Time,
        /// Entries held *after* this operation.
        occupancy: u32,
    },
    /// A successful dequeue completed at `at`, leaving `occupancy`
    /// entries in the queue.
    Deq {
        /// Architectural queue index.
        queue: u16,
        /// Dequeuing hardware thread (stage index).
        thread: u32,
        /// Completion cycle.
        at: Time,
        /// Entries held *after* this operation.
        occupancy: u32,
    },
    /// `cycles` stall cycles of `kind` were charged to `thread`,
    /// ending at `at` (the span covers `[at - cycles, at)`).
    Stall {
        /// Stalled hardware thread.
        thread: u32,
        /// Attribution (mirrors the `ThreadStats` counters).
        kind: StallKind,
        /// Stall length in cycles.
        cycles: u64,
        /// Cycle at which the stall resolved.
        at: Time,
    },
    /// The scheduler parked `thread` on a queue wait-list.
    Park {
        /// Parked hardware thread.
        thread: u32,
        /// Queue it waits on.
        queue: u16,
        /// True when blocked on a *full* queue (enqueue side).
        full: bool,
        /// The thread's issue cursor at park time.
        at: Time,
    },
    /// A queue event moved `thread` from a wait-list back to ready.
    Wake {
        /// Woken hardware thread.
        thread: u32,
        /// Queue whose event woke it.
        queue: u16,
        /// Completion cycle of the waking operation.
        at: Time,
    },
    /// A woken thread re-blocked without progress (the entry or slot
    /// was claimed first).
    SpuriousWake {
        /// The re-blocked hardware thread.
        thread: u32,
        /// The thread's issue cursor at re-block time.
        at: Time,
    },
    /// A control value dispatched a handler on the consuming thread.
    HandlerFire {
        /// Consuming hardware thread.
        thread: u32,
        /// Queue the control value arrived on.
        queue: u16,
        /// Control-value tag.
        tag: u32,
        /// Completion cycle of the dispatch jump.
        at: Time,
    },
    /// An RA engine's FSM took a sequencing branch (RA stage programs
    /// express the FSM; their branches are its state transitions).
    RaTransition {
        /// RA hardware thread.
        thread: u32,
        /// Static branch site within the stage program.
        site: u32,
        /// Branch direction.
        taken: bool,
        /// Completion cycle of the transition.
        at: Time,
    },
    /// A stage program terminated.
    Finish {
        /// Finished hardware thread.
        thread: u32,
        /// Its final completion time.
        at: Time,
    },
    /// A latency-spike fault added `extra` cycles to an op.
    FaultLatency {
        /// Affected hardware thread.
        thread: u32,
        /// Added cycles.
        extra: u64,
        /// Issue cycle of the affected op.
        at: Time,
    },
    /// A dequeue-stall fault delayed delivery of a dequeued entry.
    FaultDeqStall {
        /// Affected queue.
        queue: u16,
        /// Added delivery cycles.
        extra: u64,
        /// Completion cycle of the affected dequeue.
        at: Time,
    },
    /// An enqueue was admitted while a capacity squeeze was active.
    FaultSqueeze {
        /// Squeezed queue.
        queue: u16,
        /// Effective capacity during the window.
        cap: u32,
        /// Completion cycle of the admitted enqueue.
        at: Time,
    },
    /// A thread-kill fault triggered at a round boundary.
    FaultKill {
        /// Killed hardware thread.
        thread: u32,
        /// Its atom count when the kill fired.
        at_atoms: u64,
    },
    /// The run terminated abnormally.
    Verdict {
        /// Which termination condition fired.
        verdict: TraceVerdict,
        /// Simulated-time frontier when it fired.
        at: Time,
    },
}

impl TraceEvent {
    /// The interest bit ([`EV_QUEUE`], ...) gating this event.
    pub fn interest_bit(&self) -> u32 {
        match self {
            TraceEvent::Enq { .. } | TraceEvent::Deq { .. } => EV_QUEUE,
            TraceEvent::Stall { .. } => EV_STALL,
            TraceEvent::Park { .. }
            | TraceEvent::Wake { .. }
            | TraceEvent::SpuriousWake { .. }
            | TraceEvent::Finish { .. } => EV_SCHED,
            TraceEvent::HandlerFire { .. } => EV_CTRL,
            TraceEvent::RaTransition { .. } => EV_RA,
            TraceEvent::FaultLatency { .. }
            | TraceEvent::FaultDeqStall { .. }
            | TraceEvent::FaultSqueeze { .. }
            | TraceEvent::FaultKill { .. } => EV_FAULT,
            TraceEvent::Verdict { .. } => EV_WATCHDOG,
        }
    }

    /// The canonical form the trace digest folds: an explicit variant
    /// tag, then the event's fields in declaration order, each widened
    /// to `u64` (`bool` as 0/1, [`StallKind`] and [`TraceVerdict`] by
    /// the tables below); slots past the variant's last field are zero.
    /// The tag fixes the arity, so the padding is unambiguous. Tags and
    /// field order are the digest's definition (DESIGN §trace): a
    /// change to either re-pins every recorded digest.
    pub fn words(&self) -> [u64; 5] {
        match *self {
            TraceEvent::Enq {
                queue,
                thread,
                at,
                occupancy,
            } => [1, queue as u64, thread as u64, at, occupancy as u64],
            TraceEvent::Deq {
                queue,
                thread,
                at,
                occupancy,
            } => [2, queue as u64, thread as u64, at, occupancy as u64],
            TraceEvent::Stall {
                thread,
                kind,
                cycles,
                at,
            } => {
                let kind = match kind {
                    StallKind::QueueFull => 0,
                    StallKind::QueueEmpty => 1,
                    StallKind::Backend => 2,
                    StallKind::Frontend => 3,
                };
                [3, thread as u64, kind, cycles, at]
            }
            TraceEvent::Park {
                thread,
                queue,
                full,
                at,
            } => [4, thread as u64, queue as u64, full as u64, at],
            TraceEvent::Wake { thread, queue, at } => [5, thread as u64, queue as u64, at, 0],
            TraceEvent::SpuriousWake { thread, at } => [6, thread as u64, at, 0, 0],
            TraceEvent::HandlerFire {
                thread,
                queue,
                tag,
                at,
            } => [7, thread as u64, queue as u64, tag as u64, at],
            TraceEvent::RaTransition {
                thread,
                site,
                taken,
                at,
            } => [8, thread as u64, site as u64, taken as u64, at],
            TraceEvent::Finish { thread, at } => [9, thread as u64, at, 0, 0],
            TraceEvent::FaultLatency { thread, extra, at } => [10, thread as u64, extra, at, 0],
            TraceEvent::FaultDeqStall { queue, extra, at } => [11, queue as u64, extra, at, 0],
            TraceEvent::FaultSqueeze { queue, cap, at } => [12, queue as u64, cap as u64, at, 0],
            TraceEvent::FaultKill { thread, at_atoms } => [13, thread as u64, at_atoms, 0, 0],
            TraceEvent::Verdict { verdict, at } => {
                let verdict = match verdict {
                    TraceVerdict::CycleLimit => 0,
                    TraceVerdict::Livelock => 1,
                    TraceVerdict::Deadlock => 2,
                    TraceVerdict::Killed => 3,
                };
                [14, verdict, at, 0, 0]
            }
        }
    }
}

/// Description of one hardware thread, carried by [`TraceMeta`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageMeta {
    /// Stage program name.
    pub name: String,
    /// Core the stage is mapped to.
    pub core: usize,
    /// True for reference-accelerator stages.
    pub is_ra: bool,
}

/// Per-invocation context delivered to [`TraceSink::begin`]: everything
/// a sink needs to label the plain-integer events that follow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    /// Pipeline name.
    pub pipeline: String,
    /// Launch base: the cycle at which the invocation starts (session
    /// time plus launch overhead).
    pub base: Time,
    /// One entry per hardware thread, in thread-index order.
    pub stages: Vec<StageMeta>,
    /// Physical capacity of each architectural queue.
    pub queue_capacity: Vec<usize>,
}

/// Receiver for trace events.
///
/// A sink is installed with [`crate::Session::set_trace`] and sees, per
/// pipeline invocation, one [`TraceSink::begin`] call, the event stream,
/// and one [`TraceSink::end`] call with the invocation's makespan.
/// `Any` is a supertrait so callers can recover a concrete sink from the
/// session via [`dyn TraceSink::downcast_ref`].
pub trait TraceSink: Any {
    /// Which event categories this sink wants (an `EV_*` bitmask). The
    /// world caches the mask per invocation: events outside it are never
    /// constructed. Defaults to everything.
    fn interest(&self) -> u32 {
        EV_ALL
    }

    /// Called at the start of each pipeline invocation.
    fn begin(&mut self, _meta: &TraceMeta) {}

    /// Called for each event inside the sink's interest mask.
    fn event(&mut self, ev: &TraceEvent);

    /// Called at the end of each invocation with its makespan (the last
    /// completion time over all threads).
    fn end(&mut self, _makespan: Time) {}
}

impl dyn TraceSink {
    /// Downcasts a boxed sink back to its concrete type.
    pub fn downcast_ref<T: TraceSink>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref()
    }
}

// ---------------------------------------------------------------------
// Ring sink
// ---------------------------------------------------------------------

/// Bounded in-memory sink: keeps the most recent `capacity` events
/// (dropping the oldest beyond that) plus every invocation's
/// [`TraceMeta`]. The test workhorse.
#[derive(Debug, Default)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    /// Events discarded because the ring was full.
    pub dropped: u64,
    /// One meta per invocation seen, in order.
    pub metas: Vec<TraceMeta>,
    /// Makespan reported by the last [`TraceSink::end`].
    pub last_makespan: Time,
}

impl RingSink {
    /// A ring keeping at most `capacity` events.
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            ..Default::default()
        }
    }

    /// A ring that never drops (for oracle tests on bounded workloads).
    pub fn unbounded() -> RingSink {
        RingSink::new(usize::MAX)
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingSink {
    fn begin(&mut self, meta: &TraceMeta) {
        self.metas.push(meta.clone());
    }

    fn event(&mut self, ev: &TraceEvent) {
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(*ev);
    }

    fn end(&mut self, makespan: Time) {
        self.last_makespan = makespan;
    }
}

// ---------------------------------------------------------------------
// Digest sink
// ---------------------------------------------------------------------

/// Streaming FNV-1a hash over the canonical event stream, folded one
/// 64-bit word at a time: per invocation a begin record (pipeline name
/// and base), one word per event — itself the FNV-1a fold of the
/// event's [`TraceEvent::words`] — and an end record (makespan).
/// Golden-trace tests pin the hash: any reordering, insertion, or field
/// change in the stream changes it.
#[derive(Debug)]
pub struct DigestSink {
    hash: u64,
    /// Events folded into the digest.
    pub count: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Record tags of the begin/end folds, past the event tags 1..=14.
const TAG_BEGIN: u64 = 15;
const TAG_END: u64 = 16;

/// One FNV-1a step over a whole word. Bijective in `w` for a fixed `h`
/// and in `h` for a fixed `w` (the prime is odd), so a change to any
/// single word of an event always changes the event's hash, and with
/// it the digest.
#[inline]
fn fold(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

impl DigestSink {
    /// A fresh digest.
    pub fn new() -> DigestSink {
        DigestSink {
            hash: FNV_OFFSET,
            count: 0,
        }
    }

    /// The digest over everything folded so far.
    pub fn digest(&self) -> u64 {
        // Fold the count in so "same hash, fewer events" cannot collide
        // trivially with a truncated stream.
        fold(self.hash, self.count)
    }
}

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink::new()
    }
}

impl TraceSink for DigestSink {
    fn begin(&mut self, meta: &TraceMeta) {
        let name = meta.pipeline.as_bytes();
        let mut h = fold(fold(self.hash, TAG_BEGIN), name.len() as u64);
        for &b in name {
            h = fold(h, b as u64);
        }
        self.hash = fold(h, meta.base);
    }

    #[inline]
    fn event(&mut self, ev: &TraceEvent) {
        // The event's words are hashed from the offset basis, not from
        // the running hash: only the last step waits on the previous
        // event, so the five-multiply chains of successive events
        // overlap (7.4 -> 4.2 ns per event in a tight loop).
        let event = ev.words().into_iter().fold(FNV_OFFSET, fold);
        self.hash = fold(self.hash, event);
        self.count += 1;
    }

    fn end(&mut self, makespan: Time) {
        self.hash = fold(fold(self.hash, TAG_END), makespan);
    }
}

// ---------------------------------------------------------------------
// Noop sink (overhead measurement)
// ---------------------------------------------------------------------

/// A sink that only counts events. Two uses: `counting()` measures the
/// full emit-path cost (event construction + virtual dispatch) with the
/// cheapest possible consumer, and `disabled()` — an empty interest
/// mask — measures the cost of the *disabled* trace layer (the cached
/// mask test alone), which is what the "zero overhead when off" claim
/// is about. `simspeed` runs both.
#[derive(Debug, Default)]
pub struct NoopSink {
    mask: u32,
    /// Events delivered.
    pub events: u64,
}

impl NoopSink {
    /// Full interest mask: every event is constructed and delivered.
    pub fn counting() -> NoopSink {
        NoopSink {
            mask: EV_ALL,
            events: 0,
        }
    }

    /// Empty interest mask: the emit sites see a zero mask, exactly as
    /// with no sink installed.
    pub fn disabled() -> NoopSink {
        NoopSink { mask: 0, events: 0 }
    }
}

impl TraceSink for NoopSink {
    fn interest(&self) -> u32 {
        self.mask
    }

    fn event(&mut self, _ev: &TraceEvent) {
        self.events += 1;
    }
}

// ---------------------------------------------------------------------
// Tee sink
// ---------------------------------------------------------------------

/// Broadcasts events to several sinks (e.g. a Perfetto exporter plus a
/// metrics aggregator in one run). Each child only sees events inside
/// its own interest mask.
#[derive(Default)]
pub struct TeeSink {
    sinks: Vec<Box<dyn TraceSink>>,
}

impl TeeSink {
    /// A tee over the given sinks.
    pub fn new(sinks: Vec<Box<dyn TraceSink>>) -> TeeSink {
        TeeSink { sinks }
    }

    /// Consumes the tee, returning the child sinks.
    pub fn into_inner(self) -> Vec<Box<dyn TraceSink>> {
        self.sinks
    }

    /// Borrows the child sinks (in construction order), e.g. to
    /// `downcast_ref` them after a run.
    pub fn sinks(&self) -> &[Box<dyn TraceSink>] {
        &self.sinks
    }
}

impl TraceSink for TeeSink {
    fn interest(&self) -> u32 {
        self.sinks.iter().fold(0, |m, s| m | s.interest())
    }

    fn begin(&mut self, meta: &TraceMeta) {
        for s in &mut self.sinks {
            s.begin(meta);
        }
    }

    fn event(&mut self, ev: &TraceEvent) {
        let bit = ev.interest_bit();
        for s in &mut self.sinks {
            if s.interest() & bit != 0 {
                s.event(ev);
            }
        }
    }

    fn end(&mut self, makespan: Time) {
        for s in &mut self.sinks {
            s.end(makespan);
        }
    }
}

// ---------------------------------------------------------------------
// Perfetto (Chrome trace event format) sink
// ---------------------------------------------------------------------

/// Exports the event stream in the Chrome trace event format, loadable
/// by Perfetto (`ui.perfetto.dev`) and `chrome://tracing`.
///
/// Mapping: stall spans and park spans become `"X"` (complete) events on
/// the stalled thread's track; queue occupancies become `"C"` (counter)
/// tracks; handler fires, finishes, faults, and verdicts become `"I"`
/// (instant) events. Timestamps are simulated cycles. RA FSM transitions
/// are included by default; they dominate file size on RA-heavy
/// pipelines, and [`PerfettoSink::with_ra_transitions`]`(false)` drops
/// them (the `trace` bin's `--no-ra`).
pub struct PerfettoSink {
    /// Serialized JSON objects, one per Chrome trace event.
    records: Vec<String>,
    /// Pending park per thread: (park cycle, queue, full-side).
    parked: Vec<Option<(Time, u16, bool)>>,
    names_emitted: bool,
    include_ra: bool,
    frontier: Time,
}

impl PerfettoSink {
    /// A fresh exporter.
    pub fn new() -> PerfettoSink {
        PerfettoSink {
            records: Vec::new(),
            parked: Vec::new(),
            names_emitted: false,
            include_ra: true,
            frontier: 0,
        }
    }

    /// Whether to include per-transition RA FSM instants (default: yes).
    pub fn with_ra_transitions(mut self, yes: bool) -> PerfettoSink {
        self.include_ra = yes;
        self
    }

    fn push(&mut self, record: String) {
        self.records.push(record);
    }

    fn close_park(&mut self, thread: u32, until: Time) {
        if let Some(Some((since, q, full))) = self.parked.get_mut(thread as usize).map(Option::take)
        {
            let name = if full {
                "parked (full"
            } else {
                "parked (empty"
            };
            self.push(format!(
                "{{\"name\":\"{} q{})\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}",
                name,
                q,
                since,
                until.saturating_sub(since),
                thread
            ));
        }
    }

    /// Serializes the accumulated trace as a Chrome trace JSON document.
    pub fn to_json(&self) -> String {
        let mut out =
            String::with_capacity(64 + self.records.iter().map(|r| r.len() + 2).sum::<usize>());
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(r);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Number of exported records (tests / diagnostics).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl Default for PerfettoSink {
    fn default() -> Self {
        PerfettoSink::new()
    }
}

/// Minimal JSON string escaping for names coming from stage programs.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl TraceSink for PerfettoSink {
    fn begin(&mut self, meta: &TraceMeta) {
        if self.parked.len() < meta.stages.len() {
            self.parked.resize(meta.stages.len(), None);
        }
        if !self.names_emitted {
            self.names_emitted = true;
            self.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                json_escape(&meta.pipeline)
            ));
            for (i, s) in meta.stages.iter().enumerate() {
                let ra = if s.is_ra { " (RA)" } else { "" };
                self.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}{} [core {}]\"}}}}",
                    i,
                    json_escape(&s.name),
                    ra,
                    s.core
                ));
            }
        }
        self.frontier = self.frontier.max(meta.base);
    }

    fn event(&mut self, ev: &TraceEvent) {
        self.frontier = self.frontier.max(match *ev {
            TraceEvent::Enq { at, .. }
            | TraceEvent::Deq { at, .. }
            | TraceEvent::Stall { at, .. }
            | TraceEvent::Park { at, .. }
            | TraceEvent::Wake { at, .. }
            | TraceEvent::SpuriousWake { at, .. }
            | TraceEvent::HandlerFire { at, .. }
            | TraceEvent::RaTransition { at, .. }
            | TraceEvent::Finish { at, .. }
            | TraceEvent::FaultLatency { at, .. }
            | TraceEvent::FaultDeqStall { at, .. }
            | TraceEvent::FaultSqueeze { at, .. }
            | TraceEvent::Verdict { at, .. } => at,
            TraceEvent::FaultKill { .. } => 0,
        });
        match *ev {
            TraceEvent::Enq {
                queue,
                at,
                occupancy,
                ..
            }
            | TraceEvent::Deq {
                queue,
                at,
                occupancy,
                ..
            } => {
                self.push(format!(
                    "{{\"name\":\"q{} depth\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{\"depth\":{}}}}}",
                    queue, at, occupancy
                ));
            }
            TraceEvent::Stall {
                thread,
                kind,
                cycles,
                at,
            } => {
                let name = match kind {
                    StallKind::QueueFull => "stall: queue full",
                    StallKind::QueueEmpty => "stall: queue empty",
                    StallKind::Backend => "stall: backend",
                    StallKind::Frontend => "stall: frontend",
                };
                self.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"stall\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}",
                    name,
                    at.saturating_sub(cycles),
                    cycles,
                    thread
                ));
            }
            TraceEvent::Park {
                thread,
                queue,
                full,
                at,
            } => {
                if (thread as usize) >= self.parked.len() {
                    self.parked.resize(thread as usize + 1, None);
                }
                self.parked[thread as usize] = Some((at, queue, full));
            }
            TraceEvent::Wake { thread, at, .. } | TraceEvent::SpuriousWake { thread, at } => {
                self.close_park(thread, at);
            }
            TraceEvent::HandlerFire {
                thread,
                queue,
                tag,
                at,
            } => {
                self.push(format!(
                    "{{\"name\":\"handler q{} tag {}\",\"cat\":\"ctrl\",\"ph\":\"I\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
                    queue, tag, at, thread
                ));
            }
            TraceEvent::RaTransition {
                thread,
                site,
                taken,
                at,
            } => {
                if self.include_ra {
                    self.push(format!(
                        "{{\"name\":\"ra b{}={}\",\"cat\":\"ra\",\"ph\":\"I\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
                        site, taken as u8, at, thread
                    ));
                }
            }
            TraceEvent::Finish { thread, at } => {
                self.close_park(thread, at);
                self.push(format!(
                    "{{\"name\":\"finish\",\"cat\":\"sched\",\"ph\":\"I\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
                    at, thread
                ));
            }
            TraceEvent::FaultLatency { thread, extra, at } => {
                self.push(format!(
                    "{{\"name\":\"fault: +{} cy\",\"cat\":\"fault\",\"ph\":\"I\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
                    extra, at, thread
                ));
            }
            TraceEvent::FaultDeqStall { queue, extra, at } => {
                self.push(format!(
                    "{{\"name\":\"fault: q{} deq +{} cy\",\"cat\":\"fault\",\"ph\":\"I\",\"s\":\"g\",\"ts\":{},\"pid\":0}}",
                    queue, extra, at
                ));
            }
            TraceEvent::FaultSqueeze { queue, cap, at } => {
                self.push(format!(
                    "{{\"name\":\"fault: q{} squeezed to {}\",\"cat\":\"fault\",\"ph\":\"I\",\"s\":\"g\",\"ts\":{},\"pid\":0}}",
                    queue, cap, at
                ));
            }
            TraceEvent::FaultKill { thread, at_atoms } => {
                let ts = self.frontier;
                self.push(format!(
                    "{{\"name\":\"fault: killed after {} atoms\",\"cat\":\"fault\",\"ph\":\"I\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
                    at_atoms, ts, thread
                ));
            }
            TraceEvent::Verdict { verdict, at } => {
                self.push(format!(
                    "{{\"name\":\"verdict: {:?}\",\"cat\":\"watchdog\",\"ph\":\"I\",\"s\":\"g\",\"ts\":{},\"pid\":0}}",
                    verdict, at
                ));
            }
        }
    }

    fn end(&mut self, makespan: Time) {
        self.frontier = self.frontier.max(makespan);
        for t in 0..self.parked.len() as u32 {
            self.close_park(t, makespan);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`DigestSink`]'s digest of an event sequence, without begin/end
    /// records.
    fn digest_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> u64 {
        let mut sink = DigestSink::new();
        for ev in events {
            sink.event(ev);
        }
        sink.digest()
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let mut r = RingSink::new(2);
        for k in 0..4u64 {
            r.event(&TraceEvent::Finish { thread: 0, at: k });
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped, 2);
        let ats: Vec<Time> = r
            .events()
            .map(|e| match e {
                TraceEvent::Finish { at, .. } => *at,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ats, vec![2, 3]);
    }

    #[test]
    fn dominant_stall_takes_the_first_class_on_ties() {
        let cycles = |c: [u64; 4]| move |k: StallKind| c[k as usize];
        assert_eq!(StallKind::dominant(cycles([0, 0, 0, 0])), "none");
        assert_eq!(StallKind::dominant(cycles([1, 5, 2, 5])), "queue-empty");
        assert_eq!(StallKind::dominant(cycles([3, 3, 3, 3])), "queue-full");
        assert_eq!(StallKind::dominant(cycles([0, 0, 0, 1])), "frontend");
        let labels = StallKind::ALL.map(StallKind::label);
        assert_eq!(labels, ["queue-full", "queue-empty", "backend", "frontend"]);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = TraceEvent::Finish { thread: 0, at: 1 };
        let b = TraceEvent::Finish { thread: 1, at: 2 };
        assert_ne!(digest_events([&a, &b]), digest_events([&b, &a]));
        assert_eq!(digest_events([&a, &b]), digest_events([&a, &b]));
        // Truncation changes the digest too (count is folded in).
        assert_ne!(digest_events([&a, &b]), digest_events([&a]));
    }

    const VERDICTS: [TraceVerdict; 4] = [
        TraceVerdict::CycleLimit,
        TraceVerdict::Livelock,
        TraceVerdict::Deadlock,
        TraceVerdict::Killed,
    ];

    /// `make` over the field values 1, 2, .. N, and over each of the N
    /// ways to bump exactly one of them.
    fn vary<const N: usize>(
        make: impl Fn([u64; N]) -> TraceEvent,
    ) -> (TraceEvent, Vec<TraceEvent>) {
        let base: [u64; N] = std::array::from_fn(|i| i as u64 + 1);
        let bumped = (0..N).map(|i| {
            let mut v = base;
            v[i] += 1;
            make(v)
        });
        (make(base), bumped.collect())
    }

    /// One row per variant, in declaration order: the event and every
    /// single-field perturbation of it. The struct literals name every
    /// field, so a new field fails to compile here until it is varied.
    fn table() -> Vec<(TraceEvent, Vec<TraceEvent>)> {
        use TraceEvent::*;
        // Field values arrive as words; narrow them per field type.
        let q = |v: u64| v as u16;
        let t = |v: u64| v as u32;
        let flag = |v: u64| v % 2 == 1;
        let kind = |v: u64| StallKind::ALL[v as usize % 4];
        let verdict = |v: u64| VERDICTS[v as usize % 4];
        vec![
            vary(|[a, b, at, d]| Enq {
                queue: q(a),
                thread: t(b),
                at,
                occupancy: t(d),
            }),
            vary(|[a, b, at, d]| Deq {
                queue: q(a),
                thread: t(b),
                at,
                occupancy: t(d),
            }),
            vary(|[a, b, cycles, at]| Stall {
                thread: t(a),
                kind: kind(b),
                cycles,
                at,
            }),
            vary(|[a, b, c, at]| Park {
                thread: t(a),
                queue: q(b),
                full: flag(c),
                at,
            }),
            vary(|[a, b, at]| Wake {
                thread: t(a),
                queue: q(b),
                at,
            }),
            vary(|[a, at]| SpuriousWake { thread: t(a), at }),
            vary(|[a, b, c, at]| HandlerFire {
                thread: t(a),
                queue: q(b),
                tag: t(c),
                at,
            }),
            vary(|[a, b, c, at]| RaTransition {
                thread: t(a),
                site: t(b),
                taken: flag(c),
                at,
            }),
            vary(|[a, at]| Finish { thread: t(a), at }),
            vary(|[a, extra, at]| FaultLatency {
                thread: t(a),
                extra,
                at,
            }),
            vary(|[a, extra, at]| FaultDeqStall {
                queue: q(a),
                extra,
                at,
            }),
            vary(|[a, b, at]| FaultSqueeze {
                queue: q(a),
                cap: t(b),
                at,
            }),
            vary(|[a, at_atoms]| FaultKill {
                thread: t(a),
                at_atoms,
            }),
            vary(|[a, at]| Verdict {
                verdict: verdict(a),
                at,
            }),
        ]
    }

    fn one_of_each() -> Vec<TraceEvent> {
        table().into_iter().map(|(ev, _)| ev).collect()
    }

    #[test]
    fn every_variant_has_its_own_tag() {
        let tags: Vec<u64> = one_of_each().iter().map(|ev| ev.words()[0]).collect();
        assert_eq!(tags, (1..=14).collect::<Vec<u64>>());
    }

    #[test]
    fn any_single_field_change_moves_the_digest() {
        for (ev, changed) in table() {
            let base = digest_events([&ev]);
            for other in changed {
                assert_ne!(ev, other);
                assert_ne!(base, digest_events([&other]), "{ev:?} vs {other:?}");
            }
        }
    }

    #[test]
    fn swapping_adjacent_events_moves_the_digest() {
        let evs = one_of_each();
        let base = digest_events(&evs);
        for i in 0..evs.len() - 1 {
            let mut swapped = evs.clone();
            swapped.swap(i, i + 1);
            assert_ne!(base, digest_events(&swapped), "swap at {i}");
        }
    }

    #[test]
    fn variants_with_equal_fields_digest_apart() {
        // Field-for-field equal pairs: only the tag tells them apart.
        let evs = one_of_each();
        for (a, b) in [(0, 1), (10, 11)] {
            assert_eq!(evs[a].words()[1..], evs[b].words()[1..]);
            assert_ne!(digest_events([&evs[a]]), digest_events([&evs[b]]));
        }
    }

    #[test]
    fn digest_folds_the_event_count() {
        let mut sink = DigestSink::new();
        let empty = sink.digest();
        sink.count += 1;
        assert_ne!(sink.digest(), empty, "count is not folded by digest()");
        // begin/end records are framed apart from events and each other.
        let meta = |pipeline: &str, base| TraceMeta {
            pipeline: pipeline.into(),
            base,
            stages: Vec::new(),
            queue_capacity: Vec::new(),
        };
        let framed = |pipeline: &str, base, makespan| {
            let mut s = DigestSink::new();
            s.begin(&meta(pipeline, base));
            s.end(makespan);
            s.digest()
        };
        let d = framed("p", 1, 2);
        assert_ne!(d, framed("q", 1, 2));
        assert_ne!(d, framed("p", 2, 2));
        assert_ne!(d, framed("p", 1, 3));
        assert_ne!(d, framed("pp", 1, 2));
    }

    #[test]
    fn tee_respects_child_interest() {
        let ring = Box::new(RingSink::unbounded());
        let noop = Box::new(NoopSink::disabled());
        let mut tee = TeeSink::new(vec![ring, noop]);
        assert_eq!(tee.interest(), EV_ALL);
        tee.event(&TraceEvent::Finish { thread: 0, at: 1 });
        let sinks = tee.into_inner();
        let ring = (&*sinks[0] as &dyn TraceSink)
            .downcast_ref::<RingSink>()
            .expect("ring");
        let noop = (&*sinks[1] as &dyn TraceSink)
            .downcast_ref::<NoopSink>()
            .expect("noop");
        assert_eq!(ring.len(), 1);
        assert_eq!(noop.events, 0, "disabled child must not see events");
    }

    #[test]
    fn perfetto_emits_wellformed_records() {
        let mut p = PerfettoSink::new();
        p.begin(&TraceMeta {
            pipeline: "t".into(),
            base: 0,
            stages: vec![StageMeta {
                name: "s\"0".into(),
                core: 0,
                is_ra: false,
            }],
            queue_capacity: vec![8],
        });
        p.event(&TraceEvent::Enq {
            queue: 0,
            thread: 0,
            at: 5,
            occupancy: 1,
        });
        p.event(&TraceEvent::Stall {
            thread: 0,
            kind: StallKind::QueueEmpty,
            cycles: 3,
            at: 9,
        });
        p.event(&TraceEvent::Park {
            thread: 0,
            queue: 0,
            full: false,
            at: 9,
        });
        p.end(20);
        let json = p.to_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"ph\":\"C\""), "counter event missing");
        assert!(json.contains("\"ph\":\"X\""), "span event missing");
        assert!(json.contains("s\\\"0"), "stage name not escaped");
        // The dangling park is closed at the makespan.
        assert!(json.contains("\"dur\":11"), "park span not closed at end");
    }
}
