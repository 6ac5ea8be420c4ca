//! Streaming metrics aggregation over the trace stream: per-stage
//! utilization, queue-depth time series, and critical-stage attribution.
//!
//! [`MetricsSink`] consumes [`crate::trace::TraceEvent`]s as they are
//! emitted — it never buffers the stream — and reduces them to the
//! quantities pipeline tuning needs: where each stage's cycles went
//! (busy vs. per-kind stalls), how full each queue ran over time, and
//! which stage the makespan hinges on. Because every stall event mirrors
//! a `ThreadStats` counter increment and every queue event mirrors a
//! `QueueStats` sample, the aggregates reconcile *exactly* with
//! [`crate::RunStats`]; `tests/trace_oracle.rs` pins that equality.
//!
//! The `trace` bin prints [`MetricsSink::report`]. The figures and the
//! PGO search's per-candidate profile read [`crate::RunStats`] instead,
//! which every run already returns, so neither needs a traced re-run.

use crate::trace::{StallKind, TraceEvent, TraceMeta, TraceSink};
use phloem_ir::Time;
use std::fmt::Write as _;

/// Maximum retained points per queue-depth time series; beyond this the
/// series is decimated 2× (every other point dropped, stride doubled).
const SERIES_CAP: usize = 1024;

/// Aggregated trace-derived counters for one hardware thread.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageMetrics {
    /// Stage program name (from [`TraceMeta`]).
    pub name: String,
    /// True for reference-accelerator stages.
    pub is_ra: bool,
    /// Successful enqueues performed by this stage.
    pub enqs: u64,
    /// Successful dequeues performed by this stage.
    pub deqs: u64,
    /// Control-value handler dispatches on this stage.
    pub handler_fires: u64,
    /// RA FSM branch transitions (RA stages only).
    pub ra_transitions: u64,
    /// Wait-list wakeups.
    pub wakeups: u64,
    /// Wakeups that re-blocked without progress.
    pub spurious_wakeups: u64,
    /// Cycles stalled waiting on full downstream queues.
    pub queue_full_stall_cycles: u64,
    /// Cycles stalled waiting on empty upstream queues.
    pub queue_empty_stall_cycles: u64,
    /// Backend (memory/window) stall cycles.
    pub backend_stall_cycles: u64,
    /// Frontend (misprediction) stall cycles.
    pub frontend_stall_cycles: u64,
    /// Wall cycles spent parked on a wait-list (park → wake spans).
    pub parked_cycles: u64,
    /// Cycles this stage was active, summed over invocations (finish
    /// time minus launch base; makespan-bounded for stages that never
    /// finish, e.g. drained RAs).
    pub active_cycles: u64,
    /// Latest completion time observed for this stage.
    pub finish_time: Time,
}

impl StageMetrics {
    /// Total attributed stall cycles.
    pub fn stall_cycles(&self) -> u64 {
        self.queue_full_stall_cycles
            + self.queue_empty_stall_cycles
            + self.backend_stall_cycles
            + self.frontend_stall_cycles
    }

    /// Fraction of the stage's active window *not* attributed to any
    /// stall (its issue/compute utilization, in `[0, 1]`).
    pub fn utilization(&self) -> f64 {
        if self.active_cycles == 0 {
            return 0.0;
        }
        let busy = self.active_cycles.saturating_sub(self.stall_cycles());
        busy as f64 / self.active_cycles as f64
    }

    /// Name of the stage's largest stall bucket ("none" when fully busy).
    pub fn dominant_stall(&self) -> &'static str {
        let buckets = [
            (self.queue_full_stall_cycles, "queue-full"),
            (self.queue_empty_stall_cycles, "queue-empty"),
            (self.backend_stall_cycles, "backend"),
            (self.frontend_stall_cycles, "frontend"),
        ];
        buckets
            .iter()
            .max_by_key(|(c, _)| *c)
            .filter(|(c, _)| *c > 0)
            .map_or("none", |(_, n)| n)
    }
}

/// Aggregated trace-derived counters for one hardware queue.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueueMetrics {
    /// Physical capacity (from [`TraceMeta`]).
    pub capacity: usize,
    /// Successful enqueues.
    pub enqs: u64,
    /// Successful dequeues.
    pub deqs: u64,
    /// Highest occupancy observed.
    pub max_occupancy: usize,
    /// `occupancy_hist[k]` counts operations that left `k` entries
    /// behind — the same sampling rule as
    /// [`crate::QueueStats::occupancy_hist`], so the two are equal.
    pub occupancy_hist: Vec<u64>,
    /// Approximate ∫ depth d(cycle): depth-weighted cycles between
    /// consecutive queue events (event completion times across threads
    /// are not globally monotone, so negative gaps clamp to zero).
    pub occupancy_cycles: u128,
    /// Downsampled `(cycle, depth)` time series, oldest first.
    pub series: Vec<(Time, u32)>,
    /// Current decimation stride of `series` (1 = every event kept).
    pub series_stride: u64,
    seen: u64,
    last: Option<(Time, u32)>,
}

impl QueueMetrics {
    /// Operation-weighted mean occupancy (matches
    /// [`crate::QueueStats::mean_occupancy`]).
    pub fn mean_occupancy(&self) -> f64 {
        let samples: u64 = self.occupancy_hist.iter().sum();
        if samples == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .occupancy_hist
            .iter()
            .enumerate()
            .map(|(k, c)| k as u64 * c)
            .sum();
        weighted as f64 / samples as f64
    }

    fn sample(&mut self, at: Time, occupancy: u32) {
        self.max_occupancy = self.max_occupancy.max(occupancy as usize);
        if self.occupancy_hist.len() <= occupancy as usize {
            self.occupancy_hist.resize(occupancy as usize + 1, 0);
        }
        self.occupancy_hist[occupancy as usize] += 1;
        if let Some((t0, d0)) = self.last {
            self.occupancy_cycles += d0 as u128 * at.saturating_sub(t0) as u128;
        }
        self.last = Some((at.max(self.last.map_or(0, |(t0, _)| t0)), occupancy));
        if self.series_stride == 0 {
            self.series_stride = 1;
        }
        if self.seen.is_multiple_of(self.series_stride) {
            if self.series.len() >= SERIES_CAP {
                let mut keep = 0;
                self.series.retain(|_| {
                    keep += 1;
                    keep % 2 == 1
                });
                self.series_stride *= 2;
            }
            if self.seen.is_multiple_of(self.series_stride) {
                self.series.push((at, occupancy));
            }
        }
        self.seen += 1;
    }
}

/// Streaming metrics aggregator (see the module docs). Install with
/// [`crate::Session::set_trace`]; read the aggregates after
/// [`crate::Session::take_trace`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSink {
    /// Per-stage aggregates, thread-index ordered.
    pub stages: Vec<StageMetrics>,
    /// Per-queue aggregates, queue-id ordered.
    pub queues: Vec<QueueMetrics>,
    /// Pipeline invocations observed.
    pub invocations: u64,
    /// Launch base of the first invocation.
    pub start: Time,
    /// Makespan of the last invocation.
    pub end: Time,
    /// Abnormal-termination verdicts observed (empty on clean runs).
    pub verdicts: Vec<(crate::trace::TraceVerdict, Time)>,
    base: Time,
    finished: Vec<bool>,
    parked_since: Vec<Option<Time>>,
}

impl MetricsSink {
    /// A fresh aggregator.
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }

    /// Index of the critical stage: the latest-finishing compute stage
    /// — the stage the pipeline's makespan hinges on. `None` before any
    /// invocation or for all-RA pipelines.
    pub fn critical_stage(&self) -> Option<usize> {
        self.stages
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_ra)
            .max_by_key(|(_, s)| s.finish_time)
            .map(|(i, _)| i)
    }

    /// Human-readable profile: per-stage utilization and stall split,
    /// per-queue occupancy, and the critical-stage attribution line.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let span = self.end.saturating_sub(self.start);
        let _ = writeln!(
            out,
            "profile: {} invocation(s), {} cycles",
            self.invocations, span
        );
        let pct = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                100.0 * part as f64 / whole as f64
            }
        };
        for s in &self.stages {
            let ra = if s.is_ra { " (RA)" } else { "" };
            let a = s.active_cycles;
            let _ = writeln!(
                out,
                "  stage `{}`{}: util {:5.1}%  [qfull {:.1}% qempty {:.1}% backend {:.1}% frontend {:.1}% parked {:.1}%]  enq {} deq {} fires {}",
                s.name,
                ra,
                100.0 * s.utilization(),
                pct(s.queue_full_stall_cycles, a),
                pct(s.queue_empty_stall_cycles, a),
                pct(s.backend_stall_cycles, a),
                pct(s.frontend_stall_cycles, a),
                pct(s.parked_cycles, a),
                s.enqs,
                s.deqs,
                s.handler_fires,
            );
        }
        for (q, m) in self.queues.iter().enumerate() {
            if m.enqs == 0 && m.deqs == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  queue q{q}: {} enq / {} deq, mean occ {:.2}, max {}/{}",
                m.enqs,
                m.deqs,
                m.mean_occupancy(),
                m.max_occupancy,
                m.capacity
            );
        }
        if let Some(c) = self.critical_stage() {
            let s = &self.stages[c];
            let _ = writeln!(
                out,
                "  critical stage: `{}` (finish {}), util {:.1}%, dominant stall: {}",
                s.name,
                s.finish_time,
                100.0 * s.utilization(),
                s.dominant_stall(),
            );
        }
        out
    }
}

impl TraceSink for MetricsSink {
    fn begin(&mut self, meta: &TraceMeta) {
        self.invocations += 1;
        if self.invocations == 1 {
            self.start = meta.base;
        }
        self.base = meta.base;
        if self.stages.len() < meta.stages.len() {
            self.stages
                .resize_with(meta.stages.len(), StageMetrics::default);
        }
        for (s, m) in self.stages.iter_mut().zip(&meta.stages) {
            if s.name.is_empty() {
                s.name = m.name.clone();
                s.is_ra = m.is_ra;
            }
        }
        if self.queues.len() < meta.queue_capacity.len() {
            self.queues
                .resize_with(meta.queue_capacity.len(), QueueMetrics::default);
        }
        for (q, &cap) in self.queues.iter_mut().zip(&meta.queue_capacity) {
            q.capacity = q.capacity.max(cap);
            if q.occupancy_hist.len() < cap + 1 {
                q.occupancy_hist.resize(cap + 1, 0);
            }
            // Occupancy restarts from empty each invocation (queues are
            // rebuilt); reset the integral's anchor.
            q.last = Some((meta.base, 0));
        }
        self.finished.clear();
        self.finished.resize(self.stages.len(), false);
        self.parked_since.clear();
        self.parked_since.resize(self.stages.len(), None);
    }

    fn event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Enq {
                queue,
                thread,
                at,
                occupancy,
            } => {
                if let Some(s) = self.stages.get_mut(thread as usize) {
                    s.enqs += 1;
                }
                if let Some(q) = self.queues.get_mut(queue as usize) {
                    q.enqs += 1;
                    q.sample(at, occupancy);
                }
            }
            TraceEvent::Deq {
                queue,
                thread,
                at,
                occupancy,
            } => {
                if let Some(s) = self.stages.get_mut(thread as usize) {
                    s.deqs += 1;
                }
                if let Some(q) = self.queues.get_mut(queue as usize) {
                    q.deqs += 1;
                    q.sample(at, occupancy);
                }
            }
            TraceEvent::Stall {
                thread,
                kind,
                cycles,
                ..
            } => {
                if let Some(s) = self.stages.get_mut(thread as usize) {
                    match kind {
                        StallKind::QueueFull => s.queue_full_stall_cycles += cycles,
                        StallKind::QueueEmpty => s.queue_empty_stall_cycles += cycles,
                        StallKind::Backend => s.backend_stall_cycles += cycles,
                        StallKind::Frontend => s.frontend_stall_cycles += cycles,
                    }
                }
            }
            TraceEvent::Park { thread, at, .. } => {
                if let Some(p) = self.parked_since.get_mut(thread as usize) {
                    *p = Some(at);
                }
            }
            TraceEvent::Wake { thread, at, .. } => {
                if let Some(s) = self.stages.get_mut(thread as usize) {
                    s.wakeups += 1;
                    if let Some(since) = self
                        .parked_since
                        .get_mut(thread as usize)
                        .and_then(Option::take)
                    {
                        s.parked_cycles += at.saturating_sub(since);
                    }
                }
            }
            TraceEvent::SpuriousWake { thread, .. } => {
                if let Some(s) = self.stages.get_mut(thread as usize) {
                    s.spurious_wakeups += 1;
                }
            }
            TraceEvent::HandlerFire { thread, .. } => {
                if let Some(s) = self.stages.get_mut(thread as usize) {
                    s.handler_fires += 1;
                }
            }
            TraceEvent::RaTransition { thread, .. } => {
                if let Some(s) = self.stages.get_mut(thread as usize) {
                    s.ra_transitions += 1;
                }
            }
            TraceEvent::Finish { thread, at } => {
                let ti = thread as usize;
                if let Some(f) = self.finished.get_mut(ti) {
                    *f = true;
                }
                if let Some(s) = self.stages.get_mut(ti) {
                    s.finish_time = s.finish_time.max(at);
                    s.active_cycles += at.saturating_sub(self.base);
                }
            }
            TraceEvent::Verdict { verdict, at } => {
                self.verdicts.push((verdict, at));
            }
            TraceEvent::FaultLatency { .. }
            | TraceEvent::FaultDeqStall { .. }
            | TraceEvent::FaultSqueeze { .. }
            | TraceEvent::FaultKill { .. } => {}
        }
    }

    fn end(&mut self, makespan: Time) {
        self.end = makespan;
        // Stages that never finished this invocation (drained RAs, or
        // compute stages of a trapped run) were active to the makespan.
        for (i, s) in self.stages.iter_mut().enumerate() {
            if !self.finished.get(i).copied().unwrap_or(true) {
                s.finish_time = s.finish_time.max(makespan);
                s.active_cycles += makespan.saturating_sub(self.base);
            }
        }
        for q in &mut self.queues {
            if let Some((t0, d0)) = q.last.take() {
                q.occupancy_cycles += d0 as u128 * makespan.saturating_sub(t0) as u128;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StageMeta;

    fn meta() -> TraceMeta {
        TraceMeta {
            pipeline: "p".into(),
            base: 100,
            stages: vec![
                StageMeta {
                    name: "gen".into(),
                    core: 0,
                    is_ra: false,
                },
                StageMeta {
                    name: "ra".into(),
                    core: 0,
                    is_ra: true,
                },
            ],
            queue_capacity: vec![4],
        }
    }

    #[test]
    fn aggregates_reduce_the_stream() {
        let mut m = MetricsSink::new();
        m.begin(&meta());
        m.event(&TraceEvent::Enq {
            queue: 0,
            thread: 0,
            at: 110,
            occupancy: 1,
        });
        m.event(&TraceEvent::Stall {
            thread: 0,
            kind: StallKind::Backend,
            cycles: 20,
            at: 130,
        });
        m.event(&TraceEvent::Deq {
            queue: 0,
            thread: 1,
            at: 140,
            occupancy: 0,
        });
        m.event(&TraceEvent::Finish { thread: 0, at: 200 });
        m.end(210);
        assert_eq!(m.stages[0].enqs, 1);
        assert_eq!(m.stages[1].deqs, 1);
        assert_eq!(m.stages[0].backend_stall_cycles, 20);
        // Stage 0: active 200-100=100, stalled 20 → util 0.8.
        assert!((m.stages[0].utilization() - 0.8).abs() < 1e-12);
        // Stage 1 never finished: active to makespan.
        assert_eq!(m.stages[1].active_cycles, 110);
        assert_eq!(m.queues[0].enqs, 1);
        assert_eq!(m.queues[0].deqs, 1);
        assert_eq!(m.queues[0].occupancy_hist[..2], [1, 1]);
        // Integral: 0 until 110, 1 entry for [110, 140), 0 after.
        assert_eq!(m.queues[0].occupancy_cycles, 30);
        assert_eq!(m.critical_stage(), Some(0));
        let report = m.report();
        assert!(report.contains("critical stage: `gen`"));
        assert!(report.contains("dominant stall: backend"));
    }

    #[test]
    fn series_decimates_beyond_cap() {
        let mut m = MetricsSink::new();
        m.begin(&meta());
        for k in 0..(SERIES_CAP as u64 * 4) {
            m.event(&TraceEvent::Enq {
                queue: 0,
                thread: 0,
                at: 100 + k,
                occupancy: (k % 4) as u32,
            });
        }
        assert!(m.queues[0].series.len() <= SERIES_CAP);
        assert!(m.queues[0].series_stride >= 4);
        // Oldest-first and strictly increasing timestamps survive.
        let s = &m.queues[0].series;
        assert!(s.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
