//! Run statistics: per-thread execution counters, the Fig. 10 cycle
//! breakdown, and roll-ups across pipeline invocations.

use crate::cache::CacheStats;
use crate::energy::EnergyBreakdown;
use crate::trace::StallKind;
use phloem_ir::Time;

/// Counters for one hardware thread (stage or RA).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreadStats {
    /// Stage name.
    pub name: String,
    /// True for reference-accelerator stages.
    pub is_ra: bool,
    /// Micro-ops issued.
    pub uops: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Mispredictions.
    pub mispredicts: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Queue enqueues.
    pub enqs: u64,
    /// Queue dequeues.
    pub deqs: u64,
    /// Cycles lost blocked on full/empty queues (sum of the full/empty
    /// splits below).
    pub queue_stall_cycles: u64,
    /// Cycles lost waiting for a slot in a full downstream queue.
    pub queue_full_stall_cycles: u64,
    /// Cycles lost waiting for data in an empty upstream queue.
    pub queue_empty_stall_cycles: u64,
    /// Cycles lost to backend stalls (memory deps, window-full).
    pub backend_stall_cycles: u64,
    /// Cycles lost to frontend causes (misprediction penalties).
    pub frontend_stall_cycles: u64,
    /// Times this thread was moved from a wait-list back to the ready
    /// set by a queue event.
    pub wakeups: u64,
    /// Wakeups that re-blocked without progress (the awaited entry or
    /// slot was claimed by another thread first).
    pub spurious_wakeups: u64,
    /// Time of the thread's last completed operation.
    pub finish_time: Time,
}

impl ThreadStats {
    /// Dynamic operations of every kind this thread committed.
    pub fn ops(&self) -> u64 {
        self.uops + self.branches + self.loads + self.stores + self.enqs + self.deqs
    }

    /// Cycles lost to one stall class.
    pub fn stall(&self, kind: StallKind) -> u64 {
        match kind {
            StallKind::QueueFull => self.queue_full_stall_cycles,
            StallKind::QueueEmpty => self.queue_empty_stall_cycles,
            StallKind::Backend => self.backend_stall_cycles,
            StallKind::Frontend => self.frontend_stall_cycles,
        }
    }
}

/// Occupancy and traffic counters for one hardware queue.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueueStats {
    /// Configured depth.
    pub capacity: usize,
    /// Successful enqueues.
    pub enqs: u64,
    /// Successful dequeues.
    pub deqs: u64,
    /// Highest occupancy observed.
    pub max_occupancy: usize,
    /// `occupancy_hist[k]` counts enq/deq operations that left the queue
    /// holding `k` entries (length `capacity + 1`).
    pub occupancy_hist: Vec<u64>,
}

impl QueueStats {
    /// Creates zeroed stats for a queue of the given depth.
    pub fn new(capacity: usize) -> QueueStats {
        QueueStats {
            capacity,
            occupancy_hist: vec![0; capacity + 1],
            ..Default::default()
        }
    }

    /// Records the occupancy left behind by one enq/deq.
    pub fn record(&mut self, occupancy: usize) {
        self.max_occupancy = self.max_occupancy.max(occupancy);
        if let Some(slot) = self.occupancy_hist.get_mut(occupancy) {
            *slot += 1;
        }
    }

    /// Operation-weighted mean occupancy.
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

    /// Merges another queue's counters into this one (positional roll-up
    /// across invocations).
    pub fn merge(&mut self, other: &QueueStats) {
        self.capacity = self.capacity.max(other.capacity);
        self.enqs += other.enqs;
        self.deqs += other.deqs;
        self.max_occupancy = self.max_occupancy.max(other.max_occupancy);
        if self.occupancy_hist.len() < other.occupancy_hist.len() {
            self.occupancy_hist.resize(other.occupancy_hist.len(), 0);
        }
        for (mine, theirs) in self.occupancy_hist.iter_mut().zip(&other.occupancy_hist) {
            *mine += theirs;
        }
    }
}

/// The Fig. 10 cycle-breakdown categories, in core-cycle units summed
/// over compute threads.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CycleBreakdown {
    /// Cycles spent issuing micro-ops (uops / issue width).
    pub issue: f64,
    /// Backend stalls (memory latency, window-full).
    pub backend: f64,
    /// Full/empty queue stalls.
    pub queue: f64,
    /// Other (frontend / misprediction) stalls.
    pub other: f64,
}

impl CycleBreakdown {
    /// Sum of all categories.
    pub fn total(&self) -> f64 {
        self.issue + self.backend + self.queue + self.other
    }
}

/// Statistics from one run (or an accumulated session).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStats {
    /// End-to-end cycles (makespan, including launch overheads).
    pub cycles: Time,
    /// Per-thread counters (one entry per stage of the last pipeline;
    /// accumulated by stage index across invocations in a session).
    pub threads: Vec<ThreadStats>,
    /// Per-queue occupancy/traffic counters (queue-id indexed;
    /// accumulated across invocations in a session).
    pub queues: Vec<QueueStats>,
    /// Cache hierarchy counters.
    pub cache: CacheStats,
    /// Energy totals.
    pub energy: EnergyBreakdown,
    /// Pipeline launches performed.
    pub invocations: u64,
}

impl RunStats {
    /// Total instructions including RA operations.
    pub fn total_ops(&self) -> u64 {
        self.threads.iter().map(ThreadStats::ops).sum()
    }

    /// The critical stage: the latest-finishing compute stage, the one
    /// the makespan hinges on (RA helpers drain after it and never
    /// count). `None` for a run with no compute stage.
    pub fn critical_stage(&self) -> Option<&ThreadStats> {
        let compute = self.threads.iter().filter(|t| !t.is_ra);
        compute.max_by_key(|t| t.finish_time)
    }

    /// Builds the Fig. 10 breakdown from per-thread counters.
    pub fn cycle_breakdown(&self, issue_width: u64) -> CycleBreakdown {
        let mut b = CycleBreakdown::default();
        for t in self.threads.iter().filter(|t| !t.is_ra) {
            b.issue += t.ops() as f64 / issue_width as f64;
            b.backend += t.backend_stall_cycles as f64;
            b.queue += t.queue_stall_cycles as f64;
            b.other += t.frontend_stall_cycles as f64;
        }
        b
    }

    /// Accumulates another run's statistics (stage-indexed threads are
    /// merged positionally; used by sessions running many invocations).
    pub fn accumulate(&mut self, other: &RunStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.invocations += other.invocations;
        self.cache = other.cache; // hierarchy counters are cumulative already
        self.energy = other.energy;
        if self.threads.len() < other.threads.len() {
            self.threads
                .resize(other.threads.len(), ThreadStats::default());
        }
        for (mine, theirs) in self.threads.iter_mut().zip(&other.threads) {
            if mine.name.is_empty() {
                mine.name = theirs.name.clone();
                mine.is_ra = theirs.is_ra;
            }
            mine.uops += theirs.uops;
            mine.branches += theirs.branches;
            mine.mispredicts += theirs.mispredicts;
            mine.loads += theirs.loads;
            mine.stores += theirs.stores;
            mine.enqs += theirs.enqs;
            mine.deqs += theirs.deqs;
            mine.queue_stall_cycles += theirs.queue_stall_cycles;
            mine.queue_full_stall_cycles += theirs.queue_full_stall_cycles;
            mine.queue_empty_stall_cycles += theirs.queue_empty_stall_cycles;
            mine.backend_stall_cycles += theirs.backend_stall_cycles;
            mine.frontend_stall_cycles += theirs.frontend_stall_cycles;
            mine.wakeups += theirs.wakeups;
            mine.spurious_wakeups += theirs.spurious_wakeups;
            mine.finish_time = mine.finish_time.max(theirs.finish_time);
        }
        if self.queues.len() < other.queues.len() {
            self.queues
                .resize_with(other.queues.len(), QueueStats::default);
        }
        for (mine, theirs) in self.queues.iter_mut().zip(&other.queues) {
            mine.merge(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_skips_ras() {
        let stats = RunStats {
            cycles: 100,
            threads: vec![
                ThreadStats {
                    name: "s0".into(),
                    uops: 60,
                    backend_stall_cycles: 10,
                    ..Default::default()
                },
                ThreadStats {
                    name: "ra".into(),
                    is_ra: true,
                    uops: 1000,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        let b = stats.cycle_breakdown(6);
        assert_eq!(b.issue, 10.0);
        assert_eq!(b.backend, 10.0);
    }

    #[test]
    fn breakdown_total_sums_all_categories() {
        let b = CycleBreakdown {
            issue: 1.0,
            backend: 2.0,
            queue: 3.0,
            other: 4.0,
        };
        assert_eq!(b.total(), 10.0);
    }

    #[test]
    fn queue_stats_record_ignores_out_of_range_occupancy() {
        let mut q = QueueStats::new(2);
        q.record(0);
        q.record(2);
        q.record(99); // beyond capacity: dropped, not a panic
        assert_eq!(q.occupancy_hist, vec![1, 0, 1]);
        // max_occupancy still tracks the raw value (diagnostic).
        assert_eq!(q.max_occupancy, 99);
    }

    #[test]
    fn queue_stats_merge_adds_counters_and_grows_the_histogram() {
        let mut a = QueueStats::new(2);
        a.enqs = 3;
        a.deqs = 2;
        a.record(1);
        let mut b = QueueStats::new(4);
        b.enqs = 10;
        b.deqs = 20;
        b.record(4);
        a.merge(&b);
        assert_eq!(a.capacity, 4);
        assert_eq!(a.enqs, 13);
        assert_eq!(a.deqs, 22);
        assert_eq!(a.max_occupancy, 4);
        assert_eq!(a.occupancy_hist, vec![0, 1, 0, 0, 1]);
        // Mean over both samples: (1 + 4) / 2.
        assert!((a.mean_occupancy() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mean_occupancy_of_an_untouched_queue_is_zero() {
        assert_eq!(QueueStats::new(8).mean_occupancy(), 0.0);
    }

    #[test]
    fn accumulate_merges_threads_positionally_and_keeps_maxima() {
        let t = |name: &str, uops, stall, finish| ThreadStats {
            name: name.into(),
            uops,
            backend_stall_cycles: stall,
            finish_time: finish,
            wakeups: 1,
            ..Default::default()
        };
        let mut acc = RunStats {
            cycles: 100,
            invocations: 1,
            threads: vec![t("s0", 10, 5, 90)],
            queues: vec![QueueStats::new(2)],
            ..Default::default()
        };
        let other = RunStats {
            cycles: 80,
            invocations: 2,
            threads: vec![t("s0", 7, 3, 95), t("ra", 100, 0, 70)],
            queues: vec![QueueStats::new(2), QueueStats::new(2)],
            ..Default::default()
        };
        acc.accumulate(&other);
        // Makespan keeps the max, invocations add.
        assert_eq!(acc.cycles, 100);
        assert_eq!(acc.invocations, 3);
        // Positional merge: counters add, finish keeps the max, the new
        // thread slot appears with the incoming name.
        assert_eq!(acc.threads.len(), 2);
        assert_eq!(acc.threads[0].uops, 17);
        assert_eq!(acc.threads[0].backend_stall_cycles, 8);
        assert_eq!(acc.threads[0].finish_time, 95);
        assert_eq!(acc.threads[0].wakeups, 2);
        assert_eq!(acc.threads[1].name, "ra");
        assert_eq!(acc.queues.len(), 2);
    }

    #[test]
    fn accumulate_near_u64_max_saturates_finish_and_cycle_maxima() {
        // The max-based fields must survive extreme counter values
        // without wrapping (additions are the caller's contract; the
        // max/merge paths are ours).
        let big = ThreadStats {
            name: "s0".into(),
            finish_time: u64::MAX,
            ..Default::default()
        };
        let mut acc = RunStats {
            cycles: u64::MAX,
            threads: vec![big.clone()],
            ..Default::default()
        };
        acc.accumulate(&RunStats {
            cycles: 1,
            threads: vec![ThreadStats {
                name: "s0".into(),
                finish_time: 1,
                ..Default::default()
            }],
            ..Default::default()
        });
        assert_eq!(acc.cycles, u64::MAX);
        assert_eq!(acc.threads[0].finish_time, u64::MAX);
    }
}
