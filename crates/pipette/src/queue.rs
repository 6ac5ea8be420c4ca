//! Hardware FIFO queues: bounded depth, timed entries, slot recycling,
//! and occupancy accounting.
//!
//! A queue entry carries the cycle at which its value becomes *ready*
//! (when the producer's enqueue completes) and the producing core (so
//! cross-core dequeues pay the interconnect latency). Slots are
//! recycled in FIFO order: entry `k` may only be enqueued once the
//! dequeue that freed slot `k - cap` has completed, which is what makes
//! back-pressure visible in simulated time.
//!
//! Every successful enqueue/dequeue is also reported to the scheduler as
//! a [`QueueEvent`], which is how threads parked on a full/empty queue
//! get woken without polling.

use crate::stats::QueueStats;
use phloem_ir::{QueueId, Time, Value};
use std::collections::VecDeque;
use std::fmt;

/// A queue state change that can unblock waiting threads. Carries the
/// operation's completion time, which timestamps the wakeup trace
/// events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum QueueEvent {
    /// A value was enqueued (wakes threads blocked on *empty*).
    Enq(QueueId, Time),
    /// A value was dequeued (wakes threads blocked on *full*).
    Deq(QueueId, Time),
}

/// One-line occupancy description of a queue, e.g. `q3 full 24/24`.
///
/// The single formatting path for queue occupancy in diagnostics: the
/// watchdog snapshot, deadlock wait-cycle edges, and trap messages all
/// render through this `Display` impl, so the format cannot drift
/// between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct QueueOcc {
    /// Architectural queue index.
    pub(crate) id: u16,
    /// Current entries held.
    pub(crate) len: usize,
    /// Physical capacity.
    pub(crate) cap: usize,
}

impl fmt::Display for QueueOcc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fill = if self.len >= self.cap {
            "full"
        } else if self.len == 0 {
            "empty"
        } else {
            "partial"
        };
        write!(f, "q{} {} {}/{}", self.id, fill, self.len, self.cap)
    }
}

#[derive(Clone, Debug)]
pub(crate) struct QueueEntry {
    pub(crate) value: Value,
    /// Cycle at which the value is available to a same-core consumer.
    pub(crate) ready: Time,
    /// Core of the producing thread.
    pub(crate) core: usize,
}

#[derive(Clone, Debug)]
pub(crate) struct HwQueue {
    entries: VecDeque<QueueEntry>,
    cap: usize,
    /// Completion times of past dequeues; slot for entry `k` frees at
    /// `deq_ring[(k - cap) % cap]`.
    deq_ring: Vec<Time>,
    enq_count: u64,
    deq_count: u64,
    /// `deq_count % cap`, maintained incrementally (the ring cursors
    /// keep the per-op path free of the `%` a non-power-of-two capacity
    /// would otherwise cost).
    deq_pos: usize,
    /// `(enq_count - cap) % cap` once `enq_count >= cap` (the slot the
    /// next enqueue waits on); 0 before the ring wraps.
    free_pos: usize,
    pub(crate) stats: QueueStats,
}

impl HwQueue {
    pub(crate) fn new(cap: usize) -> HwQueue {
        HwQueue {
            entries: VecDeque::with_capacity(cap),
            cap,
            deq_ring: vec![0; cap],
            enq_count: 0,
            deq_count: 0,
            deq_pos: 0,
            free_pos: 0,
            stats: QueueStats::new(cap),
        }
    }

    pub(crate) fn is_full(&self) -> bool {
        self.entries.len() >= self.cap
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Ordinal of the next successful enqueue (count so far). Fault
    /// windows key on this: it is identical across schedulers/engines.
    pub(crate) fn enq_ord(&self) -> u64 {
        self.enq_count
    }

    /// Ordinal of the next successful dequeue (count so far).
    pub(crate) fn deq_ord(&self) -> u64 {
        self.deq_count
    }

    /// Earliest cycle at which the next enqueue's slot is free.
    pub(crate) fn slot_free_time(&self) -> Time {
        if self.enq_count >= self.cap as u64 {
            debug_assert_eq!(
                self.free_pos as u64,
                (self.enq_count - self.cap as u64) % self.cap as u64
            );
            self.deq_ring[self.free_pos]
        } else {
            0
        }
    }

    /// Appends an entry; the caller must have checked [`Self::is_full`].
    pub(crate) fn push(&mut self, entry: QueueEntry) {
        debug_assert!(!self.is_full());
        self.entries.push_back(entry);
        self.enq_count += 1;
        if self.enq_count > self.cap as u64 {
            self.free_pos += 1;
            if self.free_pos == self.cap {
                self.free_pos = 0;
            }
        }
        self.stats.enqs += 1;
        self.stats.record(self.entries.len());
    }

    /// Removes the head entry and recycles its slot at `free_at` (the
    /// dequeue's completion time).
    ///
    /// # Panics
    /// Panics if the queue is empty (callers check [`Self::is_empty`]).
    pub(crate) fn pop(&mut self, free_at: Time) -> QueueEntry {
        let entry = self.entries.pop_front().expect("nonempty");
        debug_assert_eq!(self.deq_pos as u64, self.deq_count % self.cap as u64);
        self.deq_ring[self.deq_pos] = free_at;
        self.deq_pos += 1;
        if self.deq_pos == self.cap {
            self.deq_pos = 0;
        }
        self.deq_count += 1;
        self.stats.deqs += 1;
        self.stats.record(self.entries.len());
        entry
    }

    /// Peeks the head entry without removing it.
    pub(crate) fn front(&self) -> Option<&QueueEntry> {
        self.entries.front()
    }

    /// Occupancy snapshot for diagnostics rendering.
    pub(crate) fn occ(&self, id: u16) -> QueueOcc {
        QueueOcc {
            id,
            len: self.len(),
            cap: self.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_recycle_in_fifo_order() {
        let mut q = HwQueue::new(2);
        assert_eq!(q.slot_free_time(), 0);
        q.push(QueueEntry {
            value: Value::I64(1),
            ready: 10,
            core: 0,
        });
        q.push(QueueEntry {
            value: Value::I64(2),
            ready: 20,
            core: 0,
        });
        assert!(q.is_full());
        // Third entry reuses the first slot, which frees at deq time.
        let e = q.pop(55);
        assert_eq!(e.value, Value::I64(1));
        assert_eq!(q.slot_free_time(), 55);
    }

    #[test]
    fn occupancy_stats_track_levels() {
        let mut q = HwQueue::new(4);
        for k in 0..3 {
            q.push(QueueEntry {
                value: Value::I64(k),
                ready: 0,
                core: 0,
            });
        }
        q.pop(1);
        assert_eq!(q.stats.max_occupancy, 3);
        assert_eq!(q.stats.enqs, 3);
        assert_eq!(q.stats.deqs, 1);
        // Levels left behind: 1, 2, 3 (enqs), 2 (deq).
        assert_eq!(q.stats.occupancy_hist, vec![0, 1, 2, 1, 0]);
        assert!((q.stats.mean_occupancy() - 2.0).abs() < 1e-12);
    }

    /// Pins the one shared occupancy format used by every stall-shaped
    /// diagnostic (watchdog snapshot, deadlock edges).
    #[test]
    fn occupancy_display_format_is_pinned() {
        let mut q = HwQueue::new(2);
        assert_eq!(q.occ(3).to_string(), "q3 empty 0/2");
        q.push(QueueEntry {
            value: Value::I64(1),
            ready: 0,
            core: 0,
        });
        assert_eq!(q.occ(3).to_string(), "q3 partial 1/2");
        q.push(QueueEntry {
            value: Value::I64(2),
            ready: 0,
            core: 0,
        });
        assert_eq!(q.occ(3).to_string(), "q3 full 2/2");
    }
}
