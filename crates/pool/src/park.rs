//! The one parker: where the native backend's blocked stage workers
//! sleep, the only threads in the workspace that wait for another. A
//! fleet never parks: its tasks never create tasks, so a worker with
//! nothing left to take returns.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// An epoch-guarded park. Every [`Parker::notify`] bumps a monotonic
/// **epoch**; a waiter samples it with [`Parker::epoch`] *before*
/// scanning for work and [`Parker::park`]s only while it still has that
/// value. An event between the scan and the park has bumped it, so the
/// park returns at once: no wakeup is lost, and the timeout is a
/// backstop, not a poll.
///
/// The notify path is one SeqCst `fetch_add` and one load while nobody
/// is parked: a parker announces itself in `parked` (SeqCst) before it
/// re-reads the epoch under the lock, so a notifier that sees nobody
/// there is guaranteed the would-be parker sees its bump (Dekker).
#[derive(Default)]
pub struct Parker {
    epoch: AtomicU64,
    /// Threads inside [`Parker::park`].
    parked: AtomicUsize,
    waiting: Mutex<Waiting>,
    cv: Condvar,
}

/// How many waiters are parked having seen `epoch`, the newest epoch
/// any has parked at. Keyed by epoch because `parked` alone over-counts:
/// a waiter woken by a bump stays in `parked` until the host schedules
/// it again, which under load can outlast a peer's whole timeout. A
/// newer registration voids every older one at once.
#[derive(Default)]
struct Waiting {
    epoch: u64,
    count: usize,
}

impl Parker {
    /// The current epoch. Sample it *before* scanning for work, then
    /// pass it to [`Parker::park`].
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Bumps the epoch and wakes every parked waiter; takes the lock only
    /// when somebody is parked.
    #[inline]
    pub fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _g = self.waiting.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }

    /// Parks until the epoch moves past `seen` or `timeout` elapses.
    /// Returns `None` when the epoch moved (at once if it already had),
    /// and on a timeout `Some(n)`: the waiters, this one included, parked
    /// at `seen` when it expired — what a deadlock rule compares with the
    /// number of threads that could still notify.
    pub fn park(&self, seen: u64, timeout: Duration) -> Option<usize> {
        self.parked.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + timeout;
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
                // so this waiter is among the count.
                timed_out = Some(g.count);
                break;
            }
            g = self
                .cv
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        if g.epoch == seen {
            g.count -= 1;
        }
        drop(g);
        self.parked.fetch_sub(1, Ordering::SeqCst);
        timed_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_notify_between_sample_and_park_is_not_lost() {
        let p = Parker::default();
        // Notification between the epoch sample and the park: the park
        // must return at once instead of sleeping out the timeout —
        // exactly the lost-wakeup window the epoch closes.
        let seen = p.epoch();
        p.notify();
        let t0 = Instant::now();
        assert_eq!(p.park(seen, Duration::from_secs(5)), None);
        assert!(t0.elapsed() < Duration::from_secs(1), "woke via epoch");
        // No notification at all: the backstop expires and reports the
        // one waiter parked at `seen`.
        let seen = p.epoch();
        assert_eq!(p.park(seen, Duration::from_millis(10)), Some(1));
    }

    /// The interleaving behind the native backend's false deadlocks: a
    /// peer parks, a bump wakes it, and the host does not schedule it
    /// again before this waiter's own park times out. The peer is still
    /// in `parked`, but not at the new epoch; once it has parked there
    /// too, it counts.
    #[test]
    fn a_woken_but_unscheduled_peer_is_not_counted() {
        let p = Parker::default();
        // The peer, inside `park(0)`.
        p.parked.fetch_add(1, Ordering::SeqCst);
        p.waiting.lock().unwrap().count = 1;
        p.notify();
        assert_eq!(p.park(1, Duration::from_millis(10)), Some(1));
        // The peer re-ran, found nothing to do, and parked at epoch 1.
        p.waiting.lock().unwrap().count = 1;
        assert_eq!(p.park(1, Duration::from_millis(10)), Some(2));
    }
}
