//! Cooperative cancellation: wall-clock deadlines and explicit cancels
//! shared between host fleets and long-running simulations.
//!
//! A [`CancelToken`] is a cheap clonable handle (`Arc` inside) carrying
//! two pieces of state:
//!
//! * a **latched cancel flag** plus the reason it was set;
//! * an optional **deadline**, stored as milliseconds on a process-wide
//!   monotonic epoch so the hot-path check is one atomic load (and the
//!   authoritative check one `Instant::now()`). Deadlines can be armed
//!   after creation — a draining service arms a bounded grace window on
//!   tokens that started with no deadline at all.
//!
//! Tokens form optional **parent chains** ([`CancelToken::child`]): a
//! per-request token linked to a service-wide drain token is cancelled
//! by its own deadline *or* by the parent's cancel, whichever comes
//! first.
//!
//! Cancellation is strictly **cooperative and host-side**: nothing here
//! ever touches simulated state. The simulator polls the token at its
//! existing watchdog window boundaries and converts a fired token into
//! a structured `Trap::Cancelled`; a token that never fires is
//! observationally free (`tests/cancel_neutral.rs` in the workspace
//! pins bit-identical runs with and without an armed token).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Milliseconds since the process-wide monotonic epoch. The epoch is
/// lazily pinned on first use; all deadline math shares it.
fn now_ms() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// Sentinel for "no deadline armed".
const NO_DEADLINE: u64 = u64::MAX;

/// Calls of [`CancelToken::poll_throttled`] per clock read. A round of
/// the loops that call it is microseconds of host time at worst, so the
/// deadline resolution this buys (< ~10 ms of drift) is far below any
/// deadline a service would arm, while the steady-state cost stays one
/// atomic load per round.
const POLL_PERIOD: u32 = 256;

struct Inner {
    cancelled: AtomicBool,
    /// Why the token cancelled; set exactly once, by the latch winner.
    reason: Mutex<String>,
    /// Deadline in [`now_ms`] units; [`NO_DEADLINE`] when unarmed.
    deadline_ms: AtomicU64,
    parent: Option<Arc<Inner>>,
}

impl Inner {
    /// Latches the cancel flag; the first writer wins the reason.
    fn latch(&self, reason: &str) {
        if !self.cancelled.swap(true, Ordering::AcqRel) {
            let mut r = self.reason.lock().unwrap_or_else(|e| e.into_inner());
            if r.is_empty() {
                *r = reason.to_string();
            }
        }
    }
}

/// Cooperative cancellation handle (see the module docs). Clones share
/// state; dropping a clone never cancels anything.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_set())
            .field(
                "deadline_armed",
                &(self.inner.deadline_ms.load(Ordering::Relaxed) != NO_DEADLINE),
            )
            .finish()
    }
}

impl CancelToken {
    /// A live token with no deadline and no parent.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                reason: Mutex::new(String::new()),
                deadline_ms: AtomicU64::new(NO_DEADLINE),
                parent: None,
            }),
        }
    }

    /// A token that expires `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> CancelToken {
        let t = CancelToken::new();
        t.arm_deadline(timeout);
        t
    }

    /// A child linked to `self`: the child reports cancelled when its
    /// own flag/deadline fires *or* when any ancestor's does. Ancestor
    /// state is read-only from the child — cancelling a child never
    /// propagates upward.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                reason: Mutex::new(String::new()),
                deadline_ms: AtomicU64::new(NO_DEADLINE),
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// Arms (or tightens) the deadline to `timeout` from now. A wider
    /// deadline than the currently armed one is ignored — like the
    /// simulator's cycle budgets, deadlines only tighten.
    pub fn arm_deadline(&self, timeout: Duration) {
        let at = now_ms().saturating_add(timeout.as_millis().min(u64::MAX as u128) as u64);
        self.inner.deadline_ms.fetch_min(at, Ordering::AcqRel);
    }

    /// Explicitly cancels the token with a reason. Idempotent; the first
    /// reason wins.
    pub fn cancel(&self, reason: &str) {
        self.inner.latch(reason);
    }

    /// Cheap check: latched flags only (self and ancestors), no clock
    /// read. A loop that checks every round wants
    /// [`CancelToken::poll_throttled`], which adds deadline coverage.
    pub fn is_set(&self) -> bool {
        let mut node = Some(&self.inner);
        while let Some(n) = node {
            if n.cancelled.load(Ordering::Acquire) {
                return true;
            }
            node = n.parent.as_ref();
        }
        false
    }

    /// Authoritative check: reads the clock, latches an expired
    /// deadline (on the owning node) and returns whether the token is
    /// cancelled. Costs one `Instant::now()`.
    pub fn poll_expired(&self) -> bool {
        let now = now_ms();
        let mut node = Some(&self.inner);
        while let Some(n) = node {
            if n.cancelled.load(Ordering::Acquire) {
                return true;
            }
            if now >= n.deadline_ms.load(Ordering::Acquire) {
                n.latch("deadline exceeded");
                return true;
            }
            node = n.parent.as_ref();
        }
        false
    }

    /// The per-round check of a loop whose rounds take microseconds (the
    /// simulator's scheduler, a native stage worker): the latched flags
    /// on every call, and the clock — latching an expired deadline — on
    /// every 256th, counted in the caller's `*rounds` (start it at 0).
    #[inline]
    pub fn poll_throttled(&self, rounds: &mut u32) -> bool {
        if self.is_set() {
            return true;
        }
        *rounds = rounds.wrapping_add(1);
        rounds.is_multiple_of(POLL_PERIOD) && self.poll_expired()
    }

    /// Why the token cancelled (empty if it has not). Walks to the
    /// first latched node so a child cancelled by its parent reports
    /// the parent's reason.
    pub fn reason(&self) -> String {
        let mut node = Some(&self.inner);
        while let Some(n) = node {
            if n.cancelled.load(Ordering::Acquire) {
                return n.reason.lock().unwrap_or_else(|e| e.into_inner()).clone();
            }
            node = n.parent.as_ref();
        }
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_latches_with_first_reason() {
        let t = CancelToken::new();
        assert!(!t.is_set() && !t.poll_expired());
        t.cancel("drain");
        t.cancel("second");
        assert!(t.is_set());
        assert_eq!(t.reason(), "drain");
    }

    #[test]
    fn deadline_expires_and_latches() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        // The flag-only check does not read the clock...
        assert!(!t.is_set());
        // ...the authoritative poll does, and latches.
        assert!(t.poll_expired());
        assert!(t.is_set());
        assert_eq!(t.reason(), "deadline exceeded");
    }

    #[test]
    fn deadlines_only_tighten() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        t.arm_deadline(Duration::from_secs(3600)); // ignored: wider
        assert!(t.poll_expired());
    }

    #[test]
    fn parent_cancel_reaches_children_but_not_vice_versa() {
        let parent = CancelToken::new();
        let child = parent.child();
        child.cancel("child only");
        assert!(!parent.is_set(), "child cancel must not propagate up");
        let other = parent.child();
        parent.cancel("drain");
        assert!(other.is_set() && other.poll_expired());
        assert_eq!(other.reason(), "drain");
    }

    #[test]
    fn throttled_polls_read_the_clock_once_a_period() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        let mut rounds = 0;
        let fired = (1..=POLL_PERIOD).find(|_| t.poll_throttled(&mut rounds));
        assert_eq!(
            fired,
            Some(POLL_PERIOD),
            "the deadline latches on a clock read"
        );
        let t = CancelToken::new();
        t.cancel("drain");
        assert!(t.poll_throttled(&mut 0), "a latched flag fires at once");
    }
}
