//! Bounded channels backing hardware queues in the native backend.
//!
//! Each hardware queue of a pipeline lowers to one bounded SPSC ring
//! carrying [`Value`] words — data and in-band control values travel the
//! same ring, exactly as they share the hardware FIFO in the simulator.
//! The ring is FastFlow-style: `capacity` slots with monotonic head/tail
//! counters on cache lines of their own (acquire/release pairs on the
//! counters order the slot accesses).
//!
//! The native world drives a ring through the crate-internal
//! `SlabSender`/`SlabReceiver` that `slab_channel` builds: a shared
//! `Ring` (head and tail) plus one private `Cursor` per endpoint, and
//! nothing else. A queue's producers and consumer are fixed when the
//! pipeline is compiled, so the endpoints carry no lifecycle: no sender
//! count, no receiver flag, no disconnection. A stage whose peer has
//! finished blocks on empty or full, and the deadlock rule judges it.
//! With one producer each endpoint works on its private cursor and
//! stores the shared counter once per slab — an eighth of the ring,
//! [`slab_len`] — before reporting full or empty and on `flush` (the
//! world calls it when a stage's slice ends, so by the time a worker
//! exits and drops its endpoints everything is published). The
//! cross-core traffic is per slab, not per value, and a blocked or
//! descheduled stage never sits on anything unpublished. The FIFO is
//! untouched: a control value is a word in a slot like any other, so it
//! keeps its place by construction. A fan-in queue (more than one
//! producing stage, fixed at construction) gives its producers one shared
//! lock for the whole run; they push through the shared counter under
//! it and publish every value.
//!
//! The public [`channel`], [`ChannelKind`] and [`Sender`]/[`Receiver`]
//! are a constructor the native world does not use. They stay for
//! `tests/channel_unit.rs` and for the benchmark's
//! `native.chan_ns_per_op.{mpsc,ring,hybrid}` probe, whose smoke check
//! fails if one of those metric names goes missing; ROADMAP item 1 (the
//! benchmark-archetype change, "No public channel family") deletes the
//! whole family together with the probe. Every `try_send` there is
//! visible to the next `try_recv`, and every `try_recv` frees its slot
//! at once. Only these endpoints keep lifecycle bookkeeping: sender
//! counting (so a drained channel whose producers are all gone reports
//! `Disconnected`, not `Empty`), receiver liveness (so producers
//! feeding a dead consumer learn about it), and a send lock taken while
//! more than one clone of the sender is live.

use phloem_ir::Value;
use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Which buffer a public [`channel`] uses. Only the constructor reads
/// it: the native world always runs the ring, and this stays for
/// `tests/channel_unit.rs` and the benchmark's per-kind ping-pong probe
/// until ROADMAP item 1 ("No public channel family") deletes it with
/// the rest of the family and the probe rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// `std::sync::mpsc::sync_channel`, wrapped.
    Mpsc,
    /// The SPSC ring every native queue runs on.
    Ring,
    /// The ring with a bounded spin before reporting full/empty.
    Hybrid,
}

impl ChannelKind {
    /// All kinds, for the probe and the unit tests.
    pub const ALL: [ChannelKind; 3] = [ChannelKind::Mpsc, ChannelKind::Ring, ChannelKind::Hybrid];

    /// Stable lowercase label (the probe's metric names).
    pub fn label(self) -> &'static str {
        match self {
            ChannelKind::Mpsc => "mpsc",
            ChannelKind::Ring => "ring",
            ChannelKind::Hybrid => "hybrid",
        }
    }
}

/// Construction errors.
#[derive(Debug, PartialEq, Eq)]
pub enum ChannelError {
    /// Bounded channels need at least one slot (a zero-capacity
    /// rendezvous has no hardware analogue here — the simulator's queues
    /// are at least one entry deep).
    ZeroCapacity,
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::ZeroCapacity => write!(f, "channel capacity must be at least 1"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// Why a `try_send` did not enqueue. The value is handed back so blocked
/// producers can retry without re-evaluating it.
#[derive(Debug, PartialEq)]
pub enum TrySendError {
    /// The buffer is full; retry after the consumer drains.
    Full(Value),
    /// The receiver was dropped; no send can ever succeed again.
    Disconnected(Value),
}

/// Why a `try_recv` returned no value.
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// The buffer is empty but senders are still live; retry later.
    Empty,
    /// The buffer is empty and every sender was dropped: the channel is
    /// drained for good.
    Disconnected,
}

/// Keeps a shared index on cache lines of its own, so the producer's
/// stores to `tail` never invalidate the line the consumer's `head`
/// lives on (128 bytes: adjacent-line prefetchers pair 64-byte lines).
/// Unverified on this host: `native_apps` read 0.62x / 0.64x / 0.60x
/// serial at 128 / 64 / no alignment, five interleaved runs each, inside
/// the 0.07x spread of one setting; only the fastest repetition's
/// `ops_per_s` leaned (71 / 71 / 68).
#[repr(align(128))]
struct CachePadded<T>(T);

/// A bounded SPSC ring with monotonically increasing head/tail counters
/// (never wrapped, so full/empty are `tail - head == cap` / `tail ==
/// head` with no lap ambiguity).
///
/// The release-store on `tail` after writing a slot pairs with the
/// consumer's acquire-load of `tail` before reading it; symmetrically
/// for `head` when a slot is vacated. This is the classic Lamport queue
/// and is correct for exactly one concurrent pusher and one concurrent
/// popper — which the endpoints enforce.
///
/// The shared counters are what the *peer* may rely on, not where an
/// endpoint has got to: [`Ring::try_push`]/[`Ring::try_pop`] use them as
/// their cursor and so publish every value at once, while a sole
/// producer's slab sender and every slab receiver run ahead of them on a
/// private cursor and store the shared one once per slab.
struct Ring {
    /// `capacity` rounded up to a power of two, so an index finds its
    /// slot with a mask (`index % 24` was a hardware divide per value
    /// moved). Any `capacity` consecutive indices still land on distinct
    /// slots, and full/empty are judged against `capacity`, never
    /// against the allocation.
    slots: Box<[UnsafeCell<MaybeUninit<Value>>]>,
    capacity: u64,
    /// Slots below this index are vacated (only the consumer stores it).
    head: CachePadded<AtomicU64>,
    /// Slots below this index are written (only a producer stores it).
    tail: CachePadded<AtomicU64>,
}

// SAFETY: `slots` is the only field that is not already `Sync`. Slot
// accesses are ordered by the acquire/release pairs on `head`/`tail`; a
// slot is touched by at most one thread at a time (the producer between
// the consumer's release of `head` past it and its own release of
// `tail`, the consumer between that and its next release of `head`).
// `Value` is `Copy + Send`.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity.next_power_of_two())
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            capacity: capacity as u64,
            head: CachePadded(AtomicU64::new(0)),
            tail: CachePadded(AtomicU64::new(0)),
        }
    }

    fn slot(&self, index: u64) -> *mut MaybeUninit<Value> {
        self.slots[(index & (self.slots.len() as u64 - 1)) as usize].get()
    }

    /// Writes `v` into the slot of index `t` without publishing it.
    ///
    /// # Safety
    /// The caller is the sole producer, `t` is its cursor (every index
    /// below `t` written, none at or above it), and it has
    /// acquire-loaded a `head` with `t - head < capacity`.
    unsafe fn write(&self, t: u64, v: Value) {
        // SAFETY: by the contract the consumer has vacated this slot's
        // previous lap and cannot read this lap before `tail` passes `t`.
        unsafe { (*self.slot(t)).write(v) };
    }

    /// Reads the slot of index `h` without vacating it.
    ///
    /// # Safety
    /// The caller is the sole consumer, `h` is its cursor, and it has
    /// acquire-loaded a `tail` with `h < tail`.
    unsafe fn read(&self, h: u64) -> Value {
        // SAFETY: by the contract the producer published this slot and
        // cannot rewrite it before `head` passes `h`. `Value` is `Copy`,
        // so no drop obligations remain in the slot.
        unsafe { (*self.slot(h)).assume_init_read() }
    }

    /// Pushes and publishes one value; hands `v` back when full.
    fn try_push(&self, v: Value) -> Result<(), Value> {
        let t = self.tail.0.load(Ordering::Relaxed);
        let h = self.head.0.load(Ordering::Acquire);
        if t - h == self.capacity {
            return Err(v);
        }
        // SAFETY: the endpoints admit one pusher at a time, whose cursor
        // is the shared `tail` itself, and `t - h < capacity`.
        unsafe { self.write(t, v) };
        self.tail.0.store(t + 1, Ordering::Release);
        Ok(())
    }

    /// Pops and vacates one value; `None` when empty.
    fn try_pop(&self) -> Option<Value> {
        let h = self.head.0.load(Ordering::Relaxed);
        let t = self.tail.0.load(Ordering::Acquire);
        if t == h {
            return None;
        }
        // SAFETY: the receiver is unique, its cursor is the shared
        // `head` itself, and `h < t`.
        let v = unsafe { self.read(h) };
        self.head.0.store(h + 1, Ordering::Release);
        Some(v)
    }
}

/// Bounded spin length for [`ChannelKind::Hybrid`]. Short enough to be
/// harmless on a single-core host (where spinning cannot help), long
/// enough to ride out a consumer that is one context switch away on a
/// multicore one.
const HYBRID_SPINS: usize = 64;

/// The buffer behind a public channel, one arm per [`ChannelKind`].
/// Multi-producer use is serialized by the endpoints, never here.
enum Buffer {
    /// The std sync channel; its ends sit behind mutexes because the
    /// buffer is shared by `&self` and `mpsc::Receiver` is not `Sync`.
    Mpsc {
        tx: Mutex<mpsc::SyncSender<Value>>,
        rx: Mutex<mpsc::Receiver<Value>>,
    },
    Ring(Ring),
    /// The ring, re-tried up to [`HYBRID_SPINS`] times before it reports
    /// full or empty.
    Hybrid(Ring),
}

impl Buffer {
    fn try_push(&self, v: Value) -> Result<(), Value> {
        match self {
            Buffer::Mpsc { tx, .. } => {
                let tx = tx.lock().unwrap_or_else(|e| e.into_inner());
                // Disconnection cannot happen: the buffer owns both ends
                // for its whole life. Treat it like Full defensively.
                tx.try_send(v).map_err(|_| v)
            }
            Buffer::Ring(r) => r.try_push(v),
            Buffer::Hybrid(r) => {
                for _ in 0..HYBRID_SPINS {
                    if r.try_push(v).is_ok() {
                        return Ok(());
                    }
                    std::hint::spin_loop();
                }
                r.try_push(v)
            }
        }
    }

    fn try_pop(&self) -> Option<Value> {
        match self {
            Buffer::Mpsc { rx, .. } => {
                let rx = rx.lock().unwrap_or_else(|e| e.into_inner());
                rx.try_recv().ok()
            }
            Buffer::Ring(r) => r.try_pop(),
            Buffer::Hybrid(r) => {
                for _ in 0..HYBRID_SPINS {
                    if let Some(v) = r.try_pop() {
                        return Some(v);
                    }
                    std::hint::spin_loop();
                }
                r.try_pop()
            }
        }
    }
}

/// A public channel's shared state: the buffer plus the lifecycle
/// bookkeeping the slab endpoints do without.
struct Core {
    buffer: Buffer,
    /// Live senders. When it hits zero the channel can never gain
    /// another value: `Empty` hardens into `Disconnected`.
    senders: AtomicUsize,
    /// Cleared when the receiver drops; producers then get
    /// `Disconnected` instead of filling a buffer nobody drains.
    receiver_alive: AtomicBool,
    /// Serializes sends while more than one sender is live (fan-in).
    /// Single-producer channels never touch it.
    send_lock: Mutex<()>,
}

/// The producing endpoint of a public [`channel`] (not used by the
/// native world; see the module doc). Clone it once per producer; sends
/// serialize automatically while clones coexist and go lock-free again
/// once the channel is back to a single producer.
///
/// `Sender` is `Send` but intentionally not `Sync`: the lock-free path
/// is only sound when each live clone is driven by one thread.
pub struct Sender {
    core: Arc<Core>,
    _not_sync: std::marker::PhantomData<std::cell::Cell<()>>,
}

impl Sender {
    /// Attempts to enqueue `v`.
    ///
    /// # Errors
    /// [`TrySendError::Full`] when the buffer is full,
    /// [`TrySendError::Disconnected`] when the receiver is gone; both
    /// hand the value back.
    pub fn try_send(&self, v: Value) -> Result<(), TrySendError> {
        let core = &*self.core;
        if !core.receiver_alive.load(Ordering::Acquire) {
            return Err(TrySendError::Disconnected(v));
        }
        let _fan_in = (core.senders.load(Ordering::Acquire) > 1)
            .then(|| core.send_lock.lock().unwrap_or_else(|e| e.into_inner()));
        core.buffer.try_push(v).map_err(TrySendError::Full)
    }
}

impl Clone for Sender {
    fn clone(&self) -> Sender {
        self.core.senders.fetch_add(1, Ordering::AcqRel);
        Sender {
            core: Arc::clone(&self.core),
            _not_sync: std::marker::PhantomData,
        }
    }
}

impl Drop for Sender {
    fn drop(&mut self) {
        self.core.senders.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The consuming endpoint of a public [`channel`] — unique per channel,
/// matching the validator's one-consumer-per-queue discipline. `Send`
/// but not `Sync`, like [`Sender`].
pub struct Receiver {
    core: Arc<Core>,
    _not_sync: std::marker::PhantomData<std::cell::Cell<()>>,
}

impl Receiver {
    /// Attempts to dequeue.
    ///
    /// # Errors
    /// [`TryRecvError::Empty`] while producers are live,
    /// [`TryRecvError::Disconnected`] once the channel is drained and
    /// the last sender dropped.
    pub fn try_recv(&self) -> Result<Value, TryRecvError> {
        if let Some(v) = self.core.buffer.try_pop() {
            return Ok(v);
        }
        if self.core.senders.load(Ordering::Acquire) == 0 {
            // A value pushed just before the last sender dropped must
            // still drain: re-check the buffer *after* observing zero.
            return self.core.buffer.try_pop().ok_or(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }
}

impl Drop for Receiver {
    fn drop(&mut self) {
        self.core.receiver_alive.store(false, Ordering::Release);
    }
}

/// Creates a public bounded channel of the given kind and capacity.
/// The native world never calls this; it stays for
/// `tests/channel_unit.rs` and the benchmark's per-kind probe until
/// ROADMAP item 1 ("No public channel family") deletes it with the probe
/// rows (see the module doc).
///
/// # Errors
/// [`ChannelError::ZeroCapacity`] when `capacity == 0`.
pub fn channel(kind: ChannelKind, capacity: usize) -> Result<(Sender, Receiver), ChannelError> {
    if capacity == 0 {
        return Err(ChannelError::ZeroCapacity);
    }
    let buffer = match kind {
        ChannelKind::Mpsc => {
            let (tx, rx) = mpsc::sync_channel(capacity);
            Buffer::Mpsc {
                tx: Mutex::new(tx),
                rx: Mutex::new(rx),
            }
        }
        ChannelKind::Ring => Buffer::Ring(Ring::new(capacity)),
        ChannelKind::Hybrid => Buffer::Hybrid(Ring::new(capacity)),
    };
    let core = Arc::new(Core {
        buffer,
        senders: AtomicUsize::new(1),
        receiver_alive: AtomicBool::new(true),
        send_lock: Mutex::new(()),
    });
    Ok((
        Sender {
            core: Arc::clone(&core),
            _not_sync: std::marker::PhantomData,
        },
        Receiver {
            core,
            _not_sync: std::marker::PhantomData,
        },
    ))
}

/// Values a slab endpoint of a `capacity`-deep ring moves on its
/// private cursor before it stores the shared index: an eighth of the
/// ring, at least one (128 at the native depth of 1024). One cache-line
/// transfer of the index then serves a slab of values instead of one,
/// and the peer still has seven eighths of the ring to work in. Slab
/// size matters once the ring is deep; DESIGN §11 has the table.
pub fn slab_len(capacity: usize) -> usize {
    (capacity / 8).max(1)
}

/// One slab endpoint's private view of a ring: where it has got to,
/// what it has told the peer, and what the peer last told it.
struct Cursor {
    /// Next index this endpoint touches. `[published, next)` is written
    /// (producer) or read (consumer) but not yet the peer's to use.
    next: u64,
    /// The last value this endpoint stored to its shared index.
    published: u64,
    /// The peer's shared index as last loaded: a lower bound, refreshed
    /// only when the ring looks full (producer) or empty (consumer)
    /// against it.
    peer: u64,
    /// The ring's [`slab_len`].
    slab: u64,
}

impl Cursor {
    fn start(slab: u64) -> Cursor {
        Cursor {
            next: 0,
            published: 0,
            peer: 0,
            slab,
        }
    }

    /// Hands `[published, next)` to the peer. The release-store pairs
    /// with the peer's acquire-load in [`Self::refresh`].
    fn publish(&mut self, shared: &AtomicU64) {
        if self.next != self.published {
            shared.store(self.next, Ordering::Release);
            self.published = self.next;
        }
    }

    fn refresh(&mut self, peer: &AtomicU64) {
        self.peer = peer.load(Ordering::Acquire);
    }

    /// Steps past the slot just written or read, publishing on a slab
    /// boundary.
    fn advance(&mut self, shared: &AtomicU64) {
        self.next += 1;
        if self.next - self.published >= self.slab {
            self.publish(shared);
        }
    }
}

/// Creates the ring of one hardware queue as [`super::NativeWorld`]
/// wires it: `producers` slab senders (one per producing stage) and the
/// consumer's slab receiver. `capacity` must be at least 1. More than
/// one producer makes a fan-in queue: its producers share one lock for the
/// whole run and publish every value.
pub(crate) fn slab_channel(capacity: usize, producers: usize) -> (Vec<SlabSender>, SlabReceiver) {
    assert!(capacity > 0, "a ring needs at least one slot");
    let slab = slab_len(capacity) as u64;
    let ring = Arc::new(Ring::new(capacity));
    let fan_in = (producers > 1).then(|| Arc::new(Mutex::new(())));
    let txs = (0..producers)
        .map(|_| SlabSender {
            ring: Arc::clone(&ring),
            cursor: Cursor::start(slab),
            fan_in: fan_in.clone(),
        })
        .collect();
    let receiver = SlabReceiver {
        ring,
        cursor: Cursor::start(slab),
    };
    (txs, receiver)
}

/// A producing stage's endpoint of a ring. A queue's only producer
/// writes slots on a private cursor and publishes them a slab at a time.
///
/// What the consumer may rely on: everything sent is published by the
/// time `try_send` reports full and by the time [`Self::flush`] returns,
/// and at least every [`slab_len`] values in between. Control values
/// are ordinary words in that FIFO, so they keep their position
/// whatever the slab boundaries are.
pub(crate) struct SlabSender {
    ring: Arc<Ring>,
    cursor: Cursor,
    /// Present on a fan-in queue, shared by all its producers: they push
    /// through the shared `tail` under it, and `cursor` stays unused.
    fan_in: Option<Arc<Mutex<()>>>,
}

impl SlabSender {
    /// Attempts to enqueue `v`, publishing by the slab; hands `v` back
    /// when the ring is full.
    pub(crate) fn try_send(&mut self, v: Value) -> Result<(), Value> {
        let ring = &*self.ring;
        if let Some(lock) = &self.fan_in {
            let _fan_in = lock.lock().unwrap_or_else(|e| e.into_inner());
            return ring.try_push(v);
        }
        let cur = &mut self.cursor;
        let full = |c: &Cursor| c.next - c.peer == ring.capacity;
        if full(cur) {
            cur.refresh(&ring.head.0);
            if full(cur) {
                // The consumer must see a full ring before we say so.
                cur.publish(&ring.tail.0);
                return Err(v);
            }
        }
        // SAFETY: a sender without `fan_in` is its queue's only producer
        // and is owned by one stage; `next` is its cursor (advanced only
        // here); `peer` is an acquire-loaded `head` and
        // `next - peer < capacity`.
        unsafe { ring.write(cur.next, v) };
        cur.advance(&ring.tail.0);
        Ok(())
    }

    /// Publishes every value sent so far.
    pub(crate) fn flush(&mut self) {
        self.cursor.publish(&self.ring.tail.0);
    }
}

/// The consuming stage's endpoint of a ring: reads slots on a private
/// cursor and hands them back to the producer a slab at a time.
///
/// What the producer may rely on: every slot read is vacated by the
/// time `try_recv` reports empty and by the time [`Self::flush`]
/// returns, and at least every [`slab_len`] values in between.
pub(crate) struct SlabReceiver {
    ring: Arc<Ring>,
    cursor: Cursor,
}

impl SlabReceiver {
    /// Attempts to dequeue, vacating by the slab; `None` when the ring
    /// is empty.
    pub(crate) fn try_recv(&mut self) -> Option<Value> {
        let ring = &*self.ring;
        let cur = &mut self.cursor;
        let empty = |c: &Cursor| c.next == c.peer;
        if empty(cur) {
            cur.refresh(&ring.tail.0);
            if empty(cur) {
                // The producer must see an empty ring before we say so.
                cur.publish(&ring.head.0);
                return None;
            }
        }
        // SAFETY: the receiver is unique and owned by one stage, so this
        // is the sole consumer; `next` is its cursor (only it stores the
        // shared index, and it advances only here); `peer` is an
        // acquire-loaded `tail` and `next < peer`.
        let v = unsafe { ring.read(cur.next) };
        cur.advance(&ring.head.0);
        Some(v)
    }

    /// Vacates every slot read so far.
    pub(crate) fn flush(&mut self) {
        self.cursor.publish(&self.ring.head.0);
    }
}

#[cfg(test)]
mod tests {
    //! The slab endpoints' framing: what is visible when, and that the
    //! FIFO (control values included) does not depend on where the slab
    //! boundaries fall. The public endpoints' contract is pinned from
    //! outside the crate, in `tests/channel_unit.rs`.

    use super::*;

    /// Minimal xorshift64*, as in `tests/channel_unit.rs`.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A single-producer ring.
    fn spsc(capacity: usize) -> (SlabSender, SlabReceiver) {
        let (mut txs, rx) = slab_channel(capacity, 1);
        (txs.pop().expect("one sender"), rx)
    }

    /// The shared `(head, tail)` of the ring behind `rx`: what each
    /// endpoint has published.
    fn shared(rx: &SlabReceiver) -> (u64, u64) {
        let ring = &rx.ring;
        (
            ring.head.0.load(Ordering::SeqCst),
            ring.tail.0.load(Ordering::SeqCst),
        )
    }

    /// Message `i` of the stress stream: a control value on the last
    /// of every `period` slots and on the first of every third period,
    /// floats and integers between. With the ring's slab as the period
    /// the control values sit on and straddle the slab boundaries; a
    /// period of 8 over a slab shorter than 4 walks them across every
    /// slot of it instead.
    fn message(i: u64, period: u64) -> Value {
        match i % period {
            r if r == period - 1 => Value::Ctrl((i / period % 5) as u32),
            0 if (i / period).is_multiple_of(3) => Value::Ctrl(7),
            r if r % 2 == 0 => Value::F64(i as f64 + 0.5),
            _ => Value::I64(i as i64),
        }
    }

    /// Real producer and consumer threads over the slab path, for ring
    /// depths whose slab is one value up to the native depth of 1024,
    /// with seeded flushes standing in for slice ends. Neither side ever
    /// flushes because it must: a blocked endpoint has published
    /// everything, so the stream always drains; the last partial slab
    /// arrives through the producer's final flush, as a stage's does
    /// through the slice end it finishes in.
    #[test]
    #[allow(clippy::disallowed_methods)]
    fn slab_framing_keeps_the_fifo_at_every_depth() {
        const N: u64 = 20_000;
        for capacity in [1, 3, 7, 8, 9, 24, 100, 1024] {
            let period = match slab_len(capacity) as u64 {
                slab if slab < 4 => 8,
                slab => slab,
            };
            let mut rng = Rng(0x51AB ^ (capacity as u64) << 8);
            let (mut tx, mut rx) = spsc(capacity);
            let (producer_seed, consumer_seed) = (rng.next() | 1, rng.next() | 1);
            let producer = std::thread::spawn(move || {
                let mut rng = Rng(producer_seed);
                let mut i = 0;
                while i < N {
                    match tx.try_send(message(i, period)) {
                        Ok(()) => i += 1,
                        Err(v) => {
                            assert_eq!(v, message(i, period), "full hands the value back");
                            std::thread::yield_now();
                        }
                    }
                    if rng.below(37) == 0 {
                        tx.flush();
                    }
                }
                tx.flush();
            });
            let mut rng = Rng(consumer_seed);
            let mut got = 0;
            while got < N {
                match rx.try_recv() {
                    Some(v) => {
                        assert_eq!(v, message(got, period), "depth {capacity}: message {got}");
                        got += 1;
                    }
                    None => std::thread::yield_now(),
                }
                if rng.below(41) == 0 {
                    rx.flush();
                }
            }
            producer.join().unwrap();
            assert_eq!(
                rx.try_recv(),
                None,
                "depth {capacity}: nothing past the stream"
            );
        }
    }

    /// A partial slab is the producer's own until one of the two
    /// publication points: a full report and `flush`.
    #[test]
    fn a_partial_slab_is_visible_after_block_and_flush() {
        // Block: 35 slots in slabs of 4, so a full ring holds 3 values
        // past the last boundary and only the full report can publish
        // them.
        let (mut tx, mut rx) = spsc(35);
        assert_eq!(slab_len(35), 4);
        for i in 0..35 {
            tx.try_send(Value::I64(i)).unwrap();
        }
        assert_eq!(shared(&rx), (0, 32), "published by the slab");
        assert_eq!(tx.try_send(Value::I64(35)), Err(Value::I64(35)));
        assert_eq!(shared(&rx), (0, 35), "published by full");
        for i in 0..35 {
            assert_eq!(rx.try_recv(), Some(Value::I64(i)), "after full");
        }
        // The consumer's side of the same rule: 35 slots read, 32
        // vacated by the slab and the rest when it reports empty.
        assert_eq!(shared(&rx), (32, 35));
        assert_eq!(rx.try_recv(), None);
        assert_eq!(shared(&rx), (35, 35));

        // Flush (a slice end), then a slab boundary, at the native depth.
        let (mut tx, mut rx) = spsc(1024);
        let slab = slab_len(1024) as i64;
        for i in 0..3 {
            tx.try_send(Value::I64(i)).unwrap();
        }
        assert_eq!(rx.try_recv(), None, "unpublished");
        tx.flush();
        for i in 0..3 {
            assert_eq!(rx.try_recv(), Some(Value::I64(i)), "after flush");
        }
        for i in 3..3 + slab {
            assert_eq!(rx.try_recv(), None, "value {i}");
            tx.try_send(Value::I64(i)).unwrap();
        }
        for i in 3..3 + slab {
            assert_eq!(rx.try_recv(), Some(Value::I64(i)), "after a slab");
        }
        tx.try_send(Value::Ctrl(9)).unwrap();
        tx.flush();
        assert_eq!(
            rx.try_recv(),
            Some(Value::Ctrl(9)),
            "a control value, flushed"
        );
        assert_eq!(rx.try_recv(), None);
    }

    /// Fan-in over slab endpoints: every value of every producer goes
    /// through the shared `tail` under the queue's one lock, published
    /// at once. Per-producer order holds, including after the shorter
    /// producer is done, and nothing is lost or repeated.
    #[test]
    #[allow(clippy::disallowed_methods)]
    fn fan_in_slab_senders_keep_per_producer_order() {
        const EACH: i64 = 3_000;
        const LANE: i64 = 1_000_000;
        for capacity in [2, 8, 24] {
            let (txs, mut rx) = slab_channel(capacity, 2);
            let producers: Vec<_> = txs
                .into_iter()
                .zip([(0, EACH), (1, 3 * EACH)])
                .map(|(mut tx, (lane, n))| {
                    std::thread::spawn(move || {
                        for i in 0..n {
                            while tx.try_send(Value::I64(lane * LANE + i)).is_err() {
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            let mut next = [0i64, 0];
            while next != [EACH, 3 * EACH] {
                match rx.try_recv() {
                    Some(Value::I64(v)) => {
                        let lane = (v / LANE) as usize;
                        assert_eq!(v % LANE, next[lane], "depth {capacity} lane {lane}");
                        next[lane] += 1;
                    }
                    Some(other) => panic!("unexpected {other:?}"),
                    None => std::thread::yield_now(),
                }
            }
            for p in producers {
                p.join().unwrap();
            }
            assert_eq!(rx.try_recv(), None, "depth {capacity}: nothing repeated");
        }
    }
}
