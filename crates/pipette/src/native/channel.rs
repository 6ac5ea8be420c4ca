//! Bounded channels backing hardware queues in the native backend.
//!
//! Each hardware queue of a pipeline lowers to one bounded channel
//! carrying [`Value`] words — data and in-band control values travel the
//! same channel, exactly as they share the hardware FIFO in the
//! simulator. [`ChannelKind`] picks the buffer:
//!
//! * [`ChannelKind::Ring`] — a FastFlow-style bounded SPSC ring of
//!   `capacity` slots with monotonic head/tail counters on cache lines
//!   of their own (acquire/release pairs on the counters order the slot
//!   accesses). The native backend's default.
//! * [`ChannelKind::Hybrid`] — the ring plus, on the public endpoints,
//!   a short bounded re-read of the peer's counter before reporting
//!   `Full`/`Empty`. The slab endpoints drive it as a plain ring.
//! * [`ChannelKind::Mpsc`] — the std library's `sync_channel` (itself
//!   bounded) behind two mutexes; the conservative reference.
//!
//! There are two ways to drive a channel, over the same buffer:
//!
//! * The public [`Sender`]/[`Receiver`]: every `try_send` is visible to
//!   the next `try_recv` and every `try_recv` frees its slot at once.
//!   `tests/channel_unit.rs` pins this, and the benchmark's per-kind
//!   ping-pong probe depends on it.
//! * The crate-internal `SlabSender`/`SlabReceiver`, which the
//!   native world wraps its endpoints in. On a ring with one producer
//!   they work on a private cursor and store the shared counter once per
//!   `SLAB` values, before reporting `Full`/`Empty`, on `flush` (the
//!   world calls it when a stage's slice ends) and on drop — so the
//!   cross-core traffic is per slab, not per value, and a blocked or
//!   descheduled stage never sits on anything unpublished. The FIFO is
//!   untouched: a control value is a word in a slot like any other, so
//!   it keeps its place by construction. On `mpsc`, and while a fan-in
//!   queue has several producers, they fall through to the public path
//!   (fan-in serialises under `send_lock` and publishes every value).
//!
//! The endpoints own the lifecycle bookkeeping the buffers don't:
//! sender counting (so a drained channel whose producers are all gone
//! reports `Disconnected`, not `Empty`) and receiver liveness (so
//! producers feeding a dead consumer learn about it instead of filling a
//! buffer nobody drains). The validator guarantees every queue has
//! exactly one consumer, so `Receiver` is unique per channel; fan-in
//! queues (`EnqSel`/control broadcast) clone the `Sender`, and a send
//! automatically serializes through a mutex whenever more than one
//! `Sender` is live.

use phloem_ir::Value;
use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Which bounded-buffer implementation a channel uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// `std::sync::mpsc::sync_channel`, wrapped.
    Mpsc,
    /// Custom SPSC ring buffer (FastFlow-style).
    Ring,
    /// The ring with a bounded spin before reporting full/empty.
    Hybrid,
}

impl ChannelKind {
    /// All backends, for differential sweeps.
    pub const ALL: [ChannelKind; 3] = [ChannelKind::Mpsc, ChannelKind::Ring, ChannelKind::Hybrid];

    /// Stable lowercase label (CLI flags, JSON annotations).
    pub fn label(self) -> &'static str {
        match self {
            ChannelKind::Mpsc => "mpsc",
            ChannelKind::Ring => "ring",
            ChannelKind::Hybrid => "hybrid",
        }
    }

    /// Parses a [`Self::label`] back into a kind.
    pub fn parse(s: &str) -> Option<ChannelKind> {
        ChannelKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

impl fmt::Display for ChannelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
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

/// A pluggable bounded FIFO buffer of [`Value`] words.
///
/// Implementations provide only the buffer: internally synchronized for
/// the single-producer/single-consumer case, with *no* lifecycle
/// tracking (the [`Sender`]/[`Receiver`] endpoints layer that on top).
/// Multi-producer use is serialized by the endpoints, never by the
/// backend.
pub trait ChannelBackend: Send + Sync {
    /// Attempts to push; hands `v` back when the buffer is full.
    ///
    /// # Errors
    /// Returns `Err(v)` when the buffer is full.
    fn try_push(&self, v: Value) -> Result<(), Value>;

    /// Attempts to pop; `None` when the buffer is empty.
    fn try_pop(&self) -> Option<Value>;
}

/// [`ChannelKind::Mpsc`]: the std sync channel behind mutexed endpoints
/// (the backend trait is `&self`-shared, `mpsc::Receiver` is not
/// `Sync`). Contention on these mutexes is bounded by the channel's own
/// SPSC-at-steady-state usage.
struct MpscBackend {
    tx: Mutex<mpsc::SyncSender<Value>>,
    rx: Mutex<mpsc::Receiver<Value>>,
}

impl ChannelBackend for MpscBackend {
    fn try_push(&self, v: Value) -> Result<(), Value> {
        let tx = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        match tx.try_send(v) {
            Ok(()) => Ok(()),
            // Disconnection cannot happen: the backend owns both ends for
            // its whole life. Treat it like Full defensively.
            Err(mpsc::TrySendError::Full(v) | mpsc::TrySendError::Disconnected(v)) => Err(v),
        }
    }

    fn try_pop(&self) -> Option<Value> {
        let rx = self.rx.lock().unwrap_or_else(|e| e.into_inner());
        rx.try_recv().ok()
    }
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

/// [`ChannelKind::Ring`]: a bounded SPSC ring with monotonically
/// increasing head/tail counters (never wrapped, so full/empty are
/// `tail - head == cap` / `tail == head` with no lap ambiguity).
///
/// The release-store on `tail` after writing a slot pairs with the
/// consumer's acquire-load of `tail` before reading it; symmetrically
/// for `head` when a slot is vacated. This is the classic Lamport queue
/// and is correct for exactly one concurrent pusher and one concurrent
/// popper — which the endpoints enforce.
///
/// The shared counters are what the *peer* may rely on, not where an
/// endpoint has got to: [`ChannelBackend::try_push`]/`try_pop` use them
/// as their cursor and so publish every value at once, while the slab
/// endpoints ([`SlabSender`], [`SlabReceiver`]) run ahead of them on a
/// private cursor and store the shared one once per slab.
struct RingBackend {
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
unsafe impl Send for RingBackend {}
unsafe impl Sync for RingBackend {}

impl RingBackend {
    fn new(capacity: usize) -> RingBackend {
        RingBackend {
            slots: (0..capacity.next_power_of_two())
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            capacity: capacity as u64,
            head: CachePadded(AtomicU64::new(0)),
            tail: CachePadded(AtomicU64::new(0)),
        }
    }

    fn capacity(&self) -> u64 {
        self.capacity
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
}

impl ChannelBackend for RingBackend {
    fn try_push(&self, v: Value) -> Result<(), Value> {
        let t = self.tail.0.load(Ordering::Relaxed);
        let h = self.head.0.load(Ordering::Acquire);
        if t - h == self.capacity() {
            return Err(v);
        }
        // SAFETY: the endpoints admit one pusher at a time, whose cursor
        // is the shared `tail` itself, and `t - h < capacity`.
        unsafe { self.write(t, v) };
        self.tail.0.store(t + 1, Ordering::Release);
        Ok(())
    }

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

/// [`ChannelKind::Hybrid`]: the ring plus a bounded spin before giving
/// up, so transient full/empty blips never reach the park path.
struct HybridBackend {
    ring: RingBackend,
}

impl ChannelBackend for HybridBackend {
    fn try_push(&self, mut v: Value) -> Result<(), Value> {
        for _ in 0..HYBRID_SPINS {
            match self.ring.try_push(v) {
                Ok(()) => return Ok(()),
                Err(back) => {
                    v = back;
                    std::hint::spin_loop();
                }
            }
        }
        self.ring.try_push(v)
    }

    fn try_pop(&self) -> Option<Value> {
        for _ in 0..HYBRID_SPINS {
            if let Some(v) = self.ring.try_pop() {
                return Some(v);
            }
            std::hint::spin_loop();
        }
        self.ring.try_pop()
    }
}

/// The three buffers behind one channel type. The public endpoints only
/// need [`ChannelBackend`]; the slab endpoints also need to know whether
/// there is a ring underneath whose indices they can run ahead of.
enum Buffer {
    Mpsc(MpscBackend),
    Ring(RingBackend),
    Hybrid(HybridBackend),
}

impl Buffer {
    fn backend(&self) -> &dyn ChannelBackend {
        match self {
            Buffer::Mpsc(b) => b,
            Buffer::Ring(b) => b,
            Buffer::Hybrid(b) => b,
        }
    }

    /// The ring under this buffer, if there is one. The slab endpoints
    /// drive `hybrid`'s ring like any other: the worker's idle rounds
    /// already retry a blocked stage, so a second spin inside the
    /// channel buys nothing there.
    fn ring(&self) -> Option<&RingBackend> {
        match self {
            Buffer::Mpsc(_) => None,
            Buffer::Ring(r) => Some(r),
            Buffer::Hybrid(h) => Some(&h.ring),
        }
    }
}

/// Shared channel state: the buffer plus lifecycle bookkeeping.
struct Core {
    buffer: Buffer,
    /// Live `Sender` clones. When it hits zero the channel can never
    /// gain another value: `Empty` hardens into `Disconnected`.
    senders: AtomicUsize,
    /// Cleared when the `Receiver` drops; producers then get
    /// `Disconnected` instead of filling a buffer nobody drains.
    receiver_alive: AtomicBool,
    /// Serializes sends while more than one `Sender` is live (fan-in
    /// queues). Single-producer channels never touch it.
    send_lock: Mutex<()>,
}

/// The producing endpoint. Clone it once per producer stage; sends
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
        if !self.core.receiver_alive.load(Ordering::Acquire) {
            return Err(TrySendError::Disconnected(v));
        }
        let res = if self.core.senders.load(Ordering::Acquire) > 1 {
            let _g = self
                .core
                .send_lock
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            self.core.buffer.backend().try_push(v)
        } else {
            self.core.buffer.backend().try_push(v)
        };
        res.map_err(TrySendError::Full)
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

/// The consuming endpoint — unique per channel, matching the
/// validator's one-consumer-per-queue discipline. `Send` but not
/// `Sync`, like [`Sender`].
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
        if let Some(v) = self.core.buffer.backend().try_pop() {
            return Ok(v);
        }
        if self.core.senders.load(Ordering::Acquire) == 0 {
            // A value pushed just before the last sender dropped must
            // still drain: re-check the buffer *after* observing zero.
            return match self.core.buffer.backend().try_pop() {
                Some(v) => Ok(v),
                None => Err(TryRecvError::Disconnected),
            };
        }
        Err(TryRecvError::Empty)
    }
}

impl Drop for Receiver {
    fn drop(&mut self) {
        self.core.receiver_alive.store(false, Ordering::Release);
    }
}

/// Values an endpoint moves on its private cursor before it stores the
/// shared index. One cache-line transfer of the index (and one of each
/// slot line) then serves a slab of values instead of one. The size is
/// not tuned: `native_apps` read 0.60x / 0.62x / 0.60x serial at 4 / 8 /
/// 16, five interleaved runs each, inside the 0.07x spread of one
/// setting — blocked endpoints and slice ends publish before a slab
/// fills at any of them.
pub(crate) const SLAB: u64 = 8;

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
}

impl Cursor {
    fn at(index: u64) -> Cursor {
        Cursor {
            next: index,
            published: index,
            peer: index,
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
        if self.next - self.published >= SLAB {
            self.publish(shared);
        }
    }
}

/// The producing endpoint as [`super::NativeWorld`] drives it: a
/// [`Sender`] that, while it is the channel's only producer and the
/// buffer is a ring, writes slots on a private cursor and publishes
/// them a slab at a time.
///
/// What the consumer may rely on: everything sent is published by the
/// time `try_send` reports `Full`, by the time [`Self::flush`] returns,
/// and when the endpoint drops; and at least every [`SLAB`] values in
/// between. Control values are ordinary words in that FIFO, so they keep
/// their position whatever the slab boundaries are.
pub(crate) struct SlabSender {
    tx: Sender,
    cursor: Cursor,
    /// This endpoint has seen itself to be the channel's only producer
    /// and taken `cursor` from the shared `tail`.
    sole: bool,
}

impl SlabSender {
    pub(crate) fn new(tx: Sender) -> SlabSender {
        SlabSender {
            tx,
            cursor: Cursor::at(0),
            sole: false,
        }
    }

    /// [`Sender::try_send`], publishing by the slab.
    ///
    /// # Errors
    /// As [`Sender::try_send`].
    pub(crate) fn try_send(&mut self, v: Value) -> Result<(), TrySendError> {
        let core = &*self.tx.core;
        let Some(ring) = core.buffer.ring() else {
            return self.tx.try_send(v);
        };
        let cur = &mut self.cursor;
        if core.senders.load(Ordering::Acquire) > 1 {
            // Fan-in: the producers share one cursor, the shared `tail`,
            // under `send_lock`, so every value is published at once.
            // `tx` cannot be cloned once wrapped, so the count only
            // falls: fan-in comes before the private cursor, never after.
            return self.tx.try_send(v);
        }
        if !core.receiver_alive.load(Ordering::Acquire) {
            return Err(TrySendError::Disconnected(v));
        }
        if !self.sole {
            // Acquire: the other producers' slot writes, published by
            // their release-stores of `tail`, must happen before the
            // release-store that publishes ours on top of them.
            let tail = ring.tail.0.load(Ordering::Acquire);
            (cur.next, cur.published) = (tail, tail);
            self.sole = true;
        }
        // `>=`: after fan-in the cached `head` trails `next` by laps.
        let full = |c: &Cursor| c.next - c.peer >= ring.capacity();
        if full(cur) {
            cur.refresh(&ring.head.0);
            if full(cur) {
                // The consumer must see a full ring before we say so.
                cur.publish(&ring.tail.0);
                return Err(TrySendError::Full(v));
            }
        }
        // SAFETY: `senders == 1` and `Sender` is not `Sync`, so this is
        // the sole producer; `next` is its cursor (taken from the shared
        // index when it became sole, advanced only here); `peer` is an
        // acquire-loaded `head` and `next - peer < capacity`.
        unsafe { ring.write(cur.next, v) };
        cur.advance(&ring.tail.0);
        Ok(())
    }

    /// Publishes every value sent so far.
    pub(crate) fn flush(&mut self) {
        if let Some(ring) = self.tx.core.buffer.ring() {
            self.cursor.publish(&ring.tail.0);
        }
    }
}

impl Drop for SlabSender {
    /// Publishes before `tx` drops and the sender count falls, so the
    /// receiver's drain-then-`Disconnected` check cannot miss a value.
    fn drop(&mut self) {
        self.flush();
    }
}

/// The consuming endpoint as [`super::NativeWorld`] drives it: a
/// [`Receiver`] that, on a ring, reads slots on a private cursor and
/// hands them back to the producer a slab at a time.
///
/// What the producer may rely on: every slot read is vacated by the
/// time `try_recv` reports `Empty` or `Disconnected`, by the time
/// [`Self::flush`] returns, and when the endpoint drops; and at least
/// every [`SLAB`] values in between.
pub(crate) struct SlabReceiver {
    rx: Receiver,
    cursor: Cursor,
}

impl SlabReceiver {
    pub(crate) fn new(rx: Receiver) -> SlabReceiver {
        // Relaxed: only the receiver ever stores `head`, and handing the
        // receiver to this thread ordered those stores before this load.
        let head = rx
            .core
            .buffer
            .ring()
            .map_or(0, |ring| ring.head.0.load(Ordering::Relaxed));
        SlabReceiver {
            rx,
            cursor: Cursor::at(head),
        }
    }

    /// [`Receiver::try_recv`], vacating by the slab.
    ///
    /// # Errors
    /// As [`Receiver::try_recv`].
    pub(crate) fn try_recv(&mut self) -> Result<Value, TryRecvError> {
        let core = &*self.rx.core;
        let Some(ring) = core.buffer.ring() else {
            return self.rx.try_recv();
        };
        let cur = &mut self.cursor;
        let empty = |c: &Cursor| c.next == c.peer;
        if empty(cur) {
            cur.refresh(&ring.tail.0);
            if empty(cur) {
                // The producer must see an empty ring before we say so.
                cur.publish(&ring.head.0);
                if core.senders.load(Ordering::Acquire) > 0 {
                    return Err(TryRecvError::Empty);
                }
                // A value published just before the last sender dropped
                // must still drain: re-read `tail` *after* observing zero.
                cur.refresh(&ring.tail.0);
                if empty(cur) {
                    return Err(TryRecvError::Disconnected);
                }
            }
        }
        // SAFETY: the receiver is unique and not `Sync`, so this is the
        // sole consumer; `next` is its cursor (taken from the shared
        // index, which nobody else stores, and advanced only here);
        // `peer` is an acquire-loaded `tail` and `next < peer`.
        let v = unsafe { ring.read(cur.next) };
        cur.advance(&ring.head.0);
        Ok(v)
    }

    /// Vacates every slot read so far.
    pub(crate) fn flush(&mut self) {
        if let Some(ring) = self.rx.core.buffer.ring() {
            self.cursor.publish(&ring.head.0);
        }
    }
}

impl Drop for SlabReceiver {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Creates a bounded channel of the given kind and capacity.
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
            Buffer::Mpsc(MpscBackend {
                tx: Mutex::new(tx),
                rx: Mutex::new(rx),
            })
        }
        ChannelKind::Ring => Buffer::Ring(RingBackend::new(capacity)),
        ChannelKind::Hybrid => Buffer::Hybrid(HybridBackend {
            ring: RingBackend::new(capacity),
        }),
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

    fn slab_channel(kind: ChannelKind, capacity: usize) -> (SlabSender, SlabReceiver) {
        let (tx, rx) = channel(kind, capacity).unwrap();
        (SlabSender::new(tx), SlabReceiver::new(rx))
    }

    /// Message `i` of the stress stream: a control value on the last
    /// slot of every slab and on the first of every third (so they sit
    /// on and straddle the boundaries), floats and integers between.
    fn message(i: u64) -> Value {
        match i % SLAB {
            r if r == SLAB - 1 => Value::Ctrl((i / SLAB % 5) as u32),
            0 if (i / SLAB).is_multiple_of(3) => Value::Ctrl(7),
            r if r % 2 == 0 => Value::F64(i as f64 + 0.5),
            _ => Value::I64(i as i64),
        }
    }

    /// Real producer and consumer threads over the slab path, for ring
    /// depths below, at and above the slab, with seeded flushes standing
    /// in for slice ends. Neither side ever flushes because it must: a
    /// blocked endpoint has published everything, so the stream always
    /// drains; the last partial slab arrives through `Drop`.
    #[test]
    fn slab_framing_keeps_the_fifo_at_every_depth() {
        const N: u64 = 20_000;
        for kind in [ChannelKind::Ring, ChannelKind::Hybrid, ChannelKind::Mpsc] {
            for capacity in [1, 3, 7, 8, 9, 24, 100] {
                let mut rng = Rng(0x51AB ^ (capacity as u64) << 8 ^ kind.label().len() as u64);
                let (mut tx, mut rx) = slab_channel(kind, capacity);
                let (producer_seed, consumer_seed) = (rng.next() | 1, rng.next() | 1);
                let producer = std::thread::spawn(move || {
                    let mut rng = Rng(producer_seed);
                    let mut i = 0;
                    while i < N {
                        match tx.try_send(message(i)) {
                            Ok(()) => i += 1,
                            Err(TrySendError::Full(v)) => {
                                assert_eq!(v, message(i), "Full hands the value back");
                                std::thread::yield_now();
                            }
                            Err(TrySendError::Disconnected(_)) => panic!("receiver died"),
                        }
                        if rng.below(37) == 0 {
                            tx.flush();
                        }
                    }
                });
                let mut rng = Rng(consumer_seed);
                let mut got = 0;
                loop {
                    match rx.try_recv() {
                        Ok(v) => {
                            assert_eq!(v, message(got), "{kind} depth {capacity}: message {got}");
                            got += 1;
                        }
                        Err(TryRecvError::Empty) => std::thread::yield_now(),
                        Err(TryRecvError::Disconnected) => break,
                    }
                    if rng.below(41) == 0 {
                        rx.flush();
                    }
                }
                producer.join().unwrap();
                assert_eq!(got, N, "{kind} depth {capacity}");
            }
        }
    }

    /// On a ring, a partial slab is the producer's own until one of the
    /// three publication points: a `Full` report, `flush`, `Drop`.
    #[test]
    fn a_partial_slab_is_visible_after_block_flush_and_drop() {
        for kind in [ChannelKind::Ring, ChannelKind::Hybrid] {
            // Block: depth below the slab, so only `Full` can publish.
            let (mut tx, mut rx) = slab_channel(kind, 4);
            for i in 0..4 {
                tx.try_send(Value::I64(i)).unwrap();
            }
            assert_eq!(
                rx.try_recv(),
                Err(TryRecvError::Empty),
                "{kind}: unpublished"
            );
            assert_eq!(
                tx.try_send(Value::I64(4)),
                Err(TrySendError::Full(Value::I64(4)))
            );
            for i in 0..4 {
                assert_eq!(rx.try_recv(), Ok(Value::I64(i)), "{kind}: after Full");
            }
            // The consumer's side of the same rule: four slots read, none
            // vacated until it reports `Empty`.
            assert!(matches!(
                tx.try_send(Value::I64(4)),
                Err(TrySendError::Full(_))
            ));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            tx.try_send(Value::I64(4)).unwrap();

            // Flush (a slice end), then a slab boundary, then drop.
            let (mut tx, mut rx) = slab_channel(kind, 24);
            for i in 0..3 {
                tx.try_send(Value::I64(i)).unwrap();
            }
            assert_eq!(
                rx.try_recv(),
                Err(TryRecvError::Empty),
                "{kind}: unpublished"
            );
            tx.flush();
            for i in 0..3 {
                assert_eq!(rx.try_recv(), Ok(Value::I64(i)), "{kind}: after flush");
            }
            for i in 3..3 + SLAB as i64 {
                assert_eq!(rx.try_recv(), Err(TryRecvError::Empty), "{kind}: value {i}");
                tx.try_send(Value::I64(i)).unwrap();
            }
            for i in 3..3 + SLAB as i64 {
                assert_eq!(rx.try_recv(), Ok(Value::I64(i)), "{kind}: after a slab");
            }
            tx.try_send(Value::Ctrl(9)).unwrap();
            drop(tx);
            assert_eq!(rx.try_recv(), Ok(Value::Ctrl(9)), "{kind}: after drop");
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected), "{kind}");
        }
    }

    /// Fan-in over slab endpoints: while both producers live every value
    /// goes through the shared cursor under `send_lock`; when one leaves,
    /// the survivor picks the cursor up where the two left it. Per-
    /// producer order holds throughout and nothing is lost or repeated.
    #[test]
    fn fan_in_slab_senders_keep_per_producer_order() {
        const EACH: i64 = 3_000;
        const LANE: i64 = 1_000_000;
        for kind in ChannelKind::ALL {
            for capacity in [2, 8, 24] {
                let (tx, rx) = channel(kind, capacity).unwrap();
                let clone = tx.clone();
                let mut rx = SlabReceiver::new(rx);
                let producers: Vec<_> = [(0, tx, EACH), (1, clone, 3 * EACH)]
                    .into_iter()
                    .map(|(lane, tx, n)| {
                        let mut tx = SlabSender::new(tx);
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
                loop {
                    match rx.try_recv() {
                        Ok(Value::I64(v)) => {
                            let lane = (v / LANE) as usize;
                            assert_eq!(v % LANE, next[lane], "{kind} depth {capacity} lane {lane}");
                            next[lane] += 1;
                        }
                        Ok(other) => panic!("unexpected {other:?}"),
                        Err(TryRecvError::Empty) => std::thread::yield_now(),
                        Err(TryRecvError::Disconnected) => break,
                    }
                }
                for p in producers {
                    p.join().unwrap();
                }
                assert_eq!(next, [EACH, 3 * EACH], "{kind} depth {capacity}");
            }
        }
    }
}
