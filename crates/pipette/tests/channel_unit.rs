//! Unit and stress tests for the public bounded channels of the native
//! backend: capacity edges, drop-termination protocols, CV in-band
//! ordering, a seeded interleaving stress loop per buffer kind, and
//! panic containment through the pool's `catch_unwind` path.
//!
//! The native world runs every queue on the ring through its slab
//! endpoints (pinned by `native::channel`'s own unit tests); these sweep
//! `ChannelKind::ALL` because the public constructor still offers three
//! buffers for the benchmark's per-kind probe. ROADMAP item 1 deletes
//! the `Mpsc` and `Hybrid` buffers together with the probe rows.

use phloem_ir::Value;
use phloem_pool::Pool;
use pipette_sim::native::channel::{
    channel, ChannelError, ChannelKind, TryRecvError, TrySendError,
};

/// Zero capacity is a construction error on every backend (the
/// simulator's hardware queues are at least one entry deep; a
/// rendezvous channel has no analogue).
#[test]
fn zero_capacity_is_an_error() {
    for kind in ChannelKind::ALL {
        assert_eq!(
            channel(kind, 0).err(),
            Some(ChannelError::ZeroCapacity),
            "{kind:?}"
        );
    }
}

/// Capacity 1: exactly one value fits; the second send reports full and
/// hands the value back; a drain reopens the slot.
#[test]
fn capacity_one_edge() {
    for kind in ChannelKind::ALL {
        let (tx, rx) = channel(kind, 1).unwrap();
        tx.try_send(Value::I64(1)).unwrap();
        match tx.try_send(Value::I64(2)) {
            Err(TrySendError::Full(Value::I64(2))) => {}
            other => panic!("{kind:?}: expected Full(2), got {other:?}"),
        }
        assert_eq!(rx.try_recv().unwrap(), Value::I64(1));
        tx.try_send(Value::I64(2)).unwrap();
        assert_eq!(rx.try_recv().unwrap(), Value::I64(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty), "{kind:?}");
    }
}

/// Power-of-two capacity: fill to exactly `cap`, overflow rejected,
/// drain returns everything in FIFO order.
#[test]
fn power_of_two_capacity_fills_exactly() {
    for kind in ChannelKind::ALL {
        let cap = 16;
        let (tx, rx) = channel(kind, cap).unwrap();
        for i in 0..cap as i64 {
            tx.try_send(Value::I64(i)).unwrap();
        }
        assert!(
            matches!(tx.try_send(Value::I64(99)), Err(TrySendError::Full(_))),
            "{kind:?}: slot {cap} must not exist"
        );
        for i in 0..cap as i64 {
            assert_eq!(rx.try_recv().unwrap(), Value::I64(i), "{kind:?}");
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }
}

/// Producer drop: `Empty` hardens into `Disconnected` once the last
/// sender is gone — but values sent before the drop still drain first.
#[test]
fn producer_drop_terminates_the_receiver() {
    for kind in ChannelKind::ALL {
        let (tx, rx) = channel(kind, 4).unwrap();
        let tx2 = tx.clone();
        tx.try_send(Value::I64(1)).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv().unwrap(), Value::I64(1));
        assert_eq!(
            rx.try_recv(),
            Err(TryRecvError::Empty),
            "{kind:?}: one sender clone is still live"
        );
        tx2.try_send(Value::I64(2)).unwrap();
        drop(tx2);
        assert_eq!(
            rx.try_recv().unwrap(),
            Value::I64(2),
            "{kind:?}: drain first"
        );
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected), "{kind:?}");
    }
}

/// Consumer drop: producers get `Disconnected` (with the value handed
/// back) instead of filling a buffer nobody will drain.
#[test]
fn consumer_drop_terminates_the_senders() {
    for kind in ChannelKind::ALL {
        let (tx, rx) = channel(kind, 4).unwrap();
        tx.try_send(Value::I64(1)).unwrap();
        drop(rx);
        match tx.try_send(Value::I64(2)) {
            Err(TrySendError::Disconnected(Value::I64(2))) => {}
            other => panic!("{kind:?}: expected Disconnected(2), got {other:?}"),
        }
    }
}

/// Control values are in-band: a `Ctrl` word travels the same FIFO as
/// data and arrives in exactly the position it was sent — the property
/// the CV handler protocol depends on.
#[test]
fn ctrl_values_keep_their_in_band_position() {
    for kind in ChannelKind::ALL {
        let (tx, rx) = channel(kind, 8).unwrap();
        let seq = [
            Value::I64(10),
            Value::Ctrl(1),
            Value::F64(2.5),
            Value::Ctrl(0),
            Value::I64(-3),
        ];
        for v in seq {
            tx.try_send(v).unwrap();
        }
        for want in seq {
            assert_eq!(rx.try_recv().unwrap(), want, "{kind:?}");
        }
    }
}

/// Minimal xorshift64* for seeded interleavings (mirrors the fuzz rig).
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

/// 10k messages through real producer/consumer threads with seeded
/// burst sizes and capacities: every value arrives exactly once, in
/// order, with the right discriminant (`I64` vs `F64` vs `Ctrl` must
/// survive the trip). Runs per backend.
#[test]
#[allow(clippy::disallowed_methods)]
fn seeded_interleaving_stress_10k_messages() {
    const N: i64 = 10_000;
    for kind in ChannelKind::ALL {
        let mut rng = Rng(0x5EED ^ kind.label().len() as u64);
        let cap = 1 + rng.below(32) as usize;
        let (tx, rx) = channel(kind, cap).unwrap();
        let producer_seed = rng.next() | 1;
        let producer = std::thread::spawn(move || {
            let mut rng = Rng(producer_seed);
            let mut i = 0i64;
            while i < N {
                // Seeded burst, then briefly yield so interleavings vary.
                let burst = 1 + rng.below(17) as i64;
                let mut sent = 0;
                while sent < burst && i < N {
                    let v = match i % 3 {
                        0 => Value::I64(i),
                        1 => Value::F64(i as f64 + 0.5),
                        _ => Value::Ctrl((i % 7) as u32),
                    };
                    match tx.try_send(v) {
                        Ok(()) => {
                            i += 1;
                            sent += 1;
                        }
                        Err(TrySendError::Full(_)) => std::thread::yield_now(),
                        Err(TrySendError::Disconnected(_)) => panic!("receiver died"),
                    }
                }
                if rng.below(4) == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let mut got = 0i64;
        while got < N {
            match rx.try_recv() {
                Ok(v) => {
                    let want = match got % 3 {
                        0 => Value::I64(got),
                        1 => Value::F64(got as f64 + 0.5),
                        _ => Value::Ctrl((got % 7) as u32),
                    };
                    assert_eq!(v, want, "{kind:?}: message {got} (cap {cap})");
                    got += 1;
                }
                Err(TryRecvError::Empty) => std::thread::yield_now(),
                Err(TryRecvError::Disconnected) => {
                    panic!("{kind:?}: disconnected after {got} of {N}")
                }
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected), "{kind:?}");
    }
}

/// Fan-in: two producer clones on separate threads; every message
/// arrives exactly once and each producer's own sequence stays ordered
/// (cross-producer order is unspecified — only control tokens whose
/// handlers commute travel fan-in queues).
#[test]
#[allow(clippy::disallowed_methods)]
fn fan_in_senders_preserve_per_producer_order() {
    for kind in ChannelKind::ALL {
        let (tx, rx) = channel(kind, 8).unwrap();
        let tx2 = tx.clone();
        let mk = |base: i64, tx: pipette_sim::native::channel::Sender| {
            std::thread::spawn(move || {
                for i in 0..500i64 {
                    loop {
                        match tx.try_send(Value::I64(base + i)) {
                            Ok(()) => break,
                            Err(TrySendError::Full(_)) => std::thread::yield_now(),
                            Err(e) => panic!("{e:?}"),
                        }
                    }
                }
            })
        };
        let p1 = mk(0, tx);
        let p2 = mk(10_000, tx2);
        let mut last = [-1i64, -1i64];
        let mut count = 0;
        while count < 1000 {
            match rx.try_recv() {
                Ok(Value::I64(v)) => {
                    let lane = usize::from(v >= 10_000);
                    assert!(v > last[lane], "{kind:?}: lane {lane} reordered");
                    last[lane] = v;
                    count += 1;
                }
                Ok(other) => panic!("unexpected {other:?}"),
                Err(TryRecvError::Empty) => std::thread::yield_now(),
                Err(TryRecvError::Disconnected) => panic!("early disconnect"),
            }
        }
        p1.join().unwrap();
        p2.join().unwrap();
        assert_eq!(last[0], 499);
        assert_eq!(last[1], 10_499);
    }
}

/// Panic containment via the pool's `catch_unwind` path: a fleet task
/// that panics mid-conversation fills only its own slot with
/// `Err(TaskPanic)`; its sender drops during the unwind, so the
/// surviving consumer task terminates through the disconnect protocol
/// instead of hanging.
#[test]
fn panic_in_a_channel_task_is_contained_by_the_pool() {
    for kind in ChannelKind::ALL {
        let (tx, rx) = channel(kind, 4).unwrap();
        let tx = std::sync::Mutex::new(Some(tx));
        let rx = std::sync::Mutex::new(Some(rx));
        let pool = Pool::new(2);
        let out = pool.run(2, |i| {
            if i == 0 {
                let tx = tx.lock().unwrap().take().unwrap();
                tx.try_send(Value::I64(41)).unwrap();
                panic!("injected stage panic");
            } else {
                let rx = rx.lock().unwrap().take().unwrap();
                let mut sum = 0i64;
                loop {
                    match rx.try_recv() {
                        Ok(Value::I64(v)) => sum += v,
                        Ok(_) => {}
                        Err(TryRecvError::Empty) => std::thread::yield_now(),
                        Err(TryRecvError::Disconnected) => return sum,
                    }
                }
            }
        });
        let e = out[0].as_ref().unwrap_err();
        assert!(e.message.contains("injected stage panic"), "{kind:?}: {e}");
        assert_eq!(
            out[1].as_ref().unwrap(),
            &41,
            "{kind:?}: consumer must see the pre-panic value, then terminate"
        );
    }
}
