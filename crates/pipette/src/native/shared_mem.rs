//! Lock-free shared functional memory for the native backend.
//!
//! Pipeline stages on different OS threads read and write the same
//! arrays. [`SharedMem`] mirrors a [`MemState`] into per-element atomic
//! pairs — a one-byte type tag plus the value's 64 bits — so every
//! access is defined behavior even if a miscompiled pipeline races (the
//! differential harness's whole job is to *find* such pipelines, so the
//! backend must observe a wrong answer, never UB). Correctly decoupled
//! pipelines order conflicting accesses through queue dataflow, which
//! the channel acquire/release pairs turn into happens-before, so
//! `Relaxed` element accesses suffice; the tag and bits of one element
//! are two separate atomics, torn only under races that are already
//! program bugs.
//!
//! Atomic RMWs take a striped mutex (by array/index hash) around the
//! load–op–store sequence, preserving the old-value return semantics of
//! [`phloem_ir::World::atomic_rmw`].
//!
//! Trap parity with [`MemState`] is exact: same variants, same payloads,
//! same check order (`Ctrl`-as-data before bounds on stores).

use phloem_ir::{eval_binop, ArrayId, BinOp, MemState, Trap, Value};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// Type tag per element (a `Value` discriminant that survives the trip
/// through atomic storage — `I64(1)` and `F64(1.0)` must round-trip as
/// themselves).
const TAG_I64: u8 = 0;
const TAG_F64: u8 = 1;

/// Stripe count for the RMW locks. Power of two, comfortably above any
/// realistic stage count so concurrent RMWs to different locations
/// rarely collide.
const STRIPES: usize = 64;

struct SharedArray {
    name: String,
    tags: Box<[AtomicU8]>,
    bits: Box<[AtomicU64]>,
}

/// Shared mirror of a [`MemState`], safe for concurrent stage access.
pub struct SharedMem {
    arrays: Vec<SharedArray>,
    stripes: Vec<Mutex<()>>,
}

fn encode(v: Value) -> (u8, u64) {
    match v {
        Value::I64(x) => (TAG_I64, x as u64),
        Value::F64(x) => (TAG_F64, x.to_bits()),
        // Callers trap on Ctrl before encoding; unreachable by contract.
        Value::Ctrl(c) => unreachable!("control value CV({c}) reached shared memory"),
    }
}

fn decode(tag: u8, bits: u64) -> Value {
    match tag {
        TAG_I64 => Value::I64(bits as i64),
        _ => Value::F64(f64::from_bits(bits)),
    }
}

impl SharedMem {
    /// Mirrors `mem` into shared storage.
    pub fn from_mem(mem: &MemState) -> SharedMem {
        let arrays = (0..mem.array_count())
            .map(|i| {
                let a = ArrayId(i as u32);
                let store = mem.array(a);
                let mut tags = Vec::with_capacity(store.len());
                let mut bits = Vec::with_capacity(store.len());
                for &v in mem.values(a) {
                    let (t, b) = encode(v);
                    tags.push(AtomicU8::new(t));
                    bits.push(AtomicU64::new(b));
                }
                SharedArray {
                    name: store.decl.name.clone(),
                    tags: tags.into_boxed_slice(),
                    bits: bits.into_boxed_slice(),
                }
            })
            .collect();
        SharedMem {
            arrays,
            stripes: (0..STRIPES).map(|_| Mutex::new(())).collect(),
        }
    }

    /// Writes the (possibly partial) results back into `mem`. Called
    /// once after the stage threads have joined, so the plain loads
    /// here are quiescent.
    pub fn write_back(&self, mem: &mut MemState) {
        for (i, a) in self.arrays.iter().enumerate() {
            let vals: Vec<Value> = (0..a.bits.len())
                .map(|k| {
                    decode(
                        a.tags[k].load(Ordering::Relaxed),
                        a.bits[k].load(Ordering::Relaxed),
                    )
                })
                .collect();
            mem.set_values(ArrayId(i as u32), vals);
        }
    }

    fn array(&self, a: ArrayId) -> Result<&SharedArray, Trap> {
        self.arrays
            .get(a.0 as usize)
            .ok_or_else(|| Trap::BadId(format!("array {}", a.0)))
    }

    fn check_idx(s: &SharedArray, idx: i64) -> Result<usize, Trap> {
        if idx < 0 || idx as usize >= s.bits.len() {
            return Err(Trap::OutOfBounds(s.name.clone(), idx, s.bits.len()));
        }
        Ok(idx as usize)
    }

    /// Reads `a[idx]`.
    ///
    /// # Errors
    /// Traps on a bad array id or out-of-bounds index.
    #[inline]
    pub fn load(&self, a: ArrayId, idx: i64) -> Result<Value, Trap> {
        let s = self.array(a)?;
        let k = Self::check_idx(s, idx)?;
        Ok(decode(
            s.tags[k].load(Ordering::Relaxed),
            s.bits[k].load(Ordering::Relaxed),
        ))
    }

    /// Writes `a[idx] = v`.
    ///
    /// # Errors
    /// Traps on a bad array id, out-of-bounds index, or storing a
    /// control value (checked before bounds, matching [`MemState`]).
    #[inline]
    pub fn store(&self, a: ArrayId, idx: i64, v: Value) -> Result<(), Trap> {
        if let Value::Ctrl(c) = v {
            return Err(Trap::CtrlAsData(c));
        }
        let s = self.array(a)?;
        let k = Self::check_idx(s, idx)?;
        let (t, b) = encode(v);
        s.tags[k].store(t, Ordering::Relaxed);
        s.bits[k].store(b, Ordering::Relaxed);
        Ok(())
    }

    /// Hints the hardware prefetcher at `a[idx]` (RA helper threads call
    /// this ahead of their base-array access stream). Out-of-range
    /// indices are ignored; correctness-neutral everywhere.
    #[inline]
    pub fn prefetch(&self, a: ArrayId, idx: i64) {
        #[cfg(target_arch = "x86_64")]
        if let Some(s) = self.arrays.get(a.0 as usize) {
            if idx >= 0 && (idx as usize) < s.bits.len() {
                // SAFETY: the pointer is in-bounds and prefetch has no
                // observable effect on memory.
                unsafe {
                    std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                        s.bits[idx as usize].as_ptr() as *const i8,
                    );
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (a, idx);
    }

    /// Atomically applies `old op v` to `a[idx]`, returning the old
    /// value. Serialized through a striped lock so concurrent RMWs to
    /// the same location are linearizable.
    ///
    /// # Errors
    /// Traps like [`Self::load`]/[`Self::store`], plus arithmetic traps
    /// from the operation itself.
    pub fn rmw(&self, op: BinOp, a: ArrayId, idx: i64, v: Value) -> Result<Value, Trap> {
        let s = self.array(a)?;
        let k = Self::check_idx(s, idx)?;
        let stripe = (a.0 as usize).wrapping_mul(31).wrapping_add(k) % STRIPES;
        let _g = self.stripes[stripe]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let old = decode(
            s.tags[k].load(Ordering::Relaxed),
            s.bits[k].load(Ordering::Relaxed),
        );
        let new = eval_binop(op, old, v)?;
        if let Value::Ctrl(c) = new {
            return Err(Trap::CtrlAsData(c));
        }
        let (t, b) = encode(new);
        s.tags[k].store(t, Ordering::Relaxed);
        s.bits[k].store(b, Ordering::Relaxed);
        Ok(old)
    }
}
