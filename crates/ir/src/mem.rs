//! Functional memory state: named arrays in a flat address space.
//!
//! Each array receives a 64-byte-aligned base address from a bump
//! allocator, so the cache model in `pipette-sim` sees realistic line and
//! set behaviour. Element sizes of 4 bytes (graph ids, CSR offsets) and
//! 8 bytes (doubles) are supported; values are held as [`Value`]s
//! regardless of element width.
//!
//! Every element is a one-byte type tag plus the value's 64 bits, two
//! atomics read and written `Relaxed`, so one `MemState` is shared in
//! place by the stage threads of a native run: every access is defined
//! behaviour even if a miscompiled pipeline races (the differential
//! harness exists to *find* such pipelines, so a race must show as a
//! wrong answer, never as UB). A correctly decoupled pipeline orders
//! its conflicting accesses through queue dataflow, which the channels'
//! acquire/release pairs turn into happens-before; the tag and bits of
//! one element tear only under races that are already program bugs.
//! On one thread a `Relaxed` access is a plain move.

use crate::expr::ArrayId;
use crate::func::ArrayDecl;
use crate::value::{eval_binop, BinOp, Trap, Ty, Value};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};

const BASE_ADDR: u64 = 0x1_0000;
const LINE: u64 = 64;

/// Type tag per element, so `I64(1)` and `F64(1.0)` round-trip as
/// themselves.
const TAG_I64: u8 = 0;
const TAG_F64: u8 = 1;

/// A data value as a (tag, bits) pair; memory holds no control values.
/// Shaped so the tag compiles to a flag, not a branch: the one store
/// site of an interpreter sees both types.
#[inline]
fn encode(v: Value) -> Result<(u8, u64), Trap> {
    if let Value::Ctrl(c) = v {
        return Err(Trap::CtrlAsData(c));
    }
    // `TAG_F64` is 1 and `TAG_I64` 0.
    let tag = u8::from(matches!(v, Value::F64(_)));
    let bits = match v {
        Value::I64(x) => x as u64,
        Value::F64(x) => x.to_bits(),
        Value::Ctrl(_) => 0,
    };
    Ok((tag, bits))
}

#[inline]
fn read(tag: &AtomicU8, bits: &AtomicU64) -> Value {
    let bits = bits.load(Relaxed);
    if tag.load(Relaxed) == TAG_I64 {
        Value::I64(bits as i64)
    } else {
        Value::F64(f64::from_bits(bits))
    }
}

/// One element: its index and its two halves.
struct Elem<'a> {
    k: usize,
    tag: &'a AtomicU8,
    bits: &'a AtomicU64,
}

impl Elem<'_> {
    #[inline]
    fn get(&self) -> Value {
        read(self.tag, self.bits)
    }

    #[inline]
    fn set(&self, (tag, bits): (u8, u64)) {
        self.tag.store(tag, Relaxed);
        self.bits.store(bits, Relaxed);
    }
}

fn fill<T>(len: usize, f: impl Fn() -> T) -> Box<[T]> {
    (0..len).map(|_| f()).collect()
}

/// One allocated array.
#[derive(Debug)]
pub struct ArrayStore {
    /// Declaration (name, type, element width).
    pub decl: ArrayDecl,
    /// Base address in the simulated flat address space.
    pub base: u64,
    tags: Box<[AtomicU8]>,
    bits: Box<[AtomicU64]>,
}

impl Clone for ArrayStore {
    /// A deep copy: stores through the clone leave `self` unchanged.
    fn clone(&self) -> ArrayStore {
        ArrayStore {
            decl: self.decl.clone(),
            base: self.base,
            tags: self
                .tags
                .iter()
                .map(|t| AtomicU8::new(t.load(Relaxed)))
                .collect(),
            bits: self
                .bits
                .iter()
                .map(|b| AtomicU64::new(b.load(Relaxed)))
                .collect(),
        }
    }
}

impl ArrayStore {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    #[inline]
    fn cell(&self, idx: i64) -> Result<Elem<'_>, Trap> {
        // A negative `idx` wraps past every length.
        let k = idx as usize;
        match (self.tags.get(k), self.bits.get(k)) {
            (Some(tag), Some(bits)) => Ok(Elem { k, tag, bits }),
            _ => Err(Trap::OutOfBounds(self.decl.name.clone(), idx, self.len())),
        }
    }

    #[inline]
    fn addr(&self, c: &Elem) -> u64 {
        self.base + c.k as u64 * self.decl.elem_bytes as u64
    }

    fn values(&self) -> impl Iterator<Item = Value> + '_ {
        self.tags
            .iter()
            .zip(&self.bits[..])
            .map(|(t, b)| read(t, b))
    }
}

/// The full memory state of one simulation, shared in place by the
/// stages of a native run (see the module doc).
#[derive(Clone, Debug, Default)]
pub struct MemState {
    arrays: Vec<ArrayStore>,
    next_base: u64,
}

impl MemState {
    /// Creates an empty memory state.
    pub fn new() -> MemState {
        MemState {
            arrays: Vec::new(),
            next_base: BASE_ADDR,
        }
    }

    fn push(&mut self, decl: ArrayDecl, tags: Box<[AtomicU8]>, bits: Box<[AtomicU64]>) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        let bytes = bits.len() as u64 * decl.elem_bytes as u64;
        let base = self.next_base;
        // Leave a one-line gap between arrays so unrelated arrays never
        // share a cache line.
        self.next_base = (base + bytes + LINE).next_multiple_of(LINE);
        self.arrays.push(ArrayStore {
            decl,
            base,
            tags,
            bits,
        });
        id
    }

    /// Allocates a zero-initialized array. Arrays must be allocated in
    /// [`ArrayId`] order matching the function's declarations.
    pub fn alloc(&mut self, decl: ArrayDecl, len: usize) -> ArrayId {
        let (tag, bits) = encode(decl.ty.zero()).expect("zero is data");
        self.push(
            decl,
            fill(len, || AtomicU8::new(tag)),
            fill(len, || AtomicU64::new(bits)),
        )
    }

    /// Allocates an integer array from an iterator of `i64`.
    pub fn alloc_i64(&mut self, decl: ArrayDecl, data: impl IntoIterator<Item = i64>) -> ArrayId {
        debug_assert_eq!(decl.ty, Ty::I64);
        let bits: Box<[AtomicU64]> = data.into_iter().map(|x| AtomicU64::new(x as u64)).collect();
        self.push(decl, fill(bits.len(), || AtomicU8::new(TAG_I64)), bits)
    }

    /// Allocates a float array from an iterator of `f64`.
    pub fn alloc_f64(&mut self, decl: ArrayDecl, data: impl IntoIterator<Item = f64>) -> ArrayId {
        debug_assert_eq!(decl.ty, Ty::F64);
        let bits: Box<[AtomicU64]> = data
            .into_iter()
            .map(|x| AtomicU64::new(x.to_bits()))
            .collect();
        self.push(decl, fill(bits.len(), || AtomicU8::new(TAG_F64)), bits)
    }

    /// Number of arrays allocated.
    pub fn array_count(&self) -> usize {
        self.arrays.len()
    }

    /// Metadata of one array.
    ///
    /// # Panics
    /// Panics if `a` was never allocated.
    pub fn array(&self, a: ArrayId) -> &ArrayStore {
        &self.arrays[a.0 as usize]
    }

    #[inline]
    fn store_ref(&self, a: ArrayId) -> Result<&ArrayStore, Trap> {
        self.arrays
            .get(a.0 as usize)
            .ok_or_else(|| Trap::BadId(format!("array {}", a.0)))
    }

    /// Reads `a[idx]`.
    ///
    /// # Errors
    /// Traps on a bad array id or out-of-bounds index.
    #[inline]
    pub fn load(&self, a: ArrayId, idx: i64) -> Result<Value, Trap> {
        Ok(self.store_ref(a)?.cell(idx)?.get())
    }

    /// Writes `a[idx] = v`.
    ///
    /// # Errors
    /// Traps on storing a control value, then on a bad array id, then on
    /// an out-of-bounds index.
    #[inline]
    pub fn store(&self, a: ArrayId, idx: i64, v: Value) -> Result<(), Trap> {
        self.store_with_addr(a, idx, v).map(drop)
    }

    /// Byte address of `a[idx]` (for the cache model).
    ///
    /// # Errors
    /// Traps on a bad array id or out-of-bounds index.
    pub fn addr(&self, a: ArrayId, idx: i64) -> Result<u64, Trap> {
        let s = self.store_ref(a)?;
        Ok(s.addr(&s.cell(idx)?))
    }

    /// Reads `a[idx]` and returns its byte address in one array lookup —
    /// the hot timed-load path needs both, and the separate
    /// [`Self::load`] + [`Self::addr`] pair pays the id/bounds checks
    /// twice.
    ///
    /// # Errors
    /// Traps on a bad array id or out-of-bounds index.
    #[inline]
    pub fn load_with_addr(&self, a: ArrayId, idx: i64) -> Result<(Value, u64), Trap> {
        let s = self.store_ref(a)?;
        let c = s.cell(idx)?;
        Ok((c.get(), s.addr(&c)))
    }

    /// Writes `a[idx] = v` and returns the byte address in one array
    /// lookup (hot timed-store path; see [`Self::load_with_addr`]).
    ///
    /// # Errors
    /// Traps like [`Self::store`].
    #[inline]
    pub fn store_with_addr(&self, a: ArrayId, idx: i64, v: Value) -> Result<u64, Trap> {
        let v = encode(v)?;
        let s = self.store_ref(a)?;
        let c = s.cell(idx)?;
        c.set(v);
        Ok(s.addr(&c))
    }

    /// Applies `a[idx] = a[idx] op v`, returning the old value and the
    /// element's byte address. Not atomic by itself: a caller that
    /// shares the memory across threads serializes RMWs to one element.
    ///
    /// # Errors
    /// Traps like [`Self::load`], then on whatever `op` traps on.
    pub fn rmw(&self, op: BinOp, a: ArrayId, idx: i64, v: Value) -> Result<(Value, u64), Trap> {
        let s = self.store_ref(a)?;
        let c = s.cell(idx)?;
        let old = c.get();
        c.set(encode(eval_binop(op, old, v)?)?);
        Ok((old, s.addr(&c)))
    }

    /// Hints the hardware prefetcher at `a[idx]` (native RA stages call
    /// this ahead of their base-array access stream). Out-of-range
    /// indices are ignored; it never changes what any access returns.
    #[inline]
    pub fn prefetch(&self, a: ArrayId, idx: i64) {
        #[cfg(target_arch = "x86_64")]
        if let Some(b) = self
            .arrays
            .get(a.0 as usize)
            .and_then(|s| s.bits.get(idx as usize))
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: SSE is baseline on x86_64, and a prefetch has no
            // observable effect on memory.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(b.as_ptr() as *const i8) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (a, idx);
    }

    /// Contents of an integer array as `i64`s (for result checking).
    ///
    /// # Panics
    /// Panics if the array holds non-integer values.
    pub fn i64_vec(&self, a: ArrayId) -> Vec<i64> {
        self.array(a)
            .values()
            .map(|v| v.as_i64().expect("i64 array"))
            .collect()
    }

    /// Contents of a float array as `f64`s.
    pub fn f64_vec(&self, a: ArrayId) -> Vec<f64> {
        self.array(a)
            .values()
            .map(|v| v.as_f64().expect("f64 array"))
            .collect()
    }

    /// A copy of an array's values.
    pub fn values(&self, a: ArrayId) -> Vec<Value> {
        self.array(a).values().collect()
    }

    /// Overwrites the full contents of an array (length must match).
    ///
    /// # Panics
    /// Panics on length mismatch or a control value.
    pub fn set_values(&mut self, a: ArrayId, vals: &[Value]) {
        let s = &self.arrays[a.0 as usize];
        assert_eq!(s.len(), vals.len(), "array length mismatch");
        for (k, &v) in vals.iter().enumerate() {
            let c = s.cell(k as i64).expect("in bounds");
            c.set(encode(v).expect("data value"));
        }
    }

    /// True if the observable contents of two memories are equal
    /// (used to compare pipeline output against the serial oracle).
    /// Compares [`Value`]s, not bits: NaN differs from itself and `0.0`
    /// equals `-0.0`.
    pub fn same_contents(&self, other: &MemState) -> bool {
        self.arrays.len() == other.arrays.len()
            && self
                .arrays
                .iter()
                .zip(&other.arrays)
                .all(|(a, b)| a.len() == b.len() && a.values().eq(b.values()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_access() {
        let mut m = MemState::new();
        let a = m.alloc_i64(ArrayDecl::i32("a"), [1, 2, 3]);
        assert_eq!(m.load(a, 1).unwrap(), Value::I64(2));
        m.store(a, 1, Value::I64(9)).unwrap();
        assert_eq!(m.i64_vec(a), vec![1, 9, 3]);
    }

    #[test]
    fn out_of_bounds_traps() {
        let mut m = MemState::new();
        let a = m.alloc(ArrayDecl::i64("a"), 2);
        assert!(matches!(m.load(a, 2), Err(Trap::OutOfBounds(_, 2, 2))));
        assert!(matches!(m.load(a, -1), Err(Trap::OutOfBounds(_, -1, 2))));
    }

    #[test]
    fn addresses_are_line_aligned_and_disjoint() {
        let mut m = MemState::new();
        let a = m.alloc(ArrayDecl::i32("a"), 100);
        let b = m.alloc(ArrayDecl::f64("b"), 100);
        let a_base = m.addr(a, 0).unwrap();
        let a_end = m.addr(a, 99).unwrap() + 4;
        let b_base = m.addr(b, 0).unwrap();
        assert_eq!(a_base % 64, 0);
        assert_eq!(b_base % 64, 0);
        assert!(b_base >= a_end + 64, "arrays must not share a line");
        // 4-byte elements: consecutive indices 4 bytes apart.
        assert_eq!(m.addr(a, 1).unwrap(), a_base + 4);
    }

    #[test]
    fn ctrl_values_cannot_be_stored() {
        let mut m = MemState::new();
        let a = m.alloc(ArrayDecl::i64("a"), 1);
        assert!(m.store(a, 0, Value::Ctrl(3)).is_err());
    }

    #[test]
    fn trap_order_is_ctrl_then_id_then_bounds() {
        let mut m = MemState::new();
        let a = m.alloc(ArrayDecl::i64("a"), 1);
        let bad = ArrayId(7);
        assert_eq!(m.store(bad, 9, Value::Ctrl(2)), Err(Trap::CtrlAsData(2)));
        assert_eq!(
            m.store(bad, 9, Value::I64(0)),
            Err(Trap::BadId("array 7".into()))
        );
        assert_eq!(
            m.store(a, 9, Value::I64(0)),
            Err(Trap::OutOfBounds("a".into(), 9, 1))
        );
        assert_eq!(m.load(bad, 9), Err(Trap::BadId("array 7".into())));
    }

    // Native stage threads share one `MemState` by reference.
    const _: fn() = || {
        fn shared<T: Send + Sync>() {}
        shared::<MemState>();
    };

    #[test]
    fn clone_is_deep() {
        let mut m = MemState::new();
        let a = m.alloc_i64(ArrayDecl::i64("a"), [5, 6]);
        let c = m.clone();
        c.store(a, 0, Value::I64(50)).unwrap();
        assert_eq!(m.i64_vec(a), vec![5, 6]);
        assert_eq!(c.i64_vec(a), vec![50, 6]);
        assert!(!m.same_contents(&c));
    }

    #[test]
    fn ints_and_floats_round_trip_as_themselves() {
        let mut m = MemState::new();
        let a = m.alloc(ArrayDecl::i64("a"), 2);
        m.store(a, 0, Value::I64(1)).unwrap();
        m.store(a, 1, Value::F64(1.0)).unwrap();
        assert!(matches!(m.load(a, 0), Ok(Value::I64(1))));
        assert!(matches!(m.load(a, 1), Ok(Value::F64(x)) if x == 1.0));
        assert_eq!(m.values(a), vec![Value::I64(1), Value::F64(1.0)]);
    }

    #[test]
    fn same_contents_compares_values_not_bits() {
        let one = |x: f64| {
            let mut m = MemState::new();
            m.alloc_f64(ArrayDecl::f64("x"), [x]);
            m
        };
        assert!(!one(f64::NAN).same_contents(&one(f64::NAN)));
        assert!(one(0.0).same_contents(&one(-0.0)));
        assert!(!one(1.0).same_contents(&one(2.0)));
    }

    #[test]
    fn rmw_returns_old_value_and_address() {
        let mut m = MemState::new();
        let a = m.alloc_i64(ArrayDecl::i64("a"), [10]);
        assert_eq!(
            m.rmw(BinOp::Min, a, 0, Value::I64(3)),
            Ok((Value::I64(10), m.addr(a, 0).unwrap()))
        );
        assert_eq!(m.load(a, 0), Ok(Value::I64(3)));
        // An operator trap leaves the element untouched.
        assert_eq!(m.rmw(BinOp::Div, a, 0, Value::I64(0)), Err(Trap::DivByZero));
        assert_eq!(m.load(a, 0), Ok(Value::I64(3)));
    }
}
