//! Functional memory state: named arrays in a flat address space.
//!
//! Each array receives a 64-byte-aligned base address from a bump
//! allocator, so the cache model in `pipette-sim` sees realistic line and
//! set behaviour. Element sizes of 4 bytes (graph ids, CSR offsets) and
//! 8 bytes (doubles) are supported; values are held as 64-bit words
//! regardless of element width.
//!
//! Memory is typed by its declaration, as the paper's C kernels are
//! (`int* restrict`, `double*`): every element is one `AtomicU64` read
//! as its array's [`Ty`], and a store converts its value to that type
//! as a C assignment does (`I64` → `F64` is `as f64`; `F64` → `I64`
//! truncates toward zero and saturates). Loads and stores are
//! `Relaxed`, so one `MemState` is shared in place by the stage threads
//! of a native run: every access is defined behaviour even if a
//! miscompiled pipeline races (the differential harness exists to
//! *find* such pipelines, so a race must show as a wrong answer, never
//! as UB). A correctly decoupled pipeline orders its conflicting
//! accesses through queue dataflow, which the channels'
//! acquire/release pairs turn into happens-before. An RMW is one
//! compare-and-swap loop, linearizable without any caller's lock. On
//! one thread a `Relaxed` access is a plain move.

use crate::expr::ArrayId;
use crate::func::ArrayDecl;
use crate::value::{eval_binop, BinOp, Trap, Ty, Value};
use std::sync::atomic::{
    AtomicU64,
    Ordering::{AcqRel, Acquire, Relaxed},
};

const BASE_ADDR: u64 = 0x1_0000;
const LINE: u64 = 64;

/// A data value as a word of type `ty`, converted as a C assignment
/// converts it; memory holds no control values.
#[inline]
fn encode(ty: Ty, v: Value) -> Result<u64, Trap> {
    Ok(match ty {
        Ty::I64 => v.as_i64()? as u64,
        Ty::F64 => v.as_f64()?.to_bits(),
    })
}

/// A word of type `ty` as a [`Value`].
#[inline]
pub(crate) fn decode(ty: Ty, w: u64) -> Value {
    match ty {
        Ty::I64 => Value::I64(w as i64),
        Ty::F64 => Value::F64(f64::from_bits(w)),
    }
}

/// `v` as the word of a register or element of type `ty`, exactly:
/// unlike [`encode`], no conversion.
///
/// # Errors
/// [`Trap::Malformed`] if `v` is not data of type `ty`. The slot-kind
/// analysis proves that no such value reaches a word register, so there
/// this reports a stage that breaks its premises (a queue fed from
/// outside the pipeline, say) instead of reinterpreting bits.
#[inline]
pub(crate) fn word_of(ty: Ty, v: Value) -> Result<u64, Trap> {
    match (ty, v) {
        (Ty::I64, Value::I64(x)) => Ok(x as u64),
        (Ty::F64, Value::F64(x)) => Ok(x.to_bits()),
        _ => Err(Trap::Malformed(format!("{v} reached a {ty} register"))),
    }
}

/// One allocated array.
#[derive(Debug)]
pub struct ArrayStore {
    /// Declaration (name, type, element width).
    pub decl: ArrayDecl,
    /// Base address in the simulated flat address space.
    pub base: u64,
    words: Box<[AtomicU64]>,
}

impl Clone for ArrayStore {
    /// A deep copy: stores through the clone leave `self` unchanged.
    fn clone(&self) -> ArrayStore {
        ArrayStore {
            decl: self.decl.clone(),
            base: self.base,
            words: self
                .words
                .iter()
                .map(|w| AtomicU64::new(w.load(Relaxed)))
                .collect(),
        }
    }
}

impl ArrayStore {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Element `idx` and its byte address.
    #[inline]
    fn cell(&self, idx: i64) -> Result<(&AtomicU64, u64), Trap> {
        // A negative `idx` wraps past every length.
        let k = idx as usize;
        match self.words.get(k) {
            Some(w) => Ok((w, self.base + k as u64 * self.decl.elem_bytes as u64)),
            None => Err(Trap::OutOfBounds(self.decl.name.clone(), idx, self.len())),
        }
    }

    fn values(&self) -> impl Iterator<Item = Value> + '_ {
        let ty = self.decl.ty;
        self.words.iter().map(move |w| decode(ty, w.load(Relaxed)))
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

    fn push(&mut self, decl: ArrayDecl, words: Box<[AtomicU64]>) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        let bytes = words.len() as u64 * decl.elem_bytes as u64;
        let base = self.next_base;
        // Leave a one-line gap between arrays so unrelated arrays never
        // share a cache line.
        self.next_base = (base + bytes + LINE).next_multiple_of(LINE);
        self.arrays.push(ArrayStore { decl, base, words });
        id
    }

    /// Allocates a zero-initialized array. Arrays must be allocated in
    /// [`ArrayId`] order matching the function's declarations.
    pub fn alloc(&mut self, decl: ArrayDecl, len: usize) -> ArrayId {
        // The all-zero word is both `0` and `0.0`.
        self.push(decl, (0..len).map(|_| AtomicU64::new(0)).collect())
    }

    /// Allocates an integer array from an iterator of `i64`.
    ///
    /// # Panics
    /// Panics if `decl` is not an integer array.
    pub fn alloc_i64(&mut self, decl: ArrayDecl, data: impl IntoIterator<Item = i64>) -> ArrayId {
        assert_eq!(decl.ty, Ty::I64, "alloc_i64 of a non-integer array");
        let words = data.into_iter().map(|x| AtomicU64::new(x as u64)).collect();
        self.push(decl, words)
    }

    /// Allocates a float array from an iterator of `f64`.
    ///
    /// # Panics
    /// Panics if `decl` is not a float array.
    pub fn alloc_f64(&mut self, decl: ArrayDecl, data: impl IntoIterator<Item = f64>) -> ArrayId {
        assert_eq!(decl.ty, Ty::F64, "alloc_f64 of a non-float array");
        let words = data
            .into_iter()
            .map(|x| AtomicU64::new(x.to_bits()))
            .collect();
        self.push(decl, words)
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

    /// Reads `a[idx]` as the array's declared type.
    ///
    /// # Errors
    /// Traps on a bad array id or out-of-bounds index.
    #[inline]
    pub fn load(&self, a: ArrayId, idx: i64) -> Result<Value, Trap> {
        self.load_with_addr(a, idx).map(|(v, _)| v)
    }

    /// Writes `a[idx] = v`, converted to the array's declared type.
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
        Ok(self.store_ref(a)?.cell(idx)?.1)
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
        let (w, addr) = s.cell(idx)?;
        Ok((decode(s.decl.ty, w.load(Relaxed)), addr))
    }

    /// Writes `a[idx] = v` and returns the byte address in one array
    /// lookup (hot timed-store path; see [`Self::load_with_addr`]).
    ///
    /// # Errors
    /// Traps like [`Self::store`].
    #[inline]
    pub fn store_with_addr(&self, a: ArrayId, idx: i64, v: Value) -> Result<u64, Trap> {
        if let Value::Ctrl(c) = v {
            return Err(Trap::CtrlAsData(c));
        }
        let s = self.store_ref(a)?;
        let (w, addr) = s.cell(idx)?;
        w.store(encode(s.decl.ty, v)?, Relaxed);
        Ok(addr)
    }

    /// Reads `a[idx]` as the word of an element of type `ty`, and its
    /// byte address: the typed load, with no [`Value`] in between.
    ///
    /// # Errors
    /// Traps on a bad array id or out-of-bounds index, then with
    /// [`Trap::Malformed`] if the array holds another type than `ty` (a
    /// stage whose array declarations disagree with memory's).
    #[inline]
    pub fn load_word(&self, a: ArrayId, idx: i64, ty: Ty) -> Result<(u64, u64), Trap> {
        let s = self.store_ref(a)?;
        let (w, addr) = s.cell(idx)?;
        if s.decl.ty != ty {
            return Err(Trap::Malformed(format!(
                "array `{}` holds {}, read as {ty}",
                s.decl.name, s.decl.ty
            )));
        }
        Ok((w.load(Relaxed), addr))
    }

    /// Writes the word `w` of type `ty` to `a[idx]`, converted to the
    /// array's declared type like [`Self::store`]; returns the byte
    /// address.
    ///
    /// # Errors
    /// Traps on a bad array id, then on an out-of-bounds index.
    #[inline]
    pub fn store_word(&self, a: ArrayId, idx: i64, w: u64, ty: Ty) -> Result<u64, Trap> {
        let s = self.store_ref(a)?;
        let (cell, addr) = s.cell(idx)?;
        let w = if s.decl.ty == ty {
            w
        } else {
            encode(s.decl.ty, decode(ty, w))?
        };
        cell.store(w, Relaxed);
        Ok(addr)
    }

    /// Atomically applies `a[idx] = a[idx] op v` (the result converted
    /// like a store), returning the old value and the element's byte
    /// address. One compare-and-swap loop: linearizable with every other
    /// access to the element, on any number of threads.
    ///
    /// # Errors
    /// Traps like [`Self::load`], then on whatever `op` traps on, which
    /// leaves the element untouched.
    pub fn rmw(&self, op: BinOp, a: ArrayId, idx: i64, v: Value) -> Result<(Value, u64), Trap> {
        let s = self.store_ref(a)?;
        let (w, addr) = s.cell(idx)?;
        let ty = s.decl.ty;
        let mut trap = None;
        w.fetch_update(AcqRel, Acquire, |old| {
            eval_binop(op, decode(ty, old), v)
                .and_then(|new| encode(ty, new))
                .map_err(|t| trap = Some(t))
                .ok()
        })
        .map(|old| (decode(ty, old), addr))
        .map_err(|_| trap.expect("a refused update trapped"))
    }

    /// Hints the hardware prefetcher at `a[idx]` (native RA stages call
    /// this ahead of their base-array access stream). Out-of-range
    /// indices are ignored; it never changes what any access returns.
    #[inline]
    pub fn prefetch(&self, a: ArrayId, idx: i64) {
        #[cfg(target_arch = "x86_64")]
        if let Some(w) = self
            .arrays
            .get(a.0 as usize)
            .and_then(|s| s.words.get(idx as usize))
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: SSE is baseline on x86_64, and a prefetch has no
            // observable effect on memory.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(w.as_ptr() as *const i8) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (a, idx);
    }

    /// Contents of an integer array as `i64`s (for result checking); a
    /// float array reads converted.
    pub fn i64_vec(&self, a: ArrayId) -> Vec<i64> {
        self.array(a)
            .values()
            .map(|v| v.as_i64().expect("data value"))
            .collect()
    }

    /// Contents of a float array as `f64`s; an integer array reads
    /// converted.
    pub fn f64_vec(&self, a: ArrayId) -> Vec<f64> {
        self.array(a)
            .values()
            .map(|v| v.as_f64().expect("data value"))
            .collect()
    }

    /// A copy of an array's values.
    pub fn values(&self, a: ArrayId) -> Vec<Value> {
        self.array(a).values().collect()
    }

    /// Overwrites the full contents of an array (length must match),
    /// each value converted like a store.
    ///
    /// # Panics
    /// Panics on length mismatch or a control value.
    pub fn set_values(&mut self, a: ArrayId, vals: &[Value]) {
        let s = &self.arrays[a.0 as usize];
        assert_eq!(s.len(), vals.len(), "array length mismatch");
        for (w, &v) in s.words.iter().zip(vals) {
            w.store(encode(s.decl.ty, v).expect("data value"), Relaxed);
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
    fn a_store_converts_to_the_element_type() {
        let mut m = MemState::new();
        let a = m.alloc(ArrayDecl::i64("a"), 4);
        let x = m.alloc(ArrayDecl::f64("x"), 2);
        // F64 -> I64 truncates toward zero and saturates, like `as`.
        m.store(a, 0, Value::I64(1)).unwrap();
        m.store(a, 1, Value::F64(-2.75)).unwrap();
        m.store(a, 2, Value::F64(1e300)).unwrap();
        m.store(a, 3, Value::F64(f64::NAN)).unwrap();
        assert_eq!(
            m.values(a),
            vec![
                Value::I64(1),
                Value::I64(-2),
                Value::I64(i64::MAX),
                Value::I64(0)
            ]
        );
        // I64 -> F64 is `as f64`.
        m.store(x, 0, Value::I64(3)).unwrap();
        m.store(x, 1, Value::F64(0.5)).unwrap();
        assert_eq!(m.values(x), vec![Value::F64(3.0), Value::F64(0.5)]);
        // An RMW result converts too.
        assert_eq!(
            m.rmw(BinOp::Add, a, 0, Value::F64(0.5)),
            Ok((Value::I64(1), m.addr(a, 0).unwrap()))
        );
        assert_eq!(m.load(a, 0), Ok(Value::I64(1)));
        assert_eq!(
            m.rmw(BinOp::Add, x, 1, Value::I64(2)).unwrap().0,
            Value::F64(0.5)
        );
        assert_eq!(m.load(x, 1), Ok(Value::F64(2.5)));
        // `set_values` converts like a store.
        m.set_values(
            a,
            &[Value::F64(7.9), Value::I64(1), Value::I64(2), Value::I64(3)],
        );
        assert_eq!(m.i64_vec(a), vec![7, 1, 2, 3]);
    }

    #[test]
    fn word_access_matches_value_access() {
        let mut m = MemState::new();
        let a = m.alloc_i64(ArrayDecl::i32("a"), [7, -3]);
        let x = m.alloc_f64(ArrayDecl::f64("x"), [2.5, -0.0]);
        assert_eq!(
            m.load_word(a, 1, Ty::I64),
            Ok(((-3i64) as u64, m.addr(a, 1).unwrap()))
        );
        assert_eq!(m.load_word(x, 1, Ty::F64).unwrap().0, (-0.0f64).to_bits());
        assert!(matches!(
            m.load_word(x, 0, Ty::I64),
            Err(Trap::Malformed(_))
        ));
        assert_eq!(
            m.load_word(a, 2, Ty::I64),
            Err(Trap::OutOfBounds("a".into(), 2, 2))
        );
        // A typed store converts like a `Value` store.
        m.store_word(a, 0, (-2.75f64).to_bits(), Ty::F64).unwrap();
        m.store_word(x, 0, 3u64, Ty::I64).unwrap();
        m.store_word(x, 1, 1.5f64.to_bits(), Ty::F64).unwrap();
        assert_eq!(m.values(a), vec![Value::I64(-2), Value::I64(-3)]);
        assert_eq!(m.values(x), vec![Value::F64(3.0), Value::F64(1.5)]);
        assert_eq!(
            m.store_word(ArrayId(9), 0, 0, Ty::I64),
            Err(Trap::BadId("array 9".into()))
        );
    }

    const N: i64 = 1 << 20;

    /// `threads` threads meet at a barrier, then thread `t` applies
    /// `rmw(op, a, i, x)` with `(i, x) = arg(t, k)` for each `k` in
    /// `0..N`, asserting `sees_own(t, k, old)`: each RMW returns an old
    /// value that holds the thread's own earlier updates. Returns the
    /// array's final contents.
    fn race(
        init: i64,
        len: usize,
        threads: i64,
        op: BinOp,
        arg: fn(i64, i64) -> (i64, i64),
        sees_own: fn(i64, i64, i64) -> bool,
    ) -> Vec<i64> {
        let mut m = MemState::new();
        let a = m.alloc_i64(ArrayDecl::i64("a"), vec![init; len]);
        let go = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (m, go) = (&m, &go);
                s.spawn(move || {
                    go.wait();
                    for k in 0..N {
                        let (i, x) = arg(t, k);
                        let (old, _) = m.rmw(op, a, i, Value::I64(x)).unwrap();
                        let old = old.as_i64().unwrap();
                        assert!(
                            sees_own(t, k, old),
                            "{op} lost an update: thread {t} step {k} read {old}"
                        );
                    }
                });
            }
        });
        m.i64_vec(a)
    }

    #[test]
    fn rmw_is_linearizable_without_a_callers_lock() {
        // No increment is lost.
        let add = race(0, 1, 2, BinOp::Add, |_, _| (0, 1), |_, k, old| old >= k);
        assert_eq!(add, vec![2 * N]);
        // Both threads lower one element in step: a stale larger value
        // never overwrites a smaller one.
        let min = race(
            i64::MAX,
            1,
            2,
            BinOp::Min,
            |_, k| (0, N - k),
            |_, k, old| k == 0 || old <= N - k + 1,
        );
        assert_eq!(min, vec![1]);
        // Four threads set 16 bits each of one element per 16 steps;
        // every bit is set exactly once, so a lost update loses a bit.
        let or = race(
            0,
            (N / 16) as usize,
            4,
            BinOp::Or,
            |t, k| (k / 16, 1 << (4 * (k % 16) + t)),
            |t, k, old| (0..k % 16).all(|j| old & (1i64 << (4 * j + t)) != 0),
        );
        assert!(or.iter().all(|&w| w == -1));
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
