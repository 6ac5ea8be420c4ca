//! The [`World`] trait: the boundary between a stage interpreter and an
//! execution substrate.
//!
//! Either interpreter drives any world: the *functional* one defined
//! here (all timestamps zero; used as the correctness oracle and for
//! fast profiling), the cycle-level Pipette timing model in
//! `pipette-sim`, and that crate's native world of real threads.

use crate::expr::{ArrayId, BranchId, QueueId};
use crate::mem::{decode, word_of, MemState};
use crate::value::{BinOp, Trap, Ty, Value};
use std::collections::VecDeque;

/// Simulated time in core cycles.
pub type Time = u64;

/// A hardware thread id (one pipeline stage or RA occupies one).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tid(pub u32);

/// Micro-op classes, used by timing and energy models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UopClass {
    /// Integer ALU op (add, compare, logic).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide / remainder.
    IntDiv,
    /// FP add/compare.
    FpAlu,
    /// FP multiply.
    FpMul,
    /// FP divide.
    FpDiv,
    /// Queue enqueue.
    QueuePush,
    /// Queue dequeue.
    QueuePop,
    /// Jump into a control-value handler.
    CtrlJump,
}

impl UopClass {
    /// The class for a binary operator applied to the given operands.
    pub fn for_binop(op: BinOp, a: Value, b: Value) -> UopClass {
        let float = matches!(a, Value::F64(_)) || matches!(b, Value::F64(_));
        match (op, float) {
            (BinOp::Mul, false) => UopClass::IntMul,
            (BinOp::Mul, true) => UopClass::FpMul,
            (BinOp::Div | BinOp::Rem, false) => UopClass::IntDiv,
            (BinOp::Div | BinOp::Rem, true) => UopClass::FpDiv,
            (_, false) => UopClass::IntAlu,
            (_, true) => UopClass::FpAlu,
        }
    }
}

/// Why a thread could not make progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockReason {
    /// Enqueue to a full queue.
    QueueFull(QueueId),
    /// Dequeue from an empty queue.
    QueueEmpty(QueueId),
    /// The scheduler's step budget for this slice ran out (preemption —
    /// the thread is still runnable, unlike the queue reasons).
    Budget,
}

impl BlockReason {
    /// The queue this reason waits on, if any.
    pub fn queue(&self) -> Option<QueueId> {
        match self {
            BlockReason::QueueFull(q) | BlockReason::QueueEmpty(q) => Some(*q),
            BlockReason::Budget => None,
        }
    }
}

/// Result of a single interpreter step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepResult {
    /// One atom executed.
    Progress,
    /// The thread is blocked on a queue; retry after the queue changes.
    Blocked(BlockReason),
    /// The stage program has terminated.
    Finished,
}

/// Execution substrate: functional memory plus (optionally) timing.
///
/// All `dep` arguments are the readiness time of the operation's inputs;
/// implementations return the operation's completion time. Functional
/// implementations simply return 0.
pub trait World {
    /// Executes a compute micro-op.
    fn uop(&mut self, t: Tid, class: UopClass, dep: Time) -> Time;

    /// Resolves a branch; returns the time at which control-dependent
    /// fetch may resume (models misprediction penalties).
    fn branch(&mut self, t: Tid, site: BranchId, taken: bool, cond_ready: Time) -> Time;

    /// Performs a load.
    ///
    /// # Errors
    /// Traps on out-of-bounds accesses.
    fn load(
        &mut self,
        t: Tid,
        array: ArrayId,
        index: i64,
        dep: Time,
    ) -> Result<(Value, Time), Trap>;

    /// Performs a typed load: the word of an element of type `ty`. The
    /// same operation as [`World::load`], which the default runs.
    ///
    /// # Errors
    /// As [`World::load`], and [`Trap::Malformed`] if the element is not
    /// of type `ty`.
    #[inline]
    fn load_word(
        &mut self,
        t: Tid,
        array: ArrayId,
        index: i64,
        ty: Ty,
        dep: Time,
    ) -> Result<(u64, Time), Trap> {
        let (v, done) = self.load(t, array, index, dep)?;
        Ok((word_of(ty, v)?, done))
    }

    /// Performs a store.
    ///
    /// # Errors
    /// Traps on out-of-bounds accesses.
    fn store(
        &mut self,
        t: Tid,
        array: ArrayId,
        index: i64,
        value: Value,
        dep: Time,
    ) -> Result<Time, Trap>;

    /// Performs a typed store of the word `w` of type `ty`. The same
    /// operation as [`World::store`], which the default runs.
    ///
    /// # Errors
    /// As [`World::store`].
    #[inline]
    fn store_word(
        &mut self,
        t: Tid,
        array: ArrayId,
        index: i64,
        w: u64,
        ty: Ty,
        dep: Time,
    ) -> Result<Time, Trap> {
        self.store(t, array, index, decode(ty, w), dep)
    }

    /// Performs an atomic read-modify-write; returns the old value.
    ///
    /// # Errors
    /// Traps on out-of-bounds accesses or control-value operands.
    fn atomic_rmw(
        &mut self,
        t: Tid,
        op: BinOp,
        array: ArrayId,
        index: i64,
        value: Value,
        dep: Time,
    ) -> Result<(Value, Time), Trap>;

    /// Attempts to enqueue; returns `None` if the queue is full.
    ///
    /// # Errors
    /// Traps on bad queue ids.
    fn try_enq(&mut self, t: Tid, q: QueueId, w: Value, dep: Time) -> Result<Option<Time>, Trap>;

    /// Attempts to dequeue; returns `None` if the queue is empty.
    ///
    /// # Errors
    /// Traps on bad queue ids.
    fn try_deq(&mut self, t: Tid, q: QueueId, dep: Time) -> Result<Option<(Value, Time)>, Trap>;

    /// Observability hook: a control-value handler on `q` (matching
    /// `tag`) began executing at `at` (the completion time of its
    /// dispatch jump). Purely informational — the default is a no-op and
    /// timing worlds must not let it affect simulated time.
    fn note_ctrl_handler(&mut self, _t: Tid, _q: QueueId, _tag: u32, _at: Time) {}
}

/// Dynamic-operation counters gathered by [`FunctionalWorld`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Compute micro-ops.
    pub uops: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Atomic RMWs.
    pub atomics: u64,
    /// Queue enqueues.
    pub enqs: u64,
    /// Queue dequeues.
    pub deqs: u64,
}

impl OpCounts {
    /// Total dynamic operations of all kinds.
    pub fn total(&self) -> u64 {
        self.uops + self.branches + self.loads + self.stores + self.atomics + self.enqs + self.deqs
    }
}

/// A purely functional [`World`]: no timing, bounded FIFO queues, and
/// dynamic-op statistics. This is the correctness oracle.
#[derive(Clone, Debug)]
pub struct FunctionalWorld {
    mem: MemState,
    queues: Vec<VecDeque<Value>>,
    capacity: usize,
    /// Operation counters, indexed by thread id.
    pub counts: Vec<OpCounts>,
}

impl FunctionalWorld {
    /// Creates a functional world over `mem` with `nqueues` queues of the
    /// given capacity and `nthreads` stat slots.
    pub fn new(mem: MemState, nqueues: usize, capacity: usize, nthreads: usize) -> Self {
        FunctionalWorld {
            mem,
            queues: (0..nqueues).map(|_| VecDeque::new()).collect(),
            capacity,
            counts: vec![OpCounts::default(); nthreads],
        }
    }

    /// Consumes the world, returning the final memory.
    pub fn into_mem(self) -> MemState {
        self.mem
    }

    /// The world's memory.
    pub fn mem(&self) -> &MemState {
        &self.mem
    }

    /// Mutable access to the world's memory.
    pub fn mem_mut(&mut self) -> &mut MemState {
        &mut self.mem
    }

    /// Total op counts summed across threads.
    pub fn total_counts(&self) -> OpCounts {
        let mut t = OpCounts::default();
        for c in &self.counts {
            t.uops += c.uops;
            t.branches += c.branches;
            t.loads += c.loads;
            t.stores += c.stores;
            t.atomics += c.atomics;
            t.enqs += c.enqs;
            t.deqs += c.deqs;
        }
        t
    }

    fn counts_mut(&mut self, t: Tid) -> &mut OpCounts {
        let idx = t.0 as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, OpCounts::default());
        }
        &mut self.counts[idx]
    }
}

impl World for FunctionalWorld {
    fn uop(&mut self, t: Tid, _class: UopClass, _dep: Time) -> Time {
        self.counts_mut(t).uops += 1;
        0
    }

    fn branch(&mut self, t: Tid, _site: BranchId, _taken: bool, _dep: Time) -> Time {
        self.counts_mut(t).branches += 1;
        0
    }

    fn load(
        &mut self,
        t: Tid,
        array: ArrayId,
        index: i64,
        _dep: Time,
    ) -> Result<(Value, Time), Trap> {
        self.counts_mut(t).loads += 1;
        Ok((self.mem.load(array, index)?, 0))
    }

    #[inline]
    fn load_word(
        &mut self,
        t: Tid,
        array: ArrayId,
        index: i64,
        ty: Ty,
        _dep: Time,
    ) -> Result<(u64, Time), Trap> {
        self.counts_mut(t).loads += 1;
        Ok((self.mem.load_word(array, index, ty)?.0, 0))
    }

    #[inline]
    fn store_word(
        &mut self,
        t: Tid,
        array: ArrayId,
        index: i64,
        w: u64,
        ty: Ty,
        _dep: Time,
    ) -> Result<Time, Trap> {
        self.counts_mut(t).stores += 1;
        self.mem.store_word(array, index, w, ty)?;
        Ok(0)
    }

    fn store(
        &mut self,
        t: Tid,
        array: ArrayId,
        index: i64,
        value: Value,
        _dep: Time,
    ) -> Result<Time, Trap> {
        self.counts_mut(t).stores += 1;
        self.mem.store(array, index, value)?;
        Ok(0)
    }

    fn atomic_rmw(
        &mut self,
        t: Tid,
        op: BinOp,
        array: ArrayId,
        index: i64,
        value: Value,
        _dep: Time,
    ) -> Result<(Value, Time), Trap> {
        self.counts_mut(t).atomics += 1;
        Ok((self.mem.rmw(op, array, index, value)?.0, 0))
    }

    fn try_enq(&mut self, t: Tid, q: QueueId, w: Value, _dep: Time) -> Result<Option<Time>, Trap> {
        let cap = self.capacity;
        let queue = self
            .queues
            .get_mut(q.0 as usize)
            .ok_or_else(|| Trap::BadId(format!("queue {}", q.0)))?;
        if queue.len() >= cap {
            return Ok(None);
        }
        queue.push_back(w);
        self.counts_mut(t).enqs += 1;
        Ok(Some(0))
    }

    fn try_deq(&mut self, t: Tid, q: QueueId, _dep: Time) -> Result<Option<(Value, Time)>, Trap> {
        let queue = self
            .queues
            .get_mut(q.0 as usize)
            .ok_or_else(|| Trap::BadId(format!("queue {}", q.0)))?;
        match queue.pop_front() {
            Some(w) => {
                self.counts_mut(t).deqs += 1;
                Ok(Some((w, 0)))
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::ArrayDecl;

    #[test]
    fn queues_are_fifo_and_bounded() {
        let mut w = FunctionalWorld::new(MemState::new(), 1, 2, 1);
        let q = QueueId(0);
        let t = Tid(0);
        assert!(w.try_enq(t, q, Value::I64(1), 0).unwrap().is_some());
        assert!(w.try_enq(t, q, Value::I64(2), 0).unwrap().is_some());
        assert!(w.try_enq(t, q, Value::I64(3), 0).unwrap().is_none());
        assert_eq!(w.try_deq(t, q, 0).unwrap().unwrap().0, Value::I64(1));
        assert_eq!(w.try_deq(t, q, 0).unwrap().unwrap().0, Value::I64(2));
        assert!(w.try_deq(t, q, 0).unwrap().is_none());
    }

    #[test]
    fn atomic_rmw_returns_old_value() {
        let mut mem = MemState::new();
        let a = mem.alloc_i64(ArrayDecl::i64("a"), [10]);
        let mut w = FunctionalWorld::new(mem, 0, 0, 1);
        let (old, _) = w
            .atomic_rmw(Tid(0), BinOp::Min, a, 0, Value::I64(3), 0)
            .unwrap();
        assert_eq!(old, Value::I64(10));
        assert_eq!(w.mem().load(a, 0).unwrap(), Value::I64(3));
    }

    #[test]
    fn bad_queue_id_traps() {
        let mut w = FunctionalWorld::new(MemState::new(), 1, 4, 1);
        assert!(w.try_enq(Tid(0), QueueId(5), Value::I64(0), 0).is_err());
    }
}
