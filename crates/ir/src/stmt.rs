//! Structured statements of the Phloem IR.
//!
//! The IR is a statement *tree*, not a CFG: Phloem's passes (decoupling
//! across loop levels, control-value insertion, handler setup) are natural
//! tree transformations. `For` loops evaluate their bounds once on entry
//! (the frontend lowers anything fancier to `While`).

use crate::expr::{ArrayId, BranchId, Expr, QueueId, VarId};
use crate::value::BinOp;

/// A statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `var = expr`.
    Assign {
        /// Destination variable.
        var: VarId,
        /// Right-hand side.
        expr: Expr,
    },
    /// `array[index] = value`.
    Store {
        /// Array written.
        array: ArrayId,
        /// Index expression.
        index: Expr,
        /// Value expression.
        value: Expr,
    },
    /// Atomic read-modify-write `old = array[index]; array[index] = op(old, value)`.
    /// Used by the data-parallel baselines (e.g. atomic-min distance updates).
    AtomicRmw {
        /// Combining operator (e.g. [`BinOp::Min`], [`BinOp::Add`]).
        op: BinOp,
        /// Array updated.
        array: ArrayId,
        /// Index expression.
        index: Expr,
        /// Operand expression.
        value: Expr,
        /// If set, receives the *old* value.
        old: Option<VarId>,
    },
    /// `if (cond) { then_body } else { else_body }`.
    If {
        /// Static branch site.
        id: BranchId,
        /// Condition (nonzero = taken).
        cond: Expr,
        /// Taken branch.
        then_body: Vec<Stmt>,
        /// Not-taken branch.
        else_body: Vec<Stmt>,
    },
    /// `for (var = start; var < end; var += 1) { body }`.
    /// `start` and `end` are evaluated once at loop entry.
    For {
        /// Static branch site of the loop's backedge/exit branch.
        id: BranchId,
        /// Induction variable.
        var: VarId,
        /// Inclusive start.
        start: Expr,
        /// Exclusive end.
        end: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `while (cond) { body }`; condition re-evaluated each iteration.
    While {
        /// Static branch site.
        id: BranchId,
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Break out of `levels` enclosing loops (1 = innermost).
    Break {
        /// Number of loop levels to exit.
        levels: u32,
    },
    /// Enqueue a data value: Pipette's `enq(q, v)`.
    Enq {
        /// Destination queue.
        queue: QueueId,
        /// Value to enqueue.
        value: Expr,
    },
    /// Enqueue to one of several queues chosen by a selector expression
    /// (`queues[select % queues.len()]`). This is how Phloem's
    /// `#pragma distribute` routes work to the matching stage of another
    /// pipeline replica (Sec. IV-C).
    EnqSel {
        /// Candidate destination queues, one per replica.
        queues: Vec<QueueId>,
        /// Selector; reduced modulo the queue count.
        select: Expr,
        /// Value to enqueue.
        value: Expr,
    },
    /// Enqueue a control value: Pipette's `enq_ctrl(q, cv)`.
    EnqCtrl {
        /// Destination queue.
        queue: QueueId,
        /// Control-value tag.
        ctrl: u32,
    },
    /// Dequeue into a variable: `var = deq(q)`.
    ///
    /// If the stage registers a [`CtrlHandler`] for `queue` and the head of
    /// the queue is a control value, the hardware diverts execution to the
    /// handler instead of delivering the CV into `var`.
    Deq {
        /// Destination variable.
        var: VarId,
        /// Source queue.
        queue: QueueId,
    },
}

impl Stmt {
    /// Convenience constructor for `if` without an else branch.
    pub fn if_then(id: BranchId, cond: Expr, then_body: Vec<Stmt>) -> Stmt {
        Stmt::If {
            id,
            cond,
            then_body,
            else_body: Vec::new(),
        }
    }

    /// Visits this statement and all nested statements, pre-order.
    pub fn for_each(&self, f: &mut impl FnMut(&Stmt)) {
        f(self);
        match self {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                for s in then_body.iter().chain(else_body) {
                    s.for_each(f);
                }
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => {
                for s in body {
                    s.for_each(f);
                }
            }
            _ => {}
        }
    }

    /// Visits every variable read by this statement's own expressions
    /// (for compound statements only the header: condition or bounds),
    /// once per occurrence. Allocates nothing.
    pub fn for_each_header_read(&self, f: &mut impl FnMut(VarId)) {
        match self {
            Stmt::Assign { expr, .. } => expr.for_each_var(f),
            Stmt::Store { index, value, .. } | Stmt::AtomicRmw { index, value, .. } => {
                index.for_each_var(f);
                value.for_each_var(f);
            }
            Stmt::If { cond, .. } | Stmt::While { cond, .. } => cond.for_each_var(f),
            Stmt::For { start, end, .. } => {
                start.for_each_var(f);
                end.for_each_var(f);
            }
            Stmt::Enq { value, .. } => value.for_each_var(f),
            Stmt::EnqSel { select, value, .. } => {
                select.for_each_var(f);
                value.for_each_var(f);
            }
            Stmt::EnqCtrl { .. } | Stmt::Break { .. } | Stmt::Deq { .. } => {}
        }
    }

    /// Whether this statement's own expressions read `v` (see
    /// [`Stmt::for_each_header_read`]).
    pub fn header_reads_var(&self, v: VarId) -> bool {
        let mut hit = false;
        self.for_each_header_read(&mut |r| hit |= r == v);
        hit
    }

    /// The variable this statement writes, if any.
    pub fn write(&self) -> Option<VarId> {
        match self {
            Stmt::Assign { var, .. } | Stmt::Deq { var, .. } => Some(*var),
            Stmt::For { var, .. } => Some(*var),
            Stmt::AtomicRmw { old, .. } => *old,
            _ => None,
        }
    }
}

/// What a control-value handler does after its body runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandlerEnd {
    /// Break out of `n` loops enclosing the interrupted `deq`.
    BreakLoops(u32),
    /// Terminate the stage program.
    FinishStage,
    /// Re-attempt the interrupted `deq` (the CV is consumed).
    Resume,
    /// Terminate the stage if `var >= target`, else re-attempt the `deq`.
    /// Used by replicated pipelines, where a merged stage must observe
    /// one end-of-stream CV from *each* upstream replica (the handler
    /// body increments `var`).
    FinishWhen(VarId, i64),
    /// Break out of `.2` loops if `var >= target`, else re-attempt the
    /// `deq`. Like [`HandlerEnd::FinishWhen`] but lets the stage run its
    /// post-loop epilogue (e.g. storing an output length).
    BreakWhen(VarId, i64, u32),
}

/// A hardware control-value handler (Pipette's
/// `setup_control_value_handler`), registered per (queue, control value).
///
/// When a `deq` on `queue` is about to deliver a control value matched by
/// `ctrl`, the core consumes the CV, optionally binds it to `bind`, runs
/// `body` (statements without `break`), then applies `end`. A handler with
/// an exact `ctrl` tag takes precedence over a wildcard (`ctrl: None`)
/// handler on the same queue.
#[derive(Clone, Debug, PartialEq)]
pub struct CtrlHandler {
    /// Queue whose dequeues are intercepted.
    pub queue: QueueId,
    /// Control-value tag that triggers this handler; `None` matches any CV.
    pub ctrl: Option<u32>,
    /// If set, the intercepted CV is stored (as a `Ctrl` word) in this
    /// variable before the body runs — used to forward arbitrary CVs.
    pub bind: Option<VarId>,
    /// Handler body (typically forwards CVs downstream).
    pub body: Vec<Stmt>,
    /// Control transfer applied after the body.
    pub end: HandlerEnd,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LoadId;

    #[test]
    fn for_each_visits_nested() {
        let s = Stmt::For {
            id: BranchId(0),
            var: VarId(0),
            start: Expr::i64(0),
            end: Expr::i64(10),
            body: vec![Stmt::if_then(
                BranchId(1),
                Expr::lt(Expr::var(VarId(0)), Expr::i64(5)),
                vec![Stmt::Break { levels: 1 }],
            )],
        };
        let mut n = 0;
        s.for_each(&mut |_| n += 1);
        assert_eq!(n, 3);
    }

    #[test]
    fn header_reads_and_writes() {
        let s = Stmt::Assign {
            var: VarId(2),
            expr: Expr::Load {
                id: LoadId(0),
                array: ArrayId(0),
                index: Box::new(Expr::var(VarId(1))),
            },
        };
        let mut reads = Vec::new();
        s.for_each_header_read(&mut |v| reads.push(v));
        assert_eq!(reads, vec![VarId(1)]);
        assert!(s.header_reads_var(VarId(1)) && !s.header_reads_var(VarId(2)));
        assert_eq!(s.write(), Some(VarId(2)));
    }
}
