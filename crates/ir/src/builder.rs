//! Ergonomic construction of [`Function`]s.
//!
//! The builder allocates fresh [`LoadId`]s and [`BranchId`]s and keeps a
//! stack of statement lists so nested control flow is written with
//! closures:
//!
//! ```
//! use phloem_ir::{Expr, FunctionBuilder};
//!
//! let mut b = FunctionBuilder::new("saxpy_like");
//! let n = b.param_i64("n");
//! let a = b.array_f64("a");
//! let y = b.array_f64("y");
//! let i = b.var_i64("i");
//! let v = b.var_f64("v");
//! b.for_loop(i, Expr::i64(0), Expr::var(n), |b| {
//!     let av = b.load(a, Expr::var(i));
//!     b.assign(v, Expr::mul(av, Expr::f64(2.0)));
//!     b.store(y, Expr::var(i), Expr::var(v));
//! });
//! let f = b.build();
//! assert!(f.validate().is_ok());
//! ```

use crate::expr::{ArrayId, BranchId, Expr, LoadId, QueueId, VarId};
use crate::func::{ArrayDecl, Function, VarDecl};
use crate::stmt::Stmt;
use crate::value::{BinOp, Ty};
use std::sync::Arc;

/// Builder for [`Function`]s; see the module docs for an example.
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    next_load: u32,
    next_branch: u32,
    stack: Vec<Vec<Stmt>>,
}

impl FunctionBuilder {
    /// Starts building a function with the given name.
    pub fn new(name: impl Into<String>) -> FunctionBuilder {
        FunctionBuilder {
            func: Function::new(name),
            next_load: 0,
            next_branch: 0,
            stack: vec![Vec::new()],
        }
    }

    /// Declares a scalar variable.
    pub fn var(&mut self, name: impl Into<String>, ty: Ty) -> VarId {
        let id = VarId(self.func.vars.len() as u32);
        self.func.vars.push(VarDecl {
            name: Arc::from(name.into()),
            ty,
        });
        id
    }

    /// Declares an `i64` variable.
    pub fn var_i64(&mut self, name: impl Into<String>) -> VarId {
        self.var(name, Ty::I64)
    }

    /// Declares an `f64` variable.
    pub fn var_f64(&mut self, name: impl Into<String>) -> VarId {
        self.var(name, Ty::F64)
    }

    /// Declares an `i64` parameter (bound by the host at launch).
    pub fn param_i64(&mut self, name: impl Into<String>) -> VarId {
        let v = self.var(name, Ty::I64);
        self.func.params.push(v);
        v
    }

    /// Declares an `f64` parameter.
    pub fn param_f64(&mut self, name: impl Into<String>) -> VarId {
        let v = self.var(name, Ty::F64);
        self.func.params.push(v);
        v
    }

    /// Declares an array. Arrays must be declared in the same order the
    /// host allocates them in [`crate::MemState`].
    pub fn array(&mut self, decl: ArrayDecl) -> ArrayId {
        let id = ArrayId(self.func.arrays.len() as u32);
        self.func.arrays.push(decl);
        id
    }

    /// Declares a 4-byte integer array.
    pub fn array_i32(&mut self, name: impl Into<String>) -> ArrayId {
        self.array(ArrayDecl::i32(name))
    }

    /// Declares an 8-byte integer array.
    pub fn array_i64(&mut self, name: impl Into<String>) -> ArrayId {
        self.array(ArrayDecl::i64(name))
    }

    /// Declares an 8-byte float array.
    pub fn array_f64(&mut self, name: impl Into<String>) -> ArrayId {
        self.array(ArrayDecl::f64(name))
    }

    /// The id the next [`FunctionBuilder::load`] call will use (lets
    /// frontends attach pragmas to upcoming load sites).
    pub fn peek_next_load_id(&self) -> LoadId {
        LoadId(self.next_load)
    }

    /// A load expression `array[index]` with a fresh load-site id.
    pub fn load(&mut self, array: ArrayId, index: Expr) -> Expr {
        let id = LoadId(self.next_load);
        self.next_load += 1;
        Expr::Load {
            id,
            array,
            index: Box::new(index),
        }
    }

    fn push(&mut self, s: Stmt) {
        self.stack.last_mut().expect("builder scope").push(s);
    }

    fn fresh_branch(&mut self) -> BranchId {
        let id = BranchId(self.next_branch);
        self.next_branch += 1;
        id
    }

    /// Allocates a fresh branch-site id (for frontends assembling
    /// statements manually with [`FunctionBuilder::stmt`]).
    pub fn new_branch(&mut self) -> BranchId {
        self.fresh_branch()
    }

    /// Opens a statement scope; subsequent emissions accumulate in it
    /// until [`FunctionBuilder::pop_scope`]. The closure-based helpers
    /// (`if_then`, `for_loop`, ...) are usually more convenient; this
    /// low-level pair exists for recursive-descent frontends.
    pub fn push_scope(&mut self) {
        self.stack.push(Vec::new());
    }

    /// Closes the innermost scope and returns its statements.
    ///
    /// # Panics
    /// Panics when no scope is open.
    pub fn pop_scope(&mut self) -> Vec<Stmt> {
        assert!(self.stack.len() > 1, "pop_scope without push_scope");
        self.stack.pop().expect("scope")
    }

    /// Emits `var = expr`.
    pub fn assign(&mut self, var: VarId, expr: Expr) {
        self.push(Stmt::Assign { var, expr });
    }

    /// Emits `array[index] = value`.
    pub fn store(&mut self, array: ArrayId, index: Expr, value: Expr) {
        self.push(Stmt::Store {
            array,
            index,
            value,
        });
    }

    /// Emits an atomic read-modify-write.
    pub fn atomic_rmw(
        &mut self,
        op: BinOp,
        array: ArrayId,
        index: Expr,
        value: Expr,
        old: Option<VarId>,
    ) {
        self.push(Stmt::AtomicRmw {
            op,
            array,
            index,
            value,
            old,
        });
    }

    /// Emits `if (cond) { ... }`.
    pub fn if_then(&mut self, cond: Expr, f: impl FnOnce(&mut Self)) {
        let id = self.fresh_branch();
        self.stack.push(Vec::new());
        f(self);
        let then_body = self.stack.pop().expect("scope");
        self.push(Stmt::If {
            id,
            cond,
            then_body,
            else_body: Vec::new(),
        });
    }

    /// Emits `if (cond) { ... } else { ... }`.
    pub fn if_else(&mut self, cond: Expr, t: impl FnOnce(&mut Self), e: impl FnOnce(&mut Self)) {
        let id = self.fresh_branch();
        self.stack.push(Vec::new());
        t(self);
        let then_body = self.stack.pop().expect("scope");
        self.stack.push(Vec::new());
        e(self);
        let else_body = self.stack.pop().expect("scope");
        self.push(Stmt::If {
            id,
            cond,
            then_body,
            else_body,
        });
    }

    /// Emits `for (var = start; var < end; var++) { ... }`.
    pub fn for_loop(&mut self, var: VarId, start: Expr, end: Expr, f: impl FnOnce(&mut Self)) {
        let id = self.fresh_branch();
        self.stack.push(Vec::new());
        f(self);
        let body = self.stack.pop().expect("scope");
        self.push(Stmt::For {
            id,
            var,
            start,
            end,
            body,
        });
    }

    /// Emits `while (cond) { ... }`.
    pub fn while_loop(&mut self, cond: Expr, f: impl FnOnce(&mut Self)) {
        let id = self.fresh_branch();
        self.stack.push(Vec::new());
        f(self);
        let body = self.stack.pop().expect("scope");
        self.push(Stmt::While { id, cond, body });
    }

    /// Emits `while (true) { ... }` (the shape control values produce).
    pub fn while_true(&mut self, f: impl FnOnce(&mut Self)) {
        self.while_loop(Expr::i64(1), f);
    }

    /// Emits `break` out of `levels` loops.
    pub fn break_out(&mut self, levels: u32) {
        self.push(Stmt::Break { levels });
    }

    /// Emits `enq(q, value)`.
    pub fn enq(&mut self, queue: QueueId, value: Expr) {
        self.push(Stmt::Enq { queue, value });
    }

    /// Emits `enq_ctrl(q, cv)`.
    pub fn enq_ctrl(&mut self, queue: QueueId, ctrl: u32) {
        self.push(Stmt::EnqCtrl { queue, ctrl });
    }

    /// Emits a replica-distributing enqueue (`#pragma distribute`):
    /// `enq(queues[select % queues.len()], value)`.
    pub fn enq_sel(&mut self, queues: Vec<QueueId>, select: Expr, value: Expr) {
        self.push(Stmt::EnqSel {
            queues,
            select,
            value,
        });
    }

    /// Emits `var = deq(q)`.
    pub fn deq(&mut self, var: VarId, queue: QueueId) {
        self.push(Stmt::Deq { var, queue });
    }

    /// Appends a pre-built statement (used by compiler passes).
    pub fn stmt(&mut self, s: Stmt) {
        self.push(s);
    }

    /// Finishes the function.
    ///
    /// # Panics
    /// Panics if control-flow scopes are unbalanced (a builder bug).
    pub fn build(mut self) -> Function {
        assert_eq!(self.stack.len(), 1, "unbalanced builder scopes");
        self.func.body = self.stack.pop().unwrap();
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_functions() {
        let mut b = FunctionBuilder::new("t");
        let n = b.param_i64("n");
        let a = b.array_i32("a");
        let i = b.var_i64("i");
        let x = b.var_i64("x");
        b.for_loop(i, Expr::i64(0), Expr::var(n), |b| {
            let l = b.load(a, Expr::var(i));
            b.assign(x, l);
            b.if_then(Expr::lt(Expr::var(x), Expr::i64(0)), |b| b.break_out(1));
        });
        let f = b.build();
        assert!(f.validate().is_ok());
        assert_eq!(f.params, vec![n]);
        assert_eq!(f.next_load_id().0, 1);
        assert_eq!(f.next_branch_id().0, 2);
    }

    #[test]
    fn load_ids_are_unique() {
        let mut b = FunctionBuilder::new("t");
        let a = b.array_i64("a");
        let e1 = b.load(a, Expr::i64(0));
        let e2 = b.load(a, Expr::i64(1));
        let (Expr::Load { id: i1, .. }, Expr::Load { id: i2, .. }) = (e1, e2) else {
            panic!("loads expected");
        };
        assert_ne!(i1, i2);
    }
}
