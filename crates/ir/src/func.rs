//! Functions, array/variable declarations, and validation.

use crate::expr::{ArrayId, BranchId, Expr, LoadId, QueueId, VarId};
use crate::stmt::Stmt;
use crate::value::{BinOp, Ty, UnOp, Value};
use std::fmt;
use std::sync::Arc;

/// Declaration of a scalar variable.
#[derive(Clone, Debug, PartialEq)]
pub struct VarDecl {
    /// Human-readable name (for diagnostics and pretty-printing). Shared:
    /// every stage of a compiled pipeline declares the kernel's variables
    /// and temporaries again, and a clone is a reference-count bump, not
    /// a copy.
    pub name: Arc<str>,
    /// Scalar type.
    pub ty: Ty,
}

/// Declaration of a memory array.
///
/// Arrays model the `restrict`-qualified pointers of the paper's C
/// interface: distinct arrays never alias. The element size in bytes
/// affects cache behaviour (32-bit graph ids pack 16 per line).
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayDecl {
    /// Human-readable name.
    pub name: String,
    /// Element scalar type.
    pub ty: Ty,
    /// Element size in bytes (4 or 8).
    pub elem_bytes: u8,
}

impl ArrayDecl {
    /// A 4-byte integer array (e.g. vertex ids, CSR offsets).
    pub fn i32(name: impl Into<String>) -> ArrayDecl {
        ArrayDecl {
            name: name.into(),
            ty: Ty::I64,
            elem_bytes: 4,
        }
    }

    /// An 8-byte integer array.
    pub fn i64(name: impl Into<String>) -> ArrayDecl {
        ArrayDecl {
            name: name.into(),
            ty: Ty::I64,
            elem_bytes: 8,
        }
    }

    /// An 8-byte float array.
    pub fn f64(name: impl Into<String>) -> ArrayDecl {
        ArrayDecl {
            name: name.into(),
            ty: Ty::F64,
            elem_bytes: 8,
        }
    }
}

/// The type of the value `e` evaluates to, read from the declarations
/// of the variables and arrays it names; `None` for a control value or
/// an operand whose type is unknown. Arithmetic with an `F64` operand
/// is `F64`; comparisons, `!`, `~`, the control tests and `(i64)` are
/// `I64`. The validator's queue-type rule and the normaliser's
/// temporaries both use it.
pub fn expr_ty(vars: &[VarDecl], arrays: &[ArrayDecl], e: &Expr) -> Option<Ty> {
    match e {
        Expr::Const(Value::I64(_)) => Some(Ty::I64),
        Expr::Const(Value::F64(_)) => Some(Ty::F64),
        Expr::Const(Value::Ctrl(_)) => None,
        Expr::Var(v) => vars.get(v.0 as usize).map(|d| d.ty),
        Expr::Unary(op, a) => match op {
            UnOp::Neg => expr_ty(vars, arrays, a),
            UnOp::Not | UnOp::BitNot | UnOp::IsCtrl | UnOp::CtrlTag | UnOp::F2I => Some(Ty::I64),
            UnOp::I2F => Some(Ty::F64),
        },
        Expr::Binary(op, a, b) => {
            use BinOp::*;
            match op {
                Lt | Le | Gt | Ge | Eq | Ne => Some(Ty::I64),
                _ => match (expr_ty(vars, arrays, a), expr_ty(vars, arrays, b)) {
                    (Some(Ty::F64), _) | (_, Some(Ty::F64)) => Some(Ty::F64),
                    (Some(Ty::I64), Some(Ty::I64)) => Some(Ty::I64),
                    _ => None,
                },
            }
        }
        Expr::Load { array, .. } => arrays.get(array.0 as usize).map(|d| d.ty),
    }
}

/// A single function: the unit Phloem transforms.
///
/// A `Function` is also the program of one pipeline *stage* after
/// compilation; stages of one pipeline share the same array id space.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Function/stage name.
    pub name: String,
    /// Variable declarations; `VarId(i)` indexes this vector.
    pub vars: Vec<VarDecl>,
    /// Array declarations; `ArrayId(i)` indexes this vector.
    pub arrays: Vec<ArrayDecl>,
    /// Scalar parameters, set by the host at launch.
    pub params: Vec<VarId>,
    /// Function body.
    pub body: Vec<Stmt>,
}

/// A validation problem found in a [`Function`].
#[derive(Clone, Debug, PartialEq)]
pub enum ValidateError {
    /// A variable id out of range.
    BadVar(VarId),
    /// An array id out of range.
    BadArray(ArrayId),
    /// `break N` with N exceeding the enclosing loop depth.
    BadBreak(u32, u32),
    /// Two load sites share a [`LoadId`].
    DuplicateLoadId(LoadId),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BadVar(v) => write!(f, "undeclared variable {v:?}"),
            ValidateError::BadArray(a) => write!(f, "undeclared array {a:?}"),
            ValidateError::BadBreak(levels, depth) => {
                write!(f, "break {levels} at loop depth {depth}")
            }
            ValidateError::DuplicateLoadId(id) => write!(f, "duplicate load id {id:?}"),
        }
    }
}

impl std::error::Error for ValidateError {}

impl Function {
    /// Creates an empty function.
    pub fn new(name: impl Into<String>) -> Function {
        Function {
            name: name.into(),
            vars: Vec::new(),
            arrays: Vec::new(),
            params: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Checks structural well-formedness.
    ///
    /// # Errors
    /// Returns the first [`ValidateError`] found.
    pub fn validate(&self) -> Result<(), ValidateError> {
        let mut seen_loads = Vec::new();
        for p in &self.params {
            if p.0 as usize >= self.vars.len() {
                return Err(ValidateError::BadVar(*p));
            }
        }
        self.visit_validate(&self.body, 0, &mut seen_loads)
    }

    fn check_expr(&self, e: &Expr, seen_loads: &mut Vec<LoadId>) -> Result<(), ValidateError> {
        match e {
            Expr::Const(_) => Ok(()),
            Expr::Var(v) => {
                if v.0 as usize >= self.vars.len() {
                    Err(ValidateError::BadVar(*v))
                } else {
                    Ok(())
                }
            }
            Expr::Unary(_, a) => self.check_expr(a, seen_loads),
            Expr::Binary(_, a, b) => {
                self.check_expr(a, seen_loads)?;
                self.check_expr(b, seen_loads)
            }
            Expr::Load { id, array, index } => {
                if array.0 as usize >= self.arrays.len() {
                    return Err(ValidateError::BadArray(*array));
                }
                if seen_loads.contains(id) {
                    return Err(ValidateError::DuplicateLoadId(*id));
                }
                seen_loads.push(*id);
                self.check_expr(index, seen_loads)
            }
        }
    }

    fn check_var(&self, v: VarId) -> Result<(), ValidateError> {
        if v.0 as usize >= self.vars.len() {
            Err(ValidateError::BadVar(v))
        } else {
            Ok(())
        }
    }

    fn check_array(&self, a: ArrayId) -> Result<(), ValidateError> {
        if a.0 as usize >= self.arrays.len() {
            Err(ValidateError::BadArray(a))
        } else {
            Ok(())
        }
    }

    fn visit_validate(
        &self,
        body: &[Stmt],
        depth: u32,
        seen_loads: &mut Vec<LoadId>,
    ) -> Result<(), ValidateError> {
        for s in body {
            match s {
                Stmt::Assign { var, expr } => {
                    self.check_var(*var)?;
                    self.check_expr(expr, seen_loads)?;
                }
                Stmt::Store {
                    array,
                    index,
                    value,
                } => {
                    self.check_array(*array)?;
                    self.check_expr(index, seen_loads)?;
                    self.check_expr(value, seen_loads)?;
                }
                Stmt::AtomicRmw {
                    array,
                    index,
                    value,
                    old,
                    ..
                } => {
                    self.check_array(*array)?;
                    self.check_expr(index, seen_loads)?;
                    self.check_expr(value, seen_loads)?;
                    if let Some(v) = old {
                        self.check_var(*v)?;
                    }
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    ..
                } => {
                    self.check_expr(cond, seen_loads)?;
                    self.visit_validate(then_body, depth, seen_loads)?;
                    self.visit_validate(else_body, depth, seen_loads)?;
                }
                Stmt::For {
                    var,
                    start,
                    end,
                    body,
                    ..
                } => {
                    self.check_var(*var)?;
                    self.check_expr(start, seen_loads)?;
                    self.check_expr(end, seen_loads)?;
                    self.visit_validate(body, depth + 1, seen_loads)?;
                }
                Stmt::While { cond, body, .. } => {
                    self.check_expr(cond, seen_loads)?;
                    self.visit_validate(body, depth + 1, seen_loads)?;
                }
                Stmt::Break { levels } => {
                    if *levels == 0 || *levels > depth {
                        return Err(ValidateError::BadBreak(*levels, depth));
                    }
                }
                Stmt::Enq { value, .. } => self.check_expr(value, seen_loads)?,
                Stmt::EnqSel { select, value, .. } => {
                    self.check_expr(select, seen_loads)?;
                    self.check_expr(value, seen_loads)?;
                }
                Stmt::EnqCtrl { .. } => {}
                Stmt::Deq { var, .. } => self.check_var(*var)?,
            }
        }
        Ok(())
    }

    /// The largest [`LoadId`] in use plus one (for allocating fresh ids).
    pub fn next_load_id(&self) -> LoadId {
        let mut max = 0;
        for s in &self.body {
            s.for_each(&mut |s| {
                let mut visit = |e: &Expr| {
                    e.for_each_load(&mut |id, _| max = max.max(id.0 + 1));
                };
                match s {
                    Stmt::Assign { expr, .. } => visit(expr),
                    Stmt::Store { index, value, .. } => {
                        visit(index);
                        visit(value);
                    }
                    Stmt::AtomicRmw { index, value, .. } => {
                        visit(index);
                        visit(value);
                    }
                    Stmt::If { cond, .. } | Stmt::While { cond, .. } => visit(cond),
                    Stmt::For { start, end, .. } => {
                        visit(start);
                        visit(end);
                    }
                    Stmt::Enq { value, .. } => visit(value),
                    _ => {}
                }
            });
        }
        LoadId(max)
    }

    /// The largest [`BranchId`] in use plus one.
    pub fn next_branch_id(&self) -> BranchId {
        let mut max = 0;
        for s in &self.body {
            s.for_each(&mut |s| match s {
                Stmt::If { id, .. } | Stmt::For { id, .. } | Stmt::While { id, .. } => {
                    max = max.max(id.0 + 1)
                }
                _ => {}
            });
        }
        BranchId(max)
    }

    /// All queue ids referenced by this function.
    pub fn queues_used(&self) -> Vec<QueueId> {
        let mut out = Vec::new();
        for s in &self.body {
            s.for_each(&mut |s| match s {
                Stmt::Enq { queue, .. } | Stmt::EnqCtrl { queue, .. } | Stmt::Deq { queue, .. }
                    if !out.contains(queue) =>
                {
                    out.push(*queue);
                }
                Stmt::EnqSel { queues, .. } => {
                    for queue in queues {
                        if !out.contains(queue) {
                            out.push(*queue);
                        }
                    }
                }
                _ => {}
            });
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn validate_catches_bad_ids() {
        let mut f = Function::new("t");
        f.body.push(Stmt::Assign {
            var: VarId(0),
            expr: Expr::i64(1),
        });
        assert_eq!(f.validate(), Err(ValidateError::BadVar(VarId(0))));
        f.vars.push(VarDecl {
            name: "x".into(),
            ty: Ty::I64,
        });
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_bad_break() {
        let mut f = Function::new("t");
        f.body.push(Stmt::Break { levels: 1 });
        assert!(matches!(f.validate(), Err(ValidateError::BadBreak(1, 0))));
    }

    #[test]
    fn fresh_ids() {
        let mut f = Function::new("t");
        f.vars.push(VarDecl {
            name: "x".into(),
            ty: Ty::I64,
        });
        f.arrays.push(ArrayDecl::i32("a"));
        f.body.push(Stmt::Assign {
            var: VarId(0),
            expr: Expr::Load {
                id: LoadId(4),
                array: ArrayId(0),
                index: Box::new(Expr::i64(0)),
            },
        });
        assert_eq!(f.next_load_id(), LoadId(5));
        assert_eq!(f.next_branch_id(), BranchId(0));
    }
}
