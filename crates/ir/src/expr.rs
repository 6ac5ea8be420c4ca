//! Expression trees of the Phloem IR.
//!
//! Expressions are pure except for [`Expr::Load`], which reads memory.
//! Every load site carries a unique [`LoadId`] so the compiler can name
//! individual loads when choosing decoupling points (Sec. V of the paper).

use crate::value::{BinOp, UnOp, Value};

/// A scalar variable (virtual register) within one function/stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// A memory array (a `restrict`-qualified pointer in the source program).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

/// A hardware queue number (Pipette supports 16 per core cluster).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueueId(pub u16);

/// Unique identifier of a static load site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoadId(pub u32);

/// Unique identifier of a static branch site (used by the branch predictor
/// model and for diagnostics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BranchId(pub u32);

/// An expression tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A compile-time constant.
    Const(Value),
    /// A variable read.
    Var(VarId),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A memory load `array[index]`, tagged with its static site id.
    Load {
        /// Static load-site identifier, unique within a function.
        id: LoadId,
        /// Array being read.
        array: ArrayId,
        /// Index expression.
        index: Box<Expr>,
    },
}

impl Expr {
    /// Integer constant.
    pub fn i64(v: i64) -> Expr {
        Expr::Const(Value::I64(v))
    }

    /// Float constant.
    pub fn f64(v: f64) -> Expr {
        Expr::Const(Value::F64(v))
    }

    /// Variable reference.
    pub fn var(v: VarId) -> Expr {
        Expr::Var(v)
    }

    /// Binary operation.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    /// Unary operation.
    pub fn un(op: UnOp, a: Expr) -> Expr {
        Expr::Unary(op, Box::new(a))
    }

    /// `a + b`.
    // Not `std::ops::Add`: these are static two-argument constructors,
    // not methods on `self` (same below for `sub`/`mul`).
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Add, a, b)
    }

    /// `a - b`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Sub, a, b)
    }

    /// `a * b`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Mul, a, b)
    }

    /// `a < b`.
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Lt, a, b)
    }

    /// `a == b`.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Eq, a, b)
    }

    /// `a != b`.
    pub fn ne(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Ne, a, b)
    }

    /// `is_control(a)`.
    pub fn is_ctrl(a: Expr) -> Expr {
        Expr::un(UnOp::IsCtrl, a)
    }

    /// Visits every load site in this expression, innermost first.
    pub fn for_each_load(&self, f: &mut impl FnMut(LoadId, ArrayId)) {
        match self {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Unary(_, a) => a.for_each_load(f),
            Expr::Binary(_, a, b) => {
                a.for_each_load(f);
                b.for_each_load(f);
            }
            Expr::Load { id, array, index } => {
                index.for_each_load(f);
                f(*id, *array);
            }
        }
    }

    /// Visits every variable read by this expression, left to right,
    /// once per occurrence. Allocates nothing.
    pub fn for_each_var(&self, f: &mut impl FnMut(VarId)) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => f(*v),
            Expr::Unary(_, a) => a.for_each_var(f),
            Expr::Binary(_, a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            Expr::Load { index, .. } => index.for_each_var(f),
        }
    }

    /// Number of expression nodes that cost a micro-op when executed
    /// (constants and variable reads are free; loads, unary and binary ops
    /// each cost one).
    pub fn uop_count(&self) -> u32 {
        match self {
            Expr::Const(_) | Expr::Var(_) => 0,
            Expr::Unary(_, a) => 1 + a.uop_count(),
            Expr::Binary(_, a, b) => 1 + a.uop_count() + b.uop_count(),
            Expr::Load { index, .. } => 1 + index.uop_count(),
        }
    }

    /// Rewrites every subexpression bottom-up with `f`.
    pub fn map(self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        let e = match self {
            Expr::Const(_) | Expr::Var(_) => self,
            Expr::Unary(op, a) => Expr::Unary(op, Box::new(a.map(f))),
            Expr::Binary(op, a, b) => Expr::Binary(op, Box::new(a.map(f)), Box::new(b.map(f))),
            Expr::Load { id, array, index } => Expr::Load {
                id,
                array,
                index: Box::new(index.map(f)),
            },
        };
        f(e)
    }

    /// Replaces the load with the given id by an expression (used when the
    /// compiler routes a load through a queue or reference accelerator).
    /// Returns the rewritten expression and whether a replacement happened.
    pub fn replace_load(self, target: LoadId, replacement: &Expr) -> (Expr, bool) {
        let mut hit = false;
        let out = self.map(&mut |e| match e {
            Expr::Load { id, .. } if id == target => {
                hit = true;
                replacement.clone()
            }
            other => other,
        });
        (out, hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Expr {
        // B[A[i] + 1] * 2
        Expr::mul(
            Expr::Load {
                id: LoadId(1),
                array: ArrayId(1),
                index: Box::new(Expr::add(
                    Expr::Load {
                        id: LoadId(0),
                        array: ArrayId(0),
                        index: Box::new(Expr::var(VarId(0))),
                    },
                    Expr::i64(1),
                )),
            },
            Expr::i64(2),
        )
    }

    #[test]
    fn load_visitation_is_innermost_first() {
        let mut seen = Vec::new();
        sample().for_each_load(&mut |id, a| seen.push((id, a)));
        assert_eq!(seen, vec![(LoadId(0), ArrayId(0)), (LoadId(1), ArrayId(1))]);
    }

    #[test]
    fn uop_count_skips_leaves() {
        // loads: 2, add: 1, mul: 1 => 4
        assert_eq!(sample().uop_count(), 4);
    }

    #[test]
    fn replace_load_substitutes_once() {
        let (e, hit) = sample().replace_load(LoadId(0), &Expr::var(VarId(9)));
        assert!(hit);
        let mut loads = Vec::new();
        e.for_each_load(&mut |id, _| loads.push(id));
        assert_eq!(loads, vec![LoadId(1)]);
        let mut vars = Vec::new();
        e.for_each_var(&mut |v| vars.push(v));
        assert!(vars.contains(&VarId(9)));
    }

    #[test]
    fn for_each_var_visits_every_occurrence() {
        let e = Expr::add(Expr::var(VarId(3)), Expr::var(VarId(3)));
        let mut vars = Vec::new();
        e.for_each_var(&mut |v| vars.push(v));
        assert_eq!(vars, vec![VarId(3), VarId(3)]);
    }
}
