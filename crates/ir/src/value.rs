//! Runtime values and scalar types for the Phloem IR.
//!
//! Queue words in Pipette are 64-bit values that are either *data* or
//! in-band *control values* (CVs). We mirror that with [`Value`]: data is
//! either a 64-bit integer or a 64-bit float, and control values carry a
//! small tag. Arithmetic on control values is a trap, matching the paper's
//! statement that CVs "cannot be interpreted as data".

use std::fmt;

/// Scalar type of a variable or array element.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit signed integer (also used for booleans and indices).
    I64,
    /// 64-bit IEEE float.
    F64,
}

impl Ty {
    /// Zero value of this type.
    pub fn zero(self) -> Value {
        match self {
            Ty::I64 => Value::I64(0),
            Ty::F64 => Value::F64(0.0),
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::I64 => write!(f, "i64"),
            Ty::F64 => write!(f, "f64"),
        }
    }
}

/// A 64-bit machine word: integer or float data, or an in-band control value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// Integer data.
    I64(i64),
    /// Floating-point data.
    F64(f64),
    /// A control value with a small application-defined tag
    /// (e.g. `NEXT`, `DONE`).
    Ctrl(u32),
}

impl Value {
    /// True if this word is a control value (the paper's `is_control`).
    pub fn is_ctrl(self) -> bool {
        matches!(self, Value::Ctrl(_))
    }

    /// Integer view of the value.
    ///
    /// # Errors
    /// Returns [`Trap::CtrlAsData`] for control values.
    pub fn as_i64(self) -> Result<i64, Trap> {
        match self {
            Value::I64(v) => Ok(v),
            Value::F64(v) => Ok(v as i64),
            Value::Ctrl(c) => Err(Trap::CtrlAsData(c)),
        }
    }

    /// Floating-point view of the value.
    ///
    /// # Errors
    /// Returns [`Trap::CtrlAsData`] for control values.
    pub fn as_f64(self) -> Result<f64, Trap> {
        match self {
            Value::I64(v) => Ok(v as f64),
            Value::F64(v) => Ok(v),
            Value::Ctrl(c) => Err(Trap::CtrlAsData(c)),
        }
    }

    /// Truthiness: nonzero data is true. Control values trap.
    pub fn as_bool(self) -> Result<bool, Trap> {
        match self {
            Value::I64(v) => Ok(v != 0),
            Value::F64(v) => Ok(v != 0.0),
            Value::Ctrl(c) => Err(Trap::CtrlAsData(c)),
        }
    }

    /// True if both operands are (or coerce to) floats.
    fn is_float(self) -> bool {
        matches!(self, Value::F64(_))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::I64(v as i64)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Ctrl(c) => write!(f, "CV({c})"),
        }
    }
}

/// Binary operators of the IR.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // operator names are self-describing
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    Min,
    Max,
}

impl BinOp {
    /// Every operator, in declaration order (for exhaustive tables).
    pub const ALL: [BinOp; 18] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Min,
        BinOp::Max,
    ];
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Min => "min",
            BinOp::Max => "max",
        };
        write!(f, "{s}")
    }
}

/// Unary operators of the IR.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (0 -> 1, nonzero -> 0).
    Not,
    /// Bitwise complement (integers only).
    BitNot,
    /// Pipette's `is_control(v)` test; never traps.
    IsCtrl,
    /// Extracts the tag of a control value (traps on data words).
    CtrlTag,
    /// Integer to float conversion.
    I2F,
    /// Float to integer conversion (truncating).
    F2I,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
            UnOp::IsCtrl => "is_control",
            UnOp::CtrlTag => "ctrl_tag",
            UnOp::I2F => "(f64)",
            UnOp::F2I => "(i64)",
        };
        write!(f, "{s}")
    }
}

/// Runtime traps raised by the interpreter or simulator.
#[derive(Clone, Debug, PartialEq)]
pub enum Trap {
    /// Arithmetic attempted on a control value.
    CtrlAsData(u32),
    /// Out-of-bounds array access: `(array name, index, len)`.
    OutOfBounds(String, i64, usize),
    /// Division or remainder by zero.
    DivByZero,
    /// Use of an undeclared variable/array/queue id.
    BadId(String),
    /// All live threads are blocked on queues.
    Deadlock(String),
    /// Program exceeded the configured dynamic-operation budget.
    OpBudgetExceeded(u64),
    /// Malformed program detected at runtime (e.g. `break` outside a loop).
    Malformed(String),
    /// Watchdog: simulated time kept advancing with no queue activity
    /// and no stage completion for longer than the configured window.
    Livelock {
        /// Simulated cycle at which the watchdog fired.
        cycle: u64,
        /// Diagnostics snapshot (per-thread state, queue occupancies).
        detail: String,
    },
    /// Watchdog: simulated time exceeded the configured cycle cap.
    CycleLimit {
        /// Simulated cycle at which the watchdog fired.
        cycle: u64,
        /// Diagnostics snapshot (per-thread state, queue occupancies).
        detail: String,
    },
    /// A fault-injected thread kill ended the run. A run with a killed
    /// thread never reports success, even if the surviving stages drain.
    ThreadKilled {
        /// Simulated cycle at which the run was stopped.
        cycle: u64,
        /// Diagnostics snapshot (per-thread state, queue occupancies).
        detail: String,
    },
    /// The host cancelled the run cooperatively: a wall-clock deadline
    /// expired or the owner (e.g. a draining service) asked it to stop.
    /// Raised at a watchdog window boundary, so the simulated state at
    /// `cycle` is exactly what an uncancelled run would have had there —
    /// cancellation never perturbs a simulated cycle, it only decides
    /// not to simulate the next one.
    Cancelled {
        /// Simulated cycle at which the run was stopped.
        cycle: u64,
        /// Why the run was cancelled plus the diagnostics snapshot.
        detail: String,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::CtrlAsData(c) => write!(f, "control value CV({c}) used as data"),
            Trap::OutOfBounds(a, i, n) => {
                write!(f, "index {i} out of bounds for array `{a}` of length {n}")
            }
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::BadId(s) => write!(f, "unknown id: {s}"),
            Trap::Deadlock(s) => write!(f, "deadlock: {s}"),
            Trap::OpBudgetExceeded(n) => write!(f, "dynamic op budget of {n} exceeded"),
            Trap::Malformed(s) => write!(f, "malformed program: {s}"),
            Trap::Livelock { cycle, detail } => {
                write!(
                    f,
                    "livelock: no forward progress by cycle {cycle}; {detail}"
                )
            }
            Trap::CycleLimit { cycle, detail } => {
                write!(f, "cycle cap exceeded at cycle {cycle}; {detail}")
            }
            Trap::ThreadKilled { cycle, detail } => {
                write!(
                    f,
                    "thread killed by fault injection; run stopped at cycle {cycle}; {detail}"
                )
            }
            Trap::Cancelled { cycle, detail } => {
                write!(f, "cancelled at cycle {cycle}; {detail}")
            }
        }
    }
}

impl std::error::Error for Trap {}

/// Evaluates a binary operation, with int/float coercion.
///
/// Comparisons yield `I64(0)`/`I64(1)`. Mixed int/float operands are
/// coerced to float. Bitwise and shift operators require integers.
///
/// # Errors
/// Traps on control-value operands, division by zero, and float operands
/// to integer-only operators.
#[inline]
pub fn eval_binop(op: BinOp, a: Value, b: Value) -> Result<Value, Trap> {
    use BinOp::*;
    if a.is_float() || b.is_float() {
        let x = a.as_f64()?;
        let y = b.as_f64()?;
        let v = match op {
            Add => Value::F64(x + y),
            Sub => Value::F64(x - y),
            Mul => Value::F64(x * y),
            Div => {
                if y == 0.0 {
                    return Err(Trap::DivByZero);
                }
                Value::F64(x / y)
            }
            Rem => {
                if y == 0.0 {
                    return Err(Trap::DivByZero);
                }
                Value::F64(x % y)
            }
            Min => Value::F64(x.min(y)),
            Max => Value::F64(x.max(y)),
            Lt => Value::from(x < y),
            Le => Value::from(x <= y),
            Gt => Value::from(x > y),
            Ge => Value::from(x >= y),
            Eq => Value::from(x == y),
            Ne => Value::from(x != y),
            And | Or | Xor | Shl | Shr => {
                return Err(Trap::Malformed(format!("float operand to {op}")))
            }
        };
        Ok(v)
    } else {
        let x = a.as_i64()?;
        let y = b.as_i64()?;
        let v = match op {
            Add => Value::I64(x.wrapping_add(y)),
            Sub => Value::I64(x.wrapping_sub(y)),
            Mul => Value::I64(x.wrapping_mul(y)),
            Div => {
                if y == 0 {
                    return Err(Trap::DivByZero);
                }
                Value::I64(x.wrapping_div(y))
            }
            Rem => {
                if y == 0 {
                    return Err(Trap::DivByZero);
                }
                Value::I64(x.wrapping_rem(y))
            }
            And => Value::I64(x & y),
            Or => Value::I64(x | y),
            Xor => Value::I64(x ^ y),
            Shl => Value::I64(x.wrapping_shl(y as u32)),
            Shr => Value::I64(x.wrapping_shr(y as u32)),
            Min => Value::I64(x.min(y)),
            Max => Value::I64(x.max(y)),
            Lt => Value::from(x < y),
            Le => Value::from(x <= y),
            Gt => Value::from(x > y),
            Ge => Value::from(x >= y),
            Eq => Value::from(x == y),
            Ne => Value::from(x != y),
        };
        Ok(v)
    }
}

/// Evaluates a unary operation.
///
/// # Errors
/// Traps on control-value operands (except [`UnOp::IsCtrl`]).
#[inline]
pub fn eval_unop(op: UnOp, a: Value) -> Result<Value, Trap> {
    let v = match op {
        UnOp::IsCtrl => Value::from(a.is_ctrl()),
        UnOp::CtrlTag => match a {
            Value::Ctrl(c) => Value::I64(c as i64),
            _ => return Err(Trap::Malformed("ctrl_tag of a data word".into())),
        },
        UnOp::Neg => match a {
            Value::I64(v) => Value::I64(v.wrapping_neg()),
            Value::F64(v) => Value::F64(-v),
            Value::Ctrl(c) => return Err(Trap::CtrlAsData(c)),
        },
        UnOp::Not => Value::from(!a.as_bool()?),
        UnOp::BitNot => Value::I64(!a.as_i64()?),
        UnOp::I2F => Value::F64(a.as_i64()? as f64),
        UnOp::F2I => Value::I64(a.as_f64()? as i64),
    };
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `FlatInterp::run_slice` returns `Result<_, Trap>` from every arm
    /// of its dispatch loop, so `Trap`'s size is part of that loop's
    /// codegen. Measured on a scratch build with a 136-byte `Trap` (one
    /// more `String` pair in a variant): `FlatInterp` 7 % slower on native
    /// serial SpMM, `StepInterp` 35 % *faster*. Widening `Trap` is
    /// therefore a performance change to be measured, not a free edit:
    /// box the new payload, or re-measure and move this pin.
    #[test]
    fn trap_stays_within_48_bytes() {
        assert!(
            std::mem::size_of::<Trap>() <= 48,
            "Trap is {} bytes",
            std::mem::size_of::<Trap>()
        );
    }

    #[test]
    fn int_arithmetic() {
        assert_eq!(
            eval_binop(BinOp::Add, Value::I64(2), Value::I64(3)).unwrap(),
            Value::I64(5)
        );
        assert_eq!(
            eval_binop(BinOp::Min, Value::I64(2), Value::I64(3)).unwrap(),
            Value::I64(2)
        );
        assert_eq!(
            eval_binop(BinOp::Lt, Value::I64(2), Value::I64(3)).unwrap(),
            Value::I64(1)
        );
    }

    #[test]
    fn float_coercion() {
        assert_eq!(
            eval_binop(BinOp::Mul, Value::I64(2), Value::F64(1.5)).unwrap(),
            Value::F64(3.0)
        );
    }

    #[test]
    fn ctrl_values_trap_as_data() {
        assert!(matches!(
            eval_binop(BinOp::Add, Value::Ctrl(1), Value::I64(0)),
            Err(Trap::CtrlAsData(1))
        ));
        assert_eq!(
            eval_unop(UnOp::IsCtrl, Value::Ctrl(7)).unwrap(),
            Value::I64(1)
        );
        assert_eq!(
            eval_unop(UnOp::IsCtrl, Value::I64(7)).unwrap(),
            Value::I64(0)
        );
    }

    #[test]
    fn division_by_zero_traps() {
        assert!(matches!(
            eval_binop(BinOp::Div, Value::I64(1), Value::I64(0)),
            Err(Trap::DivByZero)
        ));
        assert!(matches!(
            eval_binop(BinOp::Rem, Value::F64(1.0), Value::F64(0.0)),
            Err(Trap::DivByZero)
        ));
    }

    #[test]
    fn shifts_and_bitops_are_integer_only() {
        assert!(eval_binop(BinOp::Shl, Value::F64(1.0), Value::I64(1)).is_err());
        assert_eq!(
            eval_binop(BinOp::Shr, Value::I64(8), Value::I64(2)).unwrap(),
            Value::I64(2)
        );
    }
}
