//! Static register kinds: which variables of a stage program can only
//! ever hold data of their declared type.
//!
//! [`crate::flat::FlatInterp`] keeps such a variable as a bare `u64`
//! word plus its ready time (a *word slot*) and runs the arithmetic over
//! it as typed instructions; every other variable keeps a tagged
//! [`Value`] and the dynamic path. The analysis is a may-analysis
//! over [`Facts`]: the control-value tags and data types a register can
//! hold. A variable starts as its declared type's zero (parameters are
//! bound to their declared type, which [`crate::flat::FlatInterp::new`]
//! checks) and gains whatever any write to it can deliver:
//!
//! * an assignment, the facts of its expression ([`expr_facts`]: only a
//!   variable or a control constant can yield a control value, since
//!   arithmetic on one traps and memory holds none);
//! * a `for` loop, an integer; an atomic's `old`, the array's type;
//! * a dequeue, the data its queue carries plus every tag that can
//!   arrive on it and that no handler of the stage catches;
//! * a handler's `bind`, the tags its handler can match.
//!
//! A variable is a word slot iff its facts are exactly its declared data
//! type. What arrives on a queue is the union of what every producer
//! sends into it ([`pipeline_facts`], a fixpoint over all stages, RA
//! programs included); a stage compiled on its own ([`stage_facts`])
//! assumes any queue can carry anything, so each of its dequeue targets
//! stays tagged. Each pass walks the stages in order and runs again only
//! if it grew a fact it had already read (a loop-carried or backward
//! flow), so a forward pipeline usually settles in one pass.

use crate::expr::{ArrayId, Expr, QueueId, VarId};
use crate::func::Function;
use crate::pipeline::Pipeline;
use crate::stmt::{CtrlHandler, Stmt};
use crate::value::{BinOp, Ty, UnOp, Value};

const INT: u8 = 1;
const FLOAT: u8 = 2;
/// Any tag at all (an unknown one, or one too large for its own bit).
const ANY_TAG: u64 = 1 << 63;

/// What a register, a queue or an expression may hold: a set of
/// control-value tags (bit `t` for tag `t < 63`, [`ANY_TAG`] for the
/// rest) and a set of data types.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Facts {
    tags: u64,
    data: u8,
}

/// Anything: what a queue fed from outside the analysis may carry.
const UNKNOWN: Facts = Facts {
    tags: ANY_TAG,
    data: INT | FLOAT,
};

fn tag_bit(tag: u32) -> u64 {
    if tag < 63 {
        1 << tag
    } else {
        ANY_TAG
    }
}

impl Facts {
    /// Data of type `ty` only.
    pub(crate) fn data(ty: Ty) -> Facts {
        Facts {
            tags: 0,
            data: match ty {
                Ty::I64 => INT,
                Ty::F64 => FLOAT,
            },
        }
    }

    fn join(&mut self, other: Facts) -> bool {
        let joined = Facts {
            tags: self.tags | other.tags,
            data: self.data | other.data,
        };
        let changed = joined != *self;
        *self = joined;
        changed
    }

    /// The one data type these facts allow, if they allow no control
    /// value and exactly one type: the type of a word slot.
    pub(crate) fn word(self) -> Option<Ty> {
        match (self.tags, self.data) {
            (0, INT) => Some(Ty::I64),
            (0, FLOAT) => Some(Ty::F64),
            _ => None,
        }
    }
}

/// What an element of `array` reads as: its declared type (a load from
/// memory of another type traps, see [`crate::mem::MemState::load_word`]).
fn array_facts(func: &Function, array: ArrayId) -> Facts {
    match func.arrays.get(array.0 as usize) {
        Some(d) => Facts::data(d.ty),
        None => Facts {
            tags: 0,
            data: INT | FLOAT,
        },
    }
}

/// The facts of one variable or queue during the analysis, and whether
/// the current pass has read them yet.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Cell {
    pub(crate) facts: Facts,
    read: bool,
}

impl Cell {
    fn read(&mut self) -> Facts {
        self.read = true;
        self.facts
    }

    /// Joins `f` in; true if that grew facts this pass already read, so
    /// the pass must run again.
    fn join(&mut self, f: Facts) -> bool {
        self.facts.join(f) && self.read
    }
}

/// What evaluating `e` can yield, given the facts of `func`'s variables.
/// An operation whose every operand combination traps yields nothing.
fn expr_facts(e: &Expr, vars: &mut [Cell], func: &Function) -> Facts {
    let data = |bits: u8| Facts {
        tags: 0,
        data: bits,
    };
    match e {
        Expr::Const(Value::I64(_)) => data(INT),
        Expr::Const(Value::F64(_)) => data(FLOAT),
        Expr::Const(Value::Ctrl(t)) => Facts {
            tags: tag_bit(*t),
            data: 0,
        },
        Expr::Var(v) => vars.get_mut(v.0 as usize).map_or(UNKNOWN, Cell::read),
        Expr::Load { array, .. } => array_facts(func, *array),
        Expr::Unary(op, a) => {
            let a = expr_facts(a, vars, func);
            let has_data = a.data != 0;
            data(match op {
                UnOp::Neg => a.data,
                UnOp::Not | UnOp::BitNot | UnOp::F2I if has_data => INT,
                UnOp::I2F if has_data => FLOAT,
                UnOp::IsCtrl if has_data || a.tags != 0 => INT,
                UnOp::CtrlTag if a.tags != 0 => INT,
                _ => 0,
            })
        }
        Expr::Binary(op, a, b) => {
            let (a, b) = (
                expr_facts(a, vars, func).data,
                expr_facts(b, vars, func).data,
            );
            if a == 0 || b == 0 {
                return data(0);
            }
            let both_int = a & b & INT != 0;
            use BinOp::*;
            data(match op {
                Lt | Le | Gt | Ge | Eq | Ne => INT,
                And | Or | Xor | Shl | Shr => {
                    if both_int {
                        INT
                    } else {
                        0
                    }
                }
                Add | Sub | Mul | Div | Rem | Min | Max => {
                    (if both_int { INT } else { 0 }) | ((a | b) & FLOAT)
                }
            })
        }
    }
}

/// The tags arriving as `tags` on `q` that no handler of the stage
/// catches, so a dequeue writes them into its target.
fn unhandled(handlers: &[CtrlHandler], q: QueueId, tags: u64) -> u64 {
    let mut left = tags;
    for h in handlers.iter().filter(|h| h.queue == q) {
        match h.ctrl {
            None => return 0,
            Some(t) if t < 63 => left &= !(1 << t),
            Some(_) => {}
        }
    }
    left
}

/// Queue facts, either tracked per queue or, for a stage compiled on its
/// own, unknown.
struct Queues<'a> {
    cells: &'a mut [Cell],
    open: bool,
}

impl Queues<'_> {
    fn arriving(&mut self, q: QueueId) -> Facts {
        match self.cells.get_mut(q.0 as usize) {
            Some(c) if !self.open => c.read(),
            _ => UNKNOWN,
        }
    }

    fn send(&mut self, q: QueueId, f: Facts) -> bool {
        self.cells.get_mut(q.0 as usize).is_some_and(|c| c.join(f))
    }
}

fn write(vars: &mut [Cell], v: VarId, f: Facts) -> bool {
    vars.get_mut(v.0 as usize).is_some_and(|c| c.join(f))
}

/// One pass over every write of one stage, in program order; true if it
/// grew a fact it had already read.
fn scan_stage(
    func: &Function,
    handlers: &[CtrlHandler],
    vars: &mut [Cell],
    queues: &mut Queues<'_>,
) -> bool {
    let mut again = false;
    let bodies = std::iter::once(&func.body[..]).chain(handlers.iter().map(|h| &h.body[..]));
    for body in bodies {
        for s in body {
            s.for_each(&mut |s| {
                again |= match s {
                    Stmt::Assign { var, expr } => {
                        let f = expr_facts(expr, vars, func);
                        write(vars, *var, f)
                    }
                    Stmt::AtomicRmw {
                        array,
                        old: Some(o),
                        ..
                    } => write(vars, *o, array_facts(func, *array)),
                    Stmt::For { var, .. } => write(vars, *var, Facts::data(Ty::I64)),
                    Stmt::Deq { var, queue } => {
                        let a = queues.arriving(*queue);
                        let f = Facts {
                            tags: unhandled(handlers, *queue, a.tags),
                            data: a.data,
                        };
                        write(vars, *var, f)
                    }
                    Stmt::Enq { queue, value } => {
                        let f = expr_facts(value, vars, func);
                        queues.send(*queue, f)
                    }
                    Stmt::EnqSel {
                        queues: qs, value, ..
                    } => {
                        let f = expr_facts(value, vars, func);
                        qs.iter().fold(false, |c, q| queues.send(*q, f) | c)
                    }
                    Stmt::EnqCtrl { queue, ctrl } => queues.send(
                        *queue,
                        Facts {
                            tags: tag_bit(*ctrl),
                            data: 0,
                        },
                    ),
                    _ => false,
                };
            });
        }
    }
    for h in handlers {
        let Some(bind) = h.bind else { continue };
        let arriving = queues.arriving(h.queue).tags;
        let tags = match h.ctrl {
            Some(t) if arriving & (tag_bit(t) | ANY_TAG) != 0 => tag_bit(t),
            Some(_) => 0,
            None => arriving,
        };
        again |= write(vars, bind, Facts { tags, data: 0 });
    }
    again
}

fn declared(func: &Function) -> impl Iterator<Item = Cell> + '_ {
    func.vars.iter().map(|d| Cell {
        facts: Facts::data(d.ty),
        read: false,
    })
}

/// Clears the read marks for a new pass.
fn new_pass(cells: &mut [Cell]) {
    cells.iter_mut().for_each(|c| c.read = false);
}

/// Variable facts of one stage compiled on its own: every queue it
/// dequeues from may carry anything.
pub(crate) fn stage_facts(func: &Function, handlers: &[CtrlHandler]) -> Vec<Cell> {
    let mut vars: Vec<Cell> = declared(func).collect();
    let mut queues = Queues {
        cells: &mut [],
        open: true,
    };
    while scan_stage(func, handlers, &mut vars, &mut queues) {
        new_pass(&mut vars);
    }
    vars
}

/// Variable facts of every stage of `pipeline`, concatenated in stage
/// order: what each queue carries is what its producers send.
pub(crate) fn pipeline_facts(pipeline: &Pipeline) -> Vec<Cell> {
    let stages = &pipeline.stages;
    let mut vars = Vec::with_capacity(stages.iter().map(|s| s.program.func.vars.len()).sum());
    for s in stages {
        vars.extend(declared(&s.program.func));
    }
    let mut queue_cells = vec![Cell::default(); pipeline.num_queues as usize];
    loop {
        let mut queues = Queues {
            cells: &mut queue_cells,
            open: false,
        };
        let mut again = false;
        let mut rest = &mut vars[..];
        for s in stages {
            let (mine, tail) = rest.split_at_mut(s.program.func.vars.len());
            again |= scan_stage(&s.program.func, &s.program.handlers, mine, &mut queues);
            rest = tail;
        }
        if !again {
            return vars;
        }
        new_pass(&mut vars);
        new_pass(&mut queue_cells);
    }
}
