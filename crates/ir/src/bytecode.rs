//! Bytecode compilation for stage programs.
//!
//! [`compile`] lowers a [`Function`] body plus its registered
//! [`CtrlHandler`]s into a [`BytecodeProgram`]: one linear instruction
//! array with register-slot operands, pre-resolved branch and loop-back
//! targets, and expression trees flattened into three-address micro-ops.
//! [`crate::flat::FlatInterp`] executes it with a program counter
//! instead of the [`crate::step::StepInterp`] frame stack, making the
//! same sequence of [`crate::World`] calls — simulated timing is
//! bit-identical by construction; only host work changes.
//!
//! ## Atom boundaries
//!
//! The tree interpreter executes one *atom* per step: a simple statement
//! or one control-flow decision, with the expression micro-ops leading
//! up to it folded into the same step. The bytecode mirrors this by
//! splitting instructions into two classes:
//!
//! * **free** instructions ([`Instr::Un`], [`Instr::Bin`],
//!   [`Instr::Load`], [`Instr::Jump`], [`Instr::ForEnter`]) execute and
//!   fall through within the current step;
//! * **atom-ending** instructions (assignments, memory writes, queue
//!   ops, branches, loop tests, handler returns, [`Instr::Halt`]) end
//!   the step exactly where the tree interpreter would.
//!
//! ## Operand timing rules
//!
//! Each register slot carries a value *and* a readiness time. Reading an
//! operand reproduces the tree interpreter's rules exactly: a constant
//! is ready at the thread's control-flow time, a variable at
//! `max(write time, flow time)`, and a temporary (an intermediate
//! expression result) at its raw producer completion time.
//!
//! ## Queue operations
//!
//! `try_enq`/`try_deq` keep the block-before-mutate contract: a blocked
//! queue instruction leaves the program counter *on itself* and returns
//! [`crate::StepResult::Blocked`], so the scheduler can retry it later
//! without the expression micro-ops ever re-executing (their results
//! are still in the operand registers). A dequeued control value with a
//! matching handler jumps into the handler's code region; the handler's
//! terminating [`Instr::HandlerRet`] consults the *dispatching* dequeue
//! site for its pre-resolved break targets, because `break N` out of a
//! handler is defined relative to the loops enclosing the dequeue.

use crate::expr::{ArrayId, BranchId, Expr, QueueId, VarId};
use crate::func::Function;
use crate::stmt::{CtrlHandler, HandlerEnd, Stmt};
use crate::value::{BinOp, Trap, UnOp, Value};

/// Names the two stage-program interpreters, for harnesses that time
/// or diff one against the other. Nothing selects an engine at run
/// time: the simulator and the native backend always run
/// [`crate::flat::FlatInterp`], and the serial oracle
/// ([`crate::interp`]) always runs [`crate::step::StepInterp`]. Both
/// make the same [`crate::World`] calls in the same order
/// (`tests/flat_differential.rs` pins it), so they differ only in host
/// throughput.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecEngine {
    /// Bytecode compilation + program-counter execution
    /// ([`crate::flat::FlatInterp`]); the engine of the simulator and
    /// the native backend.
    #[default]
    Flat,
    /// The original tree-walking interpreter
    /// ([`crate::step::StepInterp`]); reference implementation.
    Tree,
}

/// An instruction operand: where a value (and its readiness time) comes
/// from. Immediates live in the program's constant pool
/// ([`BytecodeProgram::consts`]) so an operand is one word — the code
/// array stays dense and the dispatch loop reads fewer cache lines.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Opd {
    /// An immediate (constant-pool index); ready at the thread's flow
    /// time.
    Const(u32),
    /// A program variable slot; ready at `max(write time, flow time)`.
    Var(u32),
    /// A temporary slot; ready at its raw producer time.
    Tmp(u32),
}

/// One bytecode instruction. See the module docs for the free vs.
/// atom-ending split.
#[derive(Clone, Debug)]
pub(crate) enum Instr {
    // ----- free (fall through within the current atom) -----
    /// dst = op a.
    Un { op: UnOp, a: Opd, dst: u32 },
    /// dst = a op b.
    Bin { op: BinOp, a: Opd, b: Opd, dst: u32 },
    /// dst = array[index].
    Load {
        array: ArrayId,
        index: Opd,
        dst: u32,
    },
    /// Unconditional jump (loop back edges, if/else joins).
    Jump(u32),
    /// Latches a for-loop's start/limit into its loop slots.
    ForEnter {
        start: Opd,
        end: Opd,
        cur: u32,
        lim: u32,
    },
    // ----- atom-ending -----
    /// var = src.
    Assign { var: u32, src: Opd },
    /// var = op a, ending the atom (peephole-fused `Assign` of a unary
    /// expression result; saves a dispatch and a temp round trip).
    UnA { op: UnOp, a: Opd, var: u32 },
    /// var = a op b, ending the atom (fused `Assign`).
    BinA { op: BinOp, a: Opd, b: Opd, var: u32 },
    /// var = array[index], ending the atom (fused `Assign`).
    LoadA {
        array: ArrayId,
        index: Opd,
        var: u32,
    },
    /// array[index] = value.
    Store {
        array: ArrayId,
        index: Opd,
        value: Opd,
    },
    /// Atomic read-modify-write; `old` receives the previous value.
    AtomicRmw {
        op: BinOp,
        array: ArrayId,
        index: Opd,
        value: Opd,
        old: Option<u32>,
    },
    /// Blocking enqueue. Retries re-read `value` (pure; no micro-ops).
    Enq { queue: QueueId, value: Opd },
    /// Replica-distributing enqueue; the select micro-op issues once and
    /// the chosen queue is stashed across blocked retries.
    EnqSel {
        queues: Box<[QueueId]>,
        select: Opd,
        value: Opd,
    },
    /// Enqueue of a control value.
    EnqCtrl { queue: QueueId, ctrl: u32 },
    /// Blocking dequeue; dispatches control values to handlers.
    /// `breaks[k]` is the jump target for breaking `k + 1` loops
    /// enclosing this site (used by the dispatched handler's return).
    Deq {
        var: u32,
        queue: QueueId,
        breaks: Box<[u32]>,
    },
    /// `if` branch: taken falls through, not-taken jumps to `else_t`.
    IfBranch {
        id: BranchId,
        cond: Opd,
        else_t: u32,
    },
    /// Fused compare-and-`if`-branch (the compare micro-op still
    /// issues; only the dispatch and the temp round trip are saved).
    BinIf {
        op: BinOp,
        a: Opd,
        b: Opd,
        id: BranchId,
        else_t: u32,
    },
    /// `while` header test: taken falls through, else jumps to `exit`.
    WhileBranch { id: BranchId, cond: Opd, exit: u32 },
    /// Fused compare-and-`while`-test.
    BinWhile {
        op: BinOp,
        a: Opd,
        b: Opd,
        id: BranchId,
        exit: u32,
    },
    /// First for-loop test (no increment).
    ForTest {
        id: BranchId,
        var: u32,
        cur: u32,
        lim: u32,
        exit: u32,
    },
    /// For-loop back edge: increment, test, branch to `body` or `exit`.
    ForStep {
        id: BranchId,
        var: u32,
        cur: u32,
        lim: u32,
        body: u32,
        exit: u32,
    },
    /// `break N` resolved to the target loop's exit.
    BreakJump(u32),
    /// Handler return: pops the dispatch record and applies the end
    /// action relative to the dispatching dequeue site.
    HandlerRet(HandlerEnd),
    /// End of the stage program.
    Halt,
    /// A statically-detected runtime trap (e.g. a `break` crossing a
    /// handler boundary); traps when — and only when — executed, exactly
    /// like the tree interpreter.
    Fault(Box<str>),
}

/// A control-value handler's dispatch entry.
#[derive(Clone, Debug)]
pub(crate) struct HandlerEntry {
    pub(crate) queue: QueueId,
    pub(crate) ctrl: Option<u32>,
    pub(crate) bind: Option<u32>,
    pub(crate) entry: u32,
}

/// A compiled stage program: the executable form consumed by
/// [`crate::flat::FlatInterp`].
#[derive(Clone, Debug)]
pub struct BytecodeProgram {
    pub(crate) name: String,
    /// Program variables occupy slots `0..nvars`; temporaries and loop
    /// state the rest.
    pub(crate) nvars: u32,
    pub(crate) nslots: u32,
    pub(crate) body_empty: bool,
    pub(crate) code: Vec<Instr>,
    /// Constant pool referenced by [`Opd::Const`] operands.
    pub(crate) consts: Vec<Value>,
    /// Zero-initial values per variable slot (typed zeros).
    pub(crate) var_zero: Vec<Value>,
    pub(crate) handlers: Vec<HandlerEntry>,
}

impl BytecodeProgram {
    /// The compiled function's name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of instructions (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the instruction array is empty (never, in practice:
    /// compilation always emits at least [`Instr::Halt`]).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Handler lookup with the tree interpreter's precedence: an exact
    /// tag match wins over a wildcard, declaration order breaks ties.
    pub(crate) fn find_handler(&self, q: QueueId, tag: u32) -> Option<&HandlerEntry> {
        self.handlers
            .iter()
            .find(|h| h.queue == q && h.ctrl == Some(tag))
            .or_else(|| {
                self.handlers
                    .iter()
                    .find(|h| h.queue == q && h.ctrl.is_none())
            })
    }
}

/// Compiles a stage program (function body + registered control-value
/// handlers) to bytecode.
///
/// # Errors
/// Returns [`Trap::BadId`] for out-of-range variable ids (the tree
/// interpreter would trap or panic on first use at runtime; compilation
/// surfaces them eagerly). Run [`Function::validate`] first to rule
/// them out. Break statements that would cross a handler or function
/// boundary compile to [`Instr::Fault`] and trap only when executed,
/// matching tree semantics.
pub fn compile(func: &Function, handlers: &[CtrlHandler]) -> Result<BytecodeProgram, Trap> {
    let nvars = func.vars.len() as u32;
    let mut c = Compiler {
        code: Vec::new(),
        consts: Vec::new(),
        nvars,
        nslots: nvars,
        loops: Vec::new(),
    };
    c.emit_body(&func.body)?;
    c.code.push(Instr::Halt);
    debug_assert!(c.loops.is_empty());
    let mut htab = Vec::with_capacity(handlers.len());
    for h in handlers {
        let entry = c.code.len() as u32;
        let bind = match h.bind {
            Some(v) => Some(c.check_var(v)?),
            None => None,
        };
        if let HandlerEnd::FinishWhen(v, _) | HandlerEnd::BreakWhen(v, _, _) = h.end {
            c.check_var(v)?;
        }
        c.emit_body(&h.body)?;
        debug_assert!(c.loops.is_empty());
        c.code.push(Instr::HandlerRet(h.end));
        htab.push(HandlerEntry {
            queue: h.queue,
            ctrl: h.ctrl,
            bind,
            entry,
        });
    }
    Ok(BytecodeProgram {
        name: func.name.clone(),
        nvars,
        nslots: c.nslots,
        body_empty: func.body.is_empty(),
        code: c.code,
        consts: c.consts,
        var_zero: func.vars.iter().map(|d| d.ty.zero()).collect(),
        handlers: htab,
    })
}

/// A forward reference to be patched with a loop's exit pc.
enum Patch {
    /// Instruction whose exit/target field points past the loop.
    Exit(usize),
    /// `breaks[k]` of the [`Instr::Deq`] at the given index.
    DeqBreak(usize, usize),
}

/// One open loop during compilation (scoped to the current region: the
/// main body and each handler body have independent loop stacks,
/// because breaks cannot cross a handler boundary).
struct LoopScope {
    patches: Vec<Patch>,
}

struct Compiler {
    code: Vec<Instr>,
    consts: Vec<Value>,
    nvars: u32,
    nslots: u32,
    loops: Vec<LoopScope>,
}

impl Compiler {
    fn check_var(&self, v: VarId) -> Result<u32, Trap> {
        if v.0 >= self.nvars {
            return Err(Trap::BadId(format!("var {}", v.0)));
        }
        Ok(v.0)
    }

    /// Interns an immediate into the constant pool (programs are small;
    /// a linear dedup scan keeps the pool tiny without a map).
    fn intern(&mut self, v: Value) -> u32 {
        if let Some(i) = self.consts.iter().position(|c| *c == v) {
            return i as u32;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    /// If `cond` is the temporary produced by the immediately preceding
    /// compare micro-op, pops that micro-op and returns its fields for
    /// fusion into the consuming branch (see [`Instr::BinIf`]).
    fn take_cmp_tail(&mut self, cond: Opd) -> Option<(BinOp, Opd, Opd)> {
        if let Opd::Tmp(t) = cond {
            if let Some(Instr::Bin { op, a, b, dst }) = self.code.last() {
                if *dst == t {
                    let (op, a, b) = (*op, *a, *b);
                    self.code.pop();
                    return Some((op, a, b));
                }
            }
        }
        None
    }

    fn alloc_tmp(&mut self) -> u32 {
        let s = self.nslots;
        self.nslots += 1;
        s
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Flattens an expression; emits its micro-ops and returns the
    /// operand holding the result. Micro-op order matches the tree
    /// interpreter's recursive evaluation exactly.
    fn emit_expr(&mut self, e: &Expr) -> Result<Opd, Trap> {
        match e {
            Expr::Const(v) => Ok(Opd::Const(self.intern(*v))),
            Expr::Var(v) => Ok(Opd::Var(self.check_var(*v)?)),
            Expr::Unary(op, a) => {
                let a = self.emit_expr(a)?;
                let dst = self.alloc_tmp();
                self.code.push(Instr::Un { op: *op, a, dst });
                Ok(Opd::Tmp(dst))
            }
            Expr::Binary(op, a, b) => {
                let a = self.emit_expr(a)?;
                let b = self.emit_expr(b)?;
                let dst = self.alloc_tmp();
                self.code.push(Instr::Bin { op: *op, a, b, dst });
                Ok(Opd::Tmp(dst))
            }
            Expr::Load { array, index, .. } => {
                let index = self.emit_expr(index)?;
                let dst = self.alloc_tmp();
                self.code.push(Instr::Load {
                    array: *array,
                    index,
                    dst,
                });
                Ok(Opd::Tmp(dst))
            }
        }
    }

    fn emit_body(&mut self, stmts: &[Stmt]) -> Result<(), Trap> {
        for s in stmts {
            self.emit_stmt(s)?;
        }
        Ok(())
    }

    fn patch(&mut self, p: &Patch, target: u32) {
        match *p {
            Patch::Exit(i) => match &mut self.code[i] {
                Instr::Jump(t) | Instr::BreakJump(t) => *t = target,
                Instr::IfBranch { else_t, .. } | Instr::BinIf { else_t, .. } => *else_t = target,
                Instr::WhileBranch { exit, .. }
                | Instr::BinWhile { exit, .. }
                | Instr::ForTest { exit, .. }
                | Instr::ForStep { exit, .. } => *exit = target,
                other => unreachable!("patching non-branch {other:?}"),
            },
            Patch::DeqBreak(i, k) => match &mut self.code[i] {
                Instr::Deq { breaks, .. } => breaks[k] = target,
                other => unreachable!("patching non-deq {other:?}"),
            },
        }
    }

    fn close_loop(&mut self) {
        let scope = self.loops.pop().expect("loop scope");
        let exit = self.here();
        for p in scope.patches {
            self.patch(&p, exit);
        }
    }

    fn emit_stmt(&mut self, s: &Stmt) -> Result<(), Trap> {
        match s {
            Stmt::Assign { var, expr } => {
                let src = self.emit_expr(expr)?;
                let var = self.check_var(*var)?;
                // Peephole: when the expression's last micro-op produced
                // the assigned temporary, rewrite it into the fused
                // atom-ending form that writes the variable slot
                // directly. Temporaries are single-use by construction
                // and no branch target can point between an
                // expression's micro-ops and its consuming statement,
                // so the rewrite is invisible except to the host clock.
                if let Opd::Tmp(t) = src {
                    let fused = match self.code.last() {
                        Some(Instr::Un { op, a, dst }) if *dst == t => Some(Instr::UnA {
                            op: *op,
                            a: *a,
                            var,
                        }),
                        Some(Instr::Bin { op, a, b, dst }) if *dst == t => Some(Instr::BinA {
                            op: *op,
                            a: *a,
                            b: *b,
                            var,
                        }),
                        Some(Instr::Load { array, index, dst }) if *dst == t => {
                            Some(Instr::LoadA {
                                array: *array,
                                index: *index,
                                var,
                            })
                        }
                        _ => None,
                    };
                    if let Some(f) = fused {
                        *self.code.last_mut().expect("fusable tail") = f;
                        return Ok(());
                    }
                }
                self.code.push(Instr::Assign { var, src });
            }
            Stmt::Store {
                array,
                index,
                value,
            } => {
                let index = self.emit_expr(index)?;
                let value = self.emit_expr(value)?;
                self.code.push(Instr::Store {
                    array: *array,
                    index,
                    value,
                });
            }
            Stmt::AtomicRmw {
                op,
                array,
                index,
                value,
                old,
            } => {
                let index = self.emit_expr(index)?;
                let value = self.emit_expr(value)?;
                let old = match old {
                    Some(o) => Some(self.check_var(*o)?),
                    None => None,
                };
                self.code.push(Instr::AtomicRmw {
                    op: *op,
                    array: *array,
                    index,
                    value,
                    old,
                });
            }
            Stmt::If {
                id,
                cond,
                then_body,
                else_body,
            } => {
                let cond = self.emit_expr(cond)?;
                let fused = self.take_cmp_tail(cond);
                let br = self.code.len();
                match fused {
                    Some((op, a, b)) => self.code.push(Instr::BinIf {
                        op,
                        a,
                        b,
                        id: *id,
                        else_t: u32::MAX,
                    }),
                    None => self.code.push(Instr::IfBranch {
                        id: *id,
                        cond,
                        else_t: u32::MAX,
                    }),
                }
                self.emit_body(then_body)?;
                if else_body.is_empty() {
                    let join = self.here();
                    self.patch(&Patch::Exit(br), join);
                } else {
                    let skip = self.code.len();
                    self.code.push(Instr::Jump(u32::MAX));
                    let else_t = self.here();
                    self.patch(&Patch::Exit(br), else_t);
                    self.emit_body(else_body)?;
                    let join = self.here();
                    self.patch(&Patch::Exit(skip), join);
                }
            }
            Stmt::While { id, cond, body } => {
                let test = self.here();
                let cond = self.emit_expr(cond)?;
                let fused = self.take_cmp_tail(cond);
                let br = self.code.len();
                match fused {
                    Some((op, a, b)) => self.code.push(Instr::BinWhile {
                        op,
                        a,
                        b,
                        id: *id,
                        exit: u32::MAX,
                    }),
                    None => self.code.push(Instr::WhileBranch {
                        id: *id,
                        cond,
                        exit: u32::MAX,
                    }),
                }
                self.loops.push(LoopScope {
                    patches: vec![Patch::Exit(br)],
                });
                self.emit_body(body)?;
                self.code.push(Instr::Jump(test));
                self.close_loop();
            }
            Stmt::For {
                id,
                var,
                start,
                end,
                body,
            } => {
                let start = self.emit_expr(start)?;
                let end = self.emit_expr(end)?;
                let var = self.check_var(*var)?;
                let cur = self.alloc_tmp();
                let lim = self.alloc_tmp();
                self.code.push(Instr::ForEnter {
                    start,
                    end,
                    cur,
                    lim,
                });
                let test = self.code.len();
                self.code.push(Instr::ForTest {
                    id: *id,
                    var,
                    cur,
                    lim,
                    exit: u32::MAX,
                });
                self.loops.push(LoopScope {
                    patches: vec![Patch::Exit(test)],
                });
                self.emit_body(body)?;
                let step = self.code.len();
                self.code.push(Instr::ForStep {
                    id: *id,
                    var,
                    cur,
                    lim,
                    body: test as u32 + 1,
                    exit: u32::MAX,
                });
                // `close_loop` pops the scope we pushed above, which also
                // patches ForStep's exit via the registration below.
                self.loops
                    .last_mut()
                    .expect("for scope")
                    .patches
                    .push(Patch::Exit(step));
                self.close_loop();
            }
            Stmt::Break { levels } => {
                let n = *levels as usize;
                if n == 0 {
                    // The tree interpreter re-executes a `break 0`
                    // forever (it pops nothing and never advances);
                    // reproduce that exactly with a self-loop.
                    let here = self.here();
                    self.code.push(Instr::BreakJump(here));
                } else if n > self.loops.len() {
                    self.code.push(Instr::Fault(
                        format!("break {levels} crosses a handler or function boundary")
                            .into_boxed_str(),
                    ));
                } else {
                    let idx = self.code.len();
                    self.code.push(Instr::BreakJump(u32::MAX));
                    let depth = self.loops.len();
                    self.loops[depth - n].patches.push(Patch::Exit(idx));
                }
            }
            Stmt::Enq { queue, value } => {
                let value = self.emit_expr(value)?;
                self.code.push(Instr::Enq {
                    queue: *queue,
                    value,
                });
            }
            Stmt::EnqSel {
                queues,
                select,
                value,
            } => {
                let select = self.emit_expr(select)?;
                let value = self.emit_expr(value)?;
                self.code.push(Instr::EnqSel {
                    queues: queues.clone().into_boxed_slice(),
                    select,
                    value,
                });
            }
            Stmt::EnqCtrl { queue, ctrl } => {
                self.code.push(Instr::EnqCtrl {
                    queue: *queue,
                    ctrl: *ctrl,
                });
            }
            Stmt::Deq { var, queue } => {
                let var = self.check_var(*var)?;
                let depth = self.loops.len();
                let idx = self.code.len();
                self.code.push(Instr::Deq {
                    var,
                    queue: *queue,
                    breaks: vec![u32::MAX; depth].into_boxed_slice(),
                });
                for k in 0..depth {
                    self.loops[depth - 1 - k]
                        .patches
                        .push(Patch::DeqBreak(idx, k));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn compiles_nested_control_flow() {
        let mut b = FunctionBuilder::new("t");
        let n = b.param_i64("n");
        let i = b.var_i64("i");
        let x = b.var_i64("x");
        b.for_loop(i, Expr::i64(0), Expr::var(n), |b| {
            b.if_then(Expr::lt(Expr::var(i), Expr::i64(3)), |b| {
                b.assign(x, Expr::add(Expr::var(x), Expr::var(i)));
            });
        });
        let f = b.build();
        let p = compile(&f, &[]).unwrap();
        assert!(!p.is_empty());
        assert!(matches!(p.code.last(), Some(Instr::Halt)));
        // No unpatched targets may remain.
        for ins in &p.code {
            match ins {
                Instr::Jump(t) | Instr::BreakJump(t) => assert_ne!(*t, u32::MAX),
                Instr::IfBranch { else_t, .. } => assert_ne!(*else_t, u32::MAX),
                Instr::WhileBranch { exit, .. }
                | Instr::ForTest { exit, .. }
                | Instr::ForStep { exit, .. } => assert_ne!(*exit, u32::MAX),
                Instr::Deq { breaks, .. } => {
                    assert!(breaks.iter().all(|t| *t != u32::MAX));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn break_too_deep_compiles_to_fault() {
        let mut b = FunctionBuilder::new("t");
        let i = b.var_i64("i");
        b.for_loop(i, Expr::i64(0), Expr::i64(2), |b| {
            b.break_out(5);
        });
        let f = b.build();
        let p = compile(&f, &[]).unwrap();
        assert!(p.code.iter().any(|i| matches!(i, Instr::Fault(_))));
    }

    #[test]
    fn bad_var_id_is_rejected_at_compile_time() {
        let mut b = FunctionBuilder::new("t");
        let x = b.var_i64("x");
        b.assign(x, Expr::var(VarId(99)));
        let f = b.build();
        assert!(matches!(compile(&f, &[]), Err(Trap::BadId(_))));
    }
}
