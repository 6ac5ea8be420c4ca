//! The flat bytecode interpreter.
//!
//! [`FlatInterp`] executes a [`BytecodeProgram`] (see [`crate::bytecode`])
//! with a program counter and a flat register file instead of the
//! [`crate::StepInterp`] frame stack. It makes exactly the same
//! [`World`] calls in the same order with the same arguments as the tree
//! interpreter would for the same program, so simulated cycles,
//! statistics, and memory state are bit-identical across engines — a
//! property pinned by differential tests. Only host-side work differs:
//! no frame-stack push/pop per atom, no recursive expression walk, no
//! statement dispatch on the structured AST.
//!
//! The hot entry point is [`FlatInterp::run_slice`]: it executes a whole
//! scheduler slice inside a single dispatch loop, keeping the program
//! counter, control-flow time, and step counter in locals across atoms
//! (the tree interpreter re-enters its frame machinery per atom).
//! Interpreter state is written back once per slice, not once per atom.
//!
//! Step accounting matches the tree interpreter exactly: every
//! *committed* atom counts against the budget (plus the final step that
//! discovers termination), blocked retries are un-counted so the step
//! counter is scheduler-independent, and a program with an empty body is
//! born finished.

use crate::bytecode::{BytecodeProgram, Instr, Opd};
use crate::expr::{QueueId, VarId};
use crate::stmt::HandlerEnd;
use crate::value::{eval_binop, eval_unop, BinOp, Trap, UnOp, Value};
use crate::world::{BlockReason, StepResult, Tid, Time, UopClass, World};

/// `a op b` and the micro-op class it issues as: exactly
/// `(eval_binop(op, a, b)?, UopClass::for_binop(op, a, b))`.
///
/// Integer arithmetic is what stage programs mostly do, and the generic
/// pair is priced for dynamic typing: two float tests and two three-way
/// coercions behind a `Result<_, Trap>`, the operator match, then the
/// operand tags matched again for the class. Two integers under an
/// operator that cannot trap take one match that yields value and class
/// together; everything else (a float, a control value, `Div`, `Rem`,
/// the shifts) falls through to the generic pair.
#[inline(always)]
fn binop(op: BinOp, a: Value, b: Value) -> Result<(Value, UopClass), Trap> {
    if let (Value::I64(x), Value::I64(y)) = (a, b) {
        let alu = match op {
            BinOp::Add => Some(x.wrapping_add(y)),
            BinOp::Sub => Some(x.wrapping_sub(y)),
            BinOp::Mul => return Ok((Value::I64(x.wrapping_mul(y)), UopClass::IntMul)),
            BinOp::And => Some(x & y),
            BinOp::Or => Some(x | y),
            BinOp::Xor => Some(x ^ y),
            BinOp::Min => Some(x.min(y)),
            BinOp::Max => Some(x.max(y)),
            BinOp::Lt => Some((x < y) as i64),
            BinOp::Le => Some((x <= y) as i64),
            BinOp::Gt => Some((x > y) as i64),
            BinOp::Ge => Some((x >= y) as i64),
            BinOp::Eq => Some((x == y) as i64),
            BinOp::Ne => Some((x != y) as i64),
            BinOp::Div | BinOp::Rem | BinOp::Shl | BinOp::Shr => None,
        };
        if let Some(v) = alu {
            return Ok((Value::I64(v), UopClass::IntAlu));
        }
    }
    Ok((eval_binop(op, a, b)?, UopClass::for_binop(op, a, b)))
}

/// `op a` and the micro-op class it issues as: [`eval_unop`] and the
/// float test on the operand, with the same shortcut as [`binop`] — an
/// integer under an operator that cannot trap is computed in place.
#[inline(always)]
fn unop(op: UnOp, a: Value) -> Result<(Value, UopClass), Trap> {
    if let Value::I64(x) = a {
        let alu = match op {
            UnOp::Neg => Some(x.wrapping_neg()),
            UnOp::Not => Some((x == 0) as i64),
            UnOp::BitNot => Some(!x),
            UnOp::IsCtrl => Some(0),
            UnOp::CtrlTag | UnOp::I2F | UnOp::F2I => None,
        };
        if let Some(v) = alu {
            return Ok((Value::I64(v), UopClass::IntAlu));
        }
    }
    let class = if matches!(a, Value::F64(_)) {
        UopClass::FpAlu
    } else {
        UopClass::IntAlu
    };
    Ok((eval_unop(op, a)?, class))
}

/// One register slot: a value and its readiness time, kept adjacent so
/// the common read-value-and-time access touches one location.
#[derive(Clone, Copy, Debug)]
struct Slot {
    v: Value,
    t: Time,
}

/// Program-counter interpreter for one compiled stage program.
pub struct FlatInterp<'p> {
    prog: &'p BytecodeProgram,
    tid: Tid,
    /// Register file: variables (slots `0..nvars`), then temporaries and
    /// loop state.
    slots: Vec<Slot>,
    flow_time: Time,
    pc: u32,
    /// Dispatch records: the pc of the dequeue instruction that jumped
    /// into each currently-active handler.
    ret_stack: Vec<u32>,
    finished: bool,
    /// A select-enqueue whose queue choice has been made (and its
    /// select micro-op issued) but whose enqueue is still blocked.
    pending_enq_sel: Option<(Value, Time, QueueId)>,
    steps: u64,
    budget: u64,
}

impl<'p> FlatInterp<'p> {
    /// Creates an interpreter for a compiled stage program running as
    /// hardware thread `tid`, with the given parameter bindings.
    ///
    /// # Panics
    /// Panics if a parameter id is out of range (call
    /// [`crate::Function::validate`] before compiling).
    pub fn new(prog: &'p BytecodeProgram, tid: Tid, params: &[(VarId, Value)]) -> FlatInterp<'p> {
        let nslots = prog.nslots as usize;
        let mut slots = vec![
            Slot {
                v: Value::I64(0),
                t: 0
            };
            nslots
        ];
        for (slot, zero) in slots.iter_mut().zip(&prog.var_zero) {
            slot.v = *zero;
        }
        for (var, val) in params {
            assert!(var.0 < prog.nvars, "param id {} out of range", var.0);
            slots[var.0 as usize].v = *val;
        }
        FlatInterp {
            prog,
            tid,
            slots,
            flow_time: 0,
            pc: 0,
            ret_stack: Vec::new(),
            finished: prog.body_empty,
            pending_enq_sel: None,
            steps: 0,
            budget: u64::MAX,
        }
    }

    /// Limits the number of interpreter steps (guards against runaway
    /// loops in generated code); exceeding it traps.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// True once the stage program has terminated.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Committed atoms executed so far. Blocked attempts are not
    /// counted, so the value is identical across engines and does not
    /// depend on how often a blocked stage is re-stepped.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Name of the stage (diagnostics).
    pub fn name(&self) -> &str {
        self.prog.name()
    }

    /// Current value of a variable (for reading scalar results).
    pub fn var(&self, v: VarId) -> Value {
        self.slots[v.0 as usize].v
    }

    /// The thread's control-flow readiness time (diagnostics).
    pub fn flow_time(&self) -> Time {
        self.flow_time
    }

    /// Reads an operand with the tree interpreter's timing rules.
    /// `flow` is the caller's (local) control-flow time.
    #[inline]
    fn read(&self, o: Opd, flow: Time) -> (Value, Time) {
        match o {
            Opd::Const(i) => (self.prog.consts[i as usize], flow),
            Opd::Var(i) => {
                let s = self.slots[i as usize];
                (s.v, s.t.max(flow))
            }
            Opd::Tmp(i) => {
                let s = self.slots[i as usize];
                (s.v, s.t)
            }
        }
    }

    #[inline]
    fn set(&mut self, slot: u32, v: Value, t: Time) {
        self.slots[slot as usize] = Slot { v, t };
    }

    /// Resolves a handler's `break N` relative to the dispatching
    /// dequeue site, mirroring the tree interpreter's `pop_loops`;
    /// returns the pc to continue at.
    fn break_target(&self, deq_pc: u32, levels: u32) -> Result<u32, Trap> {
        if levels == 0 {
            return Ok(deq_pc);
        }
        let Instr::Deq { breaks, .. } = &self.prog.code[deq_pc as usize] else {
            unreachable!("dispatch record points at a non-deq instruction");
        };
        match breaks.get(levels as usize - 1) {
            Some(t) => Ok(*t),
            None => Err(Trap::Malformed(format!(
                "break {levels} crosses a handler or function boundary"
            ))),
        }
    }

    /// Executes one atom: runs free instructions until an atom-ending
    /// instruction completes (or blocks). See [`StepResult`].
    ///
    /// # Errors
    /// Propagates runtime traps (bounds, control-value misuse, budget).
    pub fn step<W: World + ?Sized>(&mut self, world: &mut W) -> Result<StepResult, Trap> {
        match self.run_slice(world, 1)? {
            (_, StepResult::Blocked(BlockReason::Budget)) => Ok(StepResult::Progress),
            (_, r) => Ok(r),
        }
    }

    /// Runs up to `max` progress-making atoms in one dispatch-loop
    /// activation, stopping early if the thread blocks or finishes;
    /// returns the number of atoms executed and the stop condition
    /// (`Blocked(BlockReason::Budget)` when the slice was exhausted with
    /// the thread still runnable). The [`World`] call sequence is
    /// exactly what `max` consecutive [`Self::step`] calls would make.
    ///
    /// # Errors
    /// Propagates runtime traps (bounds, control-value misuse, budget).
    pub fn run_slice<W: World + ?Sized>(
        &mut self,
        world: &mut W,
        max: u32,
    ) -> Result<(u32, StepResult), Trap> {
        if self.finished {
            return Ok((0, StepResult::Finished));
        }
        let prog = self.prog;
        let tid = self.tid;
        let mut pc = self.pc;
        let mut flow = self.flow_time;
        let mut steps = self.steps;
        let mut n: u32 = 0;
        let result = 'slice: loop {
            steps += 1;
            if steps > self.budget {
                self.pc = pc;
                self.flow_time = flow;
                self.steps = steps;
                return Err(Trap::OpBudgetExceeded(self.budget));
            }
            // One atom: free instructions fall through; an atom-ending
            // instruction `break`s (progress) or `break 'slice`s
            // (blocked / finished).
            loop {
                match &prog.code[pc as usize] {
                    // ----- free instructions: fall through in the atom -----
                    Instr::Un { op, a, dst } => {
                        let (op, a, dst) = (*op, *a, *dst);
                        let (va, ta) = self.read(a, flow);
                        let (res, class) = unop(op, va)?;
                        let t = world.uop(tid, class, ta);
                        self.set(dst, res, t);
                        pc += 1;
                    }
                    Instr::Bin { op, a, b, dst } => {
                        let (op, a, b, dst) = (*op, *a, *b, *dst);
                        let (va, ta) = self.read(a, flow);
                        let (vb, tb) = self.read(b, flow);
                        let (res, class) = binop(op, va, vb)?;
                        let t = world.uop(tid, class, ta.max(tb));
                        self.set(dst, res, t);
                        pc += 1;
                    }
                    Instr::Load { array, index, dst } => {
                        let (array, index, dst) = (*array, *index, *dst);
                        let (vi, ti) = self.read(index, flow);
                        let idx = vi.as_i64()?;
                        let (v, t) = world.load(tid, array, idx, ti)?;
                        self.set(dst, v, t);
                        pc += 1;
                    }
                    Instr::Jump(target) => {
                        pc = *target;
                    }
                    Instr::ForEnter {
                        start,
                        end,
                        cur,
                        lim,
                    } => {
                        let (start, end, cur, lim) = (*start, *end, *cur, *lim);
                        let (vs, ts) = self.read(start, flow);
                        let (ve, te) = self.read(end, flow);
                        let c = vs.as_i64()?;
                        let l = ve.as_i64()?;
                        self.set(cur, Value::I64(c), ts);
                        self.set(lim, Value::I64(l), te);
                        pc += 1;
                    }
                    // ----- atom-ending instructions -----
                    Instr::Assign { var, src } => {
                        let (var, src) = (*var, *src);
                        let (v, t) = self.read(src, flow);
                        self.set(var, v, t);
                        pc += 1;
                        break;
                    }
                    Instr::UnA { op, a, var } => {
                        let (op, a, var) = (*op, *a, *var);
                        let (va, ta) = self.read(a, flow);
                        let (res, class) = unop(op, va)?;
                        let t = world.uop(tid, class, ta);
                        self.set(var, res, t);
                        pc += 1;
                        break;
                    }
                    Instr::BinA { op, a, b, var } => {
                        let (op, a, b, var) = (*op, *a, *b, *var);
                        let (va, ta) = self.read(a, flow);
                        let (vb, tb) = self.read(b, flow);
                        let (res, class) = binop(op, va, vb)?;
                        let t = world.uop(tid, class, ta.max(tb));
                        self.set(var, res, t);
                        pc += 1;
                        break;
                    }
                    Instr::LoadA { array, index, var } => {
                        let (array, index, var) = (*array, *index, *var);
                        let (vi, ti) = self.read(index, flow);
                        let idx = vi.as_i64()?;
                        let (v, t) = world.load(tid, array, idx, ti)?;
                        self.set(var, v, t);
                        pc += 1;
                        break;
                    }
                    Instr::Store {
                        array,
                        index,
                        value,
                    } => {
                        let (array, index, value) = (*array, *index, *value);
                        let (vi, ti) = self.read(index, flow);
                        let (vv, tv) = self.read(value, flow);
                        world.store(tid, array, vi.as_i64()?, vv, ti.max(tv))?;
                        pc += 1;
                        break;
                    }
                    Instr::AtomicRmw {
                        op,
                        array,
                        index,
                        value,
                        old,
                    } => {
                        let (op, array, index, value, old) = (*op, *array, *index, *value, *old);
                        let (vi, ti) = self.read(index, flow);
                        let (vv, tv) = self.read(value, flow);
                        let (prev, t) =
                            world.atomic_rmw(tid, op, array, vi.as_i64()?, vv, ti.max(tv))?;
                        if let Some(o) = old {
                            self.set(o, prev, t);
                        }
                        pc += 1;
                        break;
                    }
                    Instr::Enq { queue, value } => {
                        let (queue, value) = (*queue, *value);
                        // Re-reading the operand on a blocked retry is
                        // pure: its micro-ops ran before this instruction
                        // and the registers are untouched while blocked.
                        let (v, t) = self.read(value, flow);
                        match world.try_enq(tid, queue, v, t)? {
                            Some(_) => {
                                pc += 1;
                                break;
                            }
                            None => {
                                break 'slice (
                                    n,
                                    StepResult::Blocked(BlockReason::QueueFull(queue)),
                                );
                            }
                        }
                    }
                    Instr::EnqSel {
                        queues,
                        select,
                        value,
                    } => {
                        let (v, t, qsel) = match self.pending_enq_sel.take() {
                            Some(p) => p,
                            None => {
                                let (sv, st) = self.read(*select, flow);
                                let (v, vt) = self.read(*value, flow);
                                let count = queues.len() as i64;
                                let idx = sv.as_i64()?.rem_euclid(count) as usize;
                                // Selecting the queue costs one ALU op.
                                let t_sel = world.uop(tid, UopClass::IntAlu, st);
                                (v, vt.max(t_sel), queues[idx])
                            }
                        };
                        match world.try_enq(tid, qsel, v, t)? {
                            Some(_) => {
                                pc += 1;
                                break;
                            }
                            None => {
                                self.pending_enq_sel = Some((v, t, qsel));
                                break 'slice (
                                    n,
                                    StepResult::Blocked(BlockReason::QueueFull(qsel)),
                                );
                            }
                        }
                    }
                    Instr::EnqCtrl { queue, ctrl } => {
                        let (queue, ctrl) = (*queue, *ctrl);
                        match world.try_enq(tid, queue, Value::Ctrl(ctrl), flow)? {
                            Some(_) => {
                                pc += 1;
                                break;
                            }
                            None => {
                                break 'slice (
                                    n,
                                    StepResult::Blocked(BlockReason::QueueFull(queue)),
                                );
                            }
                        }
                    }
                    Instr::Deq { var, queue, .. } => {
                        let (var, queue) = (*var, *queue);
                        match world.try_deq(tid, queue, flow)? {
                            None => {
                                break 'slice (
                                    n,
                                    StepResult::Blocked(BlockReason::QueueEmpty(queue)),
                                );
                            }
                            Some((w, t)) => {
                                if let Value::Ctrl(tag) = w {
                                    if let Some(h) = prog.find_handler(queue, tag) {
                                        let t_jump = world.uop(tid, UopClass::CtrlJump, t);
                                        world.note_ctrl_handler(tid, queue, tag, t_jump);
                                        flow = flow.max(t_jump);
                                        if let Some(bind) = h.bind {
                                            self.set(bind, w, t_jump);
                                        }
                                        // The pc stays on the deq in the
                                        // record: Resume retries it.
                                        self.ret_stack.push(pc);
                                        pc = h.entry;
                                        break;
                                    }
                                }
                                self.set(var, w, t);
                                pc += 1;
                                break;
                            }
                        }
                    }
                    Instr::IfBranch { id, cond, else_t } => {
                        let (id, cond, else_t) = (*id, *cond, *else_t);
                        let (v, t) = self.read(cond, flow);
                        let taken = v.as_bool()?;
                        let resume = world.branch(tid, id, taken, t);
                        flow = flow.max(resume);
                        pc = if taken { pc + 1 } else { else_t };
                        break;
                    }
                    Instr::WhileBranch { id, cond, exit } => {
                        let (id, cond, exit) = (*id, *cond, *exit);
                        let (v, t) = self.read(cond, flow);
                        let taken = v.as_bool()?;
                        let resume = world.branch(tid, id, taken, t);
                        flow = flow.max(resume);
                        pc = if taken { pc + 1 } else { exit };
                        break;
                    }
                    Instr::BinIf {
                        op,
                        a,
                        b,
                        id,
                        else_t,
                    } => {
                        let (op, a, b, id, else_t) = (*op, *a, *b, *id, *else_t);
                        let (va, ta) = self.read(a, flow);
                        let (vb, tb) = self.read(b, flow);
                        let (res, class) = binop(op, va, vb)?;
                        let t_cmp = world.uop(tid, class, ta.max(tb));
                        let taken = res.as_bool()?;
                        let resume = world.branch(tid, id, taken, t_cmp);
                        flow = flow.max(resume);
                        pc = if taken { pc + 1 } else { else_t };
                        break;
                    }
                    Instr::BinWhile { op, a, b, id, exit } => {
                        let (op, a, b, id, exit) = (*op, *a, *b, *id, *exit);
                        let (va, ta) = self.read(a, flow);
                        let (vb, tb) = self.read(b, flow);
                        let (res, class) = binop(op, va, vb)?;
                        let t_cmp = world.uop(tid, class, ta.max(tb));
                        let taken = res.as_bool()?;
                        let resume = world.branch(tid, id, taken, t_cmp);
                        flow = flow.max(resume);
                        pc = if taken { pc + 1 } else { exit };
                        break;
                    }
                    Instr::ForTest {
                        id,
                        var,
                        cur,
                        lim,
                        exit,
                    } => {
                        let (id, var, cur, lim, exit) = (*id, *var, *cur, *lim, *exit);
                        let body = pc + 1;
                        pc = self.for_test(world, id, var, cur, lim, body, exit, &mut flow)?;
                        break;
                    }
                    Instr::ForStep {
                        id,
                        var,
                        cur,
                        lim,
                        body,
                        exit,
                    } => {
                        let (id, var, cur, lim, body, exit) = (*id, *var, *cur, *lim, *body, *exit);
                        // Increment: a 1-cycle loop-carried dependence.
                        let t =
                            world.uop(tid, UopClass::IntAlu, self.slots[cur as usize].t.max(flow));
                        let c = self.slots[cur as usize].v.as_i64()? + 1;
                        self.set(cur, Value::I64(c), t);
                        pc = self.for_test(world, id, var, cur, lim, body, exit, &mut flow)?;
                        break;
                    }
                    Instr::BreakJump(target) => {
                        pc = *target;
                        break;
                    }
                    Instr::HandlerRet(end) => {
                        let end = *end;
                        let deq_pc = self
                            .ret_stack
                            .pop()
                            .expect("handler return without a dispatch record");
                        match end {
                            HandlerEnd::Resume => pc = deq_pc,
                            HandlerEnd::BreakLoops(levels) => {
                                pc = self.break_target(deq_pc, levels)?;
                            }
                            HandlerEnd::FinishStage => {
                                self.finished = true;
                                break 'slice (n, StepResult::Finished);
                            }
                            HandlerEnd::FinishWhen(var, target) => {
                                if self.slots[var.0 as usize].v.as_i64()? >= target {
                                    self.finished = true;
                                    break 'slice (n, StepResult::Finished);
                                }
                                pc = deq_pc;
                            }
                            HandlerEnd::BreakWhen(var, target, levels) => {
                                if self.slots[var.0 as usize].v.as_i64()? >= target {
                                    pc = self.break_target(deq_pc, levels)?;
                                } else {
                                    pc = deq_pc;
                                }
                            }
                        }
                        break;
                    }
                    Instr::Halt => {
                        self.finished = true;
                        break 'slice (n, StepResult::Finished);
                    }
                    Instr::Fault(msg) => {
                        return Err(Trap::Malformed(msg.to_string()));
                    }
                }
            }
            // The atom made progress.
            n += 1;
            if n >= max {
                break 'slice (n, StepResult::Blocked(BlockReason::Budget));
            }
        };
        if let (_, StepResult::Blocked(b)) = &result {
            if !matches!(b, BlockReason::Budget) {
                // A blocked attempt is not a committed atom: un-count it,
                // or `steps` would depend on how often the scheduler
                // re-polls a blocked thread. (A `Budget` stop follows a
                // completed atom, so its count stands.)
                steps -= 1;
            }
        }
        self.pc = pc;
        self.flow_time = flow;
        self.steps = steps;
        Ok(result)
    }

    /// The shared for-loop exit test + branch + induction-variable
    /// commit (the tail of both [`Instr::ForTest`] and
    /// [`Instr::ForStep`]); returns the pc to continue at.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn for_test<W: World + ?Sized>(
        &mut self,
        world: &mut W,
        id: crate::expr::BranchId,
        var: u32,
        cur: u32,
        lim: u32,
        body: u32,
        exit: u32,
        flow: &mut Time,
    ) -> Result<u32, Trap> {
        let cur_time = self.slots[cur as usize].t;
        let t_cmp = world.uop(
            self.tid,
            UopClass::IntAlu,
            cur_time.max(self.slots[lim as usize].t).max(*flow),
        );
        let c = self.slots[cur as usize].v.as_i64()?;
        let taken = c < self.slots[lim as usize].v.as_i64()?;
        let resume = world.branch(self.tid, id, taken, t_cmp);
        *flow = (*flow).max(resume);
        if taken {
            self.set(var, Value::I64(c), cur_time.max(*flow));
            Ok(body)
        } else {
            Ok(exit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::bytecode::compile;
    use crate::expr::Expr;
    use crate::mem::MemState;
    use crate::value::BinOp;
    use crate::world::FunctionalWorld;

    /// Bitwise equality: `NaN` equals itself and `0.0` differs from
    /// `-0.0`, neither of which `Value`'s `PartialEq` says.
    fn same_word(a: Value, b: Value) -> bool {
        match (a, b) {
            (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    /// The values where integer and float semantics part ways: overflow,
    /// shift counts at and past the width, signed zeroes, `NaN`, a
    /// control value.
    const EDGES: [Value; 12] = [
        Value::I64(i64::MIN),
        Value::I64(-1),
        Value::I64(0),
        Value::I64(1),
        Value::I64(63),
        Value::I64(64),
        Value::I64(i64::MAX),
        Value::F64(0.0),
        Value::F64(-0.0),
        Value::F64(1.5),
        Value::F64(f64::NAN),
        Value::Ctrl(0),
    ];

    fn same_outcome(
        got: &Result<(Value, UopClass), Trap>,
        want: &Result<(Value, UopClass), Trap>,
    ) -> bool {
        match (got, want) {
            (Ok((gv, gc)), Ok((wv, wc))) => same_word(*gv, *wv) && gc == wc,
            (Err(g), Err(w)) => g == w,
            _ => false,
        }
    }

    /// The fast path is an optimisation of the generic pair, not a second
    /// definition of arithmetic: for every operator over every pairing of
    /// [`EDGES`] it returns what the pair returns, traps included.
    #[test]
    fn binop_fast_path_equals_the_generic_pair() {
        for op in BinOp::ALL {
            // A new operator must be listed in `BinOp::ALL` (and placed
            // in `binop`).
            use BinOp::*;
            match op {
                Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Lt | Le | Gt | Ge
                | Eq | Ne | Min | Max => {}
            }
            for a in EDGES {
                for b in EDGES {
                    let want = eval_binop(op, a, b).map(|v| (v, UopClass::for_binop(op, a, b)));
                    let got = binop(op, a, b);
                    assert!(
                        same_outcome(&got, &want),
                        "{a} {op} {b}: fast path {got:?}, generic {want:?}"
                    );
                }
            }
        }
    }

    /// Likewise for the unary operators, against [`eval_unop`] and the
    /// tree interpreter's class rule (float operand, float unit).
    #[test]
    fn unop_fast_path_equals_the_generic_pair() {
        use UnOp::*;
        const OPS: [UnOp; 7] = [Neg, Not, BitNot, IsCtrl, CtrlTag, I2F, F2I];
        for op in OPS {
            match op {
                Neg | Not | BitNot | IsCtrl | CtrlTag | I2F | F2I => {}
            }
            for a in EDGES {
                let class = if matches!(a, Value::F64(_)) {
                    UopClass::FpAlu
                } else {
                    UopClass::IntAlu
                };
                let want = eval_unop(op, a).map(|v| (v, class));
                let got = unop(op, a);
                assert!(
                    same_outcome(&got, &want),
                    "{op} {a}: fast path {got:?}, generic {want:?}"
                );
            }
        }
    }

    #[test]
    fn slice_budget_trap_matches_stepwise_budget_trap() {
        // The fused slice loop must count budget steps exactly like
        // repeated single steps (including the trapping attempt).
        let mut b = FunctionBuilder::new("spin");
        let x = b.var_i64("x");
        b.while_loop(Expr::i64(1), |b| {
            b.assign(x, Expr::add(Expr::var(x), Expr::i64(1)));
        });
        let f = b.build();
        let prog = compile(&f, &[]).unwrap();
        let mut world = FunctionalWorld::new(MemState::new(), 0, 0, 1);
        let mut interp = FlatInterp::new(&prog, Tid(0), &[]).with_budget(100);
        let err = loop {
            match interp.run_slice(&mut world, 64) {
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        assert!(matches!(err, Trap::OpBudgetExceeded(100)));
        assert_eq!(interp.steps(), 101);
    }
}
