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

use crate::bytecode::{BytecodeProgram, Dst, Instr, Opd, Reg, TOp};
use crate::expr::{QueueId, VarId};
use crate::mem::{decode, word_of};
use crate::stmt::HandlerEnd;
use crate::value::{eval_binop, eval_unop, BinOp, Trap, Ty, UnOp, Value};
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

/// `a op b` over two words of `op`'s type: exactly the word of
/// `eval_binop(op, a, b)` for the two [`Value`]s those words are, with
/// no tag to inspect (the micro-op class is the instruction's).
#[inline(always)]
fn tbin(op: TOp, x: u64, y: u64) -> Result<u64, Trap> {
    use TOp::*;
    let (i, j) = (x as i64, y as i64);
    let (f, g) = (f64::from_bits(x), f64::from_bits(y));
    Ok(match op {
        AddI => i.wrapping_add(j) as u64,
        SubI => i.wrapping_sub(j) as u64,
        MulI => i.wrapping_mul(j) as u64,
        DivI | RemI if j == 0 => return Err(Trap::DivByZero),
        DivI => i.wrapping_div(j) as u64,
        RemI => i.wrapping_rem(j) as u64,
        AndI => x & y,
        OrI => x | y,
        XorI => x ^ y,
        ShlI => i.wrapping_shl(j as u32) as u64,
        ShrI => i.wrapping_shr(j as u32) as u64,
        LtI => u64::from(i < j),
        LeI => u64::from(i <= j),
        GtI => u64::from(i > j),
        GeI => u64::from(i >= j),
        EqI => u64::from(i == j),
        NeI => u64::from(i != j),
        MinI => i.min(j) as u64,
        MaxI => i.max(j) as u64,
        AddF => (f + g).to_bits(),
        SubF => (f - g).to_bits(),
        MulF => (f * g).to_bits(),
        DivF | RemF if g == 0.0 => return Err(Trap::DivByZero),
        DivF => (f / g).to_bits(),
        RemF => (f % g).to_bits(),
        MinF => f.min(g).to_bits(),
        MaxF => f.max(g).to_bits(),
        LtF => u64::from(f < g),
        LeF => u64::from(f <= g),
        GtF => u64::from(f > g),
        GeF => u64::from(f >= g),
        EqF => u64::from(f == g),
        NeF => u64::from(f != g),
    })
}

/// `op a` over a word of type `ty`: the word of `eval_unop(op, a)`.
/// Never called with [`UnOp::CtrlTag`], which traps on any data word
/// and so stays dynamic.
#[inline(always)]
fn tunop(op: UnOp, ty: Ty, w: u64) -> u64 {
    let (i, f) = (w as i64, f64::from_bits(w));
    match (op, ty) {
        (UnOp::Neg, Ty::I64) => i.wrapping_neg() as u64,
        (UnOp::Neg, Ty::F64) => (-f).to_bits(),
        (UnOp::Not, Ty::I64) => u64::from(i == 0),
        (UnOp::Not, Ty::F64) => u64::from(f == 0.0),
        (UnOp::BitNot, Ty::I64) => !w,
        (UnOp::BitNot, Ty::F64) => !(f as i64) as u64,
        (UnOp::IsCtrl, _) => 0,
        (UnOp::I2F, Ty::I64) => (i as f64).to_bits(),
        (UnOp::I2F, Ty::F64) => ((f as i64) as f64).to_bits(),
        (UnOp::F2I, Ty::I64) => (i as f64) as i64 as u64,
        (UnOp::F2I, Ty::F64) => (f as i64) as u64,
        (UnOp::CtrlTag, _) => unreachable!("ctrl_tag is never typed"),
    }
}

/// One word slot: a `u64` word and its readiness time (16 bytes).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Word {
    w: u64,
    t: Time,
}

/// One tagged slot: a value and its readiness time, kept adjacent so
/// the common read-value-and-time access touches one location.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    v: Value,
    t: Time,
}

/// Program-counter interpreter for one compiled stage program.
pub struct FlatInterp<'p> {
    prog: &'p BytecodeProgram,
    tid: Tid,
    /// Word register file: word variables, then constants and
    /// temporaries (see [`BytecodeProgram`]).
    words: Vec<Word>,
    /// Tagged register file, laid out likewise.
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
    /// [`crate::Function::validate`] before compiling), or if a
    /// parameter kept in a word slot is bound to a value that is not
    /// data of its declared type.
    pub fn new(prog: &'p BytecodeProgram, tid: Tid, params: &[(VarId, Value)]) -> FlatInterp<'p> {
        let mut it = FlatInterp {
            prog,
            tid,
            words: vec![Word { w: 0, t: 0 }; prog.nwords as usize],
            slots: vec![
                Slot {
                    v: Value::I64(0),
                    t: 0
                };
                prog.ntagged as usize
            ],
            flow_time: 0,
            pc: 0,
            ret_stack: Vec::new(),
            finished: prog.body_empty,
            pending_enq_sel: None,
            steps: 0,
            budget: u64::MAX,
        };
        for &(dst, v) in &prog.inits {
            it.put(dst, v, 0).expect("a constant fits its slot");
        }
        for &(var, val) in params {
            let dst = *prog
                .vars
                .get(var.0 as usize)
                .unwrap_or_else(|| panic!("param id {} out of range", var.0));
            if let Err(e) = it.put(dst, val, 0) {
                panic!("param {}: {e}", var.0);
            }
        }
        it
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
        match self.prog.vars[v.0 as usize] {
            Dst::Tag(s) => self.slots[s as usize].v,
            Dst::Word(s, ty) => decode(ty, self.words[s as usize].w),
        }
    }

    /// The thread's control-flow readiness time (diagnostics).
    pub fn flow_time(&self) -> Time {
        self.flow_time
    }

    /// Reads a word operand with the tree interpreter's timing rules.
    /// `flow` is the caller's (local) control-flow time.
    #[inline(always)]
    fn word(&self, r: Reg, flow: Time) -> (u64, Time) {
        let s = self.words[r.slot()];
        (s.w, s.t.max(flow & r.flow_mask()))
    }

    /// Reads a dynamic operand as a [`Value`], with the same timing
    /// rules.
    #[inline]
    fn read(&self, o: Opd, flow: Time) -> (Value, Time) {
        match o {
            Opd::Tag(r) => {
                let s = self.slots[r.slot()];
                (s.v, s.t.max(flow & r.flow_mask()))
            }
            Opd::Word(r, ty) => {
                let (w, t) = self.word(r, flow);
                (decode(ty, w), t)
            }
        }
    }

    #[inline(always)]
    fn set_word(&mut self, slot: u32, w: u64, t: Time) {
        self.words[slot as usize] = Word { w, t };
    }

    /// Writes a dynamic result; see [`word_of`] for the error.
    #[inline]
    fn put(&mut self, dst: Dst, v: Value, t: Time) -> Result<(), Trap> {
        match dst {
            Dst::Tag(s) => self.slots[s as usize] = Slot { v, t },
            Dst::Word(s, ty) => self.set_word(s, word_of(ty, v)?, t),
        }
        Ok(())
    }

    /// Resolves a handler's `break N` relative to the dispatching
    /// dequeue site, mirroring the tree interpreter's `pop_loops`;
    /// returns the pc to continue at.
    fn break_target(&self, deq_pc: u32, levels: u32) -> Result<u32, Trap> {
        if levels == 0 {
            return Ok(deq_pc);
        }
        let Instr::Deq { breaks, depth, .. } = self.prog.code[deq_pc as usize] else {
            unreachable!("dispatch record points at a non-deq instruction");
        };
        if levels > depth {
            return Err(Trap::Malformed(format!(
                "break {levels} crosses a handler or function boundary"
            )));
        }
        Ok(self.prog.breaks[(breaks + levels - 1) as usize])
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
                    // ----- free, typed -----
                    Instr::TUn {
                        op,
                        ty,
                        class,
                        a,
                        dst,
                    } => {
                        let (x, ta) = self.word(*a, flow);
                        let t = world.uop(tid, *class, ta);
                        self.set_word(*dst, tunop(*op, *ty, x), t);
                        pc += 1;
                    }
                    Instr::TBin {
                        op,
                        class,
                        a,
                        b,
                        dst,
                    } => {
                        let (x, ta) = self.word(*a, flow);
                        let (y, tb) = self.word(*b, flow);
                        let w = tbin(*op, x, y)?;
                        let t = world.uop(tid, *class, ta.max(tb));
                        self.set_word(*dst, w, t);
                        pc += 1;
                    }
                    Instr::TLoad {
                        array,
                        ty,
                        index,
                        dst,
                    } => {
                        let (i, ti) = self.word(*index, flow);
                        let (w, t) = world.load_word(tid, *array, i as i64, *ty, ti)?;
                        self.set_word(*dst, w, t);
                        pc += 1;
                    }
                    // ----- free, dynamic -----
                    Instr::Un { op, a, dst } => {
                        let (op, a, dst) = (*op, *a, *dst);
                        let (va, ta) = self.read(a, flow);
                        let (res, class) = unop(op, va)?;
                        let t = world.uop(tid, class, ta);
                        self.slots[dst as usize] = Slot { v: res, t };
                        pc += 1;
                    }
                    Instr::Bin { op, a, b, dst } => {
                        let (op, a, b, dst) = (*op, *a, *b, *dst);
                        let (va, ta) = self.read(a, flow);
                        let (vb, tb) = self.read(b, flow);
                        let (res, class) = binop(op, va, vb)?;
                        let t = world.uop(tid, class, ta.max(tb));
                        self.slots[dst as usize] = Slot { v: res, t };
                        pc += 1;
                    }
                    Instr::Load { array, index, dst } => {
                        let (array, index, dst) = (*array, *index, *dst);
                        let (vi, ti) = self.read(index, flow);
                        let idx = vi.as_i64()?;
                        let (v, t) = world.load(tid, array, idx, ti)?;
                        self.slots[dst as usize] = Slot { v, t };
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
                        self.set_word(cur, c as u64, ts);
                        self.set_word(lim, l as u64, te);
                        pc += 1;
                    }
                    // ----- atom-ending, typed -----
                    Instr::TAssign { var, src } => {
                        let (w, t) = self.word(*src, flow);
                        self.set_word(*var, w, t);
                        pc += 1;
                        break;
                    }
                    Instr::TUnA {
                        op,
                        ty,
                        class,
                        a,
                        var,
                    } => {
                        let (x, ta) = self.word(*a, flow);
                        let t = world.uop(tid, *class, ta);
                        self.set_word(*var, tunop(*op, *ty, x), t);
                        pc += 1;
                        break;
                    }
                    Instr::TBinA {
                        op,
                        class,
                        a,
                        b,
                        var,
                    } => {
                        let (x, ta) = self.word(*a, flow);
                        let (y, tb) = self.word(*b, flow);
                        let w = tbin(*op, x, y)?;
                        let t = world.uop(tid, *class, ta.max(tb));
                        self.set_word(*var, w, t);
                        pc += 1;
                        break;
                    }
                    Instr::TLoadA {
                        array,
                        ty,
                        index,
                        var,
                    } => {
                        let (i, ti) = self.word(*index, flow);
                        let (w, t) = world.load_word(tid, *array, i as i64, *ty, ti)?;
                        self.set_word(*var, w, t);
                        pc += 1;
                        break;
                    }
                    Instr::TStore {
                        array,
                        ty,
                        index,
                        value,
                    } => {
                        let (i, ti) = self.word(*index, flow);
                        let (w, tv) = self.word(*value, flow);
                        world.store_word(tid, *array, i as i64, w, *ty, ti.max(tv))?;
                        pc += 1;
                        break;
                    }
                    Instr::TBranch { id, cond, target } => {
                        let (w, t) = self.word(*cond, flow);
                        let taken = w != 0;
                        let resume = world.branch(tid, *id, taken, t);
                        flow = flow.max(resume);
                        pc = if taken { pc + 1 } else { *target };
                        break;
                    }
                    Instr::TBinBranch {
                        op,
                        class,
                        a,
                        b,
                        id,
                        target,
                    } => {
                        let (x, ta) = self.word(*a, flow);
                        let (y, tb) = self.word(*b, flow);
                        let taken = tbin(*op, x, y)? != 0;
                        let t_cmp = world.uop(tid, *class, ta.max(tb));
                        let resume = world.branch(tid, *id, taken, t_cmp);
                        flow = flow.max(resume);
                        pc = if taken { pc + 1 } else { *target };
                        break;
                    }
                    // ----- atom-ending, dynamic -----
                    Instr::Assign { var, src } => {
                        let (var, src) = (*var, *src);
                        let (v, t) = self.read(src, flow);
                        self.put(var, v, t)?;
                        pc += 1;
                        break;
                    }
                    Instr::UnA { op, a, var } => {
                        let (op, a, var) = (*op, *a, *var);
                        let (va, ta) = self.read(a, flow);
                        let (res, class) = unop(op, va)?;
                        let t = world.uop(tid, class, ta);
                        self.put(var, res, t)?;
                        pc += 1;
                        break;
                    }
                    Instr::BinA { op, a, b, var } => {
                        let (op, a, b, var) = (*op, *a, *b, *var);
                        let (va, ta) = self.read(a, flow);
                        let (vb, tb) = self.read(b, flow);
                        let (res, class) = binop(op, va, vb)?;
                        let t = world.uop(tid, class, ta.max(tb));
                        self.put(var, res, t)?;
                        pc += 1;
                        break;
                    }
                    Instr::LoadA { array, index, var } => {
                        let (array, index, var) = (*array, *index, *var);
                        let (vi, ti) = self.read(index, flow);
                        let idx = vi.as_i64()?;
                        let (v, t) = world.load(tid, array, idx, ti)?;
                        self.put(var, v, t)?;
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
                            self.put(o, prev, t)?;
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
                                            self.put(bind, w, t_jump)?;
                                        }
                                        // The pc stays on the deq in the
                                        // record: Resume retries it.
                                        self.ret_stack.push(pc);
                                        pc = h.entry;
                                        break;
                                    }
                                }
                                self.put(var, w, t)?;
                                pc += 1;
                                break;
                            }
                        }
                    }
                    Instr::Branch { id, cond, target } => {
                        let (id, cond, target) = (*id, *cond, *target);
                        let (v, t) = self.read(cond, flow);
                        let taken = v.as_bool()?;
                        let resume = world.branch(tid, id, taken, t);
                        flow = flow.max(resume);
                        pc = if taken { pc + 1 } else { target };
                        break;
                    }
                    Instr::BinBranch {
                        op,
                        a,
                        b,
                        id,
                        target,
                    } => {
                        let (op, a, b, id, target) = (*op, *a, *b, *id, *target);
                        let (va, ta) = self.read(a, flow);
                        let (vb, tb) = self.read(b, flow);
                        let (res, class) = binop(op, va, vb)?;
                        let t_cmp = world.uop(tid, class, ta.max(tb));
                        let taken = res.as_bool()?;
                        let resume = world.branch(tid, id, taken, t_cmp);
                        flow = flow.max(resume);
                        pc = if taken { pc + 1 } else { target };
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
                        let s = self.words[cur as usize];
                        let t = world.uop(tid, UopClass::IntAlu, s.t.max(flow));
                        self.set_word(cur, (s.w as i64 + 1) as u64, t);
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
                                if self.var(var).as_i64()? >= target {
                                    self.finished = true;
                                    break 'slice (n, StepResult::Finished);
                                }
                                pc = deq_pc;
                            }
                            HandlerEnd::BreakWhen(var, target, levels) => {
                                if self.var(var).as_i64()? >= target {
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
        var: Dst,
        cur: u32,
        lim: u32,
        body: u32,
        exit: u32,
        flow: &mut Time,
    ) -> Result<u32, Trap> {
        let (c, l) = (self.words[cur as usize], self.words[lim as usize]);
        let t_cmp = world.uop(self.tid, UopClass::IntAlu, c.t.max(l.t).max(*flow));
        let taken = (c.w as i64) < l.w as i64;
        let resume = world.branch(self.tid, id, taken, t_cmp);
        *flow = (*flow).max(resume);
        if !taken {
            return Ok(exit);
        }
        let t = c.t.max(*flow);
        match var {
            Dst::Word(s, Ty::I64) => self.set_word(s, c.w, t),
            var => self.put(var, Value::I64(c.w as i64), t)?,
        }
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::bytecode::compile;
    use crate::expr::Expr;
    use crate::mem::MemState;
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

    /// The word of a data value, as a word slot of its type holds it.
    fn data_word(v: Value) -> Option<(u64, Ty)> {
        match v {
            Value::I64(x) => Some((x as u64, Ty::I64)),
            Value::F64(x) => Some((x.to_bits(), Ty::F64)),
            Value::Ctrl(_) => None,
        }
    }

    /// Each typed operator is the generic pair over two data values of
    /// its type, bit for bit and trap for trap, and carries the class
    /// [`UopClass::for_binop`] gives them.
    #[test]
    fn typed_binops_equal_the_generic_pair() {
        for op in BinOp::ALL {
            for float in [false, true] {
                let Some(top) = TOp::new(op, float) else {
                    assert!(float, "every integer operator has a typed form");
                    continue;
                };
                let ty = if float { Ty::F64 } else { Ty::I64 };
                for a in EDGES {
                    for b in EDGES {
                        let (Some((x, tx)), Some((y, ty_b))) = (data_word(a), data_word(b)) else {
                            continue;
                        };
                        if tx != ty || ty_b != ty {
                            continue;
                        }
                        let want = eval_binop(op, a, b);
                        let got = tbin(top, x, y).map(|w| decode(top.result(), w));
                        match (&got, &want) {
                            (Ok(g), Ok(w)) => assert!(same_word(*g, *w), "{a} {op} {b}"),
                            _ => assert_eq!(got, want, "{a} {op} {b}"),
                        }
                        assert_eq!(top.class(), UopClass::for_binop(op, a, b), "{op}");
                    }
                }
            }
        }
    }

    /// Likewise for the unary operators over each data type.
    #[test]
    fn typed_unops_equal_the_generic_pair() {
        use UnOp::*;
        for op in [Neg, Not, BitNot, IsCtrl, I2F, F2I] {
            for a in EDGES {
                let Some((w, ty)) = data_word(a) else {
                    continue;
                };
                let want = eval_unop(op, a).expect("no typed unary operator traps");
                let got = decode(crate::bytecode::unop_result(op, ty), tunop(op, ty, w));
                assert!(same_word(got, want), "{op} {a}: {got} vs {want}");
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
