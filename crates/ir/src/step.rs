//! The resumable stepping interpreter.
//!
//! [`StepInterp`] walks one stage program, executing one *atom* (a simple
//! statement or one control-flow decision) per [`StepInterp::step`] call
//! against a [`World`]. Queue operations that cannot proceed return
//! [`StepResult::Blocked`] without consuming the atom, so a scheduler can
//! interleave many threads and retry blocked ones — exactly how the
//! Pipette SMT core time-multiplexes stages.
//!
//! The interpreter carries per-variable *readiness times* alongside
//! values: a timing [`World`] returns completion times for each micro-op
//! and the interpreter threads them through the dataflow, which is how
//! the cycle-level model sees true dependence chains (e.g. pointer
//! chases) without a separate register-renaming model.

use crate::expr::{Expr, QueueId, VarId};
use crate::func::Function;
use crate::stmt::{CtrlHandler, HandlerEnd, Stmt};
use crate::value::{eval_binop, eval_unop, Trap, Value};
use crate::world::{BlockReason, StepResult, Tid, Time, UopClass, World};

/// A stage program: a function body plus its registered control-value
/// handlers.
#[derive(Clone, Copy, Debug)]
pub struct StageSpec<'p> {
    /// The stage's code.
    pub func: &'p Function,
    /// Control-value handlers registered for this stage.
    pub handlers: &'p [CtrlHandler],
}

enum Frame<'p> {
    Seq {
        stmts: &'p [Stmt],
        idx: usize,
    },
    For {
        stmt: &'p Stmt,
        cur: i64,
        end: i64,
        cur_time: Time,
        end_time: Time,
        entered: bool,
    },
    While {
        stmt: &'p Stmt,
    },
    /// Marker pushed below a handler body; applies `end` when reached.
    HandlerEnd {
        end: HandlerEnd,
    },
}

/// Resumable interpreter for one stage program.
pub struct StepInterp<'p> {
    stage: StageSpec<'p>,
    tid: Tid,
    env: Vec<Value>,
    env_time: Vec<Time>,
    flow_time: Time,
    frames: Vec<Frame<'p>>,
    finished: bool,
    pending_enq: Option<(Value, Time)>,
    pending_enq_sel: Option<(Value, Time, QueueId)>,
    steps: u64,
    budget: u64,
}

impl<'p> StepInterp<'p> {
    /// Creates an interpreter for `stage` running as hardware thread
    /// `tid`, with the given parameter bindings.
    ///
    /// # Panics
    /// Panics if a parameter id is out of range (call
    /// [`Function::validate`] first).
    pub fn new(stage: StageSpec<'p>, tid: Tid, params: &[(VarId, Value)]) -> StepInterp<'p> {
        let nvars = stage.func.vars.len();
        let mut env = Vec::with_capacity(nvars);
        for decl in &stage.func.vars {
            env.push(decl.ty.zero());
        }
        for (var, val) in params {
            env[var.0 as usize] = *val;
        }
        let frames = vec![Frame::Seq {
            stmts: &stage.func.body,
            idx: 0,
        }];
        StepInterp {
            stage,
            tid,
            env,
            env_time: vec![0; nvars],
            flow_time: 0,
            frames,
            finished: stage.func.body.is_empty(),
            pending_enq: None,
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
        &self.stage.func.name
    }

    /// Current value of a variable (for reading scalar results).
    pub fn var(&self, v: VarId) -> Value {
        self.env[v.0 as usize]
    }

    /// The thread's control-flow readiness time (diagnostics).
    pub fn flow_time(&self) -> Time {
        self.flow_time
    }

    fn read_var(&self, v: VarId) -> Result<(Value, Time), Trap> {
        let i = v.0 as usize;
        if i >= self.env.len() {
            return Err(Trap::BadId(format!("var {i}")));
        }
        Ok((self.env[i], self.env_time[i].max(self.flow_time)))
    }

    fn write_var(&mut self, v: VarId, val: Value, t: Time) {
        let i = v.0 as usize;
        self.env[i] = val;
        self.env_time[i] = t;
    }

    fn eval<W: World + ?Sized>(&mut self, world: &mut W, e: &Expr) -> Result<(Value, Time), Trap> {
        match e {
            Expr::Const(v) => Ok((*v, self.flow_time)),
            Expr::Var(v) => self.read_var(*v),
            Expr::Unary(op, a) => {
                let (va, ta) = self.eval(world, a)?;
                let res = eval_unop(*op, va)?;
                let class = if matches!(va, Value::F64(_)) {
                    UopClass::FpAlu
                } else {
                    UopClass::IntAlu
                };
                let t = world.uop(self.tid, class, ta);
                Ok((res, t))
            }
            Expr::Binary(op, a, b) => {
                let (va, ta) = self.eval(world, a)?;
                let (vb, tb) = self.eval(world, b)?;
                let res = eval_binop(*op, va, vb)?;
                let class = UopClass::for_binop(*op, va, vb);
                let t = world.uop(self.tid, class, ta.max(tb));
                Ok((res, t))
            }
            Expr::Load { array, index, .. } => {
                let (vi, ti) = self.eval(world, index)?;
                let idx = vi.as_i64()?;
                world.load(self.tid, *array, idx, ti)
            }
        }
    }

    fn find_handler(&self, q: QueueId, tag: u32) -> Option<&'p CtrlHandler> {
        // Exact tag match wins over a wildcard handler.
        self.stage
            .handlers
            .iter()
            .find(|h| h.queue == q && h.ctrl == Some(tag))
            .or_else(|| {
                self.stage
                    .handlers
                    .iter()
                    .find(|h| h.queue == q && h.ctrl.is_none())
            })
    }

    /// Pops `levels` loop frames (and everything above them).
    ///
    /// # Errors
    /// Traps if there are not enough loop frames, or a handler boundary
    /// is crossed.
    fn pop_loops(&mut self, levels: u32) -> Result<(), Trap> {
        let mut remaining = levels;
        while remaining > 0 {
            match self.frames.pop() {
                Some(Frame::For { .. }) | Some(Frame::While { .. }) => remaining -= 1,
                Some(Frame::Seq { .. }) => {}
                Some(Frame::HandlerEnd { .. }) | None => {
                    return Err(Trap::Malformed(format!(
                        "break {levels} crosses a handler or function boundary"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Executes one atom. See [`StepResult`] for outcomes.
    ///
    /// # Errors
    /// Propagates runtime traps (bounds, control-value misuse, budget).
    pub fn step<W: World + ?Sized>(&mut self, world: &mut W) -> Result<StepResult, Trap> {
        if self.finished {
            return Ok(StepResult::Finished);
        }
        self.steps += 1;
        if self.steps > self.budget {
            return Err(Trap::OpBudgetExceeded(self.budget));
        }
        loop {
            let Some(top) = self.frames.len().checked_sub(1) else {
                self.finished = true;
                return Ok(StepResult::Finished);
            };
            match &self.frames[top] {
                Frame::Seq { stmts, idx } => {
                    let (stmts, idx) = (*stmts, *idx);
                    if idx >= stmts.len() {
                        self.frames.pop();
                        continue;
                    }
                    let stmt = &stmts[idx];
                    match stmt {
                        Stmt::If {
                            id,
                            cond,
                            then_body,
                            else_body,
                        } => {
                            self.advance_seq(top);
                            let (v, t) = self.eval(world, cond)?;
                            let taken = v.as_bool()?;
                            let resume = world.branch(self.tid, *id, taken, t);
                            self.flow_time = self.flow_time.max(resume);
                            let body: &'p [Stmt] = if taken { then_body } else { else_body };
                            if !body.is_empty() {
                                self.frames.push(Frame::Seq {
                                    stmts: body,
                                    idx: 0,
                                });
                            }
                            return Ok(StepResult::Progress);
                        }
                        Stmt::For { start, end, .. } => {
                            self.advance_seq(top);
                            let (vs, ts) = self.eval(world, start)?;
                            let (ve, te) = self.eval(world, end)?;
                            self.frames.push(Frame::For {
                                stmt,
                                cur: vs.as_i64()?,
                                end: ve.as_i64()?,
                                cur_time: ts,
                                end_time: te,
                                entered: false,
                            });
                            continue;
                        }
                        Stmt::While { .. } => {
                            self.advance_seq(top);
                            self.frames.push(Frame::While { stmt });
                            continue;
                        }
                        Stmt::Break { levels } => {
                            self.pop_loops(*levels)?;
                            return Ok(StepResult::Progress);
                        }
                        atom => {
                            return match self.exec_atom(world, atom)? {
                                AtomOutcome::Done => {
                                    self.advance_seq(top);
                                    Ok(StepResult::Progress)
                                }
                                AtomOutcome::Blocked(b) => {
                                    // A blocked attempt is not a committed
                                    // atom: un-count it, or `steps` would
                                    // depend on how often the scheduler
                                    // re-polls a blocked thread.
                                    self.steps -= 1;
                                    Ok(StepResult::Blocked(b))
                                }
                                AtomOutcome::Dispatched => Ok(StepResult::Progress),
                            };
                        }
                    }
                }
                Frame::While { stmt } => {
                    let stmt: &'p Stmt = stmt;
                    let Stmt::While { id, cond, body } = stmt else {
                        unreachable!("While frame holds a While stmt");
                    };
                    let (v, t) = self.eval(world, cond)?;
                    let taken = v.as_bool()?;
                    let resume = world.branch(self.tid, *id, taken, t);
                    self.flow_time = self.flow_time.max(resume);
                    if taken {
                        self.frames.push(Frame::Seq {
                            stmts: body,
                            idx: 0,
                        });
                    } else {
                        self.frames.pop();
                    }
                    return Ok(StepResult::Progress);
                }
                Frame::For {
                    stmt,
                    cur,
                    end,
                    cur_time,
                    end_time,
                    entered,
                } => {
                    let stmt: &'p Stmt = stmt;
                    let (mut cur, end, mut cur_time, end_time, entered) =
                        (*cur, *end, *cur_time, *end_time, *entered);
                    let Stmt::For { id, var, body, .. } = stmt else {
                        unreachable!("For frame holds a For stmt");
                    };
                    if entered {
                        // Increment: a 1-cycle loop-carried dependence.
                        let t = world.uop(self.tid, UopClass::IntAlu, cur_time.max(self.flow_time));
                        cur += 1;
                        cur_time = t;
                    }
                    // Exit test + branch.
                    let t_cmp = world.uop(
                        self.tid,
                        UopClass::IntAlu,
                        cur_time.max(end_time).max(self.flow_time),
                    );
                    let taken = cur < end;
                    let resume = world.branch(self.tid, *id, taken, t_cmp);
                    self.flow_time = self.flow_time.max(resume);
                    if taken {
                        self.write_var(*var, Value::I64(cur), cur_time.max(self.flow_time));
                        if let Some(Frame::For {
                            cur: c,
                            cur_time: ct,
                            entered: e,
                            ..
                        }) = self.frames.last_mut()
                        {
                            *c = cur;
                            *ct = cur_time;
                            *e = true;
                        }
                        self.frames.push(Frame::Seq {
                            stmts: body,
                            idx: 0,
                        });
                    } else {
                        self.frames.pop();
                    }
                    return Ok(StepResult::Progress);
                }
                Frame::HandlerEnd { end } => {
                    let end = *end;
                    self.frames.pop();
                    match end {
                        HandlerEnd::Resume => {}
                        HandlerEnd::BreakLoops(n) => self.pop_loops(n)?,
                        HandlerEnd::FinishStage => {
                            self.frames.clear();
                            self.finished = true;
                            return Ok(StepResult::Finished);
                        }
                        HandlerEnd::FinishWhen(var, target) => {
                            let (v, _) = self.read_var(var)?;
                            if v.as_i64()? >= target {
                                self.frames.clear();
                                self.finished = true;
                                return Ok(StepResult::Finished);
                            }
                        }
                        HandlerEnd::BreakWhen(var, target, levels) => {
                            let (v, _) = self.read_var(var)?;
                            if v.as_i64()? >= target {
                                self.pop_loops(levels)?;
                            }
                        }
                    }
                    return Ok(StepResult::Progress);
                }
            }
        }
    }

    /// Runs up to `max` progress-making steps, stopping early if the
    /// thread blocks or finishes. Returns the number of atoms executed
    /// and the stop condition: [`StepResult::Finished`], a queue
    /// [`StepResult::Blocked`], or `Blocked(BlockReason::Budget)` when
    /// the slice was exhausted with the thread still runnable.
    ///
    /// This is the scheduler's time-slice primitive: the sequence of
    /// [`World`] calls is exactly what `max` consecutive [`Self::step`]
    /// calls would make, so timing-model behaviour is identical.
    ///
    /// # Errors
    /// Propagates runtime traps (bounds, control-value misuse, budget).
    pub fn run_slice<W: World + ?Sized>(
        &mut self,
        world: &mut W,
        max: u32,
    ) -> Result<(u32, StepResult), Trap> {
        let mut n = 0;
        loop {
            match self.step(world)? {
                StepResult::Progress => {
                    n += 1;
                    if n >= max {
                        return Ok((n, StepResult::Blocked(BlockReason::Budget)));
                    }
                }
                StepResult::Blocked(b) => return Ok((n, StepResult::Blocked(b))),
                StepResult::Finished => return Ok((n, StepResult::Finished)),
            }
        }
    }

    fn advance_seq(&mut self, frame_idx: usize) {
        if let Frame::Seq { idx, .. } = &mut self.frames[frame_idx] {
            *idx += 1;
        }
    }

    fn exec_atom<W: World + ?Sized>(
        &mut self,
        world: &mut W,
        stmt: &'p Stmt,
    ) -> Result<AtomOutcome, Trap> {
        match stmt {
            Stmt::Assign { var, expr } => {
                let (v, t) = self.eval(world, expr)?;
                self.write_var(*var, v, t);
                Ok(AtomOutcome::Done)
            }
            Stmt::Store {
                array,
                index,
                value,
            } => {
                let (vi, ti) = self.eval(world, index)?;
                let (vv, tv) = self.eval(world, value)?;
                world.store(self.tid, *array, vi.as_i64()?, vv, ti.max(tv))?;
                Ok(AtomOutcome::Done)
            }
            Stmt::AtomicRmw {
                op,
                array,
                index,
                value,
                old,
            } => {
                let (vi, ti) = self.eval(world, index)?;
                let (vv, tv) = self.eval(world, value)?;
                let (prev, t) =
                    world.atomic_rmw(self.tid, *op, *array, vi.as_i64()?, vv, ti.max(tv))?;
                if let Some(o) = old {
                    self.write_var(*o, prev, t);
                }
                Ok(AtomOutcome::Done)
            }
            Stmt::Enq { queue, value } => {
                let (v, t) = match self.pending_enq.take() {
                    Some(p) => p,
                    None => self.eval(world, value)?,
                };
                match world.try_enq(self.tid, *queue, v, t)? {
                    Some(_t_done) => Ok(AtomOutcome::Done),
                    None => {
                        self.pending_enq = Some((v, t));
                        Ok(AtomOutcome::Blocked(BlockReason::QueueFull(*queue)))
                    }
                }
            }
            Stmt::EnqSel {
                queues,
                select,
                value,
            } => {
                let (v, t, qsel) = match self.pending_enq_sel.take() {
                    Some(p) => p,
                    None => {
                        let (sv, st) = self.eval(world, select)?;
                        let (v, vt) = self.eval(world, value)?;
                        let n = queues.len() as i64;
                        let idx = sv.as_i64()?.rem_euclid(n) as usize;
                        // Selecting the queue costs one ALU op.
                        let t_sel = world.uop(self.tid, UopClass::IntAlu, st);
                        (v, vt.max(t_sel), queues[idx])
                    }
                };
                match world.try_enq(self.tid, qsel, v, t)? {
                    Some(_) => Ok(AtomOutcome::Done),
                    None => {
                        self.pending_enq_sel = Some((v, t, qsel));
                        Ok(AtomOutcome::Blocked(BlockReason::QueueFull(qsel)))
                    }
                }
            }
            Stmt::EnqCtrl { queue, ctrl } => {
                match world.try_enq(self.tid, *queue, Value::Ctrl(*ctrl), self.flow_time)? {
                    Some(_) => Ok(AtomOutcome::Done),
                    None => Ok(AtomOutcome::Blocked(BlockReason::QueueFull(*queue))),
                }
            }
            Stmt::Deq { var, queue } => match world.try_deq(self.tid, *queue, self.flow_time)? {
                None => Ok(AtomOutcome::Blocked(BlockReason::QueueEmpty(*queue))),
                Some((w, t)) => {
                    if let Value::Ctrl(tag) = w {
                        if let Some(h) = self.find_handler(*queue, tag) {
                            let t_jump = world.uop(self.tid, UopClass::CtrlJump, t);
                            world.note_ctrl_handler(self.tid, *queue, tag, t_jump);
                            self.flow_time = self.flow_time.max(t_jump);
                            if let Some(bind) = h.bind {
                                self.write_var(bind, w, t_jump);
                            }
                            self.frames.push(Frame::HandlerEnd { end: h.end });
                            if !h.body.is_empty() {
                                self.frames.push(Frame::Seq {
                                    stmts: &h.body,
                                    idx: 0,
                                });
                            }
                            return Ok(AtomOutcome::Dispatched);
                        }
                    }
                    self.write_var(*var, w, t);
                    Ok(AtomOutcome::Done)
                }
            },
            other => Err(Trap::Malformed(format!(
                "compound statement in atom position: {other:?}"
            ))),
        }
    }
}

enum AtomOutcome {
    Done,
    Blocked(BlockReason),
    Dispatched,
}

/// Common interface over the stage-program execution engines
/// ([`StepInterp`] and [`crate::flat::FlatInterp`]): exactly the surface
/// a scheduler needs to time-multiplex stages.
///
/// Both implementations guarantee the same [`World`] call sequence for
/// the same program, so a scheduler generic over `StageExec` produces
/// bit-identical simulated timing with either engine.
pub trait StageExec {
    /// Executes one atom. See [`StepResult`] for outcomes.
    ///
    /// # Errors
    /// Propagates runtime traps (bounds, control-value misuse, budget).
    fn step<W: World + ?Sized>(&mut self, world: &mut W) -> Result<StepResult, Trap>;

    /// True once the stage program has terminated.
    fn is_finished(&self) -> bool;

    /// Name of the stage (diagnostics).
    fn name(&self) -> &str;

    /// Atoms executed so far. Both engines count the identical atom
    /// sequence, so this is an engine-independent measure of how far a
    /// stage program has run — usable for deterministic fault triggers
    /// and diagnostics snapshots.
    fn steps(&self) -> u64;

    /// Runs up to `max` progress-making steps, stopping early if the
    /// thread blocks or finishes; returns the number of atoms executed
    /// and the stop condition (`Blocked(BlockReason::Budget)` when the
    /// slice was exhausted with the thread still runnable). This is the
    /// scheduler's time-slice primitive.
    ///
    /// # Errors
    /// Propagates runtime traps (bounds, control-value misuse, budget).
    fn run_slice<W: World + ?Sized>(
        &mut self,
        world: &mut W,
        max: u32,
    ) -> Result<(u32, StepResult), Trap> {
        let mut n = 0;
        loop {
            match self.step(world)? {
                StepResult::Progress => {
                    n += 1;
                    if n >= max {
                        return Ok((n, StepResult::Blocked(BlockReason::Budget)));
                    }
                }
                StepResult::Blocked(b) => return Ok((n, StepResult::Blocked(b))),
                StepResult::Finished => return Ok((n, StepResult::Finished)),
            }
        }
    }
}

impl StageExec for StepInterp<'_> {
    fn step<W: World + ?Sized>(&mut self, world: &mut W) -> Result<StepResult, Trap> {
        StepInterp::step(self, world)
    }

    fn is_finished(&self) -> bool {
        StepInterp::is_finished(self)
    }

    fn name(&self) -> &str {
        StepInterp::name(self)
    }

    fn steps(&self) -> u64 {
        StepInterp::steps(self)
    }
}

impl StageExec for crate::flat::FlatInterp<'_> {
    fn step<W: World + ?Sized>(&mut self, world: &mut W) -> Result<StepResult, Trap> {
        crate::flat::FlatInterp::step(self, world)
    }

    fn run_slice<W: World + ?Sized>(
        &mut self,
        world: &mut W,
        max: u32,
    ) -> Result<(u32, StepResult), Trap> {
        // The fused dispatch loop: locals across the whole slice.
        crate::flat::FlatInterp::run_slice(self, world, max)
    }

    fn is_finished(&self) -> bool {
        crate::flat::FlatInterp::is_finished(self)
    }

    fn name(&self) -> &str {
        crate::flat::FlatInterp::name(self)
    }

    fn steps(&self) -> u64 {
        crate::flat::FlatInterp::steps(self)
    }
}

/// Resolves named parameter bindings against a function's declarations.
///
/// Unknown names are ignored (a pipeline's stages each keep only the
/// parameters they use), and only the function's declared params are
/// bound.
pub fn bind_params(func: &Function, named: &[(&str, Value)]) -> Vec<(VarId, Value)> {
    let mut out = Vec::new();
    for p in &func.params {
        let name = &func.vars[p.0 as usize].name;
        if let Some((_, v)) = named.iter().find(|(n, _)| *n == &**name) {
            out.push((*p, *v));
        }
    }
    out
}
