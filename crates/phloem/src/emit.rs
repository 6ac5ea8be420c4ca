//! Emission: materializing one stage program per pipeline stage from the
//! decoupling [`Plan`].
//!
//! Every stage receives a copy of the control skeleton it participates
//! in. Atoms it owns are emitted verbatim (followed by enqueues of values
//! consumers need); atoms owned upstream become dequeues (or local
//! recomputation). Loops are emitted per their planned mode: `Bounds`
//! (local or dequeued bounds), `Cv` (`while (true)` + control values), or
//! `Transparent` (skipped entirely — pass 6). End-of-loop `NEXT` CVs and
//! the final `DONE` are enqueued by the stage producing the consumer's
//! carrier queue.

use crate::decouple::{next_tag, LoopMode, Node, Plan, DONE};
use crate::options::CompileError;
use phloem_ir::{
    BinOp, BranchId, CtrlHandler, Expr, Function, HandlerEnd, QueueId, StageProgram, Stmt, Ty,
    UnOp, VarDecl, VarId,
};

pub(crate) struct Emitter<'p> {
    plan: &'p Plan<'p>,
    s: u32,
    /// Emitted-loop stack: (source loop tag, mode).
    loop_stack: Vec<(usize, LoopMode)>,
    /// Source-loop stack: (tag, emitted?).
    src_stack: Vec<(usize, bool)>,
    /// Control-value handlers (pass 5) registered at carrier dequeues.
    handlers: Vec<CtrlHandler>,
    /// Nonzero while emitting the branches of a loop-exit test: its
    /// `break`s are loop skeleton and every stage that emits the loop
    /// must replicate them, owner or not.
    exit_depth: usize,
    /// Scratch variable for inline control-tag checks.
    ctrl_tmp: Option<VarId>,
    extra_vars: Vec<VarDecl>,
    base_vars: usize,
    next_branch: u32,
    error: Option<CompileError>,
}

impl<'p> Emitter<'p> {
    fn fresh_branch(&mut self) -> BranchId {
        let b = BranchId(self.next_branch);
        self.next_branch += 1;
        b
    }

    fn ctrl_tmp(&mut self) -> VarId {
        if let Some(v) = self.ctrl_tmp {
            return v;
        }
        let v = VarId((self.base_vars + self.extra_vars.len()) as u32);
        self.extra_vars.push(VarDecl {
            name: "_cv".into(),
            ty: Ty::I64,
        });
        self.ctrl_tmp = Some(v);
        v
    }

    fn is_carrier(&self, pos: usize) -> bool {
        self.plan.done_carrier[self.s as usize] == Some(pos)
            || (0..self.plan.shape.ntags).any(|tag| self.plan.carries(tag, self.s, pos))
    }

    /// Is the dequeue of `pos` at emitted loop level `i` a CV dispatch
    /// target: a CV loop this queue carries that expects a NEXT?
    fn ctrl_target(&self, i: usize, pos: usize) -> Option<usize> {
        let (tag, mode) = self.loop_stack[i];
        (mode == LoopMode::Cv
            && self.plan.carries(tag, self.s, pos)
            && self.plan.need_next[(tag, self.s)])
            .then_some(tag)
    }

    fn emit_ctrl_check(&mut self, x: VarId, pos: usize, out: &mut Vec<Stmt>) {
        // if (is_control(x)) { t = ctrl_tag(x); nested tag dispatch }
        let all = self.loop_stack.len() as u32;
        let t = self.ctrl_tmp();
        let mut inner: Vec<Stmt> = vec![Stmt::Break { levels: all }];
        // Outermost target first, so the innermost test ends up outside.
        for i in 0..self.loop_stack.len() {
            let Some(tag) = self.ctrl_target(i, pos) else {
                continue;
            };
            let id = self.fresh_branch();
            inner = vec![Stmt::If {
                id,
                cond: Expr::bin(BinOp::Eq, Expr::var(t), Expr::i64(next_tag(tag) as i64)),
                then_body: vec![Stmt::Break {
                    levels: all - i as u32,
                }],
                else_body: inner,
            }];
        }
        let mut body = vec![Stmt::Assign {
            var: t,
            expr: Expr::un(UnOp::CtrlTag, Expr::var(x)),
        }];
        body.extend(inner);
        let id = self.fresh_branch();
        out.push(Stmt::If {
            id,
            cond: Expr::is_ctrl(Expr::var(x)),
            then_body: body,
            else_body: vec![],
        });
    }

    /// Registers the handlers (pass 5) of a carrier dequeue of `pos`
    /// from queue `q`: one per carried NEXT, outermost first, then DONE.
    fn add_handlers(&mut self, q: QueueId, pos: usize) {
        let depth = self.loop_stack.len() as u32;
        let handler = |ctrl: u32, levels: u32| CtrlHandler {
            queue: q,
            ctrl: Some(ctrl),
            bind: None,
            body: vec![],
            end: HandlerEnd::BreakLoops(levels),
        };
        for i in 0..self.loop_stack.len() {
            if let Some(tag) = self.ctrl_target(i, pos) {
                self.handlers.push(handler(next_tag(tag), depth - i as u32));
            }
        }
        if self.plan.done_carrier[self.s as usize] == Some(pos) {
            self.handlers.push(handler(DONE, depth));
        }
    }

    fn innermost_emitted_is_bounds(&self) -> bool {
        self.loop_stack
            .last()
            .map(|(_, m)| *m == LoopMode::Bounds)
            .unwrap_or(false)
    }

    fn emit_seq(&mut self, nodes: &[Node], out: &mut Vec<Stmt>) {
        for n in nodes {
            match n {
                Node::Atom { stmt, def, pos } => {
                    self.emit_atom(stmt, self.plan.stage[*pos], *def, *pos, out)
                }
                Node::If {
                    tag,
                    id,
                    cond,
                    then,
                    els,
                    exit,
                } => {
                    if *exit {
                        // Loop-exit skeleton: emitted only in Bounds mode.
                        if self.innermost_emitted_is_bounds() {
                            self.exit_depth += 1;
                            let mut tb = Vec::new();
                            self.emit_seq(then, &mut tb);
                            let mut eb = Vec::new();
                            self.emit_seq(els, &mut eb);
                            self.exit_depth -= 1;
                            out.push(Stmt::If {
                                id: *id,
                                cond: cond.clone(),
                                then_body: tb,
                                else_body: eb,
                            });
                        } else if crate::decouple::node_present(self.plan, n, self.s) {
                            self.error.get_or_insert(CompileError::Unsupported(
                                "stage-owned work inside a loop-exit test of a \
                                 control-value loop"
                                    .into(),
                            ));
                        }
                        continue;
                    }
                    if !crate::decouple::node_present(self.plan, n, self.s) {
                        continue;
                    }
                    if self.plan.dropped[(*tag, self.s)] {
                        self.emit_seq(then, out);
                        continue;
                    }
                    let mut tb = Vec::new();
                    self.emit_seq(then, &mut tb);
                    let mut eb = Vec::new();
                    self.emit_seq(els, &mut eb);
                    if tb.is_empty() && eb.is_empty() {
                        continue;
                    }
                    out.push(Stmt::If {
                        id: *id,
                        cond: cond.clone(),
                        then_body: tb,
                        else_body: eb,
                    });
                }
                Node::For {
                    tag,
                    id,
                    var,
                    lo,
                    hi,
                    body,
                } => {
                    self.emit_loop(n, *tag, *id, Some((var, lo, hi)), body, out);
                }
                Node::While { tag, id, body } => {
                    self.emit_loop(n, *tag, *id, None, body, out);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_loop(
        &mut self,
        node: &Node,
        tag: usize,
        id: BranchId,
        header: Option<(&VarId, &Expr, &Expr)>,
        body: &[Node],
        out: &mut Vec<Stmt>,
    ) {
        if !crate::decouple::node_present(self.plan, node, self.s) {
            return;
        }
        let mode = self.plan.mode(tag, self.s).unwrap_or(LoopMode::Bounds);
        match mode {
            LoopMode::Transparent => {
                self.src_stack.push((tag, false));
                self.emit_seq(body, out);
                self.src_stack.pop();
            }
            LoopMode::Bounds => {
                self.loop_stack.push((tag, LoopMode::Bounds));
                self.src_stack.push((tag, true));
                let mut b = Vec::new();
                self.emit_seq(body, &mut b);
                self.src_stack.pop();
                self.loop_stack.pop();
                match header {
                    Some((var, lo, hi)) => out.push(Stmt::For {
                        id,
                        var: *var,
                        start: lo.clone(),
                        end: hi.clone(),
                        body: b,
                    }),
                    None => out.push(Stmt::While {
                        id,
                        cond: Expr::i64(1),
                        body: b,
                    }),
                }
            }
            LoopMode::Cv => {
                self.loop_stack.push((tag, LoopMode::Cv));
                self.src_stack.push((tag, true));
                let mut b = Vec::new();
                self.emit_seq(body, &mut b);
                self.src_stack.pop();
                self.loop_stack.pop();
                out.push(Stmt::While {
                    id,
                    cond: Expr::i64(1),
                    body: b,
                });
            }
        }
        // Producer duties: signal this loop's end to consumers that need
        // its boundary.
        for &(pos, consumer) in &self.plan.next_duties[(tag, self.s)] {
            out.push(Stmt::EnqCtrl {
                queue: self.plan.queue(pos, consumer),
                ctrl: next_tag(tag),
            });
        }
    }

    fn emit_atom(
        &mut self,
        stmt: &Stmt,
        stage: u32,
        def: Option<VarId>,
        pos: usize,
        out: &mut Vec<Stmt>,
    ) {
        if let Stmt::Break { levels } = stmt {
            // Inside a loop-exit test the break is skeleton, replicated
            // by every stage emitting the loop; elsewhere it belongs to
            // its owner alone.
            if stage != self.s && self.exit_depth == 0 {
                return;
            }
            // Translate source loop levels to emitted loop levels.
            if self.innermost_emitted_is_bounds() {
                let src_len = self.src_stack.len();
                if (*levels as usize) > src_len {
                    self.error
                        .get_or_insert(CompileError::Internal("break beyond loop stack".into()));
                    return;
                }
                let slice = &self.src_stack[src_len - *levels as usize..];
                if !slice.last().map(|(_, e)| *e).unwrap_or(false) {
                    self.error.get_or_insert(CompileError::Unsupported(
                        "break targets a loop this stage does not emit".into(),
                    ));
                    return;
                }
                let emitted = slice.iter().filter(|(_, e)| *e).count() as u32;
                out.push(Stmt::Break { levels: emitted });
            }
            return;
        }
        if stage == self.s {
            out.push(stmt.clone());
            if let Some(v) = def {
                for consumer in 0..self.plan.nstages {
                    if let Some(queue) = self.plan.comm[(pos, consumer)] {
                        out.push(Stmt::Enq {
                            queue,
                            value: Expr::var(v),
                        });
                    }
                }
            }
            return;
        }
        let Some(v) = def else { return };
        if self.plan.is_comm(pos, self.s) {
            let q = self.plan.queue(pos, self.s);
            out.push(Stmt::Deq { var: v, queue: q });
            if self.is_carrier(pos) {
                if self.plan.passes.use_handlers {
                    self.add_handlers(q, pos);
                } else {
                    self.emit_ctrl_check(v, pos, out);
                }
            }
        } else if self.plan.recomp[(pos, self.s)] {
            if let Some(e) = self.plan.def_expr[pos] {
                out.push(Stmt::Assign {
                    var: v,
                    expr: e.clone(),
                });
            }
        }
    }
}

/// Emits the stage program for stage `s` of the function whose
/// declarations are `base` and whose branch ids end below
/// `next_branch`. Returns `None` if the stage has no content (it will
/// be compacted away).
pub(crate) fn emit_stage(
    plan: &Plan,
    tree: &[Node],
    base: &Function,
    next_branch: u32,
    s: u32,
) -> Result<Option<StageProgram>, CompileError> {
    let mut em = Emitter {
        plan,
        s,
        loop_stack: Vec::new(),
        src_stack: Vec::new(),
        handlers: Vec::new(),
        exit_depth: 0,
        ctrl_tmp: None,
        extra_vars: Vec::new(),
        base_vars: base.vars.len(),
        next_branch,
        error: None,
    };
    let mut body = Vec::new();
    em.emit_seq(tree, &mut body);
    if let Some(e) = em.error.take() {
        return Err(e);
    }

    // Trailing DONE duties.
    for &(pos, consumer) in &plan.done_duties[s as usize] {
        body.push(Stmt::EnqCtrl {
            queue: plan.queue(pos, consumer),
            ctrl: DONE,
        });
    }
    if body.is_empty() {
        return Ok(None);
    }

    let mut vars = Vec::with_capacity(base.vars.len() + em.extra_vars.len());
    vars.extend_from_slice(&base.vars);
    vars.extend(em.extra_vars);
    let func = Function {
        name: format!("{}:s{s}", base.name),
        vars,
        arrays: base.arrays.clone(),
        params: base.params.clone(),
        body,
    };
    Ok(Some(StageProgram {
        func,
        handlers: em.handlers,
    }))
}
