//! Stage clean-up: fold the normaliser's scaffolding back out of every
//! compiled stage.
//!
//! [`normalize`](crate::normalize) splits every expression into
//! single-use temporaries and rotates every `while (c)` into
//! `while (1) { if (!c) break; … }`, so that any two operations can land
//! in different stages. Once the stages are cut, most of that
//! scaffolding crosses no cut, and each statement left of it costs an
//! interpreted atom. [`fold_stages`] undoes it where no cut uses it, the
//! clean-up an ordinary compiler gives the paper's generated stages:
//!
//! * **Fold a temporary into its one use.** `t = e` is substituted into
//!   the next statement when `t` has exactly one definition and one use
//!   in the stage and that use is in the next statement's own
//!   expression: an assignment's right-hand side, a store's or atomic's
//!   index or value, an `if` condition, `for` bounds, or an `enq`/
//!   `enq_sel` operand. Never a `while` condition (re-evaluated every
//!   iteration) and never a nested body. The statement must evaluate no
//!   micro-op before it reads `t`, so the stage's loads, stores and
//!   queue operations keep their order. Folds chain: once `t2 = f(t1)`
//!   has folded into its use, a `t1 = e` before it may fold there too.
//! * **Rotate the loop back.** `while (1) { if (!(c)) break 1; rest }`
//!   becomes `while (c) { rest }` under the `if`'s branch id, when that
//!   `if` is the body's first statement and has no `else`.
//!
//! Neither rewrite adds or removes a loop, so break levels and handler
//! `BreakLoops` targets are unchanged. Temporaries are the variables the
//! normaliser and the emitter declared: ids at or above the kernel's own
//! variable count. Definitions and uses are counted in one walk per
//! stage into one buffer shared by every stage; the rewrite moves
//! expressions and compacts statement lists in place, so the pass
//! allocates nothing per statement. Reference-accelerator stages are
//! left as generated.

use phloem_ir::{BranchId, Expr, HandlerEnd, Pipeline, StageKind, Stmt, UnOp, VarId};
use std::mem;

/// Definitions and uses of one temporary within one stage.
#[derive(Clone, Copy, Default)]
struct Count {
    defs: u32,
    uses: u32,
}

/// Folds every compute stage of `pipe`; temporaries are the variables
/// with ids `first_temp..`.
pub(crate) fn fold_stages(pipe: &mut Pipeline, first_temp: usize) {
    let mut counts = Vec::new();
    for stage in &mut pipe.stages {
        if !matches!(stage.kind, StageKind::Compute) {
            continue;
        }
        let program = &mut stage.program;
        counts.clear();
        counts.resize(
            program.func.vars.len().saturating_sub(first_temp),
            Count::default(),
        );
        let mut temps = Temps {
            first: first_temp,
            counts: &mut counts,
        };
        temps.note_all(&program.func.body);
        for h in &program.handlers {
            temps.note_all(&h.body);
            if let Some(b) = h.bind {
                temps.bump(b, true);
            }
            if let HandlerEnd::FinishWhen(v, _) | HandlerEnd::BreakWhen(v, _, _) = h.end {
                temps.bump(v, false);
            }
        }
        fold_body(&mut program.func.body, &temps);
    }
}

/// One stage's temporary counts, indexed from the first temporary.
struct Temps<'c> {
    first: usize,
    counts: &'c mut [Count],
}

impl Temps<'_> {
    /// `v`'s slot in `counts`, if it is a temporary.
    fn slot(&self, v: VarId) -> Option<usize> {
        let i = (v.0 as usize).checked_sub(self.first)?;
        (i < self.counts.len()).then_some(i)
    }

    fn bump(&mut self, v: VarId, def: bool) {
        if let Some(i) = self.slot(v) {
            let c = &mut self.counts[i];
            if def {
                c.defs += 1;
            } else {
                c.uses += 1;
            }
        }
    }

    /// Counts what every statement of `body`, nested ones included,
    /// reads and writes.
    fn note_all(&mut self, body: &[Stmt]) {
        for s in body {
            s.for_each(&mut |s| {
                s.for_each_header_read(&mut |v| self.bump(v, false));
                if let Some(w) = s.write() {
                    self.bump(w, true);
                }
            });
        }
    }

    /// Whether `v` is a temporary defined once and used once.
    fn single_use(&self, v: VarId) -> bool {
        self.slot(v)
            .is_some_and(|i| self.counts[i].defs == 1 && self.counts[i].uses == 1)
    }

    /// Folds `def` into `next` if `def` is `t = e` for a single-use
    /// temporary `t` that `next`'s own expression reads before any of
    /// its micro-ops. On success `def` is left a husk to be dropped.
    fn fold(&self, def: &mut Stmt, next: &mut Stmt) -> bool {
        let Stmt::Assign { var, expr } = def else {
            return false;
        };
        if !self.single_use(*var) {
            return false;
        }
        // The next statement's operands, in evaluation order.
        let (first, second) = match next {
            Stmt::Assign { expr, .. } => (expr, None),
            Stmt::If { cond, .. } => (cond, None),
            Stmt::Enq { value, .. } => (value, None),
            Stmt::Store { index, value, .. } | Stmt::AtomicRmw { index, value, .. } => {
                (index, Some(value))
            }
            Stmt::For { start, end, .. } => (start, Some(end)),
            Stmt::EnqSel { select, value, .. } => (select, Some(value)),
            _ => return false,
        };
        let mut late = false;
        let slot = match seek(first, *var, &mut late) {
            Some(slot) => Some(slot),
            None => second.and_then(|e| seek(e, *var, &mut late)),
        };
        match slot {
            Some(slot) if !late => {
                *slot = mem::replace(expr, Expr::i64(0));
                true
            }
            _ => false,
        }
    }
}

/// The occurrence of `t` in `e`, in evaluation order (operands left to
/// right, then the operator). Sets `late` if a micro-op is evaluated
/// before it is reached.
fn seek<'e>(e: &'e mut Expr, t: VarId, late: &mut bool) -> Option<&'e mut Expr> {
    let found = match e {
        Expr::Var(v) => return (*v == t).then_some(e),
        Expr::Const(_) => return None,
        Expr::Unary(_, a) | Expr::Load { index: a, .. } => seek(a, t, late),
        Expr::Binary(_, a, b) => match seek(a, t, late) {
            Some(slot) => Some(slot),
            None => seek(b, t, late),
        },
    };
    *late |= found.is_none();
    found
}

/// Folds one statement list and, recursively, every list nested in it.
fn fold_body(body: &mut Vec<Stmt>, temps: &Temps) {
    for s in body.iter_mut() {
        match s {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                fold_body(then_body, temps);
                fold_body(else_body, temps);
            }
            Stmt::For { body, .. } => fold_body(body, temps),
            Stmt::While { id, cond, body } => {
                fold_body(body, temps);
                rotate(id, cond, body);
            }
            _ => {}
        }
    }
    // Compact in place: `body[..w]` is the folded prefix, `body[w..r]`
    // the husks of folded definitions.
    let mut w = 0;
    for r in 0..body.len() {
        if w < r {
            body.swap(w, r);
        }
        while w > 0 {
            let (done, rest) = body.split_at_mut(w);
            if !temps.fold(&mut done[w - 1], &mut rest[0]) {
                break;
            }
            body.swap(w - 1, w);
            w -= 1;
        }
        w += 1;
    }
    body.truncate(w);
}

/// `while (1) { if (!(c)) break 1; rest }` → `while (c) { rest }`.
fn rotate(id: &mut BranchId, cond: &mut Expr, body: &mut Vec<Stmt>) {
    if !matches!(cond, Expr::Const(v) if matches!(v.as_bool(), Ok(true))) {
        return;
    }
    let Some(Stmt::If {
        id: exit,
        cond: Expr::Unary(UnOp::Not, c),
        then_body,
        else_body,
    }) = body.first_mut()
    else {
        return;
    };
    if !else_body.is_empty() || !matches!(then_body[..], [Stmt::Break { levels: 1 }]) {
        return;
    }
    *id = *exit;
    *cond = mem::replace(&mut **c, Expr::i64(0));
    body.remove(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use phloem_ir::{
        interp, ArrayDecl, ArrayId, BinOp, CtrlHandler, FunctionBuilder, LoadId, MemState, QueueId,
        RaConfig, RaMode, StageProgram, Ty, Value, VarDecl,
    };

    /// `v0` and `v1` are the kernel's own variables; `v2..` temporaries.
    const FIRST: usize = 2;

    fn v(i: u32) -> Expr {
        Expr::var(VarId(i))
    }

    fn set(i: u32, expr: Expr) -> Stmt {
        Stmt::Assign {
            var: VarId(i),
            expr,
        }
    }

    fn load(id: u32) -> Expr {
        Expr::Load {
            id: LoadId(id),
            array: ArrayId(0),
            index: Box::new(v(0)),
        }
    }

    fn not(e: Expr) -> Expr {
        Expr::un(UnOp::Not, e)
    }

    fn program(body: Vec<Stmt>, handlers: Vec<CtrlHandler>) -> StageProgram {
        let mut func = phloem_ir::Function::new("s");
        func.vars = (0..6)
            .map(|i| VarDecl {
                name: format!("v{i}").into(),
                ty: Ty::I64,
            })
            .collect();
        func.arrays = vec![ArrayDecl::i64("a")];
        func.body = body;
        StageProgram { func, handlers }
    }

    fn fold_with(body: Vec<Stmt>, handlers: Vec<CtrlHandler>) -> Vec<Stmt> {
        let mut pipe = Pipeline::new("p");
        pipe.add_stage(program(body, handlers), 0);
        fold_stages(&mut pipe, FIRST);
        pipe.stages.remove(0).program.func.body
    }

    fn folded(body: Vec<Stmt>) -> Vec<Stmt> {
        fold_with(body, Vec::new())
    }

    /// `while (1) { if (test) { then } ; rest }` with branch ids 7 and 8.
    fn exit_loop(test: Expr, then: Vec<Stmt>, els: Vec<Stmt>, rest: Vec<Stmt>) -> Stmt {
        let mut body = vec![Stmt::If {
            id: BranchId(8),
            cond: test,
            then_body: then,
            else_body: els,
        }];
        body.extend(rest);
        Stmt::While {
            id: BranchId(7),
            cond: Expr::i64(1),
            body,
        }
    }

    fn break1() -> Vec<Stmt> {
        vec![Stmt::Break { levels: 1 }]
    }

    #[test]
    fn a_temporary_folds_into_every_operand_of_the_next_statement() {
        let e = || Expr::add(v(0), Expr::i64(1));
        let q = QueueId(0);
        let uses: [fn(Expr) -> Stmt; 11] = [
            |x| set(1, Expr::mul(x, v(0))),
            |x| Stmt::Store {
                array: ArrayId(0),
                index: x,
                value: v(1),
            },
            |x| Stmt::Store {
                array: ArrayId(0),
                index: v(1),
                value: x,
            },
            |x| Stmt::AtomicRmw {
                op: BinOp::Add,
                array: ArrayId(0),
                index: x,
                value: v(1),
                old: None,
            },
            |x| Stmt::AtomicRmw {
                op: BinOp::Min,
                array: ArrayId(0),
                index: Expr::i64(0),
                value: x,
                old: Some(VarId(1)),
            },
            |x| Stmt::if_then(BranchId(3), x, vec![set(1, v(0))]),
            |x| Stmt::For {
                id: BranchId(4),
                var: VarId(1),
                start: x,
                end: v(0),
                body: vec![],
            },
            |x| Stmt::For {
                id: BranchId(4),
                var: VarId(1),
                start: Expr::i64(0),
                end: x,
                body: vec![],
            },
            |x| Stmt::Enq {
                queue: QueueId(0),
                value: x,
            },
            |x| Stmt::EnqSel {
                queues: vec![QueueId(0), QueueId(1)],
                select: x,
                value: v(0),
            },
            |x| Stmt::EnqSel {
                queues: vec![QueueId(0), QueueId(1)],
                select: v(0),
                value: x,
            },
        ];
        for mk in uses {
            assert_eq!(folded(vec![set(2, e()), mk(v(2))]), vec![mk(e())]);
        }
        // Nested statements fold too, inside their own lists.
        let inner = |body| Stmt::if_then(BranchId(5), v(0), body);
        let enq = |x| Stmt::Enq { queue: q, value: x };
        assert_eq!(
            folded(vec![inner(vec![set(3, e()), enq(v(3))])]),
            vec![inner(vec![enq(e())])]
        );
    }

    #[test]
    fn folds_chain_forward_and_back_in_evaluation_order() {
        // t2 = v0 + 1; t3 = t2 * 2; v1 = t3 - v0  =>  v1 = ((v0 + 1) * 2) - v0
        let body = vec![
            set(2, Expr::add(v(0), Expr::i64(1))),
            set(3, Expr::mul(v(2), Expr::i64(2))),
            set(1, Expr::sub(v(3), v(0))),
        ];
        let want = Expr::sub(Expr::mul(Expr::add(v(0), Expr::i64(1)), Expr::i64(2)), v(0));
        assert_eq!(folded(body), vec![set(1, want)]);
        // t2 = a[v0]; t3 = a[v0]; v1 = t2 + t3  =>  v1 = a[v0] + a[v0],
        // the loads still in their order.
        let body = vec![
            set(2, load(0)),
            set(3, load(1)),
            set(1, Expr::add(v(2), v(3))),
        ];
        assert_eq!(folded(body), vec![set(1, Expr::add(load(0), load(1)))]);
    }

    #[test]
    fn a_fold_that_would_reorder_micro_ops_is_refused() {
        // v1 = t3 + t2: t3 folds, but t2's load would then run after
        // t3's, so t2 stays.
        let body = vec![
            set(2, load(0)),
            set(3, load(1)),
            set(1, Expr::add(v(3), v(2))),
        ];
        assert_eq!(
            folded(body),
            vec![set(2, load(0)), set(1, Expr::add(load(1), v(2)))]
        );
        // A store evaluates its index first: an index with a micro-op
        // keeps a temporary out of the value.
        let store = |value| Stmt::Store {
            array: ArrayId(0),
            index: Expr::add(v(0), Expr::i64(1)),
            value,
        };
        let body = vec![set(2, load(0)), store(v(2))];
        assert_eq!(folded(body.clone()), body);
    }

    #[test]
    fn only_a_single_use_temporary_used_by_the_next_statement_folds() {
        let e = || Expr::add(v(0), Expr::i64(1));
        let refused = [
            // Used twice.
            vec![set(2, e()), set(1, Expr::add(v(2), v(2)))],
            // Defined twice.
            vec![set(2, e()), set(1, v(2)), set(2, e())],
            // A kernel variable, not a temporary.
            vec![set(0, e()), set(1, Expr::mul(v(0), Expr::i64(2)))],
            // Not the next statement.
            vec![set(2, e()), set(1, v(0)), set(1, v(2))],
            // A `while` condition is re-evaluated every iteration.
            vec![
                set(2, e()),
                Stmt::While {
                    id: BranchId(3),
                    cond: v(2),
                    body: break1(),
                },
            ],
            // A nested body is not the statement's own expression.
            vec![
                set(2, e()),
                Stmt::if_then(BranchId(3), v(0), vec![set(1, v(2))]),
            ],
            // The defining statement must be an assignment.
            vec![
                Stmt::Deq {
                    var: VarId(2),
                    queue: QueueId(0),
                },
                set(1, v(2)),
            ],
        ];
        for body in refused {
            assert_eq!(folded(body.clone()), body);
        }
        // A read in a handler body or a handler's end is a use too.
        let handler = |body, end| CtrlHandler {
            queue: QueueId(0),
            ctrl: Some(0),
            bind: None,
            body,
            end,
        };
        let body = vec![set(2, e()), set(1, v(2))];
        for h in [
            handler(vec![set(1, v(2))], HandlerEnd::Resume),
            handler(vec![], HandlerEnd::FinishWhen(VarId(2), 1)),
        ] {
            assert_eq!(fold_with(body.clone(), vec![h]), body);
        }
    }

    #[test]
    fn a_rotated_exit_test_becomes_the_loop_condition() {
        let c = || Expr::lt(v(0), v(1));
        let step = || set(0, Expr::add(v(0), Expr::i64(1)));
        let rotated = Stmt::While {
            id: BranchId(8),
            cond: c(),
            body: vec![step()],
        };
        assert_eq!(
            folded(vec![exit_loop(not(c()), break1(), vec![], vec![step()])]),
            vec![rotated.clone()]
        );
        // The normaliser's form: t2 = v0 < v1; t3 = !t2; if (t3) break.
        let normalised = Stmt::While {
            id: BranchId(7),
            cond: Expr::i64(1),
            body: vec![
                set(2, c()),
                set(3, not(v(2))),
                Stmt::if_then(BranchId(8), v(3), break1()),
                step(),
            ],
        };
        assert_eq!(folded(vec![normalised]), vec![rotated]);
    }

    #[test]
    fn a_loop_rotates_only_from_a_leading_exit_test_with_a_lone_break() {
        let c = || Expr::lt(v(0), v(1));
        let step = || set(0, Expr::add(v(0), Expr::i64(1)));
        let refused = [
            // The exit test is not the first statement.
            Stmt::While {
                id: BranchId(7),
                cond: Expr::i64(1),
                body: vec![step(), Stmt::if_then(BranchId(8), not(c()), break1())],
            },
            // It has an `else`.
            exit_loop(not(c()), break1(), vec![step()], vec![]),
            // Its body is not exactly `break 1`.
            exit_loop(
                not(c()),
                vec![Stmt::Break { levels: 2 }],
                vec![],
                vec![step()],
            ),
            exit_loop(
                not(c()),
                vec![step(), Stmt::Break { levels: 1 }],
                vec![],
                vec![],
            ),
            // Its condition is not a negation.
            exit_loop(c(), break1(), vec![], vec![step()]),
            // The loop is not `while (1)`.
            Stmt::While {
                id: BranchId(7),
                cond: v(1),
                body: vec![Stmt::if_then(BranchId(8), not(c()), break1())],
            },
        ];
        for s in refused {
            assert_eq!(folded(vec![s.clone()]), vec![s]);
        }
    }

    #[test]
    fn reference_accelerator_stages_are_left_as_generated() {
        let mut pipe = Pipeline::new("p");
        let cfg = RaConfig {
            name: "ra".into(),
            mode: RaMode::Indirect,
            base: ArrayId(0),
            in_queue: QueueId(0),
            out_queue: QueueId(1),
            forward_ctrl: true,
            scan_end_ctrl: None,
        };
        pipe.add_ra(cfg, &[ArrayDecl::i64("a")], 0);
        let before = pipe.clone();
        fold_stages(&mut pipe, 0);
        assert_eq!(pipe, before);
    }

    /// Every `break` level, in program order.
    fn break_levels(body: &[Stmt]) -> Vec<u32> {
        let mut out = Vec::new();
        for s in body {
            s.for_each(&mut |s| {
                if let Stmt::Break { levels } = s {
                    out.push(*levels);
                }
            });
        }
        out
    }

    #[test]
    fn a_folded_kernel_keeps_its_breaks_and_its_results() {
        // out[0] = number of (i, k) steps until k reaches a[i] or 3,
        // leaving both loops when a[i] == 2.
        let mut b = FunctionBuilder::new("k");
        let n = b.param_i64("n");
        let a = b.array_i64("a");
        let out = b.array_i64("out");
        let (i, k, s) = (b.var_i64("i"), b.var_i64("k"), b.var_i64("s"));
        b.for_loop(i, Expr::i64(0), Expr::var(n), |f| {
            f.assign(k, Expr::i64(0));
            let ai = f.load(a, Expr::var(i));
            let lim = f.load(a, Expr::var(i));
            f.while_loop(
                Expr::bin(
                    BinOp::And,
                    Expr::lt(Expr::var(k), ai),
                    Expr::lt(Expr::var(k), Expr::i64(3)),
                ),
                |f| {
                    f.assign(s, Expr::add(Expr::var(s), Expr::i64(1)));
                    f.assign(k, Expr::add(Expr::var(k), Expr::i64(1)));
                    f.if_then(Expr::eq(lim.clone(), Expr::i64(2)), |f| f.break_out(2));
                },
            );
        });
        b.store(out, Expr::i64(0), Expr::var(s));
        let kernel = b.build();
        let nf = crate::normalize::normalize(&kernel);
        let handlers = vec![CtrlHandler {
            queue: QueueId(0),
            ctrl: Some(1),
            bind: None,
            body: vec![],
            end: HandlerEnd::BreakLoops(2),
        }];
        let mut pipe = Pipeline::new("p");
        pipe.add_stage(
            StageProgram {
                func: nf.clone(),
                handlers: handlers.clone(),
            },
            0,
        );
        fold_stages(&mut pipe, kernel.vars.len());
        let stage = &pipe.stages[0].program;
        // The rotated exit test took its `break 1` with it; the `break 2`
        // and the handler's target are what they were.
        assert_eq!(break_levels(&nf.body), [1, 2]);
        assert_eq!(break_levels(&stage.func.body), [2]);
        assert_eq!(stage.handlers, handlers);
        assert!(stage.func.vars.len() > kernel.vars.len());

        let mut mem = MemState::new();
        mem.alloc_i64(ArrayDecl::i64("a"), [1, 5, 0, 2, 4]);
        mem.alloc(ArrayDecl::i64("out"), 1);
        let params = [("n", Value::I64(5))];
        let run = |f| interp::run_serial(f, mem.clone(), &params).unwrap();
        let (want, got) = (run(&kernel), run(&stage.func));
        assert!(got.mem.same_contents(&want.mem));
        assert_eq!(got.total(), want.total(), "same ops as the kernel");
    }
}
