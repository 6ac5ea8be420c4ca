//! Normalization to fine-grain three-address form.
//!
//! Phloem's IR "represents fine-grain operations" so that *any two
//! operations in a program can be decoupled* (Sec. V). This pass brings a
//! frontend function into that form:
//!
//! * every `Assign` right-hand side is *shallow*: a constant, variable,
//!   one unary/binary op over leaves, or one load with a leaf index;
//! * `Store`/`Enq`/`If`/`For` operand expressions are leaves;
//! * `while (cond)` loops become `while (true)` with an explicit
//!   re-evaluated exit test `if (!cond) break;` so loop-exit conditions
//!   are ordinary staged values.
//!
//! Load-site ids are preserved, so cost-model rankings computed before
//! or after normalization agree.

use phloem_ir::{expr_ty, ArrayDecl, BranchId, Expr, Function, Stmt, Ty, UnOp, VarDecl, VarId};

struct Normalizer<'f> {
    vars: Vec<VarDecl>,
    arrays: &'f [ArrayDecl],
    next_branch: u32,
    next_temp: u32,
}

impl Normalizer<'_> {
    /// A fresh temporary to hold `e`, declared with the type of `e`.
    fn temp(&mut self, e: &Expr) -> VarId {
        let id = VarId(self.vars.len() as u32);
        let ty = expr_ty(&self.vars, self.arrays, e).unwrap_or(Ty::I64);
        self.vars.push(VarDecl {
            name: format!("_t{}", self.next_temp).into(),
            ty,
        });
        self.next_temp += 1;
        id
    }

    fn branch(&mut self) -> BranchId {
        let id = BranchId(self.next_branch);
        self.next_branch += 1;
        id
    }

    /// Reduces `e` to a leaf (Var/Const), emitting prefix atoms.
    fn leaf(&mut self, e: &Expr, out: &mut Vec<Stmt>) -> Expr {
        match e {
            Expr::Const(_) | Expr::Var(_) => e.clone(),
            _ => {
                let shallow = self.shallow(e, out);
                let t = self.temp(&shallow);
                out.push(Stmt::Assign {
                    var: t,
                    expr: shallow,
                });
                Expr::Var(t)
            }
        }
    }

    /// Reduces `e` to a shallow expression (operands are leaves),
    /// emitting prefix atoms.
    fn shallow(&mut self, e: &Expr, out: &mut Vec<Stmt>) -> Expr {
        match e {
            Expr::Const(_) | Expr::Var(_) => e.clone(),
            Expr::Unary(op, a) => {
                let la = self.leaf(a, out);
                Expr::Unary(*op, Box::new(la))
            }
            Expr::Binary(op, a, b) => {
                let la = self.leaf(a, out);
                let lb = self.leaf(b, out);
                Expr::Binary(*op, Box::new(la), Box::new(lb))
            }
            Expr::Load { id, array, index } => {
                let li = self.leaf(index, out);
                Expr::Load {
                    id: *id,
                    array: *array,
                    index: Box::new(li),
                }
            }
        }
    }

    fn body(&mut self, stmts: &[Stmt]) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match s {
                Stmt::Assign { var, expr } => {
                    let shallow = self.shallow(expr, &mut out);
                    out.push(Stmt::Assign {
                        var: *var,
                        expr: shallow,
                    });
                }
                Stmt::Store {
                    array,
                    index,
                    value,
                } => {
                    let li = self.leaf(index, &mut out);
                    let lv = self.leaf(value, &mut out);
                    out.push(Stmt::Store {
                        array: *array,
                        index: li,
                        value: lv,
                    });
                }
                Stmt::AtomicRmw {
                    op,
                    array,
                    index,
                    value,
                    old,
                } => {
                    let li = self.leaf(index, &mut out);
                    let lv = self.leaf(value, &mut out);
                    out.push(Stmt::AtomicRmw {
                        op: *op,
                        array: *array,
                        index: li,
                        value: lv,
                        old: *old,
                    });
                }
                Stmt::If {
                    id,
                    cond,
                    then_body,
                    else_body,
                } => {
                    let lc = self.leaf(cond, &mut out);
                    out.push(Stmt::If {
                        id: *id,
                        cond: lc,
                        then_body: self.body(then_body),
                        else_body: self.body(else_body),
                    });
                }
                Stmt::For {
                    id,
                    var,
                    start,
                    end,
                    body,
                } => {
                    let ls = self.leaf(start, &mut out);
                    let le = self.leaf(end, &mut out);
                    out.push(Stmt::For {
                        id: *id,
                        var: *var,
                        start: ls,
                        end: le,
                        body: self.body(body),
                    });
                }
                Stmt::While { id, cond, body } => {
                    let is_const_true =
                        matches!(cond, Expr::Const(v) if v.as_bool().unwrap_or(false));
                    if is_const_true {
                        out.push(Stmt::While {
                            id: *id,
                            cond: Expr::i64(1),
                            body: self.body(body),
                        });
                    } else {
                        // while (c) {B}  =>  while (1) { atoms; cn = !c;
                        //                    if (cn) break; B }
                        let mut inner = Vec::new();
                        let lc = self.leaf(cond, &mut inner);
                        let not = Expr::Unary(UnOp::Not, Box::new(lc));
                        let cn = self.temp(&not);
                        inner.push(Stmt::Assign { var: cn, expr: not });
                        let exit_id = self.branch();
                        inner.push(Stmt::if_then(
                            exit_id,
                            Expr::Var(cn),
                            vec![Stmt::Break { levels: 1 }],
                        ));
                        inner.extend(self.body(body));
                        out.push(Stmt::While {
                            id: *id,
                            cond: Expr::i64(1),
                            body: inner,
                        });
                    }
                }
                Stmt::Break { levels } => out.push(Stmt::Break { levels: *levels }),
                Stmt::Enq { queue, value } => {
                    let lv = self.leaf(value, &mut out);
                    out.push(Stmt::Enq {
                        queue: *queue,
                        value: lv,
                    });
                }
                Stmt::EnqSel {
                    queues,
                    select,
                    value,
                } => {
                    let lsel = self.leaf(select, &mut out);
                    let lv = self.leaf(value, &mut out);
                    out.push(Stmt::EnqSel {
                        queues: queues.clone(),
                        select: lsel,
                        value: lv,
                    });
                }
                Stmt::EnqCtrl { queue, ctrl } => out.push(Stmt::EnqCtrl {
                    queue: *queue,
                    ctrl: *ctrl,
                }),
                Stmt::Deq { var, queue } => out.push(Stmt::Deq {
                    var: *var,
                    queue: *queue,
                }),
            }
        }
        out
    }
}

/// Normalizes a function to three-address form. Semantics-preserving.
pub fn normalize(func: &Function) -> Function {
    let mut n = Normalizer {
        vars: func.vars.clone(),
        arrays: &func.arrays,
        next_branch: func.next_branch_id().0,
        next_temp: 0,
    };
    let body = n.body(&func.body);
    Function {
        name: func.name.clone(),
        vars: n.vars,
        arrays: func.arrays.clone(),
        params: func.params.clone(),
        body,
    }
}

/// True if an expression is a leaf (Var/Const).
pub fn is_leaf(e: &Expr) -> bool {
    matches!(e, Expr::Const(_) | Expr::Var(_))
}

/// True if an expression is shallow (leaf, or one op over leaves).
pub fn is_shallow(e: &Expr) -> bool {
    match e {
        Expr::Const(_) | Expr::Var(_) => true,
        Expr::Unary(_, a) => is_leaf(a),
        Expr::Binary(_, a, b) => is_leaf(a) && is_leaf(b),
        Expr::Load { index, .. } => is_leaf(index),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phloem_ir::{interp, ArrayDecl, FunctionBuilder, MemState, Value};

    fn check_normal_form(body: &[Stmt]) {
        for s in body {
            s.for_each(&mut |s| match s {
                Stmt::Assign { expr, .. } => assert!(is_shallow(expr), "{expr:?}"),
                Stmt::Store { index, value, .. } => {
                    assert!(is_leaf(index) && is_leaf(value));
                }
                Stmt::If { cond, .. } => assert!(is_leaf(cond)),
                Stmt::For { start, end, .. } => assert!(is_leaf(start) && is_leaf(end)),
                Stmt::While { cond, .. } => {
                    assert!(matches!(cond, Expr::Const(_)), "whiles become while(1)")
                }
                Stmt::Enq { value, .. } => assert!(is_leaf(value)),
                _ => {}
            });
        }
    }

    fn sample() -> (Function, MemState, phloem_ir::ArrayId) {
        // out[0] = sum over i<n of b[a[i]+1]*2, with a while-based tail.
        let mut b = FunctionBuilder::new("t");
        let n = b.param_i64("n");
        let a = b.array_i64("a");
        let bb = b.array_i64("b");
        let out = b.array_i64("out");
        let i = b.var_i64("i");
        let s = b.var_i64("s");
        let k = b.var_i64("k");
        b.for_loop(i, Expr::i64(0), Expr::var(n), |f| {
            let inner = f.load(a, Expr::var(i));
            let l = f.load(bb, Expr::add(inner, Expr::i64(1)));
            f.assign(s, Expr::add(Expr::var(s), Expr::mul(l, Expr::i64(2))));
        });
        b.assign(k, Expr::i64(0));
        b.while_loop(Expr::lt(Expr::var(k), Expr::i64(3)), |f| {
            f.assign(s, Expr::add(Expr::var(s), Expr::i64(100)));
            f.assign(k, Expr::add(Expr::var(k), Expr::i64(1)));
        });
        b.store(out, Expr::i64(0), Expr::var(s));
        let f = b.build();
        let mut mem = MemState::new();
        mem.alloc_i64(ArrayDecl::i64("a"), [2, 0, 1]);
        mem.alloc_i64(ArrayDecl::i64("b"), [10, 20, 30, 40]);
        let out_id = mem.alloc(ArrayDecl::i64("out"), 1);
        (f, mem, out_id)
    }

    #[test]
    fn normal_form_is_reached() {
        let (f, _, _) = sample();
        let nf = normalize(&f);
        nf.validate().unwrap();
        check_normal_form(&nf.body);
    }

    #[test]
    fn normalization_preserves_semantics() {
        let (f, mem, out) = sample();
        let nf = normalize(&f);
        let r1 = interp::run_serial(&f, mem.clone(), &[("n", Value::I64(3))]).unwrap();
        let r2 = interp::run_serial(&nf, mem, &[("n", Value::I64(3))]).unwrap();
        assert_eq!(r1.mem.i64_vec(out), r2.mem.i64_vec(out));
        // a = [2,0,1] -> b[3]+b[1]+b[2] = 40+20+30, doubled, plus 3*100.
        assert_eq!(r1.mem.i64_vec(out), vec![(40 + 20 + 30) * 2 + 300]);
    }

    #[test]
    fn load_ids_survive() {
        let (f, _, _) = sample();
        let nf = normalize(&f);
        let mut before = Vec::new();
        let mut after = Vec::new();
        let collect = |body: &[Stmt], out: &mut Vec<phloem_ir::LoadId>| {
            for s in body {
                s.for_each(&mut |s| {
                    let mut visit = |e: &Expr| e.for_each_load(&mut |id, _| out.push(id));
                    match s {
                        Stmt::Assign { expr, .. } => visit(expr),
                        Stmt::Store { index, value, .. } => {
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
        };
        collect(&f.body, &mut before);
        collect(&nf.body, &mut after);
        before.sort();
        after.sort();
        assert_eq!(before, after);
    }

    #[test]
    fn temporaries_are_typed_by_what_they_hold() {
        // out[0] = x[i + 1] * 2.0
        let mut b = FunctionBuilder::new("t");
        let x = b.array_f64("x");
        let out = b.array_f64("out");
        let i = b.var_i64("i");
        let l = b.load(x, Expr::add(Expr::var(i), Expr::i64(1)));
        b.store(out, Expr::i64(0), Expr::mul(l, Expr::f64(2.0)));
        let nf = normalize(&b.build());
        let ty = |name: &str| nf.vars.iter().find(|d| &*d.name == name).map(|d| d.ty);
        // _t0 = i + 1; _t1 = x[_t0]; _t2 = _t1 * 2.0
        assert_eq!(ty("_t0"), Some(Ty::I64));
        assert_eq!(ty("_t1"), Some(Ty::F64));
        assert_eq!(ty("_t2"), Some(Ty::F64));
    }

    #[test]
    fn idempotent() {
        let (f, _, _) = sample();
        let n1 = normalize(&f);
        let n2 = normalize(&n1);
        // A second normalization adds no new temps.
        assert_eq!(n1.vars.len(), n2.vars.len());
    }
}
