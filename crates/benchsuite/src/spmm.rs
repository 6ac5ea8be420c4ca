//! Sparse Matrix-Matrix multiplication with an inner-product
//! (output-stationary) dataflow: each output element is a dot product of
//! a row of A and a column of B (stored as rows of Bᵀ), computed by a
//! *merge-intersection* over the two sorted coordinate lists.
//!
//! This is the paper's negative result for Phloem: the merge loop's
//! loop-carried, data-dependent control keeps all of its loads in one
//! stage, so automatic decoupling only peels off the row-pointer
//! fetches. The *manual* pipeline uses the bespoke insight the paper
//! describes: index/value streams flow through four SCAN reference
//! accelerators with per-range `NEXT` control values, and "upon finding
//! the end of an input queue through a control value, the consumer skips
//! the remaining values in the other input queue up to its next control
//! value".
//!
//! SpMM shares no traversal with the frontier apps; from
//! `crate::frontier` it takes the slice bounds of its data-parallel
//! kernel, the stage builder over its one array declaration ([`arrays`])
//! and the control-value tags.

use crate::frontier::{self, Part, DONE, NEXT};
use crate::runner::{measure, variant_pipeline, Measurement, Ran, Sink, Variant};
use phloem_ir::{
    ArrayDecl, ArrayId, BinOp, Expr, Function, FunctionBuilder, MemState, Pipeline, QueueId,
    RaConfig, RaMode, StageProgram, Trap, UnOp, Value,
};
use phloem_workloads::SparseMatrix;
use pipette_sim::{MachineConfig, Session};

/// SpMM's arrays, in allocation order: the one declaration every variant
/// and [`build_mem`] share.
pub fn arrays() -> Vec<ArrayDecl> {
    vec![
        ArrayDecl::i32("arp"),
        ArrayDecl::i32("aci"),
        ArrayDecl::f64("avl"),
        ArrayDecl::i32("btp"),
        ArrayDecl::i32("btci"),
        ArrayDecl::f64("btvl"),
        ArrayDecl::i32("out_cnt"),
        ArrayDecl::f64("out_sum"),
    ]
}

/// The ids [`arrays`] gives SpMM's arrays.
#[derive(Clone, Copy, Debug)]
pub struct SpmmArrays {
    /// A row pointers.
    pub arp: ArrayId,
    /// A column indices.
    pub aci: ArrayId,
    /// A values.
    pub avl: ArrayId,
    /// Bᵀ row pointers (= B column pointers).
    pub btp: ArrayId,
    /// Bᵀ column indices.
    pub btci: ArrayId,
    /// Bᵀ values.
    pub btvl: ArrayId,
    /// Per-thread output nonzero counts.
    pub out_cnt: ArrayId,
    /// Per-thread output value sums.
    pub out_sum: ArrayId,
}

impl SpmmArrays {
    /// Looks every id up by name in [`arrays`]; no memory needed.
    pub fn ids() -> SpmmArrays {
        let decls = arrays();
        let id = |name| frontier::array_id(&decls, name);
        SpmmArrays {
            arp: id("arp"),
            aci: id("aci"),
            avl: id("avl"),
            btp: id("btp"),
            btci: id("btci"),
            btvl: id("btvl"),
            out_cnt: id("out_cnt"),
            out_sum: id("out_sum"),
        }
    }
}

/// Allocates SpMM memory for `C = A * B` (B passed as Bᵀ).
pub fn build_mem(a: &SparseMatrix, bt: &SparseMatrix, threads: usize) -> (MemState, SpmmArrays) {
    let mut mem = MemState::new();
    for decl in arrays() {
        match decl.name.as_str() {
            "arp" => mem.alloc_i64(decl, a.row_ptr.iter().copied()),
            "aci" => mem.alloc_i64(decl, a.col_idx.iter().copied()),
            "avl" => mem.alloc_f64(decl, a.vals.iter().copied()),
            "btp" => mem.alloc_i64(decl, bt.row_ptr.iter().copied()),
            "btci" => mem.alloc_i64(decl, bt.col_idx.iter().copied()),
            "btvl" => mem.alloc_f64(decl, bt.vals.iter().copied()),
            "out_cnt" | "out_sum" => mem.alloc(decl, threads.max(1)),
            other => panic!("array `{other}` has no initial contents"),
        };
    }
    (mem, SpmmArrays::ids())
}

fn emit_merge_body(
    b: &mut FunctionBuilder,
    a: &SpmmArrays,
    ka: phloem_ir::VarId,
    kb: phloem_ir::VarId,
    rae: phloem_ir::VarId,
    rbe: phloem_ir::VarId,
    accf: phloem_ir::VarId,
) {
    let ca = b.var_i64("ca");
    let cb = b.var_i64("cb");
    let va = b.var_f64("va");
    let vb = b.var_f64("vb");
    b.assign(accf, Expr::f64(0.0));
    let cond = Expr::bin(
        BinOp::And,
        Expr::lt(Expr::var(ka), Expr::var(rae)),
        Expr::lt(Expr::var(kb), Expr::var(rbe)),
    );
    b.while_loop(cond, |f| {
        let lca = f.load(a.aci, Expr::var(ka));
        f.assign(ca, lca);
        let lcb = f.load(a.btci, Expr::var(kb));
        f.assign(cb, lcb);
        f.if_else(
            Expr::eq(Expr::var(ca), Expr::var(cb)),
            |f| {
                let lva = f.load(a.avl, Expr::var(ka));
                f.assign(va, lva);
                let lvb = f.load(a.btvl, Expr::var(kb));
                f.assign(vb, lvb);
                f.assign(
                    accf,
                    Expr::add(Expr::var(accf), Expr::mul(Expr::var(va), Expr::var(vb))),
                );
                f.assign(ka, Expr::add(Expr::var(ka), Expr::i64(1)));
                f.assign(kb, Expr::add(Expr::var(kb), Expr::i64(1)));
            },
            |f| {
                f.if_else(
                    Expr::lt(Expr::var(ca), Expr::var(cb)),
                    |f| f.assign(ka, Expr::add(Expr::var(ka), Expr::i64(1))),
                    |f| f.assign(kb, Expr::add(Expr::var(kb), Expr::i64(1))),
                );
            },
        );
    });
}

/// The inner-product kernel over all (i, j) pairs with `i` in the whole
/// row range (`None`) or in thread `part`'s slice of it, which sums into
/// that thread's output slot.
fn kernel_over(part: Option<Part>) -> Function {
    let a = SpmmArrays::ids();
    let (name, slot) = match part {
        None => ("spmm".into(), 0),
        Some(p) => (format!("spmm-dp{}", p.index), p.index as i64),
    };
    let mut b = frontier::stage(name, &arrays());
    let n = b.param_i64("n");
    let (lo, hi) = frontier::slice(&mut b, n, part);
    let i = b.var_i64("i");
    let j = b.var_i64("j");
    let ras = b.var_i64("ras");
    let rae = b.var_i64("rae");
    let rbs = b.var_i64("rbs");
    let rbe = b.var_i64("rbe");
    let ka = b.var_i64("ka");
    let kb = b.var_i64("kb");
    let accf = b.var_f64("accf");
    let cnt = b.var_i64("cnt");
    let sum = b.var_f64("sum");
    b.for_loop(i, lo, hi, |f| {
        let l1 = f.load(a.arp, Expr::var(i));
        f.assign(ras, l1);
        let l2 = f.load(a.arp, Expr::add(Expr::var(i), Expr::i64(1)));
        f.assign(rae, l2);
        f.for_loop(j, Expr::i64(0), Expr::var(n), |f| {
            let l3 = f.load(a.btp, Expr::var(j));
            f.assign(rbs, l3);
            let l4 = f.load(a.btp, Expr::add(Expr::var(j), Expr::i64(1)));
            f.assign(rbe, l4);
            f.assign(ka, Expr::var(ras));
            f.assign(kb, Expr::var(rbs));
            emit_merge_body(f, &a, ka, kb, rae, rbe, accf);
            f.if_then(Expr::ne(Expr::var(accf), Expr::f64(0.0)), |f| {
                f.assign(cnt, Expr::add(Expr::var(cnt), Expr::i64(1)));
                f.assign(sum, Expr::add(Expr::var(sum), Expr::var(accf)));
            });
        });
    });
    b.store(a.out_cnt, Expr::i64(slot), Expr::var(cnt));
    b.store(a.out_sum, Expr::i64(slot), Expr::var(sum));
    b.build()
}

/// Serial inner-product SpMM kernel over all (i, j) pairs.
pub fn kernel() -> Function {
    kernel_over(None)
}

/// The hand-optimized merge-skip pipeline (see module docs): one fetch
/// stage, four SCAN RAs (A/B index and value streams with per-range
/// `NEXT`s), and a merge stage that skips the other stream on stream end.
pub fn manual_pipeline() -> Pipeline {
    let (arrays, a) = (arrays(), SpmmArrays::ids());
    let q_ra = QueueId(0); // ranges -> aci scan
    let q_rav = QueueId(1); // ranges -> avl scan
    let q_rb = QueueId(2); // ranges -> btci scan
    let q_rbv = QueueId(3); // ranges -> btvl scan
    let q_ca = QueueId(4);
    let q_va = QueueId(5);
    let q_cb = QueueId(6);
    let q_vb = QueueId(7);
    let mut p = Pipeline::new("spmm-manual");

    // Stage 0: generate (i, j) pairs and feed all four scanners.
    let mut s0 = frontier::stage("pairs", &arrays);
    let n = s0.param_i64("n");
    let (arp, btp) = (a.arp, a.btp);
    let i = s0.var_i64("i");
    let j = s0.var_i64("j");
    let ras = s0.var_i64("ras");
    let rae = s0.var_i64("rae");
    let rbs = s0.var_i64("rbs");
    let rbe = s0.var_i64("rbe");
    s0.for_loop(i, Expr::i64(0), Expr::var(n), |f| {
        let l1 = f.load(arp, Expr::var(i));
        f.assign(ras, l1);
        let l2 = f.load(arp, Expr::add(Expr::var(i), Expr::i64(1)));
        f.assign(rae, l2);
        f.for_loop(j, Expr::i64(0), Expr::var(n), |f| {
            let l3 = f.load(btp, Expr::var(j));
            f.assign(rbs, l3);
            let l4 = f.load(btp, Expr::add(Expr::var(j), Expr::i64(1)));
            f.assign(rbe, l4);
            for (qs, qe) in [(q_ra, q_rav), (q_rb, q_rbv)] {
                let (s, e) = if qs == q_ra { (ras, rae) } else { (rbs, rbe) };
                f.enq(qs, Expr::var(s));
                f.enq(qs, Expr::var(e));
                f.enq(qe, Expr::var(s));
                f.enq(qe, Expr::var(e));
            }
        });
    });
    for q in [q_ra, q_rav, q_rb, q_rbv] {
        s0.enq_ctrl(q, DONE);
    }
    p.add_stage(StageProgram::plain(s0.build()), 0);

    for (name, base, qin, qout) in [
        ("aci", a.aci, q_ra, q_ca),
        ("avl", a.avl, q_rav, q_va),
        ("btci", a.btci, q_rb, q_cb),
        ("btvl", a.btvl, q_rbv, q_vb),
    ] {
        p.add_ra(
            RaConfig {
                name: name.into(),
                mode: RaMode::Scan,
                base,
                in_queue: qin,
                out_queue: qout,
                forward_ctrl: true,
                scan_end_ctrl: Some(NEXT),
            },
            &arrays,
            0,
        );
    }

    // Merge stage with explicit control-value checks and skip logic.
    let mut s5 = frontier::stage("merge", &arrays);
    s5.param_i64("n");
    let (out_cnt, out_sum) = (a.out_cnt, a.out_sum);
    let ca = s5.var_i64("ca");
    let cb = s5.var_i64("cb");
    let va = s5.var_f64("va");
    let vb = s5.var_f64("vb");
    let accf = s5.var_f64("accf");
    let cnt = s5.var_i64("cnt");
    let sum = s5.var_f64("sum");
    s5.while_true(|f| {
        // Heads of both streams for this (i, j) pair (or DONE).
        f.deq(ca, q_ca);
        // `&&` in the IR is not short-circuiting: nest the checks so
        // ctrl_tag is only taken on actual control values.
        f.if_then(Expr::is_ctrl(Expr::var(ca)), |f| {
            f.if_then(
                Expr::eq(
                    Expr::un(UnOp::CtrlTag, Expr::var(ca)),
                    Expr::i64(DONE as i64),
                ),
                |f| f.break_out(1),
            );
        });
        f.deq(cb, q_cb);
        f.assign(accf, Expr::f64(0.0));
        f.while_true(|f| {
            // A stream ended: skip the rest of the B stream.
            f.if_then(Expr::is_ctrl(Expr::var(ca)), |f| {
                f.deq(va, q_va); // consume A's value-stream NEXT
                f.while_loop(Expr::un(UnOp::Not, Expr::is_ctrl(Expr::var(cb))), |f| {
                    f.deq(vb, q_vb);
                    f.deq(cb, q_cb);
                });
                f.deq(vb, q_vb); // B's value-stream NEXT
                f.break_out(1);
            });
            // B stream ended: skip the rest of the A stream.
            f.if_then(Expr::is_ctrl(Expr::var(cb)), |f| {
                f.deq(vb, q_vb);
                f.while_loop(Expr::un(UnOp::Not, Expr::is_ctrl(Expr::var(ca))), |f| {
                    f.deq(va, q_va);
                    f.deq(ca, q_ca);
                });
                f.deq(va, q_va);
                f.break_out(1);
            });
            f.if_else(
                Expr::eq(Expr::var(ca), Expr::var(cb)),
                |f| {
                    f.deq(va, q_va);
                    f.deq(vb, q_vb);
                    f.assign(
                        accf,
                        Expr::add(Expr::var(accf), Expr::mul(Expr::var(va), Expr::var(vb))),
                    );
                    f.deq(ca, q_ca);
                    f.deq(cb, q_cb);
                },
                |f| {
                    f.if_else(
                        Expr::lt(Expr::var(ca), Expr::var(cb)),
                        |f| {
                            f.deq(va, q_va);
                            f.deq(ca, q_ca);
                        },
                        |f| {
                            f.deq(vb, q_vb);
                            f.deq(cb, q_cb);
                        },
                    );
                },
            );
        });
        f.if_then(Expr::ne(Expr::var(accf), Expr::f64(0.0)), |f| {
            f.assign(cnt, Expr::add(Expr::var(cnt), Expr::i64(1)));
            f.assign(sum, Expr::add(Expr::var(sum), Expr::var(accf)));
        });
    });
    s5.store(out_cnt, Expr::i64(0), Expr::var(cnt));
    s5.store(out_sum, Expr::i64(0), Expr::var(sum));
    p.add_stage(StageProgram::plain(s5.build()), 0);
    p
}

/// Host oracle: `(nonzero count, value sum)` in serial (i, j) order.
pub fn oracle(a: &SparseMatrix, bt: &SparseMatrix) -> (i64, f64) {
    let n = a.rows;
    let mut cnt = 0i64;
    let mut sum = 0.0f64;
    for i in 0..n {
        let ar: Vec<(i64, f64)> = a.row(i).collect();
        for j in 0..n {
            let br: Vec<(i64, f64)> = bt.row(j).collect();
            let (mut ka, mut kb) = (0usize, 0usize);
            let mut acc = 0.0f64;
            while ka < ar.len() && kb < br.len() {
                match ar[ka].0.cmp(&br[kb].0) {
                    std::cmp::Ordering::Equal => {
                        acc += ar[ka].1 * br[kb].1;
                        ka += 1;
                        kb += 1;
                    }
                    std::cmp::Ordering::Less => ka += 1,
                    std::cmp::Ordering::Greater => kb += 1,
                }
            }
            if acc != 0.0 {
                cnt += 1;
                sum += acc;
            }
        }
    }
    (cnt, sum)
}

/// Builds the pipeline for a variant.
///
/// # Errors
/// Propagates Phloem compile errors.
pub fn pipeline_for(
    variant: &Variant,
    cfg: &MachineConfig,
) -> Result<Pipeline, phloem_compiler::CompileError> {
    let dp_kernel = |index, of| kernel_over(Some(Part { index, of }));
    variant_pipeline(variant, cfg, kernel, dp_kernel, manual_pipeline)
}

/// Runs SpMM and verifies count/sum against the oracle.
///
/// Runtime failures (watchdog traps, injected faults) surface as
/// `Err(Trap)`; a count/sum mismatch still panics, as it means the
/// variant miscompiled.
pub fn run(
    variant: &Variant,
    a: &SparseMatrix,
    bt: &SparseMatrix,
    cfg: &MachineConfig,
    input: &str,
) -> Result<Measurement, Trap> {
    run_opt_traced(variant, a, bt, cfg, input, None).0
}

/// The single run entry: [`run`] wraps it, and the app table in
/// [`crate::apps`] and every traced caller call it. `sink`, when given,
/// observes every pipeline invocation and is handed back even when the
/// run traps.
pub fn run_opt_traced(
    variant: &Variant,
    a: &SparseMatrix,
    bt: &SparseMatrix,
    cfg: &MachineConfig,
    input: &str,
    sink: Option<Sink>,
) -> Ran {
    let pipeline = pipeline_for(variant, cfg).expect("SpMM pipeline");
    let (mem, arrays) = build_mem(a, bt, variant.threads());
    let body = |session: &mut Session| {
        session.run(&pipeline, &[("n", Value::I64(a.rows as i64))])?;
        Ok(())
    };
    let label = variant.label();
    measure(label, input, cfg, mem, sink, body, |mem, label| {
        let cnt: i64 = mem.i64_vec(arrays.out_cnt).iter().sum();
        let sum: f64 = mem.f64_vec(arrays.out_sum).iter().sum();
        let (want_cnt, want_sum) = oracle(a, bt);
        assert_eq!(cnt, want_cnt, "SpMM count wrong for {label}");
        assert!(
            (sum - want_sum).abs() <= 1e-9 + 1e-9 * want_sum.abs(),
            "SpMM sum wrong for {label}: {sum} vs {want_sum}"
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phloem_workloads::matrix;

    #[test]
    fn all_variants_agree() {
        let a = matrix::random_square(40, 3.0, 1);
        let bt = matrix::random_square(40, 3.0, 2);
        let cfg = MachineConfig::paper_1core();
        for v in [
            Variant::Serial,
            Variant::DataParallel(4),
            Variant::phloem(),
            Variant::Manual,
        ] {
            let m = run(&v, &a, &bt, &cfg, "rnd").expect("SpMM run");
            assert!(m.cycles > 0, "{}", v.label());
        }
    }
}
