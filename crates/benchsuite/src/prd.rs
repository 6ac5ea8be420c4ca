//! PageRank-Delta (from Ligra): only vertices whose rank changed by more
//! than a threshold propagate their delta. Structured as two program
//! phases per iteration (the paper notes Phloem decouples such phases
//! individually and synchronizes between them):
//!
//! * **scatter**: each active vertex spreads `delta[v] / deg(v)` to its
//!   neighbors' accumulators — the irregular phase Phloem pipelines;
//! * **apply**: a streaming pass that folds accumulators into ranks and
//!   builds the next active set.
//!
//! Ranks are `f64`; the data-parallel variant uses atomic float adds, so
//! its accumulation order differs and results are compared with a
//! tolerance.

use crate::runner::{
    compile_options, data_parallel_pipeline, measure, run_rounds, serial_pipeline,
    variant_pipeline, with_sink, Fringe, Measurement, Variant,
};
use phloem_compiler::compile_static;
use phloem_ir::{
    ArrayDecl, ArrayId, BinOp, CtrlHandler, Expr, Function, FunctionBuilder, HandlerEnd, MemState,
    Pipeline, QueueId, RaConfig, RaMode, StageProgram, Trap, UnOp, Value,
};
use phloem_workloads::Graph;
use pipette_sim::{MachineConfig, Session, TraceSink};

const DONE: u32 = 0;
const NEXT: u32 = 1;
const DAMPING: f64 = 0.85;
const EPS: f64 = 1e-4;

/// Number of PRD iterations simulated (the paper samples iterations on
/// large inputs to bound simulation time; we do the same).
pub const ITERATIONS: usize = 6;

/// Array ids shared by all PRD variants (order matters).
#[derive(Clone, Copy, Debug)]
pub struct PrdArrays {
    /// Active vertex list.
    pub active: ArrayId,
    /// CSR offsets.
    pub nodes: ArrayId,
    /// CSR edges.
    pub edges: ArrayId,
    /// Per-vertex deltas.
    pub delta: ArrayId,
    /// Precomputed 1/degree.
    pub invdeg: ArrayId,
    /// Neighbor accumulators.
    pub acc: ArrayId,
    /// Ranks.
    pub rank: ArrayId,
    /// Active count.
    pub fringe_len: ArrayId,
    /// Per-thread next-active counts.
    pub out_len: ArrayId,
}

/// Allocates PRD memory: everything active with uniform initial delta.
pub fn build_mem(g: &Graph, threads: usize) -> (MemState, PrdArrays) {
    let n = g.num_vertices;
    let mut mem = MemState::new();
    let active = mem.alloc_i64(ArrayDecl::i32("active"), (0..n as i64).collect::<Vec<_>>());
    let nodes = mem.alloc_i64(ArrayDecl::i32("nodes"), g.offsets.iter().copied());
    let edges = mem.alloc_i64(ArrayDecl::i32("edges"), g.edges.iter().copied());
    let delta = mem.alloc_f64(ArrayDecl::f64("delta"), vec![1.0 / n as f64; n]);
    let invdeg = mem.alloc_f64(
        ArrayDecl::f64("invdeg"),
        (0..n).map(|v| 1.0 / g.degree(v).max(1) as f64),
    );
    let acc = mem.alloc_f64(ArrayDecl::f64("acc"), vec![0.0; n]);
    let rank = mem.alloc_f64(ArrayDecl::f64("rank"), vec![0.0; n]);
    let fringe_len = mem.alloc_i64(ArrayDecl::i32("fringe_len"), [n as i64]);
    let out_len = mem.alloc(ArrayDecl::i32("out_len"), threads.max(1));
    (
        mem,
        PrdArrays {
            active,
            nodes,
            edges,
            delta,
            invdeg,
            acc,
            rank,
            fringe_len,
            out_len,
        },
    )
}

/// Phase A (scatter) serial kernel.
pub fn scatter_kernel() -> Function {
    let mut b = FunctionBuilder::new("prd-scatter");
    let active = b.array_i32("active");
    let nodes = b.array_i32("nodes");
    let edges = b.array_i32("edges");
    let delta = b.array_f64("delta");
    let invdeg = b.array_f64("invdeg");
    let acc = b.array_f64("acc");
    let _rank = b.array_f64("rank");
    let flen = b.array_i32("fringe_len");
    let _olen = b.array_i32("out_len");
    let nl = b.var_i64("nl");
    let i = b.var_i64("i");
    let v = b.var_i64("v");
    let dv = b.var_f64("dv");
    let iv = b.var_f64("iv");
    let c = b.var_f64("c");
    let s = b.var_i64("s");
    let e = b.var_i64("e");
    let j = b.var_i64("j");
    let ngh = b.var_i64("ngh");
    let a = b.var_f64("a");
    let l = b.load(flen, Expr::i64(0));
    b.assign(nl, l);
    b.for_loop(i, Expr::i64(0), Expr::var(nl), |f| {
        let lv = f.load(active, Expr::var(i));
        f.assign(v, lv);
        let ld = f.load(delta, Expr::var(v));
        f.assign(dv, ld);
        let li = f.load(invdeg, Expr::var(v));
        f.assign(iv, li);
        f.assign(c, Expr::mul(Expr::var(dv), Expr::var(iv)));
        let ls = f.load(nodes, Expr::var(v));
        f.assign(s, ls);
        let le = f.load(nodes, Expr::add(Expr::var(v), Expr::i64(1)));
        f.assign(e, le);
        f.for_loop(j, Expr::var(s), Expr::var(e), |f| {
            let ln = f.load(edges, Expr::var(j));
            f.assign(ngh, ln);
            let la = f.load(acc, Expr::var(ngh));
            f.assign(a, la);
            f.store(acc, Expr::var(ngh), Expr::add(Expr::var(a), Expr::var(c)));
        });
    });
    b.build()
}

/// Phase B (apply) serial kernel: fold accumulators, rebuild active set.
pub fn apply_kernel() -> Function {
    let mut b = FunctionBuilder::new("prd-apply");
    let n = b.param_i64("n");
    let active = b.array_i32("active");
    let _nodes = b.array_i32("nodes");
    let _edges = b.array_i32("edges");
    let delta = b.array_f64("delta");
    let _invdeg = b.array_f64("invdeg");
    let acc = b.array_f64("acc");
    let rank = b.array_f64("rank");
    let _flen = b.array_i32("fringe_len");
    let olen = b.array_i32("out_len");
    let v = b.var_i64("v");
    let a = b.var_f64("a");
    let nd = b.var_f64("nd");
    let r = b.var_f64("r");
    let mag = b.var_f64("mag");
    let len = b.var_i64("len");
    b.for_loop(v, Expr::i64(0), Expr::var(n), |f| {
        let la = f.load(acc, Expr::var(v));
        f.assign(a, la);
        f.assign(nd, Expr::mul(Expr::var(a), Expr::f64(DAMPING)));
        f.store(acc, Expr::var(v), Expr::f64(0.0));
        f.assign(
            mag,
            Expr::bin(
                BinOp::Max,
                Expr::var(nd),
                Expr::un(UnOp::Neg, Expr::var(nd)),
            ),
        );
        f.if_then(Expr::bin(BinOp::Gt, Expr::var(mag), Expr::f64(EPS)), |f| {
            let lr = f.load(rank, Expr::var(v));
            f.assign(r, lr);
            f.store(rank, Expr::var(v), Expr::add(Expr::var(r), Expr::var(nd)));
            f.store(delta, Expr::var(v), Expr::var(nd));
            f.store(active, Expr::var(len), Expr::var(v));
            f.assign(len, Expr::add(Expr::var(len), Expr::i64(1)));
        });
    });
    b.store(olen, Expr::i64(0), Expr::var(len));
    b.build()
}

/// Data-parallel scatter: active list partitioned, atomic adds into acc.
pub fn dp_scatter(tid: usize, threads: usize) -> Function {
    let mut b = FunctionBuilder::new(format!("prd-scatter{tid}"));
    let active = b.array_i32("active");
    let nodes = b.array_i32("nodes");
    let edges = b.array_i32("edges");
    let delta = b.array_f64("delta");
    let invdeg = b.array_f64("invdeg");
    let acc = b.array_f64("acc");
    let _rank = b.array_f64("rank");
    let flen = b.array_i32("fringe_len");
    let _olen = b.array_i32("out_len");
    let nl = b.var_i64("nl");
    let lo = b.var_i64("lo");
    let hi = b.var_i64("hi");
    let i = b.var_i64("i");
    let v = b.var_i64("v");
    let dv = b.var_f64("dv");
    let iv = b.var_f64("iv");
    let c = b.var_f64("c");
    let s = b.var_i64("s");
    let e = b.var_i64("e");
    let j = b.var_i64("j");
    let ngh = b.var_i64("ngh");
    let l = b.load(flen, Expr::i64(0));
    b.assign(nl, l);
    let t = tid as i64;
    let nt = threads as i64;
    b.assign(
        lo,
        Expr::bin(
            BinOp::Div,
            Expr::mul(Expr::var(nl), Expr::i64(t)),
            Expr::i64(nt),
        ),
    );
    b.assign(
        hi,
        Expr::bin(
            BinOp::Div,
            Expr::mul(Expr::var(nl), Expr::i64(t + 1)),
            Expr::i64(nt),
        ),
    );
    b.for_loop(i, Expr::var(lo), Expr::var(hi), |f| {
        let lv = f.load(active, Expr::var(i));
        f.assign(v, lv);
        let ld = f.load(delta, Expr::var(v));
        f.assign(dv, ld);
        let li = f.load(invdeg, Expr::var(v));
        f.assign(iv, li);
        f.assign(c, Expr::mul(Expr::var(dv), Expr::var(iv)));
        let ls = f.load(nodes, Expr::var(v));
        f.assign(s, ls);
        let le = f.load(nodes, Expr::add(Expr::var(v), Expr::i64(1)));
        f.assign(e, le);
        f.for_loop(j, Expr::var(s), Expr::var(e), |f| {
            let ln = f.load(edges, Expr::var(j));
            f.assign(ngh, ln);
            f.atomic_rmw(BinOp::Add, acc, Expr::var(ngh), Expr::var(c), None);
        });
    });
    b.build()
}

/// Data-parallel apply: vertex ranges, private active segments.
pub fn dp_apply(tid: usize, threads: usize, n: usize) -> Function {
    let mut b = FunctionBuilder::new(format!("prd-apply{tid}"));
    let active = b.array_i32("active");
    let _nodes = b.array_i32("nodes");
    let _edges = b.array_i32("edges");
    let delta = b.array_f64("delta");
    let _invdeg = b.array_f64("invdeg");
    let acc = b.array_f64("acc");
    let rank = b.array_f64("rank");
    let _flen = b.array_i32("fringe_len");
    let olen = b.array_i32("out_len");
    let v = b.var_i64("v");
    let a = b.var_f64("a");
    let nd = b.var_f64("nd");
    let r = b.var_f64("r");
    let mag = b.var_f64("mag");
    let len = b.var_i64("len");
    let t = tid as i64;
    let nt = threads as i64;
    let lo = (n as i64) * t / nt;
    let hi = (n as i64) * (t + 1) / nt;
    b.for_loop(v, Expr::i64(lo), Expr::i64(hi), |f| {
        let la = f.load(acc, Expr::var(v));
        f.assign(a, la);
        f.assign(nd, Expr::mul(Expr::var(a), Expr::f64(DAMPING)));
        f.store(acc, Expr::var(v), Expr::f64(0.0));
        f.assign(
            mag,
            Expr::bin(
                BinOp::Max,
                Expr::var(nd),
                Expr::un(UnOp::Neg, Expr::var(nd)),
            ),
        );
        f.if_then(Expr::bin(BinOp::Gt, Expr::var(mag), Expr::f64(EPS)), |f| {
            let lr = f.load(rank, Expr::var(v));
            f.assign(r, lr);
            f.store(rank, Expr::var(v), Expr::add(Expr::var(r), Expr::var(nd)));
            f.store(delta, Expr::var(v), Expr::var(nd));
            f.store(
                active,
                Expr::add(Expr::i64(lo), Expr::var(len)),
                Expr::var(v),
            );
            f.assign(len, Expr::add(Expr::var(len), Expr::i64(1)));
        });
    });
    b.store(olen, Expr::i64(t), Expr::var(len));
    b.build()
}

/// Hand-optimized scatter pipeline (single-core): fetch computes the
/// per-vertex contribution, chained RAs stream `nodes`/`edges` with a
/// per-vertex `NEXT`, and the accumulate stage applies it. (The *merged*
/// middle stage appears only in the replicated configuration, Fig. 14.)
pub fn manual_scatter() -> Pipeline {
    let arrays = vec![
        ArrayDecl::i32("active"),
        ArrayDecl::i32("nodes"),
        ArrayDecl::i32("edges"),
        ArrayDecl::f64("delta"),
        ArrayDecl::f64("invdeg"),
        ArrayDecl::f64("acc"),
        ArrayDecl::f64("rank"),
        ArrayDecl::i32("fringe_len"),
        ArrayDecl::i32("out_len"),
    ];
    let qv = QueueId(0);
    let qc = QueueId(1);
    let qse = QueueId(2);
    let qn = QueueId(3);
    let mut p = Pipeline::new("prd-manual");

    // Stage 0: fetch active vertex + contribution; feed the nodes RA.
    let mut s0 = FunctionBuilder::new("fetch");
    for a in &arrays {
        s0.array(a.clone());
    }
    let (active, delta, invdeg, flen) = (ArrayId(0), ArrayId(3), ArrayId(4), ArrayId(7));
    let nl = s0.var_i64("nl");
    let i = s0.var_i64("i");
    let v = s0.var_i64("v");
    let dv = s0.var_f64("dv");
    let iv = s0.var_f64("iv");
    let l = s0.load(flen, Expr::i64(0));
    s0.assign(nl, l);
    s0.for_loop(i, Expr::i64(0), Expr::var(nl), |f| {
        let lv = f.load(active, Expr::var(i));
        f.assign(v, lv);
        let ld = f.load(delta, Expr::var(v));
        f.assign(dv, ld);
        let li = f.load(invdeg, Expr::var(v));
        f.assign(iv, li);
        f.enq(qc, Expr::mul(Expr::var(dv), Expr::var(iv)));
        f.enq(qv, Expr::var(v));
        f.enq(qv, Expr::add(Expr::var(v), Expr::i64(1)));
    });
    s0.enq_ctrl(qv, DONE);
    s0.enq_ctrl(qc, DONE);
    p.add_stage(StageProgram::plain(s0.build()), 0);

    // Chained RAs over nodes and edges, with a per-vertex NEXT.
    p.add_ra(
        RaConfig {
            name: "nodes".into(),
            mode: RaMode::Indirect,
            base: ArrayId(1),
            in_queue: qv,
            out_queue: qse,
            forward_ctrl: true,
            scan_end_ctrl: None,
        },
        &arrays,
        0,
    );
    p.add_ra(
        RaConfig {
            name: "edges".into(),
            mode: RaMode::Scan,
            base: ArrayId(2),
            in_queue: qse,
            out_queue: qn,
            forward_ctrl: true,
            scan_end_ctrl: Some(NEXT),
        },
        &arrays,
        0,
    );

    // Stage 2: accumulate.
    let mut s2 = FunctionBuilder::new("accumulate");
    for a in &arrays {
        s2.array(a.clone());
    }
    let acc = ArrayId(5);
    let c2 = s2.var_f64("c");
    let ngh = s2.var_i64("ngh");
    let a2 = s2.var_f64("a");
    s2.while_true(|f| {
        f.deq(c2, qc);
        f.while_true(|f| {
            f.deq(ngh, qn);
            let la = f.load(acc, Expr::var(ngh));
            f.assign(a2, la);
            f.store(acc, Expr::var(ngh), Expr::add(Expr::var(a2), Expr::var(c2)));
        });
    });
    let h2 = vec![
        CtrlHandler {
            queue: qn,
            ctrl: Some(NEXT),
            bind: None,
            body: vec![],
            end: HandlerEnd::BreakLoops(1),
        },
        CtrlHandler {
            queue: qc,
            ctrl: Some(DONE),
            bind: None,
            body: vec![],
            end: HandlerEnd::BreakLoops(1),
        },
    ];
    p.add_stage(
        StageProgram {
            func: s2.build(),
            handlers: h2,
        },
        0,
    );
    p
}

/// Builds (scatter, apply) pipelines for a variant.
///
/// # Errors
/// Propagates Phloem compile errors.
pub fn pipelines_for(
    variant: &Variant,
    n: usize,
    cfg: &MachineConfig,
) -> Result<(Pipeline, Pipeline), phloem_compiler::CompileError> {
    let scatter = variant_pipeline(variant, cfg, scatter_kernel, dp_scatter, manual_scatter)?;
    let apply = match variant {
        Variant::DataParallel(t) => data_parallel_pipeline(
            (0..*t).map(|k| dp_apply(k, *t, n)).collect(),
            cfg.smt_threads,
        ),
        Variant::Phloem { passes, .. } => {
            compile_static(&apply_kernel(), 2, &compile_options(cfg, *passes))?
        }
        // The apply phase is regular; serial and manual share it.
        _ => serial_pipeline(apply_kernel()),
    };
    Ok((scatter, apply))
}

/// Runs PRD for up to [`ITERATIONS`] iterations and checks ranks against
/// the serial reference (tolerance for reordered float accumulation in
/// the data-parallel variant).
///
/// Runtime failures (watchdog traps, injected faults) surface as
/// `Err(Trap)`; a rank divergence still panics, as it means the variant
/// miscompiled.
pub fn run(
    variant: &Variant,
    g: &Graph,
    cfg: &MachineConfig,
    input: &str,
) -> Result<Measurement, Trap> {
    run_opt_traced(variant, g, cfg, input, None).0
}

/// Like [`run`], with a [`TraceSink`] observing every pipeline
/// invocation (both the scatter and apply phases); the sink is returned
/// even when the run traps.
pub fn run_traced(
    variant: &Variant,
    g: &Graph,
    cfg: &MachineConfig,
    input: &str,
    sink: Box<dyn TraceSink>,
) -> (Result<Measurement, Trap>, Box<dyn TraceSink>) {
    with_sink(run_opt_traced(variant, g, cfg, input, Some(sink)))
}

/// The round loop's view of [`PrdArrays`]: the active list is
/// compacted in place, thread `t`'s survivors starting at its slice of
/// the `n` vertices.
pub(crate) fn fringe(arrays: &PrdArrays, threads: usize, n: usize) -> Fringe {
    Fringe {
        fringe: arrays.active,
        fringe_len: arrays.fringe_len,
        next: arrays.active,
        out_len: arrays.out_len,
        starts: (0..threads)
            .map(|t| (n as i64) * t as i64 / threads as i64)
            .collect(),
    }
}

/// Runs up to [`ITERATIONS`] scatter + apply iterations, stopping early
/// once no vertex is active.
pub(crate) fn iterate(
    session: &mut Session,
    fringe: &Fringe,
    n: usize,
    scatter: &Pipeline,
    apply: &Pipeline,
) -> Result<(), Trap> {
    run_rounds(
        session,
        fringe,
        n as i64,
        ITERATIONS as u64,
        |session, _| {
            session.run(scatter, &[])?;
            session.run(apply, &[("n", Value::I64(n as i64))])?;
            Ok(())
        },
    )?;
    Ok(())
}

/// The single run entry [`run`] and [`run_traced`] wrap (and the app
/// table in [`crate::apps`] calls): `sink`, when given, observes every
/// pipeline invocation and is handed back even when the run traps.
pub fn run_opt_traced(
    variant: &Variant,
    g: &Graph,
    cfg: &MachineConfig,
    input: &str,
    sink: Option<Box<dyn TraceSink>>,
) -> (Result<Measurement, Trap>, Option<Box<dyn TraceSink>>) {
    let threads = variant.threads();
    let n = g.num_vertices;
    let (scatter, apply) = pipelines_for(variant, n, cfg).expect("PRD pipelines");
    let (mem, arrays) = build_mem(g, threads);
    let fringe = fringe(&arrays, threads, n);
    let (r, sink) = measure(variant.label(), input, cfg, mem, sink, |session| {
        iterate(session, &fringe, n, &scatter, &apply)
    });
    let checked = r.map(|(m, mem)| {
        let reference = oracle(g);
        for (i, (a, b)) in mem.f64_vec(arrays.rank).iter().zip(&reference).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 + 1e-6 * b.abs(),
                "{}: rank[{i}] = {a} vs {b}",
                m.variant
            );
        }
        m
    });
    (checked, sink)
}

/// Host oracle mirroring the serial schedule exactly.
pub fn oracle(g: &Graph) -> Vec<f64> {
    let n = g.num_vertices;
    let mut delta = vec![1.0 / n as f64; n];
    let mut acc = vec![0.0; n];
    let mut rank = vec![0.0; n];
    let mut active: Vec<usize> = (0..n).collect();
    for _ in 0..ITERATIONS {
        if active.is_empty() {
            break;
        }
        for &v in &active {
            let c = delta[v] * (1.0 / g.degree(v).max(1) as f64);
            for &w in g.neighbors(v) {
                acc[w as usize] += c;
            }
        }
        let mut next = Vec::new();
        for v in 0..n {
            let nd = acc[v] * DAMPING;
            acc[v] = 0.0;
            if nd.max(-nd) > EPS {
                rank[v] += nd;
                delta[v] = nd;
                next.push(v);
            }
        }
        active = next;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use phloem_workloads::graph;

    #[test]
    fn all_variants_agree() {
        let g = graph::power_law(250, 3, 8);
        let cfg = MachineConfig::paper_1core();
        for v in [
            Variant::Serial,
            Variant::DataParallel(4),
            Variant::phloem(),
            Variant::Manual,
        ] {
            let m = run(&v, &g, &cfg, "pl").expect("PRD run");
            assert!(m.cycles > 0, "{}", v.label());
        }
    }
}
