//! Connected Components via label propagation (derived from Ligra's CC,
//! as in the paper): every vertex starts with its own id as label; each
//! round propagates the minimum label across edges until no label
//! changes. The update stage both reads and writes `labels`, so Phloem's
//! race rule co-stages all label accesses (Fig. 4).
//!
//! The manual pipeline encodes the hand-tuner's application-specific
//! insight that label propagation tolerates *stale* reads (it is a
//! monotone fixpoint): the fetch stage forwards `labels[v]` through a
//! queue instead of the update stage re-loading it. Phloem cannot derive
//! this from serial semantics — which is why the paper's manual CC stays
//! ahead of Phloem's.

use crate::runner::{
    measure, run_to_fixpoint, variant_pipeline, with_sink, Fringe, Measurement, Variant,
};
use phloem_ir::{
    ArrayDecl, ArrayId, BinOp, CtrlHandler, Expr, Function, FunctionBuilder, HandlerEnd, MemState,
    Pipeline, QueueId, RaConfig, RaMode, StageProgram, Trap,
};
use phloem_workloads::Graph;
use pipette_sim::{CompiledPipeline, MachineConfig, TraceSink};

const DONE: u32 = 0;
const NEXT: u32 = 1;

/// Array ids shared by all CC variants.
#[derive(Clone, Copy, Debug)]
pub struct CcArrays {
    /// Current fringe.
    pub fringe: ArrayId,
    /// CSR offsets.
    pub nodes: ArrayId,
    /// CSR edges.
    pub edges: ArrayId,
    /// Component labels.
    pub labels: ArrayId,
    /// Next fringe.
    pub next_fringe: ArrayId,
    /// Fringe length.
    pub fringe_len: ArrayId,
    /// Per-thread output lengths.
    pub out_len: ArrayId,
}

/// Per-thread next-fringe capacity: a vertex may be pushed once per
/// in-edge within one round.
pub fn segment(g: &Graph) -> usize {
    g.num_edges().max(g.num_vertices).max(4)
}

/// Allocates CC memory: every vertex starts in the fringe with label = id.
pub fn build_mem(g: &Graph, threads: usize) -> (MemState, CcArrays) {
    let n = g.num_vertices;
    let seg = segment(g);
    let mut mem = MemState::new();
    // The fringe itself can also grow up to `seg` entries in one round.
    let mut fringe0: Vec<i64> = (0..n as i64).collect();
    fringe0.resize(seg, 0);
    let fringe = mem.alloc_i64(ArrayDecl::i32("fringe"), fringe0);
    let nodes = mem.alloc_i64(ArrayDecl::i32("nodes"), g.offsets.iter().copied());
    let edges = mem.alloc_i64(ArrayDecl::i32("edges"), g.edges.iter().copied());
    let labels = mem.alloc_i64(ArrayDecl::i32("labels"), (0..n as i64).collect::<Vec<_>>());
    let next_fringe = mem.alloc(ArrayDecl::i32("next_fringe"), seg * threads.max(1));
    let fringe_len = mem.alloc_i64(ArrayDecl::i32("fringe_len"), [n as i64]);
    let out_len = mem.alloc(ArrayDecl::i32("out_len"), threads.max(1));
    (
        mem,
        CcArrays {
            fringe,
            nodes,
            edges,
            labels,
            next_fringe,
            fringe_len,
            out_len,
        },
    )
}

/// Serial one-round CC kernel.
pub fn kernel() -> Function {
    let mut b = FunctionBuilder::new("cc");
    let fringe = b.array_i32("fringe");
    let nodes = b.array_i32("nodes");
    let edges = b.array_i32("edges");
    let labels = b.array_i32("labels");
    let nf = b.array_i32("next_fringe");
    let flen = b.array_i32("fringe_len");
    let olen = b.array_i32("out_len");
    let nl = b.var_i64("nl");
    let i = b.var_i64("i");
    let v = b.var_i64("v");
    let lv = b.var_i64("lv");
    let s = b.var_i64("s");
    let e = b.var_i64("e");
    let j = b.var_i64("j");
    let ngh = b.var_i64("ngh");
    let ln = b.var_i64("ln");
    let len = b.var_i64("len");
    let l = b.load(flen, Expr::i64(0));
    b.assign(nl, l);
    b.for_loop(i, Expr::i64(0), Expr::var(nl), |f| {
        let lvv = f.load(fringe, Expr::var(i));
        f.assign(v, lvv);
        let ls = f.load(nodes, Expr::var(v));
        f.assign(s, ls);
        let le = f.load(nodes, Expr::add(Expr::var(v), Expr::i64(1)));
        f.assign(e, le);
        let llv = f.load(labels, Expr::var(v));
        f.assign(lv, llv);
        f.for_loop(j, Expr::var(s), Expr::var(e), |f| {
            let lngh = f.load(edges, Expr::var(j));
            f.assign(ngh, lngh);
            let lln = f.load(labels, Expr::var(ngh));
            f.assign(ln, lln);
            f.if_then(Expr::bin(BinOp::Gt, Expr::var(ln), Expr::var(lv)), |f| {
                f.store(labels, Expr::var(ngh), Expr::var(lv));
                f.store(nf, Expr::var(len), Expr::var(ngh));
                f.assign(len, Expr::add(Expr::var(len), Expr::i64(1)));
            });
        });
    });
    b.store(olen, Expr::i64(0), Expr::var(len));
    b.build()
}

/// Data-parallel per-thread kernel: atomic-min on labels.
pub fn dp_kernel(tid: usize, threads: usize, segment: usize) -> Function {
    let mut b = FunctionBuilder::new(format!("cc-dp{tid}"));
    let fringe = b.array_i32("fringe");
    let nodes = b.array_i32("nodes");
    let edges = b.array_i32("edges");
    let labels = b.array_i32("labels");
    let nf = b.array_i32("next_fringe");
    let flen = b.array_i32("fringe_len");
    let olen = b.array_i32("out_len");
    let nl = b.var_i64("nl");
    let lo = b.var_i64("lo");
    let hi = b.var_i64("hi");
    let i = b.var_i64("i");
    let v = b.var_i64("v");
    let lv = b.var_i64("lv");
    let s = b.var_i64("s");
    let e = b.var_i64("e");
    let j = b.var_i64("j");
    let ngh = b.var_i64("ngh");
    let old = b.var_i64("old");
    let len = b.var_i64("len");
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
        let lvv = f.load(fringe, Expr::var(i));
        f.assign(v, lvv);
        let llv = f.load(labels, Expr::var(v));
        f.assign(lv, llv);
        let ls = f.load(nodes, Expr::var(v));
        f.assign(s, ls);
        let le = f.load(nodes, Expr::add(Expr::var(v), Expr::i64(1)));
        f.assign(e, le);
        f.for_loop(j, Expr::var(s), Expr::var(e), |f| {
            let lngh = f.load(edges, Expr::var(j));
            f.assign(ngh, lngh);
            f.atomic_rmw(BinOp::Min, labels, Expr::var(ngh), Expr::var(lv), Some(old));
            f.if_then(Expr::bin(BinOp::Gt, Expr::var(old), Expr::var(lv)), |f| {
                f.store(
                    nf,
                    Expr::add(Expr::i64(t * segment as i64), Expr::var(len)),
                    Expr::var(ngh),
                );
                f.assign(len, Expr::add(Expr::var(len), Expr::i64(1)));
            });
        });
    });
    b.store(olen, Expr::i64(t), Expr::var(len));
    b.build()
}

/// Hand-optimized pipeline: stale `labels[v]` forwarded from the fetch
/// stage (see module docs).
pub fn manual_pipeline() -> Pipeline {
    let arrays = vec![
        ArrayDecl::i32("fringe"),
        ArrayDecl::i32("nodes"),
        ArrayDecl::i32("edges"),
        ArrayDecl::i32("labels"),
        ArrayDecl::i32("next_fringe"),
        ArrayDecl::i32("fringe_len"),
        ArrayDecl::i32("out_len"),
    ];
    let qv = QueueId(0);
    let qse = QueueId(1);
    let qn = QueueId(2);
    let qlv = QueueId(3);
    let mut p = Pipeline::new("cc-manual");

    let mut s0 = FunctionBuilder::new("fetch");
    for a in &arrays {
        s0.array(a.clone());
    }
    let (fringe, labels, flen) = (ArrayId(0), ArrayId(3), ArrayId(5));
    let nl = s0.var_i64("nl");
    let i = s0.var_i64("i");
    let v = s0.var_i64("v");
    let lv = s0.var_i64("lv");
    let l = s0.load(flen, Expr::i64(0));
    s0.assign(nl, l);
    s0.for_loop(i, Expr::i64(0), Expr::var(nl), |f| {
        let lvv = f.load(fringe, Expr::var(i));
        f.assign(v, lvv);
        // Stale label read — safe for a monotone fixpoint.
        let llv = f.load(labels, Expr::var(v));
        f.assign(lv, llv);
        f.enq(qlv, Expr::var(lv));
        f.enq(qv, Expr::var(v));
        f.enq(qv, Expr::add(Expr::var(v), Expr::i64(1)));
    });
    s0.enq_ctrl(qv, DONE);
    s0.enq_ctrl(qlv, DONE);
    p.add_stage(StageProgram::plain(s0.build()), 0);

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

    let mut s3 = FunctionBuilder::new("update");
    for a in &arrays {
        s3.array(a.clone());
    }
    let (labels3, nf, olen) = (ArrayId(3), ArrayId(4), ArrayId(6));
    let lv3 = s3.var_i64("lv");
    let ngh = s3.var_i64("ngh");
    let ln = s3.var_i64("ln");
    let len = s3.var_i64("len");
    s3.while_true(|f| {
        f.deq(lv3, qlv);
        f.while_true(|f| {
            f.deq(ngh, qn);
            let lln = f.load(labels3, Expr::var(ngh));
            f.assign(ln, lln);
            f.if_then(Expr::bin(BinOp::Gt, Expr::var(ln), Expr::var(lv3)), |f| {
                f.store(labels3, Expr::var(ngh), Expr::var(lv3));
                f.store(nf, Expr::var(len), Expr::var(ngh));
                f.assign(len, Expr::add(Expr::var(len), Expr::i64(1)));
            });
        });
    });
    s3.store(olen, Expr::i64(0), Expr::var(len));
    let handlers = vec![
        CtrlHandler {
            queue: qn,
            ctrl: Some(NEXT),
            bind: None,
            body: vec![],
            end: HandlerEnd::BreakLoops(1),
        },
        CtrlHandler {
            queue: qlv,
            ctrl: Some(DONE),
            bind: None,
            body: vec![],
            end: HandlerEnd::BreakLoops(1),
        },
    ];
    p.add_stage(
        StageProgram {
            func: s3.build(),
            handlers,
        },
        0,
    );
    p
}

/// Host oracle: per-component minimum vertex id.
pub fn oracle(g: &Graph) -> Vec<i64> {
    let n = g.num_vertices;
    let mut labels: Vec<i64> = vec![-1; n];
    for start in 0..n {
        if labels[start] != -1 {
            continue;
        }
        let mut stack = vec![start];
        labels[start] = start as i64;
        while let Some(u) = stack.pop() {
            for &w in g.neighbors(u) {
                if labels[w as usize] == -1 {
                    labels[w as usize] = start as i64;
                    stack.push(w as usize);
                }
            }
        }
    }
    labels
}

/// Builds the pipeline for a variant.
///
/// # Errors
/// Propagates Phloem compile errors.
pub fn pipeline_for(
    variant: &Variant,
    seg: usize,
    cfg: &MachineConfig,
) -> Result<Pipeline, phloem_compiler::CompileError> {
    variant_pipeline(
        variant,
        cfg,
        kernel,
        |tid, threads| dp_kernel(tid, threads, seg),
        manual_pipeline,
    )
}

/// Runs CC to convergence and verifies labels against the oracle.
///
/// Runtime failures (watchdog traps, injected faults, convergence
/// stalls) surface as `Err(Trap)`; a label mismatch still panics, as it
/// means the variant miscompiled.
pub fn run(
    variant: &Variant,
    g: &Graph,
    cfg: &MachineConfig,
    input: &str,
) -> Result<Measurement, Trap> {
    run_opt_traced(variant, g, cfg, input, None).0
}

/// Like [`run`], with a [`TraceSink`] observing every pipeline
/// invocation; the sink is returned even when the run traps.
pub fn run_traced(
    variant: &Variant,
    g: &Graph,
    cfg: &MachineConfig,
    input: &str,
    sink: Box<dyn TraceSink>,
) -> (Result<Measurement, Trap>, Box<dyn TraceSink>) {
    with_sink(run_opt_traced(variant, g, cfg, input, Some(sink)))
}

/// The round loop's view of [`CcArrays`], for `threads` producers.
pub(crate) fn fringe(arrays: &CcArrays, threads: usize, g: &Graph) -> Fringe {
    Fringe::strided(
        arrays.fringe,
        arrays.fringe_len,
        arrays.next_fringe,
        arrays.out_len,
        threads,
        segment(g),
    )
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
    let pipeline = pipeline_for(variant, segment(g), cfg).expect("CC pipeline");
    let (mem, arrays) = build_mem(g, threads);
    let fringe = fringe(&arrays, threads, g);
    let what = format!("CC {}", variant.label());
    let len = g.num_vertices as i64;
    let (r, sink) = measure(variant.label(), input, cfg, mem, sink, |session| {
        let compiled = CompiledPipeline::new(&pipeline)?;
        run_to_fixpoint(session, &fringe, len, 1_000_000, &what, |session, _| {
            session.run_compiled(&pipeline, &compiled, &[])?;
            Ok(())
        })
    });
    let checked = r.map(|(m, mem)| {
        let got = mem.i64_vec(arrays.labels);
        assert_eq!(got, oracle(g), "CC labels wrong for {}", m.variant);
        m
    });
    (checked, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phloem_workloads::graph;

    #[test]
    fn all_variants_agree() {
        let g = graph::collaboration(60, 5);
        let cfg = MachineConfig::paper_1core();
        for v in [
            Variant::Serial,
            Variant::DataParallel(4),
            Variant::phloem(),
            Variant::Manual,
        ] {
            let m = run(&v, &g, &cfg, "collab").expect("CC run");
            assert!(m.cycles > 0, "{}", v.label());
        }
    }

    #[test]
    fn phloem_pipeline_has_expected_shape() {
        let cfg = MachineConfig::paper_1core();
        let p = pipeline_for(&Variant::phloem(), 100, &cfg).unwrap();
        // fetch -> chained RAs -> update (labels co-staged by Fig. 4 rule).
        assert_eq!(
            p.total_stages(),
            4,
            "{}",
            phloem_ir::pretty::pipeline_to_string(&p)
        );
        assert_eq!(
            p.ra_stages(),
            2,
            "{}",
            phloem_ir::pretty::pipeline_to_string(&p)
        );
    }
}
