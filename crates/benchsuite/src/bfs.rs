//! Breadth-First Search (Sec. II): the paper's running example.
//!
//! The kernel processes one fringe round; the host swaps fringes between
//! rounds (the paper's Phloem likewise synchronizes stages between
//! program phases). Variants:
//!
//! * **serial** — the Fig. 2 (left) loop nest;
//! * **data-parallel** — work-efficient PBFS-style: the fringe is
//!   partitioned across threads, distance updates use atomic-min, and
//!   each thread appends to a private next-fringe segment;
//! * **phloem** — compiled from the serial kernel;
//! * **manual** — the hand-optimized Pipette pipeline [34]: fetch fringe
//!   (enqueuing `v` and `v+1`), chained INDIRECT/SCAN RAs over
//!   `nodes`/`edges`, and an update stage. The hand version keeps a
//!   per-vertex `NEXT` control value that Phloem's inter-stage DCE
//!   removes — which is how Phloem ends up slightly ahead (Fig. 9).

use crate::runner::{
    measure, run_to_fixpoint, variant_pipeline, with_sink, Fringe, Measurement, Variant,
};
use phloem_ir::{
    ArrayDecl, ArrayId, BinOp, CtrlHandler, Expr, Function, FunctionBuilder, HandlerEnd, MemState,
    Pipeline, QueueId, RaConfig, RaMode, StageProgram, Trap, Value,
};
use phloem_workloads::Graph;
use pipette_sim::{CompiledPipeline, MachineConfig, TraceSink};

const DONE: u32 = 0;
const NEXT: u32 = 1;
const INF: i64 = i64::MAX;

/// Array order shared by all BFS variants (ids must match the kernel).
#[derive(Clone, Copy, Debug)]
pub struct BfsArrays {
    /// Current fringe.
    pub fringe: ArrayId,
    /// CSR offsets.
    pub nodes: ArrayId,
    /// CSR edges.
    pub edges: ArrayId,
    /// Distances.
    pub dist: ArrayId,
    /// Next fringe.
    pub next_fringe: ArrayId,
    /// `fringe_len[0]` = current fringe length.
    pub fringe_len: ArrayId,
    /// `out_len[t]` = next-fringe length (per thread for data-parallel).
    pub out_len: ArrayId,
}

/// Allocates BFS memory for a graph. `nf_segment` is the per-thread
/// next-fringe capacity (use `n` for single-producer variants).
pub fn build_mem(g: &Graph, root: usize, threads: usize) -> (MemState, BfsArrays) {
    let n = g.num_vertices;
    let mut mem = MemState::new();
    let mut fringe0 = vec![0i64; n.max(1)];
    fringe0[0] = root as i64;
    let fringe = mem.alloc_i64(ArrayDecl::i32("fringe"), fringe0);
    let nodes = mem.alloc_i64(ArrayDecl::i32("nodes"), g.offsets.iter().copied());
    let edges = mem.alloc_i64(ArrayDecl::i32("edges"), g.edges.iter().copied());
    let mut dist0 = vec![INF; n];
    dist0[root] = 0;
    let dist = mem.alloc_i64(ArrayDecl::i32("dist"), dist0);
    let next_fringe = mem.alloc(ArrayDecl::i32("next_fringe"), n.max(1) * threads.max(1));
    let fringe_len = mem.alloc_i64(ArrayDecl::i32("fringe_len"), [1i64]);
    let out_len = mem.alloc(ArrayDecl::i32("out_len"), threads.max(1));
    (
        mem,
        BfsArrays {
            fringe,
            nodes,
            edges,
            dist,
            next_fringe,
            fringe_len,
            out_len,
        },
    )
}

/// The serial one-round BFS kernel (Fig. 2 left, one fringe pass).
pub fn kernel() -> Function {
    let mut b = FunctionBuilder::new("bfs");
    let cd = b.param_i64("cur_dist");
    let fringe = b.array_i32("fringe");
    let nodes = b.array_i32("nodes");
    let edges = b.array_i32("edges");
    let dist = b.array_i32("dist");
    let nf = b.array_i32("next_fringe");
    let flen = b.array_i32("fringe_len");
    let olen = b.array_i32("out_len");
    let nl = b.var_i64("nl");
    let i = b.var_i64("i");
    let v = b.var_i64("v");
    let s = b.var_i64("s");
    let e = b.var_i64("e");
    let j = b.var_i64("j");
    let ngh = b.var_i64("ngh");
    let od = b.var_i64("od");
    let len = b.var_i64("len");
    let l = b.load(flen, Expr::i64(0));
    b.assign(nl, l);
    b.for_loop(i, Expr::i64(0), Expr::var(nl), |f| {
        let lv = f.load(fringe, Expr::var(i));
        f.assign(v, lv);
        let ls = f.load(nodes, Expr::var(v));
        f.assign(s, ls);
        let le = f.load(nodes, Expr::add(Expr::var(v), Expr::i64(1)));
        f.assign(e, le);
        f.for_loop(j, Expr::var(s), Expr::var(e), |f| {
            let ln = f.load(edges, Expr::var(j));
            f.assign(ngh, ln);
            let lo = f.load(dist, Expr::var(ngh));
            f.assign(od, lo);
            f.if_then(Expr::bin(BinOp::Gt, Expr::var(od), Expr::var(cd)), |f| {
                f.store(dist, Expr::var(ngh), Expr::var(cd));
                f.store(nf, Expr::var(len), Expr::var(ngh));
                f.assign(len, Expr::add(Expr::var(len), Expr::i64(1)));
            });
        });
    });
    b.store(olen, Expr::i64(0), Expr::var(len));
    b.build()
}

/// Data-parallel (PBFS-style) per-thread kernel: thread `tid` of
/// `threads` processes a slice of the fringe, updates distances with
/// atomic-min, and appends winners to its private next-fringe segment.
pub fn dp_kernel(tid: usize, threads: usize, segment: usize) -> Function {
    let mut b = FunctionBuilder::new(format!("bfs-dp{tid}"));
    let cd = b.param_i64("cur_dist");
    let fringe = b.array_i32("fringe");
    let nodes = b.array_i32("nodes");
    let edges = b.array_i32("edges");
    let dist = b.array_i32("dist");
    let nf = b.array_i32("next_fringe");
    let flen = b.array_i32("fringe_len");
    let olen = b.array_i32("out_len");
    let nl = b.var_i64("nl");
    let lo = b.var_i64("lo");
    let hi = b.var_i64("hi");
    let i = b.var_i64("i");
    let v = b.var_i64("v");
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
        let lv = f.load(fringe, Expr::var(i));
        f.assign(v, lv);
        let ls = f.load(nodes, Expr::var(v));
        f.assign(s, ls);
        let le = f.load(nodes, Expr::add(Expr::var(v), Expr::i64(1)));
        f.assign(e, le);
        f.for_loop(j, Expr::var(s), Expr::var(e), |f| {
            let ln = f.load(edges, Expr::var(j));
            f.assign(ngh, ln);
            f.atomic_rmw(BinOp::Min, dist, Expr::var(ngh), Expr::var(cd), Some(old));
            f.if_then(Expr::bin(BinOp::Gt, Expr::var(old), Expr::var(cd)), |f| {
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

/// The hand-optimized Pipette pipeline (see module docs).
pub fn manual_pipeline() -> Pipeline {
    let arrays = vec![
        ArrayDecl::i32("fringe"),
        ArrayDecl::i32("nodes"),
        ArrayDecl::i32("edges"),
        ArrayDecl::i32("dist"),
        ArrayDecl::i32("next_fringe"),
        ArrayDecl::i32("fringe_len"),
        ArrayDecl::i32("out_len"),
    ];
    let qv = QueueId(0);
    let qse = QueueId(1);
    let qn = QueueId(2);
    let mut p = Pipeline::new("bfs-manual");

    // Stage 0: fetch fringe, enqueue v and v+1 for the nodes RA.
    let mut s0 = FunctionBuilder::new("fetch-fringe");
    let _cd0 = s0.param_i64("cur_dist");
    let fringe = s0.array_i32("fringe");
    for a in &arrays[1..] {
        s0.array(a.clone());
    }
    let flen = ArrayId(5);
    let nl = s0.var_i64("nl");
    let i = s0.var_i64("i");
    let v = s0.var_i64("v");
    let l = s0.load(flen, Expr::i64(0));
    s0.assign(nl, l);
    s0.for_loop(i, Expr::i64(0), Expr::var(nl), |f| {
        let lv = f.load(fringe, Expr::var(i));
        f.assign(v, lv);
        f.enq(qv, Expr::var(v));
        f.enq(qv, Expr::add(Expr::var(v), Expr::i64(1)));
    });
    s0.enq_ctrl(qv, DONE);
    p.add_stage(StageProgram::plain(s0.build()), 0);

    // Chained RAs: nodes (INDIRECT) then edges (SCAN), the latter
    // emitting a per-vertex NEXT the hand version kept.
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

    // Stage 3: update.
    let mut s3 = FunctionBuilder::new("update");
    let cd = s3.param_i64("cur_dist");
    for a in &arrays {
        s3.array(a.clone());
    }
    let dist = ArrayId(3);
    let nf = ArrayId(4);
    let olen = ArrayId(6);
    let ngh = s3.var_i64("ngh");
    let od = s3.var_i64("od");
    let len = s3.var_i64("len");
    s3.while_true(|f| {
        f.deq(ngh, qn);
        let lo = f.load(dist, Expr::var(ngh));
        f.assign(od, lo);
        f.if_then(Expr::bin(BinOp::Gt, Expr::var(od), Expr::var(cd)), |f| {
            f.store(dist, Expr::var(ngh), Expr::var(cd));
            f.store(nf, Expr::var(len), Expr::var(ngh));
            f.assign(len, Expr::add(Expr::var(len), Expr::i64(1)));
        });
    });
    s3.store(olen, Expr::i64(0), Expr::var(len));
    let update = s3.build();
    let handlers = vec![
        CtrlHandler {
            queue: qn,
            ctrl: Some(NEXT),
            bind: None,
            body: vec![],
            end: HandlerEnd::Resume,
        },
        CtrlHandler {
            queue: qn,
            ctrl: Some(DONE),
            bind: None,
            body: vec![],
            end: HandlerEnd::BreakLoops(1),
        },
    ];
    p.add_stage(
        StageProgram {
            func: update,
            handlers,
        },
        0,
    );
    p
}

/// Builds the pipeline for a variant (serial and manual included).
///
/// # Errors
/// Propagates compile errors from the Phloem variants.
pub fn pipeline_for(
    variant: &Variant,
    n_vertices: usize,
    cfg: &MachineConfig,
) -> Result<Pipeline, phloem_compiler::CompileError> {
    variant_pipeline(
        variant,
        cfg,
        kernel,
        |tid, threads| dp_kernel(tid, threads, n_vertices),
        manual_pipeline,
    )
}

/// Runs BFS to completion (all rounds) and verifies distances against
/// the host oracle.
///
/// Runtime failures (watchdog traps, fault-injected kills, convergence
/// stalls) surface as `Err(Trap)`; an oracle mismatch still panics, as
/// it means the variant miscompiled.
pub fn run(
    variant: &Variant,
    g: &Graph,
    root: usize,
    cfg: &MachineConfig,
    input: &str,
) -> Result<Measurement, Trap> {
    run_opt_traced(variant, g, root, cfg, input, None).0
}

/// Like [`run`], with a [`TraceSink`] observing every pipeline
/// invocation. The sink is returned even when the run traps, so callers
/// can inspect the partial trace of a failed run.
pub fn run_traced(
    variant: &Variant,
    g: &Graph,
    root: usize,
    cfg: &MachineConfig,
    input: &str,
    sink: Box<dyn TraceSink>,
) -> (Result<Measurement, Trap>, Box<dyn TraceSink>) {
    with_sink(run_opt_traced(variant, g, root, cfg, input, Some(sink)))
}

/// The round loop's view of [`BfsArrays`]: `threads` next-fringe
/// segments of `segment` entries each.
pub(crate) fn fringe(arrays: &BfsArrays, threads: usize, segment: usize) -> Fringe {
    Fringe::strided(
        arrays.fringe,
        arrays.fringe_len,
        arrays.next_fringe,
        arrays.out_len,
        threads,
        segment,
    )
}

/// The single run entry [`run`] and [`run_traced`] wrap (and the app
/// table in [`crate::apps`] calls): `sink`, when given, observes every
/// pipeline invocation and is handed back even when the run traps.
pub fn run_opt_traced(
    variant: &Variant,
    g: &Graph,
    root: usize,
    cfg: &MachineConfig,
    input: &str,
    sink: Option<Box<dyn TraceSink>>,
) -> (Result<Measurement, Trap>, Option<Box<dyn TraceSink>>) {
    let threads = variant.threads();
    let pipeline = pipeline_for(variant, g.num_vertices, cfg).expect("BFS pipeline construction");
    let (mem, arrays) = build_mem(g, root, threads);
    let fringe = fringe(&arrays, threads, g.num_vertices);
    let what = format!("BFS {}", variant.label());
    let (r, sink) = measure(variant.label(), input, cfg, mem, sink, |session| {
        // Lower stage programs once, not once per round.
        let compiled = CompiledPipeline::new(&pipeline)?;
        run_to_fixpoint(session, &fringe, 1, 100_000, &what, |session, round| {
            let cur_dist = Value::I64(round as i64 + 1);
            session.run_compiled(&pipeline, &compiled, &[("cur_dist", cur_dist)])?;
            Ok(())
        })
    });
    let checked = r.map(|(m, mem)| {
        let want = g.bfs_distances(root);
        assert_eq!(
            mem.i64_vec(arrays.dist),
            want,
            "BFS distances wrong for {}",
            m.variant
        );
        m
    });
    (checked, sink)
}

/// Returns the kernel's load ids in program order (for explicit cuts):
/// `[fringe_len, fringe, nodes, nodes+1, edges, dist]`.
pub fn kernel_loads() -> Vec<phloem_ir::LoadId> {
    phloem_compiler::analyze(&kernel())
        .loads
        .iter()
        .map(|l| l.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phloem_workloads::graph;

    #[test]
    fn all_variants_agree_and_complete() {
        let g = graph::mesh(14, 3);
        let cfg = MachineConfig::paper_1core();
        for v in [
            Variant::Serial,
            Variant::DataParallel(4),
            Variant::phloem(),
            Variant::Manual,
        ] {
            let m = run(&v, &g, 0, &cfg, "mesh").expect("BFS run");
            assert!(m.cycles > 0, "{}", v.label());
        }
    }

    #[test]
    fn phloem_and_manual_beat_serial_on_irregular_graph() {
        let g = graph::power_law(3000, 4, 9);
        let cfg = MachineConfig::paper_1core();
        let serial = run(&Variant::Serial, &g, 0, &cfg, "pl").expect("serial");
        let phloem = run(&Variant::phloem(), &g, 0, &cfg, "pl").expect("phloem");
        let manual = run(&Variant::Manual, &g, 0, &cfg, "pl").expect("manual");
        assert!(
            phloem.cycles * 13 < serial.cycles * 10,
            "phloem {} vs serial {}",
            phloem.cycles,
            serial.cycles
        );
        assert!(
            manual.cycles * 13 < serial.cycles * 10,
            "manual {} vs serial {}",
            manual.cycles,
            serial.cycles
        );
    }
}
