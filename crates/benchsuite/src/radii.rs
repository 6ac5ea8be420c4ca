//! Radii estimation (from Ligra): simultaneous BFS from K sampled
//! sources using per-vertex visitation bitmasks; a vertex's radius
//! estimate is the last round in which its mask changed. As in Ligra,
//! the masks are double-buffered (`visited` is read-only within a round,
//! `nvisited` is updated), which makes the fixpoint order-independent;
//! a per-round `radii[ngh] != round` test dedups fringe pushes. The
//! update stage reads and writes `nvisited`/`radii`, so those accesses
//! co-stage (Fig. 4), while `visited[v]` is prefetchable upstream.

use crate::runner::{
    measure, run_to_fixpoint, variant_pipeline, with_sink, Fringe, Measurement, Variant,
};
use phloem_ir::{
    ArrayDecl, ArrayId, BinOp, CtrlHandler, Expr, Function, FunctionBuilder, HandlerEnd, MemState,
    Pipeline, QueueId, RaConfig, RaMode, StageProgram, Trap, Value,
};
use phloem_workloads::Graph;
use pipette_sim::{CompiledPipeline, MachineConfig, Session, TraceSink};

const DONE: u32 = 0;
const NEXT: u32 = 1;

/// Number of simultaneously-sampled BFS sources (bits in the mask).
pub const SOURCES: usize = 32;

/// Array ids shared by all Radii variants.
#[derive(Clone, Copy, Debug)]
pub struct RadiiArrays {
    /// Current fringe.
    pub fringe: ArrayId,
    /// CSR offsets.
    pub nodes: ArrayId,
    /// CSR edges.
    pub edges: ArrayId,
    /// Visitation bitmasks (previous round; read-only in the kernel).
    pub visited: ArrayId,
    /// Visitation bitmasks being built this round.
    pub nvisited: ArrayId,
    /// Radius estimates.
    pub radii: ArrayId,
    /// Next fringe.
    pub next_fringe: ArrayId,
    /// Fringe length.
    pub fringe_len: ArrayId,
    /// Per-thread output lengths.
    pub out_len: ArrayId,
}

/// Per-thread next-fringe capacity.
pub fn segment(g: &Graph) -> usize {
    g.num_edges().max(g.num_vertices).max(4)
}

/// Picks `SOURCES` deterministic sample sources.
pub fn sources(g: &Graph) -> Vec<usize> {
    let n = g.num_vertices;
    (0..SOURCES.min(n)).map(|k| (k * 2654435761) % n).collect()
}

/// Allocates Radii memory.
pub fn build_mem(g: &Graph, threads: usize) -> (MemState, RadiiArrays) {
    let n = g.num_vertices;
    let seg = segment(g);
    let srcs = sources(g);
    let mut mem = MemState::new();
    let mut fringe0: Vec<i64> = srcs.iter().map(|&s| s as i64).collect();
    fringe0.resize(seg, 0);
    let fringe = mem.alloc_i64(ArrayDecl::i32("fringe"), fringe0);
    let nodes = mem.alloc_i64(ArrayDecl::i32("nodes"), g.offsets.iter().copied());
    let edges = mem.alloc_i64(ArrayDecl::i32("edges"), g.edges.iter().copied());
    let mut visited0 = vec![0i64; n];
    for (k, &s) in srcs.iter().enumerate() {
        visited0[s] |= 1 << k;
    }
    let visited = mem.alloc_i64(ArrayDecl::i64("visited"), visited0.clone());
    let nvisited = mem.alloc_i64(ArrayDecl::i64("nvisited"), visited0);
    let radii = mem.alloc(ArrayDecl::i32("radii"), n);
    let next_fringe = mem.alloc(ArrayDecl::i32("next_fringe"), seg * threads.max(1));
    let fringe_len = mem.alloc_i64(ArrayDecl::i32("fringe_len"), [srcs.len() as i64]);
    let out_len = mem.alloc(ArrayDecl::i32("out_len"), threads.max(1));
    (
        mem,
        RadiiArrays {
            fringe,
            nodes,
            edges,
            visited,
            nvisited,
            radii,
            next_fringe,
            fringe_len,
            out_len,
        },
    )
}

/// Serial one-round Radii kernel.
pub fn kernel() -> Function {
    let mut b = FunctionBuilder::new("radii");
    let round = b.param_i64("round");
    let fringe = b.array_i32("fringe");
    let nodes = b.array_i32("nodes");
    let edges = b.array_i32("edges");
    let visited = b.array_i64("visited");
    let nvisited = b.array_i64("nvisited");
    let radii = b.array_i32("radii");
    let nf = b.array_i32("next_fringe");
    let flen = b.array_i32("fringe_len");
    let olen = b.array_i32("out_len");
    let nl = b.var_i64("nl");
    let i = b.var_i64("i");
    let v = b.var_i64("v");
    let mv = b.var_i64("mv");
    let s = b.var_i64("s");
    let e = b.var_i64("e");
    let j = b.var_i64("j");
    let ngh = b.var_i64("ngh");
    let mn = b.var_i64("mn");
    let un = b.var_i64("un");
    let rr = b.var_i64("rr");
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
        let lmv = f.load(visited, Expr::var(v));
        f.assign(mv, lmv);
        f.for_loop(j, Expr::var(s), Expr::var(e), |f| {
            let lngh = f.load(edges, Expr::var(j));
            f.assign(ngh, lngh);
            let lmn = f.load(nvisited, Expr::var(ngh));
            f.assign(mn, lmn);
            f.assign(un, Expr::bin(BinOp::Or, Expr::var(mn), Expr::var(mv)));
            f.if_then(Expr::ne(Expr::var(un), Expr::var(mn)), |f| {
                f.store(nvisited, Expr::var(ngh), Expr::var(un));
                let lr = f.load(radii, Expr::var(ngh));
                f.assign(rr, lr);
                f.if_then(Expr::ne(Expr::var(rr), Expr::var(round)), |f| {
                    f.store(radii, Expr::var(ngh), Expr::var(round));
                    f.store(nf, Expr::var(len), Expr::var(ngh));
                    f.assign(len, Expr::add(Expr::var(len), Expr::i64(1)));
                });
            });
        });
    });
    b.store(olen, Expr::i64(0), Expr::var(len));
    b.build()
}

/// Data-parallel kernel: atomic-or on visited masks.
pub fn dp_kernel(tid: usize, threads: usize, segment: usize) -> Function {
    let mut b = FunctionBuilder::new(format!("radii-dp{tid}"));
    let round = b.param_i64("round");
    let fringe = b.array_i32("fringe");
    let nodes = b.array_i32("nodes");
    let edges = b.array_i32("edges");
    let visited = b.array_i64("visited");
    let nvisited = b.array_i64("nvisited");
    let radii = b.array_i32("radii");
    let nf = b.array_i32("next_fringe");
    let flen = b.array_i32("fringe_len");
    let olen = b.array_i32("out_len");
    let nl = b.var_i64("nl");
    let lo = b.var_i64("lo");
    let hi = b.var_i64("hi");
    let i = b.var_i64("i");
    let v = b.var_i64("v");
    let mv = b.var_i64("mv");
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
        let lmv = f.load(visited, Expr::var(v));
        f.assign(mv, lmv);
        let ls = f.load(nodes, Expr::var(v));
        f.assign(s, ls);
        let le = f.load(nodes, Expr::add(Expr::var(v), Expr::i64(1)));
        f.assign(e, le);
        f.for_loop(j, Expr::var(s), Expr::var(e), |f| {
            let lngh = f.load(edges, Expr::var(j));
            f.assign(ngh, lngh);
            f.atomic_rmw(
                BinOp::Or,
                nvisited,
                Expr::var(ngh),
                Expr::var(mv),
                Some(old),
            );
            f.if_then(
                Expr::ne(
                    Expr::bin(BinOp::Or, Expr::var(old), Expr::var(mv)),
                    Expr::var(old),
                ),
                |f| {
                    f.store(radii, Expr::var(ngh), Expr::var(round));
                    f.store(
                        nf,
                        Expr::add(Expr::i64(t * segment as i64), Expr::var(len)),
                        Expr::var(ngh),
                    );
                    f.assign(len, Expr::add(Expr::var(len), Expr::i64(1)));
                },
            );
        });
    });
    b.store(olen, Expr::i64(t), Expr::var(len));
    b.build()
}

/// Hand-optimized pipeline (stale `visited[v]` forwarded from fetch).
pub fn manual_pipeline() -> Pipeline {
    let arrays = vec![
        ArrayDecl::i32("fringe"),
        ArrayDecl::i32("nodes"),
        ArrayDecl::i32("edges"),
        ArrayDecl::i64("visited"),
        ArrayDecl::i64("nvisited"),
        ArrayDecl::i32("radii"),
        ArrayDecl::i32("next_fringe"),
        ArrayDecl::i32("fringe_len"),
        ArrayDecl::i32("out_len"),
    ];
    let qv = QueueId(0);
    let qse = QueueId(1);
    let qn = QueueId(2);
    let qmv = QueueId(3);
    let mut p = Pipeline::new("radii-manual");

    let mut s0 = FunctionBuilder::new("fetch");
    for a in &arrays {
        s0.array(a.clone());
    }
    let (fringe, visited, flen) = (ArrayId(0), ArrayId(3), ArrayId(7));
    let nl = s0.var_i64("nl");
    let i = s0.var_i64("i");
    let v = s0.var_i64("v");
    let mv = s0.var_i64("mv");
    let l = s0.load(flen, Expr::i64(0));
    s0.assign(nl, l);
    s0.for_loop(i, Expr::i64(0), Expr::var(nl), |f| {
        let lvv = f.load(fringe, Expr::var(i));
        f.assign(v, lvv);
        let lmv = f.load(visited, Expr::var(v));
        f.assign(mv, lmv);
        f.enq(qmv, Expr::var(mv));
        f.enq(qv, Expr::var(v));
        f.enq(qv, Expr::add(Expr::var(v), Expr::i64(1)));
    });
    s0.enq_ctrl(qv, DONE);
    s0.enq_ctrl(qmv, DONE);
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
    let round = s3.param_i64("round");
    for a in &arrays {
        s3.array(a.clone());
    }
    let (nvisited3, radii, nf, olen) = (ArrayId(4), ArrayId(5), ArrayId(6), ArrayId(8));
    let mv3 = s3.var_i64("mv");
    let ngh = s3.var_i64("ngh");
    let mn = s3.var_i64("mn");
    let un = s3.var_i64("un");
    let rr = s3.var_i64("rr");
    let len = s3.var_i64("len");
    s3.while_true(|f| {
        f.deq(mv3, qmv);
        f.while_true(|f| {
            f.deq(ngh, qn);
            let lmn = f.load(nvisited3, Expr::var(ngh));
            f.assign(mn, lmn);
            f.assign(un, Expr::bin(BinOp::Or, Expr::var(mn), Expr::var(mv3)));
            f.if_then(Expr::ne(Expr::var(un), Expr::var(mn)), |f| {
                f.store(nvisited3, Expr::var(ngh), Expr::var(un));
                let lr = f.load(radii, Expr::var(ngh));
                f.assign(rr, lr);
                f.if_then(Expr::ne(Expr::var(rr), Expr::var(round)), |f| {
                    f.store(radii, Expr::var(ngh), Expr::var(round));
                    f.store(nf, Expr::var(len), Expr::var(ngh));
                    f.assign(len, Expr::add(Expr::var(len), Expr::i64(1)));
                });
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
            queue: qmv,
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

/// Host oracle: radii by K simultaneous BFS (same mask algorithm).
pub fn oracle(g: &Graph) -> Vec<i64> {
    let n = g.num_vertices;
    let srcs = sources(g);
    let mut visited = vec![0u64; n];
    let mut radii = vec![0i64; n];
    let mut fringe: Vec<usize> = srcs.clone();
    for (k, &s) in srcs.iter().enumerate() {
        visited[s] |= 1 << k;
    }
    let mut nvisited = visited.clone();
    let mut round = 0;
    while !fringe.is_empty() {
        round += 1;
        let mut next = Vec::new();
        for &v in &fringe {
            let mv = visited[v];
            for &w in g.neighbors(v) {
                let w = w as usize;
                let un = nvisited[w] | mv;
                if un != nvisited[w] {
                    nvisited[w] = un;
                    if radii[w] != round {
                        radii[w] = round;
                        next.push(w);
                    }
                }
            }
        }
        visited.copy_from_slice(&nvisited);
        fringe = next;
    }
    radii
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

/// Runs Radii to convergence; verifies against the oracle.
///
/// The serial oracle and the pipelined/data-parallel versions may push
/// duplicates in different orders, but the final `radii` array is the
/// same fixpoint, so we compare it directly.
///
/// Runtime failures (watchdog traps, injected faults, convergence
/// stalls) surface as `Err(Trap)`; a radii mismatch still panics, as it
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

/// The round loop's view of [`RadiiArrays`], for `threads` producers.
pub(crate) fn fringe(arrays: &RadiiArrays, threads: usize, g: &Graph) -> Fringe {
    Fringe::strided(
        arrays.fringe,
        arrays.fringe_len,
        arrays.next_fringe,
        arrays.out_len,
        threads,
        segment(g),
    )
}

/// Double-buffer swap after a round: visited <- nvisited (host work,
/// free).
pub(crate) fn swap_visited(session: &mut Session, arrays: &RadiiArrays) {
    let nv = session.mem().values(arrays.nvisited).to_vec();
    session.mem_mut().set_values(arrays.visited, nv);
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
    let pipeline = pipeline_for(variant, segment(g), cfg).expect("radii pipeline");
    let (mem, arrays) = build_mem(g, threads);
    let fringe = fringe(&arrays, threads, g);
    let what = format!("radii {}", variant.label());
    let len = sources(g).len() as i64;
    let (r, sink) = measure(variant.label(), input, cfg, mem, sink, |session| {
        let compiled = CompiledPipeline::new(&pipeline)?;
        run_to_fixpoint(session, &fringe, len, 1_000_000, &what, |session, k| {
            let round = Value::I64(k as i64 + 1);
            session.run_compiled(&pipeline, &compiled, &[("round", round)])?;
            swap_visited(session, &arrays);
            Ok(())
        })
    });
    let checked = r.map(|(m, mem)| {
        let got = mem.i64_vec(arrays.radii);
        assert_eq!(got, oracle(g), "radii wrong for {}", m.variant);
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
        let g = graph::mesh(12, 5);
        let cfg = MachineConfig::paper_1core();
        for v in [
            Variant::Serial,
            Variant::DataParallel(4),
            Variant::phloem(),
            Variant::Manual,
        ] {
            let m = run(&v, &g, &cfg, "mesh").expect("radii run");
            assert!(m.cycles > 0, "{}", v.label());
        }
    }
}
