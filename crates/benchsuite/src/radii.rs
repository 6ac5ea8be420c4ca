//! Radii estimation (from Ligra): simultaneous BFS from K sampled
//! sources using per-vertex visitation bitmasks; a vertex's radius
//! estimate is the last round in which its mask changed. As in Ligra,
//! the masks are double-buffered (`visited` is read-only within a round,
//! `nvisited` is updated), which makes the fixpoint order-independent;
//! a per-round `radii[ngh] != round` test dedups fringe pushes. The
//! update stage reads and writes `nvisited`/`radii`, so those accesses
//! co-stage (Fig. 4), while `visited[v]` is prefetchable upstream.
//!
//! Radii's own: its arrays ([`arrays`]), the per-vertex payload
//! `visited[v]`, the `round` parameter, its update rule (`update`: or
//! the mask into `nvisited[ngh]`, stamp `radii[ngh]` once per round) and
//! its oracle. The traversal around them is `crate::frontier`'s.

use crate::frontier::{self, Part, RowWalk, Segment};
use crate::runner::{
    measure, run_to_fixpoint, variant_pipeline, Fringe, Measurement, Ran, Sink, Variant,
};
use phloem_ir::{
    ArrayDecl, ArrayId, BinOp, Expr, Function, FunctionBuilder, MemState, Pipeline, QueueId,
    StageProgram, Trap, Value, VarId,
};
use phloem_workloads::Graph;
use pipette_sim::{CompiledPipeline, MachineConfig, Session};

/// Number of simultaneously-sampled BFS sources (bits in the mask).
pub const SOURCES: usize = 32;

/// Radii's arrays, in allocation order: the one declaration every
/// variant and [`build_mem`] share.
pub fn arrays() -> Vec<ArrayDecl> {
    vec![
        ArrayDecl::i32("fringe"),
        ArrayDecl::i32("nodes"),
        ArrayDecl::i32("edges"),
        ArrayDecl::i64("visited"),
        ArrayDecl::i64("nvisited"),
        ArrayDecl::i32("radii"),
        ArrayDecl::i32("next_fringe"),
        ArrayDecl::i32("fringe_len"),
        ArrayDecl::i32("out_len"),
    ]
}

/// The ids [`arrays`] gives Radii's arrays.
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

impl RadiiArrays {
    /// Looks every id up by name in [`arrays`]; no memory needed.
    pub fn ids() -> RadiiArrays {
        let decls = arrays();
        let id = |name| frontier::array_id(&decls, name);
        RadiiArrays {
            fringe: id("fringe"),
            nodes: id("nodes"),
            edges: id("edges"),
            visited: id("visited"),
            nvisited: id("nvisited"),
            radii: id("radii"),
            next_fringe: id("next_fringe"),
            fringe_len: id("fringe_len"),
            out_len: id("out_len"),
        }
    }
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
    let mut visited0 = vec![0i64; n];
    for (k, &s) in srcs.iter().enumerate() {
        visited0[s] |= 1 << k;
    }
    let mut mem = MemState::new();
    for decl in arrays() {
        match decl.name.as_str() {
            "fringe" => {
                let mut fringe0: Vec<i64> = srcs.iter().map(|&s| s as i64).collect();
                fringe0.resize(seg, 0);
                mem.alloc_i64(decl, fringe0)
            }
            "visited" | "nvisited" => mem.alloc_i64(decl, visited0.iter().copied()),
            "radii" => mem.alloc(decl, n),
            "next_fringe" => mem.alloc(decl, seg * threads.max(1)),
            "fringe_len" => mem.alloc_i64(decl, [srcs.len() as i64]),
            _ => frontier::alloc_graph_array(&mut mem, decl, g, threads),
        };
    }
    (mem, RadiiArrays::ids())
}

/// Radii's per-edge rule: or the visiting vertex's mask `mv` into
/// `nvisited[ngh]`; a neighbour whose mask grew is stamped with `round`
/// and — once per round — joins the next fringe in `out`. The `atomic`
/// form (one atomic-or) stamps and appends on every growth. Returns the
/// count variable.
pub(crate) fn update(
    f: &mut FunctionBuilder,
    a: &RadiiArrays,
    (mv, round): (VarId, VarId),
    ngh: VarId,
    out: &Segment,
    atomic: bool,
) -> VarId {
    let stamp = |f: &mut FunctionBuilder, len| {
        f.store(a.radii, Expr::var(ngh), Expr::var(round));
        out.append(f, len, ngh);
    };
    let or_mv = |mask| Expr::bin(BinOp::Or, Expr::var(mask), Expr::var(mv));
    if atomic {
        let old = f.var_i64("old");
        let len = f.var_i64("len");
        let (at, mask) = (Expr::var(ngh), Expr::var(mv));
        f.atomic_rmw(BinOp::Or, a.nvisited, at, mask, Some(old));
        f.if_then(Expr::ne(or_mv(old), Expr::var(old)), |f| stamp(f, len));
        return len;
    }
    let mn = f.var_i64("mn");
    let un = f.var_i64("un");
    let rr = f.var_i64("rr");
    let len = f.var_i64("len");
    frontier::load_to(f, mn, a.nvisited, ngh);
    f.assign(un, or_mv(mn));
    f.if_then(Expr::ne(Expr::var(un), Expr::var(mn)), |f| {
        f.store(a.nvisited, Expr::var(ngh), Expr::var(un));
        frontier::load_to(f, rr, a.radii, ngh);
        f.if_then(Expr::ne(Expr::var(rr), Expr::var(round)), |f| stamp(f, len));
    });
    len
}

/// Serial one-round Radii kernel.
pub fn kernel() -> Function {
    let a = RadiiArrays::ids();
    let mut b = frontier::stage("radii", &arrays());
    let round = b.param_i64("round");
    let out = Segment::serial(a.next_fringe, a.out_len);
    let span = frontier::fringe_slice(&mut b, a.fringe_len, None);
    let len = frontier::for_each_vertex(&mut b, a.fringe, span, |f, v| {
        let mv = f.var_i64("mv");
        let walk = RowWalk::declare(f);
        walk.fetch(f, a.nodes, v);
        frontier::load_to(f, mv, a.visited, v);
        walk.for_each_edge(f, a.edges, |f, ngh| {
            update(f, &a, (mv, round), ngh, &out, false)
        })
    });
    out.publish(&mut b, len);
    b.build()
}

/// Data-parallel kernel: atomic-or on visited masks. (It reads
/// `visited[v]` before the row bounds, the serial kernel after.)
fn dp_kernel(tid: usize, threads: usize, segment: usize) -> Function {
    let a = RadiiArrays::ids();
    let mut b = frontier::stage(format!("radii-dp{tid}"), &arrays());
    let round = b.param_i64("round");
    let out = Segment::at(a.next_fringe, a.out_len, tid * segment, tid);
    let part = Part {
        index: tid,
        of: threads,
    };
    let span = frontier::fringe_slice(&mut b, a.fringe_len, Some(part));
    let len = frontier::for_each_vertex(&mut b, a.fringe, span, |f, v| {
        let mv = f.var_i64("mv");
        frontier::load_to(f, mv, a.visited, v);
        let walk = RowWalk::declare(f);
        walk.fetch(f, a.nodes, v);
        walk.for_each_edge(f, a.edges, |f, ngh| {
            update(f, &a, (mv, round), ngh, &out, true)
        })
    });
    out.publish(&mut b, len);
    b.build()
}

/// Hand-optimized pipeline (stale `visited[v]` forwarded from fetch).
pub fn manual_pipeline() -> Pipeline {
    let (arrays, a) = (arrays(), RadiiArrays::ids());
    let [qv, qse, qn, qmv] = [QueueId(0), QueueId(1), QueueId(2), QueueId(3)];
    let mut p = Pipeline::new("radii-manual");

    let s0 = frontier::stage("fetch", &arrays);
    let fringe = (a.fringe, a.fringe_len);
    let fetch = frontier::fetch_stage(s0, fringe, None, &[qv, qmv], |f, v| {
        let mv = f.var_i64("mv");
        frontier::load_to(f, mv, a.visited, v);
        f.enq(qmv, Expr::var(mv));
        frontier::request_row(f, qv, v);
    });
    p.add_stage(fetch, 0);

    let csr = (a.nodes, a.edges);
    let next = Some(frontier::NEXT);
    frontier::add_csr_ras(&mut p, &arrays, csr, [qv, qse, qn], next, "", 0);

    let mut s3 = frontier::stage("update", &arrays);
    let round = s3.param_i64("round");
    let mv = s3.var_i64("mv");
    let out = Segment::serial(a.next_fringe, a.out_len);
    let (len, handlers) = frontier::grouped_consumer(&mut s3, mv, (qmv, qn), |f, ngh| {
        update(f, &a, (mv, round), ngh, &out, false)
    });
    out.publish(&mut s3, len);
    let func = s3.build();
    p.add_stage(StageProgram { func, handlers }, 0);
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

/// The single run entry: [`run`] wraps it, and the app table in
/// [`crate::apps`] and every traced caller call it. `sink`, when given,
/// observes every pipeline invocation and is handed back even when the
/// run traps.
pub fn run_opt_traced(
    variant: &Variant,
    g: &Graph,
    cfg: &MachineConfig,
    input: &str,
    sink: Option<Sink>,
) -> Ran {
    let pipeline = pipeline_for(variant, segment(g), cfg).expect("radii pipeline");
    let (threads, label) = (variant.threads(), variant.label());
    run_pipeline(&pipeline, threads, label, g, cfg, input, sink)
}

/// Radii's round loop, Fig. 9's and Fig. 14's: runs `pipeline` over
/// `producers` next-fringe segments until the fringe drains, passing
/// `round` and the segment stride `seg` (only replicated stages declare
/// it) and swapping `visited` after each round, then checks radii.
pub(crate) fn run_pipeline(
    pipeline: &Pipeline,
    producers: usize,
    label: String,
    g: &Graph,
    cfg: &MachineConfig,
    input: &str,
    sink: Option<Sink>,
) -> Ran {
    let (mem, a) = build_mem(g, producers);
    let stride = segment(g);
    let (cur, next) = ((a.fringe, a.fringe_len), (a.next_fringe, a.out_len));
    let fringe = Fringe::strided(cur, next, producers, stride);
    let what = format!("radii {label}");
    let (len, seg) = (sources(g).len() as i64, Value::I64(stride as i64));
    let body = |session: &mut Session| {
        let compiled = CompiledPipeline::new(pipeline)?;
        run_to_fixpoint(session, &fringe, len, 1_000_000, &what, |session, k| {
            let params = [("round", Value::I64(k as i64 + 1)), ("seg", seg)];
            session.run_compiled(pipeline, &compiled, &params)?;
            // Double-buffer swap: visited <- nvisited (host work, free).
            let nv = session.mem().values(a.nvisited);
            session.mem_mut().set_values(a.visited, &nv);
            Ok(())
        })
    };
    measure(label, input, cfg, mem, sink, body, |mem, label| {
        let got = mem.i64_vec(a.radii);
        assert_eq!(got, oracle(g), "radii wrong for {label}");
    })
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
