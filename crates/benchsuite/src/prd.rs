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
//!
//! PRD's own: its arrays ([`arrays`]), the per-vertex payload
//! (`contribution`: `delta[v] * invdeg[v]`), its update rule
//! (`accumulate`), the apply phase and its oracle. The scatter
//! traversal around them is `crate::frontier`'s.

use crate::frontier::{self, Part, RowWalk, Segment};
use crate::runner::{
    compile_fitted, data_parallel_pipeline, measure, run_rounds, serial_pipeline, variant_pipeline,
    Fringe, Measurement, Ran, Sink, Variant,
};
use phloem_ir::{
    ArrayDecl, ArrayId, BinOp, Expr, Function, FunctionBuilder, MemState, Pipeline, QueueId,
    StageProgram, Trap, UnOp, Value, VarId,
};
use phloem_workloads::Graph;
use pipette_sim::{CompiledPipeline, MachineConfig, Session};

const DAMPING: f64 = 0.85;
const EPS: f64 = 1e-4;

/// Number of PRD iterations simulated (the paper samples iterations on
/// large inputs to bound simulation time; we do the same).
pub const ITERATIONS: usize = 6;

/// PRD's arrays, in allocation order: the one declaration every variant
/// of both phases and [`build_mem`] share.
pub fn arrays() -> Vec<ArrayDecl> {
    vec![
        ArrayDecl::i32("active"),
        ArrayDecl::i32("nodes"),
        ArrayDecl::i32("edges"),
        ArrayDecl::f64("delta"),
        ArrayDecl::f64("invdeg"),
        ArrayDecl::f64("acc"),
        ArrayDecl::f64("rank"),
        ArrayDecl::i32("fringe_len"),
        ArrayDecl::i32("out_len"),
    ]
}

/// The ids [`arrays`] gives PRD's arrays.
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

impl PrdArrays {
    /// Looks every id up by name in [`arrays`]; no memory needed.
    pub fn ids() -> PrdArrays {
        let decls = arrays();
        let id = |name| frontier::array_id(&decls, name);
        PrdArrays {
            active: id("active"),
            nodes: id("nodes"),
            edges: id("edges"),
            delta: id("delta"),
            invdeg: id("invdeg"),
            acc: id("acc"),
            rank: id("rank"),
            fringe_len: id("fringe_len"),
            out_len: id("out_len"),
        }
    }
}

/// Allocates PRD memory: everything active with uniform initial delta.
pub fn build_mem(g: &Graph, threads: usize) -> (MemState, PrdArrays) {
    let n = g.num_vertices;
    let mut mem = MemState::new();
    for decl in arrays() {
        match decl.name.as_str() {
            "active" => mem.alloc_i64(decl, 0..n as i64),
            "delta" => mem.alloc_f64(decl, vec![1.0 / n as f64; n]),
            "invdeg" => mem.alloc_f64(decl, (0..n).map(|v| 1.0 / g.degree(v).max(1) as f64)),
            "acc" | "rank" => mem.alloc_f64(decl, vec![0.0; n]),
            "fringe_len" => mem.alloc_i64(decl, [n as i64]),
            _ => frontier::alloc_graph_array(&mut mem, decl, g, threads),
        };
    }
    (mem, PrdArrays::ids())
}

/// PRD's per-vertex payload: loads `dv = delta[v]` and `iv = invdeg[v]`
/// and returns the share `dv * iv` each neighbour receives.
pub(crate) fn contribution(f: &mut FunctionBuilder, a: &PrdArrays, v: VarId) -> Expr {
    let dv = f.var_f64("dv");
    let iv = f.var_f64("iv");
    frontier::load_to(f, dv, a.delta, v);
    frontier::load_to(f, iv, a.invdeg, v);
    Expr::mul(Expr::var(dv), Expr::var(iv))
}

/// PRD's per-edge rule: `acc[ngh] += share`, as a load and a store or as
/// one atomic add.
pub(crate) fn accumulate(
    f: &mut FunctionBuilder,
    a: &PrdArrays,
    ngh: VarId,
    share: Expr,
    atomic: bool,
) {
    if atomic {
        f.atomic_rmw(BinOp::Add, a.acc, Expr::var(ngh), share, None);
        return;
    }
    let sum = f.var_f64("a");
    frontier::load_to(f, sum, a.acc, ngh);
    f.store(a.acc, Expr::var(ngh), Expr::add(Expr::var(sum), share));
}

/// Phase A (scatter) over the whole active list with plain adds
/// (`None`), or over thread `part`'s slice with atomic adds.
fn scatter_over(part: Option<Part>) -> Function {
    let a = PrdArrays::ids();
    let name = match part {
        None => "prd-scatter".into(),
        Some(p) => format!("prd-scatter{}", p.index),
    };
    let mut b = frontier::stage(name, &arrays());
    let span = frontier::fringe_slice(&mut b, a.fringe_len, part);
    frontier::for_each_vertex(&mut b, a.active, span, |f, v| {
        let share = contribution(f, &a, v);
        let c = f.var_f64("c");
        f.assign(c, share);
        let walk = RowWalk::declare(f);
        walk.fetch(f, a.nodes, v);
        walk.for_each_edge(f, a.edges, |f, ngh| {
            accumulate(f, &a, ngh, Expr::var(c), part.is_some())
        });
    });
    b.build()
}

/// Phase A (scatter) serial kernel.
pub fn scatter_kernel() -> Function {
    scatter_over(None)
}

/// Phase B (apply): fold accumulators into ranks and rebuild the active
/// set — over all `n` vertices (a launch parameter) when `part` is
/// `None`, else over thread `part`'s range of a host-known `n`, its
/// survivors compacted from the start of that range.
pub(crate) fn apply_over(part: Option<(Part, usize)>) -> Function {
    let a = PrdArrays::ids();
    let name = match part {
        None => "prd-apply".into(),
        Some((p, _)) => format!("prd-apply{}", p.index),
    };
    let mut b = frontier::stage(name, &arrays());
    let (span, out) = match part {
        None => {
            let n = b.param_i64("n");
            let out = Segment::serial(a.active, a.out_len);
            ((Expr::i64(0), Expr::var(n)), out)
        }
        Some((Part { index: t, of }, n)) => {
            let (lo, hi) = (n * t / of, n * (t + 1) / of);
            let out = Segment::at(a.active, a.out_len, lo, t);
            ((Expr::i64(lo as i64), Expr::i64(hi as i64)), out)
        }
    };
    let v = b.var_i64("v");
    let acc = b.var_f64("a");
    let nd = b.var_f64("nd");
    let r = b.var_f64("r");
    let mag = b.var_f64("mag");
    let len = b.var_i64("len");
    b.for_loop(v, span.0, span.1, |f| {
        frontier::load_to(f, acc, a.acc, v);
        f.assign(nd, Expr::mul(Expr::var(acc), Expr::f64(DAMPING)));
        f.store(a.acc, Expr::var(v), Expr::f64(0.0));
        let neg = Expr::un(UnOp::Neg, Expr::var(nd));
        f.assign(mag, Expr::bin(BinOp::Max, Expr::var(nd), neg));
        f.if_then(Expr::bin(BinOp::Gt, Expr::var(mag), Expr::f64(EPS)), |f| {
            frontier::load_to(f, r, a.rank, v);
            f.store(a.rank, Expr::var(v), Expr::add(Expr::var(r), Expr::var(nd)));
            f.store(a.delta, Expr::var(v), Expr::var(nd));
            out.append(f, len, v);
        });
    });
    out.publish(&mut b, len);
    b.build()
}

/// Phase B (apply) serial kernel.
pub fn apply_kernel() -> Function {
    apply_over(None)
}

/// Hand-optimized scatter pipeline (single-core): fetch computes the
/// per-vertex contribution, chained RAs stream `nodes`/`edges` with a
/// per-vertex `NEXT`, and the accumulate stage applies it. (The *merged*
/// middle stage appears only in the replicated configuration, Fig. 14.)
pub fn manual_scatter() -> Pipeline {
    let (arrays, a) = (arrays(), PrdArrays::ids());
    let [qv, qc, qse, qn] = [QueueId(0), QueueId(1), QueueId(2), QueueId(3)];
    let mut p = Pipeline::new("prd-manual");

    // Fetch active vertex + contribution; feed the nodes RA.
    let s0 = frontier::stage("fetch", &arrays);
    let active = (a.active, a.fringe_len);
    let fetch = frontier::fetch_stage(s0, active, None, &[qv, qc], |f, v| {
        let share = contribution(f, &a, v);
        f.enq(qc, share);
        frontier::request_row(f, qv, v);
    });
    p.add_stage(fetch, 0);

    let csr = (a.nodes, a.edges);
    let next = Some(frontier::NEXT);
    frontier::add_csr_ras(&mut p, &arrays, csr, [qv, qse, qn], next, "", 0);

    let mut s2 = frontier::stage("accumulate", &arrays);
    let c = s2.var_f64("c");
    let ((), handlers) = frontier::grouped_consumer(&mut s2, c, (qc, qn), |f, ngh| {
        accumulate(f, &a, ngh, Expr::var(c), false)
    });
    let func = s2.build();
    p.add_stage(StageProgram { func, handlers }, 0);
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
    let dp_scatter = |index, of| scatter_over(Some(Part { index, of }));
    let scatter = variant_pipeline(variant, cfg, scatter_kernel, dp_scatter, manual_scatter)?;
    let apply = match variant {
        Variant::DataParallel(t) => dp_apply_pipeline(*t, n, cfg),
        Variant::Phloem { passes, .. } => compile_fitted(&apply_kernel(), 2, cfg, *passes)?,
        // The apply phase is regular; serial and manual share it.
        _ => serial_pipeline(apply_kernel()),
    };
    Ok((scatter, apply))
}

/// The apply phase across `threads` data-parallel threads of `n` vertices.
pub(crate) fn dp_apply_pipeline(threads: usize, n: usize, cfg: &MachineConfig) -> Pipeline {
    let of = threads;
    let part = |index| apply_over(Some((Part { index, of }, n)));
    data_parallel_pipeline((0..threads).map(part).collect(), cfg.smt_threads)
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
    let pipelines = pipelines_for(variant, g.num_vertices, cfg).expect("PRD pipelines");
    let (threads, label) = (variant.threads(), variant.label());
    run_pipelines(&pipelines, threads, label, g, cfg, input, sink)
}

/// PRD's iteration loop, Fig. 9's and Fig. 14's: runs `scatter` then
/// `apply` over `producers` active-list slices for up to [`ITERATIONS`]
/// iterations, stopping early once no vertex is active, then checks
/// ranks (within a tolerance for reordered float accumulation).
pub(crate) fn run_pipelines(
    (scatter, apply): &(Pipeline, Pipeline),
    producers: usize,
    label: String,
    g: &Graph,
    cfg: &MachineConfig,
    input: &str,
    sink: Option<Sink>,
) -> Ran {
    let n = g.num_vertices;
    let (mem, arrays) = build_mem(g, producers);
    // The active list is compacted in place: producer `t`'s survivors
    // start at its slice of the `n` vertices.
    let fringe = Fringe {
        fringe: arrays.active,
        fringe_len: arrays.fringe_len,
        next: arrays.active,
        out_len: arrays.out_len,
        starts: (0..producers)
            .map(|t| (n as i64) * t as i64 / producers as i64)
            .collect(),
    };
    let body = |session: &mut Session| {
        // Lower both phases once, not once per iteration.
        let scatter_code = CompiledPipeline::new(scatter)?;
        let apply_code = CompiledPipeline::new(apply)?;
        let rounds = ITERATIONS as u64;
        run_rounds(session, &fringe, n as i64, rounds, |session, _| {
            session.run_compiled(scatter, &scatter_code, &[])?;
            session.run_compiled(apply, &apply_code, &[("n", Value::I64(n as i64))])?;
            Ok(())
        })?;
        Ok(())
    };
    measure(label, input, cfg, mem, sink, body, |mem, label| {
        let want = oracle(g);
        for (i, (a, b)) in mem.f64_vec(arrays.rank).iter().zip(&want).enumerate() {
            let ok = (a - b).abs() <= 1e-9 + 1e-6 * b.abs();
            assert!(ok, "{label}: rank[{i}] = {a} vs {b}");
        }
    })
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
