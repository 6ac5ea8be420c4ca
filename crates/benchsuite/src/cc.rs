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
//!
//! CC's own: its arrays ([`arrays`]), the per-vertex payload `labels[v]`
//! (and where each variant loads it), its update rule (`update`:
//! write-min of that label into `labels`) and its oracle. The traversal
//! around them is `crate::frontier`'s.

use crate::frontier::{self, Part, RowWalk, Segment};
use crate::runner::{
    measure, run_to_fixpoint, variant_pipeline, Fringe, Measurement, Ran, Sink, Variant,
};
use phloem_ir::{
    ArrayDecl, ArrayId, Expr, Function, FunctionBuilder, MemState, Pipeline, QueueId, StageProgram,
    Trap, Value, VarId,
};
use phloem_workloads::Graph;
use pipette_sim::{CompiledPipeline, MachineConfig, Session};

/// CC's arrays, in allocation order: the one declaration every variant
/// and [`build_mem`] share.
pub fn arrays() -> Vec<ArrayDecl> {
    let names = [
        "fringe",
        "nodes",
        "edges",
        "labels",
        "next_fringe",
        "fringe_len",
        "out_len",
    ];
    names.map(ArrayDecl::i32).to_vec()
}

/// The ids [`arrays`] gives CC's arrays.
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

impl CcArrays {
    /// Looks every id up by name in [`arrays`]; no memory needed.
    pub fn ids() -> CcArrays {
        let decls = arrays();
        let id = |name| frontier::array_id(&decls, name);
        CcArrays {
            fringe: id("fringe"),
            nodes: id("nodes"),
            edges: id("edges"),
            labels: id("labels"),
            next_fringe: id("next_fringe"),
            fringe_len: id("fringe_len"),
            out_len: id("out_len"),
        }
    }
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
    for decl in arrays() {
        match decl.name.as_str() {
            "fringe" => {
                // The fringe itself can also grow up to `seg` entries in
                // one round.
                let mut fringe0: Vec<i64> = (0..n as i64).collect();
                fringe0.resize(seg, 0);
                mem.alloc_i64(decl, fringe0)
            }
            "labels" => mem.alloc_i64(decl, 0..n as i64),
            "next_fringe" => mem.alloc(decl, seg * threads.max(1)),
            "fringe_len" => mem.alloc_i64(decl, [n as i64]),
            _ => frontier::alloc_graph_array(&mut mem, decl, g, threads),
        };
    }
    (mem, CcArrays::ids())
}

/// CC's per-edge rule: a neighbour whose label is above `lv` takes `lv`
/// and joins the next fringe in `out`. Returns the count variable.
pub(crate) fn update(
    f: &mut FunctionBuilder,
    a: &CcArrays,
    lv: VarId,
    ngh: VarId,
    out: &Segment,
    atomic: bool,
) -> VarId {
    frontier::write_min(f, a.labels, ngh, lv, "ln", out, atomic)
}

/// Serial one-round CC kernel.
pub fn kernel() -> Function {
    let a = CcArrays::ids();
    let mut b = frontier::stage("cc", &arrays());
    let out = Segment::serial(a.next_fringe, a.out_len);
    let span = frontier::fringe_slice(&mut b, a.fringe_len, None);
    let len = frontier::for_each_vertex(&mut b, a.fringe, span, |f, v| {
        let lv = f.var_i64("lv");
        let walk = RowWalk::declare(f);
        walk.fetch(f, a.nodes, v);
        frontier::load_to(f, lv, a.labels, v);
        walk.for_each_edge(f, a.edges, |f, ngh| update(f, &a, lv, ngh, &out, false))
    });
    out.publish(&mut b, len);
    b.build()
}

/// Data-parallel per-thread kernel: atomic-min on labels. (It reads
/// `labels[v]` before the row bounds, the serial kernel after.)
fn dp_kernel(tid: usize, threads: usize, segment: usize) -> Function {
    let a = CcArrays::ids();
    let mut b = frontier::stage(format!("cc-dp{tid}"), &arrays());
    let out = Segment::at(a.next_fringe, a.out_len, tid * segment, tid);
    let part = Part {
        index: tid,
        of: threads,
    };
    let span = frontier::fringe_slice(&mut b, a.fringe_len, Some(part));
    let len = frontier::for_each_vertex(&mut b, a.fringe, span, |f, v| {
        let lv = f.var_i64("lv");
        frontier::load_to(f, lv, a.labels, v);
        let walk = RowWalk::declare(f);
        walk.fetch(f, a.nodes, v);
        walk.for_each_edge(f, a.edges, |f, ngh| update(f, &a, lv, ngh, &out, true))
    });
    out.publish(&mut b, len);
    b.build()
}

/// Hand-optimized pipeline: stale `labels[v]` forwarded from the fetch
/// stage (see module docs).
pub fn manual_pipeline() -> Pipeline {
    let (arrays, a) = (arrays(), CcArrays::ids());
    let [qv, qse, qn, qlv] = [QueueId(0), QueueId(1), QueueId(2), QueueId(3)];
    let mut p = Pipeline::new("cc-manual");

    let s0 = frontier::stage("fetch", &arrays);
    let fringe = (a.fringe, a.fringe_len);
    let fetch = frontier::fetch_stage(s0, fringe, None, &[qv, qlv], |f, v| {
        // Stale label read — safe for a monotone fixpoint.
        let lv = f.var_i64("lv");
        frontier::load_to(f, lv, a.labels, v);
        f.enq(qlv, Expr::var(lv));
        frontier::request_row(f, qv, v);
    });
    p.add_stage(fetch, 0);

    let csr = (a.nodes, a.edges);
    let next = Some(frontier::NEXT);
    frontier::add_csr_ras(&mut p, &arrays, csr, [qv, qse, qn], next, "", 0);

    let mut s3 = frontier::stage("update", &arrays);
    let lv = s3.var_i64("lv");
    let out = Segment::serial(a.next_fringe, a.out_len);
    let (len, handlers) = frontier::grouped_consumer(&mut s3, lv, (qlv, qn), |f, ngh| {
        update(f, &a, lv, ngh, &out, false)
    });
    out.publish(&mut s3, len);
    let func = s3.build();
    p.add_stage(StageProgram { func, handlers }, 0);
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
    let pipeline = pipeline_for(variant, segment(g), cfg).expect("CC pipeline");
    let (threads, label) = (variant.threads(), variant.label());
    run_pipeline(&pipeline, threads, label, g, cfg, input, sink)
}

/// CC's round loop, Fig. 9's and Fig. 14's: runs `pipeline` over
/// `producers` next-fringe segments until the fringe drains, passing the
/// segment stride `seg` (only replicated stages declare it), then checks
/// labels.
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
    let what = format!("CC {label}");
    let (len, seg) = (g.num_vertices as i64, Value::I64(stride as i64));
    let body = |session: &mut Session| {
        let compiled = CompiledPipeline::new(pipeline)?;
        run_to_fixpoint(session, &fringe, len, 1_000_000, &what, |session, _| {
            session.run_compiled(pipeline, &compiled, &[("seg", seg)])?;
            Ok(())
        })
    };
    measure(label, input, cfg, mem, sink, body, |mem, label| {
        let got = mem.i64_vec(a.labels);
        assert_eq!(got, oracle(g), "CC labels wrong for {label}");
    })
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
