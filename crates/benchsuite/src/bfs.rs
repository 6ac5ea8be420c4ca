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
//! * **manual** — the hand-optimized Pipette pipeline \[34\]: fetch fringe
//!   (enqueuing `v` and `v+1`), chained INDIRECT/SCAN RAs over
//!   `nodes`/`edges`, and an update stage. The hand version keeps a
//!   per-vertex `NEXT` control value that Phloem's inter-stage DCE
//!   removes — which is how Phloem ends up slightly ahead (Fig. 9).
//!
//! BFS's own: its arrays ([`arrays`]), the `cur_dist` parameter, its
//! update rule (`update`: write-min of `cur_dist` into `dist`) and its
//! oracle (`Graph::bfs_distances`). The traversal around them is
//! `crate::frontier`'s.

use crate::frontier::{self, Part, RowWalk, Segment, DONE, NEXT};
use crate::runner::{
    measure, run_to_fixpoint, variant_pipeline, Fringe, Measurement, Ran, Sink, Variant,
};
use phloem_ir::{
    ArrayDecl, ArrayId, Function, FunctionBuilder, MemState, Pipeline, QueueId, StageProgram, Trap,
    Value, VarId,
};
use phloem_workloads::Graph;
use pipette_sim::{CompiledPipeline, MachineConfig, Session};

const INF: i64 = i64::MAX;

/// BFS's arrays, in allocation order: the one declaration every variant
/// and [`build_mem`] share.
pub fn arrays() -> Vec<ArrayDecl> {
    let names = [
        "fringe",
        "nodes",
        "edges",
        "dist",
        "next_fringe",
        "fringe_len",
        "out_len",
    ];
    names.map(ArrayDecl::i32).to_vec()
}

/// The ids [`arrays`] gives BFS's arrays.
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

impl BfsArrays {
    /// Looks every id up by name in [`arrays`]; no memory needed.
    pub fn ids() -> BfsArrays {
        let decls = arrays();
        let id = |name| frontier::array_id(&decls, name);
        BfsArrays {
            fringe: id("fringe"),
            nodes: id("nodes"),
            edges: id("edges"),
            dist: id("dist"),
            next_fringe: id("next_fringe"),
            fringe_len: id("fringe_len"),
            out_len: id("out_len"),
        }
    }
}

/// Allocates BFS memory for a graph: `root` alone in the fringe at
/// distance 0, and `threads` next-fringe segments of `n` entries.
pub fn build_mem(g: &Graph, root: usize, threads: usize) -> (MemState, BfsArrays) {
    let n = g.num_vertices;
    let mut mem = MemState::new();
    for decl in arrays() {
        match decl.name.as_str() {
            "fringe" => {
                let mut fringe0 = vec![0i64; n.max(1)];
                fringe0[0] = root as i64;
                mem.alloc_i64(decl, fringe0)
            }
            "dist" => {
                let mut dist0 = vec![INF; n];
                dist0[root] = 0;
                mem.alloc_i64(decl, dist0)
            }
            "next_fringe" => mem.alloc(decl, n.max(1) * threads.max(1)),
            "fringe_len" => mem.alloc_i64(decl, [1i64]),
            _ => frontier::alloc_graph_array(&mut mem, decl, g, threads),
        };
    }
    (mem, BfsArrays::ids())
}

/// BFS's per-edge rule: a neighbour farther than `cur_dist` moves to
/// `cur_dist` and joins the next fringe in `out`. Returns the count
/// variable.
pub(crate) fn update(
    f: &mut FunctionBuilder,
    a: &BfsArrays,
    cur_dist: VarId,
    ngh: VarId,
    out: &Segment,
    atomic: bool,
) -> VarId {
    frontier::write_min(f, a.dist, ngh, cur_dist, "od", out, atomic)
}

/// One BFS round over the whole fringe with plain updates (`None`), or
/// over thread `part`'s slice with atomic-min updates, appending to its
/// private segment of `segment` entries.
fn round_kernel(part: Option<(Part, usize)>) -> Function {
    let a = BfsArrays::ids();
    let (name, out) = match part {
        None => ("bfs".into(), Segment::serial(a.next_fringe, a.out_len)),
        Some((Part { index: t, .. }, segment)) => (
            format!("bfs-dp{t}"),
            Segment::at(a.next_fringe, a.out_len, t * segment, t),
        ),
    };
    let mut b = frontier::stage(name, &arrays());
    let cd = b.param_i64("cur_dist");
    let span = frontier::fringe_slice(&mut b, a.fringe_len, part.map(|p| p.0));
    let len = frontier::for_each_vertex(&mut b, a.fringe, span, |f, v| {
        let walk = RowWalk::declare(f);
        walk.fetch(f, a.nodes, v);
        walk.for_each_edge(f, a.edges, |f, ngh| {
            update(f, &a, cd, ngh, &out, part.is_some())
        })
    });
    out.publish(&mut b, len);
    b.build()
}

/// The serial one-round BFS kernel (Fig. 2 left, one fringe pass).
pub fn kernel() -> Function {
    round_kernel(None)
}

/// The hand-optimized Pipette pipeline (see module docs).
pub fn manual_pipeline() -> Pipeline {
    let (arrays, a) = (arrays(), BfsArrays::ids());
    let [qv, qse, qn] = [QueueId(0), QueueId(1), QueueId(2)];
    let mut p = Pipeline::new("bfs-manual");

    // Fetch the fringe, asking the nodes RA for each vertex's row.
    let mut s0 = frontier::stage("fetch-fringe", &arrays);
    s0.param_i64("cur_dist");
    let fetch = frontier::fetch_stage(s0, (a.fringe, a.fringe_len), None, &[qv], |f, v| {
        frontier::request_row(f, qv, v)
    });
    p.add_stage(fetch, 0);

    // The hand version kept the per-vertex NEXT.
    let csr = (a.nodes, a.edges);
    frontier::add_csr_ras(&mut p, &arrays, csr, [qv, qse, qn], Some(NEXT), "", 0);

    let mut s3 = frontier::stage("update", &arrays);
    let cd = s3.param_i64("cur_dist");
    let ngh = s3.var_i64("ngh");
    let out = Segment::serial(a.next_fringe, a.out_len);
    let len = frontier::forever(&mut s3, |f| {
        f.deq(ngh, qn);
        update(f, &a, cd, ngh, &out, false)
    });
    out.publish(&mut s3, len);
    let handlers = vec![
        frontier::resume_on(qn, NEXT),
        frontier::break_on(qn, DONE, 1),
    ];
    let func = s3.build();
    p.add_stage(StageProgram { func, handlers }, 0);
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
        |index, of| round_kernel(Some((Part { index, of }, n_vertices))),
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

/// The round loop's view of [`BfsArrays`]: `threads` next-fringe
/// segments of `segment` entries each.
pub(crate) fn fringe(arrays: &BfsArrays, threads: usize, segment: usize) -> Fringe {
    let next = (arrays.next_fringe, arrays.out_len);
    Fringe::strided((arrays.fringe, arrays.fringe_len), next, threads, segment)
}

/// The single run entry: [`run`] wraps it, and the app table in
/// [`crate::apps`] and every traced caller call it. `sink`, when given,
/// observes every pipeline invocation and is handed back even when the
/// run traps.
pub fn run_opt_traced(
    variant: &Variant,
    g: &Graph,
    root: usize,
    cfg: &MachineConfig,
    input: &str,
    sink: Option<Sink>,
) -> Ran {
    let pipeline = pipeline_for(variant, g.num_vertices, cfg).expect("BFS pipeline construction");
    let (threads, label) = (variant.threads(), variant.label());
    run_pipeline(&pipeline, threads, label, g, root, cfg, input, sink)
}

/// BFS's round loop, Fig. 9's and Fig. 14's: runs `pipeline` from
/// `root` over `producers` next-fringe segments of `n` entries until the
/// fringe drains, passing `cur_dist` and the segment stride `seg` (only
/// replicated stages declare it), then checks distances.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_pipeline(
    pipeline: &Pipeline,
    producers: usize,
    label: String,
    g: &Graph,
    root: usize,
    cfg: &MachineConfig,
    input: &str,
    sink: Option<Sink>,
) -> Ran {
    let n = g.num_vertices;
    let (mem, arrays) = build_mem(g, root, producers);
    let fringe = fringe(&arrays, producers, n);
    let what = format!("BFS {label}");
    let body = |session: &mut Session| {
        // Lower stage programs once, not once per round.
        let compiled = CompiledPipeline::new(pipeline)?;
        run_to_fixpoint(session, &fringe, 1, 100_000, &what, |session, round| {
            let cur_dist = Value::I64(round as i64 + 1);
            let params = [("cur_dist", cur_dist), ("seg", Value::I64(n as i64))];
            session.run_compiled(pipeline, &compiled, &params)?;
            Ok(())
        })
    };
    measure(label, input, cfg, mem, sink, body, |mem, label| {
        let (got, want) = (mem.i64_vec(arrays.dist), g.bfs_distances(root));
        assert_eq!(got, want, "BFS distances wrong for {label}");
    })
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
