//! Replicated pipelines for the multicore experiments (Fig. 14):
//! BFS, CC, PageRank-Delta, and Radii on 4 cores x 4 SMT threads.
//!
//! Each core hosts one pipeline replica working on a slice of the input;
//! a *distribute* boundary routes per-edge work to the replica owning
//! the destination vertex (`ngh % R`), making the pipeline tail
//! destination-centric (Fig. 7). Payloads that must travel with a
//! neighbor are packed into one 64-bit word (`v << 32 | ngh`), so tuples
//! survive cross-replica queue interleaving. Update stages count one
//! `DONE` per producer replica before finishing.
//!
//! Structures follow Sec. VII-B: BFS/CC replicate the 4-stage pipeline
//! (with chained RAs for BFS) four times; the manual CC forwards stale
//! labels from the fetch stage; Radii's best pipeline is *2 stages
//! replicated eight times* (two replicas per core); the manual PRD
//! merges the middle stages to make room for a second level of stage
//! replication (two update threads per core).
//!
//! Both columns are hand-built, in the shape `phloem_compiler::replicate`
//! emits (private queues per replica, `enq_sel` on the distributed queue,
//! `DONE` broadcast, a `_dones` count on each consumer); the pass itself
//! is not called here — ROADMAP's parked compiler work records what it
//! lacks. Every builder is the same composition per replica — fetch a
//! slice → (RAs | visit) → distribute → update — of
//! [`crate::frontier`]'s fragments around the app's own arrays, payload
//! and update rule; what is written out below is only what differs per
//! app and per variant.

use crate::frontier::{self, Part, RowWalk, Segment, DONE};
use crate::runner::{measure, run_to_fixpoint, Measurement};
use crate::{bfs, cc, prd, radii};
use phloem_ir::{
    ArrayId, Expr, FunctionBuilder, Pipeline, QueueId, StageProgram, Trap, Value, VarId,
};
use phloem_workloads::Graph;
use pipette_sim::{CompiledPipeline, MachineConfig};

/// Replicated-system variants for Fig. 14.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepVariant {
    /// Phloem with `#pragma replicate` + `#pragma distribute`.
    Phloem,
    /// The hand-tuned replicated pipeline.
    Manual,
}

fn rep_label(variant: RepVariant) -> String {
    format!("replicated-{variant:?}")
}

/// Replica `index` of `of`: its slice of the fringe.
fn replica(index: usize, of: usize) -> Option<Part> {
    Some(Part { index, of })
}

/// A visit stage: dequeues a vertex word from `input`, has `split` turn
/// it into the vertex whose row to walk and the payload to forward, and
/// distributes every neighbour under that payload to the update stage
/// owning it. On `DONE` it tells every consumer.
fn visit_stage(
    mut b: FunctionBuilder,
    word: &str,
    input: QueueId,
    (nodes, edges): (ArrayId, ArrayId),
    consumers: &[QueueId],
    split: impl FnOnce(&mut FunctionBuilder, VarId) -> (VarId, Expr),
) -> StageProgram {
    let word = b.var_i64(word);
    let walk = RowWalk::declare(&mut b);
    b.while_true(|f| {
        f.deq(word, input);
        let (key, payload) = split(f, word);
        walk.fetch(f, nodes, key);
        walk.for_each_edge(f, edges, |f, ngh| {
            frontier::distribute(f, consumers, ngh, Some(payload));
        });
    });
    let handlers = vec![frontier::forward_done(input, consumers)];
    let func = b.build();
    StageProgram { func, handlers }
}

/// The split of a visit stage whose word is the vertex itself.
fn vertex_is_payload(_: &mut FunctionBuilder, v: VarId) -> (VarId, Expr) {
    (v, Expr::var(v))
}

// ---------------------------------------------------------------------
// BFS
// ---------------------------------------------------------------------

/// Replicated BFS: per core `r`: fetch(slice) -> RA(nodes) -> RA(edges)
/// -> router -> ... every router distributes neighbors to the update
/// stage owning `ngh % R`. The manual version is structurally identical
/// (the hand version's per-vertex NEXT cannot cross the boundary and is
/// dropped by the tuner as well); its fetch enqueues `v`/`v+1` by hand.
pub fn bfs_replicated(replicas: usize, _variant: RepVariant) -> Pipeline {
    let (arrays, a) = (bfs::arrays(), bfs::BfsArrays::ids());
    // Queues per replica: v, se, ngh (local), upd.
    let q = |k: u16, r: usize| QueueId(k + 4 * r as u16);
    let upd: Vec<QueueId> = (0..replicas).map(|r| q(3, r)).collect();
    let mut p = Pipeline::new(format!("bfs-rep{replicas}"));

    for r in 0..replicas {
        let mut s0 = frontier::stage(format!("fetch@r{r}"), &arrays);
        s0.param_i64("cur_dist");
        let fringe = (a.fringe, a.fringe_len);
        let part = replica(r, replicas);
        let fetch = frontier::fetch_stage(s0, fringe, part, &[q(0, r)], |f, v| {
            frontier::request_row(f, q(0, r), v)
        });
        p.add_stage(fetch, r);

        let (csr, chain) = ((a.nodes, a.edges), [q(0, r), q(1, r), q(2, r)]);
        frontier::add_csr_ras(&mut p, &arrays, csr, chain, None, &format!("@r{r}"), r);

        // Router: distribute neighbors by destination.
        let mut s2 = frontier::stage(format!("router@r{r}"), &arrays);
        s2.param_i64("cur_dist");
        let x = s2.var_i64("x");
        s2.while_true(|f| {
            f.deq(x, q(2, r));
            frontier::distribute(f, &upd, x, None);
        });
        let handlers = vec![frontier::forward_done(q(2, r), &upd)];
        let func = s2.build();
        p.add_stage(StageProgram { func, handlers }, r);

        // Update (owns dist/next_fringe partition r).
        let mut s3 = frontier::stage(format!("update@r{r}"), &arrays);
        let cd = s3.param_i64("cur_dist");
        let seg = s3.param_i64("seg");
        let out = Segment::of_replica(a.next_fringe, a.out_len, r, seg);
        let ngh = s3.var_i64("ngh");
        let len = frontier::forever(&mut s3, |f| {
            f.deq(ngh, q(3, r));
            bfs::update(f, &a, cd, ngh, &out, false)
        });
        out.publish(&mut s3, len);
        p.add_stage(frontier::counted_consumer(s3, q(3, r), replicas), r);
    }
    p
}

/// Runs replicated BFS on `cores` cores; verifies distances.
///
/// Runtime failures surface as `Err(Trap)`; wrong distances still
/// panic (miscompile).
pub fn run_bfs_replicated(
    variant: RepVariant,
    g: &Graph,
    root: usize,
    cfg: &MachineConfig,
    input: &str,
) -> Result<Measurement, Trap> {
    let replicas = cfg.cores;
    let pipeline = bfs_replicated(replicas, variant);
    let (mem, arrays) = bfs::build_mem(g, root, replicas);
    let n = g.num_vertices;
    let fringe = bfs::fringe(&arrays, replicas, n);
    let what = "replicated BFS";
    let (m, mem) = measure(rep_label(variant), input, cfg, mem, None, |session| {
        let compiled = CompiledPipeline::new(&pipeline)?;
        run_to_fixpoint(session, &fringe, 1, 100_000, what, |session, k| {
            let params = [
                ("cur_dist", Value::I64(k as i64 + 1)),
                ("seg", Value::I64(n as i64)),
            ];
            session.run_compiled(&pipeline, &compiled, &params)?;
            Ok(())
        })
    })
    .0?;
    assert_eq!(
        mem.i64_vec(arrays.dist),
        g.bfs_distances(root),
        "replicated BFS distances wrong"
    );
    Ok(m)
}

// ---------------------------------------------------------------------
// CC
// ---------------------------------------------------------------------

/// Replicated CC, 3 stages x R. Phloem's update re-reads `labels[v]` per
/// edge (packed `v`); the manual version reads the label once in the
/// fetch stage — stale, which a monotone fixpoint tolerates — and packs
/// the *label itself*, saving a load per edge.
pub fn cc_replicated(replicas: usize, variant: RepVariant) -> Pipeline {
    let (arrays, a) = (cc::arrays(), cc::CcArrays::ids());
    let manual = variant == RepVariant::Manual;
    // Queues per replica: v-stream, upd.
    let q = |k: u16, r: usize| QueueId(k + 2 * r as u16);
    let upd: Vec<QueueId> = (0..replicas).map(|r| q(1, r)).collect();
    let mut p = Pipeline::new(format!("cc-rep{replicas}-{variant:?}"));

    for r in 0..replicas {
        // Fetch: the vertex, or for manual `(lv << 32) | v`.
        let mut s0 = frontier::stage(format!("fetch@r{r}"), &arrays);
        s0.param_i64("seg");
        let fringe = (a.fringe, a.fringe_len);
        let part = replica(r, replicas);
        let fetch = frontier::fetch_stage(s0, fringe, part, &[q(0, r)], |f, v| {
            let lv = f.var_i64("lv");
            if manual {
                frontier::load_to(f, lv, a.labels, v);
                f.enq(q(0, r), frontier::pack(Expr::var(lv), Expr::var(v)));
            } else {
                f.enq(q(0, r), Expr::var(v));
            }
        });
        p.add_stage(fetch, r);

        // Visit: manual walks the row of the word's low half and forwards
        // its high half, the stale label.
        let mut s1 = frontier::stage(format!("visit@r{r}"), &arrays);
        s1.param_i64("seg");
        let csr = (a.nodes, a.edges);
        let visit = visit_stage(s1, "pv", q(0, r), csr, &upd, |f, pv| {
            if !manual {
                return vertex_is_payload(f, pv);
            }
            let vv = f.var_i64("vv");
            f.assign(vv, frontier::low_half(pv));
            (vv, frontier::high_half(pv))
        });
        p.add_stage(visit, r);

        // Update: owns labels partition r.
        let mut s2 = frontier::stage(format!("update@r{r}"), &arrays);
        let seg = s2.param_i64("seg");
        let out = Segment::of_replica(a.next_fringe, a.out_len, r, seg);
        let len = frontier::forever(&mut s2, |f| {
            let (ngh, pay) = frontier::deq_packed(f, q(1, r), "pay");
            let lv = f.var_i64("lv");
            if manual {
                f.assign(lv, Expr::var(pay));
            } else {
                frontier::load_to(f, lv, a.labels, pay);
            }
            cc::update(f, &a, lv, ngh, &out, false)
        });
        out.publish(&mut s2, len);
        p.add_stage(frontier::counted_consumer(s2, q(1, r), replicas), r);
    }
    p
}

/// Runs replicated CC; verifies labels.
///
/// Runtime failures surface as `Err(Trap)`; wrong labels still panic
/// (miscompile).
pub fn run_cc_replicated(
    variant: RepVariant,
    g: &Graph,
    cfg: &MachineConfig,
    input: &str,
) -> Result<Measurement, Trap> {
    let replicas = cfg.cores;
    let pipeline = cc_replicated(replicas, variant);
    let (mem, arrays) = cc::build_mem(g, replicas);
    let seg = Value::I64(cc::segment(g) as i64);
    let fringe = cc::fringe(&arrays, replicas, g);
    let len = g.num_vertices as i64;
    let what = "replicated CC";
    let (m, mem) = measure(rep_label(variant), input, cfg, mem, None, |session| {
        let compiled = CompiledPipeline::new(&pipeline)?;
        run_to_fixpoint(session, &fringe, len, 1_000_000, what, |session, _| {
            session.run_compiled(&pipeline, &compiled, &[("seg", seg)])?;
            Ok(())
        })
    })
    .0?;
    assert_eq!(
        mem.i64_vec(arrays.labels),
        cc::oracle(g),
        "replicated CC labels wrong ({variant:?})"
    );
    Ok(m)
}

// ---------------------------------------------------------------------
// Radii: 2 stages x 2R replicas (Phloem) vs 3 stages x R (manual)
// ---------------------------------------------------------------------

/// Replicas of the Radii pipeline on `cores` cores.
fn radii_replicas(cores: usize, variant: RepVariant) -> usize {
    match variant {
        RepVariant::Phloem => cores * 2,
        RepVariant::Manual => cores,
    }
}

/// Replicated Radii. The Phloem configuration is the paper's winner:
/// *2 stages (plus RAs), replicated eight times across four cores* —
/// here 2 compute stages x `2R` replicas, two replicas per core, fetch
/// and visit merged into one stage. The manual configuration replicates
/// a 3-stage pipeline once per core.
pub fn radii_replicated(cores: usize, variant: RepVariant) -> Pipeline {
    let (arrays, a) = (radii::arrays(), radii::RadiiArrays::ids());
    let replicas = radii_replicas(cores, variant);
    let merged = variant == RepVariant::Phloem;
    // Queues per replica: v-stream, (ngh-local, unused), upd.
    let q = |k: u16, r: usize| QueueId(k + 3 * r as u16);
    let upd: Vec<QueueId> = (0..replicas).map(|r| q(2, r)).collect();
    let mut p = Pipeline::new(format!("radii-rep-{variant:?}"));
    let params = |b: &mut FunctionBuilder| (b.param_i64("seg"), b.param_i64("round"));

    for r in 0..replicas {
        let core = if merged { r / 2 } else { r };
        let mut s0 = frontier::stage(format!("fetch@r{r}"), &arrays);
        params(&mut s0);
        let (fringe, csr) = ((a.fringe, a.fringe_len), (a.nodes, a.edges));
        let part = replica(r, replicas);
        if merged {
            // Fetch walks each row itself and ends every update stream.
            let fetch = frontier::fetch_stage(s0, fringe, part, &upd, |f, v| {
                let walk = RowWalk::declare(f);
                walk.fetch(f, a.nodes, v);
                walk.for_each_edge(f, a.edges, |f, ngh| {
                    frontier::distribute(f, &upd, ngh, Some(Expr::var(v)));
                });
            });
            p.add_stage(fetch, core);
        } else {
            let fetch = frontier::fetch_stage(s0, fringe, part, &[q(0, r)], |f, v| {
                f.enq(q(0, r), Expr::var(v))
            });
            p.add_stage(fetch, core);
            let mut s1 = frontier::stage(format!("visit@r{r}"), &arrays);
            params(&mut s1);
            let visit = visit_stage(s1, "v", q(0, r), csr, &upd, vertex_is_payload);
            p.add_stage(visit, core);
        }

        let mut s2 = frontier::stage(format!("update@r{r}"), &arrays);
        let (seg, round) = params(&mut s2);
        let out = Segment::of_replica(a.next_fringe, a.out_len, r, seg);
        let len = frontier::forever(&mut s2, |f| {
            let (ngh, v) = frontier::deq_packed(f, q(2, r), "v");
            let mv = f.var_i64("mv");
            frontier::load_to(f, mv, a.visited, v);
            radii::update(f, &a, (mv, round), ngh, &out, false)
        });
        out.publish(&mut s2, len);
        p.add_stage(frontier::counted_consumer(s2, q(2, r), replicas), core);
    }
    p
}

/// Runs replicated Radii; verifies radii against the oracle.
///
/// Runtime failures surface as `Err(Trap)`; radii mismatches still
/// panic (miscompile).
pub fn run_radii_replicated(
    variant: RepVariant,
    g: &Graph,
    cfg: &MachineConfig,
    input: &str,
) -> Result<Measurement, Trap> {
    let pipeline = radii_replicated(cfg.cores, variant);
    let replicas = radii_replicas(cfg.cores, variant);
    let (mem, arrays) = radii::build_mem(g, replicas);
    let seg = Value::I64(radii::segment(g) as i64);
    let fringe = radii::fringe(&arrays, replicas, g);
    let len = radii::sources(g).len() as i64;
    let what = "replicated radii";
    let (m, mem) = measure(rep_label(variant), input, cfg, mem, None, |session| {
        let compiled = CompiledPipeline::new(&pipeline)?;
        run_to_fixpoint(session, &fringe, len, 1_000_000, what, |session, k| {
            let params = [("round", Value::I64(k as i64 + 1)), ("seg", seg)];
            session.run_compiled(&pipeline, &compiled, &params)?;
            radii::swap_visited(session, &arrays);
            Ok(())
        })
    })
    .0?;
    assert_eq!(
        mem.i64_vec(arrays.radii),
        radii::oracle(g),
        "replicated radii wrong ({variant:?})"
    );
    Ok(m)
}

// ---------------------------------------------------------------------
// PageRank-Delta
// ---------------------------------------------------------------------

/// Replicated PRD scatter phase. The Phloem version replicates 3 stages
/// per core (fetch, visit, update); the manual version merges the middle
/// stages and uses the freed thread for a *second level* of update
/// replication (two update threads per core, selected by `ngh % 2R`).
pub fn prd_scatter_replicated(cores: usize, variant: RepVariant) -> Pipeline {
    let (arrays, a) = (prd::arrays(), prd::PrdArrays::ids());
    let per_core = match variant {
        RepVariant::Phloem => 1,
        RepVariant::Manual => 2,
    };
    let updates = cores * per_core;
    let q = |k: u16, r: usize| QueueId(k + 3 * r as u16);
    let upd: Vec<QueueId> = (0..updates).map(|u| q(2, u)).collect();
    let mut p = Pipeline::new(format!("prd-rep-{variant:?}"));

    for r in 0..cores {
        // Fetch forwards each active vertex as loaded, without naming it.
        let mut s0 = frontier::stage(format!("fetch@r{r}"), &arrays);
        let (lo, hi) = frontier::fringe_slice(&mut s0, a.fringe_len, replica(r, cores));
        let i = s0.var_i64("i");
        s0.for_loop(i, lo, hi, |f| {
            let lv = f.load(a.active, Expr::var(i));
            f.enq(q(0, r), lv);
        });
        s0.enq_ctrl(q(0, r), DONE);
        p.add_stage(StageProgram::plain(s0.build()), r);

        let s1 = frontier::stage(format!("visit@r{r}"), &arrays);
        let csr = (a.nodes, a.edges);
        let visit = visit_stage(s1, "v", q(0, r), csr, &upd, vertex_is_payload);
        p.add_stage(visit, r);
    }

    // Update stages (one per core for Phloem; two per core manual).
    for u in 0..updates {
        let mut s2 = frontier::stage(format!("update@u{u}"), &arrays);
        frontier::forever(&mut s2, |f| {
            let (ngh, v) = frontier::deq_packed(f, q(2, u), "v");
            let share = prd::contribution(f, &a, v);
            prd::accumulate(f, &a, ngh, share, false);
        });
        let update = frontier::counted_consumer(s2, q(2, u), cores);
        p.add_stage(update, u / per_core);
    }
    p
}

/// Runs replicated PRD (scatter replicated; apply data-parallel across
/// all threads); verifies ranks with a tolerance (cross-replica float
/// accumulation order differs).
///
/// Runtime failures surface as `Err(Trap)`; rank divergence still
/// panics (miscompile).
pub fn run_prd_replicated(
    variant: RepVariant,
    g: &Graph,
    cfg: &MachineConfig,
    input: &str,
) -> Result<Measurement, Trap> {
    let threads = cfg.cores * cfg.smt_threads;
    let n = g.num_vertices;
    let scatter = prd_scatter_replicated(cfg.cores, variant);
    let apply = prd::dp_apply_pipeline(threads, n, cfg);
    let (mem, arrays) = prd::build_mem(g, threads);
    let fringe = prd::fringe(&arrays, threads, n);
    let (m, mem) = measure(rep_label(variant), input, cfg, mem, None, |session| {
        prd::iterate(session, &fringe, n, &scatter, &apply)
    })
    .0?;
    let ranks = mem.f64_vec(arrays.rank);
    let want = prd::oracle(g);
    for (i, (a, b)) in ranks.iter().zip(&want).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 + 1e-6 * b.abs(),
            "prd-rep {variant:?}: rank[{i}] {a} vs {b}"
        );
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phloem_workloads::graph;

    #[test]
    fn replicated_bfs_is_correct_on_4_cores() {
        let g = graph::mesh(14, 2);
        let cfg = MachineConfig::paper_multicore(4);
        let m = run_bfs_replicated(RepVariant::Phloem, &g, 0, &cfg, "mesh").expect("bfs-rep");
        assert!(m.cycles > 0);
    }

    #[test]
    fn replicated_cc_both_variants_correct() {
        let g = graph::collaboration(40, 9);
        let cfg = MachineConfig::paper_multicore(4);
        for v in [RepVariant::Phloem, RepVariant::Manual] {
            let m = run_cc_replicated(v, &g, &cfg, "collab").expect("cc-rep");
            assert!(m.cycles > 0, "{v:?}");
        }
    }

    #[test]
    fn replicated_radii_both_variants_correct() {
        let g = graph::mesh(10, 4);
        let cfg = MachineConfig::paper_multicore(4);
        for v in [RepVariant::Phloem, RepVariant::Manual] {
            let m = run_radii_replicated(v, &g, &cfg, "mesh").expect("radii-rep");
            assert!(m.cycles > 0, "{v:?}");
        }
    }

    #[test]
    fn replicated_prd_both_variants_correct() {
        let g = graph::power_law(150, 3, 6);
        let cfg = MachineConfig::paper_multicore(4);
        for v in [RepVariant::Phloem, RepVariant::Manual] {
            let m = run_prd_replicated(v, &g, &cfg, "pl").expect("prd-rep");
            assert!(m.cycles > 0, "{v:?}");
        }
    }
}
