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

use crate::runner::{data_parallel_pipeline, measure, run_to_fixpoint, Measurement};
use phloem_ir::{
    ArrayDecl, ArrayId, BinOp, CtrlHandler, Expr, FunctionBuilder, HandlerEnd, Pipeline, QueueId,
    RaConfig, RaMode, StageProgram, Stmt, Trap, Value, VarId,
};
use phloem_workloads::Graph;
use pipette_sim::{CompiledPipeline, MachineConfig};

const DONE: u32 = 0;

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

fn pack(hi: Expr, lo: Expr) -> Expr {
    Expr::bin(BinOp::Or, Expr::bin(BinOp::Shl, hi, Expr::i64(32)), lo)
}

fn unpack_lo(b: &mut FunctionBuilder, x: VarId, dst: VarId) {
    b.assign(
        dst,
        Expr::bin(BinOp::And, Expr::var(x), Expr::i64(0xFFFF_FFFF)),
    );
}

fn unpack_hi(b: &mut FunctionBuilder, x: VarId, dst: VarId) {
    b.assign(dst, Expr::bin(BinOp::Shr, Expr::var(x), Expr::i64(32)));
}

/// A DONE-counting handler breaking `levels` loops once `producers`
/// DONEs arrived.
fn counting_handler(queue: QueueId, cnt: VarId, producers: usize, levels: u32) -> CtrlHandler {
    CtrlHandler {
        queue,
        ctrl: Some(DONE),
        bind: None,
        body: vec![Stmt::Assign {
            var: cnt,
            expr: Expr::add(Expr::var(cnt), Expr::i64(1)),
        }],
        end: HandlerEnd::BreakWhen(cnt, producers as i64, levels),
    }
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
    let arrays = vec![
        ArrayDecl::i32("fringe"),
        ArrayDecl::i32("nodes"),
        ArrayDecl::i32("edges"),
        ArrayDecl::i32("dist"),
        ArrayDecl::i32("next_fringe"),
        ArrayDecl::i32("fringe_len"),
        ArrayDecl::i32("out_len"),
    ];
    let nq = 4u16; // queues per replica: v, se, ngh(local), upd
    let q = |k: u16, r: usize| QueueId(k + nq * r as u16);
    let mut p = Pipeline::new(format!("bfs-rep{replicas}"));
    let upd_queues: Vec<QueueId> = (0..replicas).map(|r| q(3, r)).collect();

    for r in 0..replicas {
        // Fetch (slice of the fringe).
        let mut s0 = FunctionBuilder::new(format!("fetch@r{r}"));
        let _cd = s0.param_i64("cur_dist");
        for a in &arrays {
            s0.array(a.clone());
        }
        let (fringe, flen) = (ArrayId(0), ArrayId(5));
        let nl = s0.var_i64("nl");
        let lo = s0.var_i64("lo");
        let hi = s0.var_i64("hi");
        let i = s0.var_i64("i");
        let v = s0.var_i64("v");
        let l = s0.load(flen, Expr::i64(0));
        s0.assign(nl, l);
        s0.assign(
            lo,
            Expr::bin(
                BinOp::Div,
                Expr::mul(Expr::var(nl), Expr::i64(r as i64)),
                Expr::i64(replicas as i64),
            ),
        );
        s0.assign(
            hi,
            Expr::bin(
                BinOp::Div,
                Expr::mul(Expr::var(nl), Expr::i64(r as i64 + 1)),
                Expr::i64(replicas as i64),
            ),
        );
        s0.for_loop(i, Expr::var(lo), Expr::var(hi), |f| {
            let lv = f.load(fringe, Expr::var(i));
            f.assign(v, lv);
            f.enq(q(0, r), Expr::var(v));
            f.enq(q(0, r), Expr::add(Expr::var(v), Expr::i64(1)));
        });
        s0.enq_ctrl(q(0, r), DONE);
        p.add_stage(StageProgram::plain(s0.build()), r);

        // Chained RAs.
        p.add_ra(
            RaConfig {
                name: format!("nodes@r{r}"),
                mode: RaMode::Indirect,
                base: ArrayId(1),
                in_queue: q(0, r),
                out_queue: q(1, r),
                forward_ctrl: true,
                scan_end_ctrl: None,
            },
            &arrays,
            r,
        );
        p.add_ra(
            RaConfig {
                name: format!("edges@r{r}"),
                mode: RaMode::Scan,
                base: ArrayId(2),
                in_queue: q(1, r),
                out_queue: q(2, r),
                forward_ctrl: true,
                scan_end_ctrl: None,
            },
            &arrays,
            r,
        );

        // Router: distribute neighbors by destination.
        let mut s2 = FunctionBuilder::new(format!("router@r{r}"));
        let _ = s2.param_i64("cur_dist");
        for a in &arrays {
            s2.array(a.clone());
        }
        let x = s2.var_i64("x");
        s2.while_true(|f| {
            f.deq(x, q(2, r));
            f.enq_sel(upd_queues.clone(), Expr::var(x), Expr::var(x));
        });
        let done_bcast: Vec<Stmt> = upd_queues
            .iter()
            .map(|qq| Stmt::EnqCtrl {
                queue: *qq,
                ctrl: DONE,
            })
            .collect();
        p.add_stage(
            StageProgram {
                func: s2.build(),
                handlers: vec![CtrlHandler {
                    queue: q(2, r),
                    ctrl: Some(DONE),
                    bind: None,
                    body: done_bcast,
                    end: HandlerEnd::FinishStage,
                }],
            },
            r,
        );

        // Update (owns dist/next_fringe partition r).
        let mut s3 = FunctionBuilder::new(format!("update@r{r}"));
        let cd = s3.param_i64("cur_dist");
        let seg = s3.param_i64("seg");
        for a in &arrays {
            s3.array(a.clone());
        }
        let (dist, nf, olen) = (ArrayId(3), ArrayId(4), ArrayId(6));
        let ngh = s3.var_i64("ngh");
        let od = s3.var_i64("od");
        let len = s3.var_i64("len");
        let cnt = s3.var_i64("_dones");
        s3.while_true(|f| {
            f.deq(ngh, q(3, r));
            let lo2 = f.load(dist, Expr::var(ngh));
            f.assign(od, lo2);
            f.if_then(Expr::bin(BinOp::Gt, Expr::var(od), Expr::var(cd)), |f| {
                f.store(dist, Expr::var(ngh), Expr::var(cd));
                f.store(
                    nf,
                    Expr::add(
                        Expr::mul(Expr::i64(r as i64), Expr::var(seg)),
                        Expr::var(len),
                    ),
                    Expr::var(ngh),
                );
                f.assign(len, Expr::add(Expr::var(len), Expr::i64(1)));
            });
        });
        s3.store(olen, Expr::i64(r as i64), Expr::var(len));
        p.add_stage(
            StageProgram {
                func: s3.build(),
                handlers: vec![counting_handler(q(3, r), cnt, replicas, 1)],
            },
            r,
        );
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
    let (mem, arrays) = crate::bfs::build_mem(g, root, replicas);
    let n = g.num_vertices;
    let fringe = crate::bfs::fringe(&arrays, replicas, n);
    let (m, mem) = measure(rep_label(variant), input, cfg, mem, None, |session| {
        run_to_fixpoint(
            session,
            &fringe,
            1,
            100_000,
            "replicated BFS",
            |session, k| {
                let params = [
                    ("cur_dist", Value::I64(k as i64 + 1)),
                    ("seg", Value::I64(n as i64)),
                ];
                session.run(&pipeline, &params)?;
                Ok(())
            },
        )
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
// CC (and, structurally, Radii)
// ---------------------------------------------------------------------

/// Replicated CC. `replicas_per_core = 1` gives the 3-stage x R layout;
/// Phloem's update re-reads `labels[v]` per edge (packed `v`), the
/// manual version packs the *stale* label itself, saving a load.
pub fn cc_replicated(replicas: usize, variant: RepVariant) -> Pipeline {
    let arrays = vec![
        ArrayDecl::i32("fringe"),
        ArrayDecl::i32("nodes"),
        ArrayDecl::i32("edges"),
        ArrayDecl::i32("labels"),
        ArrayDecl::i32("next_fringe"),
        ArrayDecl::i32("fringe_len"),
        ArrayDecl::i32("out_len"),
    ];
    let nq = 2u16; // per replica: v-stream, upd
    let q = |k: u16, r: usize| QueueId(k + nq * r as u16);
    let upd_queues: Vec<QueueId> = (0..replicas).map(|r| q(1, r)).collect();
    let mut p = Pipeline::new(format!("cc-rep{replicas}-{variant:?}"));

    for r in 0..replicas {
        // Fetch slice; manual also reads the (stale) label here.
        let mut s0 = FunctionBuilder::new(format!("fetch@r{r}"));
        let _seg = s0.param_i64("seg");
        for a in &arrays {
            s0.array(a.clone());
        }
        let (fringe, labels0, flen) = (ArrayId(0), ArrayId(3), ArrayId(5));
        let nl = s0.var_i64("nl");
        let lo = s0.var_i64("lo");
        let hi = s0.var_i64("hi");
        let i = s0.var_i64("i");
        let v = s0.var_i64("v");
        let lv = s0.var_i64("lv");
        let l = s0.load(flen, Expr::i64(0));
        s0.assign(nl, l);
        s0.assign(
            lo,
            Expr::bin(
                BinOp::Div,
                Expr::mul(Expr::var(nl), Expr::i64(r as i64)),
                Expr::i64(replicas as i64),
            ),
        );
        s0.assign(
            hi,
            Expr::bin(
                BinOp::Div,
                Expr::mul(Expr::var(nl), Expr::i64(r as i64 + 1)),
                Expr::i64(replicas as i64),
            ),
        );
        s0.for_loop(i, Expr::var(lo), Expr::var(hi), |f| {
            let lvv = f.load(fringe, Expr::var(i));
            f.assign(v, lvv);
            if variant == RepVariant::Manual {
                // Stale label read (safe for a monotone fixpoint), packed
                // with the vertex id: (lv << 32) | v.
                let llv = f.load(labels0, Expr::var(v));
                f.assign(lv, llv);
                f.enq(q(0, r), pack(Expr::var(lv), Expr::var(v)));
            } else {
                f.enq(q(0, r), Expr::var(v));
            }
        });
        s0.enq_ctrl(q(0, r), DONE);
        p.add_stage(StageProgram::plain(s0.build()), r);

        // Visit: enumerate neighbors, distribute packed (payload, ngh).
        let mut s1 = FunctionBuilder::new(format!("visit@r{r}"));
        let _ = s1.param_i64("seg");
        for a in &arrays {
            s1.array(a.clone());
        }
        let (nodes, edges) = (ArrayId(1), ArrayId(2));
        let pv = s1.var_i64("pv");
        let s_ = s1.var_i64("s");
        let e_ = s1.var_i64("e");
        let j = s1.var_i64("j");
        let ngh = s1.var_i64("ngh");
        s1.while_true(|f| {
            f.deq(pv, q(0, r));
            // In the manual variant, pv is the stale label but vertex-
            // keyed structure lookups still need v; the fetch stage packs
            // (lv<<32)|v for the manual version instead.
            let key = if variant == RepVariant::Manual {
                // pv = (lv << 32) | v; the node lookup uses the low half.
                let vv = f.var_i64("vv");
                f.assign(
                    vv,
                    Expr::bin(BinOp::And, Expr::var(pv), Expr::i64(0xFFFF_FFFF)),
                );
                vv
            } else {
                pv
            };
            let ls = f.load(nodes, Expr::var(key));
            f.assign(s_, ls);
            let le = f.load(nodes, Expr::add(Expr::var(key), Expr::i64(1)));
            f.assign(e_, le);
            f.for_loop(j, Expr::var(s_), Expr::var(e_), |f| {
                let ln = f.load(edges, Expr::var(j));
                f.assign(ngh, ln);
                let payload = if variant == RepVariant::Manual {
                    // Forward the stale label.
                    Expr::bin(BinOp::Shr, Expr::var(pv), Expr::i64(32))
                } else {
                    Expr::var(key)
                };
                f.enq_sel(
                    upd_queues.clone(),
                    Expr::var(ngh),
                    pack(payload, Expr::var(ngh)),
                );
            });
        });
        let done_bcast: Vec<Stmt> = upd_queues
            .iter()
            .map(|qq| Stmt::EnqCtrl {
                queue: *qq,
                ctrl: DONE,
            })
            .collect();
        p.add_stage(
            StageProgram {
                func: s1.build(),
                handlers: vec![CtrlHandler {
                    queue: q(0, r),
                    ctrl: Some(DONE),
                    bind: None,
                    body: done_bcast,
                    end: HandlerEnd::FinishStage,
                }],
            },
            r,
        );

        // Update: owns labels partition r.
        let mut s2 = FunctionBuilder::new(format!("update@r{r}"));
        let seg = s2.param_i64("seg");
        for a in &arrays {
            s2.array(a.clone());
        }
        let (labels, nf, olen) = (ArrayId(3), ArrayId(4), ArrayId(6));
        let x = s2.var_i64("x");
        let ngh2 = s2.var_i64("ngh");
        let pay = s2.var_i64("pay");
        let lv2 = s2.var_i64("lv");
        let ln2 = s2.var_i64("ln");
        let len = s2.var_i64("len");
        let cnt = s2.var_i64("_dones");
        s2.while_true(|f| {
            f.deq(x, q(1, r));
            unpack_lo(f, x, ngh2);
            unpack_hi(f, x, pay);
            if variant == RepVariant::Manual {
                f.assign(lv2, Expr::var(pay));
            } else {
                let llv = f.load(labels, Expr::var(pay));
                f.assign(lv2, llv);
            }
            let lln = f.load(labels, Expr::var(ngh2));
            f.assign(ln2, lln);
            f.if_then(Expr::bin(BinOp::Gt, Expr::var(ln2), Expr::var(lv2)), |f| {
                f.store(labels, Expr::var(ngh2), Expr::var(lv2));
                f.store(
                    nf,
                    Expr::add(
                        Expr::mul(Expr::i64(r as i64), Expr::var(seg)),
                        Expr::var(len),
                    ),
                    Expr::var(ngh2),
                );
                f.assign(len, Expr::add(Expr::var(len), Expr::i64(1)));
            });
        });
        s2.store(olen, Expr::i64(r as i64), Expr::var(len));
        p.add_stage(
            StageProgram {
                func: s2.build(),
                handlers: vec![counting_handler(q(1, r), cnt, replicas, 1)],
            },
            r,
        );
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
    let (mem, arrays) = crate::cc::build_mem(g, replicas);
    let seg = Value::I64(crate::cc::segment(g) as i64);
    let fringe = crate::cc::fringe(&arrays, replicas, g);
    let len = g.num_vertices as i64;
    let (m, mem) = measure(rep_label(variant), input, cfg, mem, None, |session| {
        let compiled = CompiledPipeline::new(&pipeline)?;
        run_to_fixpoint(
            session,
            &fringe,
            len,
            1_000_000,
            "replicated CC",
            |session, _| {
                session.run_compiled(&pipeline, &compiled, &[("seg", seg)])?;
                Ok(())
            },
        )
    })
    .0?;
    assert_eq!(
        mem.i64_vec(arrays.labels),
        crate::cc::oracle(g),
        "replicated CC labels wrong ({variant:?})"
    );
    Ok(m)
}

// ---------------------------------------------------------------------
// Radii: 2 stages x 2R replicas (Phloem) vs 3 stages x R (manual)
// ---------------------------------------------------------------------

/// Replicated Radii. The Phloem configuration is the paper's winner:
/// *2 stages (plus RAs), replicated eight times across four cores* —
/// here 2 compute stages x `2R` replicas, two replicas per core. The
/// manual configuration replicates a 3-stage pipeline once per core.
pub fn radii_replicated(cores: usize, variant: RepVariant) -> Pipeline {
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
    let (replicas, stages3) = match variant {
        RepVariant::Phloem => (cores * 2, false),
        RepVariant::Manual => (cores, true),
    };
    let nq = 3u16; // v-stream, (optional ngh-local), upd
    let q = |k: u16, r: usize| QueueId(k + nq * r as u16);
    let upd_queues: Vec<QueueId> = (0..replicas).map(|r| q(2, r)).collect();
    let mut p = Pipeline::new(format!("radii-rep-{variant:?}"));

    for r in 0..replicas {
        let core = if stages3 { r } else { r / 2 };
        // Stage 0: fetch slice (+ visit, when merged).
        let mut s0 = FunctionBuilder::new(format!("fetch@r{r}"));
        let _seg = s0.param_i64("seg");
        let _round = s0.param_i64("round");
        for a in &arrays {
            s0.array(a.clone());
        }
        let (fringe, nodes, edges, flen) = (ArrayId(0), ArrayId(1), ArrayId(2), ArrayId(7));
        let nl = s0.var_i64("nl");
        let lo = s0.var_i64("lo");
        let hi = s0.var_i64("hi");
        let i = s0.var_i64("i");
        let v = s0.var_i64("v");
        let l = s0.load(flen, Expr::i64(0));
        s0.assign(nl, l);
        s0.assign(
            lo,
            Expr::bin(
                BinOp::Div,
                Expr::mul(Expr::var(nl), Expr::i64(r as i64)),
                Expr::i64(replicas as i64),
            ),
        );
        s0.assign(
            hi,
            Expr::bin(
                BinOp::Div,
                Expr::mul(Expr::var(nl), Expr::i64(r as i64 + 1)),
                Expr::i64(replicas as i64),
            ),
        );
        if stages3 {
            // Manual: fetch sends v; a separate visit stage enumerates.
            s0.for_loop(i, Expr::var(lo), Expr::var(hi), |f| {
                let lv = f.load(fringe, Expr::var(i));
                f.assign(v, lv);
                f.enq(q(0, r), Expr::var(v));
            });
            s0.enq_ctrl(q(0, r), DONE);
            p.add_stage(StageProgram::plain(s0.build()), core);

            let mut s1 = FunctionBuilder::new(format!("visit@r{r}"));
            let _ = s1.param_i64("seg");
            let _ = s1.param_i64("round");
            for a in &arrays {
                s1.array(a.clone());
            }
            let v1 = s1.var_i64("v");
            let s_ = s1.var_i64("s");
            let e_ = s1.var_i64("e");
            let j = s1.var_i64("j");
            let ngh = s1.var_i64("ngh");
            s1.while_true(|f| {
                f.deq(v1, q(0, r));
                let ls = f.load(nodes, Expr::var(v1));
                f.assign(s_, ls);
                let le = f.load(nodes, Expr::add(Expr::var(v1), Expr::i64(1)));
                f.assign(e_, le);
                f.for_loop(j, Expr::var(s_), Expr::var(e_), |f| {
                    let ln = f.load(edges, Expr::var(j));
                    f.assign(ngh, ln);
                    f.enq_sel(
                        upd_queues.clone(),
                        Expr::var(ngh),
                        pack(Expr::var(v1), Expr::var(ngh)),
                    );
                });
            });
            let done_bcast: Vec<Stmt> = upd_queues
                .iter()
                .map(|qq| Stmt::EnqCtrl {
                    queue: *qq,
                    ctrl: DONE,
                })
                .collect();
            p.add_stage(
                StageProgram {
                    func: s1.build(),
                    handlers: vec![CtrlHandler {
                        queue: q(0, r),
                        ctrl: Some(DONE),
                        bind: None,
                        body: done_bcast,
                        end: HandlerEnd::FinishStage,
                    }],
                },
                core,
            );
        } else {
            // Phloem best config: fetch+visit merged into one stage.
            let s_ = s0.var_i64("s");
            let e_ = s0.var_i64("e");
            let j = s0.var_i64("j");
            let ngh = s0.var_i64("ngh");
            s0.for_loop(i, Expr::var(lo), Expr::var(hi), |f| {
                let lv = f.load(fringe, Expr::var(i));
                f.assign(v, lv);
                let ls = f.load(nodes, Expr::var(v));
                f.assign(s_, ls);
                let le = f.load(nodes, Expr::add(Expr::var(v), Expr::i64(1)));
                f.assign(e_, le);
                f.for_loop(j, Expr::var(s_), Expr::var(e_), |f| {
                    let ln = f.load(edges, Expr::var(j));
                    f.assign(ngh, ln);
                    f.enq_sel(
                        upd_queues.clone(),
                        Expr::var(ngh),
                        pack(Expr::var(v), Expr::var(ngh)),
                    );
                });
            });
            for qq in &upd_queues {
                s0.enq_ctrl(*qq, DONE);
            }
            p.add_stage(StageProgram::plain(s0.build()), core);
        }

        // Update.
        let mut s2 = FunctionBuilder::new(format!("update@r{r}"));
        let seg = s2.param_i64("seg");
        let round = s2.param_i64("round");
        for a in &arrays {
            s2.array(a.clone());
        }
        let (visited, nvisited, radii, nf, olen) =
            (ArrayId(3), ArrayId(4), ArrayId(5), ArrayId(6), ArrayId(8));
        let x = s2.var_i64("x");
        let ngh2 = s2.var_i64("ngh");
        let v2 = s2.var_i64("v");
        let mv = s2.var_i64("mv");
        let mn = s2.var_i64("mn");
        let un = s2.var_i64("un");
        let rr = s2.var_i64("rr");
        let len = s2.var_i64("len");
        let cnt = s2.var_i64("_dones");
        s2.while_true(|f| {
            f.deq(x, q(2, r));
            unpack_lo(f, x, ngh2);
            unpack_hi(f, x, v2);
            let lmv = f.load(visited, Expr::var(v2));
            f.assign(mv, lmv);
            let lmn = f.load(nvisited, Expr::var(ngh2));
            f.assign(mn, lmn);
            f.assign(un, Expr::bin(BinOp::Or, Expr::var(mn), Expr::var(mv)));
            f.if_then(Expr::ne(Expr::var(un), Expr::var(mn)), |f| {
                f.store(nvisited, Expr::var(ngh2), Expr::var(un));
                let lr = f.load(radii, Expr::var(ngh2));
                f.assign(rr, lr);
                f.if_then(Expr::ne(Expr::var(rr), Expr::var(round)), |f| {
                    f.store(radii, Expr::var(ngh2), Expr::var(round));
                    f.store(
                        nf,
                        Expr::add(
                            Expr::mul(Expr::i64(r as i64), Expr::var(seg)),
                            Expr::var(len),
                        ),
                        Expr::var(ngh2),
                    );
                    f.assign(len, Expr::add(Expr::var(len), Expr::i64(1)));
                });
            });
        });
        s2.store(olen, Expr::i64(r as i64), Expr::var(len));
        p.add_stage(
            StageProgram {
                func: s2.build(),
                handlers: vec![counting_handler(q(2, r), cnt, replicas, 1)],
            },
            core,
        );
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
    let replicas = match variant {
        RepVariant::Phloem => cfg.cores * 2,
        RepVariant::Manual => cfg.cores,
    };
    let (mem, arrays) = crate::radii::build_mem(g, replicas);
    let seg = Value::I64(crate::radii::segment(g) as i64);
    let fringe = crate::radii::fringe(&arrays, replicas, g);
    let len = crate::radii::sources(g).len() as i64;
    let (m, mem) = measure(rep_label(variant), input, cfg, mem, None, |session| {
        run_to_fixpoint(
            session,
            &fringe,
            len,
            1_000_000,
            "replicated radii",
            |session, k| {
                let params = [("round", Value::I64(k as i64 + 1)), ("seg", seg)];
                session.run(&pipeline, &params)?;
                crate::radii::swap_visited(session, &arrays);
                Ok(())
            },
        )
    })
    .0?;
    assert_eq!(
        mem.i64_vec(arrays.radii),
        crate::radii::oracle(g),
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
    let updates = match variant {
        RepVariant::Phloem => cores,
        RepVariant::Manual => cores * 2,
    };
    let nq = 3u16;
    let q = |k: u16, r: usize| QueueId(k + nq * r as u16);
    let upd_queues: Vec<QueueId> = (0..updates).map(|u| q(2, u)).collect();
    let mut p = Pipeline::new(format!("prd-rep-{variant:?}"));

    for r in 0..cores {
        // Fetch slice of the active list.
        let mut s0 = FunctionBuilder::new(format!("fetch@r{r}"));
        for a in &arrays {
            s0.array(a.clone());
        }
        let (active, flen) = (ArrayId(0), ArrayId(7));
        let nl = s0.var_i64("nl");
        let lo = s0.var_i64("lo");
        let hi = s0.var_i64("hi");
        let i = s0.var_i64("i");
        let l = s0.load(flen, Expr::i64(0));
        s0.assign(nl, l);
        s0.assign(
            lo,
            Expr::bin(
                BinOp::Div,
                Expr::mul(Expr::var(nl), Expr::i64(r as i64)),
                Expr::i64(cores as i64),
            ),
        );
        s0.assign(
            hi,
            Expr::bin(
                BinOp::Div,
                Expr::mul(Expr::var(nl), Expr::i64(r as i64 + 1)),
                Expr::i64(cores as i64),
            ),
        );
        s0.for_loop(i, Expr::var(lo), Expr::var(hi), |f| {
            let lv = f.load(active, Expr::var(i));
            f.enq(q(0, r), lv);
        });
        s0.enq_ctrl(q(0, r), DONE);
        p.add_stage(StageProgram::plain(s0.build()), r);

        // Visit: enumerate neighbors, distribute packed (v, ngh).
        let mut s1 = FunctionBuilder::new(format!("visit@r{r}"));
        for a in &arrays {
            s1.array(a.clone());
        }
        let (nodes, edges) = (ArrayId(1), ArrayId(2));
        let v1 = s1.var_i64("v");
        let s_ = s1.var_i64("s");
        let e_ = s1.var_i64("e");
        let j = s1.var_i64("j");
        let ngh = s1.var_i64("ngh");
        s1.while_true(|f| {
            f.deq(v1, q(0, r));
            let ls = f.load(nodes, Expr::var(v1));
            f.assign(s_, ls);
            let le = f.load(nodes, Expr::add(Expr::var(v1), Expr::i64(1)));
            f.assign(e_, le);
            f.for_loop(j, Expr::var(s_), Expr::var(e_), |f| {
                let ln = f.load(edges, Expr::var(j));
                f.assign(ngh, ln);
                f.enq_sel(
                    upd_queues.clone(),
                    Expr::var(ngh),
                    pack(Expr::var(v1), Expr::var(ngh)),
                );
            });
        });
        let done_bcast: Vec<Stmt> = upd_queues
            .iter()
            .map(|qq| Stmt::EnqCtrl {
                queue: *qq,
                ctrl: DONE,
            })
            .collect();
        p.add_stage(
            StageProgram {
                func: s1.build(),
                handlers: vec![CtrlHandler {
                    queue: q(0, r),
                    ctrl: Some(DONE),
                    bind: None,
                    body: done_bcast,
                    end: HandlerEnd::FinishStage,
                }],
            },
            r,
        );
    }

    // Update stages (one per core for Phloem; two per core manual).
    for u in 0..updates {
        let core = match variant {
            RepVariant::Phloem => u,
            RepVariant::Manual => u / 2,
        };
        let mut s2 = FunctionBuilder::new(format!("update@u{u}"));
        for a in &arrays {
            s2.array(a.clone());
        }
        let (delta, invdeg, acc) = (ArrayId(3), ArrayId(4), ArrayId(5));
        let x = s2.var_i64("x");
        let ngh2 = s2.var_i64("ngh");
        let v2 = s2.var_i64("v");
        let dv = s2.var_f64("dv");
        let iv = s2.var_f64("iv");
        let a2 = s2.var_f64("a");
        let cnt = s2.var_i64("_dones");
        s2.while_true(|f| {
            f.deq(x, q(2, u));
            unpack_lo(f, x, ngh2);
            unpack_hi(f, x, v2);
            let ld = f.load(delta, Expr::var(v2));
            f.assign(dv, ld);
            let li = f.load(invdeg, Expr::var(v2));
            f.assign(iv, li);
            let la = f.load(acc, Expr::var(ngh2));
            f.assign(a2, la);
            f.store(
                acc,
                Expr::var(ngh2),
                Expr::add(Expr::var(a2), Expr::mul(Expr::var(dv), Expr::var(iv))),
            );
        });
        p.add_stage(
            StageProgram {
                func: s2.build(),
                handlers: vec![counting_handler(q(2, u), cnt, cores, 1)],
            },
            core,
        );
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
    let apply = data_parallel_pipeline(
        (0..threads)
            .map(|t| crate::prd::dp_apply(t, threads, n))
            .collect(),
        cfg.smt_threads,
    );
    let (mem, arrays) = crate::prd::build_mem(g, threads);
    let fringe = crate::prd::fringe(&arrays, threads, n);
    let (m, mem) = measure(rep_label(variant), input, cfg, mem, None, |session| {
        crate::prd::iterate(session, &fringe, n, &scatter, &apply)
    })
    .0?;
    let ranks = mem.f64_vec(arrays.rank);
    let want = crate::prd::oracle(g);
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
