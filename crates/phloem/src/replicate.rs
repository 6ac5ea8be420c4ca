//! Pipeline replication and data-centric work distribution
//! (`#pragma replicate` / `#pragma distribute`, Sec. IV-C, Fig. 7).
//!
//! [`replicate`] clones a pipeline R times, one replica per core, with
//! private queues. For queues crossing the *distribute boundary*, every
//! replica's producer routes each value to the replica selected by the
//! value itself (`value % R`, "inspecting bits in the neighbor id"),
//! turning the pipeline's tail into a destination-centric section.
//! End-of-stream control values are broadcast to all replicas, and each
//! consumer waits for one `DONE` per replica before finishing.
//!
//! Input partitioning: the first top-level loop of stage 0 in replica
//! `r` iterates over its `1/R` slice (the `replicate_arguments()` role
//! from the paper, for index-partitioned inputs).

use crate::options::CompileError;
use phloem_ir::{
    expr_ty, ArrayDecl, BinOp, Expr, HandlerEnd, Pipeline, QueueId, Stage, StageKind, Stmt, Ty,
    VarDecl, VarId,
};

/// Replication parameters.
#[derive(Clone, Debug)]
pub struct ReplicateSpec {
    /// Number of pipeline replicas (one per core).
    pub replicas: usize,
    /// Queues whose traffic is distributed across replicas by value.
    pub distribute: Vec<QueueId>,
    /// Partition the first top-level counted loop of each replica's
    /// first compute stage across replicas.
    pub partition_input: bool,
}

fn remap_queue(q: QueueId, r: usize, stride: u16) -> QueueId {
    QueueId(q.0 + (r as u16) * stride)
}

fn remap_stmts(stmts: &mut [Stmt], r: usize, stride: u16) {
    for s in stmts {
        match s {
            Stmt::Enq { queue, .. } | Stmt::EnqCtrl { queue, .. } | Stmt::Deq { queue, .. } => {
                *queue = remap_queue(*queue, r, stride);
            }
            Stmt::EnqSel { queues, .. } => {
                for q in queues {
                    *q = remap_queue(*q, r, stride);
                }
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                remap_stmts(then_body, r, stride);
                remap_stmts(else_body, r, stride);
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => remap_stmts(body, r, stride),
            _ => {}
        }
    }
}

/// Rewrites enqueues to distributed queues into replica-selecting
/// enqueues (data values) or broadcasts (control values). A value that
/// is not a leaf is first held in a fresh variable declared in `vars`,
/// so selecting and enqueuing evaluate it once.
fn distribute_stmts(
    stmts: &mut Vec<Stmt>,
    base: QueueId,
    all: &[QueueId],
    vars: &mut Vec<VarDecl>,
    arrays: &[ArrayDecl],
) {
    let mut i = 0;
    while i < stmts.len() {
        match &mut stmts[i] {
            Stmt::Enq { queue, value } if *queue == base => {
                let mut value = std::mem::replace(value, Expr::i64(0));
                if !matches!(value, Expr::Var(_) | Expr::Const(_)) {
                    let t = VarId(vars.len() as u32);
                    vars.push(VarDecl {
                        name: format!("_d{}", t.0).into(),
                        ty: expr_ty(vars, arrays, &value).unwrap_or(Ty::I64),
                    });
                    stmts.insert(
                        i,
                        Stmt::Assign {
                            var: t,
                            expr: value,
                        },
                    );
                    i += 1;
                    value = Expr::var(t);
                }
                stmts[i] = Stmt::EnqSel {
                    queues: all.to_vec(),
                    select: value.clone(),
                    value,
                };
            }
            Stmt::EnqCtrl { queue, ctrl } if *queue == base => {
                let ctrl = *ctrl;
                let bcast: Vec<Stmt> = all
                    .iter()
                    .map(|q| Stmt::EnqCtrl { queue: *q, ctrl })
                    .collect();
                let n = bcast.len();
                stmts.splice(i..i + 1, bcast);
                i += n;
                continue;
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                distribute_stmts(then_body, base, all, vars, arrays);
                distribute_stmts(else_body, base, all, vars, arrays);
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => {
                distribute_stmts(body, base, all, vars, arrays);
            }
            _ => {}
        }
        i += 1;
    }
}

/// Partitions the first top-level counted loop: `for i in 0..e` becomes
/// `for i in e*r/R .. e*(r+1)/R`, the bounds held in fresh `_rlo`/`_rhi`.
/// (Also how the benchsuite derives a data-parallel thread's copy of a
/// taco-generated phase.)
pub fn partition_top_loop(func: &mut phloem_ir::Function, r: usize, reps: usize) {
    let lo = VarId(func.vars.len() as u32);
    func.vars.push(VarDecl {
        name: "_rlo".into(),
        ty: Ty::I64,
    });
    let hi = VarId(func.vars.len() as u32);
    func.vars.push(VarDecl {
        name: "_rhi".into(),
        ty: Ty::I64,
    });
    let mut new_body = Vec::new();
    let mut done = false;
    for s in func.body.drain(..) {
        match s {
            Stmt::For {
                id,
                var,
                start,
                end,
                body,
            } if !done && matches!(start, Expr::Const(_)) => {
                done = true;
                new_body.push(Stmt::Assign {
                    var: lo,
                    expr: Expr::bin(
                        BinOp::Div,
                        Expr::mul(end.clone(), Expr::i64(r as i64)),
                        Expr::i64(reps as i64),
                    ),
                });
                new_body.push(Stmt::Assign {
                    var: hi,
                    expr: Expr::bin(
                        BinOp::Div,
                        Expr::mul(end, Expr::i64(r as i64 + 1)),
                        Expr::i64(reps as i64),
                    ),
                });
                new_body.push(Stmt::For {
                    id,
                    var,
                    start: Expr::var(lo),
                    end: Expr::var(hi),
                    body,
                });
            }
            other => new_body.push(other),
        }
    }
    func.body = new_body;
}

/// Replicates a pipeline per [`ReplicateSpec`]. Replica `r` is placed on
/// core `r` (plus the template's own core offsets).
///
/// # Errors
/// Fails if a distributed queue's consumer uses inline control-value
/// checks (replication requires handler-mode pipelines), or if a
/// consumer expects per-group `NEXT` CVs across the distribute boundary.
pub fn replicate(template: &Pipeline, spec: &ReplicateSpec) -> Result<Pipeline, CompileError> {
    let reps = spec.replicas.max(1);
    let stride = template.num_queues;
    let mut out = Pipeline::new(format!("{}-x{}", template.name, reps));

    // Sanity: distributed queues must carry flat streams (handlers on
    // them may only be DONE handlers), and every consumer of one must be
    // stream-terminated — distribution changes each replica's item
    // count, so counted consumer loops would deadlock or drop items.
    for st in &template.stages {
        for h in &st.program.handlers {
            if spec.distribute.contains(&h.queue) && h.ctrl != Some(0) {
                return Err(CompileError::Unsupported(
                    "per-group control values cannot cross a distribute boundary".into(),
                ));
            }
        }
        for q in &spec.distribute {
            if stage_deqs(st, *q)
                && !st
                    .program
                    .handlers
                    .iter()
                    .any(|h| h.queue == *q && h.ctrl == Some(0))
            {
                return Err(CompileError::Unsupported(format!(
                    "stage `{}` consumes distributed queue {} without DONE \
                     termination; compile with PassConfig::all_streaming() \
                     (stream_consumers) so consumers are CV-terminated",
                    st.program.func.name, q.0
                )));
            }
        }
    }

    for r in 0..reps {
        for (si, st) in template.stages.iter().enumerate() {
            let mut stage = st.clone();
            stage.core = st.core + r;
            stage.program.func.name = format!("{}@r{r}", st.program.func.name);
            // Remap queue ids to this replica's space.
            remap_stmts(&mut stage.program.func.body, r, stride);
            for h in &mut stage.program.handlers {
                h.queue = remap_queue(h.queue, r, stride);
                remap_stmts(&mut h.body, r, stride);
            }
            if let StageKind::Ra(cfg) = &mut stage.kind {
                cfg.in_queue = remap_queue(cfg.in_queue, r, stride);
                cfg.out_queue = remap_queue(cfg.out_queue, r, stride);
                // Regenerate the RA program with remapped queues.
                stage.program =
                    phloem_ir::pipeline::ra_stage_program(cfg, &stage.program.func.arrays);
                stage.program.func.name = format!("{}@r{r}", st.program.func.name);
            }
            // Distribution: producers of distributed queues route by value.
            for q in &spec.distribute {
                let local = remap_queue(*q, r, stride);
                let all: Vec<QueueId> = (0..reps).map(|k| remap_queue(*q, k, stride)).collect();
                if matches!(stage.kind, StageKind::Ra(_)) {
                    // RAs cannot route; the compiler keeps distribute
                    // boundaries on compute stages.
                    let writes = stage.program.func.queues_used().contains(&local);
                    let is_out = match &stage.kind {
                        StageKind::Ra(cfg) => cfg.out_queue == local,
                        _ => false,
                    };
                    if writes && is_out {
                        return Err(CompileError::Unsupported(
                            "distribute boundary fed by a reference accelerator; \
                             keep the producer a compute stage"
                                .into(),
                        ));
                    }
                    continue;
                }
                let (func, handlers) = (&mut stage.program.func, &mut stage.program.handlers);
                distribute_stmts(&mut func.body, local, &all, &mut func.vars, &func.arrays);
                for h in handlers {
                    distribute_stmts(&mut h.body, local, &all, &mut func.vars, &func.arrays);
                }
            }
            // Consumers of distributed queues count one DONE per replica.
            let consumes_distributed = spec.distribute.iter().any(|q| {
                let local = remap_queue(*q, r, stride);
                stage_deqs(&stage, local)
            });
            if consumes_distributed && reps > 1 {
                let cnt = VarId(stage.program.func.vars.len() as u32);
                stage.program.func.vars.push(VarDecl {
                    name: "_dones".into(),
                    ty: Ty::I64,
                });
                for h in &mut stage.program.handlers {
                    let local_dist = spec
                        .distribute
                        .iter()
                        .any(|q| remap_queue(*q, r, stride) == h.queue);
                    if local_dist && h.ctrl == Some(0) {
                        h.body.push(Stmt::Assign {
                            var: cnt,
                            expr: Expr::add(Expr::var(cnt), Expr::i64(1)),
                        });
                        h.end = match h.end {
                            HandlerEnd::BreakLoops(n) => HandlerEnd::BreakWhen(cnt, reps as i64, n),
                            HandlerEnd::FinishStage => HandlerEnd::FinishWhen(cnt, reps as i64),
                            other => other,
                        };
                    }
                }
            }
            // Input partitioning on the first compute stage.
            if spec.partition_input && si == 0 {
                partition_top_loop(&mut stage.program.func, r, reps);
            }
            out.stages.push(stage);
        }
    }
    out.num_queues = stride * reps as u16;
    phloem_ir::validate_pipeline(&out, &phloem_ir::ValidateLimits::default(), "replicate")
        .map_err(CompileError::InvalidPipeline)?;
    Ok(out)
}

fn stage_deqs(stage: &Stage, q: QueueId) -> bool {
    let mut found = false;
    for s in &stage.program.func.body {
        s.for_each(&mut |s| {
            if let Stmt::Deq { queue, .. } = s {
                if *queue == q {
                    found = true;
                }
            }
        });
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use phloem_ir::{interp, ArrayDecl, FunctionBuilder, MemState, StageProgram, Value};

    /// Producer counts 0..n, distributing by value; each replica's
    /// consumer sums its share into out[replica].
    fn template() -> Pipeline {
        let q = QueueId(0);
        let mut p = Pipeline::new("sumdist");
        let mut s0 = FunctionBuilder::new("produce");
        let n = s0.param_i64("n");
        let src = s0.array_i64("src");
        let _ = s0.array_i64("out");
        let i = s0.var_i64("i");
        s0.for_loop(i, Expr::i64(0), Expr::var(n), |f| {
            let l = f.load(src, Expr::var(i));
            f.enq(q, l);
        });
        s0.enq_ctrl(q, 0);
        p.add_stage(StageProgram::plain(s0.build()), 0);

        let mut s1 = FunctionBuilder::new("consume");
        let _ = s1.param_i64("n");
        let _ = s1.array_i64("src");
        let out = s1.array_i64("out");
        let rid = s1.param_i64("rid");
        let x = s1.var_i64("x");
        let sum = s1.var_i64("sum");
        s1.while_true(|f| {
            f.deq(x, q);
            f.assign(sum, Expr::add(Expr::var(sum), Expr::var(x)));
        });
        s1.store(out, Expr::var(rid), Expr::var(sum));
        let handlers = vec![phloem_ir::CtrlHandler {
            queue: q,
            ctrl: Some(0),
            bind: None,
            body: vec![],
            end: HandlerEnd::BreakLoops(1),
        }];
        p.add_stage(
            StageProgram {
                func: s1.build(),
                handlers,
            },
            0,
        );
        p
    }

    #[test]
    fn replication_distributes_and_terminates() {
        let t = template();
        let spec = ReplicateSpec {
            replicas: 2,
            distribute: vec![QueueId(0)],
            partition_input: true,
        };
        let p = replicate(&t, &spec).unwrap();
        assert_eq!(p.stages.len(), 4);
        assert_eq!(p.cores_used(), 2);
        // `rid` differs per replica: bind_params gives the same value to
        // all stages, so patch each consumer replica's param via a
        // distinct constant store instead.
        let mut mem = MemState::new();
        mem.alloc_i64(ArrayDecl::i64("src"), 0..10);
        let out = mem.alloc(ArrayDecl::i64("out"), 2);
        // Patch: replica r's consumer writes out[r]: rewrite the store
        // index to a constant.
        let mut p2 = p.clone();
        let mut r = 0;
        for st in &mut p2.stages {
            if st.program.func.name.starts_with("consume") {
                for s in &mut st.program.func.body {
                    if let Stmt::Store { index, .. } = s {
                        *index = Expr::i64(r);
                    }
                }
                r += 1;
            }
        }
        let run = interp::run_pipeline(&p2, mem, &[("n", Value::I64(10))], 8).unwrap();
        let sums = run.mem.i64_vec(out);
        // Evens (0+2+4+6+8) to replica 0, odds (1+3+5+7+9) to replica 1.
        assert_eq!(sums, vec![20, 25]);
        // The producers' `enq(q, src[i])` selects and enqueues one load.
        let loads: u64 = run.counts.iter().map(|c| c.loads).sum();
        assert_eq!(loads, 10);
    }

    #[test]
    fn counted_consumers_of_a_distributed_queue_are_rejected_in_one_sentence() {
        let q = QueueId(0);
        let mut p = template();
        // The consumer takes exactly `n` values instead of stopping at
        // the DONE control value.
        let mut b = FunctionBuilder::new("consume");
        let n = b.param_i64("n");
        let x = b.var_i64("x");
        let i = b.var_i64("i");
        b.for_loop(i, Expr::i64(0), Expr::var(n), |f| f.deq(x, q));
        p.stages[1].program = StageProgram::plain(b.build());
        let spec = ReplicateSpec {
            replicas: 2,
            distribute: vec![q],
            partition_input: false,
        };
        match replicate(&p, &spec) {
            Err(CompileError::Unsupported(msg)) => assert_eq!(
                msg,
                "stage `consume` consumes distributed queue 0 without DONE termination; \
                 compile with PassConfig::all_streaming() (stream_consumers) so consumers \
                 are CV-terminated"
            ),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn ra_fed_distribution_is_rejected() {
        // A template whose distributed queue is produced by an RA.
        let arrays = vec![ArrayDecl::i64("base")];
        let mut p = Pipeline::new("bad");
        p.add_ra(
            phloem_ir::RaConfig {
                name: "r".into(),
                mode: phloem_ir::RaMode::Indirect,
                base: phloem_ir::ArrayId(0),
                in_queue: QueueId(1),
                out_queue: QueueId(0),
                forward_ctrl: true,
                scan_end_ctrl: None,
            },
            &arrays,
            0,
        );
        let spec = ReplicateSpec {
            replicas: 2,
            distribute: vec![QueueId(0)],
            partition_input: false,
        };
        assert!(replicate(&p, &spec).is_err());
    }
}
