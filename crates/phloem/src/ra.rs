//! Pass 3: reference-accelerator extraction.
//!
//! After the other passes, stages that merely shuttle values between
//! queues and memory have canonical shapes. Three patterns are offloaded
//! to Pipette's RA engines (Sec. III / IV-B):
//!
//! * **Indirect**: `while(1) { x = deq(qi); t = base[x]; enq(qo, t) }`
//! * **Paired indirect** (e.g. BFS's `nodes[v]` / `nodes[v+1]`): the
//!   stage loads `base[x]` and `base[x+1]`; the producer is rewritten to
//!   enqueue both indices ("the producer simply enqueues v and then
//!   v+1") and the consumers read both values from the RA's single
//!   output queue — yielding *chained* RAs when the consumer is a SCAN.
//! * **Scan**: `while(1) { lo = deq(qi); hi = deq(qi); for j in lo..hi
//!   { t = base[j]; enq(qo, t) } }`
//!
//! Control values arriving on the input queue are forwarded to the
//! output, so end-of-stream plumbing survives the conversion.

use phloem_ir::{
    ArrayDecl, ArrayId, Expr, Pipeline, QueueId, RaConfig, RaMode, Stage, StageKind, Stmt, VarId,
};

/// Outcome of matching one stage.
enum RaMatch {
    Indirect {
        base: ArrayId,
        qin: QueueId,
        qout: QueueId,
    },
    Paired {
        base: ArrayId,
        qin: QueueId,
        q1: QueueId,
        q2: QueueId,
        offset: i64,
    },
    Scan {
        base: ArrayId,
        qin: QueueId,
        qout: QueueId,
        end_ctrl: Option<u32>,
    },
}

fn as_var(e: &Expr) -> Option<VarId> {
    if let Expr::Var(v) = e {
        Some(*v)
    } else {
        None
    }
}

fn as_load(e: &Expr) -> Option<(ArrayId, VarId)> {
    if let Expr::Load { array, index, .. } = e {
        as_var(index).map(|v| (*array, v))
    } else {
        None
    }
}

/// Matches `while(1) { body }` — or `for (v = 0; v < bound; v++) { body }`
/// where the body never reads `v` (the trip count is redundant with the
/// stream) — where the stage has no other statements except trailing
/// `enq_ctrl`s that CV forwarding subsumes.
fn loop_body(stage: &Stage) -> Option<&[Stmt]> {
    let body = &stage.program.func.body;
    if body.is_empty() {
        return None;
    }
    let inner = match &body[0] {
        Stmt::While {
            cond: Expr::Const(_),
            body: inner,
            ..
        } => inner,
        Stmt::For {
            var, body: inner, ..
        } => {
            let mut uses_var = false;
            for s in inner {
                s.for_each(&mut |s| {
                    if s.header_reads_var(*var) {
                        uses_var = true;
                    }
                });
            }
            if uses_var {
                return None;
            }
            inner
        }
        _ => return None,
    };
    // Anything after the loop must be ctrl forwarding (subsumed by the
    // RA's forward_ctrl) into a queue this stage writes inside the loop.
    if !body[1..].iter().all(|s| matches!(s, Stmt::EnqCtrl { .. })) {
        return None;
    }
    Some(inner)
}

fn match_stage(stage: &Stage) -> Option<RaMatch> {
    if !matches!(stage.kind, StageKind::Compute) {
        return None;
    }
    let inner = loop_body(stage)?;
    // Scan: deq lo; deq hi; for j in lo..hi { t = base[j]; enq(qo, t) } [; enq_ctrl]
    if let [Stmt::Deq { var: lo, queue: q1 }, Stmt::Deq { var: hi, queue: q2 }, Stmt::For {
        var,
        start,
        end,
        body,
        ..
    }, rest @ ..] = inner
    {
        if q1 == q2 && as_var(start) == Some(*lo) && as_var(end) == Some(*hi) && rest.len() <= 1 {
            if let [Stmt::Assign { var: t, expr }, Stmt::Enq { queue: qo, value }] = &body[..] {
                if let Some((base, idx)) = as_load(expr) {
                    if idx == *var && as_var(value) == Some(*t) {
                        let end_ctrl = match rest {
                            [Stmt::EnqCtrl { queue, ctrl }] if queue == qo => Some(*ctrl),
                            [] => None,
                            _ => return None,
                        };
                        return Some(RaMatch::Scan {
                            base,
                            qin: *q1,
                            qout: *qo,
                            end_ctrl,
                        });
                    }
                }
            }
        }
    }
    // Indirect / paired: deq v; loads of base[v(+k)] each enq'd.
    if let [Stmt::Deq { var: v, queue: qin }, rest @ ..] = inner {
        // Single: t = base[v]; enq(qo, t)
        if let [Stmt::Assign { var: t, expr }, Stmt::Enq { queue: qo, value }] = rest {
            if let Some((base, idx)) = as_load(expr) {
                if idx == *v && as_var(value) == Some(*t) {
                    return Some(RaMatch::Indirect {
                        base,
                        qin: *qin,
                        qout: *qo,
                    });
                }
            }
        }
        // Paired: t1 = base[v]; enq(q1, t1); v2 = v + k; t2 = base[v2]; enq(q2, t2)
        if let [Stmt::Assign { var: t1, expr: e1 }, Stmt::Enq {
            queue: q1,
            value: val1,
        }, Stmt::Assign { var: v2, expr: e2 }, Stmt::Assign { var: t2, expr: e3 }, Stmt::Enq {
            queue: q2,
            value: val2,
        }] = rest
        {
            let l1 = as_load(e1);
            let l3 = as_load(e3);
            let off = match e2 {
                Expr::Binary(phloem_ir::BinOp::Add, a, b) => match (&**a, &**b) {
                    (Expr::Var(base_v), Expr::Const(c)) if base_v == v => c.as_i64().ok(),
                    _ => None,
                },
                _ => None,
            };
            if let (Some((a1, i1)), Some((a2, i2)), Some(off)) = (l1, l3, off) {
                if a1 == a2
                    && i1 == *v
                    && i2 == *v2
                    && as_var(val1) == Some(*t1)
                    && as_var(val2) == Some(*t2)
                {
                    return Some(RaMatch::Paired {
                        base: a1,
                        qin: *qin,
                        q1: *q1,
                        q2: *q2,
                        offset: off,
                    });
                }
            }
        }
    }
    None
}

fn rewrite_queue(stmts: &mut [Stmt], from: QueueId, to: QueueId) {
    for s in stmts {
        match s {
            Stmt::Enq { queue, .. } | Stmt::EnqCtrl { queue, .. } | Stmt::Deq { queue, .. }
                if *queue == from =>
            {
                *queue = to;
            }
            Stmt::EnqSel { queues, .. } => {
                for q in queues {
                    if *q == from {
                        *q = to;
                    }
                }
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                rewrite_queue(then_body, from, to);
                rewrite_queue(else_body, from, to);
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => rewrite_queue(body, from, to),
            _ => {}
        }
    }
}

/// Duplicates every `enq(qin, v)` as `enq(qin, v); enq(qin, v+off)` in
/// the producer of a paired RA.
fn duplicate_enqs(stmts: &mut Vec<Stmt>, qin: QueueId, off: i64) {
    let mut i = 0;
    while i < stmts.len() {
        match &mut stmts[i] {
            Stmt::Enq { queue, value } if *queue == qin => {
                let v = value.clone();
                stmts.insert(
                    i + 1,
                    Stmt::Enq {
                        queue: qin,
                        value: Expr::add(v, Expr::i64(off)),
                    },
                );
                i += 2;
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                duplicate_enqs(then_body, qin, off);
                duplicate_enqs(else_body, qin, off);
                i += 1;
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => {
                duplicate_enqs(body, qin, off);
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Extracts reference accelerators from a compiled pipeline, in place.
/// Stops once `max_ras` RAs exist.
pub(crate) fn extract(pipeline: &mut Pipeline, arrays: &[ArrayDecl], max_ras: usize) {
    let mut ras = pipeline.ra_stages();
    let mut i = 0;
    while i < pipeline.stages.len() {
        if ras >= max_ras {
            break;
        }
        let Some(m) = match_stage(&pipeline.stages[i]) else {
            i += 1;
            continue;
        };
        let core = pipeline.stages[i].core;
        let name = pipeline.stages[i].program.func.name.clone();
        match m {
            RaMatch::Indirect { base, qin, qout } => {
                let cfg = RaConfig {
                    name,
                    mode: RaMode::Indirect,
                    base,
                    in_queue: qin,
                    out_queue: qout,
                    forward_ctrl: true,
                    scan_end_ctrl: None,
                };
                pipeline.stages[i] = make_ra(cfg, arrays, core);
                ras += 1;
            }
            RaMatch::Scan {
                base,
                qin,
                qout,
                end_ctrl,
            } => {
                let cfg = RaConfig {
                    name,
                    mode: RaMode::Scan,
                    base,
                    in_queue: qin,
                    out_queue: qout,
                    forward_ctrl: true,
                    scan_end_ctrl: end_ctrl,
                };
                pipeline.stages[i] = make_ra(cfg, arrays, core);
                ras += 1;
            }
            RaMatch::Paired {
                base,
                qin,
                q1,
                q2,
                offset,
            } => {
                // Producer sends both indices; both consumers read the
                // RA's single output queue (q1 reused as the output).
                let cfg = RaConfig {
                    name,
                    mode: RaMode::Indirect,
                    base,
                    in_queue: qin,
                    out_queue: q1,
                    forward_ctrl: true,
                    scan_end_ctrl: None,
                };
                for (j, st) in pipeline.stages.iter_mut().enumerate() {
                    if j == i {
                        continue;
                    }
                    duplicate_enqs(&mut st.program.func.body, qin, offset);
                    if q2 != q1 {
                        rewrite_queue(&mut st.program.func.body, q2, q1);
                        for h in &mut st.program.handlers {
                            if h.queue == q2 {
                                h.queue = q1;
                            }
                            rewrite_queue(&mut h.body, q2, q1);
                        }
                    }
                }
                pipeline.stages[i] = make_ra(cfg, arrays, core);
                ras += 1;
            }
        }
        i += 1;
    }
}

fn make_ra(cfg: RaConfig, arrays: &[ArrayDecl], core: usize) -> Stage {
    let program = phloem_ir::pipeline::ra_stage_program(&cfg, arrays);
    Stage {
        program,
        kind: StageKind::Ra(cfg),
        core,
    }
}
