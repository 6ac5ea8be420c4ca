//! Whole-pipeline validation: queue protocol, control-value discipline,
//! reference-accelerator liveness, placement budgets, and backward-slice
//! closure.
//!
//! [`Function::validate`](crate::Function::validate) checks one stage
//! program in isolation; this module checks the *pipeline* — the
//! invariants that Phloem's slicing passes must preserve but that no
//! single stage can see:
//!
//! * every referenced queue has exactly one consumer stage and (except
//!   across a `#pragma distribute` boundary, where routing enqueues and
//!   broadcast control values are fan-in by design) exactly one producer;
//! * enqueued and dequeued value kinds agree per queue;
//! * every queue on which a control value can arrive (computed by tag
//!   propagation through RA forwarding and handler re-enqueues) reaches
//!   a consumer that can react to it — a registered
//!   [`CtrlHandler`](crate::CtrlHandler) on that queue, or an inline
//!   `is_control` check when handlers are ablated — so a CV is never
//!   silently delivered into a data register;
//! * reference accelerators sit on live queues (a fed input, a drained
//!   output), so RA chains cannot silently stall;
//! * the per-core architectural queue budget holds after replication
//!   (queues reside with their consumer's core);
//! * backward-slice closure: no stage reads a register it neither
//!   defines, dequeues, nor receives as a parameter — the signature of a
//!   slicing pass that forgot to communicate a value.
//!
//! The validator runs after every compiler pass (and before simulation);
//! violations carry the name of the pass that introduced them, so a
//! miscompile bisects to a pass automatically.

use crate::expr::{Expr, QueueId, VarId};
use crate::func::expr_ty;
use crate::pipeline::{Pipeline, RaMode, Stage, StageKind};
use crate::stmt::{HandlerEnd, Stmt};
use crate::value::{Ty, UnOp};
use std::collections::BTreeSet;
use std::fmt;

/// Hardware limits the validator checks placement against.
#[derive(Clone, Copy, Debug)]
pub struct ValidateLimits {
    /// Architectural queues available per core ("16 queues max").
    pub queues_per_core: u16,
}

impl Default for ValidateLimits {
    fn default() -> Self {
        ValidateLimits {
            queues_per_core: 16,
        }
    }
}

/// A pipeline-level invariant violation.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// A queue id at or beyond the pipeline's declared `num_queues`.
    QueueOutOfRange {
        /// The offending queue.
        queue: QueueId,
        /// Declared queue count.
        num_queues: u16,
    },
    /// A queue some stage enqueues into but no stage dequeues from.
    NoConsumer {
        /// The dangling queue.
        queue: QueueId,
        /// A stage that enqueues into it.
        producer: String,
    },
    /// A queue some stage dequeues from but no stage feeds.
    NoProducer {
        /// The starved queue.
        queue: QueueId,
        /// A stage that dequeues from it.
        consumer: String,
    },
    /// More than one stage dequeues from the same queue.
    MultipleConsumers {
        /// The shared queue.
        queue: QueueId,
        /// Names of all consuming stages.
        stages: Vec<String>,
    },
    /// More than one stage enqueues plain data into the same queue
    /// (fan-in is only legal for distribute-routing `EnqSel` and
    /// broadcast control values).
    MultipleProducers {
        /// The shared queue.
        queue: QueueId,
        /// Names of all producing stages.
        stages: Vec<String>,
    },
    /// Enqueue and dequeue ends of a queue disagree on the value kind.
    KindMismatch {
        /// The queue.
        queue: QueueId,
        /// Kind on the enqueue side.
        enq: Ty,
        /// Kind expected by the dequeue side.
        deq: Ty,
    },
    /// A control-value tag can arrive at a stage that neither registers
    /// a handler for it nor checks `is_control` inline.
    UnhandledCtrl {
        /// The consuming stage.
        stage: String,
        /// Queue the tag arrives on.
        queue: QueueId,
        /// The unhandled tag.
        tag: u32,
    },
    /// A reference accelerator whose input queue no stage feeds.
    RaDeadInput {
        /// The RA stage.
        stage: String,
        /// Its input queue.
        queue: QueueId,
    },
    /// A reference accelerator whose output queue no stage drains.
    RaDeadOutput {
        /// The RA stage.
        stage: String,
        /// Its output queue.
        queue: QueueId,
    },
    /// A core's resident queues exceed the architectural budget.
    QueueBudget {
        /// The oversubscribed core.
        core: usize,
        /// Queues resident on it.
        used: usize,
        /// The per-core budget.
        budget: u16,
    },
    /// A stage reads a register it neither defines, dequeues, nor
    /// receives as a parameter.
    UnboundRead {
        /// The reading stage.
        stage: String,
        /// The unbound register's name.
        var: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::QueueOutOfRange { queue, num_queues } => {
                write!(f, "q{} out of range (num_queues = {num_queues})", queue.0)
            }
            Violation::NoConsumer { queue, producer } => {
                write!(f, "q{} has no consumer (fed by `{producer}`)", queue.0)
            }
            Violation::NoProducer { queue, consumer } => {
                write!(f, "q{} has no producer (drained by `{consumer}`)", queue.0)
            }
            Violation::MultipleConsumers { queue, stages } => {
                write!(
                    f,
                    "q{} has {} consumers: {}",
                    queue.0,
                    stages.len(),
                    stages.join(", ")
                )
            }
            Violation::MultipleProducers { queue, stages } => {
                write!(
                    f,
                    "q{} has {} plain-enqueue producers (only EnqSel/ctrl fan-in is legal): {}",
                    queue.0,
                    stages.len(),
                    stages.join(", ")
                )
            }
            Violation::KindMismatch { queue, enq, deq } => {
                write!(f, "q{} carries {enq:?} but is dequeued as {deq:?}", queue.0)
            }
            Violation::UnhandledCtrl { stage, queue, tag } => {
                write!(
                    f,
                    "stage `{stage}` can receive ctrl tag {tag} on q{} but has no handler \
                     for it and no inline is_control check",
                    queue.0
                )
            }
            Violation::RaDeadInput { stage, queue } => {
                write!(f, "RA `{stage}`: input q{} is fed by no stage", queue.0)
            }
            Violation::RaDeadOutput { stage, queue } => {
                write!(
                    f,
                    "RA `{stage}`: output q{} is drained by no stage",
                    queue.0
                )
            }
            Violation::QueueBudget { core, used, budget } => {
                write!(f, "core {core} hosts {used} queues, budget is {budget}")
            }
            Violation::UnboundRead { stage, var } => {
                write!(
                    f,
                    "stage `{stage}` reads `{var}` but neither defines nor dequeues it"
                )
            }
        }
    }
}

/// A validation failure, tagged with the compiler pass (or tool phase)
/// that produced the pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineError {
    /// Name of the pass after which the violation was detected.
    pub pass: String,
    /// The invariant that does not hold.
    pub violation: Violation,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[after pass `{}`] {}", self.pass, self.violation)
    }
}

impl std::error::Error for PipelineError {}

/// How one stage uses one queue.
#[derive(Clone, Copy, Default)]
struct QueueIo {
    /// Enqueues plain data into it (`Enq`).
    enq_plain: bool,
    /// Enqueues into it via any op (`Enq`/`EnqSel`/`EnqCtrl`).
    enq_any: bool,
    /// Data kind enqueued, where statically known (first site wins).
    enq_ty: Option<Ty>,
    /// Dequeues from it (body `Deq` or a registered handler).
    deq: bool,
    /// Data kind dequeued into (from the first `Deq` target's decl).
    deq_ty: Option<Ty>,
}

/// Per-stage queue and register usage summary, in dense tables indexed
/// by queue id and variable id (grown to the largest id seen: the
/// validator also sees ids out of range).
#[derive(Default)]
struct StageIo {
    queues: Vec<QueueIo>,
    /// `EnqCtrl` sites: (queue, tag).
    ctrl_out: Vec<(QueueId, u32)>,
    /// Whether the stage tests `is_control` inline anywhere.
    inline_ctrl_check: bool,
    /// Per variable: [`READ`] / [`WRITTEN`] bits (body + handlers).
    vars: Vec<u8>,
}

const READ: u8 = 1;
const WRITTEN: u8 = 2;

impl StageIo {
    fn queue(&mut self, q: QueueId) -> &mut QueueIo {
        let i = q.0 as usize;
        if i >= self.queues.len() {
            self.queues.resize(i + 1, QueueIo::default());
        }
        &mut self.queues[i]
    }

    /// How this stage uses queue `q` (all `false` if it never names it).
    fn on(&self, q: usize) -> QueueIo {
        self.queues.get(q).copied().unwrap_or_default()
    }

    fn mark(&mut self, v: VarId, bit: u8) {
        let i = v.0 as usize;
        if i >= self.vars.len() {
            self.vars.resize(i + 1, 0);
        }
        self.vars[i] |= bit;
    }
}

/// Whether `e` tests `is_control` anywhere.
fn tests_ctrl(e: &Expr) -> bool {
    match e {
        Expr::Const(_) | Expr::Var(_) => false,
        Expr::Unary(op, a) => *op == UnOp::IsCtrl || tests_ctrl(a),
        Expr::Binary(_, a, b) => tests_ctrl(a) || tests_ctrl(b),
        Expr::Load { index, .. } => tests_ctrl(index),
    }
}

fn scan_stmts(stage: &Stage, stmts: &[Stmt], io: &mut StageIo) {
    let func = &stage.program.func;
    for s in stmts {
        s.for_each(&mut |s| {
            s.for_each_header_read(&mut |r| io.mark(r, READ));
            if let Some(w) = s.write() {
                io.mark(w, WRITTEN);
            }
            let mut scan_expr = |e: &Expr| io.inline_ctrl_check |= tests_ctrl(e);
            match s {
                Stmt::Assign { expr, .. } => scan_expr(expr),
                Stmt::Store { index, value, .. } | Stmt::AtomicRmw { index, value, .. } => {
                    scan_expr(index);
                    scan_expr(value);
                }
                Stmt::If { cond, .. } | Stmt::While { cond, .. } => scan_expr(cond),
                Stmt::For { start, end, .. } => {
                    scan_expr(start);
                    scan_expr(end);
                }
                Stmt::Enq { queue, value } => {
                    scan_expr(value);
                    let ty = expr_ty(&func.vars, &func.arrays, value);
                    let q = io.queue(*queue);
                    q.enq_plain = true;
                    q.enq_any = true;
                    q.enq_ty = q.enq_ty.or(ty);
                }
                Stmt::EnqSel {
                    queues,
                    select,
                    value,
                } => {
                    scan_expr(select);
                    scan_expr(value);
                    let ty = expr_ty(&func.vars, &func.arrays, value);
                    for q in queues {
                        let q = io.queue(*q);
                        q.enq_any = true;
                        q.enq_ty = q.enq_ty.or(ty);
                    }
                }
                Stmt::EnqCtrl { queue, ctrl } => {
                    io.queue(*queue).enq_any = true;
                    io.ctrl_out.push((*queue, *ctrl));
                }
                Stmt::Deq { var, queue } => {
                    let ty = func.vars.get(var.0 as usize).map(|d| d.ty);
                    let q = io.queue(*queue);
                    q.deq = true;
                    q.deq_ty = q.deq_ty.or(ty);
                }
                Stmt::Break { .. } => {}
            }
        });
    }
}

fn stage_io(stage: &Stage) -> StageIo {
    let mut io = StageIo {
        vars: Vec::with_capacity(stage.program.func.vars.len()),
        ..StageIo::default()
    };
    scan_stmts(stage, &stage.program.func.body, &mut io);
    for h in &stage.program.handlers {
        io.queue(h.queue).deq = true;
        if let Some(b) = h.bind {
            io.mark(b, WRITTEN);
        }
        scan_stmts(stage, &h.body, &mut io);
        match h.end {
            HandlerEnd::FinishWhen(v, _) | HandlerEnd::BreakWhen(v, _, _) => {
                io.mark(v, READ);
            }
            _ => {}
        }
    }
    io
}

/// The stages whose use of queue `q` satisfies `role`, in stage order.
fn stages_where<'a>(
    ios: &'a [StageIo],
    q: usize,
    role: impl Fn(QueueIo) -> bool + 'a,
) -> impl Iterator<Item = usize> + 'a {
    (0..ios.len()).filter(move |&i| role(ios[i].on(q)))
}

/// Static endpoints of one hardware queue: the stages that enqueue into
/// it and the single stage that dequeues from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueEndpoints {
    /// The queue these endpoints describe.
    pub queue: QueueId,
    /// Stage indices that enqueue via any op (`Enq`/`EnqSel`/`EnqCtrl`),
    /// in stage order. Validated pipelines have at least one.
    pub producers: Vec<usize>,
    /// The consuming stage index. Validated pipelines have exactly one
    /// consumer per queue; `None` only on unvalidated input.
    pub consumer: Option<usize>,
}

/// Computes the producer/consumer endpoints of every queue referenced by
/// `pipeline`, in queue-id order, using the same static scan as the
/// validator. This is the channel-lowering map the native backend keys
/// on: it builds each queue as `slab_channel(depth, producers.len())`,
/// whose one producer works lock-free and whose several (a fan-in queue:
/// EnqSel distribute boundaries, broadcast control) share a lock, and
/// hands the receiving endpoint to `consumer`.
#[must_use]
pub fn queue_topology(pipeline: &Pipeline) -> Vec<QueueEndpoints> {
    let ios: Vec<StageIo> = pipeline.stages.iter().map(stage_io).collect();
    let nq = ios.iter().map(|io| io.queues.len()).max().unwrap_or(0);
    (0..nq)
        .filter(|&q| ios.iter().any(|io| io.on(q).enq_any || io.on(q).deq))
        .map(|q| QueueEndpoints {
            queue: QueueId(q as u16),
            producers: stages_where(&ios, q, |u| u.enq_any).collect(),
            consumer: stages_where(&ios, q, |u| u.deq).next(),
        })
        .collect()
}

/// Validates pipeline-level invariants (see the module docs); `pass`
/// names the compiler pass (or tool phase) whose output is checked and
/// is reported in any [`PipelineError`].
///
/// # Errors
/// Returns the first violation found.
pub fn validate_pipeline(
    pipeline: &Pipeline,
    limits: &ValidateLimits,
    pass: &str,
) -> Result<(), PipelineError> {
    let err = |violation: Violation| PipelineError {
        pass: pass.to_string(),
        violation,
    };
    let name = |i: usize| pipeline.stages[i].program.func.name.clone();
    let ios: Vec<StageIo> = pipeline.stages.iter().map(stage_io).collect();
    let nq = ios.iter().map(|io| io.queues.len()).max().unwrap_or(0);
    let producers = |q: usize| stages_where(&ios, q, |u| u.enq_any);
    let consumers = |q: usize| stages_where(&ios, q, |u| u.deq);

    // -- Queue discipline: range, one consumer, fan-in rules. ---------
    for io in &ios {
        let out_of_range = |q: &usize| *q >= pipeline.num_queues as usize;
        let first_bad = (0..io.queues.len())
            .filter(|&q| io.on(q).enq_any)
            .find(out_of_range)
            .or_else(|| {
                (0..io.queues.len())
                    .filter(|&q| io.on(q).deq)
                    .find(out_of_range)
            });
        if let Some(q) = first_bad {
            return Err(err(Violation::QueueOutOfRange {
                queue: QueueId(q as u16),
                num_queues: pipeline.num_queues,
            }));
        }
    }
    for q in 0..nq {
        let Some(p) = producers(q).next() else {
            continue;
        };
        match consumers(q).count() {
            0 => {
                return Err(err(Violation::NoConsumer {
                    queue: QueueId(q as u16),
                    producer: name(p),
                }));
            }
            1 => {}
            _ => {
                return Err(err(Violation::MultipleConsumers {
                    queue: QueueId(q as u16),
                    stages: consumers(q).map(name).collect(),
                }));
            }
        }
    }
    for q in 0..nq {
        if let Some(c) = consumers(q).next() {
            if producers(q).next().is_none() {
                return Err(err(Violation::NoProducer {
                    queue: QueueId(q as u16),
                    consumer: name(c),
                }));
            }
        }
    }
    for q in 0..nq {
        // A plain enqueuer combined with other (EnqSel/ctrl) producers
        // is fine — that is exactly the distribute-boundary shape.
        if stages_where(&ios, q, |u| u.enq_plain).nth(1).is_some() {
            return Err(err(Violation::MultipleProducers {
                queue: QueueId(q as u16),
                stages: stages_where(&ios, q, |u| u.enq_plain).map(name).collect(),
            }));
        }
    }

    // -- Value-kind agreement per queue. ------------------------------
    for q in 0..nq {
        let mut enq_ty: Option<Ty> = None;
        for p in producers(q) {
            if let Some(t) = ios[p].on(q).enq_ty {
                match enq_ty {
                    None => enq_ty = Some(t),
                    Some(prev) if prev != t => {
                        return Err(err(Violation::KindMismatch {
                            queue: QueueId(q as u16),
                            enq: prev,
                            deq: t,
                        }));
                    }
                    Some(_) => {}
                }
            }
        }
        if let Some(et) = enq_ty {
            for c in consumers(q) {
                if let Some(dt) = ios[c].on(q).deq_ty {
                    if dt != et {
                        return Err(err(Violation::KindMismatch {
                            queue: QueueId(q as u16),
                            enq: et,
                            deq: dt,
                        }));
                    }
                }
            }
        }
    }

    // -- Control-value tag propagation and handler coverage. ----------
    // Seed: explicit EnqCtrl sites, plus Scan RAs' end-of-range tag.
    let mut tags: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); nq];
    let add = |tags: &mut Vec<BTreeSet<u32>>, q: QueueId, t: u32| {
        let q = q.0 as usize;
        if q >= tags.len() {
            tags.resize(q + 1, BTreeSet::new());
        }
        tags[q].insert(t)
    };
    for (i, io) in ios.iter().enumerate() {
        for &(q, t) in &io.ctrl_out {
            add(&mut tags, q, t);
        }
        if let StageKind::Ra(cfg) = &pipeline.stages[i].kind {
            if cfg.mode == RaMode::Scan {
                if let Some(t) = cfg.scan_end_ctrl {
                    add(&mut tags, cfg.out_queue, t);
                }
            }
        }
    }
    // Fixpoint: RAs with `forward_ctrl` copy input tags to the output;
    // handlers whose body re-enqueues the bound CV forward the tags they
    // match (exact handlers their own tag, wildcards everything no exact
    // handler on the same stage+queue claims).
    let mut arriving: Vec<u32> = Vec::new();
    let arrivals = |tags: &[BTreeSet<u32>], q: QueueId, out: &mut Vec<u32>| {
        out.clear();
        if let Some(ts) = tags.get(q.0 as usize) {
            out.extend(ts);
        }
    };
    loop {
        let mut changed = false;
        for stage in &pipeline.stages {
            if let StageKind::Ra(cfg) = &stage.kind {
                if cfg.forward_ctrl {
                    arrivals(&tags, cfg.in_queue, &mut arriving);
                    for &t in &arriving {
                        changed |= add(&mut tags, cfg.out_queue, t);
                    }
                }
            }
            let handlers = &stage.program.handlers;
            let exact =
                |q: QueueId, t: u32| handlers.iter().any(|h| h.queue == q && h.ctrl == Some(t));
            for h in handlers {
                let Some(bind) = h.bind else { continue };
                let forwards = || {
                    h.body.iter().filter_map(move |s| match s {
                        Stmt::Enq {
                            queue,
                            value: Expr::Var(v),
                        } if *v == bind => Some(*queue),
                        _ => None,
                    })
                };
                if forwards().next().is_none() {
                    continue;
                }
                arrivals(&tags, h.queue, &mut arriving);
                for &t in &arriving {
                    let matched = match h.ctrl {
                        Some(ht) => ht == t,
                        None => !exact(h.queue, t),
                    };
                    if matched {
                        for q in forwards() {
                            changed |= add(&mut tags, q, t);
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (q, ts) in tags.iter().enumerate() {
        let Some(&tag) = ts.first() else { continue };
        for c in consumers(q) {
            let stage = &pipeline.stages[c];
            if ios[c].inline_ctrl_check {
                continue; // handler-ablated codegen checks is_control inline
            }
            // A CV arriving at a queue with *no* registered handler is
            // delivered straight into the dequeue's data register — the
            // silent-corruption case this check exists for. Queues with
            // at least one handler are exempt from tag-exact coverage:
            // Phloem's codegen deliberately leaves a trailing DONE
            // unconsumed when a stage terminates via another queue's
            // carrier, and whether an unmatched tag is ever dequeued is
            // a dynamic property (the differential harness covers it).
            let has_handler = stage
                .program
                .handlers
                .iter()
                .any(|h| h.queue.0 as usize == q);
            if !has_handler {
                return Err(err(Violation::UnhandledCtrl {
                    stage: name(c),
                    queue: QueueId(q as u16),
                    tag,
                }));
            }
        }
    }

    // -- RA chains reference live queues. ------------------------------
    for (i, stage) in pipeline.stages.iter().enumerate() {
        if let StageKind::Ra(cfg) = &stage.kind {
            if !producers(cfg.in_queue.0 as usize).any(|p| p != i) {
                return Err(err(Violation::RaDeadInput {
                    stage: name(i),
                    queue: cfg.in_queue,
                }));
            }
            if !consumers(cfg.out_queue.0 as usize).any(|c| c != i) {
                return Err(err(Violation::RaDeadOutput {
                    stage: name(i),
                    queue: cfg.out_queue,
                }));
            }
        }
    }

    // -- Per-core queue budget (queues reside with their consumer). ----
    // Every consumed queue has exactly one consumer by now.
    let mut resident = vec![0usize; pipeline.cores_used()];
    for q in 0..nq {
        for c in consumers(q) {
            resident[pipeline.stages[c].core] += 1;
        }
    }
    for (core, &used) in resident.iter().enumerate() {
        if used > limits.queues_per_core as usize {
            return Err(err(Violation::QueueBudget {
                core,
                used,
                budget: limits.queues_per_core,
            }));
        }
    }

    // -- Backward-slice closure. ---------------------------------------
    for (i, io) in ios.iter().enumerate() {
        let func = &pipeline.stages[i].program.func;
        for (r, &bits) in io.vars.iter().enumerate() {
            let r = VarId(r as u32);
            if bits == READ && !func.params.contains(&r) {
                return Err(err(Violation::UnboundRead {
                    stage: name(i),
                    var: func
                        .vars
                        .get(r.0 as usize)
                        .map(|d| d.name.to_string())
                        .unwrap_or_else(|| format!("{r:?}")),
                }));
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::pipeline::StageProgram;

    fn producer(q: QueueId) -> StageProgram {
        let mut b = FunctionBuilder::new("prod");
        let i = b.var_i64("i");
        b.for_loop(i, Expr::i64(0), Expr::i64(4), |b| {
            b.enq(q, Expr::var(i));
        });
        StageProgram::plain(b.build())
    }

    fn consumer(q: QueueId) -> StageProgram {
        let mut b = FunctionBuilder::new("cons");
        let i = b.var_i64("i");
        let x = b.var_i64("x");
        b.for_loop(i, Expr::i64(0), Expr::i64(4), |b| {
            b.deq(x, q);
        });
        StageProgram::plain(b.build())
    }

    #[test]
    fn accepts_a_simple_two_stage_pipeline() {
        let mut p = Pipeline::new("t");
        p.add_stage(producer(QueueId(0)), 0);
        p.add_stage(consumer(QueueId(0)), 0);
        assert!(validate_pipeline(&p, &ValidateLimits::default(), "test").is_ok());
    }

    #[test]
    fn rejects_dangling_queue() {
        let mut p = Pipeline::new("t");
        p.add_stage(producer(QueueId(0)), 0);
        let e = validate_pipeline(&p, &ValidateLimits::default(), "emit").unwrap_err();
        assert_eq!(e.pass, "emit");
        assert!(matches!(e.violation, Violation::NoConsumer { .. }), "{e}");
    }

    #[test]
    fn rejects_unbound_read() {
        let mut b = FunctionBuilder::new("bad");
        let x = b.var_i64("x");
        let ghost = b.var_i64("ghost");
        b.assign(x, Expr::var(ghost));
        let mut p = Pipeline::new("t");
        p.add_stage(StageProgram::plain(b.build()), 0);
        let e = validate_pipeline(&p, &ValidateLimits::default(), "emit").unwrap_err();
        // `x` is written; `ghost` is not.
        assert!(
            matches!(&e.violation, Violation::UnboundRead { var, .. } if var == "ghost"),
            "{e}"
        );
    }
}
