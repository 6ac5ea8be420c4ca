//! Pipelines: collections of stage programs, reference accelerators, and
//! queue topology — the unit the Pipette machine executes.

use crate::builder::FunctionBuilder;
use crate::expr::{ArrayId, QueueId};
use crate::func::{ArrayDecl, Function};
use crate::stmt::{CtrlHandler, HandlerEnd, Stmt};
use crate::value::Trap;

/// One stage's code: a function plus registered control-value handlers.
#[derive(Clone, Debug, PartialEq)]
pub struct StageProgram {
    /// The stage's function body.
    pub func: Function,
    /// Registered control-value handlers.
    pub handlers: Vec<CtrlHandler>,
}

impl StageProgram {
    /// A stage with no handlers.
    pub fn plain(func: Function) -> StageProgram {
        StageProgram {
            func,
            handlers: Vec::new(),
        }
    }
}

/// Access mode of a reference accelerator (Table I of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaMode {
    /// Each input word is an index into the base array.
    Indirect,
    /// Input words come in (start, end) pairs; the RA streams
    /// `base[start..end]`.
    Scan,
}

/// Configuration of one reference accelerator.
#[derive(Clone, Debug, PartialEq)]
pub struct RaConfig {
    /// Display name.
    pub name: String,
    /// Access mode.
    pub mode: RaMode,
    /// Array the RA indirects into / scans.
    pub base: ArrayId,
    /// Queue the RA consumes indices (or ranges) from.
    pub in_queue: QueueId,
    /// Queue the RA delivers loaded values to.
    pub out_queue: QueueId,
    /// Whether control values arriving on the input are forwarded to the
    /// output (chained RAs and downstream stages rely on this).
    pub forward_ctrl: bool,
    /// For [`RaMode::Scan`]: emit this control value after each range.
    pub scan_end_ctrl: Option<u32>,
}

/// What kind of execution resource a stage occupies.
#[derive(Clone, Debug, PartialEq)]
pub enum StageKind {
    /// An SMT thread of an OOO core.
    Compute,
    /// A reference accelerator engine.
    Ra(RaConfig),
}

/// A placed stage.
#[derive(Clone, Debug, PartialEq)]
pub struct Stage {
    /// Code.
    pub program: StageProgram,
    /// Resource kind.
    pub kind: StageKind,
    /// Core index the stage is placed on.
    pub core: usize,
}

/// A complete pipeline.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Pipeline {
    /// Display name.
    pub name: String,
    /// Stages in dataflow order (producers before consumers by
    /// convention; execution does not rely on the order).
    pub stages: Vec<Stage>,
    /// Number of queue ids used (ids `0..num_queues`).
    pub num_queues: u16,
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new(name: impl Into<String>) -> Pipeline {
        Pipeline {
            name: name.into(),
            stages: Vec::new(),
            num_queues: 0,
        }
    }

    /// Adds a compute stage on `core`; returns its index.
    pub fn add_stage(&mut self, program: StageProgram, core: usize) -> usize {
        self.bump_queues(&program.func);
        self.stages.push(Stage {
            program,
            kind: StageKind::Compute,
            core,
        });
        self.stages.len() - 1
    }

    /// Adds a reference accelerator on `core`; its stage program is
    /// generated from the configuration. Returns its index.
    pub fn add_ra(&mut self, cfg: RaConfig, arrays: &[ArrayDecl], core: usize) -> usize {
        let program = ra_stage_program(&cfg, arrays);
        self.bump_queues(&program.func);
        self.stages.push(Stage {
            program,
            kind: StageKind::Ra(cfg),
            core,
        });
        self.stages.len() - 1
    }

    fn bump_queues(&mut self, func: &Function) {
        for q in func.queues_used() {
            self.num_queues = self.num_queues.max(q.0 + 1);
        }
    }

    /// Number of compute (SMT-thread) stages.
    pub fn compute_stages(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| matches!(s.kind, StageKind::Compute))
            .count()
    }

    /// Number of reference accelerators.
    pub fn ra_stages(&self) -> usize {
        self.stages.len() - self.compute_stages()
    }

    /// Total stage count including RAs (the metric of Fig. 13).
    pub fn total_stages(&self) -> usize {
        self.stages.len()
    }

    /// Cores referenced by the placement.
    pub fn cores_used(&self) -> usize {
        self.stages.iter().map(|s| s.core + 1).max().unwrap_or(0)
    }

    /// Structural checks: stage programs validate; queue ids fit the
    /// hardware limit; per-core thread and RA counts fit.
    ///
    /// # Errors
    /// Returns a descriptive trap for the first violation.
    pub fn check(
        &self,
        max_queues: u16,
        smt_threads: usize,
        ras_per_core: usize,
    ) -> Result<(), Trap> {
        if self.num_queues > max_queues {
            return Err(Trap::Malformed(format!(
                "pipeline uses {} queues but hardware has {max_queues}",
                self.num_queues
            )));
        }
        for core in 0..self.cores_used() {
            let threads = self
                .stages
                .iter()
                .filter(|s| s.core == core && matches!(s.kind, StageKind::Compute))
                .count();
            let ras = self
                .stages
                .iter()
                .filter(|s| s.core == core && matches!(s.kind, StageKind::Ra(_)))
                .count();
            if threads > smt_threads {
                return Err(Trap::Malformed(format!(
                    "core {core} has {threads} compute stages but only {smt_threads} SMT threads"
                )));
            }
            if ras > ras_per_core {
                return Err(Trap::Malformed(format!(
                    "core {core} has {ras} RAs but only {ras_per_core} RA engines"
                )));
            }
        }
        for s in &self.stages {
            s.program
                .func
                .validate()
                .map_err(|e| Trap::Malformed(format!("stage {}: {e}", s.program.func.name)))?;
        }
        Ok(())
    }
}

/// Generates the stage program equivalent to a reference accelerator's
/// FSM. The generated program is executed with RA timing parameters by
/// the machine (no core issue bandwidth, fixed concurrency).
pub fn ra_stage_program(cfg: &RaConfig, arrays: &[ArrayDecl]) -> StageProgram {
    use crate::expr::Expr;
    let mut b = FunctionBuilder::new(format!("ra:{}", cfg.name));
    for decl in arrays {
        b.array(decl.clone());
    }
    let mut handlers = Vec::new();
    match cfg.mode {
        RaMode::Indirect => {
            let v = b.var_i64("ra_idx");
            let x = b.var(
                "ra_val",
                arrays
                    .get(cfg.base.0 as usize)
                    .map(|d| d.ty)
                    .unwrap_or(crate::value::Ty::I64),
            );
            b.while_true(|b| {
                b.deq(v, cfg.in_queue);
                let l = b.load(cfg.base, Expr::var(v));
                b.assign(x, l);
                b.enq(cfg.out_queue, Expr::var(x));
            });
            let cv = b.var_i64("ra_cv");
            if cfg.forward_ctrl {
                handlers.push(CtrlHandler {
                    queue: cfg.in_queue,
                    ctrl: None,
                    bind: Some(cv),
                    body: vec![Stmt::Enq {
                        queue: cfg.out_queue,
                        value: Expr::var(cv),
                    }],
                    end: HandlerEnd::Resume,
                });
            } else {
                handlers.push(CtrlHandler {
                    queue: cfg.in_queue,
                    ctrl: None,
                    bind: Some(cv),
                    body: Vec::new(),
                    end: HandlerEnd::Resume,
                });
            }
        }
        RaMode::Scan => {
            let s = b.var_i64("ra_start");
            let e = b.var_i64("ra_end");
            let i = b.var_i64("ra_i");
            let x = b.var(
                "ra_val",
                arrays
                    .get(cfg.base.0 as usize)
                    .map(|d| d.ty)
                    .unwrap_or(crate::value::Ty::I64),
            );
            let end_ctrl = cfg.scan_end_ctrl;
            b.while_true(|b| {
                b.deq(s, cfg.in_queue);
                b.deq(e, cfg.in_queue);
                b.for_loop(i, Expr::var(s), Expr::var(e), |b| {
                    let l = b.load(cfg.base, Expr::var(i));
                    b.assign(x, l);
                    b.enq(cfg.out_queue, Expr::var(x));
                });
                if let Some(cv) = end_ctrl {
                    b.enq_ctrl(cfg.out_queue, cv);
                }
            });
            let cv = b.var_i64("ra_cv");
            let body = if cfg.forward_ctrl {
                vec![Stmt::Enq {
                    queue: cfg.out_queue,
                    value: Expr::var(cv),
                }]
            } else {
                Vec::new()
            };
            handlers.push(CtrlHandler {
                queue: cfg.in_queue,
                ctrl: None,
                bind: Some(cv),
                body,
                end: HandlerEnd::Resume,
            });
        }
    }
    StageProgram {
        func: b.build(),
        handlers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn dummy_stage(name: &str, q_out: Option<QueueId>) -> StageProgram {
        let mut b = FunctionBuilder::new(name);
        let i = b.var_i64("i");
        b.for_loop(i, Expr::i64(0), Expr::i64(4), |b| {
            if let Some(q) = q_out {
                b.enq(q, Expr::var(i));
            }
        });
        StageProgram::plain(b.build())
    }

    #[test]
    fn queue_count_tracks_usage() {
        let mut p = Pipeline::new("t");
        p.add_stage(dummy_stage("a", Some(QueueId(3))), 0);
        assert_eq!(p.num_queues, 4);
    }

    #[test]
    fn check_rejects_oversubscribed_core() {
        let mut p = Pipeline::new("t");
        for k in 0..5 {
            p.add_stage(dummy_stage(&format!("s{k}"), None), 0);
        }
        assert!(p.check(16, 4, 4).is_err());
        let mut p2 = Pipeline::new("t2");
        for k in 0..4 {
            p2.add_stage(dummy_stage(&format!("s{k}"), None), 0);
        }
        assert!(p2.check(16, 4, 4).is_ok());
    }

    #[test]
    fn ra_programs_validate() {
        let arrays = vec![ArrayDecl::i32("edges")];
        for mode in [RaMode::Indirect, RaMode::Scan] {
            let cfg = RaConfig {
                name: "r".into(),
                mode,
                base: ArrayId(0),
                in_queue: QueueId(0),
                out_queue: QueueId(1),
                forward_ctrl: true,
                scan_end_ctrl: Some(1),
            };
            let prog = ra_stage_program(&cfg, &arrays);
            assert!(prog.func.validate().is_ok(), "{mode:?}");
            assert_eq!(prog.handlers.len(), 1);
        }
    }
}
