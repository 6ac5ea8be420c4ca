//! Functional execution: the correctness oracle.
//!
//! [`run_serial`] executes a single function; [`run_pipeline`] executes a
//! whole pipeline with cooperative round-robin scheduling over bounded
//! queues. Both are purely functional (no timing) and return dynamic
//! operation counts.

use crate::mem::MemState;
use crate::pipeline::{Pipeline, StageKind};
use crate::step::{bind_params, StageSpec, StepInterp};
use crate::value::{Trap, Value};
use crate::world::{FunctionalWorld, OpCounts, StepResult, Tid};
use crate::Function;

/// Default per-thread step budget for functional runs.
pub const DEFAULT_BUDGET: u64 = 2_000_000_000;

/// Result of a functional run.
#[derive(Clone, Debug)]
pub struct FunctionalRun {
    /// Final memory.
    pub mem: MemState,
    /// Per-thread op counts.
    pub counts: Vec<OpCounts>,
}

impl FunctionalRun {
    /// Total op counts across threads.
    pub fn total(&self) -> OpCounts {
        let mut t = OpCounts::default();
        for c in &self.counts {
            t.uops += c.uops;
            t.branches += c.branches;
            t.loads += c.loads;
            t.stores += c.stores;
            t.atomics += c.atomics;
            t.enqs += c.enqs;
            t.deqs += c.deqs;
        }
        t
    }
}

/// Runs a serial function to completion.
///
/// # Errors
/// Propagates traps (out-of-bounds, budget exhaustion, or blocking on a
/// queue, which a serial function must not do).
pub fn run_serial(
    func: &Function,
    mem: MemState,
    params: &[(&str, Value)],
) -> Result<FunctionalRun, Trap> {
    func.validate()
        .map_err(|e| Trap::Malformed(e.to_string()))?;
    let mut world = FunctionalWorld::new(mem, 0, 0, 1);
    let bound = bind_params(func, params);
    let mut interp = StepInterp::new(
        StageSpec {
            func,
            handlers: &[],
        },
        Tid(0),
        &bound,
    )
    .with_budget(DEFAULT_BUDGET);
    loop {
        match interp.step(&mut world)? {
            StepResult::Progress => {}
            StepResult::Finished => break,
            StepResult::Blocked(b) => {
                return Err(Trap::Deadlock(format!("serial function blocked on {b:?}")))
            }
        }
    }
    let counts = world.counts.clone();
    Ok(FunctionalRun {
        mem: world.into_mem(),
        counts,
    })
}

/// Runs a pipeline functionally with round-robin scheduling.
///
/// Execution finishes when every *compute* stage has terminated; RAs are
/// allowed to remain blocked on their (drained) input queues, matching
/// the hardware, where RA engines idle once the pipeline ends.
///
/// # Errors
/// Traps on deadlock (all unfinished stages blocked with no compute
/// progress possible), runtime errors, or budget exhaustion
/// ([`Trap::OpBudgetExceeded`] once any stage exceeds
/// [`DEFAULT_BUDGET`] atoms).
pub fn run_pipeline(
    pipeline: &Pipeline,
    mem: MemState,
    params: &[(&str, Value)],
    queue_capacity: usize,
) -> Result<FunctionalRun, Trap> {
    let n = pipeline.stages.len();
    let mut world = FunctionalWorld::new(mem, pipeline.num_queues as usize, queue_capacity, n);
    let mut interps: Vec<StepInterp<'_>> = pipeline
        .stages
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let bound = bind_params(&s.program.func, params);
            StepInterp::new(
                StageSpec {
                    func: &s.program.func,
                    handlers: &s.program.handlers,
                },
                Tid(i as u32),
                &bound,
            )
            .with_budget(DEFAULT_BUDGET)
        })
        .collect();
    let is_compute: Vec<bool> = pipeline
        .stages
        .iter()
        .map(|s| matches!(s.kind, StageKind::Compute))
        .collect();
    const SLICE: u32 = 256;
    loop {
        let mut progressed = false;
        let mut compute_live = false;
        for (i, interp) in interps.iter_mut().enumerate() {
            if interp.is_finished() {
                continue;
            }
            if is_compute[i] {
                compute_live = true;
            }
            let mut slice = 0;
            loop {
                match interp.step(&mut world)? {
                    StepResult::Progress => {
                        progressed = true;
                        slice += 1;
                        if slice >= SLICE {
                            break;
                        }
                    }
                    StepResult::Blocked(_) => break,
                    StepResult::Finished => {
                        progressed = true;
                        break;
                    }
                }
            }
        }
        if !compute_live {
            break;
        }
        if !progressed {
            let blocked: Vec<String> = interps
                .iter()
                .filter(|it| !it.is_finished())
                .map(|it| it.name().to_string())
                .collect();
            return Err(Trap::Deadlock(format!(
                "stages blocked with no progress: {blocked:?}"
            )));
        }
    }
    let counts = world.counts.clone();
    Ok(FunctionalRun {
        mem: world.into_mem(),
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::expr::{Expr, QueueId};
    use crate::func::ArrayDecl;
    use crate::pipeline::StageProgram;
    use crate::value::BinOp;

    #[test]
    fn serial_store_loop() {
        let mut b = FunctionBuilder::new("fill");
        let n = b.param_i64("n");
        let a = b.array_i64("a");
        let i = b.var_i64("i");
        b.for_loop(i, Expr::i64(0), Expr::var(n), |b| {
            b.store(a, Expr::var(i), Expr::mul(Expr::var(i), Expr::var(i)));
        });
        let f = b.build();
        let mut mem = MemState::new();
        let a_id = mem.alloc(ArrayDecl::i64("a"), 5);
        let run = run_serial(&f, mem, &[("n", Value::I64(5))]).unwrap();
        assert_eq!(run.mem.i64_vec(a_id), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn two_stage_pipeline_matches_serial() {
        // Producer: for i in 0..n { enq(0, a[i]) }
        // Consumer: for i in 0..n { x = deq(0); b[i] = x*2 }
        let q = QueueId(0);
        let mut pb = FunctionBuilder::new("producer");
        let n1 = pb.param_i64("n");
        let a1 = pb.array_i64("a");
        let _b1 = pb.array_i64("b");
        let i1 = pb.var_i64("i");
        pb.for_loop(i1, Expr::i64(0), Expr::var(n1), |b| {
            let l = b.load(a1, Expr::var(i1));
            b.enq(q, l);
        });
        let mut cb = FunctionBuilder::new("consumer");
        let n2 = cb.param_i64("n");
        let _a2 = cb.array_i64("a");
        let b2 = cb.array_i64("b");
        let i2 = cb.var_i64("i");
        let x2 = cb.var_i64("x");
        cb.for_loop(i2, Expr::i64(0), Expr::var(n2), |b| {
            b.deq(x2, q);
            b.store(b2, Expr::var(i2), Expr::mul(Expr::var(x2), Expr::i64(2)));
        });
        let mut p = Pipeline::new("double");
        p.add_stage(StageProgram::plain(pb.build()), 0);
        p.add_stage(StageProgram::plain(cb.build()), 0);

        let mut mem = MemState::new();
        let _a = mem.alloc_i64(ArrayDecl::i64("a"), [3, 1, 4, 1, 5]);
        let bid = mem.alloc(ArrayDecl::i64("b"), 5);
        let run = run_pipeline(&p, mem, &[("n", Value::I64(5))], 4).unwrap();
        assert_eq!(run.mem.i64_vec(bid), vec![6, 2, 8, 2, 10]);
        let t = run.total();
        assert_eq!(t.enqs, 5);
        assert_eq!(t.deqs, 5);
    }

    #[test]
    fn deadlock_is_detected() {
        // A single consumer stage dequeues from a queue nobody fills.
        let q = QueueId(0);
        let mut cb = FunctionBuilder::new("starved");
        let x = cb.var_i64("x");
        cb.deq(x, q);
        let mut p = Pipeline::new("dead");
        p.add_stage(StageProgram::plain(cb.build()), 0);
        // num_queues stays 1 via usage scan.
        let err = run_pipeline(&p, MemState::new(), &[], 4).unwrap_err();
        assert!(matches!(err, Trap::Deadlock(_)));
    }

    #[test]
    fn atomic_pipeline_updates() {
        // Two "data-parallel" stages atomically add into the same cell.
        let mut p = Pipeline::new("atomics");
        for s in 0..2 {
            let mut b = FunctionBuilder::new(format!("w{s}"));
            let a = b.array_i64("acc");
            let i = b.var_i64("i");
            b.for_loop(i, Expr::i64(0), Expr::i64(10), |b| {
                b.atomic_rmw(BinOp::Add, a, Expr::i64(0), Expr::i64(1), None);
            });
            p.add_stage(StageProgram::plain(b.build()), 0);
        }
        let mut mem = MemState::new();
        let acc = mem.alloc(ArrayDecl::i64("acc"), 1);
        let run = run_pipeline(&p, mem, &[], 4).unwrap();
        assert_eq!(run.mem.i64_vec(acc), vec![20]);
    }
}
