//! # Phloem IR
//!
//! The intermediate representation used throughout this reproduction of
//! *Phloem: Automatic Acceleration of Irregular Applications with
//! Fine-Grain Pipeline Parallelism* (HPCA 2023).
//!
//! The paper notes that conventional IRs (e.g. LLVM's) lack support for
//! queue operations and for conveying control-flow changes between
//! decoupled stages; Phloem therefore uses a custom fine-grain IR. This
//! crate provides that IR:
//!
//! * [`Expr`] / [`Stmt`]: a *structured* program representation (loops
//!   as trees, not CFGs), with three-address-style micro-op accounting.
//! * Queue operations (`enq`, `enq_ctrl`, `deq`) and in-band
//!   [control values](Value::Ctrl) with hardware-handler semantics
//!   ([`CtrlHandler`]), mirroring Pipette's ISA (Table I of the paper).
//! * [`Pipeline`]: stage programs plus reference-accelerator
//!   configurations ([`RaConfig`]) and queue topology.
//! * Two resumable stage interpreters behind one [`World`] trait: the
//!   tree-walking [`StepInterp`], which is the functional oracle in this
//!   crate ([`interp`]), and [`FlatInterp`] over [`bytecode`], which
//!   `pipette-sim` runs against its cycle-level timing model and on real
//!   threads. They make the same `World` calls in the same order.
//!
//! ## Quick example
//!
//! ```
//! use phloem_ir::{ArrayDecl, Expr, FunctionBuilder, MemState, Value};
//!
//! // sum = sum of a[0..n]
//! let mut b = FunctionBuilder::new("sum");
//! let n = b.param_i64("n");
//! let a = b.array_i64("a");
//! let i = b.var_i64("i");
//! let sum = b.var_i64("sum");
//! b.for_loop(i, Expr::i64(0), Expr::var(n), |b| {
//!     let l = b.load(a, Expr::var(i));
//!     b.assign(sum, Expr::add(Expr::var(sum), l));
//! });
//! let f = b.build();
//!
//! let mut mem = MemState::new();
//! mem.alloc_i64(ArrayDecl::i64("a"), [1, 2, 3]);
//! let run = phloem_ir::interp::run_serial(&f, mem, &[("n", Value::I64(3))])?;
//! assert_eq!(run.total().loads, 3);
//! # Ok::<(), phloem_ir::Trap>(())
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod bytecode;
pub mod expr;
pub mod flat;
pub mod func;
pub mod interp;
pub mod mem;
pub mod pipeline;
pub mod pretty;
pub mod step;
pub mod stmt;
pub mod validate;
pub mod value;
pub mod world;

pub use builder::FunctionBuilder;
pub use bytecode::{compile, BytecodeProgram, ExecEngine};
pub use expr::{ArrayId, BranchId, Expr, LoadId, QueueId, VarId};
pub use flat::FlatInterp;
pub use func::{expr_ty, ArrayDecl, Function, ValidateError, VarDecl};
pub use mem::MemState;
pub use pipeline::{Pipeline, RaConfig, RaMode, Stage, StageKind, StageProgram};
pub use step::{bind_params, StageExec, StageSpec, StepInterp};
pub use stmt::{CtrlHandler, HandlerEnd, Stmt};
pub use validate::{
    queue_topology, validate_pipeline, PipelineError, QueueEndpoints, ValidateLimits, Violation,
};
pub use value::{eval_binop, eval_unop, BinOp, Trap, Ty, UnOp, Value};
pub use world::{BlockReason, FunctionalWorld, OpCounts, StepResult, Tid, Time, UopClass, World};
