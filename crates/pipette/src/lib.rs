//! # pipette-sim
//!
//! A cycle-level simulator of the **Pipette** architecture (Nguyen &
//! Sanchez, MICRO 2020), the baseline hardware of the Phloem paper
//! (HPCA 2023): out-of-order SMT cores extended with
//!
//! * architecturally visible hardware FIFO **queues** (`enq`/`deq`,
//!   blocking, bounded depth),
//! * **reference accelerators** (RAs) that offload `INDIRECT` and `SCAN`
//!   access patterns, including chained RAs,
//! * in-band **control values** with hardware **control-value handlers**.
//!
//! The simulator executes [`phloem_ir::Pipeline`]s: each stage runs as an
//! SMT thread (or RA engine) stepped by the shared IR interpreter, with
//! a timing model that captures bounded instruction windows, shared issue
//! bandwidth, branch misprediction, a full cache hierarchy with DRAM
//! bandwidth, and queue back-pressure. Energy is accounted per event in
//! McPAT-like ratios.
//!
//! ```
//! use phloem_ir::{ArrayDecl, Expr, FunctionBuilder, MemState, Pipeline, StageProgram, Value};
//! use pipette_sim::{Machine, MachineConfig};
//!
//! // A one-stage (serial) "program": sum = sum of a[].
//! let mut b = FunctionBuilder::new("serial");
//! let n = b.param_i64("n");
//! let a = b.array_i64("a");
//! let i = b.var_i64("i");
//! let out = b.array_i64("out");
//! let s = b.var_i64("s");
//! b.for_loop(i, Expr::i64(0), Expr::var(n), |b| {
//!     let l = b.load(a, Expr::var(i));
//!     b.assign(s, Expr::add(Expr::var(s), l));
//! });
//! b.store(out, Expr::i64(0), Expr::var(s));
//! let mut p = Pipeline::new("sum");
//! p.add_stage(StageProgram::plain(b.build()), 0);
//!
//! let mut mem = MemState::new();
//! mem.alloc_i64(ArrayDecl::i64("a"), 0..100);
//! let out_id = mem.alloc(ArrayDecl::i64("out"), 1);
//! let cfg = MachineConfig::paper_1core();
//! let run = Machine::run_once(&cfg, &p, mem, &[("n", Value::I64(100))])?;
//! assert_eq!(run.mem.i64_vec(out_id), vec![4950]);
//! assert!(run.stats.cycles > 0);
//! # Ok::<(), phloem_ir::Trap>(())
//! ```

#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod config;
pub mod energy;
pub mod faults;
pub mod machine;
pub mod metrics;
pub mod native;
mod queue;
mod scheduler;
pub mod stats;
mod timing;
pub mod trace;
pub mod watchdog;

pub use cache::{CacheStats, HitLevel, MemHierarchy};
pub use config::{CacheParams, MachineConfig};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use faults::{Fault, FaultPlan};
pub use machine::{CancelScope, CompiledPipeline, Machine, RunOutcome, Session};
pub use metrics::{MetricsSink, QueueMetrics, StageMetrics};
// The channel kind only picks the buffer of a public `native::channel`,
// which the benchmark's per-kind probe still builds (see that module).
pub use native::{BackendScope, ChannelKind, ExecBackend, NativeConfig};
pub use phloem_pool::CancelToken;
pub use stats::{CycleBreakdown, QueueStats, RunStats, ThreadStats};
pub use trace::{
    DigestSink, NoopSink, PerfettoSink, RingSink, StageMeta, StallKind, TeeSink, TraceEvent,
    TraceMeta, TraceSink, TraceVerdict, EV_ALL, EV_CTRL, EV_FAULT, EV_QUEUE, EV_RA, EV_SCHED,
    EV_STALL, EV_WATCHDOG,
};
pub use watchdog::WatchdogConfig;
