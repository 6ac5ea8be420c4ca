//! Behavioural tests of the timing model using the paper's introductory
//! kernel:
//!
//! ```c
//! for (i = 0; i < n; i++)
//!     if (A[i] > 0) work(B[A[i]]);
//! ```
//!
//! The pipeline-parallel decomposition (fetch A -> filter -> fetch B ->
//! work) must beat the serial version on irregular data, and offloading
//! the B fetch to a reference accelerator must not hurt.

use phloem_ir::{
    interp, ArrayDecl, ArrayId, CtrlHandler, Expr, FunctionBuilder, HandlerEnd, MemState, Pipeline,
    QueueId, RaConfig, RaMode, StageProgram, Stmt, Value,
};
use pipette_sim::{Machine, MachineConfig};

const DONE: u32 = 0;
const N: i64 = 8_000;
const BN: i64 = 1 << 18;

/// Builds input memory: A holds signed indices into B (alternating sign
/// pattern controlled by `alternate`), B holds pseudo-random values.
fn build_mem(alternate: bool) -> (MemState, ArrayId, ArrayId, ArrayId) {
    let mut mem = MemState::new();
    let mut x = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let a_vals: Vec<i64> = (0..N)
        .map(|i| {
            let idx = (next() % BN as u64) as i64;
            let neg = if alternate { i % 2 == 0 } else { false };
            if neg {
                -idx - 1
            } else {
                idx
            }
        })
        .collect();
    let b_vals: Vec<i64> = (0..BN).map(|_| (next() % 1000) as i64).collect();
    let a = mem.alloc_i64(ArrayDecl::i32("A"), a_vals);
    let b = mem.alloc_i64(ArrayDecl::i32("B"), b_vals);
    let out = mem.alloc(ArrayDecl::i64("out"), 1);
    (mem, a, b, out)
}

fn arrays() -> Vec<ArrayDecl> {
    vec![
        ArrayDecl::i32("A"),
        ArrayDecl::i32("B"),
        ArrayDecl::i64("out"),
    ]
}

fn serial_func() -> phloem_ir::Function {
    let mut b = FunctionBuilder::new("serial");
    let n = b.param_i64("n");
    let a_id = b.array_i32("A");
    let b_id = b.array_i32("B");
    let out = b.array_i64("out");
    let i = b.var_i64("i");
    let av = b.var_i64("av");
    let bv = b.var_i64("bv");
    let sum = b.var_i64("sum");
    b.for_loop(i, Expr::i64(0), Expr::var(n), |f| {
        let la = f.load(a_id, Expr::var(i));
        f.assign(av, la);
        f.if_then(
            Expr::bin(phloem_ir::BinOp::Gt, Expr::var(av), Expr::i64(0)),
            |f| {
                let lb = f.load(b_id, Expr::var(av));
                f.assign(bv, lb);
                f.assign(
                    sum,
                    Expr::add(
                        Expr::var(sum),
                        Expr::add(Expr::mul(Expr::var(bv), Expr::i64(3)), Expr::i64(1)),
                    ),
                );
            },
        );
    });
    b.store(out, Expr::i64(0), Expr::var(sum));
    b.build()
}

/// Fetch A -> Filter -> Fetch B -> Work, with control values ending the
/// stream. `use_ra` replaces the "fetch B" stage with an INDIRECT RA.
fn pipeline(use_ra: bool) -> Pipeline {
    let q_a = QueueId(0); // A values
    let q_f = QueueId(1); // filtered indices
    let q_b = QueueId(2); // B values
    let mut p = Pipeline::new(if use_ra { "pipe-ra" } else { "pipe" });

    // Stage 0: fetch A.
    let mut s0 = FunctionBuilder::new("fetch_a");
    let n = s0.param_i64("n");
    let a_id = s0.array_i32("A");
    let _ = s0.array_i32("B");
    let _ = s0.array_i64("out");
    let i = s0.var_i64("i");
    s0.for_loop(i, Expr::i64(0), Expr::var(n), |f| {
        let la = f.load(a_id, Expr::var(i));
        f.enq(q_a, la);
    });
    s0.enq_ctrl(q_a, DONE);
    p.add_stage(StageProgram::plain(s0.build()), 0);

    // Stage 1: filter.
    let mut s1 = FunctionBuilder::new("filter");
    let _ = s1.array_i32("A");
    let _ = s1.array_i32("B");
    let _ = s1.array_i64("out");
    let av = s1.var_i64("av");
    s1.while_true(|f| {
        f.deq(av, q_a);
        f.if_then(
            Expr::bin(phloem_ir::BinOp::Gt, Expr::var(av), Expr::i64(0)),
            |f| f.enq(q_f, Expr::var(av)),
        );
    });
    let h1 = CtrlHandler {
        queue: q_a,
        ctrl: Some(DONE),
        bind: None,
        body: vec![Stmt::EnqCtrl {
            queue: q_f,
            ctrl: DONE,
        }],
        end: HandlerEnd::FinishStage,
    };
    p.add_stage(
        StageProgram {
            func: s1.build(),
            handlers: vec![h1],
        },
        0,
    );

    // Stage 2: fetch B (compute stage or RA).
    if use_ra {
        p.add_ra(
            RaConfig {
                name: "fetch_b".into(),
                mode: RaMode::Indirect,
                base: ArrayId(1),
                in_queue: q_f,
                out_queue: q_b,
                forward_ctrl: true,
                scan_end_ctrl: None,
            },
            &arrays(),
            0,
        );
    } else {
        let mut s2 = FunctionBuilder::new("fetch_b");
        let _ = s2.array_i32("A");
        let b_id = s2.array_i32("B");
        let _ = s2.array_i64("out");
        let idx = s2.var_i64("idx");
        s2.while_true(|f| {
            f.deq(idx, q_f);
            let lb = f.load(b_id, Expr::var(idx));
            f.enq(q_b, lb);
        });
        let h2 = CtrlHandler {
            queue: q_f,
            ctrl: Some(DONE),
            bind: None,
            body: vec![Stmt::EnqCtrl {
                queue: q_b,
                ctrl: DONE,
            }],
            end: HandlerEnd::FinishStage,
        };
        p.add_stage(
            StageProgram {
                func: s2.build(),
                handlers: vec![h2],
            },
            0,
        );
    }

    // Stage 3: work.
    let mut s3 = FunctionBuilder::new("work");
    let _ = s3.array_i32("A");
    let _ = s3.array_i32("B");
    let out = s3.array_i64("out");
    let bv = s3.var_i64("bv");
    let sum = s3.var_i64("sum");
    s3.while_true(|f| {
        f.deq(bv, q_b);
        f.assign(
            sum,
            Expr::add(
                Expr::var(sum),
                Expr::add(Expr::mul(Expr::var(bv), Expr::i64(3)), Expr::i64(1)),
            ),
        );
    });
    let h3 = CtrlHandler {
        queue: q_b,
        ctrl: Some(DONE),
        bind: None,
        body: vec![Stmt::Store {
            array: out,
            index: Expr::i64(0),
            value: Expr::var(sum),
        }],
        end: HandlerEnd::FinishStage,
    };
    p.add_stage(
        StageProgram {
            func: s3.build(),
            handlers: vec![h3],
        },
        0,
    );
    p
}

fn run_serial(alternate: bool) -> (Vec<i64>, u64) {
    let (mem, _, _, out) = build_mem(alternate);
    let f = serial_func();
    let mut p = Pipeline::new("serial");
    p.add_stage(StageProgram::plain(f), 0);
    let run = Machine::run_once(
        &MachineConfig::paper_1core(),
        &p,
        mem,
        &[("n", Value::I64(N))],
    )
    .expect("serial run");
    (run.mem.i64_vec(out), run.stats.cycles)
}

fn run_pipe(use_ra: bool, alternate: bool) -> (Vec<i64>, u64) {
    let (mem, _, _, out) = build_mem(alternate);
    let p = pipeline(use_ra);
    let run = Machine::run_once(
        &MachineConfig::paper_1core(),
        &p,
        mem,
        &[("n", Value::I64(N))],
    )
    .expect("pipeline run");
    (run.mem.i64_vec(out), run.stats.cycles)
}

#[test]
fn pipeline_matches_serial_semantics() {
    let (serial_out, _) = run_serial(true);
    let (pipe_out, _) = run_pipe(false, true);
    let (ra_out, _) = run_pipe(true, true);
    assert_eq!(serial_out, pipe_out);
    assert_eq!(serial_out, ra_out);
    // And the functional oracle agrees.
    let (mem, _, _, out) = build_mem(true);
    let run = interp::run_pipeline(&pipeline(true), mem, &[("n", Value::I64(N))], 24)
        .expect("functional");
    assert_eq!(run.mem.i64_vec(out), serial_out);
}

#[test]
fn decoupling_beats_serial_on_irregular_input() {
    let (_, serial_cycles) = run_serial(true);
    let (_, pipe_cycles) = run_pipe(false, true);
    assert!(
        pipe_cycles * 12 < serial_cycles * 10,
        "expected >=1.2x speedup: serial={serial_cycles}, pipeline={pipe_cycles}"
    );
}

#[test]
fn reference_accelerator_does_not_hurt() {
    let (_, pipe_cycles) = run_pipe(false, true);
    let (_, ra_cycles) = run_pipe(true, true);
    assert!(
        ra_cycles <= pipe_cycles * 11 / 10,
        "RA offload must not slow the pipeline: pipe={pipe_cycles}, ra={ra_cycles}"
    );
}

#[test]
fn unpredictable_branches_slow_the_serial_version() {
    // All-positive A: the filter branch is perfectly predictable.
    let (_, predictable) = run_serial(false);
    let (_, alternating) = run_serial(true);
    // The alternating version does *less* work (half the B loads) yet
    // must not be much faster; mispredictions should eat the difference.
    assert!(
        alternating * 10 > predictable * 7,
        "mispredicts should hurt: predictable={predictable}, alternating={alternating}"
    );
}

#[test]
fn cross_core_pipelines_work() {
    // Same pipeline but the last stage on core 1.
    let (mem, _, _, out) = build_mem(true);
    let mut p = pipeline(false);
    let last = p.stages.len() - 1;
    p.stages[last].core = 1;
    let cfg = MachineConfig::paper_multicore(2);
    let run = Machine::run_once(&cfg, &p, mem, &[("n", Value::I64(N))]).expect("2-core run");
    let (serial_out, _) = run_serial(true);
    assert_eq!(run.mem.i64_vec(out), serial_out);
}

#[test]
fn queue_stalls_are_visible_in_stats() {
    let (mem, _, _, _) = build_mem(true);
    let p = pipeline(false);
    let run = Machine::run_once(
        &MachineConfig::paper_1core(),
        &p,
        mem,
        &[("n", Value::I64(N))],
    )
    .unwrap();
    let total_queue_stalls: u64 = run
        .stats
        .threads
        .iter()
        .map(|t| t.queue_stall_cycles())
        .sum();
    assert!(
        total_queue_stalls > 0,
        "an imbalanced pipeline must show queue stalls"
    );
    let b = run.stats.cycle_breakdown(6);
    assert!(b.total() > 0.0);
}

/// Diagnostic (run with `--ignored --nocapture`): prints cycle counts for
/// calibrating the timing model.
#[test]
#[ignore = "diagnostic only"]
fn print_calibration() {
    let (_, serial) = run_serial(true);
    let (_, pipe) = run_pipe(false, true);
    let (_, ra) = run_pipe(true, true);
    println!(
        "serial={serial} pipe={pipe} ({:.2}x) ra={ra} ({:.2}x)",
        serial as f64 / pipe as f64,
        serial as f64 / ra as f64
    );
}

#[test]
fn scheduler_wakes_parked_threads() {
    // The scheduler parks blocked threads on wait-lists, so wakeups
    // must occur in any pipeline with real cross-stage flow.
    let (mem, _, _, _) = build_mem(true);
    let p = pipeline(false);
    let run = Machine::run_once(
        &MachineConfig::paper_1core(),
        &p,
        mem,
        &[("n", Value::I64(N))],
    )
    .unwrap();
    for t in &run.stats.threads {
        assert!(
            t.spurious_wakeups <= t.wakeups,
            "{}: spurious wakeups cannot exceed wakeups",
            t.name
        );
    }
    let total_wakeups: u64 = run.stats.threads.iter().map(|t| t.wakeups).sum();
    assert!(total_wakeups > 0, "queue hand-offs must produce wakeups");
}

#[test]
fn stall_reasons_split_into_full_and_empty() {
    let (mem, _, _, _) = build_mem(true);
    let p = pipeline(false);
    let run = Machine::run_once(
        &MachineConfig::paper_1core(),
        &p,
        mem,
        &[("n", Value::I64(N))],
    )
    .unwrap();
    // The downstream `work` stage waits for data (empty), the upstream
    // fetch stage waits for space (full) in this imbalanced pipeline.
    let empty: u64 = run
        .stats
        .threads
        .iter()
        .map(|t| t.queue_empty_stall_cycles)
        .sum();
    assert!(empty > 0, "consumers must report queue-empty stalls");
}

#[test]
fn queue_occupancy_stats_are_recorded() {
    let (mem, _, _, _) = build_mem(true);
    let p = pipeline(false);
    let run = Machine::run_once(
        &MachineConfig::paper_1core(),
        &p,
        mem,
        &[("n", Value::I64(N))],
    )
    .unwrap();
    assert_eq!(
        run.stats.queues.len(),
        3,
        "one stats slot per hardware queue"
    );
    for (k, q) in run.stats.queues.iter().enumerate() {
        assert!(q.enqs > 0, "q{k} saw no traffic");
        assert_eq!(q.enqs, q.deqs, "q{k} must drain completely");
        assert!(q.max_occupancy >= 1 && q.max_occupancy <= q.capacity);
        let samples: u64 = q.occupancy_hist.iter().sum();
        assert_eq!(samples, q.enqs + q.deqs, "q{k} histogram samples");
        assert!(q.mean_occupancy() <= q.capacity as f64);
    }
}

#[test]
fn deadlock_reports_the_wait_cycle() {
    // Two stages waiting on each other's output: `ping` deqs q0 before
    // producing into q1, `pong` deqs q1 before producing into q0.
    let q0 = QueueId(0);
    let q1 = QueueId(1);
    let mut p = Pipeline::new("circular");
    let mut a = FunctionBuilder::new("ping");
    let x = a.var_i64("x");
    a.while_true(|f| {
        f.deq(x, q0);
        f.enq(q1, Expr::var(x));
    });
    p.add_stage(StageProgram::plain(a.build()), 0);
    let mut b = FunctionBuilder::new("pong");
    let y = b.var_i64("y");
    b.while_true(|f| {
        f.deq(y, q1);
        f.enq(q0, Expr::var(y));
    });
    p.add_stage(StageProgram::plain(b.build()), 0);

    let err = Machine::run_once(&MachineConfig::paper_1core(), &p, MemState::new(), &[])
        .expect_err("circular wait must deadlock");
    let msg = err.to_string();
    assert!(msg.contains("deadlocked"), "{msg}");
    assert!(msg.contains("wait cycle"), "{msg}");
    assert!(msg.contains("`ping`") && msg.contains("`pong`"), "{msg}");
    // Occupancy/capacity of the blocking queues is part of the report.
    assert!(msg.contains("empty 0/"), "{msg}");
    assert!(msg.contains("q0") && msg.contains("q1"), "{msg}");
}

#[test]
fn starvation_deadlock_reports_no_cycle() {
    // A producer that finishes after fewer items than the consumer
    // dequeues: statically well-formed (the pipeline validator accepts
    // it), but at runtime the consumer blocks with no producer left —
    // the report must say starvation, not cycle.
    let q0 = QueueId(0);
    let mut p = Pipeline::new("starved");
    let mut a = FunctionBuilder::new("producer_done");
    let i = a.var_i64("i");
    a.for_loop(i, Expr::i64(0), Expr::i64(2), |f| {
        f.enq(q0, Expr::var(i));
    });
    p.add_stage(StageProgram::plain(a.build()), 0);
    let mut b = FunctionBuilder::new("starved_consumer");
    let j = b.var_i64("j");
    let y = b.var_i64("y");
    b.for_loop(j, Expr::i64(0), Expr::i64(3), |f| {
        f.deq(y, q0);
    });
    p.add_stage(StageProgram::plain(b.build()), 0);

    let err = Machine::run_once(&MachineConfig::paper_1core(), &p, MemState::new(), &[])
        .expect_err("starved consumer must deadlock");
    let msg = err.to_string();
    assert!(msg.contains("no wait cycle"), "{msg}");
    assert!(msg.contains("starved_consumer"), "{msg}");
}

#[test]
fn malformed_queue_protocol_is_rejected_before_simulation() {
    // A consumer of a queue nobody feeds never reaches the simulator:
    // the pre-sim validator rejects it with a named invariant instead
    // of letting it surface as an opaque runtime deadlock.
    let q0 = QueueId(0);
    let mut p = Pipeline::new("dangling");
    let mut b = FunctionBuilder::new("orphan_consumer");
    let y = b.var_i64("y");
    b.deq(y, q0);
    p.add_stage(StageProgram::plain(b.build()), 0);
    p.num_queues = p.num_queues.max(1);

    let err = Machine::run_once(&MachineConfig::paper_1core(), &p, MemState::new(), &[])
        .expect_err("dangling queue must be rejected");
    let msg = err.to_string();
    assert!(msg.contains("no producer"), "{msg}");
    assert!(msg.contains("orphan_consumer"), "{msg}");
    assert!(msg.contains("pre-sim"), "{msg}");
}

#[test]
fn ra_fed_deadlock_reports_the_ra_in_the_wait_cycle() {
    // Stage `loopback` pushes 80 indices into the RA's input queue
    // before dequeuing a single result: with 24-deep queues both fill,
    // the RA blocks enqueuing its output, the producer blocks enqueuing
    // the input, and the wait cycle runs *through the RA FSM*. The trap
    // must show the RA as a node with its blocked-queue edge, not a
    // truncated compute-only chain.
    let q_in = QueueId(0);
    let q_out = QueueId(1);
    let mut b = FunctionBuilder::new("loopback");
    let base = b.array_i64("base");
    let i = b.var_i64("i");
    let j = b.var_i64("j");
    let x = b.var_i64("x");
    b.for_loop(i, Expr::i64(0), Expr::i64(80), |f| {
        f.enq(q_in, Expr::var(i));
    });
    b.for_loop(j, Expr::i64(0), Expr::i64(80), |f| {
        f.deq(x, q_out);
    });
    let mut p = Pipeline::new("ra_cycle");
    p.add_stage(StageProgram::plain(b.build()), 0);
    p.add_ra(
        RaConfig {
            name: "lookup".into(),
            mode: RaMode::Indirect,
            base,
            in_queue: q_in,
            out_queue: q_out,
            forward_ctrl: false,
            scan_end_ctrl: None,
        },
        &[ArrayDecl::i64("base")],
        0,
    );

    let mut mem = MemState::new();
    mem.alloc_i64(ArrayDecl::i64("base"), 0..128);
    let err = Machine::run_once(&MachineConfig::paper_1core(), &p, mem, &[])
        .expect_err("over-committed RA loop must deadlock");
    let msg = err.to_string();
    assert!(msg.contains("wait cycle"), "{msg}");
    // The RA FSM is a node of the cycle, with its blocked enqueue edge.
    assert!(msg.contains("`ra:lookup` (RA) --[enq q1"), "{msg}");
    // The producer's edge into the RA's input queue is there too.
    assert!(msg.contains("`loopback` --[enq q0"), "{msg}");
}
