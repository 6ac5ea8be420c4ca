//! The simulator and the native backend run one `MemState` through one
//! set of accessors, so a single-stage kernel must count the same
//! operations and stop on the same trap on both `Session` backends —
//! and, for traps, on the serial oracle too — with the stores made
//! before the trap left in the session's memory. A store converts to
//! its array's declared type identically everywhere.

use phloem_ir::{
    interp, ArrayDecl, ArrayId, BinOp, Expr, Function, FunctionBuilder, MemState, Pipeline,
    StageProgram, Trap, Value,
};
use pipette_sim::{
    CacheStats, DigestSink, ExecBackend, Fault, FaultPlan, MachineConfig, NativeConfig, Session,
    TraceSink,
};

fn serial(f: &Function) -> Pipeline {
    let mut p = Pipeline::new(format!("{}-serial", f.name));
    p.add_stage(StageProgram::plain(f.clone()), 0);
    p
}

/// A simulated session, or a native one on one worker.
fn session(native: bool, mem: MemState) -> Session {
    let mut s = Session::new(MachineConfig::paper_1core(), mem);
    if native {
        s.set_backend(ExecBackend::Native(NativeConfig { threads: 1 }));
    }
    s
}

/// An atomic RMW counts as one load and one store on both backends.
#[test]
fn atomic_rmw_counts_match_across_backends() {
    let mut b = FunctionBuilder::new("sum");
    let a = b.array_i64("a");
    let out = b.array_i64("out");
    let i = b.var_i64("i");
    b.for_loop(i, Expr::i64(0), Expr::i64(8), |f| {
        let x = f.load(a, Expr::var(i));
        f.atomic_rmw(BinOp::Add, out, Expr::i64(0), x, None);
    });
    let func = b.build();
    let mut mem = MemState::new();
    mem.alloc_i64(ArrayDecl::i64("a"), 1..=8);
    mem.alloc(ArrayDecl::i64("out"), 1);

    let counts = |native: bool| {
        let mut s = session(native, mem.clone());
        s.run(&serial(&func), &[]).expect("kernel runs");
        assert_eq!(s.mem().i64_vec(out), vec![36], "native: {native}");
        let t = &s.stats().threads[0];
        (t.uops, t.branches, t.loads, t.stores, t.enqs, t.deqs)
    };
    let sim = counts(false);
    assert_eq!(counts(true), sim);
    // Eight plain loads plus eight RMWs, each a load and a store.
    assert_eq!((sim.2, sim.3), (16, 8));
}

/// A kernel that stores `out[0] = 7` and then runs `then`.
fn store_then(then: impl FnOnce(&mut FunctionBuilder, ArrayId, ArrayId)) -> Function {
    let mut b = FunctionBuilder::new("trap");
    let a = b.array_i64("a");
    let out = b.array_i64("out");
    b.store(out, Expr::i64(0), Expr::i64(7));
    then(&mut b, a, out);
    b.build()
}

#[test]
fn traps_match_across_backends_and_the_oracle() {
    let cases: Vec<(&str, Function, Trap)> = vec![
        (
            "out-of-bounds load",
            store_then(|b, a, out| {
                let x = b.load(a, Expr::i64(4));
                b.store(out, Expr::i64(1), x);
            }),
            Trap::OutOfBounds("a".into(), 4, 4),
        ),
        (
            "out-of-bounds store",
            store_then(|b, a, _| b.store(a, Expr::i64(-1), Expr::i64(1))),
            Trap::OutOfBounds("a".into(), -1, 4),
        ),
        (
            // Out of bounds too: the control value traps first.
            "control value stored",
            store_then(|b, a, _| b.store(a, Expr::i64(9), Expr::Const(Value::Ctrl(3)))),
            Trap::CtrlAsData(3),
        ),
        (
            // Declared by the kernel, never allocated in memory.
            "bad array id",
            store_then(|b, _, _| {
                let ghost = b.array_i64("ghost");
                b.store(ghost, Expr::i64(0), Expr::i64(1));
            }),
            Trap::BadId("array 2".into()),
        ),
        (
            "rmw operator trap",
            store_then(|b, a, _| b.atomic_rmw(BinOp::Div, a, Expr::i64(0), Expr::i64(0), None)),
            Trap::DivByZero,
        ),
    ];
    let mut mem = MemState::new();
    let a = mem.alloc_i64(ArrayDecl::i64("a"), [1, 2, 3, 4]);
    let out = mem.alloc(ArrayDecl::i64("out"), 2);

    for (what, func, want) in cases {
        let oracle = interp::run_serial(&func, mem.clone(), &[]).map(|_| ());
        assert_eq!(oracle, Err(want.clone()), "{what}: serial oracle");
        for native in [false, true] {
            let mut s = session(native, mem.clone());
            let got = s.run(&serial(&func), &[]).map(|_| ());
            assert_eq!(got, Err(want.clone()), "{what}: native {native}");
            assert_eq!(
                s.mem().i64_vec(out),
                vec![7, 0],
                "{what}: native {native}: the store before the trap"
            );
            assert_eq!(
                s.mem().i64_vec(a),
                vec![1, 2, 3, 4],
                "{what}: native {native}"
            );
        }
    }
}

/// A store converts its value to the array's declared type, as a C
/// assignment does, and a load reads the declared type back: the same
/// on both backends and the serial oracle.
#[test]
fn stores_convert_to_the_element_type_across_backends_and_the_oracle() {
    let mut b = FunctionBuilder::new("convert");
    let ints = b.array_i64("ints");
    let floats = b.array_f64("floats");
    // ints[0] = 2.75 (truncates to 2); floats[0] = 3 (becomes 3.0).
    b.store(ints, Expr::i64(0), Expr::f64(2.75));
    b.store(floats, Expr::i64(0), Expr::i64(3));
    // Each reads back as its array's type: 2 * 2 and 3.0 / 2.
    let i = b.load(ints, Expr::i64(0));
    b.store(ints, Expr::i64(1), Expr::mul(i, Expr::i64(2)));
    let x = b.load(floats, Expr::i64(0));
    b.store(floats, Expr::i64(1), Expr::bin(BinOp::Div, x, Expr::i64(2)));
    // F64 -> I64 saturates.
    b.store(ints, Expr::i64(2), Expr::f64(-1e300));
    let func = b.build();
    let mut mem = MemState::new();
    mem.alloc(ArrayDecl::i64("ints"), 3);
    mem.alloc(ArrayDecl::f64("floats"), 2);
    let want_ints = vec![Value::I64(2), Value::I64(4), Value::I64(i64::MIN)];
    let want_floats = vec![Value::F64(3.0), Value::F64(1.5)];

    let oracle = interp::run_serial(&func, mem.clone(), &[]).expect("oracle runs");
    assert_eq!(oracle.mem.values(ints), want_ints, "serial oracle");
    assert_eq!(oracle.mem.values(floats), want_floats, "serial oracle");
    for native in [false, true] {
        let mut s = session(native, mem.clone());
        s.run(&serial(&func), &[]).expect("kernel runs");
        assert_eq!(s.mem().values(ints), want_ints, "native: {native}");
        assert_eq!(s.mem().values(floats), want_floats, "native: {native}");
    }
}

/// A fault plan acts on the timing world, which a native run bypasses:
/// the native `Session` refuses the run rather than report a fault-free
/// success, and leaves memory untouched. An empty plan is no plan.
#[test]
fn native_sessions_refuse_fault_plans() {
    let func = store_then(|_, _, _| {});
    let mut mem = MemState::new();
    mem.alloc(ArrayDecl::i64("a"), 4);
    let out = mem.alloc(ArrayDecl::i64("out"), 2);
    let kill = FaultPlan::new(vec![Fault::ThreadKill {
        thread: 0,
        after_atoms: 1,
    }]);

    let mut s = session(true, mem.clone());
    s.set_faults(kill);
    match s.run(&serial(&func), &[]) {
        Err(Trap::Malformed(msg)) => assert!(msg.contains("simulator-only"), "{msg}"),
        other => panic!("a native run applied no fault plan and returned {other:?}"),
    }
    assert_eq!(s.mem().i64_vec(out), vec![0, 0]);

    let mut s = session(true, mem);
    s.set_faults(FaultPlan::new(Vec::new()));
    s.run(&serial(&func), &[])
        .expect("an empty plan runs natively");
    assert_eq!(s.mem().i64_vec(out), vec![7, 0]);
}

/// Trace events come from the timing world, so a traced native run would
/// hand back an empty sink: the native `Session` refuses it, leaves
/// memory untouched and still hands the sink back. The simulator feeds
/// the same sink.
#[test]
fn native_sessions_refuse_trace_sinks() {
    let func = store_then(|_, _, _| {});
    let mut mem = MemState::new();
    mem.alloc(ArrayDecl::i64("a"), 4);
    let out = mem.alloc(ArrayDecl::i64("out"), 2);
    let untraced = DigestSink::new().digest();

    let mut s = session(true, mem.clone());
    s.set_trace(Box::new(DigestSink::new()));
    match s.run(&serial(&func), &[]) {
        Err(Trap::Malformed(msg)) => assert!(msg.contains("simulator-only"), "{msg}"),
        other => panic!("a native run fed no trace sink and returned {other:?}"),
    }
    assert_eq!(s.mem().i64_vec(out), vec![0, 0]);
    assert!(s.take_trace().is_some(), "the sink is handed back");

    let mut s = session(false, mem);
    s.set_trace(Box::new(DigestSink::new()));
    s.run(&serial(&func), &[]).expect("a traced simulated run");
    assert_eq!(s.mem().i64_vec(out), vec![7, 0]);
    let sink: Box<dyn TraceSink> = s.take_trace().expect("sink");
    let digest = sink.downcast_ref::<DigestSink>().unwrap().digest();
    assert_ne!(digest, untraced, "the simulator fed the sink");
}

/// A native session never builds the cache hierarchy: its statistics
/// carry the same op counts as a simulated one, with all-zero cache
/// counters and no cache or DRAM energy. A simulated invocation after a
/// native one builds the hierarchy then, cold, exactly as a session that
/// only simulates.
#[test]
fn a_native_session_builds_no_cache_hierarchy() {
    let mut b = FunctionBuilder::new("sum");
    let a = b.array_i64("a");
    let out = b.array_i64("out");
    let i = b.var_i64("i");
    b.for_loop(i, Expr::i64(0), Expr::i64(64), |f| {
        let x = f.load(a, Expr::var(i));
        f.atomic_rmw(BinOp::Add, out, Expr::i64(0), x, None);
    });
    let p = serial(&b.build());
    let mut mem = MemState::new();
    mem.alloc_i64(ArrayDecl::i64("a"), 0..64);
    mem.alloc(ArrayDecl::i64("out"), 1);
    let counts = |s: &Session| {
        let t = &s.stats().threads[0];
        (t.uops, t.branches, t.loads, t.stores)
    };

    let mut native = session(true, mem.clone());
    native.run(&p, &[]).expect("native run");
    let mut sim = session(false, mem.clone());
    sim.run(&p, &[]).expect("simulated run");
    assert_eq!(counts(&native), counts(&sim));
    assert_eq!(native.stats().cache, CacheStats::default());
    assert_ne!(sim.stats().cache, CacheStats::default());
    let (_, stats) = native.finish();
    assert_eq!(stats.cache, CacheStats::default());
    assert_eq!((stats.energy.cache_pj, stats.energy.dram_pj), (0.0, 0.0));

    let mut mixed = session(true, mem);
    mixed.run(&p, &[]).expect("native run");
    mixed.set_backend(ExecBackend::Sim);
    mixed.run(&p, &[]).expect("simulated run");
    assert_eq!(mixed.stats().cache, sim.stats().cache);
}
