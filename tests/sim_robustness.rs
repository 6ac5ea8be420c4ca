//! Robustness pins: watchdog and fault-injection traps have a fixed,
//! diagnosable shape that does not depend on whether the run is traced,
//! PGO degrades gracefully, and nothing false-positives on healthy runs.

use phloem_bench::phloem_with_cuts;
use phloem_benchsuite::fault_targets::targets;
use phloem_benchsuite::{bfs, candidate_outcome, spmm, Variant};
use phloem_compiler::search::{
    enumerate_pipelines, search_profiled, ProfileOutcome, SearchOptions,
};
use phloem_ir::{
    ArrayDecl, BinOp, Expr, FunctionBuilder, MemState, Pipeline, QueueId, StageProgram, Trap, Value,
};
use phloem_workloads::{graph, matrix};
use pipette_sim::{Fault, FaultPlan, MachineConfig, NoopSink, Session, WatchdogConfig};

/// Runs `pipe` to its trap on every point of the grid the trap-shape
/// tests run over — no trace sink, a sink with an empty interest mask,
/// a sink subscribed to every event — checks the trap with `check`, and
/// returns its rendering. A trap is simulated state, so it must render
/// identically on all three.
fn trap_across_grid(
    cfg: &MachineConfig,
    mem: &MemState,
    faults: Option<&FaultPlan>,
    pipe: &Pipeline,
    params: &[(&str, Value)],
    check: impl Fn(&str, &Trap),
) -> String {
    let mut first: Option<String> = None;
    for (label, sink) in [
        ("untraced", None),
        ("disabled sink", Some(NoopSink::disabled())),
        ("counting sink", Some(NoopSink::counting())),
    ] {
        let mut session = Session::new(cfg.clone(), mem.clone());
        if let Some(plan) = faults {
            session.set_faults(plan.clone());
        }
        if let Some(sink) = sink {
            session.set_trace(Box::new(sink));
        }
        let err = session
            .run(pipe, params)
            .expect_err("the run must end in a structured trap");
        check(label, &err);
        let rendered = err.to_string();
        match &first {
            None => first = Some(rendered),
            Some(f) => assert_eq!(
                f, &rendered,
                "{label}: trap differs from the first grid point"
            ),
        }
    }
    first.expect("the grid is not empty")
}

/// A two-stage pipeline whose producer spins on a memory flag that is
/// never set (the classic CV-polling livelock): it keeps executing —so
/// deadlock detection can never fire — but it stops touching queues.
fn livelock_pipeline() -> (Pipeline, MemState) {
    let q = QueueId(0);
    let spin = {
        let mut b = FunctionBuilder::new("spin");
        let flag = b.array_i64("flag");
        let _out = b.array_i64("out");
        let v = b.var_i64("v");
        let fl = b.load(flag, Expr::i64(0));
        b.while_loop(Expr::bin(BinOp::Eq, fl, Expr::i64(0)), |f| {
            f.assign(v, Expr::add(Expr::var(v), Expr::i64(1)));
        });
        b.enq(q, Expr::var(v));
        b.build()
    };
    let drain = {
        let mut b = FunctionBuilder::new("drain");
        let _flag = b.array_i64("flag");
        let out = b.array_i64("out");
        let v = b.var_i64("v");
        b.deq(v, q);
        b.store(out, Expr::i64(0), Expr::var(v));
        b.build()
    };
    let mut p = Pipeline::new("cv-livelock");
    p.add_stage(StageProgram::plain(spin), 0);
    p.add_stage(StageProgram::plain(drain), 0);
    let mut mem = MemState::new();
    mem.alloc_i64(ArrayDecl::i64("flag"), [0i64]);
    mem.alloc_i64(ArrayDecl::i64("out"), [0i64]);
    (p, mem)
}

#[test]
fn cv_polling_livelock_traps_identically_across_grid() {
    let (pipe, mem) = livelock_pipeline();
    let mut cfg = MachineConfig::paper_1core();
    cfg.watchdog = WatchdogConfig {
        cycle_cap: u64::MAX,
        livelock_window: 10_000,
    };
    let msg = trap_across_grid(&cfg, &mem, None, &pipe, &[], |label, err| {
        assert!(
            matches!(err, Trap::Livelock { .. }),
            "{label}: a CV-polling spin loop must trap as Livelock, got {err}"
        );
    });
    assert!(
        msg.contains("snapshot @cycle"),
        "livelock trap must carry the diagnostics snapshot: {msg}"
    );
}

#[test]
fn producer_kill_traps_identically_across_grid() {
    let cfg = MachineConfig::paper_1core();
    // bfs/manual: stage 0 is the fringe-fetch producer; killing it
    // starves the whole chain.
    let target = &targets(&cfg)[0];
    assert_eq!(target.name, "bfs/manual");
    let plan = FaultPlan::new(vec![Fault::ThreadKill {
        thread: 0,
        after_atoms: 40,
    }]);
    trap_across_grid(
        &cfg,
        &target.mem,
        Some(&plan),
        &target.pipeline,
        &target.params,
        |label, err| {
            let rendered = err.to_string();
            assert!(
                rendered.contains("killed (fault)"),
                "{label}: trap must name the killed thread: {rendered}"
            );
        },
    );
}

/// The watchdog defaults must never fire on a healthy workload: the
/// slowest golden pipeline (spmm/manual/rnd_40) runs ~115 k cycles,
/// three orders of magnitude under the default livelock window.
#[test]
fn watchdog_defaults_pass_the_slowest_golden_pipeline() {
    let cfg = MachineConfig::paper_1core();
    assert_eq!(cfg.watchdog, WatchdogConfig::default());
    assert_ne!(cfg.watchdog.livelock_window, u64::MAX);
    let a = matrix::random_square(40, 3.0, 1);
    let bt = a.transpose();
    let m = spmm::run(&Variant::Manual, &a, &bt, &cfg, "rnd_40")
        .expect("healthy run must not trip the watchdog");
    assert_eq!(m.cycles, 114_958, "golden cycle count moved");
}

/// A PGO search where one candidate is forced into a budget-capped
/// livelock still returns `Ok`: the poisoned candidate is recorded as
/// `TimedOut` and a healthy candidate wins.
#[test]
fn forced_livelock_candidate_times_out_but_search_succeeds() {
    let g = graph::power_law(120, 3, 9);
    let kernel = bfs::kernel();
    let opts = SearchOptions {
        top_k: 3,
        workers: 2,
        ..SearchOptions::default()
    };
    let poisoned = enumerate_pipelines(&kernel, &opts)
        .first()
        .expect("BFS enumerates candidates")
        .0
        .clone();
    let base_cfg = MachineConfig::paper_1core();
    let report = search_profiled(&kernel, &opts, |cuts, _pipe, budget| {
        let mut cfg = base_cfg.clone();
        // The poisoned candidate gets a cap it cannot possibly meet,
        // modelling a diverging pipeline; everyone else gets the
        // search-assigned budget.
        cfg.watchdog.cycle_cap = if cuts == poisoned {
            100
        } else {
            budget.cycle_cap
        };
        candidate_outcome([bfs::run(
            &phloem_with_cuts(cuts),
            &g,
            0,
            &cfg,
            "power_law_120",
        )])
    })
    .expect("search must degrade gracefully, not fail");
    let poisoned_candidate = report
        .candidates
        .iter()
        .find(|c| c.cuts == poisoned)
        .expect("poisoned candidate is in the report");
    assert_eq!(poisoned_candidate.outcome, ProfileOutcome::TimedOut);
    let best = &report.candidates[report.best];
    assert_ne!(best.cuts, poisoned);
    assert!(matches!(best.outcome, ProfileOutcome::Ok(_)));
}
