//! Trace-oracle tests: the tracing layer observes the simulation, it
//! never participates in it.
//!
//! Two families of pins (the event stream's own digest is pinned in
//! `tests/golden_cycles.rs`):
//!
//! 1. **Non-interference** — installing a sink (with an empty interest
//!    mask, or subscribed to every event) must not change a single
//!    simulated cycle or any [`pipette_sim::RunStats`] counter.
//! 2. **Reconciliation** — the trace is *semantically consistent* with
//!    the run's own statistics: per-thread stall-span sums equal the
//!    `ThreadStats` stall counters exactly, event-derived queue
//!    occupancy histograms equal `QueueStats::occupancy_hist`, wakeup
//!    events count the scheduler's wakeups, and the streaming metrics
//!    aggregator reduces to the same totals. A trace that merely
//!    "looks right" cannot pass these; every span has to be emitted at
//!    exactly the site that increments the matching counter.
//!
//! Fault and watchdog events ride along: a fired `ThreadKill` emits
//! exactly one `FaultKill` event and exactly one terminal `Verdict`.

use phloem_benchsuite::fault_targets::targets;
use phloem_benchsuite::{bfs, taco, Measurement, Variant};
use phloem_ir::Trap;
use phloem_workloads::{graph, matrix};
use pipette_sim::{
    Fault, FaultPlan, MachineConfig, MetricsSink, NoopSink, RingSink, Session, StallKind, TeeSink,
    TraceEvent, TraceSink, TraceVerdict,
};

type Runner =
    fn(&MachineConfig, Option<Box<dyn TraceSink>>) -> (Measurement, Option<Box<dyn TraceSink>>);

/// The two oracle workloads: a graph app with CV handlers and RA
/// stages, and a taco kernel with a different queue topology.
fn run_bfs(
    cfg: &MachineConfig,
    sink: Option<Box<dyn TraceSink>>,
) -> (Measurement, Option<Box<dyn TraceSink>>) {
    let g = graph::power_law(300, 3, 3);
    let (m, sink) = bfs::run_opt_traced(&Variant::phloem(), &g, 0, cfg, "pl300", sink);
    (m.expect("bfs runs"), sink)
}

fn run_spmv(
    cfg: &MachineConfig,
    sink: Option<Box<dyn TraceSink>>,
) -> (Measurement, Option<Box<dyn TraceSink>>) {
    let m = matrix::random_square(48, 4.0, 7);
    let (r, sink) = taco::run_opt_traced(
        taco::TacoApp::Spmv,
        &Variant::phloem(),
        &m,
        cfg,
        "rnd48",
        sink,
    );
    (r.expect("spmv runs"), sink)
}

// ---------------------------------------------------------------------
// 1. Non-interference
// ---------------------------------------------------------------------

/// The grid is {workload} × {sink}: a sink with an empty interest mask
/// and one subscribed to every event.
#[test]
fn tracing_never_changes_cycles_or_stats_anywhere_on_the_grid() {
    let cfg = MachineConfig::paper_1core();
    for run in [run_bfs as Runner, run_spmv as Runner] {
        let (plain, _) = run(&cfg, None);
        for (label, sink, sees_events) in [
            ("disabled sink", NoopSink::disabled(), false),
            ("counting sink", NoopSink::counting(), true),
        ] {
            let (traced, sink) = run(&cfg, Some(Box::new(sink)));
            assert_eq!(
                plain.cycles, traced.cycles,
                "{label}: tracing changed the makespan"
            );
            assert_eq!(
                plain.stats, traced.stats,
                "{label}: tracing changed RunStats"
            );
            let sink = sink.unwrap();
            let noop = sink.downcast_ref::<NoopSink>().expect("noop sink");
            assert_eq!(
                noop.events > 0,
                sees_events,
                "{label}: saw {} events — emit points dead, or the mask ignored?",
                noop.events
            );
        }
    }
}

// ---------------------------------------------------------------------
// 2. Reconciliation with RunStats
// ---------------------------------------------------------------------

/// Sums the ring's events into per-thread and per-queue accumulators
/// and checks every one against the run's own counters.
fn reconcile(m: &Measurement, ring: &RingSink, metrics: &MetricsSink) {
    assert_eq!(ring.dropped, 0, "oracle needs the complete stream");
    let nthreads = m.stats.threads.len();
    let nqueues = m.stats.queues.len();
    let mut stalls = vec![[0u64; 4]; nthreads]; // [full, empty, backend, frontend]
    let mut enqs = vec![0u64; nthreads.max(nqueues)];
    let mut deqs = vec![0u64; nthreads.max(nqueues)];
    let mut q_enqs = vec![0u64; nqueues];
    let mut q_deqs = vec![0u64; nqueues];
    let mut wakes = vec![0u64; nthreads];
    let mut spurious = vec![0u64; nthreads];
    let mut hists: Vec<Vec<u64>> = m
        .stats
        .queues
        .iter()
        .map(|q| vec![0u64; q.occupancy_hist.len()])
        .collect();
    for ev in ring.events() {
        match *ev {
            TraceEvent::Enq {
                queue,
                thread,
                occupancy,
                ..
            } => {
                enqs[thread as usize] += 1;
                q_enqs[queue as usize] += 1;
                hists[queue as usize][occupancy as usize] += 1;
            }
            TraceEvent::Deq {
                queue,
                thread,
                occupancy,
                ..
            } => {
                deqs[thread as usize] += 1;
                q_deqs[queue as usize] += 1;
                hists[queue as usize][occupancy as usize] += 1;
            }
            TraceEvent::Stall {
                thread,
                kind,
                cycles,
                ..
            } => {
                let k = match kind {
                    StallKind::QueueFull => 0,
                    StallKind::QueueEmpty => 1,
                    StallKind::Backend => 2,
                    StallKind::Frontend => 3,
                };
                stalls[thread as usize][k] += cycles;
            }
            TraceEvent::Wake { thread, .. } => wakes[thread as usize] += 1,
            TraceEvent::SpuriousWake { thread, .. } => spurious[thread as usize] += 1,
            _ => {}
        }
    }
    for (i, t) in m.stats.threads.iter().enumerate() {
        let [full, empty, backend, frontend] = stalls[i];
        assert_eq!(
            full, t.queue_full_stall_cycles,
            "thread {i} ({}) queue-full",
            t.name
        );
        assert_eq!(
            empty, t.queue_empty_stall_cycles,
            "thread {i} ({}) queue-empty",
            t.name
        );
        assert_eq!(
            full + empty,
            t.queue_stall_cycles,
            "thread {i} ({}) queue total",
            t.name
        );
        assert_eq!(
            backend, t.backend_stall_cycles,
            "thread {i} ({}) backend",
            t.name
        );
        assert_eq!(
            frontend, t.frontend_stall_cycles,
            "thread {i} ({}) frontend",
            t.name
        );
        assert_eq!(enqs[i], t.enqs, "thread {i} ({}) enqs", t.name);
        assert_eq!(deqs[i], t.deqs, "thread {i} ({}) deqs", t.name);
        assert_eq!(wakes[i], t.wakeups, "thread {i} ({}) wakeups", t.name);
        assert_eq!(
            spurious[i], t.spurious_wakeups,
            "thread {i} ({}) spurious",
            t.name
        );
    }
    for (q, stats) in m.stats.queues.iter().enumerate() {
        assert_eq!(q_enqs[q], stats.enqs, "queue {q} enqs");
        assert_eq!(q_deqs[q], stats.deqs, "queue {q} deqs");
        assert_eq!(
            hists[q], stats.occupancy_hist,
            "queue {q} occupancy histogram"
        );
    }
    // The streaming aggregator reduces the same stream to the same
    // totals (stage-indexed; sessions accumulate across invocations
    // exactly like RunStats does).
    for (i, t) in m.stats.threads.iter().enumerate() {
        let s = &metrics.stages[i];
        assert_eq!(
            s.queue_full_stall_cycles, t.queue_full_stall_cycles,
            "metrics stage {i} qfull"
        );
        assert_eq!(
            s.queue_empty_stall_cycles, t.queue_empty_stall_cycles,
            "metrics stage {i} qempty"
        );
        assert_eq!(
            s.backend_stall_cycles, t.backend_stall_cycles,
            "metrics stage {i} backend"
        );
        assert_eq!(
            s.frontend_stall_cycles, t.frontend_stall_cycles,
            "metrics stage {i} frontend"
        );
        assert_eq!(s.enqs, t.enqs, "metrics stage {i} enqs");
        assert_eq!(s.deqs, t.deqs, "metrics stage {i} deqs");
        assert_eq!(s.wakeups, t.wakeups, "metrics stage {i} wakeups");
        assert_eq!(
            s.spurious_wakeups, t.spurious_wakeups,
            "metrics stage {i} spurious"
        );
        assert_eq!(s.is_ra, t.is_ra, "metrics stage {i} kind");
    }
    for (q, stats) in m.stats.queues.iter().enumerate() {
        let qm = &metrics.queues[q];
        assert_eq!(qm.enqs, stats.enqs, "metrics queue {q} enqs");
        assert_eq!(qm.deqs, stats.deqs, "metrics queue {q} deqs");
        assert_eq!(
            qm.max_occupancy, stats.max_occupancy,
            "metrics queue {q} max"
        );
        let mut hist = qm.occupancy_hist.clone();
        hist.resize(stats.occupancy_hist.len().max(hist.len()), 0);
        let mut shist = stats.occupancy_hist.clone();
        shist.resize(hist.len(), 0);
        assert_eq!(hist, shist, "metrics queue {q} occupancy histogram");
    }
}

#[test]
fn traces_reconcile_exactly_with_run_stats() {
    let cfg = MachineConfig::paper_1core();
    for run in [run_bfs as Runner, run_spmv as Runner] {
        let tee = TeeSink::new(vec![
            Box::new(RingSink::unbounded()),
            Box::new(MetricsSink::new()),
        ]);
        let (m, sink) = run(&cfg, Some(Box::new(tee)));
        let sink = sink.unwrap();
        let tee = sink.downcast_ref::<TeeSink>().expect("tee");
        let ring = tee.sinks()[0].downcast_ref::<RingSink>().expect("ring");
        let metrics = tee.sinks()[1]
            .downcast_ref::<MetricsSink>()
            .expect("metrics");
        reconcile(&m, ring, metrics);
    }
}

// ---------------------------------------------------------------------
// Fault + watchdog events
// ---------------------------------------------------------------------

#[test]
fn a_fired_thread_kill_traces_one_fault_kill_and_one_verdict() {
    let cfg = MachineConfig::paper_1core();
    let target = &targets(&cfg)[0];
    let mut session = Session::new(cfg.clone(), target.mem.clone());
    session.set_faults(FaultPlan::new(vec![Fault::ThreadKill {
        thread: 0,
        after_atoms: 40,
    }]));
    session.set_trace(Box::new(RingSink::unbounded()));
    let err = session
        .run(&target.pipeline, &target.params)
        .expect_err("a fired producer kill must trap");
    assert!(matches!(
        err,
        Trap::ThreadKilled { .. } | Trap::Deadlock { .. }
    ));
    let sink = session.take_trace().expect("sink still installed");
    let ring = sink.downcast_ref::<RingSink>().expect("ring");
    let kills: Vec<_> = ring
        .events()
        .filter(|e| matches!(e, TraceEvent::FaultKill { .. }))
        .collect();
    assert_eq!(
        kills.len(),
        1,
        "ThreadKill must trace exactly one FaultKill"
    );
    assert!(
        matches!(kills[0], TraceEvent::FaultKill { thread: 0, .. }),
        "FaultKill names the wrong thread"
    );
    let verdicts: Vec<_> = ring
        .events()
        .filter_map(|e| match e {
            TraceEvent::Verdict { verdict, .. } => Some(*verdict),
            _ => None,
        })
        .collect();
    assert_eq!(
        verdicts.len(),
        1,
        "a trapped run must trace exactly one terminal Verdict"
    );
    assert!(
        matches!(verdicts[0], TraceVerdict::Killed | TraceVerdict::Deadlock),
        "unexpected verdict {:?}",
        verdicts[0]
    );
}

/// Sessions accumulate: two invocations through one sink must produce
/// per-invocation metas and aggregate counters that match the session's
/// accumulated RunStats (this is exactly how benchsuite drivers run).
#[test]
fn multi_invocation_sessions_accumulate_in_the_sink() {
    let cfg = MachineConfig::paper_1core();
    let (m, sink) = run_bfs(&cfg, Some(Box::new(RingSink::unbounded())));
    let sink = sink.unwrap();
    let ring = sink.downcast_ref::<RingSink>().expect("ring");
    assert_eq!(
        ring.metas.len() as u64,
        m.stats.invocations,
        "one TraceMeta per pipeline invocation"
    );
    assert!(m.stats.invocations > 1, "BFS rounds must invoke repeatedly");
    // Every invocation announces the same pipeline shape.
    let first = &ring.metas[0];
    for meta in &ring.metas {
        assert_eq!(meta.stages.len(), first.stages.len());
        assert_eq!(meta.queue_capacity, first.queue_capacity);
    }
    // Finish events: every compute stage finishes every invocation.
    let finishes = ring
        .events()
        .filter(|e| matches!(e, TraceEvent::Finish { .. }))
        .count() as u64;
    assert!(
        finishes >= m.stats.invocations,
        "at least one Finish per invocation (got {finishes})"
    );
}
