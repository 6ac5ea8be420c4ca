//! Fault-injection edge cases against the tracing layer.
//!
//! Two pins:
//!
//! * An **empty** [`FaultPlan`] is bit-identical to no plan at all —
//!   same simulated cycles, same `RunStats`, same final memory, same
//!   trace digest — on every fault target.
//! * Ordinal-windowed faults trace **exactly one event per trigger**:
//!   a `DequeueStall` over `[from, until)` emits one `FaultDeqStall`
//!   per affected successful dequeue, a `QueueSqueeze` emits one
//!   `FaultSqueeze` per squeezed successful enqueue — no double-fires,
//!   no misses, computable from the run's own queue counters.

use proptest::prelude::*;

use phloem_benchsuite::fault_targets::{targets, FaultTarget};
use pipette_sim::{DigestSink, Fault, FaultPlan, MachineConfig, RingSink, Session, TraceEvent};

/// Runs one target to completion (they are built to succeed unfaulted)
/// and returns everything observable: makespan, stats, memory, digest.
fn observe(
    target: &FaultTarget,
    cfg: &MachineConfig,
    plan: Option<FaultPlan>,
) -> (u64, String, u64) {
    let mut session = Session::new(cfg.clone(), target.mem.clone());
    if let Some(plan) = plan {
        session.set_faults(plan);
    }
    session.set_trace(Box::new(DigestSink::new()));
    let end = session
        .run(&target.pipeline, &target.params)
        .unwrap_or_else(|e| panic!("{} must run clean: {e}", target.name));
    let sink = session.take_trace().unwrap();
    let digest = sink.downcast_ref::<DigestSink>().unwrap().digest();
    let (mem, stats) = session.finish();
    // Memory + stats rendered through Debug: cheap, total, and any
    // difference at all is a failure.
    (end, format!("{stats:?}/{mem:?}"), digest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `set_faults(empty)` must be indistinguishable from never calling
    /// `set_faults`, down to the trace stream.
    #[test]
    fn empty_fault_plan_is_bit_identical_to_no_plan(target_idx in 0usize..5) {
        let cfg = MachineConfig::paper_1core();
        let all = targets(&cfg);
        let target = &all[target_idx % all.len()];
        let bare = observe(target, &cfg, None);
        let empty = observe(target, &cfg, Some(FaultPlan::new(vec![])));
        prop_assert_eq!(bare.0, empty.0, "makespan diverged on {}", target.name);
        prop_assert_eq!(&bare.1, &empty.1, "stats/memory diverged on {}", target.name);
        prop_assert_eq!(bare.2, empty.2, "trace digest diverged on {}", target.name);
    }
}

/// Runs a target under a plan with a ring sink; returns the events plus
/// the session's queue counters.
fn run_faulted(
    target: &FaultTarget,
    cfg: &MachineConfig,
    plan: FaultPlan,
) -> (Vec<TraceEvent>, Vec<(u64, u64)>) {
    let mut session = Session::new(cfg.clone(), target.mem.clone());
    session.set_faults(plan);
    session.set_trace(Box::new(RingSink::unbounded()));
    session
        .run(&target.pipeline, &target.params)
        .unwrap_or_else(|e| panic!("{} must survive a windowed stall: {e}", target.name));
    let sink = session.take_trace().unwrap();
    let ring = sink.downcast_ref::<RingSink>().unwrap();
    let events: Vec<TraceEvent> = ring.events().copied().collect();
    let queues = session
        .stats()
        .queues
        .iter()
        .map(|q| (q.enqs, q.deqs))
        .collect();
    (events, queues)
}

#[test]
fn dequeue_stall_traces_exactly_one_event_per_affected_dequeue() {
    let cfg = MachineConfig::paper_1core();
    let target = &targets(&cfg)[0]; // bfs/manual: dense q0 traffic
    let (from, until, extra) = (2u64, 9u64, 5u64);
    let (events, queues) = run_faulted(
        target,
        &cfg,
        FaultPlan::new(vec![Fault::DequeueStall {
            queue: 0,
            extra,
            from_deq: from,
            until_deq: until,
        }]),
    );
    let fired = events
        .iter()
        .filter(
            |e| matches!(e, TraceEvent::FaultDeqStall { queue: 0, extra: x, .. } if *x == extra),
        )
        .count() as u64;
    let total_deqs = queues[0].1;
    assert!(total_deqs > until, "target must drive q0 past the window");
    assert_eq!(
        fired,
        until - from,
        "one FaultDeqStall per affected dequeue, no more, no less"
    );
}

#[test]
fn queue_squeeze_traces_exactly_one_event_per_squeezed_enqueue() {
    let cfg = MachineConfig::paper_1core();
    let target = &targets(&cfg)[0];
    let (from, until) = (1u64, 6u64);
    let (events, queues) = run_faulted(
        target,
        &cfg,
        FaultPlan::new(vec![Fault::QueueSqueeze {
            queue: 0,
            cap: 1,
            from_enq: from,
            until_enq: until,
        }]),
    );
    let fired = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::FaultSqueeze {
                    queue: 0,
                    cap: 1,
                    ..
                }
            )
        })
        .count() as u64;
    let total_enqs = queues[0].0;
    assert!(total_enqs > until, "target must drive q0 past the window");
    assert_eq!(
        fired,
        until - from,
        "one FaultSqueeze per squeezed enqueue, no more, no less"
    );
}
