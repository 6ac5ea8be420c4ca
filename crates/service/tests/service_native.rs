//! The `simulate_native` op and its keying contract.
//!
//! Two properties are pinned here:
//!
//! * **Backend-irrelevant exclusion**: the native machine digest
//!   ([`phloem_service::key::native_machine_config_digest`]) ignores
//!   every timing-model field — native execution cannot observe cache
//!   latencies or the watchdog — while remaining
//!   sensitive to the validation limits and channel depth the backend
//!   *can* observe. Both directions are swept field by field.
//! * **Op behaviour**: `simulate_native` answers `bypass` (wall-clock
//!   is not content-addressable), annotates the payload with its
//!   backend/threads/stages/host_cores, ignores a `"channel"` field like any
//!   other unknown key, and honours zero deadlines like every other
//!   compute op.

use phloem_service::key::{machine_config_digest, native_machine_config_digest};
use phloem_service::proto::{parse, Json};
use phloem_service::{Service, ServiceConfig};
use phloem_workloads::catalog::Scale;
use pipette_sim::MachineConfig;

/// Labeled single-field mutations of a [`MachineConfig`].
type FieldMutators = Vec<(&'static str, fn(&mut MachineConfig))>;

/// Fields the native backend can observe: each must change the key.
fn native_relevant() -> FieldMutators {
    vec![
        ("cores", |m| m.cores += 1),
        ("smt_threads", |m| m.smt_threads += 1),
        ("max_queues", |m| m.max_queues += 1),
        ("ras_per_core", |m| m.ras_per_core += 1),
        ("queue_capacity", |m| m.queue_capacity += 1),
    ]
}

/// Timing-model fields the native backend provably cannot observe:
/// none may change the key (the full simulator digest must still see
/// every one of them — that direction is pinned in
/// `service_cache.rs`).
fn native_irrelevant() -> FieldMutators {
    vec![
        ("issue_width", |m| m.issue_width += 1),
        ("rob_size", |m| m.rob_size += 1),
        ("mshrs", |m| m.mshrs += 1),
        ("mispredict_penalty", |m| m.mispredict_penalty += 1),
        ("ra_concurrency", |m| m.ra_concurrency += 1),
        ("ra_op_latency", |m| m.ra_op_latency += 1),
        ("queue_latency", |m| m.queue_latency += 1),
        ("l1.latency", |m| m.l1.latency += 1),
        ("l2.kb", |m| m.l2.kb += 1),
        ("l3_latency", |m| m.l3_latency += 1),
        ("dram_latency", |m| m.dram_latency += 1),
        ("prefetch", |m| m.prefetch = !m.prefetch),
        ("launch_overhead", |m| m.launch_overhead += 1),
        ("watchdog.cycle_cap", |m| m.watchdog.cycle_cap /= 2),
    ]
}

#[test]
fn native_key_sees_exactly_the_fields_the_backend_can_observe() {
    let base = MachineConfig::paper_1core();
    let base_key = native_machine_config_digest(&base);
    for (name, mutate) in native_relevant() {
        let mut m = base.clone();
        mutate(&mut m);
        assert_ne!(
            native_machine_config_digest(&m),
            base_key,
            "{name} shapes native validation/blocking and must be keyed"
        );
    }
    for (name, mutate) in native_irrelevant() {
        let mut m = base.clone();
        mutate(&mut m);
        assert_eq!(
            native_machine_config_digest(&m),
            base_key,
            "{name} is timing-model only; keying it would split native provenance"
        );
        // ... while the full simulator key must still see it.
        assert_ne!(
            machine_config_digest(&m),
            machine_config_digest(&base),
            "{name} must stay in the full machine key"
        );
    }
}

fn tiny_service() -> Service {
    Service::new(ServiceConfig {
        scale: Scale::Tiny,
        workers: 2,
        default_cycle_cap: 50_000_000,
        ..ServiceConfig::default()
    })
}

#[test]
fn simulate_native_answers_bypass_with_backend_annotations() {
    let svc = tiny_service();
    let out = svc.handle_batch(&[
        r#"{"id":1,"op":"simulate_native","app":"bfs","input":"internet-s","variant":"serial"}"#
            .to_string(),
        r#"{"id":2,"op":"simulate_native","app":"cc","input":"internet-s","variant":"phloem","threads":2}"#
            .to_string(),
        r#"{"id":3,"op":"simulate_native","app":"cc","input":"internet-s","variant":"phloem"}"#
            .to_string(),
    ]);
    for resp in &out.responses {
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        assert!(resp.contains(r#""cache":"bypass""#), "{resp}");
        assert!(resp.contains(r#""backend":"native""#), "{resp}");
        assert!(resp.contains(r#""host_cores":"#), "{resp}");
        assert!(resp.contains(r#""machine":""#), "{resp}");
    }
    assert!(out.responses[0].contains(r#""threads":0"#));
    assert!(out.responses[1].contains(r#""threads":2"#));
    // The stages each run used: the serial kernel is one; a static
    // Phloem pipeline fits two workers, and gets all four of its stages
    // with a thread each.
    assert!(out.responses[0].contains(r#""stages":1,"#));
    assert!(out.responses[1].contains(r#""stages":2,"#));
    assert!(out.responses[2].contains(r#""stages":4,"#));
    // Native measurements are never cached.
    let (c, s) = svc.counters();
    assert_eq!(c.misses + c.hits + s.misses + s.hits, 0);
}

/// Every queue is an SPSC ring, so a `"channel"` field chooses nothing:
/// it is ignored like any other unknown key. The two answers may differ
/// only in what the wall clock fills in (`cycles`, and the `stats`
/// digest that folds it in).
#[test]
fn simulate_native_ignores_a_channel_field() {
    let svc = tiny_service();
    let line = |extra: &str| {
        format!(
            r#"{{"id":1,"op":"simulate_native","app":"bfs","input":"internet-s","variant":"serial"{extra}}}"#
        )
    };
    let out = svc.handle_batch(&[line(""), line(r#","channel":"mpsc""#)]);
    let untimed = |resp: &str| match parse(resp) {
        Ok(Json::Obj(pairs)) => pairs
            .into_iter()
            .filter(|(k, _)| k != "cycles" && k != "stats")
            .collect::<Vec<_>>(),
        other => panic!("not an object: {other:?}"),
    };
    assert!(
        out.responses[0].contains(r#""ok":true"#),
        "{}",
        out.responses[0]
    );
    assert_eq!(untimed(&out.responses[0]), untimed(&out.responses[1]));
    assert!(
        !out.responses[1].contains("channel"),
        "{}",
        out.responses[1]
    );
}

#[test]
fn simulate_native_validates_app_and_input() {
    let svc = tiny_service();
    let out = svc.handle_batch(&[
        r#"{"id":2,"op":"simulate_native","app":"nosuch","input":"internet-s"}"#.to_string(),
        r#"{"id":3,"op":"simulate_native","app":"bfs"}"#.to_string(),
    ]);
    assert!(
        out.responses[0].contains("unknown app"),
        "{}",
        out.responses[0]
    );
    assert!(
        out.responses[1].contains("missing required field"),
        "{}",
        out.responses[1]
    );
}

#[test]
fn simulate_native_honours_zero_deadlines() {
    let svc = tiny_service();
    let out = svc.handle_batch(&[
        r#"{"id":1,"op":"simulate_native","app":"bfs","input":"internet-s","variant":"serial","deadline_ms":0}"#
            .to_string(),
    ]);
    assert!(
        out.responses[0].contains(r#""kind":"cancelled""#),
        "{}",
        out.responses[0]
    );
}

#[test]
fn stats_count_the_fleet_tasks_of_a_native_batch() {
    let svc = tiny_service();
    svc.handle_batch(&[
        r#"{"id":1,"op":"simulate_native","app":"bfs","input":"internet-s","variant":"serial"}"#
            .to_string(),
    ]);
    let out = svc.handle_batch(&[r#"{"id":2,"op":"stats"}"#.to_string()]);
    let resp = &out.responses[0];
    assert!(
        resp.contains(r#""fleet":{"batches":1,"skipped":0,"per_worker_tasks":[1]}"#),
        "{resp}"
    );
}
