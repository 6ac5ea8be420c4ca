//! The wire format, pinned absolutely.
//!
//! The other suites compare a response with its own replay; nothing
//! else would notice a renamed field or a reordered envelope. Here one
//! fixed script pins the complete bytes of every error frame the
//! service can emit deterministically, and, for each `ok:true` op, the
//! exact ordered list of field names. Values that depend on the
//! simulator are not pinned — they are compared cold vs warm vs
//! restored-from-snapshot, which must agree byte for byte.

use phloem_service::proto::{parse, Json};
use phloem_service::{Service, ServiceConfig};
use phloem_workloads::catalog::Scale;

fn config() -> ServiceConfig {
    ServiceConfig {
        scale: Scale::Tiny,
        workers: 2,
        default_cycle_cap: 50_000_000,
        ..ServiceConfig::default()
    }
}

fn lines(reqs: &[&str]) -> Vec<String> {
    reqs.iter().map(|s| s.to_string()).collect()
}

#[test]
fn every_deterministic_error_frame_is_pinned_byte_for_byte() {
    let svc = Service::new(config());
    let out = svc.handle_batch(&lines(&[
        "nonsense",
        r#"{"id":1,"op":"frobnicate"}"#,
        r#"{"op":"stats"}"#,
        r#"{"id":2,"op":"compile"}"#,
        r#"{"id":3,"op":"compile","app":"bfs","stages":"three"}"#,
        r#"{"id":4,"op":"simulate","app":"bfs","input":"internet-s","variant":"dp","threads":0}"#,
        r#"{"id":5,"op":"trace","app":"bfs","input":"internet-s","variant":"serial","deadline_ms":0}"#,
        r#"{"id":6,"op":"simulate","app":"bfs","input":"internet-s","variant":"phloem","stages":1000000}"#,
    ]));
    let want = [
        r#"{"id":0,"op":"parse","ok":false,"cache":"bypass","error":{"kind":"parse","message":"invalid literal at byte 0"}}"#,
        r#"{"id":0,"op":"parse","ok":false,"cache":"bypass","error":{"kind":"parse","message":"unknown op \"frobnicate\""}}"#,
        r#"{"id":0,"op":"parse","ok":false,"cache":"bypass","error":{"kind":"parse","message":"missing \"id\""}}"#,
        r#"{"id":2,"op":"compile","ok":false,"cache":"bypass","error":{"kind":"bad_request","message":"missing required field \"app\""}}"#,
        r#"{"id":3,"op":"compile","ok":false,"cache":"bypass","error":{"kind":"bad_request","message":"field \"stages\" must be a non-negative integer"}}"#,
        r#"{"id":4,"op":"simulate","ok":false,"cache":"bypass","error":{"kind":"bad_request","message":"field \"threads\" must be at least 1 for the data-parallel variant"}}"#,
        r#"{"id":5,"op":"trace","ok":false,"cache":"bypass","error":{"kind":"cancelled","message":"deadline_ms is 0: the deadline expired before execution"}}"#,
        r#"{"id":6,"op":"simulate","ok":false,"cache":"bypass","error":{"kind":"trap","message":"malformed program: pipeline uses 2 cores, machine has 1"}}"#,
    ];
    assert_eq!(out.responses, want);

    // Overloaded: a budget of one unit and two uncached items in one
    // batch — the first is admitted because the service is idle, the
    // second is shed with the hint for two units in flight.
    let tight = Service::new(ServiceConfig {
        max_inflight: 1,
        ..config()
    });
    let out = tight.handle_batch(&lines(&[
        r#"{"id":7,"op":"simulate","app":"bfs","input":"internet-s","variant":"serial"}"#,
        r#"{"id":8,"op":"compile","app":"cc"}"#,
    ]));
    assert!(
        out.responses[0].contains(r#""ok":true"#),
        "{}",
        out.responses[0]
    );
    assert_eq!(
        out.responses[1],
        r#"{"id":8,"op":"compile","ok":false,"cache":"bypass","error":{"kind":"overloaded","message":"admission budget exhausted; retry after the hint","retry_after_ms":25}}"#
    );

    svc.begin_drain(std::time::Duration::from_secs(5));
    let out = svc.handle_batch(&lines(&[
        r#"{"id":9,"op":"search","app":"bfs","input":"internet-s"}"#,
    ]));
    assert_eq!(
        out.responses[0],
        r#"{"id":9,"op":"search","ok":false,"cache":"bypass","error":{"kind":"draining","message":"service is draining; no new work is admitted"}}"#
    );
}

fn field_names(resp: &str) -> Vec<String> {
    match parse(resp).unwrap_or_else(|e| panic!("unparseable response {resp:?}: {e}")) {
        Json::Obj(pairs) => pairs.into_iter().map(|(k, _)| k).collect(),
        other => panic!("response is not an object: {other:?}"),
    }
}

/// The ordered payload fields (after `id, op, ok, cache`) of every op.
fn payload_fields(op: &str) -> Vec<&'static str> {
    // What `simulate`, `simulate_native` and `trace` all start with.
    let measurement = |extra: &[&'static str]| {
        let mut fields = vec!["variant", "input", "cycles", "invocations", "stats"];
        fields.extend(extra);
        fields
    };
    match op {
        "compile" => vec![
            "program",
            "app",
            "passes",
            "stages",
            "compute_stages",
            "ra_stages",
            "queues",
        ],
        "search" => vec![
            "best_cuts",
            "total_stages",
            "compute_stages",
            "candidates",
            "viable",
            "train_cycles",
            "profile",
        ],
        "stats" => vec![
            "compile",
            "search",
            "fleet",
            "persistence",
            "inflight",
            "draining",
        ],
        "shutdown" => vec![],
        "simulate" => measurement(&[]),
        "simulate_native" => {
            measurement(&["backend", "threads", "stages", "host_cores", "machine"])
        }
        "trace" => measurement(&["events", "trace"]),
        other => panic!("no field list for op {other:?}"),
    }
}

#[test]
fn ok_frames_keep_their_field_order_and_replay_identically_cold_warm_restored() {
    let mut path = std::env::temp_dir();
    path.push(format!("phloem-wire-golden-{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = ServiceConfig {
        cache_path: Some(path.clone()),
        ..config()
    };
    let script = lines(&[
        r#"{"id":1,"op":"compile","app":"bfs","passes":"all","stages":3}"#,
        r#"{"id":2,"op":"simulate","app":"cc","input":"internet-s","variant":"serial"}"#,
        r#"{"id":3,"op":"simulate_native","app":"bfs","input":"internet-s","variant":"serial"}"#,
        r#"{"id":4,"op":"search","app":"bfs","input":"internet-s","max_stages":2,"top_k":2}"#,
        r#"{"id":5,"op":"trace","app":"spmm","input":"enron-s","variant":"phloem","stages":2}"#,
        r#"{"id":6,"op":"stats"}"#,
        r#"{"id":7,"op":"shutdown"}"#,
    ]);
    let first = Service::new(cfg.clone());
    let cold = first.handle_batch(&script).responses;
    let warm = first.handle_batch(&script).responses;
    assert_eq!(first.persist_now().unwrap(), 3);
    drop(first);
    let second = Service::new(cfg);
    assert_eq!(second.persist_counters().restored, 3);
    let restored = second.handle_batch(&script).responses;
    let _ = std::fs::remove_file(&path);

    for (i, c) in cold.iter().enumerate() {
        let v = parse(c).unwrap();
        let op = v.get("op").and_then(|j| j.as_str()).unwrap();
        let mut want = vec!["id", "op", "ok", "cache"];
        want.extend(payload_fields(op));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{c}");
        for replay in [&warm[i], &restored[i]] {
            assert_eq!(field_names(replay), want, "{replay}");
            match op {
                // Wall-clock and scheduler counters: shape only.
                "simulate_native" | "stats" => {}
                "compile" | "search" | "trace" => {
                    assert!(c.contains(r#""cache":"miss""#), "{c}");
                    assert_eq!(&c.replace(r#""cache":"miss""#, r#""cache":"hit""#), replay);
                }
                _ => assert_eq!(c, replay),
            }
        }
        assert_eq!(field_names(c), want, "{c}");
    }
    assert_eq!(
        cold[6],
        r#"{"id":7,"op":"shutdown","ok":true,"cache":"bypass"}"#
    );
}
