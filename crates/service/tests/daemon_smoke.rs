//! End-to-end daemon smoke tests: the in-process service, the spawned
//! `phloemd` binary over stdin, and the Unix-socket mode — all at
//! `Scale::Tiny` so debug-build simulation stays fast.

use phloem_benchsuite::Variant;
use phloem_pool::Pool;
use phloem_service::proto::parse;
use phloem_service::{Batch, PreparedInputs, Service, ServiceConfig, SimRequest};
use phloem_workloads::catalog::Scale;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};

fn tiny_service() -> Service {
    Service::new(ServiceConfig {
        scale: Scale::Tiny,
        workers: 2,
        ..ServiceConfig::default()
    })
}

fn mixed_batch() -> Vec<String> {
    vec![
        r#"{"id":1,"op":"compile","app":"bfs"}"#.to_string(),
        r#"{"id":2,"op":"simulate","app":"bfs","input":"internet-s","variant":"serial"}"#
            .to_string(),
        r#"{"id":3,"op":"trace","app":"cc","input":"internet-s","variant":"phloem","stages":2}"#
            .to_string(),
        r#"{"id":4,"op":"compile","app":"spmm","passes":"queues-only"}"#.to_string(),
    ]
}

/// Splits a daemon transcript into blank-line-terminated frames.
fn frames(transcript: &str) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    for line in transcript.lines() {
        if line.is_empty() {
            out.push(std::mem::take(&mut cur));
        } else {
            cur.push(line.to_string());
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn assert_warm_matches_cold(cold: &[String], warm: &[String]) {
    assert_eq!(cold.len(), warm.len());
    for (c, w) in cold.iter().zip(warm) {
        let cv = parse(c).unwrap();
        let wv = parse(w).unwrap();
        assert_eq!(cv.get("ok").and_then(|j| j.as_bool()), Some(true), "{c}");
        assert_eq!(wv.get("ok").and_then(|j| j.as_bool()), Some(true), "{w}");
        let op = cv.get("op").and_then(|j| j.as_str()).unwrap().to_string();
        let warm_cache = wv.get("cache").and_then(|j| j.as_str()).unwrap();
        if op == "simulate" {
            // Simulations bypass the caches but must replay identically.
            assert_eq!(warm_cache, "bypass", "{w}");
            assert_eq!(c, w, "simulate responses must be bit-identical");
        } else {
            assert_eq!(warm_cache, "hit", "warm {op} should hit: {w}");
            assert_eq!(
                &c.replace(r#""cache":"miss""#, r#""cache":"hit""#),
                w,
                "warm hit must be bit-identical to the cold response"
            );
        }
    }
}

#[test]
fn in_process_replay_hits_and_matches_the_direct_api() {
    let svc = tiny_service();
    let batch = mixed_batch();
    let cold = svc.handle_batch(&batch);
    let warm = svc.handle_batch(&batch);
    assert!(!cold.shutdown && !warm.shutdown);
    assert_warm_matches_cold(&cold.responses, &warm.responses);

    // The simulate response must agree with the direct Batch API.
    let resp = parse(&warm.responses[1]).unwrap();
    let cycles = resp.get("cycles").and_then(|j| j.as_u64()).unwrap();
    let pool = Pool::new(1);
    let inputs = PreparedInputs::new(Scale::Tiny);
    let machine = svc.config().machine.clone();
    let direct = Batch::new(&pool, &inputs, &machine).run(&[SimRequest {
        app: "bfs".into(),
        variant: Variant::Serial,
        input: "internet-s".into(),
        cycle_cap: None,
    }]);
    let direct = direct[0].as_ref().expect("direct run succeeds");
    assert_eq!(cycles, direct.cycles, "service and direct API disagree");

    // Warm replay hit-rate over cacheable ops must be 100% here; the
    // acceptance bar for the bench is >= 50%.
    let (compile, search) = svc.counters();
    let hits = compile.hits + search.hits;
    let probes = hits + compile.misses + search.misses;
    assert_eq!(hits * 2, probes, "expected exactly half the probes to hit");
}

fn spawn_phloemd(extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_phloemd"))
        .args(extra)
        .args(["--scale", "tiny", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn phloemd")
}

#[test]
fn phloemd_stdin_two_pass_replay_is_warm() {
    let mut child = spawn_phloemd(&[]);
    let batch = mixed_batch();
    {
        let stdin = child.stdin.as_mut().unwrap();
        for pass in 0..2 {
            for line in &batch {
                writeln!(stdin, "{line}").unwrap();
            }
            writeln!(stdin).unwrap();
            let _ = pass;
        }
    }
    drop(child.stdin.take());
    let mut transcript = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut transcript)
        .unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "phloemd exited with {status}");
    let frames = frames(&transcript);
    assert_eq!(
        frames.len(),
        2,
        "expected two response frames:\n{transcript}"
    );
    assert_eq!(frames[0].len(), batch.len());
    assert_warm_matches_cold(&frames[0], &frames[1]);
}

/// Sends one batch over a connected socket and reads its response frame.
fn socket_round_trip(path: &std::path::Path, lines: &[String]) -> Vec<String> {
    let stream = std::os::unix::net::UnixStream::connect(path).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for line in lines {
        writeln!(writer, "{line}").unwrap();
    }
    writeln!(writer).unwrap();
    writer.flush().unwrap();
    let mut frame = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if trimmed.is_empty() {
            break;
        }
        frame.push(trimmed.to_string());
    }
    frame
}

#[test]
fn phloemd_socket_persists_caches_across_connections() {
    let path = std::env::temp_dir().join(format!("phloemd-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut child = spawn_phloemd(&["--socket", path.to_str().unwrap()]);

    // Wait for the daemon to bind the socket.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !path.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "phloemd never bound {path:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let batch = mixed_batch();
    let cold = socket_round_trip(&path, &batch);
    assert_eq!(cold.len(), batch.len());
    // A NEW connection must see the caches the first one filled.
    let warm = socket_round_trip(&path, &batch);
    assert_warm_matches_cold(&cold, &warm);

    // Stats over the wire report the accumulated counters.
    let stats = socket_round_trip(&path, &[r#"{"id":9,"op":"stats"}"#.to_string()]);
    let stats = parse(&stats[0]).unwrap();
    let compile = stats.get("compile").expect("compile counters");
    assert!(compile.get("hits").and_then(|j| j.as_u64()).unwrap() >= 2);

    // Shutdown ends the daemon and removes the socket file.
    let bye = socket_round_trip(&path, &[r#"{"id":10,"op":"shutdown"}"#.to_string()]);
    assert!(bye[0].contains(r#""ok":true"#));
    let status = child.wait().unwrap();
    assert!(status.success(), "phloemd exited with {status}");
    assert!(!path.exists(), "socket file should be removed on shutdown");
}

#[test]
fn phloemd_rewrites_the_snapshot_only_for_frames_that_cached_something() {
    use std::os::unix::fs::MetadataExt;
    let pid = std::process::id();
    let cache = std::env::temp_dir().join(format!("phloemd-test-{pid}-frames.cache"));
    let _ = std::fs::remove_file(&cache);
    let mut child = spawn_phloemd(&["--cache-path", cache.to_str().unwrap()]);
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    // One frame in, one frame out. The daemon saves after it answers
    // and before it reads on, so once frame N+1 is answered, frame N's
    // save (or skip) is over.
    let mut round_trip = |line: &str| {
        write!(stdin, "{line}\n\n").unwrap();
        stdin.flush().unwrap();
        let mut answer = String::new();
        stdout.read_line(&mut answer).unwrap();
        let mut blank = String::new();
        stdout.read_line(&mut blank).unwrap();
        assert_eq!(blank, "\n", "one answer per frame");
        answer
    };
    let inode = || std::fs::metadata(&cache).map(|m| m.ino()).ok();
    let compile = r#"{"id":1,"op":"compile","app":"bfs"}"#;
    let stats = r#"{"id":2,"op":"stats"}"#;

    assert!(round_trip(compile).contains(r#""cache":"miss""#));
    assert!(round_trip(stats).contains(r#""persisted":1"#));
    let written = inode();
    assert!(written.is_some(), "the miss was made durable");

    // A hit, a bypass, an error: answered, nothing rewritten.
    assert!(round_trip(compile).contains(r#""cache":"hit""#));
    let simulate =
        r#"{"id":3,"op":"simulate","app":"bfs","input":"internet-s","variant":"serial"}"#;
    assert!(round_trip(simulate).contains(r#""cache":"bypass""#));
    assert!(round_trip(r#"{"id":4,"op":"compile","app":"nope"}"#).contains(r#""ok":false"#));
    assert!(round_trip(stats).contains(r#""persisted":1"#));
    assert_eq!(inode(), written);

    // The next miss is saved again, and so is the exit, unconditionally.
    let other = r#"{"id":5,"op":"compile","app":"cc"}"#;
    assert!(round_trip(other).contains(r#""cache":"miss""#));
    assert!(round_trip(stats).contains(r#""persisted":3"#));
    assert_ne!(inode(), written);
    drop(stdin);
    assert!(child.wait().unwrap().success());
    let loaded = phloem_service::persist::load(&cache).unwrap();
    assert_eq!((loaded.snapshot.len(), loaded.corrupt_skipped), (2, 0));
    let _ = std::fs::remove_file(&cache);
}

/// A spawned daemon that a failing test does not leave running.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn phloemd_answers_fresh_connections_at_once_and_exits_promptly_on_shutdown() {
    use std::time::{Duration, Instant};
    let pid = std::process::id();
    let path = std::env::temp_dir().join(format!("phloemd-test-{pid}-accept.sock"));
    let _ = std::fs::remove_file(&path);
    let mut child = KillOnDrop(spawn_phloemd(&["--socket", path.to_str().unwrap()]));
    let deadline = Instant::now() + Duration::from_secs(30);
    while !path.exists() {
        assert!(Instant::now() < deadline, "phloemd never bound {path:?}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Connect to first answer, each on a fresh connection: the acceptor
    // is blocked in `accept`, not polling on a timer.
    let stats = [r#"{"id":1,"op":"stats"}"#.to_string()];
    let mut ms: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let answer = socket_round_trip(&path, &stats);
            assert!(answer[0].contains(r#""ok":true"#), "{}", answer[0]);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = (ms[9] + ms[10]) / 2.0;
    assert!(median < 5.0, "median first answer {median:.2} ms: {ms:?}");

    // An idle daemon leaves soon after it answers a shutdown.
    let bye = socket_round_trip(&path, &[r#"{"id":2,"op":"shutdown"}"#.to_string()]);
    assert!(bye[0].contains(r#""ok":true"#), "{}", bye[0]);
    let answered = Instant::now();
    let status = loop {
        if let Some(status) = child.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            answered.elapsed() < Duration::from_secs(2),
            "phloemd still running 2 s after an answered shutdown"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "phloemd exited with {status}");
    assert!(!path.exists(), "socket file should be removed on shutdown");
}
