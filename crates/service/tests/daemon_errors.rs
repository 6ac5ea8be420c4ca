//! Daemon error-path coverage: every malformed or hostile input gets a
//! structured per-request error, and the connection (and daemon) stay
//! usable afterwards.

use phloem_service::proto::parse;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn spawn_phloemd(envs: &[(&str, &str)], extra: &[&str], stderr: Stdio) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_phloemd"));
    cmd.args(extra)
        .args(["--scale", "tiny", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(stderr);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.spawn().expect("spawn phloemd")
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

fn error_kind(resp: &str) -> String {
    let v = parse(resp).unwrap_or_else(|e| panic!("unparseable response {resp:?}: {e}"));
    assert_eq!(v.get("ok").and_then(|j| j.as_bool()), Some(false), "{resp}");
    v.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(|k| k.as_str())
        .unwrap_or_else(|| panic!("no error.kind in {resp}"))
        .to_string()
}

/// Feeds `input` to a fresh stdin-mode daemon and returns its frames.
fn run_stdin(envs: &[(&str, &str)], input: &str) -> Vec<Vec<String>> {
    let mut child = spawn_phloemd(envs, &[], Stdio::null());
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
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
    frames(&transcript)
}

#[test]
fn malformed_unknown_and_missing_id_are_structured_and_non_fatal() {
    // One frame of four broken lines and one good one; then a second
    // frame proving the daemon is still answering.
    let input = concat!(
        "{\"id\":1,\"op\":\"frobnicate\"}\n",              // unknown op
        "{\"op\":\"stats\"}\n",                            // missing id
        "{\"id\":\"x\",\"op\":\"stats\"}\n",               // non-integer id
        "this is not json\n",                              // malformed
        "{\"id\":5,\"op\":\"compile\",\"app\":\"bfs\"}\n", // still works
        "\n",
        "{\"id\":6,\"op\":\"stats\"}\n",
        "\n",
    );
    let frames = run_stdin(&[], input);
    assert_eq!(frames.len(), 2, "daemon must answer both frames");
    let first = &frames[0];
    assert_eq!(first.len(), 5);
    assert_eq!(error_kind(&first[0]), "parse"); // unknown op is a parse-level reject
    assert!(first[0].contains("unknown op"), "{}", first[0]);
    assert_eq!(error_kind(&first[1]), "parse");
    assert!(first[1].contains("missing \\\"id\\\""), "{}", first[1]);
    assert_eq!(error_kind(&first[2]), "parse");
    assert_eq!(error_kind(&first[3]), "parse");
    assert!(first[4].contains(r#""ok":true"#), "{}", first[4]);
    assert!(frames[1][0].contains(r#""ok":true"#), "{}", frames[1][0]);
}

#[test]
fn eof_mid_batch_still_answers_the_partial_batch() {
    // No trailing blank line: EOF ends the batch, which must still be
    // answered in full before the daemon exits cleanly.
    let input = "{\"id\":1,\"op\":\"compile\",\"app\":\"bfs\"}\n{\"id\":2,\"op\":\"stats\"}";
    let frames = run_stdin(&[], input);
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].len(), 2);
    assert!(frames[0][0].contains(r#""id":1"#));
    assert!(frames[0][0].contains(r#""ok":true"#));
    assert!(frames[0][1].contains(r#""id":2"#));
    assert!(frames[0][1].contains(r#""ok":true"#));
}

#[test]
fn zero_deadline_is_a_structured_cancelled_error() {
    let input = concat!(
        "{\"id\":1,\"op\":\"simulate\",\"app\":\"bfs\",\"input\":\"internet-s\",",
        "\"variant\":\"serial\",\"deadline_ms\":0}\n",
        "{\"id\":2,\"op\":\"stats\"}\n",
        "\n",
    );
    let frames = run_stdin(&[], input);
    assert_eq!(frames[0].len(), 2);
    assert_eq!(error_kind(&frames[0][0]), "cancelled");
    assert!(frames[0][0].contains("deadline"), "{}", frames[0][0]);
    assert!(frames[0][1].contains(r#""ok":true"#), "{}", frames[0][1]);
}

#[test]
fn wrong_typed_fields_are_bad_requests_under_the_requests_own_id() {
    // Each line carries one present-but-wrong field; before the fix the
    // field was dropped and the request ran on the default.
    let cases = [
        ("compile", r#""app":"bfs","stages":"three""#, "stages"),
        (
            "simulate",
            r#""app":"bfs","input":"internet-s","cycle_cap":-5"#,
            "cycle_cap",
        ),
        (
            "simulate",
            r#""app":"bfs","input":"internet-s","cycle_cap":1.5"#,
            "cycle_cap",
        ),
        (
            "trace",
            r#""app":"bfs","input":"internet-s","deadline_ms":"soon""#,
            "deadline_ms",
        ),
        (
            "search",
            r#""app":"bfs","input":"internet-s","top_k":[2]"#,
            "top_k",
        ),
        ("compile", r#""app":5"#, "app"),
    ];
    let mut input = String::new();
    for (i, (op, body, _)) in cases.iter().enumerate() {
        input.push_str(&format!("{{\"id\":{},\"op\":\"{op}\",{body}}}\n", i + 10));
    }
    // Absent fields keep their defaults.
    input.push_str("{\"id\":99,\"op\":\"compile\",\"app\":\"bfs\"}\n\n");
    let frames = run_stdin(&[], &input);
    assert_eq!(frames[0].len(), cases.len() + 1);
    for (i, ((op, _, field), resp)) in cases.iter().zip(&frames[0]).enumerate() {
        assert_eq!(error_kind(resp), "bad_request", "{resp}");
        let v = parse(resp).unwrap();
        assert_eq!(v.get("id").and_then(|j| j.as_u64()), Some(i as u64 + 10));
        assert_eq!(v.get("op").and_then(|j| j.as_str()), Some(*op), "{resp}");
        let message = v.get("error").and_then(|e| e.get("message")).unwrap();
        assert!(
            message.as_str().unwrap().contains(&format!("{field:?}")),
            "the message must name {field}: {resp}"
        );
    }
    let last = frames[0].last().unwrap();
    assert!(
        last.contains(r#""ok":true"#) && last.contains(r#""stages":4"#),
        "{last}"
    );
}

#[test]
fn zero_wide_data_parallel_is_a_bad_request_and_panics_nothing() {
    // `"variant":"dp","threads":0` used to reach the app as
    // `DataParallel(0)`, trip its oracle assert inside a pool task and
    // answer a 24 KB trap frame holding the whole distance vector.
    let mut child = spawn_phloemd(&[], &[], Stdio::piped());
    let input = concat!(
        "{\"id\":1,\"op\":\"simulate\",\"app\":\"bfs\",\"input\":\"internet-s\",",
        "\"variant\":\"dp\",\"threads\":0}\n",
        "{\"id\":2,\"op\":\"simulate_native\",\"app\":\"bfs\",\"input\":\"internet-s\",",
        "\"variant\":\"dp\",\"threads\":0}\n",
        // Still legal where it is the native worker count.
        "{\"id\":3,\"op\":\"simulate_native\",\"app\":\"bfs\",\"input\":\"internet-s\",",
        "\"variant\":\"serial\",\"threads\":0}\n",
        "\n",
    );
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "phloemd exited with {}", out.status);
    let frames = frames(&String::from_utf8(out.stdout).unwrap());
    for resp in &frames[0][..2] {
        assert_eq!(error_kind(resp), "bad_request", "{resp}");
        assert!(resp.contains("threads"), "{resp}");
        assert!(resp.len() < 1024, "{} bytes on the wire", resp.len());
    }
    assert!(frames[0][2].contains(r#""ok":true"#), "{}", frames[0][2]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "daemon stderr:\n{stderr}");
}

#[test]
fn oversized_line_is_discarded_with_request_too_large() {
    // Cap lines at 256 bytes; send a huge (valid-JSON!) line between
    // two good requests. The oversized one is answered in place and
    // its neighbours are unaffected.
    let huge = format!(
        "{{\"id\":2,\"op\":\"stats\",\"pad\":\"{}\"}}",
        "x".repeat(4096)
    );
    let input = format!(
        "{{\"id\":1,\"op\":\"stats\"}}\n{huge}\n{{\"id\":3,\"op\":\"stats\"}}\n\n{{\"id\":4,\"op\":\"stats\"}}\n\n"
    );
    let frames = run_stdin(&[("PHLOEMD_MAX_LINE_BYTES", "256")], &input);
    assert_eq!(frames.len(), 2);
    let first = &frames[0];
    assert_eq!(first.len(), 3, "one response per request line: {first:?}");
    assert!(first[0].contains(r#""id":1"#) && first[0].contains(r#""ok":true"#));
    assert_eq!(error_kind(&first[1]), "request_too_large");
    assert!(first[2].contains(r#""id":3"#) && first[2].contains(r#""ok":true"#));
    // Next frame still answered: the stream stayed framed.
    assert!(frames[1][0].contains(r#""id":4"#), "{}", frames[1][0]);
}

#[test]
fn socket_read_timeout_answers_timed_out_and_frees_the_connection() {
    let path = std::env::temp_dir().join(format!("phloemd-errors-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut child = spawn_phloemd(
        &[("PHLOEMD_READ_TIMEOUT_MS", "150")],
        &["--socket", path.to_str().unwrap()],
        Stdio::null(),
    );
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !path.exists() {
        assert!(std::time::Instant::now() < deadline, "no socket bound");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // Send half a request and stall: the daemon must answer one
    // timed_out error frame and close this connection.
    let stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(b"{\"id\":1,\"op\":\"sta").unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(error_kind(line.trim_end()), "timed_out");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap(); // connection closed
    assert_eq!(rest.trim(), "");

    // The daemon is still healthy: a new connection works, and
    // shutdown exits cleanly.
    let stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writeln!(writer, "{{\"id\":2,\"op\":\"shutdown\"}}").unwrap();
    writeln!(writer).unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""ok":true"#), "{line}");
    let status = child.wait().unwrap();
    assert!(status.success(), "phloemd exited with {status}");
    assert!(!path.exists());
}

/// A socket-mode daemon that a failing test does not leave running.
struct SocketDaemon {
    child: Child,
    path: std::path::PathBuf,
}

impl SocketDaemon {
    /// Spawns one on a fresh path and waits until it has bound it.
    fn spawn(tag: &str, extra: &[&str]) -> SocketDaemon {
        let path =
            std::env::temp_dir().join(format!("phloemd-errors-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut args = vec!["--socket", path.to_str().unwrap()];
        args.extend_from_slice(extra);
        let child = spawn_phloemd(&[], &args, Stdio::null());
        let daemon = SocketDaemon { child, path };
        let deadline = Instant::now() + Duration::from_secs(30);
        while !daemon.path.exists() {
            assert!(Instant::now() < deadline, "no socket bound");
            std::thread::sleep(Duration::from_millis(10));
        }
        daemon
    }

    /// Requires a clean exit within `limit` that removed the socket.
    fn exits_within(&mut self, limit: Duration) {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().unwrap() {
                assert!(status.success(), "phloemd exited with {status}");
                assert!(!self.path.exists(), "socket file left behind");
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("phloemd still running {limit:?} after its shutdown");
    }
}

impl Drop for SocketDaemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Sends one single-line frame on `stream` (a write error is ignored:
/// a refused connection may already be closed), reads the answer frame
/// through its blank line and returns its first line.
fn first_answer(stream: &UnixStream, line: &str) -> String {
    let _ = (&*stream).write_all(format!("{line}\n\n").as_bytes());
    let mut reader = BufReader::new(stream);
    let mut answer = String::new();
    reader.read_line(&mut answer).unwrap();
    let mut rest = String::new();
    while reader.read_line(&mut rest).unwrap() > 0 && rest != "\n" {
        rest.clear();
    }
    answer
}

#[test]
fn a_shutdown_whose_client_hangs_up_still_stops_the_daemon() {
    let mut daemon = SocketDaemon::spawn("hangup", &[]);
    {
        let mut stream = UnixStream::connect(&daemon.path).unwrap();
        stream
            .write_all(b"{\"id\":1,\"op\":\"shutdown\"}\n\n")
            .unwrap();
    } // closed at once: the answer's write may fail, the shutdown may not
    daemon.exits_within(Duration::from_secs(2));
}

#[test]
fn the_connection_cap_counts_only_open_connections() {
    let mut daemon = SocketDaemon::spawn("cap", &["--max-conns", "2"]);
    let path = daemon.path.clone();
    let stats = |id: usize| format!("{{\"id\":{id},\"op\":\"stats\"}}");
    // Time for the daemon's connection thread to see a client's close.
    let settle = || std::thread::sleep(Duration::from_millis(50));
    // Three times the cap, one after another: each closes before the
    // next connects, so none is ever refused.
    for i in 0..6 {
        let answer = first_answer(&UnixStream::connect(&path).unwrap(), &stats(i));
        assert!(answer.contains(r#""ok":true"#), "cycle {i}: {answer}");
        settle();
    }
    // Three held open at once: exactly one is over the cap.
    let mut open = Vec::new();
    let mut overloaded = 0;
    for i in 0..3 {
        let stream = UnixStream::connect(&path).unwrap();
        let answer = first_answer(&stream, &stats(10 + i));
        if answer.contains(r#""ok":true"#) {
            open.push(stream);
        } else {
            assert_eq!(error_kind(answer.trim_end()), "overloaded");
            overloaded += 1;
        }
    }
    assert_eq!(overloaded, 1);
    // Both close while the acceptor waits in `accept`: the next
    // connection finds the cap free.
    drop(open);
    settle();
    let stream = UnixStream::connect(&path).unwrap();
    let answer = first_answer(&stream, &stats(20));
    assert!(answer.contains(r#""ok":true"#), "{answer}");
    let bye = first_answer(&stream, r#"{"id":99,"op":"shutdown"}"#);
    assert!(bye.contains(r#""ok":true"#), "{bye}");
    drop(stream);
    daemon.exits_within(Duration::from_secs(10));
}
