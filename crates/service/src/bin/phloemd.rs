//! `phloemd` — the Phloem compile-and-simulate daemon.
//!
//! Reads newline-delimited JSON requests, one per line; a **blank line
//! (or EOF) ends a batch**. Each batch is validated and cache-probed in
//! line order, executed concurrently on the host pool, and answered
//! with one JSON response per request line, in order, followed by a
//! blank line — the whole frame in one `write`. Caches persist across
//! batches (and, in socket mode, across connections), so a replayed
//! workload observes warm hits.
//!
//! ```text
//! phloemd [--socket PATH] [--scale tiny|small|full] [--workers N]
//!         [--cycle-cap N] [--compile-cache N] [--search-cache N]
//!         [--max-inflight N] [--deadline-ms N] [--cache-path PATH]
//!         [--drain-ms N] [--max-conns N]
//! ```
//!
//! Ops: `compile`, `simulate`, `simulate_native`, `search`, `trace`,
//! `stats`, `shutdown`. `simulate_native` runs the variant on the
//! native thread backend (real OS threads, every queue an SPSC ring;
//! optional `"threads": N` field, `0` = one thread per stage) and
//! reports wall-clock nanoseconds in the `cycles` slot,
//! uncached; it honours `deadline_ms` like any compute op — the native
//! park loop observes the request's cancel token.
//!
//! Without `--socket`, requests come from stdin and responses go to
//! stdout (errors and lifecycle notes to stderr). With `--socket PATH`,
//! the daemon serves connections **concurrently** (one thread each, up
//! to `--max-conns`; excess connections are answered with a structured
//! `overloaded` error frame and closed). The acceptor blocks in
//! `accept`, so a new connection is served as soon as it arrives; only
//! connections still open count against the cap.
//!
//! ## Robustness (see `DESIGN.md` §10)
//!
//! * Request lines are read under a byte limit (`PHLOEMD_MAX_LINE_BYTES`,
//!   default 1 MiB): an oversized line is discarded up to its newline
//!   and answered with a structured `request_too_large` error — the
//!   connection stays usable.
//! * Socket reads carry a timeout (`PHLOEMD_READ_TIMEOUT_MS`, default
//!   30000; `0` disables): a stalled client gets one `timed_out` error
//!   frame and its connection is closed.
//! * `--cache-path` enables crash-safe persistence: the snapshot is
//!   rewritten atomically after every batch that cached something
//!   new (one write at a time, shared between connections), so even a
//!   SIGKILL'd daemon restarts with the last batch's caches warm.
//! * A `{"op":"shutdown"}` request answers its batch, then drains —
//!   even when the client hung up before reading the answer. The
//!   connection that carried it wakes the blocked acceptor by
//!   connecting to the socket itself; new work is then rejected with a
//!   structured `draining` error while in-flight batches finish under
//!   the `--drain-ms` grace window (work that outlives it is cancelled
//!   and answered, not orphaned), the cache is persisted, and the
//!   daemon exits.

use phloem_service::proto::error_frame;
use phloem_service::{Service, ServiceConfig};
use phloem_workloads::catalog::Scale;
use std::io::{BufRead, BufReader, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: phloemd [--socket PATH] [--scale tiny|small|full] [--workers N] \
         [--cycle-cap N] [--compile-cache N] [--search-cache N] [--max-inflight N] \
         [--deadline-ms N] [--cache-path PATH] [--drain-ms N] [--max-conns N]\n\
         env: PHLOEMD_MAX_LINE_BYTES (default 1048576), PHLOEMD_READ_TIMEOUT_MS \
         (default 30000; 0 disables)"
    );
    std::process::exit(2);
}

/// Stream-level protection limits (shared by stdin and socket modes;
/// the read timeout only applies to sockets).
#[derive(Clone, Copy)]
struct Limits {
    max_line_bytes: usize,
    read_timeout: Option<Duration>,
}

impl Limits {
    fn from_env() -> Limits {
        let max_line_bytes = env_num("PHLOEMD_MAX_LINE_BYTES", 1 << 20).max(64);
        let timeout_ms = env_num("PHLOEMD_READ_TIMEOUT_MS", 30_000);
        Limits {
            max_line_bytes,
            read_timeout: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms as u64)),
        }
    }
}

fn env_num(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(v) => v.trim().parse().unwrap_or_else(|_| {
            eprintln!("phloemd: ignoring {name}={v:?}: expected an integer");
            default
        }),
        Err(_) => default,
    }
}

fn main() {
    let mut cfg = ServiceConfig {
        scale: Scale::Tiny,
        ..ServiceConfig::default()
    };
    let mut socket: Option<String> = None;
    let mut drain_ms: u64 = 2_000;
    let mut max_conns: usize = 16;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("phloemd: {name} requires a value");
                usage()
            })
        };
        match arg.as_str() {
            "--socket" => socket = Some(value("--socket")),
            "--scale" => {
                cfg.scale = match value("--scale").as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    other => {
                        eprintln!("phloemd: unknown scale {other:?}");
                        usage()
                    }
                }
            }
            "--workers" => cfg.workers = parse_num(&value("--workers"), "--workers").max(1),
            "--cycle-cap" => {
                cfg.default_cycle_cap = parse_num(&value("--cycle-cap"), "--cycle-cap") as u64
            }
            "--compile-cache" => {
                cfg.compile_cache_cap = parse_num(&value("--compile-cache"), "--compile-cache")
            }
            "--search-cache" => {
                cfg.search_cache_cap = parse_num(&value("--search-cache"), "--search-cache")
            }
            "--max-inflight" => {
                cfg.max_inflight =
                    parse_num(&value("--max-inflight"), "--max-inflight").max(1) as u64
            }
            "--deadline-ms" => {
                cfg.default_deadline_ms =
                    Some(parse_num(&value("--deadline-ms"), "--deadline-ms") as u64)
            }
            "--cache-path" => cfg.cache_path = Some(value("--cache-path").into()),
            "--drain-ms" => drain_ms = parse_num(&value("--drain-ms"), "--drain-ms") as u64,
            "--max-conns" => max_conns = parse_num(&value("--max-conns"), "--max-conns").max(1),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("phloemd: unknown argument {other:?}");
                usage()
            }
        }
    }
    let limits = Limits::from_env();
    let service = Arc::new(Service::new(cfg));
    match socket {
        None => serve_stdio(&service, limits),
        Some(path) => serve_socket(&service, &path, limits, max_conns, drain_ms),
    }
}

fn parse_num(s: &str, name: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("phloemd: {name} expects an integer, got {s:?}");
        usage()
    })
}

/// Logs (does not die on) a failed save — a full disk must not take
/// the daemon down with it. After an answered frame the save is
/// `persist_if_dirty`: the frame's inserts are durable before the next
/// frame on that stream is read, and a frame that inserted nothing
/// writes nothing. At exit it is `persist_now`, unconditional, because
/// hits since the last insert reordered the LRU the snapshot records.
fn log_persist(saved: std::io::Result<u64>) {
    if let Err(e) = saved {
        eprintln!("phloemd: cache persist failed: {e}");
    }
}

/// Serves batches from stdin until EOF or a `shutdown` request.
fn serve_stdio(service: &Service, limits: Limits) {
    let stdin = std::io::stdin();
    let mut reader = stdin.lock();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    loop {
        match serve_stream(service, &mut reader, &mut out, limits) {
            StreamEnd::Continue => log_persist(service.persist_if_dirty()),
            StreamEnd::Eof => break,
            StreamEnd::Shutdown => break,
            StreamEnd::Timeout => break, // unreachable on stdin
            StreamEnd::Error(e) => {
                eprintln!("phloemd: stdin stream error: {e}");
                break;
            }
        }
    }
    log_persist(service.persist_now());
}

/// Serves socket connections concurrently (thread per connection, up
/// to `max_conns`). The accept loop blocks in `accept`. The connection
/// that answers a `shutdown` starts the drain — new work is rejected,
/// in-flight batches get `drain_ms` of grace (work that outlives it is
/// cancelled and answered) — and wakes the acceptor by connecting to
/// `path` itself; the acceptor then unblocks idle readers, joins the
/// threads, and persists the cache before exit.
fn serve_socket(
    service: &Arc<Service>,
    path: &str,
    limits: Limits,
    max_conns: usize,
    drain_ms: u64,
) {
    // A stale socket file from a previous run would fail the bind.
    let _ = std::fs::remove_file(path);
    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("phloemd: cannot bind {path:?}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("phloemd: listening on {path:?}");
    // Read-half clones of live connections, so a drain can unblock
    // threads parked in `read` (they observe EOF and finish up).
    let live: Arc<Mutex<Vec<UnixStream>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) => {
                eprintln!("phloemd: accept failed: {e}");
                continue;
            }
        };
        // The wake-up connection, or a client that raced the shutdown:
        // closed unanswered, like any connection after the drain began.
        if service.is_draining() {
            break;
        }
        // After `accept`, not before: a connection that closed while
        // the acceptor slept must not count against the cap.
        handles.retain(|h| !h.is_finished());
        if handles.len() >= max_conns {
            refuse_connection(stream, max_conns);
            continue;
        }
        let (service, live, path) = (Arc::clone(service), Arc::clone(&live), path.to_string());
        handles.push(std::thread::spawn(move || {
            if serve_connection(&service, stream, limits, &live) {
                service.begin_drain(Duration::from_millis(drain_ms));
                // Wake the acceptor, which checks for a drain after
                // every `accept`.
                let _ = UnixStream::connect(&path);
            }
        }));
    }
    // Unblock idle readers so every thread can exit.
    for conn in live.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        let _ = conn.shutdown(std::net::Shutdown::Read);
    }
    for h in handles {
        let _ = h.join();
    }
    log_persist(service.persist_now());
    let _ = std::fs::remove_file(path);
    eprintln!("phloemd: drained and exiting");
}

/// Answers a connection beyond the cap with one structured error frame.
fn refuse_connection(mut stream: UnixStream, max_conns: usize) {
    let line = error_line(
        "overloaded",
        &format!("connection limit reached ({max_conns}); retry later"),
    );
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n\n");
}

/// Deregisters (and thereby closes) a connection's drain clone when its
/// thread finishes — otherwise the registry would hold the socket open
/// and the peer would never observe EOF.
struct LiveGuard<'a> {
    live: &'a Mutex<Vec<UnixStream>>,
    fd: std::os::fd::RawFd,
}

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.live
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|s| s.as_raw_fd() != self.fd);
    }
}

/// Serves one connection until it ends; true when it ended in an
/// answered `shutdown`.
fn serve_connection(
    service: &Service,
    stream: UnixStream,
    limits: Limits,
    live: &Mutex<Vec<UnixStream>>,
) -> bool {
    if let Some(t) = limits.read_timeout {
        let _ = stream.set_read_timeout(Some(t));
    }
    let _live_guard = match stream.try_clone() {
        Ok(clone) => {
            let fd = clone.as_raw_fd();
            live.lock().unwrap_or_else(|e| e.into_inner()).push(clone);
            Some(LiveGuard { live, fd })
        }
        Err(_) => None,
    };
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("phloemd: cannot clone stream: {e}");
            return false;
        }
    });
    let mut writer = stream;
    loop {
        match serve_stream(service, &mut reader, &mut writer, limits) {
            StreamEnd::Continue => log_persist(service.persist_if_dirty()),
            StreamEnd::Eof => return false,
            StreamEnd::Shutdown => {
                log_persist(service.persist_if_dirty());
                return true;
            }
            StreamEnd::Timeout => {
                // The timed-out frame was already answered; a stalled
                // client does not get to hold the connection slot.
                return false;
            }
            StreamEnd::Error(e) => {
                eprintln!("phloemd: connection error: {e}");
                return false;
            }
        }
    }
}

enum StreamEnd {
    /// The batch was answered; more may follow on this stream.
    Continue,
    /// The input side closed.
    Eof,
    /// A `shutdown` request asked the daemon to exit.
    Shutdown,
    /// The read timeout fired; the connection is done.
    Timeout,
    /// An I/O failure ended the stream.
    Error(std::io::Error),
}

/// One line of a frame: a request handed to the service (the next of
/// its responses answers it), or an oversized line that was discarded
/// and is answered inline.
enum FrameLine {
    Req,
    Oversized,
}

/// What one bounded line read produced.
enum LineRead {
    Line(String),
    Blank,
    TooLong,
    Eof,
    TimedOut,
    Err(std::io::Error),
}

/// Reads one `\n`-terminated line of at most `max` bytes. A longer
/// line is consumed (and discarded) up to its newline so the stream
/// stays framed, then reported as [`LineRead::TooLong`].
fn read_limited_line<R: BufRead>(input: &mut R, max: usize) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    let mut overlong = false;
    loop {
        let chunk = match input.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return LineRead::TimedOut
            }
            Err(e) => return LineRead::Err(e),
        };
        if chunk.is_empty() {
            // EOF. A partial unterminated line still counts as a line
            // (EOF ends the batch), unless nothing was read at all.
            return match (buf.is_empty(), overlong) {
                (true, false) => LineRead::Eof,
                (_, true) => LineRead::TooLong,
                (false, false) => finish_line(buf),
            };
        }
        let (consumed, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos + 1, true),
            None => (chunk.len(), false),
        };
        if !overlong {
            buf.extend_from_slice(&chunk[..consumed]);
            if buf.len() > max {
                overlong = true;
                buf = Vec::new();
            }
        }
        input.consume(consumed);
        if done {
            return if overlong {
                LineRead::TooLong
            } else {
                finish_line(buf)
            };
        }
    }
}

fn finish_line(buf: Vec<u8>) -> LineRead {
    let text = String::from_utf8_lossy(&buf);
    let trimmed = text.trim_end_matches(['\n', '\r']);
    if trimmed.is_empty() {
        LineRead::Blank
    } else {
        LineRead::Line(trimmed.to_string())
    }
}

/// A structured error response constructed daemon-side (before the
/// service ever sees the line): the service's own error frame, under
/// `id: 0, op: "read"`.
fn error_line(kind: &str, message: &str) -> String {
    error_frame(0, "read", "bypass", kind, message, None)
}

/// Reads one batch (lines until a blank line or EOF), answers it, and
/// reports how the stream should proceed. The answer frame — one line
/// per request line, then a blank line — goes out in one `write`. An
/// empty batch at EOF is not answered (so trailing newlines don't
/// produce empty frames).
fn serve_stream<R: BufRead, W: Write>(
    service: &Service,
    input: &mut R,
    out: &mut W,
    limits: Limits,
) -> StreamEnd {
    let mut frame: Vec<FrameLine> = Vec::new();
    let mut lines: Vec<String> = Vec::new();
    let mut at_eof = false;
    let mut timed_out = false;
    loop {
        match read_limited_line(input, limits.max_line_bytes) {
            LineRead::Line(l) => {
                frame.push(FrameLine::Req);
                lines.push(l);
            }
            LineRead::TooLong => frame.push(FrameLine::Oversized),
            LineRead::Blank => break,
            LineRead::Eof => {
                at_eof = true;
                break;
            }
            LineRead::TimedOut => {
                timed_out = true;
                break;
            }
            LineRead::Err(e) => return StreamEnd::Error(e),
        }
    }
    if timed_out {
        // Answer what we can: one error frame telling the client its
        // request stalled, then close the connection.
        let line = error_line(
            "timed_out",
            "read timed out mid-request; closing the connection",
        );
        let _ = write_frame(out, &format!("{line}\n\n"));
        return StreamEnd::Timeout;
    }
    if frame.is_empty() {
        return if at_eof {
            StreamEnd::Eof
        } else {
            // A lone blank line: acknowledge with an empty frame so the
            // client's frame counting stays in sync.
            match write_frame(out, "\n") {
                Ok(()) => StreamEnd::Continue,
                Err(e) => StreamEnd::Error(e),
            }
        };
    }
    let result = service.handle_batch(&lines);
    let mut answered = result.responses.iter();
    let mut text = String::new();
    for line in &frame {
        match line {
            FrameLine::Req => match answered.next() {
                Some(resp) => text.push_str(resp),
                None => text.push_str(&error_line("trap", "response missing for request line")),
            },
            FrameLine::Oversized => text.push_str(&error_line(
                "request_too_large",
                &format!(
                    "request line exceeds {} bytes and was discarded",
                    limits.max_line_bytes
                ),
            )),
        }
        text.push('\n');
    }
    text.push('\n');
    let written = write_frame(out, &text);
    // A batch that carried `shutdown` was acknowledged in the service's
    // answer; the daemon exits whether or not the client stayed to
    // read it.
    if result.shutdown {
        StreamEnd::Shutdown
    } else if let Err(e) = written {
        StreamEnd::Error(e)
    } else if at_eof {
        StreamEnd::Eof
    } else {
        StreamEnd::Continue
    }
}

/// Writes one whole answer frame and flushes it.
fn write_frame<W: Write>(out: &mut W, text: &str) -> std::io::Result<()> {
    out.write_all(text.as_bytes())?;
    out.flush()
}
