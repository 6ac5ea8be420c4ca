//! Chaos harness: deterministic fault injection against a live `phloemd`.
//!
//! Spawns the daemon in socket mode and attacks it with seeded fault
//! shapes, asserting after every one that the daemon answers structured
//! errors (never garbage), stays healthy for well-formed traffic, and
//! shuts down cleanly. Eight shapes, each run under `--seeds N`
//! (default 20) distinct xorshift seeds that vary cut points, garbage
//! content, chunk sizes, and timing jitter:
//!
//! 1. `conn_killed_mid_request` — client drops the connection halfway
//!    through a request line.
//! 2. `malformed_json` — garbage, truncated JSON, non-object JSON, and
//!    unknown ops each get a structured `parse` error.
//! 3. `oversized_line` — a line beyond `PHLOEMD_MAX_LINE_BYTES` is
//!    answered in place with `request_too_large`; its neighbours and
//!    the next frame are unaffected.
//! 4. `slow_partial_write` — a request trickled in randomly-sized
//!    chunks (within the read timeout) is answered normally.
//! 5. `shutdown_during_inflight` — a shutdown races an in-flight
//!    simulate batch; the batch is answered (ok, or a structured
//!    `draining`/`cancelled` error), never orphaned, and the daemon
//!    exits cleanly with its socket file removed.
//! 6. `sigkill_restart_warm` — SIGKILL after a persisted batch; a
//!    restart on the same `--cache-path` serves a bit-identical warm
//!    hit and reports `persistence.restored >= 1`.
//! 7. `snapshot_corruption` — a random byte of the snapshot is flipped;
//!    the restart skips the corrupt entry (`corrupt_skipped >= 1`) and
//!    keeps serving.
//! 8. `interleaved_misses_sigkill` — two connections stream distinct
//!    compile misses (so their snapshot saves contend) and the daemon
//!    is SIGKILLed at a seeded point mid-stream; the restart reports
//!    `corrupt_skipped == 0` and every frame that had an answered
//!    successor on its connection is a bit-identical warm hit.
//!
//! `--smoke` runs all shapes at 3 seeds for CI; the full run writes
//! `BENCH_chaos.json`. Everything is deterministic per seed — no clock
//! or entropy feeds the plan, only the seed.

use phloem_bench::header;
use phloem_bench::record::{self, host_cores, num, Gate};
use phloem_service::proto::parse;
use phloem_service::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// xorshift64: tiny, deterministic, good enough to diversify a chaos
/// plan. Never seeded from the clock.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng((seed.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

const APPS: [&str; 5] = ["bfs", "cc", "prd", "radii", "spmm"];
fn stats_req(id: u64) -> String {
    format!("{{\"id\":{id},\"op\":\"stats\"}}")
}

fn compile_req(id: u64, app: &str) -> String {
    format!("{{\"id\":{id},\"op\":\"compile\",\"app\":\"{app}\"}}")
}

fn simulate_req(id: u64) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"simulate\",\"app\":\"bfs\",\"input\":\"internet-s\",\
         \"variant\":\"serial\"}}"
    )
}

fn shutdown_req(id: u64) -> String {
    format!("{{\"id\":{id},\"op\":\"shutdown\"}}")
}

/// One line that must draw a structured `parse` error: free garbage,
/// truncated JSON, valid-but-not-an-object JSON, or an unknown op.
fn garbage(rng: &mut Rng) -> String {
    match rng.below(4) {
        0 => format!("not json {:x}", rng.next()),
        1 => format!("{{\"id\":{},", rng.below(1000)),
        2 => format!("[{},{}]", rng.next(), rng.next()),
        _ => format!(
            "{{\"id\":{},\"op\":\"nope-{:x}\"}}",
            rng.below(1000),
            rng.below(0xffff)
        ),
    }
}

fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

fn parsed(resp: &str) -> Result<Json, String> {
    parse(resp).map_err(|e| format!("unparseable response {resp:?}: {e}"))
}

fn ensure_ok(resp: &str) -> Result<(), String> {
    let v = parsed(resp)?;
    ensure(v.get("ok").and_then(Json::as_bool) == Some(true), || {
        format!("expected ok:true, got: {resp}")
    })
}

/// Returns `error.kind` of a failed response (asserting `ok:false`).
fn error_kind(resp: &str) -> Result<String, String> {
    let v = parsed(resp)?;
    ensure(v.get("ok").and_then(Json::as_bool) == Some(false), || {
        format!("expected ok:false, got: {resp}")
    })?;
    v.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("no error.kind in {resp}"))
}

/// Reads `stats.<section>.<field>` out of a stats response.
fn stats_u64(resp: &str, section: &str, field: &str) -> Result<u64, String> {
    let v = parsed(resp)?;
    v.get(section)
        .and_then(|s| s.get(field))
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("no {section}.{field} in {resp}"))
}

/// A client connection speaking the blank-line frame protocol.
struct Conn {
    w: UnixStream,
    r: BufReader<UnixStream>,
}

impl Conn {
    fn open(socket: &PathBuf) -> Result<Conn, String> {
        let w = UnixStream::connect(socket).map_err(|e| format!("connect {socket:?}: {e}"))?;
        let r = BufReader::new(w.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn { w, r })
    }

    fn send(&mut self, lines: &[String]) -> Result<(), String> {
        for line in lines {
            writeln!(self.w, "{line}").map_err(|e| format!("send: {e}"))?;
        }
        writeln!(self.w).map_err(|e| format!("send: {e}"))?;
        self.w.flush().map_err(|e| format!("flush: {e}"))
    }

    fn read_frame(&mut self) -> Result<Vec<String>, String> {
        let mut frame = Vec::new();
        loop {
            let mut line = String::new();
            match self.r.read_line(&mut line) {
                Ok(0) => return Err(format!("EOF mid-frame after {} lines", frame.len())),
                Ok(_) => {
                    let t = line.trim_end_matches(['\n', '\r']);
                    if t.is_empty() {
                        return Ok(frame);
                    }
                    frame.push(t.to_string());
                }
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    fn round_trip(&mut self, lines: &[String]) -> Result<Vec<String>, String> {
        self.send(lines)?;
        self.read_frame()
    }
}

/// A spawned daemon under test. Dropping it SIGKILLs any survivor so a
/// failed seed never leaks a process.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

fn phloemd_exe() -> PathBuf {
    std::env::current_exe()
        .expect("current_exe")
        .with_file_name("phloemd")
}

impl Daemon {
    fn spawn(tag: &str, envs: &[(&str, &str)], extra: &[&str]) -> Result<Daemon, String> {
        let socket =
            std::env::temp_dir().join(format!("phloem-chaos-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let mut cmd = Command::new(phloemd_exe());
        cmd.args(["--socket", socket.to_str().unwrap()])
            .args(["--scale", "tiny", "--workers", "2"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let child = cmd.spawn().map_err(|e| format!("spawn phloemd: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while !socket.exists() {
            if Instant::now() > deadline {
                return Err("phloemd never bound its socket".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(Daemon { child, socket })
    }

    /// One frame over a fresh connection.
    fn round_trip(&self, lines: &[String]) -> Result<Vec<String>, String> {
        Conn::open(&self.socket)?.round_trip(lines)
    }

    /// Requests shutdown, then requires a clean exit: status 0 and the
    /// socket file removed.
    fn shutdown_clean(self) -> Result<(), String> {
        let frame = self.round_trip(&[shutdown_req(9999)])?;
        ensure_ok(&frame[0])?;
        self.wait_exit()
    }

    fn wait_exit(mut self) -> Result<(), String> {
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        ensure(status.success(), || format!("daemon exited with {status}"))?;
        ensure(!self.socket.exists(), || {
            "socket file not removed on exit".into()
        })
    }

    fn sigkill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn cache_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("phloem-chaos-{}-{tag}.cache", std::process::id()))
}

// ---------------------------------------------------------------- shapes

fn conn_killed_mid_request(tag: &str, rng: &mut Rng) -> Result<(), String> {
    let d = Daemon::spawn(tag, &[], &[])?;
    let req = simulate_req(1);
    let cut = 1 + rng.below(req.len() as u64 - 1) as usize;
    {
        let mut c = Conn::open(&d.socket)?;
        if rng.below(2) == 1 {
            // Sometimes a complete line precedes the severed one.
            writeln!(c.w, "{}", stats_req(2)).map_err(|e| format!("send: {e}"))?;
        }
        c.w.write_all(&req.as_bytes()[..cut])
            .map_err(|e| format!("send: {e}"))?;
        c.w.flush().map_err(|e| format!("flush: {e}"))?;
    } // dropped: the daemon sees EOF mid-line and must shrug it off
    let frame = d.round_trip(&[stats_req(3)])?;
    ensure_ok(&frame[0])?;
    d.shutdown_clean()
}

fn malformed_json(tag: &str, rng: &mut Rng) -> Result<(), String> {
    let d = Daemon::spawn(tag, &[], &[])?;
    let n = 1 + rng.below(3) as usize;
    let mut lines: Vec<String> = (0..n).map(|_| garbage(rng)).collect();
    lines.push(stats_req(7));
    let frame = d.round_trip(&lines)?;
    ensure(frame.len() == n + 1, || {
        format!("expected {} responses, got {}", n + 1, frame.len())
    })?;
    for resp in &frame[..n] {
        let kind = error_kind(resp)?;
        ensure(kind == "parse", || {
            format!("expected a parse error, got {kind}: {resp}")
        })?;
    }
    ensure_ok(&frame[n])?;
    d.shutdown_clean()
}

fn oversized_line(tag: &str, rng: &mut Rng) -> Result<(), String> {
    let d = Daemon::spawn(tag, &[("PHLOEMD_MAX_LINE_BYTES", "256")], &[])?;
    let pad = "x".repeat(300 + rng.below(4000) as usize);
    let lines = vec![
        stats_req(1),
        format!("{{\"id\":2,\"op\":\"stats\",\"pad\":\"{pad}\"}}"),
        stats_req(3),
    ];
    let frame = d.round_trip(&lines)?;
    ensure(frame.len() == 3, || {
        format!("expected 3 responses, got {}", frame.len())
    })?;
    ensure_ok(&frame[0])?;
    let kind = error_kind(&frame[1])?;
    ensure(kind == "request_too_large", || {
        format!("expected request_too_large, got {kind}")
    })?;
    ensure_ok(&frame[2])?;
    // The stream stayed framed: a follow-up frame still answers.
    let next = d.round_trip(&[stats_req(4)])?;
    ensure_ok(&next[0])?;
    d.shutdown_clean()
}

fn slow_partial_write(tag: &str, rng: &mut Rng) -> Result<(), String> {
    let d = Daemon::spawn(tag, &[], &[])?;
    let mut c = Conn::open(&d.socket)?;
    let payload = format!("{}\n\n", stats_req(5));
    let bytes = payload.as_bytes();
    let mut pos = 0;
    while pos < bytes.len() {
        let take = 1 + rng.below((bytes.len() - pos) as u64) as usize;
        c.w.write_all(&bytes[pos..pos + take])
            .map_err(|e| format!("send: {e}"))?;
        c.w.flush().map_err(|e| format!("flush: {e}"))?;
        pos += take;
        if pos < bytes.len() {
            std::thread::sleep(Duration::from_millis(1 + rng.below(20)));
        }
    }
    let frame = c.read_frame()?;
    ensure_ok(&frame[0])?;
    d.shutdown_clean()
}

fn shutdown_during_inflight(tag: &str, rng: &mut Rng) -> Result<(), String> {
    let d = Daemon::spawn(tag, &[], &[])?;
    let mut inflight = Conn::open(&d.socket)?;
    inflight.send(&[simulate_req(1)])?;
    std::thread::sleep(Duration::from_millis(rng.below(20)));
    let mut killer = Conn::open(&d.socket)?;
    let ack = killer.round_trip(&[shutdown_req(2)])?;
    ensure_ok(&ack[0])?;
    // The in-flight batch must be answered, not orphaned: either it won
    // the race (ok) or it drew a structured draining/cancelled error.
    let frame = inflight.read_frame()?;
    ensure(frame.len() == 1, || {
        format!("expected 1 in-flight response, got {}", frame.len())
    })?;
    if ensure_ok(&frame[0]).is_err() {
        let kind = error_kind(&frame[0])?;
        ensure(kind == "draining" || kind == "cancelled", || {
            format!("expected draining/cancelled, got {kind}: {}", frame[0])
        })?;
    }
    d.wait_exit()
}

fn sigkill_restart_warm(tag: &str, rng: &mut Rng) -> Result<(), String> {
    let cache = cache_file(tag);
    let _ = std::fs::remove_file(&cache);
    let cache_arg = cache.to_str().unwrap().to_string();
    let app = APPS[rng.below(APPS.len() as u64) as usize];

    let d = Daemon::spawn(tag, &[], &["--cache-path", &cache_arg])?;
    let mut c = Conn::open(&d.socket)?;
    let cold = c.round_trip(&[compile_req(1, app)])?;
    ensure_ok(&cold[0])?;
    ensure(cold[0].contains("\"cache\":\"miss\""), || {
        format!("cold compile should miss: {}", cold[0])
    })?;
    // Same connection: once this frame answers, the previous frame's
    // snapshot write has completed — SIGKILL cannot outrun it.
    let stats = c.round_trip(&[stats_req(2)])?;
    ensure(
        stats_u64(&stats[0], "persistence", "persisted")? >= 1,
        || format!("nothing persisted before the kill: {}", stats[0]),
    )?;
    d.sigkill();

    let d2 = Daemon::spawn(&format!("{tag}-b"), &[], &["--cache-path", &cache_arg])?;
    let warm = d2.round_trip(&[compile_req(1, app)])?;
    ensure(
        warm[0] == cold[0].replace("\"cache\":\"miss\"", "\"cache\":\"hit\""),
        || {
            format!(
                "restored hit not bit-identical:\n  cold: {}\n  warm: {}",
                cold[0], warm[0]
            )
        },
    )?;
    let stats = d2.round_trip(&[stats_req(3)])?;
    ensure(
        stats_u64(&stats[0], "persistence", "restored")? >= 1,
        || format!("restart restored nothing: {}", stats[0]),
    )?;
    let out = d2.shutdown_clean();
    let _ = std::fs::remove_file(&cache);
    out
}

fn snapshot_corruption(tag: &str, rng: &mut Rng) -> Result<(), String> {
    let cache = cache_file(tag);
    let _ = std::fs::remove_file(&cache);
    let cache_arg = cache.to_str().unwrap().to_string();

    let d = Daemon::spawn(tag, &[], &["--cache-path", &cache_arg])?;
    let frame = d.round_trip(&[compile_req(1, "bfs"), compile_req(2, "cc")])?;
    ensure_ok(&frame[0])?;
    ensure_ok(&frame[1])?;
    d.shutdown_clean()?; // drain persists the snapshot

    let mut bytes = std::fs::read(&cache).map_err(|e| format!("read snapshot: {e}"))?;
    ensure(!bytes.is_empty(), || "snapshot is empty".into())?;
    let off = rng.below(bytes.len() as u64) as usize;
    bytes[off] ^= (1 + rng.below(255)) as u8;
    std::fs::write(&cache, &bytes).map_err(|e| format!("corrupt snapshot: {e}"))?;

    let d2 = Daemon::spawn(&format!("{tag}-b"), &[], &["--cache-path", &cache_arg])?;
    let stats = d2.round_trip(&[stats_req(3)])?;
    ensure(
        stats_u64(&stats[0], "persistence", "corrupt_skipped")? >= 1,
        || format!("corruption not detected: {}", stats[0]),
    )?;
    // Still healthy: a fresh compile serves fine.
    let frame = d2.round_trip(&[compile_req(4, "prd")])?;
    ensure_ok(&frame[0])?;
    let out = d2.shutdown_clean();
    let _ = std::fs::remove_file(&cache);
    out
}

/// One connection's side of `interleaved_misses_sigkill`: one frame per
/// request until the daemon dies. Returns `(request, answer)` for every
/// frame whose successor was answered too — the daemon saves a frame's
/// inserts before it reads the next, so those rows were on disk
/// whatever the kill interrupted.
fn stream_misses(
    socket: &PathBuf,
    reqs: &[String],
    answered: &AtomicU64,
) -> Result<Vec<(String, String)>, String> {
    let mut c = Conn::open(socket)?;
    let mut got = Vec::new();
    for req in reqs {
        let Ok(frame) = c.round_trip(std::slice::from_ref(req)) else {
            break; // killed mid-frame
        };
        ensure_ok(&frame[0])?;
        got.push((req.clone(), frame[0].clone()));
        answered.fetch_add(1, Ordering::SeqCst);
    }
    got.pop();
    Ok(got)
}

fn interleaved_misses_sigkill(tag: &str, rng: &mut Rng) -> Result<(), String> {
    let cache = cache_file(tag);
    let tmp = cache.with_extension("cache.tmp");
    let _ = std::fs::remove_file(&cache);
    let cache_arg = cache.to_str().unwrap().to_string();

    // Distinct compiles, shuffled and dealt to two connections; each
    // ends on a stats frame so its last compile has a successor.
    let mut pool: Vec<String> = Vec::new();
    for app in APPS {
        for preset in ["all", "queues-only"] {
            for stages in 2..=4 {
                let id = pool.len();
                pool.push(format!(
                    "{{\"id\":{id},\"op\":\"compile\",\"app\":\"{app}\",\
                     \"passes\":\"{preset}\",\"stages\":{stages}}}"
                ));
            }
        }
    }
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let per_conn = 4 + rng.below(5) as usize;
    let scripts: Vec<Vec<String>> = pool
        .chunks(per_conn)
        .take(2)
        .map(|reqs| [reqs, &[stats_req(999)]].concat())
        .collect();
    let frames = 2 * (per_conn as u64 + 1);
    let kill_after = 4 + rng.below(frames - 3);

    let d = Daemon::spawn(tag, &[], &["--cache-path", &cache_arg])?;
    let socket = d.socket.clone();
    let answered = AtomicU64::new(0);
    let mut durable = std::thread::scope(|s| {
        let clients: Vec<_> = scripts
            .iter()
            .map(|reqs| s.spawn(|| stream_misses(&socket, reqs, &answered)))
            .collect();
        while answered.load(Ordering::SeqCst) < kill_after
            && !clients.iter().all(|c| c.is_finished())
        {
            std::thread::sleep(Duration::from_micros(100));
        }
        d.sigkill();
        let mut durable = Vec::new();
        for c in clients {
            durable.extend(c.join().map_err(|_| "client thread panicked")??);
        }
        Ok::<_, String>(durable)
    })?;
    durable.retain(|(req, _)| req.contains("\"compile\""));
    ensure(!durable.is_empty(), || {
        format!("no frame had an answered successor before the kill at {kill_after}")
    })?;

    let d2 = Daemon::spawn(&format!("{tag}-b"), &[], &["--cache-path", &cache_arg])?;
    let stats = d2.round_trip(&[stats_req(1)])?;
    ensure(
        stats_u64(&stats[0], "persistence", "corrupt_skipped")? == 0,
        || format!("two connections' saves tore the snapshot: {}", stats[0]),
    )?;
    let reqs: Vec<String> = durable.iter().map(|(req, _)| req.clone()).collect();
    let warm = d2.round_trip(&reqs)?;
    for ((req, cold), warm) in durable.iter().zip(&warm) {
        ensure(cold.contains("\"cache\":\"miss\""), || {
            format!("{req} should have missed cold: {cold}")
        })?;
        ensure(
            *warm == cold.replace("\"cache\":\"miss\"", "\"cache\":\"hit\""),
            || format!("answered, then lost by the kill:\n  cold: {cold}\n  warm: {warm}"),
        )?;
    }
    let out = d2.shutdown_clean();
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(&tmp);
    out
}

// ------------------------------------------------------------------ main

type Shape = fn(&str, &mut Rng) -> Result<(), String>;

const SHAPES: [(&str, Shape); 8] = [
    ("conn_killed_mid_request", conn_killed_mid_request),
    ("malformed_json", malformed_json),
    ("oversized_line", oversized_line),
    ("slow_partial_write", slow_partial_write),
    ("shutdown_during_inflight", shutdown_during_inflight),
    ("sigkill_restart_warm", sigkill_restart_warm),
    ("snapshot_corruption", snapshot_corruption),
    ("interleaved_misses_sigkill", interleaved_misses_sigkill),
];

fn main() {
    let mut seeds: u64 = 20;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                smoke = true;
                seeds = 3;
            }
            "--seeds" => {
                seeds = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("chaos: --seeds expects an integer");
                        std::process::exit(2);
                    })
                    .max(1)
            }
            other => {
                eprintln!("usage: chaos [--smoke] [--seeds N]   (got {other:?})");
                std::process::exit(2);
            }
        }
    }

    header("Chaos: deterministic fault injection against phloemd");
    let exe = phloemd_exe();
    assert!(
        exe.exists(),
        "phloemd binary not found at {exe:?}; build the workspace first \
         (cargo build brings the sibling binary along)"
    );
    println!(
        "  {} shapes x {seeds} seeds, scale tiny, {} host core(s)",
        SHAPES.len(),
        host_cores()
    );

    let t0 = Instant::now();
    let mut failures: Vec<String> = Vec::new();
    let mut passed_by_shape = Vec::new();
    for (idx, (name, shape)) in SHAPES.iter().enumerate() {
        let mut passed = 0u64;
        for seed in 0..seeds {
            let tag = format!("{name}-{seed}");
            let mut rng = Rng::new(seed * SHAPES.len() as u64 + idx as u64);
            match shape(&tag, &mut rng) {
                Ok(()) => passed += 1,
                Err(e) => failures.push(format!("{name} seed {seed}: {e}")),
            }
        }
        println!("  {name}: {passed}/{seeds} seeds");
        passed_by_shape.push((*name, passed));
    }
    let wall = t0.elapsed().as_secs_f64();

    for f in &failures {
        eprintln!("  FAIL {f}");
    }
    if !smoke {
        let mut rows: Vec<Json> = passed_by_shape
            .iter()
            .map(|(name, passed)| {
                Json::obj([("name", Json::str(*name)), ("passed", Json::u64(*passed))])
            })
            .collect();
        rows.push(Json::obj([
            ("name", Json::str("all_shapes")),
            ("wall_s", num(wall, 3)),
        ]));
        let passed: u64 = passed_by_shape.iter().map(|(_, passed)| passed).sum();
        let all = (SHAPES.len() as u64 * seeds) as f64;
        let gates = [Gate::at_least("seeds_passed", passed as f64, all, true)];
        record::write(
            "chaos",
            phloem_workloads::Scale::Tiny,
            seeds as usize,
            &rows,
            &gates,
        );
    }
    assert!(
        failures.is_empty(),
        "{} chaos seed(s) failed (see above)",
        failures.len()
    );
    println!(
        "  all {} shapes held across {seeds} seeds in {wall:.1}s",
        SHAPES.len()
    );
}
