//! `serve_cold` and `serve_warm`: closed-loop clients against a spawned
//! `phloemd` on a Unix socket.
//!
//! Cold is a user's first sweep: a fresh daemon with crash-safe
//! persistence on, every cacheable probe misses, inserts and persists,
//! and the simulations dominate. Warm is the read side of the same
//! layer: parse, key digest, probe, render and the socket, with
//! compiler, simulator and disk idle.
//!
//! The daemon resolves inputs by catalog name, so `--seed` drives the
//! order of the requests, not the graphs themselves.

use crate::bench::{keep_latency, Ctx, Outcome, Reps, Workload, OUT_DIR};
use crate::sizes;
use crate::trace::{self, Span};
use crate::util::{self, sub_seed, Fnv, Rng};
use phloem_benchsuite::{gmean, Variant};
use phloem_pool::Pool;
use phloem_service::proto::{parse, parse_request, Json};
use phloem_service::{
    key, persist, Batch, Lru, PreparedInputs, Service, ServiceConfig, SimRequest,
};
use pipette_sim::MachineConfig;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const APPS: [&str; 5] = ["bfs", "cc", "prd", "radii", "spmm"];
const PRESETS: [&str; 7] = [
    "all",
    "queues-only",
    "with-recompute",
    "with-cv",
    "with-dce",
    "with-handlers",
    "all-streaming",
];
const VARIANTS: [&str; 2] = ["serial", "phloem"];

fn training_inputs(app: &str) -> [&'static str; 2] {
    if app == "spmm" {
        ["enron-s", "wiki-s"]
    } else {
        ["internet-s", "road-ny-s"]
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Compile,
    Trace,
    Search,
    Simulate,
}

struct Req {
    kind: Kind,
    line: String,
    /// `(app, input, variant)` of a trace or simulate request.
    sim: Option<(&'static str, &'static str, &'static str)>,
}

/// The full request set in canonical order; `id` is the index.
fn requests() -> Vec<Req> {
    let mut out: Vec<Req> = Vec::new();
    let mut push = |kind, body: String, sim| {
        let id = out.len();
        out.push(Req {
            kind,
            line: format!("{{\"id\":{id},{body}}}"),
            sim,
        });
    };
    for app in APPS {
        for passes in PRESETS {
            for stages in 2..=4 {
                push(
                    Kind::Compile,
                    format!("\"op\":\"compile\",\"app\":\"{app}\",\"passes\":\"{passes}\",\"stages\":{stages}"),
                    None,
                );
            }
        }
    }
    // A trace costs about five times its simulation (one on `road-ny-s`
    // alone is a quarter of a pass), so traces take each app's first
    // training input only and a pass stays short enough to repeat.
    for (kind, op, inputs) in [(Kind::Trace, "trace", 1), (Kind::Simulate, "simulate", 2)] {
        for app in APPS {
            for &input in &training_inputs(app)[..inputs] {
                for variant in VARIANTS {
                    push(
                        kind,
                        format!("\"op\":\"{op}\",\"app\":\"{app}\",\"input\":\"{input}\",\"variant\":\"{variant}\""),
                        Some((app, input, variant)),
                    );
                }
            }
        }
    }
    for app in ["bfs", "cc"] {
        push(
            Kind::Search,
            format!("\"op\":\"search\",\"app\":\"{app}\",\"input\":\"internet-s\",\"max_stages\":2,\"top_k\":2"),
            None,
        );
    }
    out
}

// ---------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------

static NEXT_DAEMON: AtomicU64 = AtomicU64::new(0);

pub struct Daemon {
    child: Child,
    sock: PathBuf,
    cache: PathBuf,
}

impl Daemon {
    /// Spawns `phloemd` (built next to this binary) on a fresh socket and
    /// a fresh snapshot file, and returns once it accepts connections.
    fn spawn(ctx: &Ctx, persist: bool) -> Daemon {
        let dir = Path::new(OUT_DIR);
        std::fs::create_dir_all(dir).expect("create benchmark/out");
        let tag = format!(
            "d{}-{}",
            std::process::id(),
            NEXT_DAEMON.fetch_add(1, Ordering::Relaxed)
        );
        let sock = dir.join(format!("{tag}.sock"));
        let cache = dir.join(format!("{tag}.cache"));
        let _ = std::fs::remove_file(&cache);
        let exe = std::env::current_exe()
            .expect("own path")
            .with_file_name("phloemd");
        let mut command = Command::new(&exe);
        command
            .arg("--socket")
            .arg(&sock)
            .args(["--scale", sizes::SERVE_SCALE_NAME])
            .args(["--workers", &ctx.nproc.to_string()]);
        if persist {
            command.arg("--cache-path").arg(&cache);
        }
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", exe.display()));
        let d = Daemon { child, sock, cache };
        let t0 = Instant::now();
        while UnixStream::connect(&d.sock).is_err() {
            assert!(
                t0.elapsed() < Duration::from_secs(20),
                "phloemd did not start listening within 20 s"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        d
    }

    fn connect(&self) -> Client {
        let stream = UnixStream::connect(&self.sock).expect("connect to phloemd");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone socket")),
            writer: stream,
        }
    }

    fn rss_mb(&self) -> f64 {
        util::peak_rss_mb(self.child.id())
    }

    fn stats(&self) -> Json {
        let resp = self.connect().round_trip(r#"{"id":0,"op":"stats"}"#);
        parse(&resp).expect("stats response parses")
    }

    /// Asks the daemon to drain and exit, and waits for it.
    fn shutdown(mut self) {
        let mut c = self.connect();
        let _ = c.round_trip(r#"{"id":0,"op":"shutdown"}"#);
        drop(c);
        let t0 = Instant::now();
        while matches!(self.child.try_wait(), Ok(None)) && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop reaps (and kills a daemon that did not leave by itself).
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
        let _ = std::fs::remove_file(&self.cache);
    }
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// One request per batch: the line, a blank line, then the answer
    /// frame up to its blank line.
    fn round_trip(&mut self, line: &str) -> String {
        {
            let _s = trace::span("client.send");
            self.writer
                .write_all(format!("{line}\n\n").as_bytes())
                .expect("write to phloemd");
        }
        let _s = trace::span("client.wait");
        let mut first = String::new();
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = self.reader.read_line(&mut buf).expect("read from phloemd");
            assert!(n > 0, "phloemd closed the connection mid-frame");
            let l = buf.trim_end_matches(['\n', '\r']);
            if l.is_empty() {
                return first;
            }
            if first.is_empty() {
                first.push_str(l);
            }
        }
    }
}

/// `nclients` closed-loop connections work through `order`; returns
/// `(request index, response, latency ms)` per op, and the wall time.
/// A response `keep` declines is returned as an empty string, so that a
/// long warm replay does not hold every answer it has already checked.
fn replay(
    daemon: &Daemon,
    nclients: usize,
    reqs: &[Req],
    order: &[usize],
    keep: &(dyn Fn(usize, &str) -> bool + Sync),
) -> (Vec<(usize, String, f64)>, f64) {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, String, f64)>> = Mutex::new(Vec::with_capacity(order.len()));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..nclients {
            s.spawn(|| {
                let mut c = daemon.connect();
                let mut mine = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = order.get(k) else { break };
                    let _s = trace::span("serve.op");
                    let t = Instant::now();
                    let resp = c.round_trip(&reqs[i].line);
                    let ms = util::ms(t.elapsed());
                    mine.push((i, if keep(i, &resp) { resp } else { String::new() }, ms));
                }
                done.lock().unwrap().append(&mut mine);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    (done.into_inner().unwrap(), wall)
}

/// `Some(kind)` when the response is not `ok:true`.
fn failure_kind(resp: &Json) -> Option<String> {
    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
        return None;
    }
    Some(
        resp.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("malformed_response")
            .to_string(),
    )
}

/// Gmean over (app, input) of serial cycles / phloem cycles as the
/// daemon reported them for requests of `kind`: simulated time.
fn served_speedup(reqs: &[Req], responses: &[Option<Json>], kind: Kind) -> (f64, usize) {
    let cycles = |app: &str, input: &str, variant: &str| {
        reqs.iter().zip(responses).find_map(|(r, resp)| {
            (r.kind == kind && r.sim == Some((app, input, variant)))
                .then(|| resp.as_ref()?.get("cycles")?.as_u64())
                .flatten()
        })
    };
    let mut ratios = Vec::new();
    for app in APPS {
        for input in training_inputs(app) {
            if let (Some(s), Some(p)) = (cycles(app, input, "serial"), cycles(app, input, "phloem"))
            {
                ratios.push(s as f64 / p.max(1) as f64);
            }
        }
    }
    (gmean(ratios.iter().copied()), ratios.len())
}

fn sim_request(app: &str, input: &str, variant: &str) -> SimRequest {
    SimRequest {
        app: app.to_string(),
        variant: if variant == "serial" {
            Variant::Serial
        } else {
            Variant::phloem()
        },
        input: input.to_string(),
        cycle_cap: Some(ServiceConfig::default().default_cycle_cap),
    }
}

fn by_index(n: usize, done: Vec<(usize, String, f64)>) -> (Vec<Option<String>>, Vec<f64>) {
    let mut resp: Vec<Option<String>> = (0..n).map(|_| None).collect();
    let mut lat = Vec::with_capacity(done.len());
    for (i, r, ms) in done {
        resp[i] = Some(r);
        lat.push(ms);
    }
    (resp, lat)
}

// ---------------------------------------------------------------------
// serve_cold
// ---------------------------------------------------------------------

pub struct ColdState {
    reqs: Vec<Req>,
    /// Request index and direct-API cycles of every simulation.
    reference: Vec<(usize, u64)>,
    daemon: Option<Daemon>,
}

pub struct ServeCold;

impl Workload for ServeCold {
    type State = ColdState;
    const SETUPS: usize = 4;

    fn setup(ctx: &Ctx) -> ColdState {
        let reqs = requests();
        // Reference results: every simulate request through the direct
        // `Batch` API, not through the service. All twenty rather than a
        // seeded sample of ten, so that set-up costs the same under
        // every seed (one simulation is 70 times another).
        let sims: Vec<usize> = (0..reqs.len())
            .filter(|&i| reqs[i].kind == Kind::Simulate)
            .collect();
        let direct: Vec<SimRequest> = sims
            .iter()
            .map(|&i| {
                let (app, input, variant) = reqs[i].sim.expect("simulate requests name a run");
                sim_request(app, input, variant)
            })
            .collect();
        let pool = Pool::new(ctx.nproc);
        let inputs = PreparedInputs::new(sizes::SERVE_SCALE);
        let machine = MachineConfig::paper_1core();
        let reference = Batch::new(&pool, &inputs, &machine)
            .run(&direct)
            .into_iter()
            .zip(&sims)
            .map(|(m, &i)| (i, m.expect("reference simulation runs").cycles))
            .collect();
        ColdState {
            reqs,
            reference,
            daemon: Some(Daemon::spawn(ctx, true)),
        }
    }

    fn teardown(mut st: ColdState) {
        if let Some(d) = st.daemon.take() {
            d.shutdown();
        }
    }

    fn measure(ctx: &Ctx, st: &mut ColdState, out: &mut Outcome) {
        let n = st.reqs.len();
        out.counts.insert("ops_per_rep", n as u64);
        out.counts.insert("clients", ctx.nproc as u64);
        let (mut ops_per_s, mut mcycles_per_s, mut op_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut reps = Reps::new(ctx, 3);
        while reps.more() {
            // A fresh daemon and a fresh snapshot per repetition; the
            // first repetition uses the one set-up spawned.
            let daemon = st.daemon.take().unwrap_or_else(|| Daemon::spawn(ctx, true));
            // Each repetition draws its own order from the seed: how the
            // few long simulations pack onto the workers depends on it,
            // and the fastest repetition should not hang on one draw.
            let mut order: Vec<usize> = (0..n).collect();
            Rng::new(sub_seed(ctx.seed, &format!("order{}", reps.done))).shuffle(&mut order);
            let (done, wall) = replay(&daemon, ctx.nproc, &st.reqs, &order, &|_, _| true);
            out.attempted += done.len() as u64;
            let (texts, lat) = by_index(n, done);
            let parsed: Vec<Option<Json>> = texts
                .iter()
                .map(|t| t.as_ref().and_then(|t| parse(t).ok()))
                .collect();
            let (mut ok, mut cycles) = (0usize, 0u64);
            let mut digest = Fnv::new();
            for (i, p) in parsed.iter().enumerate() {
                let Some(p) = p else {
                    out.fail("malformed_response");
                    continue;
                };
                if let Some(kind) = failure_kind(p) {
                    eprintln!("serve_cold: request {i} answered {kind}");
                    out.fail(&kind);
                    continue;
                }
                ok += 1;
                let want = if st.reqs[i].kind == Kind::Simulate {
                    "bypass"
                } else {
                    "miss"
                };
                if p.get("cache").and_then(Json::as_str) != Some(want) {
                    out.error(format!(
                        "request {i}: expected cache {want:?}: {:?}",
                        texts[i]
                    ));
                }
                let c = p.get("cycles").and_then(Json::as_u64).unwrap_or(0);
                cycles += c;
                digest.u64(c);
            }
            for &(i, want) in &st.reference {
                let got = parsed[i]
                    .as_ref()
                    .and_then(|p| p.get("cycles"))
                    .and_then(Json::as_u64);
                if got != Some(want) {
                    out.error(format!(
                        "simulate {:?}: service says {got:?} cycles, direct Batch::run {want}",
                        st.reqs[i].sim
                    ));
                }
            }
            out.digest("sim_cycles_digest", util::hex(&digest));
            ops_per_s.push(ok as f64 / wall);
            mcycles_per_s.push(cycles as f64 / 1e6 / wall);
            op_ms.extend(lat);
            let (speedup, pairs) = served_speedup(&st.reqs, &parsed, Kind::Simulate);
            out.e2e("sim_speedup_gmean", speedup, "x", pairs);
            out.child_rss_mb = out.child_rss_mb.max(daemon.rss_mb());
            if ctx.trace && reps.done == 1 {
                cold_daemon_layers(&daemon, out);
            }
            daemon.shutdown();
        }
        out.counts.insert("reps", reps.done as u64);
        out.throughput(&ops_per_s, &op_ms);
        out.e2e(
            "sim_mcycles_per_s",
            crate::bench::best_of(&mcycles_per_s),
            "Mcycles/s",
            mcycles_per_s.len(),
        );
    }

    fn layers(ctx: &Ctx, st: &mut ColdState, _spans: &[Span], out: &mut Outcome) {
        // The service over the work it schedules: one simulate through
        // `handle_batch` against the same request through `Batch::run`.
        let (i, _) = st.reference[0];
        let (app, input, variant) = st.reqs[i].sim.expect("sampled requests are simulations");
        let svc = Service::new(ServiceConfig {
            scale: sizes::SERVE_SCALE,
            workers: ctx.nproc,
            ..ServiceConfig::default()
        });
        let line = vec![st.reqs[i].line.clone()];
        let pool = Pool::new(ctx.nproc);
        let inputs = PreparedInputs::new(sizes::SERVE_SCALE);
        let machine = MachineConfig::paper_1core();
        let direct = [sim_request(app, input, variant)];
        // Once each untimed, so both sides have their inputs built.
        svc.handle_batch(&line);
        Batch::new(&pool, &inputs, &machine).run(&direct);
        // The simulation is about a millisecond and the difference tens
        // of microseconds: alternate the two sides, keep the best of each.
        const N: u64 = 100;
        let (mut via_service, mut via_batch) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..N {
            let (_, d) = util::timed(|| std::hint::black_box(svc.handle_batch(&line)));
            via_service = via_service.min(util::ms(d));
            let (_, d) = util::timed(|| {
                std::hint::black_box(Batch::new(&pool, &inputs, &machine).run(&direct))
            });
            via_batch = via_batch.min(util::ms(d));
        }
        out.layer(
            "service.overhead_over_batch_ms",
            via_service - via_batch,
            "ms",
            N,
        );
        service_micro_layers(out);
    }
}

/// What the daemon itself reports after a cold pass, and its snapshot.
fn cold_daemon_layers(daemon: &Daemon, out: &mut Outcome) {
    let stats = daemon.stats();
    let fleet = |k: &str| {
        stats
            .get("fleet")
            .and_then(|f| f.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    let batches = fleet("batches") as u64;
    out.layer("pool.steals", fleet("steals"), "count", batches);
    out.layer("pool.parks", fleet("parks"), "count", batches);
    out.layer(
        "pool.timeout_wakeups",
        fleet("timeout_wakeups"),
        "count",
        batches,
    );
    snapshot_layers(&daemon.cache, out);
}

/// Save and load time and size of a snapshot a service wrote.
fn snapshot_layers(snapshot: &Path, out: &mut Outcome) {
    let bytes = std::fs::metadata(snapshot).map_or(0, |m| m.len());
    out.layer("service.persist_bytes", bytes as f64, "bytes", 1);
    const N: u64 = 20;
    let mut loaded = persist::Loaded::default();
    let load_ns = util::ns_per_iter(N, || {
        loaded = persist::load(snapshot).expect("snapshot loads");
    });
    out.layer("service.persist_load_ms", load_ns / 1e6, "ms", N);
    let copy = snapshot.with_extension("probe");
    let save_ns = util::ns_per_iter(N, || {
        persist::save(&copy, &loaded.snapshot).expect("snapshot saves");
    });
    let _ = std::fs::remove_file(&copy);
    out.layer("service.persist_save_ms", save_ns / 1e6, "ms", N);
}

/// The cache and key primitives on their own.
fn service_micro_layers(out: &mut Outcome) {
    const N: u64 = 200_000;
    let mut lru: Lru<u64, Arc<String>> = Lru::new(256);
    let value = Arc::new("x".repeat(160));
    let mut k = 0u64;
    let insert_ns = util::ns_per_iter(N, || {
        k = k.wrapping_add(0x9E37_79B9_7F4A_7C15);
        lru.insert(k % 256, Arc::clone(&value));
    });
    let probe_ns = util::ns_per_iter(N, || {
        k = k.wrapping_add(0x9E37_79B9_7F4A_7C15);
        std::hint::black_box(lru.get(&(k % 256)));
    });
    out.layer("service.cache_insert_ns", insert_ns, "ns", N);
    out.layer("service.cache_probe_ns", probe_ns, "ns", N);

    // A compile key: program, options and machine digests.
    let machine = MachineConfig::paper_1core();
    let opts = crate::compile_grid::options(&machine, phloem_compiler::PassConfig::all());
    let kernels: Vec<_> = APPS
        .iter()
        .map(|a| phloem_service::service::app_kernel(a).expect("known app"))
        .collect();
    const KEYS: u64 = 2_000;
    let mut i = 0usize;
    let key_ns = util::ns_per_iter(KEYS, || {
        i += 1;
        std::hint::black_box((
            key::program_digest(&kernels[i % kernels.len()]),
            key::compile_options_digest(&opts),
            key::machine_config_digest(&machine),
        ));
    });
    out.layer("service.key_us", key_ns / 1e3, "us", KEYS);
}

// ---------------------------------------------------------------------
// serve_warm
// ---------------------------------------------------------------------

pub struct WarmState {
    reqs: Vec<Req>,
    /// The cacheable requests, in the seeded replay order.
    order: Vec<usize>,
    /// What a warm response must equal byte for byte.
    expected: Vec<Option<String>>,
    primed_speedup: (f64, usize),
    daemon: Option<Daemon>,
}

pub struct ServeWarm;

impl Workload for ServeWarm {
    type State = WarmState;
    const SETUPS: usize = 4;

    fn setup(ctx: &Ctx) -> WarmState {
        let reqs = requests();
        let mut order: Vec<usize> = (0..reqs.len())
            .filter(|&i| reqs[i].kind != Kind::Simulate)
            .collect();
        Rng::new(ctx.seed).shuffle(&mut order);
        // No `--cache-path` here. With it the daemon rewrites and syncs
        // its snapshot after every batch and a warm op is 95 % fsync,
        // whose latency on the sizing host drifted by 30 % within minutes
        // (`README.md`, "Steadiness"): it drowned the layers this workload
        // watches. `serve_cold` keeps persistence on.
        let daemon = Daemon::spawn(ctx, false);
        // Priming pass, untimed: every cacheable request once.
        let (done, _) = replay(&daemon, ctx.nproc, &reqs, &order, &|_, _| true);
        let (primed, _) = by_index(reqs.len(), done);
        let parsed: Vec<Option<Json>> = primed
            .iter()
            .map(|t| t.as_ref().and_then(|t| parse(t).ok()))
            .collect();
        for &i in &order {
            let p = parsed[i].as_ref().expect("priming response parses");
            assert!(
                failure_kind(p).is_none(),
                "priming request {i} failed: {:?}",
                primed[i]
            );
        }
        let expected = primed
            .into_iter()
            .map(|t| t.map(|t| t.replacen("\"cache\":\"miss\"", "\"cache\":\"hit\"", 1)))
            .collect();
        WarmState {
            primed_speedup: served_speedup(&reqs, &parsed, Kind::Trace),
            reqs,
            order,
            expected,
            daemon: Some(daemon),
        }
    }

    fn teardown(mut st: WarmState) {
        if let Some(d) = st.daemon.take() {
            d.shutdown();
        }
    }

    fn measure(ctx: &Ctx, st: &mut WarmState, out: &mut Outcome) {
        let daemon = st.daemon.as_ref().expect("set-up spawned the daemon");
        let passes = sizes::SERVE_WARM_PASSES_PER_REP;
        let order: Vec<usize> = st
            .order
            .iter()
            .copied()
            .cycle()
            .take(st.order.len() * passes)
            .collect();
        out.counts.insert("ops_per_pass", st.order.len() as u64);
        out.counts.insert("ops_per_rep", order.len() as u64);
        out.counts.insert("clients", ctx.nproc as u64);
        let (mut ops_per_s, mut op_ms) = (Vec::new(), Vec::new());
        let mut reps = Reps::new(ctx, 3);
        while reps.more() {
            let differs = |i: usize, resp: &str| Some(resp) != st.expected[i].as_deref();
            let (done, wall) = replay(daemon, ctx.nproc, &st.reqs, &order, &differs);
            out.attempted += done.len() as u64;
            let mut ok = 0usize;
            for (i, resp, ms) in done {
                if resp.is_empty() {
                    ok += 1;
                    keep_latency(&mut op_ms, ms);
                    continue;
                }
                match parse(&resp).ok().as_ref().and_then(failure_kind) {
                    Some(kind) => out.fail(&kind),
                    None => {
                        out.fail("not_byte_identical");
                        out.error(format!(
                            "warm response differs from its priming response: {resp} vs {:?}",
                            st.expected[i]
                        ));
                    }
                }
            }
            ops_per_s.push(ok as f64 / wall);
        }
        out.counts.insert("reps", reps.done as u64);
        out.throughput(&ops_per_s, &op_ms);
        out.e2e(
            "sim_speedup_gmean",
            st.primed_speedup.0,
            "x",
            st.primed_speedup.1,
        );
        out.child_rss_mb = daemon.rss_mb();
    }

    fn layers(ctx: &Ctx, st: &mut WarmState, spans: &[Span], out: &mut Outcome) {
        let daemon = st.daemon.as_ref().expect("set-up spawned the daemon");
        let aggs = trace::summarize(spans);
        out.layer(
            "bench.op_child_coverage",
            trace::child_coverage(spans, "serve.op"),
            "ratio",
            aggs.get("serve.op").map_or(0, |a| a.count),
        );

        // The daemon's own counters: hits over probes since priming
        // began, and how many requests admission shed.
        let stats = daemon.stats();
        let counter = |cache: &str, k: &str| {
            stats
                .get(cache)
                .and_then(|c| c.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
        };
        let hits = counter("compile", "hits") + counter("search", "hits");
        let misses = counter("compile", "misses") + counter("search", "misses");
        out.layer(
            "service.hit_rate",
            hits / (hits + misses).max(1.0),
            "ratio",
            (hits + misses) as u64,
        );
        out.layer(
            "service.shed",
            out.fail_kinds.get("overloaded").copied().unwrap_or(0) as f64,
            "count",
            out.attempted,
        );
        // The same requests in-process: primed once, then warm. What a
        // request costs before the socket, and what a snapshot of these
        // caches costs to save and load.
        let snapshot = Path::new(OUT_DIR).join(format!("p{}.cache", std::process::id()));
        let _ = std::fs::remove_file(&snapshot);
        let svc = Service::new(ServiceConfig {
            scale: sizes::SERVE_SCALE,
            workers: ctx.nproc,
            cache_path: Some(snapshot.clone()),
            ..ServiceConfig::default()
        });
        let lines: Vec<Vec<String>> = st
            .order
            .iter()
            .map(|&i| vec![st.reqs[i].line.clone()])
            .collect();
        for line in &lines {
            svc.handle_batch(line);
        }
        svc.persist_now().expect("snapshot saves");
        snapshot_layers(&snapshot, out);
        let _ = std::fs::remove_file(&snapshot);
        let mut responses = Vec::new();
        for line in &lines {
            trace::in_span("service.parse", || parse_request(&line[0]))
                .expect("own requests parse");
            let r = trace::in_span("service.handle_batch", || svc.handle_batch(line));
            responses.push(r.responses[0].clone());
        }
        for (r, &i) in responses.iter().zip(&st.order) {
            if Some(r) != st.expected[i].as_ref() {
                out.error(format!(
                    "in-process service answers {r}, daemon answered {:?}",
                    st.expected[i]
                ));
            }
            let tree = parse(r).expect("responses parse");
            std::hint::black_box(trace::in_span("service.render", || tree.render()));
        }
        let stats_line = vec![r#"{"id":0,"op":"stats"}"#.to_string()];
        const RTTS: u64 = 200;
        let in_proc_ns = util::ns_per_iter(RTTS, || {
            std::hint::black_box(svc.handle_batch(&stats_line));
        });
        let mut c = daemon.connect();
        let socket_ns = util::ns_per_iter(RTTS, || {
            std::hint::black_box(c.round_trip(&stats_line[0]));
        });
        out.layer(
            "service.transport_us",
            (socket_ns - in_proc_ns) / 1e3,
            "us",
            RTTS,
        );
        let probes = trace::summarize(&trace::take());
        out.layer_mean_us("service.parse_us", &probes, "service.parse");
        out.layer_mean_us(
            "service.handle_batch_warm_us",
            &probes,
            "service.handle_batch",
        );
        out.layer_mean_us("service.render_us", &probes, "service.render");
        service_micro_layers(out);
    }
}
