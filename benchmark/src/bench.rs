//! What every workload shares: the run context, the result of a run,
//! the set-up / measure / attribute cycle, and failure accounting.

use crate::trace::{self, Span};
use crate::util;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Default seed, recorded in every output.
pub const DEFAULT_SEED: u64 = 0x5EED11;

/// Where the traced run, the daemon's socket and its snapshot go.
/// Relative, so a Unix socket path stays short wherever the checkout is.
pub const OUT_DIR: &str = "benchmark/out";

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Load threads, daemon workers and client connections: never more.
    pub nproc: usize,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value was taken over.
    pub samples: u64,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed ops by kind (`trap.Deadlock`, `panic`, `overloaded`, ...).
    pub fail_kinds: BTreeMap<String, u64>,
    /// Attempts that ended in a trap and were run again, by kind. The
    /// op they belong to fails only if its last attempt does.
    pub retried: BTreeMap<String, u64>,
    /// Correctness failures: any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub e2e: BTreeMap<&'static str, Metric>,
    pub layers: BTreeMap<String, Metric>,
    pub digests: BTreeMap<&'static str, String>,
    /// Pinned sizes: ops per repetition, repetitions, clients, ...
    pub counts: BTreeMap<&'static str, u64>,
    /// Peak resident set of child processes (the daemon), MB.
    pub child_rss_mb: f64,
    /// Throughput of each repetition, in the order they ran.
    pub rep_ops_per_s: Vec<f64>,
}

/// Op latencies a run keeps for its percentiles: the first this many.
/// Keeping every one would tie `peak_rss_mb` to how many ops the run got
/// through, so a faster program would read as a bigger one.
pub const LATENCY_SAMPLES: usize = 100_000;

pub fn keep_latency(op_ms: &mut Vec<f64>, ms: f64) {
    if op_ms.len() < LATENCY_SAMPLES {
        op_ms.push(ms);
    }
}

/// The highest of the per-repetition rates.
pub fn best_of(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(f64::NAN, f64::max)
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.e2e.insert(
            name,
            Metric {
                value,
                unit,
                samples: samples as u64,
            },
        );
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.layers.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Mean duration of the spans called `span`, as the layer metric
    /// `name` in microseconds.
    pub fn layer_mean_us(
        &mut self,
        name: &str,
        aggs: &BTreeMap<&'static str, trace::Agg>,
        span: &str,
    ) {
        let a = aggs.get(span).copied().unwrap_or_default();
        self.layer(name, a.mean_us(), "us", a.count);
    }

    pub fn fail(&mut self, kind: &str) {
        self.failed += 1;
        *self.fail_kinds.entry(kind.to_string()).or_default() += 1;
    }

    pub fn retry(&mut self, kind: &str) {
        *self.retried.entry(kind.to_string()).or_default() += 1;
    }

    pub fn error(&mut self, msg: String) {
        eprintln!("CORRECTNESS: {msg}");
        self.errors.push(msg);
    }

    /// Records a digest; repetitions within a run must agree exactly.
    pub fn digest(&mut self, name: &'static str, value: String) {
        if let Some(prev) = self.digests.get(name) {
            if *prev != value {
                self.error(format!(
                    "{name} differs between repetitions: {prev} then {value}"
                ));
            }
            return;
        }
        self.digests.insert(name, value);
    }

    /// The metrics every workload reports from its repetitions.
    ///
    /// `ops_per_s` is the fastest repetition, not the median: on the
    /// shared host the benchmark was sized on, interference only ever
    /// slows a repetition down, for seconds at a time, and run-to-run
    /// spread of the median was 6-9 % against 1-2 % for the fastest
    /// (`README.md`, "Steadiness"). The median is printed beside it.
    pub fn throughput(&mut self, ops_per_s: &[f64], op_ms: &[f64]) {
        self.rep_ops_per_s = ops_per_s.to_vec();
        self.e2e("ops_per_s", best_of(ops_per_s), "1/s", ops_per_s.len());
        // Latency percentiles over every op of the run; p95 is the
        // highest percentile with at least ten samples beyond it.
        let lat = util::sorted(op_ms);
        if lat.len() >= 200 {
            self.e2e("op_p50_ms", util::percentile(&lat, 50.0), "ms", lat.len());
            self.e2e("op_p95_ms", util::percentile(&lat, 95.0), "ms", lat.len());
        }
    }
}

/// A run shorter than this is a smoke run: one set-up, and no minimum
/// number of repetitions.
const SHORT_RUN_S: f64 = 1.0;

/// Repeats a fixed op list until `--seconds` have passed, and at least
/// `min` times, so that the fastest of several repetitions exists.
pub struct Reps {
    start: Instant,
    limit: Duration,
    min: usize,
    pub done: usize,
}

impl Reps {
    pub fn new(ctx: &Ctx, min: usize) -> Reps {
        Reps {
            start: Instant::now(),
            limit: Duration::from_secs_f64(ctx.seconds),
            min: if ctx.seconds < SHORT_RUN_S { 1 } else { min },
            done: 0,
        }
    }

    pub fn more(&mut self) -> bool {
        let go = self.done < self.min || self.start.elapsed() < self.limit;
        if go {
            self.done += 1;
        }
        go
    }
}

pub trait Workload {
    type State;
    /// How many times a run sets up; `setup_s` is the fastest.
    const SETUPS: usize;

    /// Everything before the first timed op: input generation, kernel
    /// construction, reference results, daemon spawn, priming.
    fn setup(ctx: &Ctx) -> Self::State;

    /// Releases what `setup` holds outside the process.
    fn teardown(_state: Self::State) {}

    /// The timed section.
    fn measure(ctx: &Ctx, state: &mut Self::State, out: &mut Outcome);

    /// Traced run only: per-layer metrics from the spans of `measure`
    /// plus direct probes of the layers this workload exercises.
    fn layers(ctx: &Ctx, state: &mut Self::State, spans: &[Span], out: &mut Outcome);
}

pub fn drive<W: Workload>(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut state = None;
    let setups = if ctx.seconds < SHORT_RUN_S {
        1
    } else {
        W::SETUPS
    };
    // Half of the set-ups before the timed section and half after it:
    // a slow stretch of the host lasts seconds and would take every one
    // of a run's set-ups if they ran back to back.
    let before = setups.div_ceil(2);
    for _ in 0..before {
        if let Some(prev) = state.take() {
            W::teardown(prev);
        }
        let (s, d) = util::timed(|| W::setup(ctx));
        setup_s.push(d.as_secs_f64());
        state = Some(s);
    }
    let mut state = state.expect("at least one set-up");
    // Set-up spans are not part of any op.
    let setup_spans = trace::take();

    W::measure(ctx, &mut state, &mut out);

    if ctx.trace {
        let spans = trace::take();
        let gen = trace::summarize(&setup_spans);
        let a = gen.get("workloads.gen").copied().unwrap_or_default();
        out.layer(
            "workloads.gen_s",
            a.total_ns as f64 / 1e9 / a.count.max(1) as f64,
            "s",
            a.count,
        );
        let traced_ops = out.e2e.get("ops_per_s").map_or(0.0, |m| m.value);
        out.layer("bench.traced_ops_per_s", traced_ops, "1/s", 1);
        W::layers(ctx, &mut state, &spans, &mut out);
        let path = Path::new(OUT_DIR).join("trace.json");
        if let Err(e) = trace::write_chrome(&path, &spans, 200_000) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    W::teardown(state);
    for _ in before..setups {
        let (s, d) = util::timed(|| W::setup(ctx));
        setup_s.push(d.as_secs_f64());
        W::teardown(s);
    }
    // The fastest, for the reason `ops_per_s` is the fastest repetition.
    let fastest = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    out.e2e("setup_s", fastest, "s", setup_s.len());
    let rss = util::peak_rss_mb(std::process::id()) + out.child_rss_mb;
    out.e2e("peak_rss_mb", rss, "MB", 1);
    out
}

/// How one guarded op ended.
pub enum OpEnd<T> {
    Ok(T),
    /// A structured trap or a panic: counted in `fail_share`.
    Failed {
        kind: String,
        detail: String,
    },
    /// The output disagrees with its reference: the run is incorrect.
    Mismatch(String),
}

fn trap_kind(t: &phloem_ir::Trap) -> &'static str {
    use phloem_ir::Trap::*;
    match t {
        CtrlAsData(_) => "trap.CtrlAsData",
        OutOfBounds(..) => "trap.OutOfBounds",
        DivByZero => "trap.DivByZero",
        BadId(_) => "trap.BadId",
        Deadlock(_) => "trap.Deadlock",
        OpBudgetExceeded(_) => "trap.OpBudgetExceeded",
        Malformed(_) => "trap.Malformed",
        Livelock { .. } => "trap.Livelock",
        CycleLimit { .. } => "trap.CycleLimit",
        ThreadKilled { .. } => "trap.ThreadKilled",
        Cancelled { .. } => "trap.Cancelled",
    }
}

/// Runs one op of the benchsuite. The apps check their own output
/// against a host oracle and panic on a mismatch (`... wrong for ...`,
/// `rank[i] = a vs b`); every other panic or trap is a failed op.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, phloem_ir::Trap>) -> OpEnd<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(v)) => OpEnd::Ok(v),
        Ok(Err(t)) => OpEnd::Failed {
            kind: trap_kind(&t).to_string(),
            detail: t.to_string(),
        },
        Err(p) => {
            let text = util::panic_text(p);
            if text.contains("wrong") || text.contains(" vs ") {
                OpEnd::Mismatch(text)
            } else {
                OpEnd::Failed {
                    kind: "panic".to_string(),
                    detail: text,
                }
            }
        }
    }
}
