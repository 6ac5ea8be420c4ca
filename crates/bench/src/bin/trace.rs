//! Perfetto trace + profile report for any benchsuite workload.
//!
//! Runs one benchmark variant with the tracing layer on — a
//! [`PerfettoSink`] (Chrome `trace.json`, loadable in Perfetto/
//! `chrome://tracing`) teed with a [`MetricsSink`] (per-stage
//! utilization, queue occupancy, critical-stage attribution) — and
//! writes the trace next to a human-readable profile on stdout.
//!
//! ```text
//! trace [app] [input] [--variant phloem|serial|manual|dp]
//!       [--out trace.json] [--no-ra] [--smoke]
//! ```
//!
//! * `app`: bfs | cc | prd | radii | spmm | taco-spmv | taco-sddmm |
//!   taco-residual | taco-mtmul (default: bfs)
//! * `input`: substring of a catalog input name (default: the first
//!   test input of the app's catalog)
//! * `--variant`: which implementation to trace (default: phloem)
//! * `--out FILE`: where to write the Chrome trace (default
//!   `trace.json`)
//! * `--no-ra`: drop RA FSM transition instants (they dominate event
//!   counts on RA-heavy pipelines)
//! * `--smoke`: CI mode — run bfs on the smallest test graph, validate
//!   the emitted JSON against the Chrome trace schema in-process, write
//!   nothing unless `--out` was given explicitly.
//!
//! `SCALE=tiny|small|full` selects the input catalog as usual.
//! The run also cross-checks the trace against the run's own
//! [`pipette_sim::RunStats`]-derived measurement: enabling tracing must
//! not change a single simulated cycle, so the measured cycles are
//! asserted equal to an untraced run of the same configuration.

use phloem_bench::{header, machine, scale};
use phloem_benchsuite::apps::app_by_id;
use phloem_benchsuite::taco::{self, TacoApp};
use phloem_benchsuite::{Measurement, Variant};
use phloem_ir::Trap;
use phloem_service::proto::{parse, Json};
use phloem_workloads::taco_test_matrices;
use pipette_sim::{MetricsSink, PerfettoSink, TeeSink, TraceSink};

struct Args {
    app: String,
    input: Option<String>,
    variant: Variant,
    out: String,
    out_explicit: bool,
    with_ra: bool,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        app: "bfs".into(),
        input: None,
        variant: Variant::phloem(),
        out: "trace.json".into(),
        out_explicit: false,
        with_ra: true,
        smoke: false,
    };
    let mut positional = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                args.out = it.next().expect("--out needs a file name");
                args.out_explicit = true;
            }
            "--variant" => {
                let v = it.next().expect("--variant needs a name");
                args.variant = match v.as_str() {
                    "phloem" => Variant::phloem(),
                    "serial" => Variant::Serial,
                    "manual" => Variant::Manual,
                    "dp" => Variant::DataParallel(machine().smt_threads),
                    other => panic!("unknown variant {other} (phloem|serial|manual|dp)"),
                };
            }
            "--no-ra" => args.with_ra = false,
            "--smoke" => args.smoke = true,
            other if other.starts_with("--") => panic!("unknown flag {other}"),
            other => positional.push(other.to_string()),
        }
    }
    if let Some(app) = positional.first() {
        args.app = app.clone();
    }
    args.input = positional.get(1).cloned();
    args
}

/// Picks the catalog input whose name contains `want` (first input when
/// `want` is `None`).
fn pick<T>(inputs: Vec<T>, name: impl Fn(&T) -> &str, want: &Option<String>) -> T {
    let names: Vec<String> = inputs.iter().map(|i| name(i).to_string()).collect();
    match want {
        None => inputs.into_iter().next().expect("non-empty catalog"),
        Some(w) => inputs
            .into_iter()
            .find(|i| name(i).contains(w.as_str()))
            .unwrap_or_else(|| panic!("no input matching `{w}` in {names:?}")),
    }
}

/// Runs the selected workload twice — once traced, once not — and
/// returns `(input name, untraced, traced, sink)`.
#[allow(clippy::type_complexity)]
fn run(
    args: &Args,
    sink: Box<dyn TraceSink>,
) -> (
    String,
    Result<Measurement, Trap>,
    Result<Measurement, Trap>,
    Box<dyn TraceSink>,
) {
    let cfg = machine();
    let v = &args.variant;
    if let Some(app) = app_by_id(&args.app) {
        let i = pick(app.test_inputs(scale()), |i| i.name(), &args.input);
        let plain = app.run(v, i.input(), &cfg, i.name(), None).0;
        let (traced, sink) = app.run(v, i.input(), &cfg, i.name(), Some(sink));
        let sink = sink.expect("the sink is handed back");
        return (i.name().to_string(), plain, traced, sink);
    }
    let app = TacoApp::all()
        .into_iter()
        .find(|t| format!("taco-{}", t.name().to_lowercase()) == args.app)
        .unwrap_or_else(|| panic!("unknown app {} (bfs|cc|prd|radii|spmm|taco-*)", args.app));
    let mi = pick(taco_test_matrices(scale()), |m| m.name, &args.input);
    let plain = taco::run(app, v, &mi.matrix, &cfg, mi.name);
    let (traced, sink) = taco::run_opt_traced(app, v, &mi.matrix, &cfg, mi.name, Some(sink));
    let sink = sink.expect("the sink is handed back");
    (mi.name.to_string(), plain, traced, sink)
}

/// Chrome-trace schema validation on the parsed JSON: the envelope
/// carries `displayTimeUnit` and a `traceEvents` array, and every event
/// carries the fields Perfetto requires for its phase. Returns the
/// event count.
///
/// [`PerfettoSink`] writes the envelope's opening on the first line,
/// one event per line, and `]}` on the last; the envelope (first line +
/// last) and each event are parsed on their own, so a 70 MB trace never
/// becomes one half-gigabyte tree. Nothing a whole-document parse would
/// reject gets through: every line must be exactly one JSON object,
/// every line but the last event must end in the array's comma, and an
/// envelope that does not close does not parse.
fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let lines: Vec<&str> = json.trim_end().lines().collect();
    let [open, events @ .., close] = lines.as_slice() else {
        return Err("truncated trace: no envelope".into());
    };
    let envelope = parse(&format!("{open}{close}")).map_err(|e| format!("envelope: {e}"))?;
    if envelope
        .get("displayTimeUnit")
        .and_then(Json::as_str)
        .is_none()
    {
        return Err("missing displayTimeUnit".into());
    }
    if !matches!(envelope.get("traceEvents"), Some(Json::Arr(_))) {
        return Err("missing traceEvents array".into());
    }
    for (i, line) in events.iter().enumerate() {
        let event = match (line.strip_suffix(','), i + 1 == events.len()) {
            (Some(event), false) => event,
            (None, true) => line,
            _ => return Err(format!("event {i}: misplaced array comma: {line}")),
        };
        let event = parse(event).map_err(|e| format!("event {i}: {e}: {line}"))?;
        validate_event(&event).map_err(|e| format!("event {i}: {e}: {line}"))?;
    }
    if events.is_empty() {
        return Err("no trace events emitted".into());
    }
    Ok(events.len())
}

fn validate_event(event: &Json) -> Result<(), String> {
    let phase = event.get("ph").and_then(Json::as_str).ok_or("no ph")?;
    let need: &[&str] = match phase {
        "X" => &["name", "ts", "dur", "pid", "tid"],
        "C" => &["name", "ts", "pid", "args"],
        "I" | "i" => &["name", "ts", "pid", "s"],
        "M" => &["name", "pid", "args"],
        other => return Err(format!("unexpected phase {other:?}")),
    };
    match need.iter().find(|field| event.get(field).is_none()) {
        Some(field) => Err(format!("phase {phase} event without {field:?}")),
        None => Ok(()),
    }
}

fn main() {
    let mut args = parse_args();
    if args.smoke {
        // CI smoke: smallest graph, fixed app, validation mandatory.
        args.app = "bfs".into();
        args.input = None;
    }
    let tee = TeeSink::new(vec![
        Box::new(PerfettoSink::new().with_ra_transitions(args.with_ra)),
        Box::new(MetricsSink::new()),
    ]);
    let (input, plain, traced, sink) = run(&args, Box::new(tee));

    header(&format!("trace: {} / {input} / {}", args.app, {
        args.variant.label()
    }));
    match (&plain, &traced) {
        (Ok(p), Ok(t)) => {
            assert_eq!(
                p.cycles, t.cycles,
                "tracing changed simulated cycles ({} vs {})",
                p.cycles, t.cycles
            );
            println!(
                "  {} simulated cycles (identical traced and untraced)",
                t.cycles
            );
        }
        (Err(p), Err(t)) => {
            println!("  both runs trapped identically: {t}");
            assert_eq!(p.to_string(), t.to_string(), "traced/untraced traps differ");
        }
        (p, t) => panic!("traced/untraced disagree: {p:?} vs {t:?}"),
    }

    let tee = sink.downcast_ref::<TeeSink>().expect("tee sink");
    let sinks = tee.sinks();
    let perfetto = sinks[0]
        .downcast_ref::<PerfettoSink>()
        .expect("perfetto sink");
    let metrics = sinks[1]
        .downcast_ref::<MetricsSink>()
        .expect("metrics sink");

    print!("{}", metrics.report());

    let json = perfetto.to_json();
    match validate_chrome_trace(&json) {
        Ok(n) => println!("  trace: {n} Chrome trace events, schema OK"),
        Err(e) => panic!("emitted trace failed schema validation: {e}"),
    }
    if !args.smoke || args.out_explicit {
        std::fs::write(&args.out, &json).expect("write trace file");
        println!(
            "  wrote {} ({} bytes); load it in ui.perfetto.dev",
            args.out,
            json.len()
        );
    } else {
        println!("  smoke mode: schema validated, no file written; OK");
    }
}

#[cfg(test)]
mod tests {
    use super::validate_chrome_trace as validate;

    const OPEN: &str = r#"{"displayTimeUnit":"ns","traceEvents":["#;
    const META: &str = r#"{"name":"process_name","ph":"M","pid":0,"args":{"name":"bfs"}}"#;
    const SLICE: &str = r#"{"name":"stall","cat":"stall","ph":"X","ts":3,"dur":1,"pid":0,"tid":0}"#;

    #[test]
    fn a_well_formed_trace_counts_its_events() {
        assert_eq!(validate(&format!("{OPEN}\n{META},\n{SLICE}\n]}}\n")), Ok(2));
    }

    #[test]
    fn rejected_traces() {
        let rejects = |trace: String, why: &str| {
            let e = validate(&trace).expect_err(why);
            assert!(e.contains(why), "{why}: got {e}");
        };
        rejects(format!("{OPEN}\n{META},\n{}", &SLICE[..30]), "envelope");
        rejects(format!("{OPEN}\n{META}\n}}\n"), "envelope");
        rejects(
            format!("{OPEN}\n{META}\n{SLICE}\n]}}\n"),
            "misplaced array comma",
        );
        let no_dur = SLICE.replace("\"dur\":1,", "");
        rejects(
            format!("{OPEN}\n{META},\n{no_dur}\n]}}\n"),
            "phase X event without \"dur\"",
        );
        rejects(format!("{OPEN}\n]}}\n"), "no trace events");
        rejects(
            format!("{{\"traceEvents\":[\n{META}\n]}}\n"),
            "missing displayTimeUnit",
        );
        rejects(
            format!("{OPEN}\n{}\n]}}\n", META.replace("\"M\"", "\"Q\"")),
            "unexpected phase",
        );
    }
}
