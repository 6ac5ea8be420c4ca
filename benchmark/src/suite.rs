//! Every workload in turn, each run in a process of its own (so that
//! `peak_rss_mb` is the workload's), untraced for the end-to-end
//! metrics and once more traced for the per-layer ones.

use crate::metrics::{Better, E2E, LAYERS, WORKLOADS};
use crate::util::{median, quartiles};
use crate::Args;
use phloem_service::proto::{parse, Json};
use std::process::Command;
use std::time::Instant;

/// One child run: its `#detail` object and the driver's last line.
pub struct Run {
    pub detail: Json,
    pub last: Json,
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--threads", &threads.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !stderr.trim().is_empty() {
        eprint!("{stderr}");
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("#detail "))
        .ok_or_else(|| format!("{workload}: no #detail line (exit {:?})", out.status.code()))?;
    let last = stdout.lines().last().unwrap_or_default();
    let run = Run {
        detail: parse(detail).map_err(|e| format!("{workload}: #detail: {e}"))?,
        last: parse(last).map_err(|e| format!("{workload}: last line: {e}"))?,
    };
    if !out.status.success() {
        for l in stdout.lines().filter(|l| l.starts_with("# INCORRECT")) {
            eprintln!("{workload}: {l}");
        }
    }
    Ok(run)
}

pub fn field<'a>(obj: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(obj, |o, k| o.get(k))
}

pub fn value(obj: &Json, group: &str, name: &str) -> Option<f64> {
    match field(obj, &[group, name, "value"]) {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    }
}

fn keys(obj: Option<&Json>) -> Vec<String> {
    match obj {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

fn names(list: Option<&Json>) -> Vec<String> {
    match list {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|i| i.get("name").and_then(Json::as_str).map(String::from))
            .collect(),
        _ => Vec::new(),
    }
}

/// Checks `BENCHMARK.json` against the registry, and what the runs
/// printed against `BENCHMARK.json`: no missing and no unnamed metric.
fn validate(untraced: &[Run], traced: &[Run]) -> Vec<String> {
    let mut problems = Vec::new();
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(t) => t,
        Err(e) => return vec![format!("BENCHMARK.json: {e}")],
    };
    let spec = match parse(&text) {
        Ok(s) => s,
        Err(e) => return vec![format!("BENCHMARK.json: {e}")],
    };
    let mut expect = |what: &str, got: Vec<String>, want: Vec<String>| {
        let (mut g, mut w) = (got, want);
        g.sort();
        w.sort();
        if g != w {
            let missing: Vec<_> = w.iter().filter(|n| !g.contains(n)).collect();
            let extra: Vec<_> = g.iter().filter(|n| !w.contains(n)).collect();
            problems.push(format!("{what}: missing {missing:?}, unnamed {extra:?}"));
        }
    };
    let listed_e2e = names(spec.get("end_to_end"));
    let listed_layers = names(spec.get("per_layer"));
    expect(
        "BENCHMARK.json workloads against the benchmark's",
        names(spec.get("workloads")),
        WORKLOADS.iter().map(|s| s.to_string()).collect(),
    );
    expect(
        "BENCHMARK.json end_to_end against the enforced metrics",
        listed_e2e.clone(),
        E2E.iter()
            .filter(|m| m.enforced)
            .map(|m| m.name.to_string())
            .collect(),
    );
    expect(
        "BENCHMARK.json per_layer against the layer metrics",
        listed_layers.clone(),
        LAYERS.iter().map(|(n, ..)| n.to_string()).collect(),
    );
    for r in untraced {
        let w = field(&r.detail, &["workload"])
            .and_then(Json::as_str)
            .unwrap_or("?");
        expect(
            &format!("{w} untraced output against end_to_end"),
            keys(r.last.get("metrics")),
            listed_e2e.clone(),
        );
    }
    for r in traced {
        let w = field(&r.detail, &["workload"])
            .and_then(Json::as_str)
            .unwrap_or("?");
        expect(
            &format!("{w} traced output against per_layer"),
            keys(r.last.get("metrics")),
            listed_layers.clone(),
        );
    }
    // One bound per metric there: the widest any workload needs.
    if let Some(Json::Arr(listed)) = spec.get("end_to_end") {
        for item in listed {
            let name = item.get("name").and_then(Json::as_str).unwrap_or("?");
            let Some(m) = crate::metrics::e2e(name) else {
                continue;
            };
            let widest = WORKLOADS
                .iter()
                .filter_map(|w| match m.bound_for(w) {
                    crate::metrics::Bound::Rel(b) => Some(b),
                    _ => None,
                })
                .fold(0.0, f64::max);
            if item.get("bound") != Some(&Json::Num(widest)) {
                problems.push(format!("BENCHMARK.json bound of {name} is not {widest}"));
            }
            if item.get("unit").and_then(Json::as_str) != Some(m.unit) {
                problems.push(format!("BENCHMARK.json unit of {name} is not {}", m.unit));
            }
        }
    }
    if let Some(Json::Arr(listed)) = spec.get("per_layer") {
        for item in listed {
            let text = |k| item.get(k).and_then(Json::as_str).unwrap_or("?");
            if let Some((name, unit, better)) = LAYERS.iter().find(|(n, ..)| *n == text("name")) {
                let dir = if *better == Better::Higher {
                    "higher"
                } else {
                    "lower"
                };
                if text("unit") != *unit || text("better") != dir {
                    problems.push(format!("BENCHMARK.json: {name} is not {unit}, {dir}"));
                }
            }
        }
    }
    problems
}

fn details_of<'a>(runs: &'a [Run], workload: &str) -> Vec<&'a Json> {
    runs.iter()
        .map(|r| &r.detail)
        .filter(|d| field(d, &["workload"]).and_then(Json::as_str) == Some(workload))
        .collect()
}

pub fn run(args: &Args) -> i32 {
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.4 } else { 10.0 });
    let t0 = Instant::now();
    let mut untraced: Vec<Run> = Vec::new();
    let mut traced: Vec<Run> = Vec::new();
    let mut failed = false;
    for w in WORKLOADS {
        for r in 0..args.runs.max(1) {
            let seed = args.seed + r as u64;
            eprintln!("[{w}] untraced, seed {seed:#x}, {seconds} s ...");
            match child(w, seed, seconds, false, args.threads) {
                Ok(run) => untraced.push(run),
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                }
            }
        }
        eprintln!("[{w}] traced ...");
        match child(w, args.seed, seconds, true, args.threads) {
            Ok(run) => traced.push(run),
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }

    for w in WORKLOADS {
        let (plain, with_trace) = (details_of(&untraced, w), details_of(&traced, w));
        let Some(first) = plain.first() else { continue };
        println!("== {w} ==");
        println!(
            "  host_cores={} git={} rustc={:?} seed={:#x} counts={}",
            field(first, &["host_cores"])
                .and_then(Json::as_u64)
                .unwrap_or(0),
            field(first, &["git"]).and_then(Json::as_str).unwrap_or("?"),
            field(first, &["rustc"])
                .and_then(Json::as_str)
                .unwrap_or("?"),
            args.seed,
            field(first, &["counts"]).map_or(String::new(), Json::render),
        );
        println!(
            "  digests={} fail_kinds={}",
            field(first, &["digests"]).map_or(String::new(), Json::render),
            field(first, &["fail_kinds"]).map_or(String::new(), Json::render),
        );
        println!("  end-to-end (untraced, median of {} run(s)):", plain.len());
        for m in E2E.iter().filter(|m| m.applies_to(w)) {
            let vals: Vec<f64> = plain
                .iter()
                .filter_map(|d| value(d, "e2e", m.name))
                .collect();
            if vals.is_empty() {
                continue;
            }
            let (q1, q3) = quartiles(&vals);
            let samples = field(first, &["e2e", m.name, "samples"])
                .and_then(Json::as_u64)
                .unwrap_or(0);
            let dir = if m.better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            let med = median(&vals);
            // Interquartile range over median; a median of 0 has none.
            let spread = if med == 0.0 {
                "-".to_string()
            } else {
                format!("{:.2}%", (q3 - q1) / med.abs() * 100.0)
            };
            println!(
                "    {:<26} {med:>16.6} {:<10} [{q1:.6} .. {q3:.6}] spread={spread} n={samples} \
                 better={dir} bound={:?}{}",
                m.name,
                m.unit,
                m.bound_for(w),
                if m.enforced { "" } else { " (report only)" },
            );
        }
        if let Some(t) = with_trace.first() {
            println!("  per-layer (traced run; 0 = layer not exercised here):");
            for (name, unit, _) in LAYERS {
                let v = value(t, "layers", name).unwrap_or(0.0);
                let n = field(t, &["layers", name, "samples"])
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                if n > 0 {
                    println!("    {name:<44} {v:>16.6} {unit:<10} n={n}");
                }
            }
            let plain_ops = median(
                &plain
                    .iter()
                    .filter_map(|d| value(d, "e2e", "ops_per_s"))
                    .collect::<Vec<_>>(),
            );
            let traced_ops = value(t, "layers", "bench.traced_ops_per_s").unwrap_or(0.0);
            println!(
                "    {:<44} {:>16.3} %",
                "tracing_overhead_pct",
                (1.0 - traced_ops / plain_ops) * 100.0
            );
        }
        if plain
            .iter()
            .chain(&with_trace)
            .any(|d| field(d, &["correct"]).and_then(Json::as_bool) != Some(true))
        {
            println!("  INCORRECT: see the messages above");
            failed = true;
        }
    }
    println!("total wall: {:.1} s", t0.elapsed().as_secs_f64());

    if let Some(path) = &args.out {
        let doc = Json::Obj(vec![(
            "runs".to_string(),
            Json::Arr(untraced.iter().map(|r| r.detail.clone()).collect()),
        )]);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("cannot write {path}: {e}");
            failed = true;
        } else {
            println!("wrote {path}");
        }
    }
    if args.smoke {
        let problems = validate(&untraced, &traced);
        for p in &problems {
            println!("SMOKE: {p}");
        }
        failed |= !problems.is_empty();
        println!(
            "smoke: {}",
            if failed {
                "FAILED"
            } else {
                "every workload ran, every check held, every name matched"
            }
        );
    }
    failed as i32
}
