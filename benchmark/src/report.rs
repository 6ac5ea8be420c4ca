//! What one run prints: a header, every metric by name with its unit
//! and sample count, a `#detail` line the suite and `--compare` read,
//! and last the one-line result the driver reads.

use crate::bench::{Ctx, Metric, Outcome};
use crate::metrics::{self, LAYERS};
use phloem_service::proto::Json;
use std::collections::BTreeMap;

fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { 0.0 })
}

fn metric_json(m: &Metric, with_samples: bool) -> Json {
    let mut pairs = vec![
        ("value".to_string(), num(m.value)),
        ("unit".to_string(), Json::str(m.unit)),
    ];
    if with_samples {
        pairs.push(("samples".to_string(), Json::u64(m.samples)));
    }
    Json::Obj(pairs)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The end-to-end metrics of a run, by the registry's names: what the
/// workload measured, plus `fail_share` and the folded `speedup_gmean`.
pub fn end_to_end(workload: &str, out: &Outcome) -> BTreeMap<&'static str, Metric> {
    let mut m = out.e2e.clone();
    m.insert(
        "fail_share",
        Metric {
            value: out.failed as f64 / out.attempted.max(1) as f64,
            unit: "ratio",
            samples: out.attempted,
        },
    );
    let own = [
        "native_speedup_gmean",
        "pgo_speedup_gmean",
        "sim_speedup_gmean",
    ]
    .iter()
    .find_map(|n| m.get(n).cloned());
    m.insert(
        "speedup_gmean",
        own.unwrap_or(Metric {
            value: 1.0,
            unit: "x",
            samples: 0,
        }),
    );
    m.retain(|name, _| metrics::e2e(name).is_some_and(|d| d.applies_to(workload)));
    m
}

/// Every per-layer metric of the registry; 0 where the workload does
/// not exercise the layer.
pub fn per_layer(out: &Outcome) -> Vec<(&'static str, Metric)> {
    for name in out.layers.keys() {
        assert!(
            LAYERS.iter().any(|(n, ..)| n == name),
            "layer metric {name} is not in the registry"
        );
    }
    LAYERS
        .iter()
        .map(|&(name, unit, _)| {
            let m = out.layers.get(name).cloned().unwrap_or(Metric {
                value: 0.0,
                unit,
                samples: 0,
            });
            assert_eq!(m.unit, unit, "unit of {name}");
            (name, m)
        })
        .collect()
}

fn u64_map<K: AsRef<str>>(m: &BTreeMap<K, u64>) -> Json {
    Json::Obj(
        m.iter()
            .map(|(k, v)| (k.as_ref().to_string(), Json::u64(*v)))
            .collect(),
    )
}

/// Prints the run; returns whether it was correct.
pub fn print_run(workload: &str, ctx: &Ctx, out: &Outcome) -> bool {
    let correct = out.errors.is_empty();
    let e2e = end_to_end(workload, out);
    let git = command_line("git", &["rev-parse", "--short", "HEAD"]);
    let rustc = command_line("rustc", &["-V"]);

    println!(
        "# phloem-benchmark workload={workload} seed={:#x} seconds={} trace={} host_cores={} \
         threads={} git={git} rustc=\"{rustc}\"",
        ctx.seed,
        ctx.seconds,
        ctx.trace as u8,
        crate::util::host_cores(),
        ctx.nproc
    );
    let counts: Vec<String> = out.counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# op counts: {}", counts.join(" "));
    println!(
        "# ops: attempted={} failed={} {:?} retried attempts {:?}",
        out.attempted, out.failed, out.fail_kinds, out.retried
    );
    let reps = crate::util::sorted(&out.rep_ops_per_s);
    if let (Some(worst), Some(best)) = (reps.first(), reps.last()) {
        println!(
            "# repetitions: n={} ops/s fastest={best:.3} median={:.3} slowest={worst:.3}",
            reps.len(),
            crate::util::percentile(&reps, 50.0)
        );
    }
    for (name, d) in &out.digests {
        println!("# {name}={d}");
    }
    for e in &out.errors {
        println!("# INCORRECT: {e}");
    }
    let note = if ctx.trace {
        " (traced: for reference only, cite the untraced run)"
    } else {
        ""
    };
    println!("# end-to-end{note}:");
    for (name, m) in &e2e {
        println!(
            "  {name:<44} {:>16.6} {:<10} n={}",
            m.value, m.unit, m.samples
        );
    }
    let layers = per_layer(out);
    if ctx.trace {
        println!("# per-layer:");
        for (name, m) in &layers {
            println!(
                "  {name:<44} {:>16.6} {:<10} n={}",
                m.value, m.unit, m.samples
            );
        }
    }

    let detail = Json::Obj(vec![
        ("workload".to_string(), Json::str(workload)),
        ("seed".to_string(), Json::u64(ctx.seed)),
        ("seconds".to_string(), num(ctx.seconds)),
        ("trace".to_string(), Json::u64(ctx.trace as u64)),
        (
            "host_cores".to_string(),
            Json::u64(crate::util::host_cores() as u64),
        ),
        ("threads".to_string(), Json::u64(ctx.nproc as u64)),
        ("git".to_string(), Json::str(git)),
        ("rustc".to_string(), Json::str(rustc)),
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::u64(out.attempted)),
        ("failed".to_string(), Json::u64(out.failed)),
        ("fail_kinds".to_string(), u64_map(&out.fail_kinds)),
        ("retried".to_string(), u64_map(&out.retried)),
        ("counts".to_string(), u64_map(&out.counts)),
        (
            "rep_ops_per_s".to_string(),
            Json::Arr(out.rep_ops_per_s.iter().map(|&v| num(v)).collect()),
        ),
        (
            "digests".to_string(),
            Json::Obj(
                out.digests
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::str(v.clone())))
                    .collect(),
            ),
        ),
        (
            "e2e".to_string(),
            Json::Obj(
                e2e.iter()
                    .map(|(k, m)| (k.to_string(), metric_json(m, true)))
                    .collect(),
            ),
        ),
        (
            "layers".to_string(),
            Json::Obj(if ctx.trace {
                layers
                    .iter()
                    .map(|(k, m)| (k.to_string(), metric_json(m, true)))
                    .collect()
            } else {
                Vec::new()
            }),
        ),
    ]);
    println!("#detail {}", detail.render());

    // The driver's line: every enforced end-to-end metric untraced,
    // every per-layer metric traced.
    let driver_metrics: Vec<(String, Json)> = if ctx.trace {
        layers
            .iter()
            .map(|(k, m)| (k.to_string(), metric_json(m, false)))
            .collect()
    } else {
        metrics::E2E
            .iter()
            .filter(|d| d.enforced)
            .map(|d| {
                let m = e2e
                    .get(d.name)
                    .unwrap_or_else(|| panic!("{workload} did not measure {}", d.name));
                (d.name.to_string(), metric_json(m, false))
            })
            .collect()
    };
    let line = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::u64(out.attempted.max(1))),
        ("failed".to_string(), Json::u64(out.failed)),
        ("metrics".to_string(), Json::Obj(driver_metrics)),
    ]);
    println!("{}", line.render());
    correct
}
