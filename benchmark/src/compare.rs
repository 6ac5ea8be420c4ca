//! `--compare A.json B.json`: for every end-to-end metric and workload,
//! both medians and quartiles, the change, the bound, and a verdict.
//!
//! `worse`: B's median is worse than A's by more than the bound.
//! `unresolved`: the run-to-run spread of either side is wider than the
//! bound, and B's runs do not all read better than all of A's.
//! Exact metrics and digests must match.

use crate::metrics::{Better, Bound, E2E, WORKLOADS};
use crate::suite::{field, value};
use crate::util::{median, quartiles};
use phloem_service::proto::{parse, Json};

fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    match parse(&text)
        .map_err(|e| format!("{path}: {e}"))?
        .get("runs")
    {
        Some(Json::Arr(runs)) => Ok(runs.clone()),
        _ => Err(format!("{path}: no \"runs\" array")),
    }
}

fn of<'a>(runs: &'a [Json], workload: &str) -> Vec<&'a Json> {
    runs.iter()
        .filter(|d| field(d, &["workload"]).and_then(Json::as_str) == Some(workload))
        .collect()
}

fn spread(vals: &[f64]) -> f64 {
    let (q1, q3) = quartiles(vals);
    (q3 - q1) / median(vals).abs().max(f64::MIN_POSITIVE)
}

pub fn run(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut bad = 0;
    println!(
        "{:<13} {:<22} {:>14} {:>14} {:>9} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for w in WORKLOADS {
        let (ra, rb) = (of(&a, w), of(&b, w));
        for m in E2E.iter().filter(|m| m.applies_to(w)) {
            let va: Vec<f64> = ra.iter().filter_map(|d| value(d, "e2e", m.name)).collect();
            let vb: Vec<f64> = rb.iter().filter_map(|d| value(d, "e2e", m.name)).collect();
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            // Positive = B is worse.
            let worse_by = match m.better {
                Better::Higher => ma - mb,
                Better::Lower => mb - ma,
            };
            let all_better = match m.better {
                Better::Higher => vb.iter().all(|b| va.iter().all(|a| b > a)),
                Better::Lower => vb.iter().all(|b| va.iter().all(|a| b < a)),
            };
            let (bound_text, verdict) = match m.bound_for(w) {
                Bound::Exact => {
                    // Same seeds on both sides: run for run the same.
                    ("exact".to_string(), if va == vb { "ok" } else { "worse" })
                }
                Bound::Abs(limit) => (
                    format!("+{limit}"),
                    if worse_by > limit { "worse" } else { "ok" },
                ),
                Bound::Rel(limit) => {
                    let wide = spread(&va).max(spread(&vb)) > limit;
                    let v = if wide && !all_better {
                        "unresolved"
                    } else if worse_by / ma.abs().max(f64::MIN_POSITIVE) > limit {
                        "worse"
                    } else {
                        "ok"
                    };
                    (format!("{:.0}%", limit * 100.0), v)
                }
            };
            let (a1, a3) = quartiles(&va);
            let (b1, b3) = quartiles(&vb);
            println!(
                "{w:<13} {:<22} {ma:>14.5} {mb:>14.5} {:>+8.2}% {bound_text:>9}  {verdict}   \
                 A[{a1:.5} .. {a3:.5}] B[{b1:.5} .. {b3:.5}] {}",
                m.name,
                (mb - ma) / ma.abs().max(f64::MIN_POSITIVE) * 100.0,
                m.unit,
            );
            bad += (verdict != "ok") as i32;
        }
        // Digests are a function of the seed: compare run by run.
        for (da, db) in ra.iter().zip(&rb) {
            let seed = |d: &Json| field(d, &["seed"]).and_then(Json::as_u64);
            if seed(da) != seed(db) {
                continue;
            }
            let (ga, gb) = (field(da, &["digests"]), field(db, &["digests"]));
            if ga != gb {
                println!(
                    "{w:<13} digests differ at seed {:?}: {} vs {}",
                    seed(da),
                    ga.map_or(String::new(), Json::render),
                    gb.map_or(String::new(), Json::render)
                );
                bad += 1;
            }
        }
    }
    println!(
        "{}",
        if bad == 0 {
            "compare: every metric within its bound, every digest equal".to_string()
        } else {
            format!("compare: {bad} metric(s) worse, unresolved or different")
        }
    );
    (bad != 0) as i32
}
