//! The one writer of `BENCH_{simspeed,native,chaos}.json`.
//!
//! All three files carry the same top-level keys, in this order:
//!
//! ```text
//! bench       which binary wrote it
//! host_cores  available parallelism of the recording host
//! git_rev     `git describe --always --dirty` at recording time
//! scale       tiny | small | full
//! reps        repetitions behind each measurement (`simspeed` and
//!             `native` report their median and quartiles)
//! ...         what the bench ran with, if it says (`native`: ring_depth,
//!             slab)
//! rows        measurements: objects keyed by "name", bench-specific fields
//! gates       bounds the bench asserts: name, value, bound, enforced
//!             (on this host), pass
//! ```
//!
//! What a row means is prose, and lives in DESIGN.md (§4, §8, §11), not
//! in the file. Numbers are rounded where they are built ([`num`]) so a
//! recording diffs cleanly.

use std::fmt::Write as _;

use phloem_service::proto::Json;
use phloem_workloads::Scale;

/// A bound a bench asserts, as recorded.
pub struct Gate {
    /// What is bounded.
    name: String,
    /// The measured value.
    value: f64,
    /// The floor or ceiling it is held to.
    bound: f64,
    /// Whether this host can enforce it (a one-core host cannot hold a
    /// pipeline to a cross-thread speedup).
    enforced: bool,
    /// Whether `value` is on the right side of `bound`.
    pass: bool,
}

impl Gate {
    /// `value >= floor`.
    pub fn at_least(name: impl Into<String>, value: f64, floor: f64, enforced: bool) -> Gate {
        Gate {
            name: name.into(),
            value,
            bound: floor,
            enforced,
            pass: value >= floor,
        }
    }

    /// `value <= ceiling`.
    pub fn at_most(name: impl Into<String>, value: f64, ceiling: f64, enforced: bool) -> Gate {
        Gate {
            name: name.into(),
            value,
            bound: ceiling,
            enforced,
            pass: value <= ceiling,
        }
    }

    /// Fails the bench if the gate is enforced here and does not hold.
    pub fn enforce(self) -> Gate {
        assert!(
            self.pass || !self.enforced,
            "gate {}: measured {:.4}, bound {}",
            self.name,
            self.value,
            self.bound
        );
        self
    }
}

/// The host's available parallelism, as every gate and header reads it.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Timed repetitions per measurement: `REPS`, else `default`; at least 1.
pub fn reps(default: usize) -> usize {
    let var = std::env::var("REPS").ok().and_then(|s| s.parse().ok());
    var.unwrap_or(default).max(1)
}

/// The quartiles of a set of repetitions: a median that one slow
/// repetition cannot move, and the spread around it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// The quartiles of `xs` (linear interpolation between order
    /// statistics).
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn of(xs: &[f64]) -> Spread {
        assert!(!xs.is_empty(), "no repetitions");
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (v.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Spread {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }

    /// Every quartile mapped through `f` (a monotone one keeps them in
    /// order; a decreasing one swaps `q1` and `q3` back).
    pub fn map(self, f: impl Fn(f64) -> f64) -> Spread {
        let (a, m, b) = (f(self.q1), f(self.median), f(self.q3));
        Spread {
            q1: a.min(b),
            median: m,
            q3: a.max(b),
        }
    }
}

/// `v` rounded to `decimals` places, as a JSON number.
pub fn num(v: f64, decimals: i32) -> Json {
    let unit = 10f64.powi(decimals);
    Json::Num((v * unit).round() / unit)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Renders one recording: the shared header and the bench's own
/// `config` keys, then one row and one gate per line.
fn render(
    bench: &str,
    scale: Scale,
    reps: usize,
    config: &[(&str, Json)],
    rows: &[Json],
    gates: &[Gate],
) -> String {
    let header = [
        ("bench", Json::str(bench)),
        ("host_cores", Json::u64(host_cores() as u64)),
        ("git_rev", Json::str(git_rev())),
        ("scale", Json::str(format!("{scale:?}").to_lowercase())),
        ("reps", Json::u64(reps as u64)),
    ];
    let gate = |g: &Gate| {
        Json::obj([
            ("name", Json::str(&g.name)),
            ("value", num(g.value, 4)),
            ("bound", Json::Num(g.bound)),
            ("enforced", Json::Bool(g.enforced)),
            ("pass", Json::Bool(g.pass)),
        ])
    };
    let gates: Vec<Json> = gates.iter().map(gate).collect();
    let mut out = String::from("{\n");
    for (key, value) in header.iter().chain(config) {
        let _ = writeln!(out, "  \"{key}\": {},", value.render());
    }
    for (key, items, comma) in [("rows", rows, ","), ("gates", &gates[..], "")] {
        let lines: Vec<String> = items
            .iter()
            .map(|i| format!("    {}", i.render()))
            .collect();
        let _ = writeln!(out, "  \"{key}\": [\n{}\n  ]{comma}", lines.join(",\n"));
    }
    out.push_str("}\n");
    out
}

/// Writes `BENCH_<bench>.json` into the current directory; `config`
/// names what the bench ran with, after `reps`.
pub fn write(
    bench: &str,
    scale: Scale,
    reps: usize,
    config: &[(&str, Json)],
    rows: &[Json],
    gates: &[Gate],
) {
    let path = format!("BENCH_{bench}.json");
    std::fs::write(&path, render(bench, scale, reps, config, rows, gates))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("  wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use phloem_service::proto::parse;

    #[test]
    fn spread_is_the_quartiles() {
        let s = Spread::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let even = Spread::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((even.q1, even.median, even.q3), (1.75, 2.5, 3.25));
        let inv = s.map(|x| 12.0 / x);
        assert_eq!((inv.q1, inv.median, inv.q3), (3.0, 4.0, 6.0));
    }

    #[test]
    fn a_rendering_and_the_three_committed_recordings_share_their_top_level_keys() {
        let rows = [Json::obj([
            ("name", Json::str("session")),
            ("x", num(1.23456, 3)),
        ])];
        let gates = [
            Gate::at_least("floor", 2.0, 1.5, true),
            Gate::at_most("ceiling", 2.0, 1.5, false),
        ];
        let config = [("depth", Json::u64(7))];
        let text = render("simspeed", Scale::Tiny, 3, &config, &rows, &gates);
        let committed = [
            include_str!("../../../BENCH_simspeed.json"),
            include_str!("../../../BENCH_native.json"),
            include_str!("../../../BENCH_chaos.json"),
        ];
        for recording in [text.as_str()].into_iter().chain(committed) {
            let Ok(Json::Obj(pairs)) = parse(recording) else {
                panic!("not a JSON object: {recording}");
            };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            let shared = ["bench", "host_cores", "git_rev", "scale", "reps"];
            assert_eq!(keys[..5], shared, "{recording}");
            assert_eq!(keys[keys.len() - 2..], ["rows", "gates"], "{recording}");
        }
        assert!(text.contains("\"reps\": 3,\n  \"depth\": 7,\n"), "{text}");
        assert!(text.contains("\"scale\": \"tiny\""), "{text}");
        assert!(
            text.contains(r#"{"name":"floor","value":2,"bound":1.5,"enforced":true,"pass":true}"#)
        );
        assert!(text
            .contains(r#""name":"ceiling","value":2,"bound":1.5,"enforced":false,"pass":false"#));
    }

    #[test]
    fn an_unenforced_gate_records_its_failure_without_failing() {
        assert!(!Gate::at_least("g", 0.1, 0.25, false).enforce().pass);
        let enforced = std::panic::catch_unwind(|| Gate::at_least("g", 0.1, 0.25, true).enforce());
        assert!(enforced.is_err());
    }
}
