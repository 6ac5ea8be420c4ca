//! # phloem-bench
//!
//! What has no twin in `benchmark/` (the repo's end-to-end ledger): the
//! paper's figures and the CI gates. Six binaries:
//!
//! | Binary     | What it is |
//! |------------|------------|
//! | `figures`  | Tables I, III-V and Figs. 6, 9-14 (`figures fig6 fig9`, `figures all`); each is a function in [`figures`] returning what it prints |
//! | `simspeed` | gate: cycle/atom equality across tracing modes, tracing-overhead budgets; records host throughput (`BENCH_simspeed.json`) |
//! | `native`   | gate: every app oracle-verified on real threads, host-gated 0.25x overhead bound (`BENCH_native.json`) |
//! | `chaos`    | gate: seeded fault injection against a live `phloemd` (`BENCH_chaos.json`) |
//! | `fuzzdiff` | gate: differential fuzzing against the serial oracle ([`fuzz`]) |
//! | `trace`    | Perfetto trace + profile of one workload; `--smoke` gates the schema and traced/untraced cycle identity |
//!
//! The three `BENCH_*.json` files share one schema and one writer,
//! [`record`]. Set `SCALE=tiny|small|full` to trade fidelity for runtime
//! (default `small`; anything else is an error); set `PGO=0` to skip the
//! profile-guided search in `fig9`. Absolute cycle counts come from our
//! simulator, not the authors' testbed: compare *shapes* (who wins, by
//! roughly what factor), which each figure prints alongside the paper's
//! reported numbers.

#![warn(missing_docs)]

pub mod figures;
pub mod fuzz;
pub mod record;

use phloem_benchsuite::apps::{self, App, Input};
use phloem_benchsuite::{gmean, Measurement, Variant};
use phloem_compiler::search::{
    search_profiled, CandidateProfile, ProfileBudget, ProfileOutcome, SearchOptions,
};
use phloem_compiler::PassConfig;
use phloem_ir::{LoadId, Trap};
use phloem_workloads::{Graph, Scale};
use pipette_sim::{MachineConfig, MetricsSink, StageMetrics};

/// Reads the experiment scale from `SCALE` (unset: small). Any other
/// value than `tiny|small|full` ends the process with status 2 rather
/// than quietly running a different sweep than the one asked for.
pub fn scale() -> Scale {
    let var = std::env::var_os("SCALE").map(|v| v.to_string_lossy().into_owned());
    parse_scale(var.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

fn parse_scale(var: Option<&str>) -> Result<Scale, String> {
    match var {
        None | Some("small") => Ok(Scale::Small),
        Some("tiny") => Ok(Scale::Tiny),
        Some("full") => Ok(Scale::Full),
        Some(other) => Err(format!("SCALE={other:?}: expected tiny|small|full")),
    }
}

/// Host worker count for fleet-shaped work (PGO searches, fuzz sweeps):
/// a `--jobs N` argument when the harness got one, else the shared
/// `PHLOEM_WORKERS` env override, else the host's available
/// parallelism. This is the single `--jobs` path `results/run_all.sh`
/// routes `figures` through.
pub fn jobs() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(phloem_pool::default_workers)
}

/// True unless `PGO=0`.
pub fn pgo_enabled() -> bool {
    std::env::var("PGO").as_deref() != Ok("0")
}

/// The Table III single-core machine.
pub fn machine() -> MachineConfig {
    MachineConfig::paper_1core()
}

/// The Fig. 14 4-core machine.
pub fn machine4() -> MachineConfig {
    MachineConfig::paper_multicore(4)
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

// ---------------------------------------------------------------------
// App lookups and PGO drivers (the figures, `benchmark/` and
// `tests/pool_determinism.rs` share these)
// ---------------------------------------------------------------------

/// The graph applications of the C-path evaluation.
pub const GRAPH_APPS: [&str; 4] = ["BFS", "CC", "PRD", "Radii"];

/// The table row for `name` (`BFS`, `SpMM`, ...); an unknown name is a
/// caller bug.
pub fn app(name: &str) -> &'static App {
    apps::app(name).unwrap_or_else(|| panic!("unknown app {name}"))
}

/// Runs one graph app variant on one input. Runtime traps (watchdog,
/// faults, convergence stalls) come back as `Err`; oracle mismatches
/// still panic (results are always verified inside).
pub fn run_graph_app(
    name: &str,
    v: &Variant,
    g: &Graph,
    cfg: &MachineConfig,
    input: &str,
) -> Result<Measurement, Trap> {
    app(name).run(v, Input::Graph(g), cfg, input, None).0
}

/// The serial kernel of a graph app (for PGO enumeration).
pub fn graph_app_kernel(name: &str) -> phloem_ir::Function {
    app(name).kernel()
}

/// Reduces a metrics aggregate to the per-candidate profile the PGO
/// search report carries, to [`CandidateProfile`]'s contract: the
/// critical *compute* stage, per-stage utilization, and the largest
/// stall class summed across all stages (`"none"` when nothing
/// stalled). `phloemd`'s `search` derives the same from `RunStats`; the
/// test below holds the two equal.
pub fn candidate_profile(m: &MetricsSink) -> CandidateProfile {
    let total = |class: fn(&StageMetrics) -> u64| m.stages.iter().map(class).sum::<u64>();
    // First class on ties, as the daemon's derivation.
    let classes = [
        ("queue-full", total(|s| s.queue_full_stall_cycles)),
        ("queue-empty", total(|s| s.queue_empty_stall_cycles)),
        ("backend", total(|s| s.backend_stall_cycles)),
        ("frontend", total(|s| s.frontend_stall_cycles)),
    ];
    let dominant = classes.iter().rev().max_by_key(|(_, c)| *c);
    let critical = m.critical_stage().map(|i| m.stages[i].name.clone());
    CandidateProfile {
        critical_stage: critical.unwrap_or_default(),
        stage_utilization: m
            .stages
            .iter()
            .map(|s| (s.name.clone(), s.utilization()))
            .collect(),
        dominant_stall: dominant
            .filter(|(_, c)| *c > 0)
            .map_or("none", |(n, _)| n)
            .to_string(),
    }
}

/// Runs one variant on one input under a metrics aggregator; `None` if
/// the run traps.
pub(crate) fn traced_metrics(
    app: &App,
    v: &Variant,
    input: Input<'_>,
    cfg: &MachineConfig,
    input_name: &str,
) -> Option<MetricsSink> {
    let (r, sink) = app.run(
        v,
        input,
        cfg,
        input_name,
        Some(Box::new(MetricsSink::new())),
    );
    r.ok()?;
    sink?.downcast_mut::<MetricsSink>().map(std::mem::take)
}

/// Runs one graph-app variant on one input under a metrics aggregator
/// and reduces it to a [`CandidateProfile`]; `None` if the run traps.
pub fn profile_graph_app(
    name: &str,
    v: &Variant,
    g: &Graph,
    cfg: &MachineConfig,
    input: &str,
) -> Option<CandidateProfile> {
    traced_metrics(app(name), v, Input::Graph(g), cfg, input).map(|m| candidate_profile(&m))
}

/// Outcome of the profile-guided search for one benchmark.
pub struct PgoOutcome {
    /// Cuts of the best-profiling pipeline; empty when the search found
    /// no viable candidate (the caller then falls back to the static
    /// cost model, which empty cuts encode).
    pub best_cuts: Vec<LoadId>,
    /// Trace-derived profile of the best candidate (when the profiling
    /// closure produced one).
    pub best_profile: Option<CandidateProfile>,
    /// `(total stages incl. RAs, gmean training speedup)` per candidate.
    pub points: Vec<(usize, f64)>,
    /// Candidates (or the whole search) that trapped or timed out,
    /// rendered for the harness's failure summary.
    pub failures: Vec<String>,
}

/// Enumerates candidate pipelines for `kernel` and profiles each with
/// `profile` under the search's per-candidate watchdog budget; the
/// closure may also return a trace-derived [`CandidateProfile`], and the
/// best candidate's surfaces in [`PgoOutcome::best_profile`]. The serial
/// training cycles normalize the Fig. 13 speedups. Explicit
/// [`SearchOptions`] let the determinism suite run the same sweep at
/// several worker counts without touching env/argv.
///
/// Built on [`phloem_compiler::search::search_profiled`]: candidates
/// that trap or panic are recorded, timed-out ones get one retry at an
/// enlarged budget, and a fully failed search degrades to empty
/// `best_cuts` (static compilation) instead of aborting the harness.
pub fn pgo_search_with(
    opts: &SearchOptions,
    kernel: &phloem_ir::Function,
    serial_train_cycles: f64,
    profile: impl Fn(&[LoadId], &ProfileBudget) -> (ProfileOutcome, Option<CandidateProfile>) + Sync,
) -> PgoOutcome {
    match search_profiled(kernel, opts, |cuts, _pipe, budget| profile(cuts, budget)) {
        Ok(report) => {
            let mut points = Vec::new();
            let mut failures = Vec::new();
            for c in &report.candidates {
                match &c.outcome {
                    ProfileOutcome::Ok(cycles) => {
                        points.push((c.total_stages, serial_train_cycles / cycles));
                    }
                    ProfileOutcome::Trapped(msg) => {
                        failures.push(format!("candidate {:?}: {msg}", c.cuts));
                    }
                    ProfileOutcome::TimedOut => {
                        failures.push(format!("candidate {:?}: timed out", c.cuts));
                    }
                }
            }
            PgoOutcome {
                best_cuts: report.candidates[report.best].cuts.clone(),
                best_profile: report.candidates[report.best].profile.clone(),
                points,
                failures,
            }
        }
        Err(e) => PgoOutcome {
            best_cuts: Vec::new(),
            best_profile: None,
            points: Vec::new(),
            failures: vec![format!("search failed, using static cuts: {e}")],
        },
    }
}

/// The all-passes Phloem variant pinned to a candidate's `cuts` (none:
/// the static cost model's own).
pub fn phloem_with_cuts(cuts: &[LoadId]) -> Variant {
    Variant::Phloem {
        passes: PassConfig::all(),
        stages: 4,
        cuts: cuts.to_vec(),
    }
}

/// The Fig. 9/13 search for one app: every candidate of its kernel
/// profiled over its training inputs on [`jobs`] workers, normalized to
/// the serial variant's training cycles. `profiled` re-runs each viable
/// candidate traced for its [`CandidateProfile`].
pub(crate) fn pgo_for_app(app: &App, cfg: &MachineConfig, profiled: bool) -> PgoOutcome {
    let whole = ProfileBudget {
        cycle_cap: cfg.watchdog.cycle_cap,
    };
    let serial = train_outcome(app, &Variant::Serial, cfg, &whole)
        .cycles()
        .unwrap_or_else(|| panic!("{} serial training run", app.name()));
    let opts = SearchOptions {
        workers: jobs(),
        ..SearchOptions::default()
    };
    pgo_search_with(&opts, &app.kernel(), serial, |cuts, budget| {
        let v = phloem_with_cuts(cuts);
        if profiled {
            train_profiled(app, &v, cfg, budget)
        } else {
            (train_outcome(app, &v, cfg, budget), None)
        }
    })
}

/// Classifies one guarded profiling invocation: `Ok` carries the
/// measured cycles; watchdog expirations become `TimedOut` (retryable
/// at a larger budget); any other trap or panic becomes `Trapped`.
fn profiled_cycles(f: impl FnOnce() -> Result<Measurement, Trap>) -> Result<f64, ProfileOutcome> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(m)) => Ok(m.cycles as f64),
        Ok(Err(Trap::CycleLimit { .. } | Trap::Livelock { .. })) => Err(ProfileOutcome::TimedOut),
        Ok(Err(trap)) => Err(ProfileOutcome::Trapped(trap.to_string())),
        Err(payload) => Err(ProfileOutcome::Trapped(format!(
            "panicked: {}",
            phloem_benchsuite::runner::panic_text(&*payload)
        ))),
    }
}

/// Applies a profiling budget to the simulator config: the budget's
/// cycle cap becomes the watchdog's.
fn budgeted(cfg: &MachineConfig, budget: &ProfileBudget) -> MachineConfig {
    let mut cfg = cfg.clone();
    cfg.watchdog.cycle_cap = budget.cycle_cap;
    cfg
}

/// Profiles a variant over the app's training inputs under the given
/// watchdog budget (gmean cycles on success).
pub(crate) fn train_outcome(
    app: &App,
    v: &Variant,
    cfg: &MachineConfig,
    budget: &ProfileBudget,
) -> ProfileOutcome {
    let cfg = budgeted(cfg, budget);
    let mut vals = Vec::new();
    for i in app.training_inputs(scale()) {
        match profiled_cycles(|| app.run(v, i.input(), &cfg, i.name(), None).0) {
            Ok(c) => vals.push(c),
            Err(outcome) => return outcome,
        }
    }
    ProfileOutcome::Ok(gmean(vals))
}

/// [`train_outcome`] plus a [`CandidateProfile`] built by re-running the
/// first training input under a metrics aggregator (the extra traced
/// run only happens for viable candidates).
pub(crate) fn train_profiled(
    app: &App,
    v: &Variant,
    cfg: &MachineConfig,
    budget: &ProfileBudget,
) -> (ProfileOutcome, Option<CandidateProfile>) {
    let outcome = train_outcome(app, v, cfg, budget);
    if !matches!(outcome, ProfileOutcome::Ok(_)) {
        return (outcome, None);
    }
    let cfg = budgeted(cfg, budget);
    let first = app.training_inputs(scale()).into_iter().next();
    let metrics = first.and_then(|i| traced_metrics(app, v, i.input(), &cfg, i.name()));
    (outcome, metrics.map(|m| candidate_profile(&m)))
}

/// [`train_profiled`] for a graph app by name.
pub fn train_graph_profiled(
    name: &str,
    v: &Variant,
    cfg: &MachineConfig,
    budget: &ProfileBudget,
) -> (ProfileOutcome, Option<CandidateProfile>) {
    train_profiled(app(name), v, cfg, budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_apps_names_the_tables_graph_rows() {
        let on_graphs = apps::APPS.iter().filter(|a| a.runs_on_graphs());
        assert_eq!(on_graphs.map(|a| a.name()).collect::<Vec<_>>(), GRAPH_APPS);
    }

    #[test]
    fn an_unknown_scale_is_an_error_naming_the_choices() {
        assert_eq!(parse_scale(None), Ok(Scale::Small));
        assert_eq!(parse_scale(Some("tiny")), Ok(Scale::Tiny));
        assert_eq!(parse_scale(Some("full")), Ok(Scale::Full));
        let e = parse_scale(Some("tniy")).unwrap_err();
        assert!(e.contains("SCALE") && e.contains("tiny|small|full"), "{e}");
    }

    /// `phloemd` answers `search` with a profile derived from the
    /// winner's `RunStats`; the figures derive theirs from a
    /// `MetricsSink`. One contract, two derivations: a traced BFS run
    /// of the daemon's winner must give the daemon's answer.
    #[test]
    fn the_daemons_search_profile_equals_the_traced_one_on_bfs() {
        use phloem_service::{proto::parse, Service, ServiceConfig};
        let svc = Service::new(ServiceConfig {
            machine: machine(),
            scale: Scale::Tiny,
            ..ServiceConfig::default()
        });
        let ask = r#"{"id":1,"op":"search","app":"bfs","input":"internet-s","max_stages":4}"#;
        let answer = svc.handle_batch(&[ask.to_string()]).responses.remove(0);
        let answer = parse(&answer).unwrap();
        let Some(phloem_service::Json::Arr(cuts)) = answer.get("best_cuts") else {
            panic!("no winner: {answer:?}");
        };
        let cuts: Vec<LoadId> = cuts
            .iter()
            .map(|c| LoadId(c.as_u64().unwrap() as u32))
            .collect();
        let served = answer.get("profile").expect("the winner's profile");
        let field = |name| served.get(name).and_then(|j| j.as_str()).unwrap();

        let graphs = phloem_workloads::training_graphs(Scale::Tiny);
        let g = &graphs
            .iter()
            .find(|g| g.name == "internet-s")
            .unwrap()
            .graph;
        let traced =
            profile_graph_app("BFS", &phloem_with_cuts(&cuts), g, &machine(), "internet-s")
                .expect("the winner runs traced");
        assert_eq!(traced.critical_stage, field("critical_stage"));
        assert_eq!(traced.dominant_stall, field("dominant_stall"));
        let compute_stages = answer.get("compute_stages").and_then(|j| j.as_usize());
        assert!(
            compute_stages.unwrap() < traced.stage_utilization.len(),
            "no RA to exclude"
        );
    }
}
