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
//! (default `small`; anything else is an error); fleet-shaped work (PGO
//! searches, fuzz sweeps) runs on [`phloem_pool::default_workers`] host
//! threads, which `PHLOEM_WORKERS` overrides. Figs. 9 and 13 share one
//! search per app: `phloem_benchsuite::pgo_search`, the driver
//! `phloemd`'s `search` op runs too, over the app's training inputs.
//! Absolute cycle counts come from our simulator, not the authors'
//! testbed: compare *shapes* (who wins, by roughly what factor), which
//! each figure prints alongside the paper's reported numbers.

#![warn(missing_docs)]

pub mod figures;
pub mod fuzz;
pub mod record;

use phloem_benchsuite::apps::{self, App, Input};
use phloem_benchsuite::{candidate_outcome, pgo_search, Measurement, Variant};
use phloem_compiler::search::{CandidateProfile, SearchError, SearchOptions, SearchReport};
use phloem_compiler::PassConfig;
use phloem_ir::{Function, LoadId, Trap};
use phloem_workloads::{Graph, Scale};
use pipette_sim::MachineConfig;
use std::sync::OnceLock;

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
// App lookups and the figures' PGO searches (the figures and
// `benchmark/` share these)
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
pub fn graph_app_kernel(name: &str) -> Function {
    app(name).kernel()
}

/// The stall profile of one graph-app variant on one input: one run,
/// read by the evaluation every PGO search applies to its candidates
/// ([`candidate_outcome`]); `None` if the run traps.
pub fn profile_graph_app(
    name: &str,
    v: &Variant,
    g: &Graph,
    cfg: &MachineConfig,
    input: &str,
) -> Option<CandidateProfile> {
    candidate_outcome([run_graph_app(name, v, g, cfg, input)]).1
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

/// One app's search over its catalog training inputs.
pub(crate) struct AppSearch {
    /// Gmean cycles of the serial variant over the training inputs: the
    /// normalizer of Fig. 13's speedups.
    pub serial_train_cycles: f64,
    /// What the search found.
    pub report: Result<SearchReport, SearchError>,
}

/// The search for `app` on [`machine`] at [`scale`], run once per
/// process: Fig. 9's PGO column and Fig. 13's distribution read the same
/// report. The training inputs are generated once, beside the serial
/// baseline run, and every candidate borrows them.
pub(crate) fn pgo_for_app(app: &'static App) -> &'static AppSearch {
    static SEARCHED: [OnceLock<AppSearch>; apps::APPS.len()] =
        [const { OnceLock::new() }; apps::APPS.len()];
    let row = apps::APPS.iter().position(|a| std::ptr::eq(a, app));
    SEARCHED[row.expect("a row of the app table")].get_or_init(|| {
        let (name, cfg) = (app.name(), machine());
        let training = app.training_inputs(scale());
        eprintln!(
            "[pgo] {name}: searching on {} training inputs...",
            training.len()
        );
        let run = |v: &Variant, i: &apps::CatalogInput, cfg: &MachineConfig| {
            app.run(v, i.input(), cfg, i.name(), None).0
        };
        let (serial, _) =
            candidate_outcome(training.iter().map(|i| run(&Variant::Serial, i, &cfg)));
        AppSearch {
            serial_train_cycles: serial
                .cycles()
                .unwrap_or_else(|| panic!("{name} serial training run: {serial:?}")),
            report: pgo_search(
                &app.kernel(),
                &SearchOptions::default(),
                &cfg,
                &training,
                run,
            ),
        }
    })
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
}
