//! `pgo_search`: the profile-guided search for the five kernels, fanned
//! over `phloem-pool`. Dozens of short simulations per pass, so session
//! set-up, enumeration, bytecode lowering and pool scheduling matter
//! here, not steady-state nanoseconds per cycle.

use crate::apps::{self, Input, GRAPH_APPS, SPMM};
use crate::bench::{guarded, Ctx, OpEnd, Outcome, Reps, Workload};
use crate::trace::{self, Span};
use crate::util::{self, sub_seed, Fnv};
use crate::{compile_grid, probes, sizes};
use phloem_benchsuite::{gmean, Variant};
use phloem_compiler::search::{
    enumerate_pipelines, search_profiled, CandidateProfile, ProfileBudget, ProfileOutcome,
    SearchOptions,
};
use phloem_compiler::PassConfig;
use phloem_ir::{validate_pipeline, LoadId, ValidateLimits};
use phloem_pool::Pool;
use phloem_workloads::{graph, matrix};
use pipette_sim::{CompiledPipeline, MachineConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const KERNELS: [&str; 5] = [
    GRAPH_APPS[0],
    GRAPH_APPS[1],
    GRAPH_APPS[2],
    GRAPH_APPS[3],
    SPMM,
];

pub struct State {
    cfg: MachineConfig,
    train_graphs: Vec<Input>,
    train_matrices: Vec<Input>,
    test_graph: Input,
    test_matrix: Input,
    /// Serial cycles of each kernel on its test input: the baseline of
    /// `pgo_speedup_gmean`.
    serial_test_cycles: Vec<u64>,
}

/// What one pass over the five kernels produced.
#[derive(Default)]
struct Pass {
    candidates: u64,
    failed: Vec<String>,
    mismatches: Vec<String>,
    op_ms: Vec<f64>,
    sim_cycles: u64,
    speedups: Vec<f64>,
    digest: String,
}

fn phloem_with(cuts: &[LoadId]) -> Variant {
    Variant::Phloem {
        passes: PassConfig::all(),
        stages: 4,
        cuts: cuts.to_vec(),
    }
}

impl State {
    fn training(&self, app: &str) -> &[Input] {
        if app == SPMM {
            &self.train_matrices
        } else {
            &self.train_graphs
        }
    }

    fn test(&self, app: &str) -> &Input {
        if app == SPMM {
            &self.test_matrix
        } else {
            &self.test_graph
        }
    }

    fn search_options(&self, workers: usize) -> SearchOptions {
        SearchOptions {
            max_stages: 4,
            top_k: 4,
            compile: compile_grid::options(&self.cfg, PassConfig::all()),
            workers,
            ..SearchOptions::default()
        }
    }

    /// The profile closure `fig9`/`fig13` use, on generated inputs: gmean
    /// cycles over the training inputs under the candidate's watchdog
    /// budget, then (graph apps) one more run of the first training
    /// graph under a metrics sink for the candidate's stall profile.
    fn profile(
        &self,
        app: &str,
        cuts: &[LoadId],
        budget: &ProfileBudget,
        pass: &Mutex<Pass>,
        sim_cycles: &AtomicU64,
    ) -> (ProfileOutcome, Option<CandidateProfile>) {
        let _s = trace::span("pgo_search.candidate");
        let t0 = Instant::now();
        let mut cfg = self.cfg.clone();
        cfg.watchdog.cycle_cap = budget.cycle_cap;
        let variant = phloem_with(cuts);
        let mut cycles = Vec::new();
        let mut outcome = None;
        for input in self.training(app) {
            let end = trace::in_span("benchsuite.run", || {
                guarded(|| apps::run_app(app, &variant, input, &cfg))
            });
            match end {
                OpEnd::Ok(m) => {
                    sim_cycles.fetch_add(m.cycles, Ordering::Relaxed);
                    cycles.push(m.cycles as f64);
                }
                OpEnd::Failed { kind, detail } => {
                    outcome = Some(if kind == "trap.CycleLimit" || kind == "trap.Livelock" {
                        ProfileOutcome::TimedOut
                    } else {
                        ProfileOutcome::Trapped(detail)
                    });
                    break;
                }
                OpEnd::Mismatch(msg) => {
                    pass.lock()
                        .unwrap()
                        .mismatches
                        .push(format!("{app} {cuts:?}: {msg}"));
                    outcome = Some(ProfileOutcome::Trapped(msg));
                    break;
                }
            }
        }
        let mut stall_profile = None;
        if outcome.is_none() {
            if let Some(Input::Graph { name, graph }) = self.training(app).first() {
                stall_profile = trace::in_span("benchsuite.profile", || {
                    phloem_bench::profile_graph_app(app, &variant, graph, &cfg, name)
                });
                // Tracing never changes cycles: the re-run simulated the
                // first training graph's cycles once more.
                sim_cycles.fetch_add(cycles[0] as u64, Ordering::Relaxed);
            }
        }
        let outcome = outcome.unwrap_or_else(|| ProfileOutcome::Ok(gmean(cycles)));
        let mut p = pass.lock().unwrap();
        p.candidates += 1;
        match &outcome {
            ProfileOutcome::Ok(_) => p.op_ms.push(util::ms(t0.elapsed())),
            other => p.failed.push(format!("{app} {cuts:?}: {other:?}")),
        }
        (outcome, stall_profile)
    }

    /// Searches every kernel, then runs each winner on its test input.
    fn pass(&self, workers: usize) -> Pass {
        let pass = Mutex::new(Pass::default());
        let sim_cycles = AtomicU64::new(0);
        let mut digest = Fnv::new();
        let mut speedups = Vec::new();
        for (k, app) in KERNELS.iter().enumerate() {
            let kernel = apps::kernel(app);
            let report = search_profiled(&kernel, &self.search_options(workers), |cuts, _p, b| {
                self.profile(app, cuts, b, &pass, &sim_cycles)
            });
            let best_cuts = match report {
                Ok(r) => {
                    for c in &r.candidates {
                        digest.u64(c.train_cycles().map_or(0, f64::to_bits));
                    }
                    r.candidates[r.best].cuts.clone()
                }
                Err(e) => {
                    pass.lock()
                        .unwrap()
                        .failed
                        .push(format!("{app}: search: {e}"));
                    continue;
                }
            };
            let _s = trace::span("pgo_search.winner");
            match guarded(|| {
                apps::run_app(app, &phloem_with(&best_cuts), self.test(app), &self.cfg)
            }) {
                OpEnd::Ok(m) => {
                    sim_cycles.fetch_add(m.cycles, Ordering::Relaxed);
                    digest.u64(m.cycles);
                    speedups.push(m.speedup_over(self.serial_test_cycles[k]));
                }
                OpEnd::Failed { detail, .. } => pass
                    .lock()
                    .unwrap()
                    .failed
                    .push(format!("{app} winner: {detail}")),
                OpEnd::Mismatch(msg) => pass
                    .lock()
                    .unwrap()
                    .mismatches
                    .push(format!("{app} winner: {msg}")),
            }
        }
        let mut p = pass.into_inner().unwrap();
        p.sim_cycles = sim_cycles.into_inner();
        p.speedups = speedups;
        p.digest = util::hex(&digest);
        p
    }
}

pub struct PgoSearch;

impl Workload for PgoSearch {
    type State = State;
    const SETUPS: usize = 4;

    fn setup(ctx: &Ctx) -> State {
        let s = |tag| sub_seed(ctx.seed, tag);
        let cfg = MachineConfig::paper_1core();
        let g = trace::span("workloads.gen");
        let train_graphs = vec![
            Input::graph(
                "internet-gen",
                graph::power_law(sizes::PGO_INTERNET_VERTICES, 2, s("internet")),
            ),
            Input::graph(
                "road-ny-gen",
                graph::road_network(sizes::PGO_ROAD_SIDE, s("road-ny")),
            ),
        ];
        let train_matrices = vec![
            Input::matrix(
                "enron-gen",
                matrix::power_law_matrix(sizes::PGO_ENRON_ROWS, 10.0, s("enron")),
            ),
            Input::matrix(
                "wiki-gen",
                matrix::power_law_matrix(sizes::PGO_WIKI_ROWS, 12.5, s("wiki")),
            ),
        ];
        let test_graph = Input::graph(
            "coauthor-gen",
            graph::collaboration(sizes::PGO_COAUTHOR_COMMUNITIES, s("coauthor")),
        );
        let test_matrix = Input::matrix(
            "gnutella-gen",
            matrix::random_square(sizes::PGO_GNUTELLA_ROWS, 2.4, s("gnutella")),
        );
        drop(g);
        let mut st = State {
            cfg,
            train_graphs,
            train_matrices,
            test_graph,
            test_matrix,
            serial_test_cycles: Vec::new(),
        };
        st.serial_test_cycles = KERNELS
            .iter()
            .map(|app| {
                apps::run_app(app, &Variant::Serial, st.test(app), &st.cfg)
                    .unwrap_or_else(|t| panic!("serial {app} on its test input: {t}"))
                    .cycles
            })
            .collect();
        st
    }

    fn measure(ctx: &Ctx, st: &mut State, out: &mut Outcome) {
        let (mut ops_per_s, mut mcycles_per_s, mut op_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut reps = Reps::new(ctx, 3);
        while reps.more() {
            let t0 = Instant::now();
            let pass = st.pass(ctx.nproc);
            let wall = t0.elapsed().as_secs_f64();
            out.attempted += pass.candidates;
            for f in &pass.failed {
                eprintln!("pgo_search: {f}");
                out.fail("candidate");
            }
            for m in pass.mismatches {
                out.fail("oracle_mismatch");
                out.error(m);
            }
            let ok = pass.candidates - pass.failed.len() as u64;
            ops_per_s.push(ok as f64 / wall);
            mcycles_per_s.push(pass.sim_cycles as f64 / 1e6 / wall);
            op_ms.extend(pass.op_ms);
            out.digest("sim_cycles_digest", pass.digest);
            out.e2e(
                "pgo_speedup_gmean",
                gmean(pass.speedups.iter().copied()),
                "x",
                pass.speedups.len(),
            );
            out.counts.insert("ops_per_rep", pass.candidates);
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

    fn layers(ctx: &Ctx, st: &mut State, _spans: &[Span], out: &mut Outcome) {
        out.layer(
            "pipette.session_setup_us",
            probes::session_setup_us(&st.cfg, 2000),
            "us",
            2000,
        );

        // What `search_profiled` does before and around profiling.
        let limits = ValidateLimits {
            queues_per_core: st.cfg.max_queues,
        };
        let opts = st.search_options(ctx.nproc);
        for app in KERNELS {
            let kernel = apps::kernel(app);
            let cands = trace::in_span("phloem.enumerate", || enumerate_pipelines(&kernel, &opts));
            for (_, p) in &cands {
                trace::in_span("ir.validate", || validate_pipeline(p, &limits, "probe"))
                    .expect("candidates validate");
                trace::in_span("ir.bytecode_compile", || CompiledPipeline::new(p))
                    .expect("candidates lower");
            }
        }
        let aggs = trace::summarize(&trace::take());
        out.layer_mean_us("phloem.enumerate_us", &aggs, "phloem.enumerate");
        out.layer_mean_us("ir.validate_us", &aggs, "ir.validate");
        out.layer_mean_us("ir.bytecode_compile_us", &aggs, "ir.bytecode_compile");

        // The pool: an empty fleet for the per-task cost, then the BFS
        // candidates through `run_stats` for the scheduling counters.
        const EMPTY: usize = 20_000;
        let pool = Pool::new(ctx.nproc);
        let (_, d) = util::timed(|| pool.run(EMPTY, |i| i));
        out.layer(
            "pool.task_overhead_us",
            util::us(d) / EMPTY as f64,
            "us",
            EMPTY as u64,
        );
        let cands = enumerate_pipelines(&apps::kernel(KERNELS[0]), &opts);
        let scratch = Mutex::new(Pass::default());
        let cycles = AtomicU64::new(0);
        let budget = ProfileBudget {
            cycle_cap: opts.profile_cycle_cap,
        };
        let (_, fleet) = pool.run_stats(cands.len(), |i| {
            st.profile(KERNELS[0], &cands[i].0, &budget, &scratch, &cycles)
        });
        out.layer(
            "pool.steals",
            fleet.steals as f64,
            "count",
            cands.len() as u64,
        );
        out.layer(
            "pool.parks",
            fleet.parks as f64,
            "count",
            cands.len() as u64,
        );
        out.layer(
            "pool.timeout_wakeups",
            fleet.timeout_wakeups as f64,
            "count",
            cands.len() as u64,
        );
        // Pass wall at one worker over pass wall at nproc, per worker.
        let (_, one) = util::timed(|| st.pass(1));
        let (_, all) = util::timed(|| st.pass(ctx.nproc));
        out.layer(
            "pool.scaling_eff",
            one.as_secs_f64() / (all.as_secs_f64() * ctx.nproc as f64),
            "ratio",
            ctx.nproc as u64,
        );
        trace::take();
    }
}
