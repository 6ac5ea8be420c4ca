//! `sim_apps`: the benchsuite apps, serial and Phloem-compiled, on the
//! cycle-level simulator. Simulate-bound: the timing world and the
//! engine do nearly all the work; compiler and service are idle.

use crate::apps::{self, Input, GRAPH_APPS, SPMM};
use crate::bench::{guarded, Ctx, OpEnd, Outcome, Reps, Workload};
use crate::trace::{self, Span};
use crate::util::{self, sub_seed, Fnv, Rng};
use crate::{probes, sizes};
use phloem_benchsuite::{bfs, cc, gmean, prd, radii, spmm, Measurement, Variant};
use phloem_ir::{ExecEngine, StageKind};
use phloem_workloads::{graph, matrix};
use pipette_sim::MachineConfig;
use std::time::Instant;

struct Op {
    app: &'static str,
    input: usize,
    phloem: bool,
}

pub struct State {
    cfg: MachineConfig,
    inputs: Vec<Input>,
    /// Canonical order: app, input, serial then phloem.
    ops: Vec<Op>,
    /// The seeded order the ops run in.
    order: Vec<usize>,
}

pub struct SimApps;

fn generate(seed: u64) -> Vec<Input> {
    let _g = trace::span("workloads.gen");
    vec![
        Input::graph(
            "coauthor-gen",
            graph::collaboration(sizes::SIM_COAUTHOR_COMMUNITIES, sub_seed(seed, "coauthor")),
        ),
        Input::graph(
            "trace-gen",
            graph::mesh(sizes::SIM_TRACE_SIDE, sub_seed(seed, "trace")),
        ),
        Input::matrix(
            "gnutella-gen",
            matrix::random_square(sizes::SIM_GNUTELLA_ROWS, 2.4, sub_seed(seed, "gnutella")),
        ),
    ]
}

impl Workload for SimApps {
    type State = State;
    const SETUPS: usize = 10;

    fn setup(ctx: &Ctx) -> State {
        let inputs = generate(ctx.seed);
        let mut ops = Vec::new();
        for app in GRAPH_APPS {
            for input in 0..2 {
                for phloem in [false, true] {
                    ops.push(Op { app, input, phloem });
                }
            }
        }
        for phloem in [false, true] {
            ops.push(Op {
                app: SPMM,
                input: 2,
                phloem,
            });
        }
        let mut order: Vec<usize> = (0..ops.len()).collect();
        Rng::new(ctx.seed).shuffle(&mut order);
        State {
            cfg: MachineConfig::paper_1core(),
            inputs,
            ops,
            order,
        }
    }

    fn measure(ctx: &Ctx, st: &mut State, out: &mut Outcome) {
        let n = st.ops.len();
        out.counts.insert("ops_per_rep", n as u64);
        let (mut ops_per_s, mut mcycles_per_s, mut op_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut reps = Reps::new(ctx, 3);
        while reps.more() {
            let mut results: Vec<Option<Measurement>> = (0..n).map(|_| None).collect();
            let t0 = Instant::now();
            let mut ok = 0usize;
            for &i in &st.order {
                let op = &st.ops[i];
                let variant = if op.phloem {
                    Variant::phloem()
                } else {
                    Variant::Serial
                };
                let _s = trace::span("sim_apps.op");
                let t = Instant::now();
                out.attempted += 1;
                match guarded(|| apps::run_app(op.app, &variant, &st.inputs[op.input], &st.cfg)) {
                    OpEnd::Ok(m) => {
                        op_ms.push(util::ms(t.elapsed()));
                        results[i] = Some(m);
                        ok += 1;
                    }
                    OpEnd::Failed { kind, detail } => {
                        eprintln!("sim_apps: {} failed: {detail}", op.app);
                        out.fail(&kind);
                    }
                    OpEnd::Mismatch(msg) => {
                        out.fail("oracle_mismatch");
                        out.error(format!(
                            "{} on {}: {msg}",
                            op.app,
                            st.inputs[op.input].name()
                        ));
                    }
                }
            }
            let wall = t0.elapsed().as_secs_f64();
            let cycles: u64 = results.iter().flatten().map(|m| m.cycles).sum();
            ops_per_s.push(ok as f64 / wall);
            mcycles_per_s.push(cycles as f64 / 1e6 / wall);

            let mut digest = Fnv::new();
            for m in &results {
                digest.u64(m.as_ref().map_or(0, |m| m.cycles));
            }
            out.digest("sim_cycles_digest", util::hex(&digest));
            // Serial and phloem runs sit next to each other in `ops`.
            let speedups: Vec<f64> = results
                .chunks(2)
                .filter_map(|pair| match pair {
                    [Some(s), Some(p)] => Some(p.speedup_over(s.cycles)),
                    _ => None,
                })
                .collect();
            out.e2e(
                "sim_speedup_gmean",
                gmean(speedups.iter().copied()),
                "x",
                speedups.len(),
            );
            if reps.done == 1 {
                out.counts.insert("sim_cycles_per_rep", cycles);
                if ctx.trace {
                    simulated_counters(&results, wall, out);
                }
            }
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

    fn layers(_ctx: &Ctx, st: &mut State, _spans: &[Span], out: &mut Outcome) {
        let (g, a, bt) = match (&st.inputs[0], &st.inputs[2]) {
            (Input::Graph { graph, .. }, Input::Matrix { a, bt, .. }) => (graph, a, bt),
            _ => unreachable!("generate() fixes the input kinds"),
        };
        let flat = probes::interp_ns_per_atom(ExecEngine::Flat, g, a, bt, 3);
        let tree = probes::interp_ns_per_atom(ExecEngine::Tree, g, a, bt, 3);
        let world = probes::world_ns_per_atom(&st.cfg, g, a, bt, 3);
        out.layer("ir.flat_ns_per_atom", flat.ns_per_atom, "ns", flat.atoms);
        out.layer("ir.tree_ns_per_atom", tree.ns_per_atom, "ns", tree.atoms);
        out.layer("pipette.ns_per_atom", world.ns_per_atom, "ns", world.atoms);
        out.layer(
            "pipette.world_over_interp_ratio",
            world.ns_per_atom / flat.ns_per_atom,
            "x",
            1,
        );
        out.layer(
            "pipette.session_setup_us",
            probes::session_setup_us(&st.cfg, 2000),
            "us",
            2000,
        );

        // Host-side driver cost that is neither simulator nor engine.
        let (_, d) = util::timed(|| {
            std::hint::black_box(bfs::build_mem(g, 0, 1));
            std::hint::black_box(cc::build_mem(g, 1));
            std::hint::black_box(prd::build_mem(g, 1));
            std::hint::black_box(radii::build_mem(g, 1));
            std::hint::black_box(spmm::build_mem(a, bt, 1));
        });
        out.layer("benchsuite.build_mem_ms", util::ms(d), "ms", 5);
        let (_, d) = util::timed(|| {
            std::hint::black_box(g.bfs_distances(0));
            std::hint::black_box(cc::oracle(g));
            std::hint::black_box(prd::oracle(g));
            std::hint::black_box(radii::oracle(g));
            std::hint::black_box(spmm::oracle(a, bt));
        });
        out.layer("benchsuite.oracle_ms", util::ms(d), "ms", 5);

        // What the static compiler delivered for the five kernels.
        let (mut stages, mut queues, mut ras, mut shortfall) = (0u64, 0u64, 0u64, 0u64);
        for app in GRAPH_APPS.iter().copied().chain([SPMM]) {
            let p = phloem_compiler::compile_static(
                &apps::kernel(app),
                4,
                &crate::compile_grid::options(&st.cfg, phloem_compiler::PassConfig::all()),
            )
            .expect("benchsuite kernels compile");
            let compute = p.compute_stages() as u64;
            stages += p.stages.len() as u64;
            queues += p.num_queues as u64;
            ras += p
                .stages
                .iter()
                .filter(|s| matches!(s.kind, StageKind::Ra(_)))
                .count() as u64;
            shortfall += 4u64.saturating_sub(compute);
        }
        out.layer("phloem.stages_out", stages as f64, "count", 5);
        out.layer("phloem.queues_out", queues as f64, "count", 5);
        out.layer("phloem.ras_out", ras as f64, "count", 5);
        out.layer("phloem.stage_shortfall", shortfall as f64, "count", 5);
    }
}

/// Simulated statistics of one sweep, summed over its ops. A change that
/// only speeds the simulator up must leave every one identical.
fn simulated_counters(results: &[Option<Measurement>], wall_s: f64, out: &mut Outcome) {
    let ms: Vec<&Measurement> = results.iter().flatten().collect();
    let n = ms.len() as u64;
    let sum = |f: &dyn Fn(&Measurement) -> u64| ms.iter().map(|m| f(m)).sum::<u64>() as f64;
    let threads = |f: &dyn Fn(&pipette_sim::ThreadStats) -> u64| {
        ms.iter()
            .flat_map(|m| m.stats.threads.iter())
            .map(f)
            .sum::<u64>() as f64
    };
    let cycles = sum(&|m| m.cycles);
    let ops = sum(&|m| m.stats.total_ops());
    let accesses = sum(&|m| m.stats.cache.total()).max(1.0);
    out.layer("pipette.host_ns_per_cycle", wall_s * 1e9 / cycles, "ns", n);
    out.layer("pipette.host_ns_per_uop", wall_s * 1e9 / ops, "ns", n);
    out.layer(
        "pipette.invocations",
        sum(&|m| m.stats.invocations),
        "count",
        n,
    );
    out.layer("pipette.sim_cycles", cycles, "cycles", n);
    out.layer("pipette.ipc", ops / cycles, "ops/cycle", n);
    out.layer(
        "pipette.l1_hit_rate",
        sum(&|m| m.stats.cache.l1_hits) / accesses,
        "ratio",
        n,
    );
    out.layer(
        "pipette.l2_hit_rate",
        sum(&|m| m.stats.cache.l2_hits) / accesses,
        "ratio",
        n,
    );
    out.layer(
        "pipette.l3_hit_rate",
        sum(&|m| m.stats.cache.l3_hits) / accesses,
        "ratio",
        n,
    );
    out.layer(
        "pipette.dram_accesses",
        sum(&|m| m.stats.cache.mem_accesses),
        "count",
        n,
    );
    out.layer(
        "pipette.mispredict_rate",
        threads(&|t| t.mispredicts) / threads(&|t| t.branches).max(1.0),
        "ratio",
        n,
    );
    out.layer(
        "pipette.queue_full_stall_cycles",
        threads(&|t| t.queue_full_stall_cycles),
        "cycles",
        n,
    );
    out.layer(
        "pipette.queue_empty_stall_cycles",
        threads(&|t| t.queue_empty_stall_cycles),
        "cycles",
        n,
    );
    out.layer(
        "pipette.backend_stall_cycles",
        threads(&|t| t.backend_stall_cycles),
        "cycles",
        n,
    );
    out.layer(
        "pipette.frontend_stall_cycles",
        threads(&|t| t.frontend_stall_cycles),
        "cycles",
        n,
    );
    out.layer(
        "pipette.ra_uops",
        threads(&|t| if t.is_ra { t.uops + t.loads } else { 0 }),
        "count",
        n,
    );
    out.layer(
        "pipette.energy_total",
        ms.iter().map(|m| m.stats.energy.total_pj()).sum::<f64>() / 1e6,
        "uJ",
        n,
    );
}
