//! Differential equality harness for the native backend: the same
//! compiled pipeline must produce the same final memory on
//!
//! * the serial interpreter (the functional oracle, original kernel),
//! * the cycle-level simulator, and
//! * the native thread backend — across thread counts {1, 2, 4} and
//!   repeated runs (determinism).
//!
//! The reference is the serial oracle at every point; every native
//! queue is an SPSC ring, so there is no channel axis to sweep.
//!
//! App-level coverage drives the whole benchsuite (BFS, CC, Radii, PRD,
//! SpMM, and the four taco kernels) through their public `run()` entry
//! points under an ambient native [`BackendScope`]; each app asserts
//! its own host oracle internally, so a native-vs-serial divergence
//! panics inside the run. The graph apps' Fig. 14 replicated
//! pipelines are the fan-in coverage: their queues with several
//! producers are the only ones that take the native send lock.
//!
//! Under a native scope with a fixed worker count the apps compile to
//! at most one stage per worker; `static_pipelines_fit_their_workers`
//! pins that fitting and runs every app's unfitted pipeline folded onto
//! fewer workers against the same oracles, and
//! `fitted_stages_commit_no_more_than_the_kernel` holds each fitted
//! stage to the ops of the serial kernel it came from.

use phloem_benchsuite::apps::{Input, APPS};
use phloem_benchsuite::fig14::{self, RepVariant};
use phloem_benchsuite::{bfs, cc, prd, radii, spmm, taco, with_backend, Variant};
use phloem_compiler::{analyze, decouple_with_cuts, PassConfig};
use phloem_ir::{interp, queue_topology, Pipeline, Value};
use phloem_workloads::{catalog, graph, matrix, Graph, Scale};
use pipette_sim::{ExecBackend, MachineConfig, NativeConfig, Session};

fn native(threads: usize) -> ExecBackend {
    ExecBackend::Native(NativeConfig { threads })
}

const THREADS: [usize; 3] = [1, 2, 4];

/// One BFS fringe round, pinned across all three substrates at two
/// input scales × thread counts {1,2,4}, with
/// three repeated native runs per point (run-to-run determinism).
#[test]
fn bfs_round_memory_equality_full_matrix() {
    let cfg = MachineConfig::paper_1core();
    for (scale, g) in [
        ("mesh", graph::mesh(8, 3)),
        ("power-law", graph::power_law(300, 4, 9)),
    ] {
        let pipeline =
            bfs::pipeline_for(&Variant::phloem(), g.num_vertices, &cfg).expect("compile");
        let (mem, _) = bfs::build_mem(&g, 0, 1);
        let params = [("cur_dist", Value::I64(1))];

        // Serial interpreter: the original kernel, functional world.
        let oracle = interp::run_serial(&bfs::kernel(), mem.clone(), &params)
            .expect("serial oracle")
            .mem;

        // Simulator.
        let mut sim = Session::new(cfg.clone(), mem.clone());
        sim.run(&pipeline, &params).expect("sim run");
        let (sim_mem, _) = sim.finish();
        assert!(
            sim_mem.same_contents(&oracle),
            "{scale}: simulator diverged from the serial interpreter"
        );

        // Native: threads × 3 repeats.
        for threads in THREADS {
            let mut first: Option<phloem_ir::MemState> = None;
            for rep in 0..3 {
                let mut s = Session::new(cfg.clone(), mem.clone());
                s.set_backend(native(threads));
                s.run(&pipeline, &params)
                    .unwrap_or_else(|e| panic!("{scale} t{threads} rep{rep}: {e}"));
                let (nmem, stats) = s.finish();
                assert!(
                    nmem.same_contents(&oracle),
                    "{scale} t{threads} rep{rep}: native diverged from oracle"
                );
                assert_eq!(stats.invocations, 1);
                match &first {
                    None => first = Some(nmem),
                    Some(f) => assert!(
                        nmem.same_contents(f),
                        "{scale} t{threads} rep{rep}: nondeterministic native run"
                    ),
                }
            }
        }
    }
}

/// Graph apps (BFS, CC, Radii, PRD) end-to-end — host-driven rounds to
/// convergence — natively, at every thread count.
/// Every `run()` asserts its host oracle internally, so reaching the
/// end *is* the equality check against serial semantics.
#[test]
fn graph_apps_converge_natively_across_the_matrix() {
    let cfg = MachineConfig::paper_1core();
    let g = graph::collaboration(40, 2);
    for threads in THREADS {
        with_backend(native(threads), || {
            for v in [Variant::Serial, Variant::phloem(), Variant::Manual] {
                let label = format!("t{threads} {}", v.label());
                bfs::run(&v, &g, 0, &cfg, "collab").unwrap_or_else(|e| panic!("bfs {label}: {e}"));
                cc::run(&v, &g, &cfg, "collab").unwrap_or_else(|e| panic!("cc {label}: {e}"));
            }
            let v = Variant::phloem();
            radii::run(&v, &g, &cfg, "collab").unwrap_or_else(|e| panic!("radii: {e}"));
            prd::run(&v, &g, &cfg, "collab").unwrap_or_else(|e| panic!("prd: {e}"));
        });
    }
}

/// Sparse kernels (SpMM and the four taco apps) natively on two
/// workers (threads pinned to bound runtime; the thread dimension is
/// covered by the graph apps above).
#[test]
fn sparse_kernels_run_natively_on_two_workers() {
    let cfg = MachineConfig::paper_1core();
    let a = matrix::random_square(24, 3.0, 5);
    let bt = a.transpose();
    with_backend(native(2), || {
        for v in [Variant::Serial, Variant::phloem(), Variant::Manual] {
            spmm::run(&v, &a, &bt, &cfg, "rand")
                .unwrap_or_else(|e| panic!("spmm {}: {e}", v.label()));
        }
        for app in taco::TacoApp::all() {
            taco::run(app, &Variant::phloem(), &a, &cfg, "rand")
                .unwrap_or_else(|e| panic!("taco {app:?}: {e}"));
        }
    });
}

/// Fan-in queues end to end: every graph app's Fig. 14 replicated
/// pipeline (both variants, four replicas) on the native backend at one
/// worker, two workers and one thread per stage. Each run checks its
/// host oracle. Each of these pipelines has a queue with several
/// producing stages, whose native senders share one lock instead of
/// keeping private cursors.
#[test]
fn replicated_fan_in_pipelines_run_natively() {
    let cfg = MachineConfig::paper_multicore(4);
    let g = graph::power_law(300, 3, 3);
    for v in [RepVariant::Phloem, RepVariant::Manual] {
        for p in [
            fig14::bfs_replicated(4, v),
            fig14::cc_replicated(4, v),
            fig14::radii_replicated(4, v),
            fig14::prd_scatter_replicated(4, v),
        ] {
            let fan_in = queue_topology(&p).iter().any(|q| q.producers.len() > 1);
            assert!(
                fan_in,
                "{v:?}: a replicated pipeline without a fan-in queue"
            );
        }
    }
    for threads in [1, 2, 0] {
        with_backend(native(threads), || {
            for app in APPS.iter().filter(|a| a.runs_on_graphs()) {
                for v in [RepVariant::Phloem, RepVariant::Manual] {
                    app.run_replicated(v, Input::Graph(&g), &cfg, "pl300")
                        .unwrap_or_else(|e| panic!("{} {v:?} t{threads}: {e}", app.name()));
                }
            }
        });
    }
}

/// The ambient scope routes *sessions created inside it*; a session
/// created outside keeps simulating, and `set_backend` overrides the
/// inherited value — the precedence contract services rely on.
#[test]
fn backend_scope_inheritance_and_override() {
    let cfg = MachineConfig::paper_1core();
    let g = graph::mesh(6, 1);
    let pipeline = bfs::pipeline_for(&Variant::phloem(), g.num_vertices, &cfg).expect("compile");
    let (mem, _) = bfs::build_mem(&g, 0, 1);
    let params = [("cur_dist", Value::I64(1))];

    // Inherited: native sessions report wall-clock (tiny), not simulated
    // cycles (hundreds+ for this pipeline would also pass — so instead
    // pin the backend getter).
    with_backend(native(2), || {
        let s = Session::new(cfg.clone(), mem.clone());
        assert!(matches!(s.backend(), ExecBackend::Native(_)));
    });
    let mut outside = Session::new(cfg.clone(), mem.clone());
    assert!(matches!(outside.backend(), ExecBackend::Sim));
    outside.set_backend(native(1));
    outside.run(&pipeline, &params).expect("override run");
    let (m1, _) = outside.finish();

    let oracle = interp::run_serial(&bfs::kernel(), mem, &params)
        .expect("oracle")
        .mem;
    assert!(m1.same_contents(&oracle));
}

/// Each C-path app's static Phloem pipeline (PRD: its scatter phase),
/// built with whatever backend is ambient.
fn static_pipelines(g: &Graph, cfg: &MachineConfig) -> [Pipeline; 5] {
    let v = Variant::phloem();
    [
        bfs::pipeline_for(&v, g.num_vertices, cfg).expect("bfs"),
        cc::pipeline_for(&v, cc::segment(g), cfg).expect("cc"),
        prd::pipelines_for(&v, g.num_vertices, cfg).expect("prd").0,
        radii::pipeline_for(&v, radii::segment(g), cfg).expect("radii"),
        spmm::pipeline_for(&v, cfg).expect("spmm"),
    ]
}

/// Fused vs unfused. Under `Native { threads: w }` every app compiles
/// to at most `w` stages — the cost model's best `w - 1` cuts, the
/// fused boundaries left as locals — and to its full static pipeline
/// under `threads: 0` or no scope. The unfitted pipelines, pinned by
/// their cuts, still run folded onto one and two workers to the serial
/// oracle's memory (each `run` checks it), so `i % threads` folding
/// stays covered at app level.
#[test]
fn static_pipelines_fit_their_workers() {
    let cfg = MachineConfig::paper_1core();
    let g = graph::collaboration(40, 2);
    let a = matrix::random_square(24, 3.0, 5);
    let bt = a.transpose();
    let shape = |ps: &[Pipeline]| -> Vec<(usize, u16)> {
        ps.iter().map(|p| (p.stages.len(), p.num_queues)).collect()
    };
    // (stages, queues) in APPS order: BFS, CC, PRD, Radii, SpMM.
    let full = [(4, 3), (4, 4), (4, 4), (4, 5), (2, 2)];
    let unfitted = static_pipelines(&g, &cfg);
    assert_eq!(shape(&unfitted), full);
    let per_stage = with_backend(native(0), || static_pipelines(&g, &cfg));
    assert_eq!(shape(&per_stage), full);
    for w in THREADS {
        let fitted = shape(&with_backend(native(w), || static_pipelines(&g, &cfg)));
        let stages: Vec<usize> = fitted.iter().map(|&(s, _)| s).collect();
        let want: Vec<usize> = full.iter().map(|&(s, _)| s.min(w)).collect();
        assert_eq!(stages, want, "{w} workers");
        match w {
            1 => assert_eq!(fitted, [(1, 0); 5]),
            2 => assert_eq!(fitted, [(2, 1), (2, 2), (2, 2), (2, 2), (2, 2)]),
            _ => {}
        }
    }

    for (app, pipeline) in APPS.iter().zip(&unfitted) {
        let kernel = app.kernel();
        let mut cuts = analyze(&kernel).candidates();
        cuts.truncate(pipeline.stages.len() - 1);
        let opts = phloem_benchsuite::runner::compile_options(&cfg, PassConfig::all());
        let pinned_ir = decouple_with_cuts(&kernel, &cuts, &opts).expect("pinned cuts");
        assert_eq!(format!("{pinned_ir:?}"), format!("{pipeline:?}"));
        let pinned = Variant::Phloem {
            passes: PassConfig::all(),
            stages: 4,
            cuts,
        };
        let input = if app.runs_on_graphs() {
            Input::Graph(&g)
        } else {
            Input::Matrix(&a, &bt)
        };
        for w in [1, 2] {
            let (ran, _) = with_backend(native(w), || app.run(&pinned, input, &cfg, "fold", None));
            let m = ran.unwrap_or_else(|e| panic!("{} folded onto {w}: {e}", app.name()));
            assert_eq!(
                m.stats.threads.len(),
                pipeline.stages.len(),
                "{}",
                app.name()
            );
        }
    }
}

/// No stage does more than the kernel. On the first invocation of each
/// app over its first tiny test input, the one-stage pipeline a single
/// worker runs commits exactly the serial kernel's ops (the compiler's
/// clean-up folds the normaliser's temporaries and loop rotation back
/// out), and each stage of the two-worker pipeline commits at most that
/// many.
#[test]
fn fitted_stages_commit_no_more_than_the_kernel() {
    let cfg = MachineConfig::paper_1core();
    let g = catalog::test_graphs(Scale::Tiny).remove(0).graph;
    let a = catalog::spmm_test_matrices(Scale::Tiny).remove(0).matrix;
    let bt = a.transpose();
    let one = Value::I64(1);
    let n = Value::I64(a.rows as i64);
    // (kernel, memory, parameters) of each app's first invocation, in
    // APPS order: BFS, CC, PRD's scatter phase, Radii, SpMM.
    let invocations = [
        (
            bfs::kernel(),
            bfs::build_mem(&g, 0, 1).0,
            vec![("cur_dist", one)],
        ),
        (cc::kernel(), cc::build_mem(&g, 1).0, vec![]),
        (prd::scatter_kernel(), prd::build_mem(&g, 1).0, vec![]),
        (
            radii::kernel(),
            radii::build_mem(&g, 1).0,
            vec![("round", one)],
        ),
        (
            spmm::kernel(),
            spmm::build_mem(&a, &bt, 1).0,
            vec![("n", n)],
        ),
    ];
    let fitted = |w| with_backend(native(w), || static_pipelines(&g, &cfg));
    let (one_stage, two_stage) = (fitted(1), fitted(2));
    for (i, (kernel, mem, params)) in invocations.iter().enumerate() {
        let name = APPS[i].name();
        let serial = interp::run_serial(kernel, mem.clone(), params)
            .unwrap_or_else(|e| panic!("{name} serial: {e}"))
            .total()
            .total();
        let stage_ops = |p: &Pipeline| -> Vec<u64> {
            let run = interp::run_pipeline(p, mem.clone(), params, cfg.queue_capacity)
                .unwrap_or_else(|e| panic!("{name} pipeline: {e}"));
            run.counts.iter().map(|c| c.total()).collect()
        };
        assert_eq!(stage_ops(&one_stage[i]), [serial], "{name}: one stage");
        let two = stage_ops(&two_stage[i]);
        assert_eq!(two.len(), 2, "{name}: two stages");
        assert!(
            two.iter().all(|&ops| ops <= serial),
            "{name}: a stage of {two:?} commits more than the kernel's {serial}"
        );
    }
}
