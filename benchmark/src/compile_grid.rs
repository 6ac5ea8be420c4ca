//! `compile_grid`: source to runnable pipeline, single thread, nothing
//! simulated. Compiler-bound: `frontend`, `taco`, `phloem`,
//! `ir::bytecode` and `ir::validate` do all the work.

use crate::bench::{keep_latency, Ctx, Outcome, Reps, Workload};
use crate::trace::{self, Span};
use crate::util::{self, sub_seed, Fnv, Rng};
use crate::{apps, sizes};
use phloem_benchsuite::taco::TacoApp;
use phloem_benchsuite::{bfs, cc, prd, radii, spmm};
use phloem_compiler::replicate::{replicate, ReplicateSpec};
use phloem_compiler::search::{enumerate_pipelines, SearchOptions};
use phloem_compiler::{analyze, compile_static, decouple_with_cuts, CompileOptions, PassConfig};
use phloem_ir::{
    bytecode, interp, validate_pipeline, ArrayDecl, Function, MemState, Pipeline, StageKind,
    ValidateLimits, Value,
};
use phloem_workloads::{graph, matrix};
use pipette_sim::{CompiledPipeline, MachineConfig};
use std::collections::BTreeSet;
use std::time::Instant;

const BFS_C: &str = r#"
    #pragma phloem
    void bfs_round(long cur_dist,
                   int* restrict fringe, int* restrict nodes,
                   int* restrict edges, int* restrict dist,
                   int* restrict next_fringe, int* restrict fringe_len,
                   int* restrict out_len) {
        long nl = fringe_len[0];
        long len = 0;
        for (long i = 0; i < nl; i++) {
            long v = fringe[i];
            long s = nodes[v];
            long e = nodes[v + 1];
            for (long j = s; j < e; j++) {
                long ngh = edges[j];
                long od = dist[ngh];
                if (od > cur_dist) {
                    dist[ngh] = cur_dist;
                    next_fringe[len] = ngh;
                    len++;
                }
            }
        }
        out_len[0] = len;
    }
"#;

const GATHER_C: &str = r#"
    #pragma phloem
    void gather(long n, int* restrict a, int* restrict b, int* restrict out) {
        long acc = 0;
        for (long i = 0; i < n; i++) {
            long x = a[i];
            long y = b[x];
            acc += y;
        }
        out[0] = acc;
    }
"#;

const HISTOGRAM_C: &str = r#"
    #pragma phloem
    #pragma replicate(4)
    #pragma distribute
    void histogram(long n, int* restrict keys, int* restrict buckets) {
        for (long i = 0; i < n; i++) {
            long k = keys[i];
            buckets[k] += 1;
        }
    }
"#;

const C_SOURCES: [&str; 3] = [BFS_C, GATHER_C, HISTOGRAM_C];

pub fn presets() -> [PassConfig; 7] {
    [
        PassConfig::all(),
        PassConfig::queues_only(),
        PassConfig::with_recompute(),
        PassConfig::with_cv(),
        PassConfig::with_dce(),
        PassConfig::with_handlers(),
        PassConfig::all_streaming(),
    ]
}

pub fn options(cfg: &MachineConfig, passes: PassConfig) -> CompileOptions {
    CompileOptions {
        passes,
        smt_threads: cfg.smt_threads,
        max_queues: cfg.max_queues,
        max_ras: cfg.ras_per_core,
        start_core: 0,
    }
}

/// One source and how it becomes pipelines.
enum Source {
    /// A builder kernel through `compile_static`.
    Kernel {
        kernel: usize,
        opts: CompileOptions,
        stages: usize,
    },
    /// PhloemC text through `compile_c_source`.
    C { src: usize, opts: CompileOptions },
    /// A tensor expression through `taco_mini::compile`, each phase
    /// through `compile_static`.
    Taco { app: TacoApp, opts: CompileOptions },
}

pub struct State {
    cfg: MachineConfig,
    kernels: Vec<(&'static str, Function)>,
    ops: Vec<Source>,
    order: Vec<usize>,
    /// Digest of every pipeline of one round, pretty-printed, in
    /// canonical order; each was checked against the serial source.
    compile_digest: String,
    distinct: usize,
}

/// Compiles one source; returns its pipelines, each already lowered to
/// bytecode (the runnable artefact).
fn compile_op(st: &State, op: &Source) -> Result<Vec<Pipeline>, String> {
    let pipes = match op {
        Source::Kernel {
            kernel,
            opts,
            stages,
        } => {
            let p = trace::in_span("phloem.compile_static", || {
                compile_static(&st.kernels[*kernel].1, *stages, opts)
            })
            .map_err(|e| e.to_string())?;
            vec![p]
        }
        Source::C { src, opts } => trace::in_span("suite.compile_c_source", || {
            phloem_suite::compile_c_source(C_SOURCES[*src], opts)
        })
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|(_, p)| p)
        .collect(),
        Source::Taco { app, opts } => {
            // `TacoApp::kernel` is `taco_mini::compile` on the app's
            // tensor expression and formats.
            let k = trace::in_span("taco.lower", || app.kernel());
            let mut out = Vec::new();
            for phase in &k.phases {
                out.push(
                    trace::in_span("phloem.compile_static", || compile_static(phase, 4, opts))
                        .map_err(|e| e.to_string())?,
                );
            }
            out
        }
    };
    for p in &pipes {
        trace::in_span("pipette.compiled_new", || CompiledPipeline::new(p))
            .map_err(|e| e.to_string())?;
    }
    Ok(pipes)
}

/// One invocation's memory and parameters for a builder kernel.
fn kernel_input(
    name: &str,
    g: &graph::Graph,
    a: &matrix::SparseMatrix,
    bt: &matrix::SparseMatrix,
) -> (MemState, Vec<(&'static str, Value)>) {
    match name {
        "BFS" => (bfs::build_mem(g, 0, 1).0, vec![("cur_dist", Value::I64(1))]),
        "CC" => (cc::build_mem(g, 1).0, vec![]),
        "PRD" => (prd::build_mem(g, 1).0, vec![]),
        "Radii" => (radii::build_mem(g, 1).0, vec![("round", Value::I64(1))]),
        _ => (
            spmm::build_mem(a, bt, 1).0,
            vec![("n", Value::I64(a.rows as i64))],
        ),
    }
}

/// The reference check: a compiled pipeline, run functionally, must
/// leave the memory the serial source leaves.
fn agrees_with_serial(
    what: &str,
    source: &Function,
    pipe: &Pipeline,
    mem: MemState,
    params: &[(&str, Value)],
    queue_capacity: usize,
) -> Result<(), String> {
    let want = interp::run_serial(source, mem.clone(), params)
        .map_err(|t| format!("{what}: serial reference trapped: {t}"))?;
    let got = interp::run_pipeline(pipe, mem, params, queue_capacity)
        .map_err(|t| format!("{what}: pipeline trapped: {t}"))?;
    if got.mem.same_contents(&want.mem) {
        Ok(())
    } else {
        Err(format!(
            "{what}: pipeline memory differs from the serial run"
        ))
    }
}

/// Compiles every source once, checks every distinct pipeline against
/// its serial source on a Tiny seeded input, and digests the pretty-
/// printed pipelines in canonical order.
fn verify_round(st: &State, seed: u64) -> Result<(String, usize), String> {
    let gen = trace::span("workloads.gen");
    let g = graph::collaboration(sizes::GRID_CHECK_COMMUNITIES, sub_seed(seed, "grid-graph"));
    let a = matrix::random_square(sizes::GRID_CHECK_ROWS, 2.4, sub_seed(seed, "grid-matrix"));
    let bt = a.transpose();
    drop(gen);
    let qcap = st.cfg.queue_capacity;
    let mut digest = Fnv::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for op in &st.ops {
        let pipes = compile_op(st, op)?;
        let texts: Vec<String> = pipes
            .iter()
            .map(phloem_ir::pretty::pipeline_to_string)
            .collect();
        for t in &texts {
            digest.bytes(t.as_bytes());
        }
        match op {
            Source::Kernel { kernel, .. } => {
                if !seen.insert(texts[0].clone()) {
                    continue;
                }
                let (name, func) = &st.kernels[*kernel];
                let (mem, params) = kernel_input(name, &g, &a, &bt);
                agrees_with_serial(name, func, &pipes[0], mem, &params, qcap)?;
            }
            Source::C { src, .. } => {
                if !seen.insert(texts[0].clone()) {
                    continue;
                }
                let func = phloem_frontend::compile_c(C_SOURCES[*src])
                    .map_err(|e| e.to_string())?
                    .remove(0)
                    .func;
                let n = 256usize;
                let (mem, params) = match *src {
                    0 => kernel_input("BFS", &g, &a, &bt),
                    1 => {
                        let mut mem = MemState::new();
                        mem.alloc_i64(ArrayDecl::i32("a"), (0..n).map(|i| ((i * 7919) % n) as i64));
                        mem.alloc_i64(ArrayDecl::i32("b"), (0..n).map(|i| (i * 3) as i64));
                        mem.alloc(ArrayDecl::i32("out"), 1);
                        (mem, vec![("n", Value::I64(n as i64))])
                    }
                    _ => {
                        let mut mem = MemState::new();
                        mem.alloc_i64(
                            ArrayDecl::i32("keys"),
                            (0..n).map(|i| ((i * 2_654_435_761) % 16) as i64),
                        );
                        mem.alloc(ArrayDecl::i32("buckets"), 16);
                        (mem, vec![("n", Value::I64(n as i64))])
                    }
                };
                agrees_with_serial(&func.name, &func, &pipes[0], mem, &params, qcap)?;
            }
            Source::Taco { app, .. } => {
                if !seen.insert(texts.concat()) {
                    continue;
                }
                let k = app.kernel();
                let params = phloem_benchsuite::taco::params(*app, &a);
                let (mut mem, _) = phloem_benchsuite::taco::build_mem(*app, &k, &a);
                // Phases run in order; each starts from its serial
                // predecessor's memory.
                for (phase, pipe) in k.phases.iter().zip(&pipes) {
                    agrees_with_serial(app.name(), phase, pipe, mem.clone(), &params, qcap)?;
                    mem = interp::run_serial(phase, mem, &params)
                        .map_err(|t| t.to_string())?
                        .mem;
                }
            }
        }
    }
    Ok((util::hex(&digest), seen.len()))
}

pub struct CompileGrid;

impl Workload for CompileGrid {
    type State = State;
    const SETUPS: usize = 6;

    fn setup(ctx: &Ctx) -> State {
        let cfg = MachineConfig::paper_1core();
        let kernels: Vec<(&'static str, Function)> = apps::GRAPH_APPS
            .iter()
            .copied()
            .chain([apps::SPMM])
            .map(|app| (app, apps::kernel(app)))
            .collect();
        let mut ops = Vec::new();
        for kernel in 0..kernels.len() {
            for passes in presets() {
                for stages in 2..=4 {
                    ops.push(Source::Kernel {
                        kernel,
                        opts: options(&cfg, passes),
                        stages,
                    });
                }
            }
        }
        for src in 0..C_SOURCES.len() {
            // The replicated source needs its boundary on a compute
            // stage, which the handler preset gives.
            let passes = if src == 2 {
                PassConfig::with_handlers()
            } else {
                PassConfig::all()
            };
            ops.push(Source::C {
                src,
                opts: options(&cfg, passes),
            });
        }
        for app in TacoApp::all() {
            ops.push(Source::Taco {
                app,
                opts: options(&cfg, PassConfig::all()),
            });
        }
        let mut order: Vec<usize> = (0..ops.len()).collect();
        Rng::new(ctx.seed).shuffle(&mut order);
        let mut st = State {
            cfg,
            kernels,
            ops,
            order,
            compile_digest: String::new(),
            distinct: 0,
        };
        let (digest, distinct) =
            verify_round(&st, ctx.seed).unwrap_or_else(|e| panic!("compile_grid set-up: {e}"));
        st.compile_digest = digest;
        st.distinct = distinct;
        st
    }

    fn measure(ctx: &Ctx, st: &mut State, out: &mut Outcome) {
        let rounds = sizes::GRID_ROUNDS_PER_REP;
        out.counts.insert("ops_per_round", st.ops.len() as u64);
        out.counts
            .insert("ops_per_rep", (st.ops.len() * rounds) as u64);
        out.counts.insert("distinct_pipelines", st.distinct as u64);
        out.digest("compile_digest", st.compile_digest.clone());
        let (mut ops_per_s, mut op_ms) = (Vec::new(), Vec::new());
        let mut reps = Reps::new(ctx, 3);
        while reps.more() {
            let t0 = Instant::now();
            let mut ok = 0usize;
            for &i in st.order.iter().cycle().take(st.order.len() * rounds) {
                let _s = trace::span("compile_grid.op");
                let t = Instant::now();
                out.attempted += 1;
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    compile_op(st, &st.ops[i])
                }));
                match r {
                    Ok(Ok(pipes)) => {
                        std::hint::black_box(pipes);
                        keep_latency(&mut op_ms, util::ms(t.elapsed()));
                        ok += 1;
                    }
                    Ok(Err(e)) => {
                        eprintln!("compile_grid: op {i} failed: {e}");
                        out.fail("compile_error");
                    }
                    Err(p) => {
                        eprintln!("compile_grid: op {i} panicked: {}", util::panic_text(p));
                        out.fail("panic");
                    }
                }
            }
            ops_per_s.push(ok as f64 / t0.elapsed().as_secs_f64());
        }
        out.counts.insert("reps", reps.done as u64);
        // The compiler must still produce what set-up verified.
        match verify_round(st, ctx.seed) {
            Ok((digest, _)) => out.digest("compile_digest", digest),
            Err(e) => out.error(e),
        }
        out.throughput(&ops_per_s, &op_ms);
    }

    fn layers(_ctx: &Ctx, st: &mut State, spans: &[Span], out: &mut Outcome) {
        let aggs = trace::summarize(spans);
        out.layer_mean_us("phloem.compile_static_us", &aggs, "phloem.compile_static");
        out.layer_mean_us("taco.lower_us", &aggs, "taco.lower");
        out.layer(
            "bench.op_child_coverage",
            trace::child_coverage(spans, "compile_grid.op"),
            "ratio",
            aggs.get("compile_grid.op").map_or(0, |a| a.count),
        );

        // Calls the timed ops make only inside `compile_static` or
        // `compile_c_source`, probed directly on the same sources.
        const ROUNDS: usize = 20;
        let limits = ValidateLimits {
            queues_per_core: st.cfg.max_queues,
        };
        let opts = options(&st.cfg, PassConfig::all());
        let search = SearchOptions {
            max_stages: 4,
            top_k: 4,
            compile: opts.clone(),
            ..SearchOptions::default()
        };
        let mut tokens = 0u64;
        let mut lex_ns = 0u64;
        for _ in 0..ROUNDS {
            for (_, k) in &st.kernels {
                let a = trace::in_span("phloem.analyze", || analyze(k));
                std::hint::black_box(trace::in_span("phloem.normalize", || {
                    phloem_compiler::normalize::normalize(k)
                }));
                let cuts: Vec<_> = a.candidates().into_iter().take(1).collect();
                let p = trace::in_span("phloem.decouple_with_cuts", || {
                    decouple_with_cuts(k, &cuts, &opts)
                })
                .expect("the top candidate alone is a legal cut");
                std::hint::black_box(trace::in_span("phloem.enumerate", || {
                    enumerate_pipelines(k, &search)
                }));
                trace::in_span("ir.validate", || validate_pipeline(&p, &limits, "probe"))
                    .expect("compiled pipelines validate");
                for s in &p.stages {
                    trace::in_span("ir.bytecode_compile", || {
                        bytecode::compile(&s.program.func, &s.program.handlers)
                    })
                    .expect("compiled stages lower");
                }
            }
            let template = compile_static(
                &st.kernels[0].1,
                4,
                &options(&st.cfg, PassConfig::with_handlers()),
            )
            .expect("BFS compiles with handlers");
            trace::in_span("phloem.replicate", || {
                replicate(
                    &template,
                    &ReplicateSpec {
                        replicas: 4,
                        distribute: Vec::new(),
                        partition_input: true,
                    },
                )
            })
            .expect("BFS replicates");
            for src in C_SOURCES {
                let t = Instant::now();
                tokens += phloem_frontend::lex(src).expect("sources lex").len() as u64;
                lex_ns += t.elapsed().as_nanos() as u64;
                trace::in_span("frontend.parse", || phloem_frontend::compile_c(src))
                    .expect("sources parse");
            }
        }
        let probes = trace::summarize(&trace::take());
        for (metric, span) in [
            ("phloem.analyze_us", "phloem.analyze"),
            ("phloem.normalize_us", "phloem.normalize"),
            ("phloem.decouple_with_cuts_us", "phloem.decouple_with_cuts"),
            ("phloem.replicate_us", "phloem.replicate"),
            ("phloem.enumerate_us", "phloem.enumerate"),
            ("ir.validate_us", "ir.validate"),
            ("ir.bytecode_compile_us", "ir.bytecode_compile"),
            ("frontend.parse_us", "frontend.parse"),
        ] {
            out.layer_mean_us(metric, &probes, span);
        }
        out.layer(
            "frontend.tokens_per_s",
            tokens as f64 / (lex_ns as f64 / 1e9),
            "1/s",
            tokens,
        );

        // Sizes of what one round emits: deterministic.
        let (mut stages, mut queues, mut ras, mut shortfall, mut instrs) = (0u64, 0, 0, 0, 0);
        for op in &st.ops {
            let pipes = compile_op(st, op).expect("ops compiled during the timed section");
            for p in &pipes {
                stages += p.stages.len() as u64;
                queues += p.num_queues as u64;
                ras += p
                    .stages
                    .iter()
                    .filter(|s| matches!(s.kind, StageKind::Ra(_)))
                    .count() as u64;
                for s in &p.stages {
                    instrs += bytecode::compile(&s.program.func, &s.program.handlers)
                        .expect("stage lowers")
                        .len() as u64;
                }
            }
            if let Source::Kernel { stages: want, .. } = op {
                shortfall += (*want as u64).saturating_sub(pipes[0].compute_stages() as u64);
            }
        }
        trace::take();
        let n = st.ops.len() as u64;
        out.layer("phloem.stages_out", stages as f64, "count", n);
        out.layer("phloem.queues_out", queues as f64, "count", n);
        out.layer("phloem.ras_out", ras as f64, "count", n);
        out.layer("phloem.stage_shortfall", shortfall as f64, "count", n);
        out.layer("ir.bytecode_instrs", instrs as f64, "count", n);
    }
}
