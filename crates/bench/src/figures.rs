//! The paper's tables and figures. Each function runs its experiment
//! and returns what it prints as [`Figure`]s — one per `== title ==`
//! block: the lines (data lines carry their numbers), the failures the
//! sweep absorbed, the paper's reported shape — and [`render`] is the
//! one printer. The `figures` binary maps names to these functions;
//! progress goes to stderr.
//!
//! Every speedup figure (6, 9, 12, 14) is built from `guarded_row`:
//! the serial baseline, then each variant guarded, so one trapping
//! pipeline costs its own cell (1.00x, reported in a footer) and not
//! the figure. Figs. 9, 10 and 11 read one [`Fig9Matrix`]; Figs. 9 and
//! 13 read one PGO search per app (`pgo_for_app`).

use phloem_benchsuite::apps::{Input, APPS};
use phloem_benchsuite::fig14::RepVariant;
use phloem_benchsuite::taco::{self, TacoApp};
use phloem_benchsuite::{bfs, gmean, run_guarded, Measurement, Variant};
use phloem_compiler::search::{ProfileOutcome, SearchError, SearchReport};
use phloem_compiler::PassConfig;
use phloem_ir::Trap;
use phloem_workloads::{
    graph, spmm_test_matrices, spmm_training_matrices, taco_test_matrices, test_graphs,
    training_graphs,
};
use pipette_sim::{MachineConfig, RunStats, StallKind};

use crate::{app, machine, machine4, pgo_for_app, phloem_with_cuts, scale, GRAPH_APPS};

/// One `== title ==` block of a figure's output.
#[derive(Default)]
pub struct Figure {
    /// The title line.
    pub title: String,
    /// The body, one printed line each.
    pub rows: Vec<Row>,
    /// Variants that trapped or panicked and were replaced by the serial
    /// baseline (`guarded_row`); printed as a footer when not empty.
    pub failures: Vec<String>,
    /// The shape the paper reports, printed last after a blank line.
    pub note: &'static str,
}

/// One printed line; a data line also carries what it shows.
#[derive(Default)]
pub struct Row {
    /// The line as printed.
    pub text: String,
    /// What the numbers are of (`BFS`, `CC/manual`); empty on a text line.
    pub label: String,
    /// The numbers on the line, left to right.
    pub values: Vec<f64>,
}

impl From<String> for Row {
    fn from(text: String) -> Row {
        Row {
            text,
            ..Row::default()
        }
    }
}

/// The figures as the `figures` binary prints them.
pub fn render(figures: &[Figure]) -> String {
    let mut out = String::new();
    for f in figures {
        out += &format!("\n== {} ==\n", f.title);
        f.rows.iter().for_each(|r| out += &format!("{}\n", r.text));
        if !f.failures.is_empty() {
            let n = f.failures.len();
            out += &format!("\n{n} variant(s) failed and fell back to serial:\n");
            f.failures.iter().for_each(|x| out += &format!("  - {x}\n"));
        }
        if !f.note.is_empty() {
            out += &format!("\n{}\n", f.note);
        }
    }
    out
}

/// One input's measurements: `variants[0]` is the serial baseline (the
/// normalizer: its failure is fatal), every other variant runs guarded.
/// A variant that traps or panics becomes the serial measurement (so its
/// speedup reads 1.00x and columns stay comparable) plus one entry in
/// `failures`.
fn guarded_row<V>(
    fig: &str,
    who: &str,
    variants: &[V],
    label: impl Fn(&V) -> String,
    run: impl Fn(&V) -> Result<Measurement, Trap>,
    failures: &mut Vec<String>,
) -> Vec<Measurement> {
    let serial = run(&variants[0]).unwrap_or_else(|e| panic!("{who} serial baseline: {e}"));
    let mut ms = vec![serial.clone()];
    for v in &variants[1..] {
        let label = label(v);
        ms.push(
            run_guarded(&format!("{who}/{label}"), || run(v)).unwrap_or_else(|msg| {
                eprintln!("[{fig}]   FAILED {msg}; falling back to serial baseline");
                failures.push(msg);
                Measurement {
                    variant: format!("{label} (failed; serial fallback)"),
                    ..serial.clone()
                }
            }),
        );
    }
    ms
}

/// Each variant's speedup over `ms[0]`, the serial one, gmean'd across
/// inputs (one `ms` per input).
fn speedups_vs_serial(per_input: &[Vec<Measurement>]) -> Vec<f64> {
    let speedup = |k: usize| {
        let ratios = per_input
            .iter()
            .map(|ms| ms[0].cycles as f64 / ms[k].cycles.max(1) as f64);
        gmean(ratios)
    };
    (1..per_input[0].len()).map(speedup).collect()
}

/// The block Figs. 9, 12 and 14 share: per app, each variant's speedup
/// over serial; a gmean row; the failures.
fn speedups(
    title: &str,
    cols: &[&str],
    apps: &[(String, Vec<Vec<Measurement>>)],
    failures: Vec<String>,
) -> Figure {
    let line = |label: &str, values: Vec<f64>| Row {
        text: values
            .iter()
            .fold(format!("{label:<12}"), |t, v| t + &format!("{v:>15.2}x")),
        label: label.to_string(),
        values,
    };
    let heads = cols
        .iter()
        .fold(format!("{:<12}", ""), |t, c| t + &format!("{c:>16}"));
    let mut rows = vec![Row::from(heads)];
    rows.extend(
        apps.iter()
            .map(|(app, per_input)| line(app, speedups_vs_serial(per_input))),
    );
    if apps.len() > 1 {
        let mean = |k: usize| gmean(rows[1..].iter().map(|r| r.values[k]));
        rows.push(line("gmean", (0..cols.len()).map(mean).collect()));
    }
    Figure {
        title: title.to_string(),
        rows,
        failures,
        ..Figure::default()
    }
}

/// Tables I, III, IV and V — the Pipette programming interface, the
/// simulated system, the input catalogs with the paper inputs each
/// synthetic instance stands in for — plus the scheduler observability
/// table (per-stage stall reasons, per-queue occupancy).
pub fn tables() -> Vec<Figure> {
    let block = |title: &str, lines: Vec<String>| Figure {
        title: title.to_string(),
        rows: lines.into_iter().map(Row::from).collect(),
        ..Figure::default()
    };
    let table1 = [
        ("enq(q, v)", "Stmt::Enq — enqueue value v into queue q"),
        ("deq(q)", "Stmt::Deq — dequeue a value from queue q"),
        (
            "peek(q)",
            "subsumed by deq + handler dispatch in this model",
        ),
        (
            "setup_reference_accelerator(q, mode, base)",
            "RaConfig { mode: Indirect | Scan, base, in/out queues }",
        ),
        ("enq_ctrl(q, cv)", "Stmt::EnqCtrl — in-band control value"),
        (
            "is_control(v)",
            "UnOp::IsCtrl (plus UnOp::CtrlTag for tags)",
        ),
        (
            "setup_control_value_handler(q, f)",
            "CtrlHandler { queue, ctrl, body, end } per stage",
        ),
    ];
    let table1 = table1.map(|(name, what)| format!("  {name:<44} {what}"));

    let c = machine();
    let (l1, l2, l3_mb) = (&c.l1, &c.l2, c.l3_kb_per_core / 1024);
    let table3 = vec![
        format!(
            "  cores: {} (x{} SMT), {}-wide issue, ROB {}",
            c.cores, c.smt_threads, c.issue_width, c.rob_size
        ),
        format!(
            "  Pipette: {} queues max (per core), {} RAs, queues {} deep",
            c.max_queues, c.ras_per_core, c.queue_capacity
        ),
        format!(
            "  L1 {} KB {}-way {}cyc | L2 {} KB {}-way {}cyc | L3 {l3_mb} MB {}-way {}cyc",
            l1.kb, l1.ways, l1.latency, l2.kb, l2.ways, l2.latency, c.l3_ways, c.l3_latency
        ),
        format!(
            "  DRAM: {} cyc min latency, {} controllers, {} cyc/line each",
            c.dram_latency, c.dram_controllers, c.dram_cycles_per_line
        ),
    ];

    let mut table4 = vec![format!(
        "  {:<14}{:>10}{:>10}{:>10}  stands in for",
        "name", "vertices", "edges", "avg.deg"
    )];
    for gi in training_graphs(scale()).iter().chain(&test_graphs(scale())) {
        let (g, name, paper) = (&gi.graph, gi.name, gi.paper_analogue);
        let (v, e, deg) = (g.num_vertices, g.num_edges(), g.avg_degree());
        table4.push(format!("  {name:<14}{v:>10}{e:>10}{deg:>10.1}  {paper}"));
    }

    let mut table5 = vec![format!(
        "  {:<14}{:>8}{:>10}{:>12}  stands in for",
        "name", "n", "nnz", "avg nnz/row"
    )];
    let (train, test, taco) = (
        spmm_training_matrices(scale()),
        spmm_test_matrices(scale()),
        taco_test_matrices(scale()),
    );
    for mi in train.iter().chain(&test).chain(&taco) {
        let (m, name, paper) = (&mi.matrix, mi.name, mi.paper_analogue);
        let (n, nnz, per_row) = (m.rows, m.nnz(), m.avg_nnz_per_row());
        table5.push(format!(
            "  {name:<14}{n:>8}{nnz:>10}{per_row:>12.1}  {paper}"
        ));
    }

    let g = graph::power_law(500, 3, 3);
    let m = bfs::run(&Variant::phloem(), &g, 0, &c, "power_law_500")
        .expect("BFS phloem on power_law_500");
    let mut observed = vec![format!(
        "  {:<16}{:>12}{:>12}{:>10}{:>10}",
        "stage", "full-stall", "empty-stall", "wakeups", "spurious"
    )];
    for t in &m.stats.threads {
        let (full, empty) = (t.queue_full_stall_cycles, t.queue_empty_stall_cycles);
        let (name, woke, spurious) = (&t.name, t.wakeups, t.spurious_wakeups);
        observed.push(format!(
            "  {name:<16}{full:>12}{empty:>12}{woke:>10}{spurious:>10}"
        ));
    }
    observed.push(String::new());
    observed.push(format!(
        "  {:<8}{:>6}{:>10}{:>10}{:>10}{:>10}",
        "queue", "cap", "enqs", "deqs", "max-occ", "mean-occ"
    ));
    for (qi, q) in m.stats.queues.iter().enumerate() {
        if q.enqs > 0 || q.deqs > 0 {
            let (cap, enqs, deqs, max, mean) = (
                q.capacity,
                q.enqs,
                q.deqs,
                q.max_occupancy,
                q.mean_occupancy(),
            );
            observed.push(format!(
                "  q{qi:<7}{cap:>6}{enqs:>10}{deqs:>10}{max:>10}{mean:>10.2}"
            ));
        }
    }

    vec![
        block(
            "Table I: Pipette programming interface (implemented operations)",
            table1.to_vec(),
        ),
        block("Table III: simulated system configuration", table3),
        block(
            "Table IV: input graphs (synthetic analogues, scaled)",
            table4,
        ),
        block(
            "Table V: input matrices (synthetic analogues, scaled)",
            table5,
        ),
        block(
            "Scheduler observability: BFS/Phloem on power_law(500)",
            observed,
        ),
    ]
}

/// Fig. 6: speedup over serial BFS as Phloem's passes are added, on a
/// road-network input, plus the manually optimized reference.
///
/// Paper shape: Q alone gives a modest speedup; adding CVs *without* DCE
/// slightly hurts; DCE and handlers build to ~1.85x; reference
/// accelerators provide the final jump; the full compiler slightly beats
/// the manual pipeline (4.7x vs 4.6x on the authors' testbed).
pub fn fig6() -> Vec<Figure> {
    let road = training_graphs(scale()).into_iter().nth(1);
    let g = road.expect("road training graph").graph;
    let (bfs, cfg) = (app("BFS"), machine());
    // nodes / edges / dist — the paper's decoupling points.
    let loads = bfs::kernel_loads();
    let cuts = vec![loads[2], loads[4], loads[5]];
    let mut variants = vec![("serial".to_string(), Variant::Serial)];
    for passes in [
        PassConfig::queues_only(),
        PassConfig::with_recompute(),
        PassConfig::with_cv(),
        PassConfig::with_dce(),
        PassConfig::with_handlers(),
        PassConfig::all(),
    ] {
        let v = Variant::Phloem {
            passes,
            stages: 4,
            cuts: cuts.clone(),
        };
        variants.push((passes.label(), v));
    }
    variants.push(("manual".to_string(), Variant::Manual));
    let mut failures = Vec::new();
    let ms = guarded_row(
        "fig6",
        "BFS/road",
        &variants,
        |v| v.0.clone(),
        |v| bfs.run(&v.1, Input::Graph(&g), &cfg, "road", None).0,
        &mut failures,
    );
    let (vertices, edges) = (g.num_vertices, g.num_edges());
    let mut rows = vec![Row::from(format!(
        "input: {vertices} vertices, {edges} edges"
    ))];
    for ((label, _), m) in variants.iter().zip(&ms) {
        let speedup = ms[0].cycles as f64 / m.cycles as f64;
        rows.push(Row {
            text: format!("{label:<22} {:>12} cycles {speedup:>8.2}x", m.cycles),
            label: label.clone(),
            values: vec![m.cycles as f64, speedup],
        });
    }
    vec![Figure {
        title: "Fig. 6: BFS pass ablation (road network)".into(),
        rows,
        failures,
        note: "paper: CV-without-DCE dips below R,Q; CH reaches ~1.85x;\n       \
               RA provides the largest jump; full Phloem edges out manual.",
    }]
}

/// The Fig. 9/10/11 measurement matrix plus every failure the sweep
/// absorbed along the way.
pub struct Fig9Matrix {
    /// `(app, per-input rows of [serial, data-parallel, phloem, manual,
    /// phloem-pgo?])`. PGO adds a fifth column when enabled.
    pub rows: Vec<(String, Vec<Vec<Measurement>>)>,
    /// Variants (or PGO candidates) that trapped, timed out, or
    /// panicked; see `guarded_row`.
    pub failures: Vec<String>,
}

/// Measures every app of the table on its test inputs in the four
/// Fig. 9 variants, plus the PGO winner's when `with_pgo`.
pub fn fig9_matrix(with_pgo: bool) -> Fig9Matrix {
    let cfg = machine();
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for app in &APPS {
        let name = app.name();
        eprintln!("[fig9] {name}...");
        let mut variants = vec![
            Variant::Serial,
            Variant::DataParallel(cfg.smt_threads),
            Variant::phloem(),
            Variant::Manual,
        ];
        if with_pgo {
            let report = &pgo_for_app(app).report;
            // A search with no viable candidate falls back to the static
            // cost model, which empty cuts encode.
            let best = report.as_ref().ok().map(|r| &r.candidates[r.best]);
            if let Some(p) = best.and_then(|c| c.profile.as_ref()) {
                eprintln!(
                    "[fig9]   {name} pgo best candidate: critical stage `{}`, dominant stall {}",
                    p.critical_stage, p.dominant_stall
                );
            }
            let failed = search_failures(report);
            failures.extend(failed.iter().map(|f| format!("{name} pgo: {f}")));
            variants.push(phloem_with_cuts(best.map_or(&[], |c| &c.cuts)));
        }
        let mut per_input = Vec::new();
        for i in app.test_inputs(scale()) {
            eprintln!("[fig9]   {} ({})", i.name(), i.size());
            per_input.push(guarded_row(
                "fig9",
                &format!("{name}/{}", i.name()),
                &variants,
                Variant::label,
                |v| app.run(v, i.input(), &cfg, i.name(), None).0,
                &mut failures,
            ));
        }
        rows.push((name.to_string(), per_input));
    }
    if !failures.is_empty() {
        eprintln!("[fig9] {} variant(s) fell back to serial:", failures.len());
        failures.iter().for_each(|f| eprintln!("[fig9]   - {f}"));
    }
    Fig9Matrix { rows, failures }
}

/// The candidates of a search that trapped or timed out (or the search
/// itself, when it found nothing), rendered for a figure's failure list.
fn search_failures(report: &Result<SearchReport, SearchError>) -> Vec<String> {
    let candidates = match report {
        Ok(r) => &r.candidates,
        Err(e) => return vec![format!("search failed, using static cuts: {e}")],
    };
    let failed = candidates.iter().filter_map(|c| match &c.outcome {
        ProfileOutcome::Ok(_) => None,
        ProfileOutcome::Trapped(msg) => Some(format!("candidate {:?}: {msg}", c.cuts)),
        ProfileOutcome::TimedOut => Some(format!("candidate {:?}: timed out", c.cuts)),
    });
    failed.collect()
}

/// Where one run's compute-stage cycles went, as shares of Fig. 10's
/// breakdown of the same run, and the critical stage with its own
/// largest stall class (the first on ties).
fn attribution(app: &str, m: &Measurement) -> String {
    let b = m.stats.cycle_breakdown(machine().issue_width);
    let pct = |v: f64| 100.0 * v / b.total();
    let critical = m.stats.critical_stage().map_or("-".to_string(), |t| {
        format!("`{}` ({})", t.name, StallKind::dominant(|k| t.stall(k)))
    });
    format!(
        "  {app:<8} {:<16} issue {:5.1}%  backend {:5.1}%  queue {:5.1}%  other {:5.1}%   critical: {critical}",
        m.input,
        pct(b.issue),
        pct(b.backend),
        pct(b.queue),
        pct(b.other),
    )
}

/// Fig. 9: per-benchmark speedup over the serial baseline for the
/// data-parallel, Phloem (static and, with five matrix columns,
/// profile-guided) and manually pipelined versions, gmean'd across the
/// test inputs; then, for each app's static Phloem pipeline on its first
/// test input, where the compute stages' cycles went — the matrix's own
/// measurement, in Fig. 10's categories.
///
/// Paper shape: Phloem ~1.7x gmean over serial and ~85% of manual;
/// Phloem beats data-parallel almost everywhere; BFS and Radii *exceed*
/// manual; SpMM is the negative result (~1x, manual's bespoke
/// merge-skip wins).
pub fn fig9(matrix: &Fig9Matrix) -> Vec<Figure> {
    let mut cols = vec!["data-parallel", "phloem-static", "manual"];
    if matrix.rows[0].1[0].len() > 4 {
        cols.push("phloem-pgo");
    }
    // Column 2 of the matrix is `Variant::phloem()`.
    let stalls = matrix
        .rows
        .iter()
        .map(|(app, per_input)| Row::from(attribution(app, &per_input[0][2])));
    vec![
        speedups(
            "Fig. 9: speedup over serial (gmean across test inputs)",
            &cols,
            &matrix.rows,
            matrix.failures.clone(),
        ),
        Figure {
            title: "Phloem stall attribution (cycle breakdown, first test input)".into(),
            rows: stalls.collect(),
            note: "paper: Phloem gmean 1.7x; 85% of manual; BFS/Radii beat manual;\n       \
                   SpMM ~1x (bespoke manual merge-skip unavailable to Phloem).",
            ..Figure::default()
        },
    ]
}

/// The loop Figs. 10 and 11 share: per app and per variant of the
/// matrix's first four columns, each of `split`'s four components over
/// the *serial* run's total on the same input, gmean'd across inputs,
/// and their sum (printed `total_width` wide).
fn breakdown(
    matrix: &Fig9Matrix,
    heads: [&str; 5],
    total_width: usize,
    split: impl Fn(&RunStats) -> [f64; 4],
) -> Vec<Row> {
    let (a, b, c, d, total) = (heads[0], heads[1], heads[2], heads[3], heads[4]);
    let mut rows = vec![Row::from(format!(
        "{:<8}{:<16}{a:>10}{b:>10}{c:>10}{d:>10}{total:>total_width$}",
        "app", "variant"
    ))];
    for (app, per_input) in &matrix.rows {
        if rows.len() > 1 {
            rows.push(Row::default());
        }
        for k in 0..4 {
            let component = |c: usize| {
                gmean(per_input.iter().map(|ms| {
                    let serial_total: f64 = split(&ms[0].stats).iter().sum();
                    (split(&ms[k].stats)[c] / serial_total).max(1e-9)
                }))
            };
            let mut values: Vec<f64> = (0..4).map(component).collect();
            let sum: f64 = values.iter().sum();
            let variant = per_input[0][k].variant.split('[').next().unwrap_or("");
            let parts = values
                .iter()
                .fold(String::new(), |t, v| t + &format!("{v:>10.3}"));
            values.push(sum);
            rows.push(Row {
                text: format!("{app:<8}{variant:<16}{parts}{sum:>total_width$.3}"),
                label: format!("{app}/{variant}"),
                values,
            });
        }
    }
    rows
}

/// Fig. 10: breakdown of core cycles (issue / backend stalls / queue
/// stalls / other), normalized to the serial baseline, per benchmark.
///
/// Paper shape: pipelined versions trade backend (memory) stalls for
/// queue stalls; Phloem's BFS runs slightly fewer instructions and
/// blocks less than manual; CC and PRD show more memory stalls than
/// their manual versions.
pub fn fig10(matrix: &Fig9Matrix) -> Vec<Figure> {
    let width = machine().issue_width;
    let heads = ["issue", "backend", "queue", "other", "total(norm)"];
    let rows = breakdown(matrix, heads, 12, |s| {
        let b = s.cycle_breakdown(width);
        [b.issue, b.backend, b.queue, b.other]
    });
    vec![Figure {
        title: "Fig. 10: cycle breakdown normalized to serial".into(),
        rows,
        note: "paper: decoupled versions convert backend stalls into (smaller)\n       \
               queue stalls; S/D/P/M legend maps to the variants above.",
        ..Figure::default()
    }]
}

/// Fig. 11: energy breakdown normalized to the serial baseline.
///
/// Paper shape: Phloem beats serial and data-parallel energy everywhere
/// (chiefly via better core utilization, i.e. less static energy from
/// shorter runtimes); BFS improves most; SpMM's gains are partly offset
/// by stall time.
pub fn fig11(matrix: &Fig9Matrix) -> Vec<Figure> {
    let heads = ["core-dyn", "cache", "dram", "static", "total"];
    let rows = breakdown(matrix, heads, 10, |s| {
        let e = &s.energy;
        [e.core_dynamic_pj, e.cache_pj, e.dram_pj, e.static_pj]
    });
    vec![Figure {
        title: "Fig. 11: energy normalized to serial".into(),
        rows,
        note: "paper: Phloem's energy <= serial everywhere; static energy shrinks\n       \
               with runtime; queue/RA ops are cheap relative to uops.",
        ..Figure::default()
    }]
}

/// Fig. 12: Taco benchmark speedups over Taco's serial output, for the
/// data-parallel version and Phloem's *static* compilation flow (the
/// paper uses static mode for the Taco benchmarks; there are no manual
/// pipelines here).
///
/// Paper shape: MTMul, Residual, SpMV gain ~1.5x from Phloem while
/// data-parallel barely helps; SDDMM is the opposite (regular dense
/// inner loop — conventional architectures already handle it well).
pub fn fig12() -> Vec<Figure> {
    let cfg = machine();
    let inputs = taco_test_matrices(scale());
    let variants = [
        Variant::Serial,
        Variant::DataParallel(cfg.smt_threads),
        Variant::phloem(),
    ];
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for app in TacoApp::all() {
        eprintln!("[fig12] {}...", app.name());
        let mut per_input = Vec::new();
        for mi in &inputs {
            eprintln!("[fig12]   {}", mi.name);
            per_input.push(guarded_row(
                "fig12",
                &format!("{}/{}", app.name(), mi.name),
                &variants,
                Variant::label,
                |v| taco::run(app, v, &mi.matrix, &cfg, mi.name),
                &mut failures,
            ));
        }
        rows.push((app.name().to_string(), per_input));
    }
    let title = "Fig. 12: Taco kernels, speedup over serial (gmean across inputs)";
    vec![Figure {
        note: "paper: MTMul/Residual/SpMV ~1.5x for Phloem with flat data-parallel;\n       \
               SDDMM ~1x for Phloem while data-parallel gains instead.",
        ..speedups(title, &["data-parallel", "phloem-static"], &rows, failures)
    }]
}

/// One app's Fig. 13 candidates bucketed by pipeline length.
fn buckets(name: &str, points: &[(usize, f64)]) -> Vec<String> {
    let mut lines = vec![format!("{name}:")];
    let max_stage = points.iter().map(|(s, _)| *s).max().unwrap_or(0);
    for s in 1..=max_stage {
        let of_length = points.iter().filter(|(st, _)| *st == s);
        let vals: Vec<f64> = of_length.map(|(_, v)| *v).collect();
        let (n, min) = (
            vals.len(),
            vals.iter().cloned().fold(f64::INFINITY, f64::min),
        );
        let max = vals.iter().cloned().fold(0.0, f64::max);
        lines.push(if vals.is_empty() {
            format!("  {s:>2} stages:  x (no pipeline of this length profiled)")
        } else {
            format!("  {s:>2} stages:  n={n:<3} min {min:>5.2}x  max {max:>5.2}x  best {max:>5.2}x")
        });
    }
    lines
}

/// Fig. 13: distribution of gmean training-input speedups of all
/// candidate pipelines, bucketed by pipeline length (stages *including*
/// reference accelerators), for the named benchmarks (the paper selects
/// BFS, CC, Radii and SpMM).
///
/// Paper shape: mid-length pipelines win (e.g. BFS's best 4-stage beats
/// its 8-stage); forcing particular lengths can hit bad minima; SpMM
/// degrades as stages are added.
pub fn fig13(names: &[&str]) -> Vec<Figure> {
    let mut lines = Vec::new();
    for &name in names {
        let search = pgo_for_app(app(name));
        let candidates = search.report.as_ref().map_or(&[][..], |r| &r.candidates);
        let speedup = |cycles: f64| search.serial_train_cycles / cycles;
        let points: Vec<(usize, f64)> = candidates
            .iter()
            .filter_map(|c| Some((c.total_stages, speedup(c.train_cycles()?))))
            .collect();
        let n = points.len();
        lines.extend(buckets(name, &points));
        lines.push(format!("  ({n} candidate pipelines profiled)"));
        let failed = search_failures(&search.report);
        lines.extend(failed.iter().map(|f| format!("  FAILED {f}")));
    }
    vec![Figure {
        title: "Fig. 13: training speedup vs. pipeline length (PGO search)".into(),
        rows: lines.into_iter().map(Row::from).collect(),
        note: "paper: too many stages add communication that limits performance;\n       \
               SpMM monotonically degrades with stage count.",
        ..Figure::default()
    }]
}

/// Fig. 14: BFS, CC, PageRank-Delta, and Radii replicated over 4 cores
/// x 4 SMT threads, compared to a single-core single-thread serial run,
/// a 16-thread data-parallel version, and the manually replicated
/// pipelines.
///
/// Paper shape: manual BFS/CC reach ~12x/~7x, Phloem ~10x/~4x — both
/// beat data-parallel; Phloem's replicated Radii (2 stages x 8) beats
/// both; PRD beats data-parallel but reaches about half of manual
/// (whose merged stages allow a second level of update replication).
pub fn fig14() -> Vec<Figure> {
    let (cfg1, cfg4) = (machine(), machine4());
    let dp16 = Variant::DataParallel(16);
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for name in GRAPH_APPS {
        eprintln!("[fig14] {name}...");
        let app = app(name);
        let mut per_input = Vec::new();
        for i in app.test_inputs(scale()) {
            eprintln!("[fig14]   {}", i.name());
            let plain =
                |v: &Variant, cfg: &MachineConfig| app.run(v, i.input(), cfg, i.name(), None).0;
            let replicated = |r| app.run_replicated(r, i.input(), &cfg4, i.name());
            type Run<'a> = &'a dyn Fn() -> Result<Measurement, Trap>;
            let variants: [(&str, Run); 4] = [
                ("serial", &|| plain(&Variant::Serial, &cfg1)),
                ("data-parallel(16)", &|| plain(&dp16, &cfg4)),
                ("phloem-repl", &|| replicated(RepVariant::Phloem)),
                ("manual-repl", &|| replicated(RepVariant::Manual)),
            ];
            per_input.push(guarded_row(
                "fig14",
                &format!("{name}/{}", i.name()),
                &variants,
                |v| v.0.to_string(),
                |v| (v.1)(),
                &mut failures,
            ));
        }
        rows.push((name.to_string(), per_input));
    }
    let title = "Fig. 14: replicated pipelines on 4 cores x 4 threads";
    let cols = ["data-parallel(16)", "phloem-repl", "manual-repl"];
    vec![Figure {
        note: "paper: manual BFS/CC ~12x/~7x vs Phloem ~10x/~4x (both > data-parallel);\n       \
               Phloem Radii (2 stages x 8 replicas) beats manual; PRD ~half of manual.",
        ..speedups(title, &cols, &rows, failures)
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_sim::ThreadStats;

    /// A measurement whose every breakdown component is distinct,
    /// non-zero and scaled by `cycles`.
    fn measured(variant: &str, cycles: u64) -> Measurement {
        let mut stats = RunStats::default();
        stats.threads.push(ThreadStats {
            uops: 3 * cycles,
            backend_stall_cycles: cycles / 2,
            queue_stall_cycles: cycles / 3,
            frontend_stall_cycles: cycles / 5,
            ..Default::default()
        });
        let e = &mut stats.energy;
        (e.core_dynamic_pj, e.cache_pj) = (cycles as f64, cycles as f64 / 4.0);
        (e.dram_pj, e.static_pj) = (cycles as f64 / 7.0, cycles as f64 * 2.0);
        Measurement {
            variant: variant.into(),
            input: "synthetic".into(),
            cycles,
            stats,
        }
    }

    #[test]
    fn speedup_math() {
        let per_input = [
            vec![measured("s", 100), measured("v", 50)],
            vec![measured("s", 200), measured("v", 50)],
        ];
        assert!((speedups_vs_serial(&per_input)[0] - 8f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn a_trapping_variant_becomes_a_serial_cell_and_one_failure() {
        let mut failures = Vec::new();
        let run = |v: &&str| match *v {
            "serial" => Ok(measured("serial", 1000)),
            "fine" => Ok(measured("fine", 250)),
            "traps" => Err(Trap::Malformed("synthetic".into())),
            _ => panic!("synthetic panic"),
        };
        let variants = ["serial", "fine", "traps", "panics"];
        let ms = guarded_row(
            "test",
            "App/in",
            &variants,
            |v| v.to_string(),
            run,
            &mut failures,
        );
        assert_eq!(ms[2].variant, "traps (failed; serial fallback)");
        assert_eq!(failures.len(), 2);
        assert!(failures[0].starts_with("App/in/traps: "), "{failures:?}");
        assert!(
            failures[1].contains("panicked: synthetic panic"),
            "{failures:?}"
        );

        let figure = Figure {
            note: "paper: p",
            ..speedups("T", &["a", "b", "c"], &[("App".into(), vec![ms])], failures)
        };
        assert_eq!(figure.rows[1].values, [4.0, 1.0, 1.0]);
        let want = format!(
            "\n== T ==\n{:<12}{:>16}{:>16}{:>16}\n{:<12}{:>15.2}x{:>15.2}x{:>15.2}x\n\n\
             2 variant(s) failed and fell back to serial:\n  - App/in/traps: ",
            "", "a", "b", "c", "App", 4.0, 1.0, 1.0
        );
        let text = render(&[figure]);
        assert!(text.starts_with(&want), "{text}");
        assert!(text.ends_with("\n\npaper: p\n"), "{text}");
    }

    /// The stall block is Fig. 10's breakdown of the same measurement, as
    /// shares: its issue share is uops over the issue width, never a
    /// clamped remainder.
    #[test]
    fn the_stall_block_is_fig10s_breakdown_of_the_same_run() {
        let m = measured("phloem[all]", 600);
        let b = m.stats.cycle_breakdown(machine().issue_width);
        let share = |v: f64| format!("{:5.1}%", 100.0 * v / b.total());
        let want = format!(
            "  A        synthetic        issue {}  backend {}  queue {}  other {}   critical: `` (backend)",
            share(b.issue), share(b.backend), share(b.queue), share(b.other)
        );
        assert_eq!(attribution("A", &m), want);
        assert!(b.issue > 0.0 && !want.contains("issue   0.0%"), "{want}");
    }

    #[test]
    fn breakdowns_read_only_the_first_four_matrix_columns() {
        let row = |scale: u64, pgo: bool| {
            let mut ms = vec![
                measured("serial", 1000 * scale),
                measured("data-parallel(4)", 600 * scale),
                measured("phloem[all]", 400 * scale),
                measured("manual", 450 * scale),
            ];
            ms.extend(pgo.then(|| measured("phloem[all;2 cuts]", 390 * scale)));
            ms
        };
        let matrix = |pgo: bool| Fig9Matrix {
            rows: vec![
                ("A".into(), vec![row(1, pgo), row(3, pgo)]),
                ("B".into(), vec![row(2, pgo)]),
            ],
            failures: Vec::new(),
        };
        let (four, five) = (matrix(false), matrix(true));
        assert_eq!(render(&fig10(&four)), render(&fig10(&five)));
        assert_eq!(render(&fig11(&four)), render(&fig11(&five)));
        // Heading, 2 apps x 4 variants, one blank line between the apps;
        // every serial row sums to 1.
        let text = render(&fig10(&five));
        assert_eq!(text.lines().count(), 2 + 1 + 4 + 1 + 4 + 3, "{text}");
        assert!(
            !text.contains("cuts") && text.contains("\n\nB       serial"),
            "{text}"
        );
        let serial = text.lines().find(|l| l.starts_with("A       serial"));
        assert!(serial.unwrap().ends_with("1.000"), "{text}");
    }
}
