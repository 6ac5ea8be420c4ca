//! Native-backend wall clock (`BENCH_native.json`): real-thread
//! execution of every benchsuite app versus the serial kernel on the
//! same native interpreter, on the same host.
//!
//! For each app the phloem variant runs under
//! [`phloem_benchsuite::with_backend`] once per thread count: one OS
//! thread per stage (`threads: 0`, the paper's model: the full 4-stage
//! static pipeline), one worker, and `nproc` workers. Under a worker
//! count the app compiles to at most that many stages, the cost model's
//! best cuts (`phloem_benchsuite::runner::compile_fitted`), so the
//! one-worker column runs a one-stage pipeline with no queues and no
//! cell folds two stages onto one worker; `i % threads` folding is left
//! to pipelines pinned by cuts or built by hand. Every queue is an
//! SPSC ring of `native::ring_depth` slots publishing a slab (an eighth
//! of the ring) at a time, both written into the recording's header.
//! The baseline is the serial variant under
//! `Native { threads: 1 }` — a one-stage pipeline on one native worker,
//! so both sides step through the same interpreter against the same
//! shared memory and the ratio isolates what the pipeline adds (queue
//! hops, park/wake) and wins (overlap). With no backend scope the
//! serial variant would run on the cycle simulator instead, which is
//! 1.3-1.5x slower and flatters every speedup. Every repetition runs
//! the serial kernel and then each configuration, so a ratio is paired
//! within one repetition and host drift hits both sides alike; a cell
//! reports the median and the quartiles of its ratios over `REPS`
//! repetitions (default 5), and wall seconds are medians. Every run
//! verifies its output against the app's host oracle internally, so a
//! divergence aborts the bench rather than skewing a number.
//!
//! The one-worker column is the null: a one-stage pipeline that commits
//! exactly the serial kernel's ops
//! (`fitted_stages_commit_no_more_than_the_kernel`), on the same
//! interpreter, so it should read 1.00x; how far it strays is what the
//! host and the harness alone do to a ratio.
//!
//! Beside each wall time the row says why it is what it is: the ops
//! each stage of the per-stage pipeline committed against the serial
//! kernel's (a lopsided cut bounds the pipeline at its heaviest stage,
//! whatever the thread count), and per configuration the stages it ran
//! and the median parks and epoch bumps of its repetitions (a
//! worker that sleeps through a 10 ms park timeout shows here before it
//! shows in the ratio). `--smoke` asserts that every `nproc` cell ran
//! at most `nproc` stages.
//!
//! Speedup expectations are gated on the host: a stage-per-thread
//! pipeline cannot beat a serial interpreter on one core (the threads
//! time-slice and every queue hop is pure overhead), so on a
//! single-core host the bench records the honest flat-or-worse curve
//! and its gates as not enforced instead of failing. With
//! `host_cores > 1` a loose overhead gate applies: the best
//! configuration that crosses threads (per-stage or `nproc` workers;
//! one worker has no cross-thread hop and is recorded only) must stay
//! within 4x of serial wall time at every app (real speedup is
//! input-size dependent; tiny CI inputs mostly measure thread hand-off
//! and queue overhead).
//!
//! `SCALE=tiny|small|full` sizes the inputs as usual; `--smoke` (CI)
//! keeps the full app x threads matrix but writes no JSON.

use std::time::Instant;

use phloem_bench::record::{self, host_cores, num, Gate, Spread};
use phloem_bench::{header, machine, scale};
use phloem_benchsuite::apps::APPS;
use phloem_benchsuite::{taco, with_backend, Measurement, Variant};
use phloem_service::Json;
use pipette_sim::native::{channel::slab_len, lifetime_counters, ring_depth};
use pipette_sim::{ExecBackend, NativeConfig};

/// One timed run: wall seconds, what the backend counted over it, and
/// the ops each stage committed (summed over the app's invocations;
/// one entry per stage of its widest pipeline).
struct Timed {
    wall_s: f64,
    parks: u64,
    epoch_bumps: u64,
    stage_ops: Vec<(String, u64)>,
}

/// One run of `f`, with its own counters.
fn timed(f: impl Fn() -> Measurement) -> Timed {
    let before = lifetime_counters();
    let t0 = Instant::now();
    let m = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let after = lifetime_counters();
    Timed {
        wall_s,
        parks: after.parks - before.parks,
        epoch_bumps: after.epoch_bumps - before.epoch_bumps,
        stage_ops: m
            .stats
            .threads
            .iter()
            .map(|t| (t.name.clone(), t.ops()))
            .collect(),
    }
}

/// The median of some counts.
fn median(xs: impl Iterator<Item = u64>) -> u64 {
    let v: Vec<f64> = xs.map(|x| x as f64).collect();
    Spread::of(&v).median.round() as u64
}

/// One native pipeline configuration over the repetitions.
struct Cell {
    /// `NativeConfig::threads`: 0 is one thread per stage.
    threads: usize,
    /// Stages of the widest pipeline the run invoked.
    stages: usize,
    /// Median wall seconds.
    wall_s: f64,
    /// Serial over pipeline wall time, paired within each repetition.
    speedup: Spread,
    parks: u64,
    epoch_bumps: u64,
}

struct Row {
    app: String,
    input: String,
    /// Median serial wall seconds.
    serial_s: f64,
    /// Ops the serial kernel committed.
    serial_ops: u64,
    /// Ops each stage of the first cell's pipeline committed: the
    /// per-stage cell, which runs the full static pipeline.
    stage_ops: Vec<(String, u64)>,
    /// In `thread_counts` order.
    cells: Vec<Cell>,
}

impl Row {
    /// Builds one row by timing `run(variant)` serially on one native
    /// worker and once per thread count as a pipeline, `reps` times over,
    /// interleaved. `run` must verify its own output.
    fn measure(
        app: &str,
        input: &str,
        reps: usize,
        thread_counts: &[usize],
        run: impl Fn(&Variant) -> Measurement,
    ) -> Row {
        let serial_backend = ExecBackend::Native(NativeConfig { threads: 1 });
        let mut serial = Vec::with_capacity(reps);
        let mut piped: Vec<Vec<Timed>> = thread_counts.iter().map(|_| Vec::new()).collect();
        for _ in 0..reps {
            serial.push(timed(|| {
                with_backend(serial_backend, || run(&Variant::Serial))
            }));
            for (runs, &threads) in piped.iter_mut().zip(thread_counts) {
                let backend = ExecBackend::Native(NativeConfig { threads });
                runs.push(timed(|| with_backend(backend, || run(&Variant::phloem()))));
            }
        }
        let walls = |runs: &[Timed]| -> Vec<f64> { runs.iter().map(|t| t.wall_s).collect() };
        let serial_walls = walls(&serial);
        let cells = piped
            .iter()
            .zip(thread_counts)
            .map(|(runs, &threads)| {
                let ratios: Vec<f64> = serial_walls
                    .iter()
                    .zip(runs)
                    .map(|(s, t)| s / t.wall_s)
                    .collect();
                Cell {
                    threads,
                    stages: runs[0].stage_ops.len(),
                    wall_s: Spread::of(&walls(runs)).median,
                    speedup: Spread::of(&ratios),
                    parks: median(runs.iter().map(|t| t.parks)),
                    epoch_bumps: median(runs.iter().map(|t| t.epoch_bumps)),
                }
            })
            .collect();
        Row {
            app: app.to_string(),
            input: input.to_string(),
            serial_s: Spread::of(&serial_walls).median,
            serial_ops: serial[0].stage_ops.iter().map(|(_, n)| n).sum(),
            stage_ops: piped[0][0].stage_ops.clone(),
            cells,
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = record::reps(if smoke { 3 } else { 5 });
    let host_cores = host_cores();
    let cfg = machine();
    let depth = ring_depth(cfg.queue_capacity);

    // One thread per stage, one worker (overhead parity: the hops with
    // no overlap to pay for them), and one worker per core.
    let mut thread_counts = vec![0, 1, host_cores];
    thread_counts.dedup();
    let threads_label = |t: usize| match t {
        0 => "per-stage".to_string(),
        n => format!("{n}-thread"),
    };

    header("Native backend: real-thread wall clock vs the serial kernel on one native worker");
    println!(
        "  host cores: {host_cores}; scale {:?}; threads {:?}; rings of {depth}, slab {}; \
         {reps} interleaved reps (median ratio [IQR]); 1-thread is the null, a one-stage \
         pipeline of the kernel's own ops: it should read 1.00x",
        scale(),
        thread_counts
            .iter()
            .map(|&t| threads_label(t))
            .collect::<Vec<_>>(),
        slab_len(depth),
    );

    let mut rows = Vec::new();
    for app in &APPS {
        let i = &app.test_inputs(scale())[0];
        rows.push(Row::measure(
            app.name(),
            i.name(),
            reps,
            &thread_counts,
            |v| {
                let ran = app.run(v, i.input(), &cfg, i.name(), None).0;
                ran.unwrap_or_else(|e| panic!("{}: {e}", app.name()))
            },
        ));
    }
    let mi = &phloem_workloads::spmm_test_matrices(scale())[0];
    for t in taco::TacoApp::all() {
        let name = format!("taco-{t:?}");
        rows.push(Row::measure(&name, mi.name, reps, &thread_counts, |v| {
            taco::run(t, v, &mi.matrix, &cfg, mi.name).expect("taco")
        }));
    }

    print!("  {:<14} {:>10}", "app", "serial_s");
    for &t in &thread_counts {
        print!(" {:>20}", threads_label(t));
    }
    println!();
    for r in &rows {
        print!("  {:<14} {:>10.4}", r.app, r.serial_s);
        for c in &r.cells {
            let s = c.speedup;
            print!(" {:>7.2}x [{:.2}-{:.2}]", s.median, s.q1, s.q3);
        }
        println!();
        let split: Vec<String> = r.stage_ops.iter().map(|(_, n)| n.to_string()).collect();
        let stages: Vec<String> = r.cells.iter().map(|c| c.stages.to_string()).collect();
        println!(
            "  {:<14} ops: serial {}, stages {}; stages per cell {}; parks {} (worst cell {})",
            "",
            r.serial_ops,
            split.join(" / "),
            stages.join(" / "),
            r.cells.iter().map(|c| c.parks).sum::<u64>(),
            r.cells.iter().map(|c| c.parks).max().unwrap_or(0),
        );
    }
    println!("  every native run's memory was verified against the app's host oracle");

    // Hardware-gated overhead bound: with more than one core the
    // pipeline threads genuinely overlap, so the best configuration that
    // puts stages on different threads must keep hop and park overhead
    // bounded. The one-worker column is recorded but not gated: it has
    // no cross-thread hop to go wrong. On one core the threads
    // time-slice; the measured (flat-or-worse) curve is recorded with
    // the gate marked unenforced instead of failing on physics.
    let enforced = host_cores > 1;
    let gate = |r: &Row| {
        let crossing = r.cells.iter().filter(|c| c.threads != 1);
        let best = crossing.map(|c| c.speedup.median).fold(f64::MIN, f64::max);
        Gate::at_least(
            format!("{}.best_cross_thread_speedup", r.app),
            best,
            0.25,
            enforced,
        )
        .enforce()
    };
    let mut gates: Vec<Gate> = rows.iter().map(gate).collect();
    // On every host: a static pipeline fits its workers, so the `nproc`
    // cell never folds two stages onto one worker.
    for r in &rows {
        let nproc = r.cells.iter().find(|c| c.threads == host_cores);
        let stages = nproc.expect("an nproc cell").stages;
        let name = format!("{}.nproc_cell_stages", r.app);
        gates.push(Gate::at_most(name, stages as f64, host_cores as f64, true).enforce());
    }
    if !enforced {
        println!(
            "  note: speedup gates skipped, host has only {host_cores} core(s); \
             a stage-per-thread pipeline is hardware-bounded below 1x there"
        );
    }

    if smoke {
        println!("  smoke mode: all apps ran natively at every thread count; OK");
        return;
    }

    let cell = |c: &Cell| {
        Json::obj([
            ("threads", Json::u64(c.threads as u64)),
            ("stages", Json::u64(c.stages as u64)),
            ("wall_s", num(c.wall_s, 6)),
            ("speedup", num(c.speedup.median, 4)),
            ("speedup_q1", num(c.speedup.q1, 4)),
            ("speedup_q3", num(c.speedup.q3, 4)),
            ("parks", Json::u64(c.parks)),
            ("epoch_bumps", Json::u64(c.epoch_bumps)),
        ])
    };
    let stage = |(name, ops): &(String, u64)| {
        Json::obj([("stage", Json::str(name)), ("ops", Json::u64(*ops))])
    };
    let row = |r: &Row| {
        Json::obj([
            ("name", Json::str(&r.app)),
            ("input", Json::str(&r.input)),
            ("serial_wall_s", num(r.serial_s, 6)),
            ("serial_ops", Json::u64(r.serial_ops)),
            (
                "stage_ops",
                Json::Arr(r.stage_ops.iter().map(stage).collect()),
            ),
            ("native", Json::Arr(r.cells.iter().map(cell).collect())),
        ])
    };
    let rows: Vec<Json> = rows.iter().map(row).collect();
    let config = [
        ("ring_depth", Json::u64(depth as u64)),
        ("slab", Json::u64(slab_len(depth) as u64)),
    ];
    record::write("native", scale(), reps, &config, &rows, &gates);
}
