//! Native-backend wall clock (`BENCH_native.json`): real-thread
//! execution of every benchsuite app versus the serial kernel on the
//! same native interpreter, on the same host.
//!
//! For each app the phloem variant runs under
//! [`phloem_benchsuite::with_backend`] once per thread count: one OS
//! thread per stage (`threads: 0`, the paper's model), one worker, and
//! `nproc` workers with the stages folded onto them; every queue is an
//! SPSC ring of `native::ring_depth` slots publishing a slab (an eighth
//! of the ring) at a time, both written into the recording's header.
//! The baseline is the serial variant under
//! `Native { threads: 1 }` — a one-stage pipeline on one native worker,
//! so both sides step through the same interpreter against the same
//! shared memory and the ratio isolates what the pipeline adds (queue
//! hops, park/wake) and wins (overlap). With no backend scope the
//! serial variant would run on the cycle simulator instead, which is
//! 1.3-1.5x slower and flatters every speedup. Wall seconds are
//! best-of-`REPS` (default 2); every run verifies its output against
//! the app's host oracle internally, so a divergence aborts the bench
//! rather than skewing a number.
//!
//! Beside each wall time the row says why it is what it is: the ops
//! each stage committed against the serial kernel's (a lopsided cut
//! bounds the pipeline at its heaviest stage, whatever the thread
//! count), and per configuration the parks and epoch bumps of the
//! repetition that was kept (a worker that sleeps through a 10 ms park
//! timeout shows here before it shows in the ratio).
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

use phloem_bench::record::{self, host_cores, num, Gate};
use phloem_bench::{header, machine, scale};
use phloem_benchsuite::apps::APPS;
use phloem_benchsuite::{taco, with_backend, Measurement, Variant};
use phloem_service::Json;
use pipette_sim::native::{channel::slab_len, lifetime_counters, ring_depth};
use pipette_sim::{ExecBackend, NativeConfig};

/// One timed run: wall seconds, what the backend counted over it, and
/// the ops each stage committed (summed over the app's invocations).
struct Timed {
    wall_s: f64,
    parks: u64,
    epoch_bumps: u64,
    stage_ops: Vec<(String, u64)>,
}

/// The fastest of `reps` runs of `f`, with that run's own counters.
fn best_of(reps: usize, f: impl Fn() -> Measurement) -> Timed {
    (0..reps)
        .map(|_| {
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
        })
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one repetition")
}

/// One native pipeline configuration's best run.
struct Cell {
    /// `NativeConfig::threads`: 0 is one thread per stage.
    threads: usize,
    wall_s: f64,
    speedup: f64,
    parks: u64,
    epoch_bumps: u64,
}

struct Row {
    app: String,
    input: String,
    serial_s: f64,
    /// Ops the serial kernel committed.
    serial_ops: u64,
    /// Ops each pipeline stage committed, read off the first cell:
    /// compute stages commit the same in every cell, an RA a few more or
    /// fewer (the run ends with its last compute stage, wherever the
    /// schedule has left the RAs).
    stage_ops: Vec<(String, u64)>,
    /// In `thread_counts` order.
    cells: Vec<Cell>,
}

impl Row {
    /// Builds one row by timing `run(variant)` serially on one native
    /// worker and once per thread count as a pipeline. `run` must
    /// verify its own output.
    fn measure(
        app: &str,
        input: &str,
        reps: usize,
        thread_counts: &[usize],
        run: impl Fn(&Variant) -> Measurement,
    ) -> Row {
        let serial = ExecBackend::Native(NativeConfig { threads: 1 });
        let serial = best_of(reps, || with_backend(serial, || run(&Variant::Serial)));
        let mut stage_ops = Vec::new();
        let mut cells = Vec::new();
        for &threads in thread_counts {
            let backend = ExecBackend::Native(NativeConfig { threads });
            let t = best_of(reps, || with_backend(backend, || run(&Variant::phloem())));
            if stage_ops.is_empty() {
                stage_ops = t.stage_ops;
            }
            cells.push(Cell {
                threads,
                wall_s: t.wall_s,
                speedup: serial.wall_s / t.wall_s,
                parks: t.parks,
                epoch_bumps: t.epoch_bumps,
            });
        }
        Row {
            app: app.to_string(),
            input: input.to_string(),
            serial_s: serial.wall_s,
            serial_ops: serial.stage_ops.iter().map(|(_, n)| n).sum(),
            stage_ops,
            cells,
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = record::reps(2);
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
         {reps} reps (best kept)",
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
        print!(" {:>10}", threads_label(t));
    }
    println!();
    for r in &rows {
        print!("  {:<14} {:>10.4}", r.app, r.serial_s);
        for c in &r.cells {
            print!(" {:>9.2}x", c.speedup);
        }
        println!();
        let split: Vec<String> = r.stage_ops.iter().map(|(_, n)| n.to_string()).collect();
        println!(
            "  {:<14} ops: serial {}, stages {}; parks {} (worst cell {})",
            "",
            r.serial_ops,
            split.join(" / "),
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
        let best = crossing.map(|c| c.speedup).fold(f64::MIN, f64::max);
        Gate::at_least(
            format!("{}.best_cross_thread_speedup", r.app),
            best,
            0.25,
            enforced,
        )
        .enforce()
    };
    let gates: Vec<Gate> = rows.iter().map(gate).collect();
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
            ("wall_s", num(c.wall_s, 6)),
            ("speedup", num(c.speedup, 4)),
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
