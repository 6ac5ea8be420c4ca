//! `native_apps`: the Phloem pipelines on real threads against the
//! serial kernel on the same interpreter. Per-hop channel cost, `Hub`
//! park/notify and stage folding; simulator and service are idle.

use crate::apps::{self, Input, GRAPH_APPS, SPMM};
use crate::bench::{guarded, Ctx, OpEnd, Outcome, Reps, Workload};
use crate::trace::{self, Span};
use crate::util::{self, median, sub_seed, Rng};
use crate::{probes, sizes};
use phloem_benchsuite::{gmean, with_backend, Measurement, Variant};
use phloem_ir::Value;
use phloem_workloads::{graph, matrix};
use pipette_sim::native::{channel, run_native, TryRecvError, TrySendError};
use pipette_sim::{ChannelKind, ExecBackend, MachineConfig, NativeConfig};
use std::time::Instant;

const APPS: [&str; 5] = [
    GRAPH_APPS[0],
    GRAPH_APPS[1],
    GRAPH_APPS[2],
    GRAPH_APPS[3],
    SPMM,
];

const DEADLOCK: &str = "trap.Deadlock";

/// Attempts one op gets. A native worker that sits out its whole 10 ms
/// park while the host keeps the other worker off its core can sample
/// "every worker parked" just after that worker moved on and parked in
/// turn, and reports a deadlock that is none: about one run in a
/// thousand on a quiet shared two-core host, one in eight and three in
/// a row with six busy loops beside it. Such an attempt is counted
/// (`native.deadlock_traps`, the header) and the op is run again; an op
/// whose every attempt traps is a failed op, so a pipeline that does
/// deadlock still fails.
const ATTEMPTS: usize = 8;

pub struct State {
    cfg: MachineConfig,
    graph: Input,
    matrix: Input,
    /// App indices in the seeded order a pass visits them.
    order: Vec<usize>,
}

/// The pipeline side: `nproc` workers on the default channel, so the
/// benchmark survives the other channel kinds being deleted.
fn pipeline_backend(nproc: usize) -> ExecBackend {
    ExecBackend::Native(NativeConfig {
        threads: nproc,
        ..NativeConfig::default()
    })
}

/// The baseline: the serial kernel as a one-stage pipeline on the same
/// native interpreter, so no queue hops. With no backend scope the
/// serial variant would run on the cycle-level simulator instead.
fn serial_backend() -> ExecBackend {
    ExecBackend::Native(NativeConfig {
        threads: 1,
        ..NativeConfig::default()
    })
}

impl State {
    fn input(&self, app: &str) -> &Input {
        if app == SPMM {
            &self.matrix
        } else {
            &self.graph
        }
    }

    fn run(&self, app: &str, variant: &Variant, backend: ExecBackend) -> OpEnd<Measurement> {
        guarded(|| {
            with_backend(backend, || {
                apps::run_app(app, variant, self.input(app), &self.cfg)
            })
        })
    }
}

/// Per app: op walls and backend walls (the run's own `wall_nanos`) of
/// both sides, and the hops of one pipeline run.
#[derive(Default)]
struct AppTimes {
    serial_op_ms: Vec<f64>,
    pipeline_op_ms: Vec<f64>,
    serial_backend_ms: Vec<f64>,
    pipeline_backend_ms: Vec<f64>,
    hops: u64,
}

pub struct NativeApps;

impl Workload for NativeApps {
    type State = State;
    const SETUPS: usize = 10;

    fn setup(ctx: &Ctx) -> State {
        let _g = trace::span("workloads.gen");
        let mut order: Vec<usize> = (0..APPS.len()).collect();
        Rng::new(ctx.seed).shuffle(&mut order);
        State {
            cfg: MachineConfig::paper_1core(),
            graph: Input::graph(
                "coauthor-gen",
                graph::collaboration(
                    sizes::NATIVE_COAUTHOR_COMMUNITIES,
                    sub_seed(ctx.seed, "coauthor"),
                ),
            ),
            matrix: Input::matrix(
                "gnutella-gen",
                matrix::random_square(
                    sizes::NATIVE_GNUTELLA_ROWS,
                    2.4,
                    sub_seed(ctx.seed, "gnutella"),
                ),
            ),
            order,
        }
    }

    fn measure(ctx: &Ctx, st: &mut State, out: &mut Outcome) {
        out.counts.insert("ops_per_rep", 2 * APPS.len() as u64);
        let mut times: Vec<AppTimes> = APPS.iter().map(|_| AppTimes::default()).collect();
        let (mut ops_per_s, mut op_ms) = (Vec::new(), Vec::new());
        // At least seven interleaved repetitions per app.
        let mut reps = Reps::new(ctx, 7);
        while reps.more() {
            let t0 = Instant::now();
            let mut ok = 0usize;
            for &a in &st.order {
                let app = APPS[a];
                for serial in [true, false] {
                    let _s = trace::span("native_apps.op");
                    out.attempted += 1;
                    let mut attempt = 1;
                    // The wall of the attempt that gave the result.
                    let (end, wall_ms) = loop {
                        let t = Instant::now();
                        let end = if serial {
                            st.run(app, &Variant::Serial, serial_backend())
                        } else {
                            st.run(app, &Variant::phloem(), pipeline_backend(ctx.nproc))
                        };
                        let wall_ms = util::ms(t.elapsed());
                        match &end {
                            OpEnd::Failed { kind, detail }
                                if kind == DEADLOCK && attempt < ATTEMPTS =>
                            {
                                eprintln!("native_apps: {app} attempt {attempt}: {detail}");
                                out.retry(kind);
                                attempt += 1;
                            }
                            _ => break (end, wall_ms),
                        }
                    };
                    match end {
                        OpEnd::Ok(m) => {
                            ok += 1;
                            op_ms.push(wall_ms);
                            let backend_ms = m.cycles as f64 / 1e6;
                            let at = &mut times[a];
                            if serial {
                                at.serial_op_ms.push(wall_ms);
                                at.serial_backend_ms.push(backend_ms);
                            } else {
                                at.pipeline_op_ms.push(wall_ms);
                                at.pipeline_backend_ms.push(backend_ms);
                                at.hops = m.stats.threads.iter().map(|t| t.enqs + t.deqs).sum();
                            }
                        }
                        OpEnd::Failed { kind, detail } => {
                            eprintln!("native_apps: {app} failed: {detail}");
                            out.fail(&kind);
                        }
                        OpEnd::Mismatch(msg) => {
                            out.fail("oracle_mismatch");
                            out.error(format!("{app} natively: {msg}"));
                        }
                    }
                }
            }
            ops_per_s.push(ok as f64 / t0.elapsed().as_secs_f64());
        }
        out.counts.insert("reps", reps.done as u64);
        out.throughput(&ops_per_s, &op_ms);
        let speedups: Vec<f64> = times
            .iter()
            .filter(|t| !t.serial_op_ms.is_empty() && !t.pipeline_op_ms.is_empty())
            .map(|t| median(&t.serial_op_ms) / median(&t.pipeline_op_ms))
            .collect();
        out.e2e(
            "native_speedup_gmean",
            gmean(speedups.iter().copied()),
            "x",
            speedups.len(),
        );

        if ctx.trace {
            let sum = |f: &dyn Fn(&AppTimes) -> &Vec<f64>| {
                times
                    .iter()
                    .filter(|t| !f(t).is_empty())
                    .map(|t| median(f(t)))
                    .sum::<f64>()
            };
            let n = reps.done as u64;
            let pipeline_ms = sum(&|t| &t.pipeline_backend_ms);
            let serial_ms = sum(&|t| &t.serial_backend_ms);
            let hops: u64 = times.iter().map(|t| t.hops).sum();
            out.layer("native.pipeline_wall_ms", pipeline_ms, "ms", n);
            out.layer("native.serial_wall_ms", serial_ms, "ms", n);
            out.layer("native.hops", hops as f64, "count", APPS.len() as u64);
            out.layer(
                "native.ns_per_hop",
                (pipeline_ms - serial_ms) * 1e6 / hops.max(1) as f64,
                "ns",
                hops,
            );
            // Every attempt that trapped, run again or not.
            let deadlocks: u64 = [&out.retried, &out.fail_kinds]
                .iter()
                .filter_map(|m| m.get(DEADLOCK))
                .sum();
            out.layer(
                "native.deadlock_traps",
                deadlocks as f64,
                "count",
                out.attempted + out.retried.values().sum::<u64>(),
            );
        }
    }

    fn layers(_ctx: &Ctx, st: &mut State, _spans: &[Span], out: &mut Outcome) {
        // One thread per stage: the shape that aborts the old bench on a
        // host with fewer cores than stages.
        let per_stage = ExecBackend::Native(NativeConfig::default());
        let traps = APPS
            .iter()
            .filter(|app| {
                matches!(
                    st.run(app, &Variant::phloem(), per_stage),
                    OpEnd::Failed { kind, .. } if kind == DEADLOCK
                )
            })
            .count();
        out.layer(
            "native.deadlock_traps_per_stage_thread",
            traps as f64,
            "count",
            APPS.len() as u64,
        );

        let (p, mem) = probes::trivial_pipeline();
        const SPAWNS: u64 = 300;
        let spawn_ns = util::ns_per_iter(SPAWNS, || {
            let mut m = mem.clone();
            run_native(&p, &mut m, &[], &NativeConfig::default(), 24, None)
                .expect("trivial pipeline runs natively");
        });
        out.layer("native.spawn_us", spawn_ns / 1e3, "us", SPAWNS);

        for kind in ChannelKind::ALL {
            out.layer(
                &format!("native.chan_ns_per_op.{}", kind.label()),
                channel_ns_per_value(kind),
                "ns",
                PING_VALUES,
            );
        }
    }
}

const PING_VALUES: u64 = 1_000_000;

/// One producer and one consumer thread push `PING_VALUES` values
/// through one channel of the simulated queue depth.
fn channel_ns_per_value(kind: ChannelKind) -> f64 {
    let (tx, rx) = channel(kind, 24).expect("nonzero capacity");
    let t0 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..PING_VALUES {
                let mut v = Value::I64(i as i64);
                loop {
                    match tx.try_send(v) {
                        Ok(()) => break,
                        Err(TrySendError::Full(back)) => {
                            v = back;
                            std::hint::spin_loop();
                        }
                        Err(TrySendError::Disconnected(_)) => panic!("consumer left early"),
                    }
                }
            }
        });
        s.spawn(move || {
            let mut got = 0u64;
            while got < PING_VALUES {
                match rx.try_recv() {
                    Ok(v) => {
                        std::hint::black_box(v);
                        got += 1;
                    }
                    Err(TryRecvError::Empty) => std::hint::spin_loop(),
                    Err(TryRecvError::Disconnected) => panic!("producer left early"),
                }
            }
        });
    });
    t0.elapsed().as_nanos() as f64 / PING_VALUES as f64
}
