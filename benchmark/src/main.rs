//! One benchmark for the whole chain: PhloemC frontend, decoupling
//! compiler and PGO search, stage bytecode, Pipette timing simulator or
//! native threads, `phloem-pool`, `phloemd`. See `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run
//! run.sh [--seed N] [--seconds S] [--runs R] [--out F]   every workload, untraced then traced
//! run.sh --smoke                                         the same, short, checked against BENCHMARK.json
//! run.sh --compare A.json B.json                         two recorded sets, metric by metric
//! ```

mod apps;
mod bench;
mod compare;
mod compile_grid;
mod metrics;
mod native_apps;
mod pgo_search;
mod probes;
mod report;
mod serve;
mod sim_apps;
mod sizes;
mod suite;
mod trace;
mod util;

use bench::{Ctx, Outcome, DEFAULT_SEED};

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--threads N]\n\
         \x20      run.sh [--runs R] [--out FILE] | --smoke | --compare A.json B.json\n\
         workloads: {}",
        metrics::WORKLOADS.join(" ")
    );
    std::process::exit(2);
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub runs: usize,
    pub out: Option<String>,
    pub compare: Option<(String, String)>,
    pub threads: usize,
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
        compare: None,
        threads: util::host_cores(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Some(value()),
            "--seed" => a.seed = parse_u64(&value()).unwrap_or_else(|| usage()),
            "--seconds" => a.seconds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => a.smoke = true,
            "--runs" => a.runs = value().parse().unwrap_or_else(|_| usage()),
            "--out" => a.out = Some(value()),
            "--compare" => a.compare = Some((value(), value())),
            "--threads" => a.threads = value().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    a
}

pub fn run_workload(name: &str, ctx: &Ctx) -> Option<Outcome> {
    use bench::drive;
    Some(match name {
        "sim_apps" => drive::<sim_apps::SimApps>(ctx),
        "compile_grid" => drive::<compile_grid::CompileGrid>(ctx),
        "pgo_search" => drive::<pgo_search::PgoSearch>(ctx),
        "serve_cold" => drive::<serve::ServeCold>(ctx),
        "serve_warm" => drive::<serve::ServeWarm>(ctx),
        "native_apps" => drive::<native_apps::NativeApps>(ctx),
        _ => return None,
    })
}

fn main() {
    let args = parse_args();
    let cores = util::host_cores();
    if args.threads == 0 || args.threads > cores {
        eprintln!(
            "refusing --threads {}: this host has {cores} core(s), and the load generator \
             never runs more busy threads or connections than that",
            args.threads
        );
        std::process::exit(2);
    }
    if let Some((a, b)) = &args.compare {
        std::process::exit(compare::run(a, b));
    }
    let Some(workload) = &args.workload else {
        std::process::exit(suite::run(&args));
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(10.0),
        trace: args.trace,
        nproc: args.threads,
    };
    if ctx.trace {
        trace::enable();
    }
    let Some(out) = run_workload(workload, &ctx) else {
        eprintln!("unknown workload {workload:?}");
        usage();
    };
    let correct = report::print_run(workload, &ctx, &out);
    // Failed ops are data; only a wrong answer fails the run.
    std::process::exit(if correct { 0 } else { 1 });
}
