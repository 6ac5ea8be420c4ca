//! Core of the differential fuzzer (`fuzzdiff`): genome generation,
//! the exhaustive per-genome check over the cut-subset × pass-ablation
//! grid, delta-debugging minimization, and the pool-parallel sweep
//! driver.
//!
//! Lives in the library (rather than the `fuzzdiff` binary) so that the
//! determinism suite (`tests/pool_determinism.rs`) and the host-scaling
//! bench (`parallel`) can run the *same* sweep the CI smoke step runs
//! and assert its report is byte-identical at every worker count.

use phloem_compiler::{analyze, decouple_with_cuts, CompileOptions, PassConfig};
use phloem_ir::{
    interp, pretty, ArrayDecl, ArrayId, BinOp, Expr, Function, FunctionBuilder, LoadId, MemState,
    Pipeline, Value,
};
use phloem_pool::Pool;
use pipette_sim::{ExecBackend, MachineConfig, NativeConfig};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------
// Deterministic RNG (xorshift64*): no external crates, stable across
// platforms, so a seed printed by a failing run reproduces it exactly.
// ---------------------------------------------------------------------

/// Seeded xorshift64* generator used by the fuzzer's genome stream.
pub struct Rng(u64);

impl Rng {
    /// Creates a generator (the seed's low bit is forced on so the
    /// state can never become zero).
    pub fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }
    /// Next raw 64 bits.
    #[allow(clippy::should_implement_trait)] // not an Iterator: infinite, never None
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }
    /// Uniform value below `n` (below 1 when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
    /// True with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

// ---------------------------------------------------------------------
// Program genome: a compact recipe the generator expands into a
// Function + MemState. Minimization edits the genome, not the IR.
// ---------------------------------------------------------------------

/// One body segment of the outer loop, in PhloemC shapes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Segment {
    /// `x = idx[i]; y = data[x]; acc += y*3 + 1` — the paper's
    /// introductory kernel; with `filter`, the fetch+accumulate is
    /// guarded by `if (x % 2 == 0)`.
    IndirectSum {
        /// Guard the fetch+accumulate behind a parity filter.
        filter: bool,
    },
    /// `s = bounds[i]; e = bounds[i+1]; for (j in s..e) { v = items[j];
    /// acc += v; }` — the BFS/CSR nest.
    NestedSum,
    /// `h = idx[i]; atomic hist[h] += 1` — histogram RMW.
    Histogram,
    /// `wr[i] = acc; z = wr[widx[i]]; acc ^= z` — a same-array
    /// write-then-read hazard; cuts separating the store from the load
    /// must be rejected (the Fig. 4 race) or ordered correctly.
    WriteRace,
    /// `d = dense[i]; acc += d` — dense streaming (never a cut
    /// candidate; exercises adjacency/recompute paths).
    DenseAcc,
}

/// A compact recipe for one random PhloemC-shaped program.
#[derive(Clone, Debug)]
pub struct Genome {
    /// Seed of the program's input data.
    pub seed: u64,
    /// Outer trip count.
    pub n: i64,
    /// Indexable data/array length.
    pub data_len: i64,
    /// Body segments of the outer loop.
    pub segments: Vec<Segment>,
    /// Lower the outer loop as `while(1) { ...; k++; if (k>=n) break; }`.
    pub while_shape: bool,
    /// Add `if (acc > limit) break` at the end of the outer body.
    pub early_break: Option<i64>,
}

impl Genome {
    /// Draws one random genome from the seeded stream.
    pub fn random(rng: &mut Rng) -> Genome {
        let nsegs = 1 + rng.below(3) as usize;
        let mut segments = Vec::with_capacity(nsegs);
        for _ in 0..nsegs {
            segments.push(match rng.below(6) {
                0 => Segment::IndirectSum { filter: false },
                1 | 2 => Segment::IndirectSum { filter: true },
                3 => Segment::NestedSum,
                4 => Segment::Histogram,
                _ => {
                    if rng.chance(50) {
                        Segment::WriteRace
                    } else {
                        Segment::DenseAcc
                    }
                }
            });
        }
        Genome {
            seed: rng.next(),
            n: 8 + rng.below(40) as i64,
            data_len: 8 + rng.below(56) as i64,
            segments,
            while_shape: rng.chance(25),
            early_break: if rng.chance(20) {
                Some(1 + rng.below(5000) as i64)
            } else {
                None
            },
        }
    }

    /// Simpler variants for delta-debugging, most aggressive first.
    pub fn shrink_candidates(&self) -> Vec<Genome> {
        let mut out = Vec::new();
        for k in 0..self.segments.len() {
            if self.segments.len() > 1 {
                let mut g = self.clone();
                g.segments.remove(k);
                out.push(g);
            }
        }
        if self.early_break.is_some() {
            let mut g = self.clone();
            g.early_break = None;
            out.push(g);
        }
        if self.while_shape {
            let mut g = self.clone();
            g.while_shape = false;
            out.push(g);
        }
        if self.n > 2 {
            let mut g = self.clone();
            g.n /= 2;
            out.push(g);
        }
        if self.data_len > 2 {
            let mut g = self.clone();
            g.data_len /= 2;
            out.push(g);
        }
        out
    }
}

/// Arrays of the generated program, in declaration = allocation order.
struct Arrays {
    idx: ArrayId,
    data: ArrayId,
    bounds: ArrayId,
    items: ArrayId,
    hist: ArrayId,
    widx: ArrayId,
    wr: ArrayId,
    dense: ArrayId,
    out: ArrayId,
}

fn declare_arrays(b: &mut FunctionBuilder) -> Arrays {
    Arrays {
        idx: b.array_i64("idx"),
        data: b.array_i64("data"),
        bounds: b.array_i64("bounds"),
        items: b.array_i64("items"),
        hist: b.array_i64("hist"),
        widx: b.array_i64("widx"),
        wr: b.array_i64("wr"),
        dense: b.array_i64("dense"),
        out: b.array_i64("out"),
    }
}

/// Expands a genome's input data into a fresh memory image.
pub fn build_mem(g: &Genome) -> MemState {
    let mut rng = Rng::new(g.seed);
    let n = g.n as usize;
    let dl = g.data_len as usize;
    let items_len = dl.max(4);
    let mut mem = MemState::new();
    mem.alloc_i64(
        ArrayDecl::i64("idx"),
        (0..n).map(|_| rng.below(dl as u64) as i64),
    );
    mem.alloc_i64(
        ArrayDecl::i64("data"),
        (0..dl).map(|_| rng.below(1000) as i64 - 500),
    );
    // Nondecreasing CSR-style bounds into items.
    let mut acc = 0i64;
    let mut bounds = Vec::with_capacity(n + 1);
    bounds.push(0);
    for _ in 0..n {
        acc = (acc + rng.below(3) as i64).min(items_len as i64);
        bounds.push(acc);
    }
    mem.alloc_i64(ArrayDecl::i64("bounds"), bounds);
    mem.alloc_i64(
        ArrayDecl::i64("items"),
        (0..items_len).map(|_| rng.below(100) as i64),
    );
    mem.alloc(ArrayDecl::i64("hist"), dl);
    mem.alloc_i64(
        ArrayDecl::i64("widx"),
        (0..n).map(|_| rng.below(n as u64) as i64),
    );
    mem.alloc(ArrayDecl::i64("wr"), n.max(1));
    mem.alloc_i64(
        ArrayDecl::i64("dense"),
        (0..n).map(|_| rng.below(50) as i64),
    );
    mem.alloc(ArrayDecl::i64("out"), 2);
    mem
}

/// Expands a genome into its IR function.
pub fn build_func(g: &Genome) -> Function {
    let mut b = FunctionBuilder::new("fuzz");
    let n = b.param_i64("n");
    let a = declare_arrays(&mut b);
    let acc = b.var_i64("acc");
    let i = b.var_i64("i");
    let body = |f: &mut FunctionBuilder, iv: phloem_ir::VarId| {
        for (si, seg) in g.segments.iter().enumerate() {
            emit_segment(f, &a, *seg, si, iv, acc);
        }
        if let Some(limit) = g.early_break {
            f.if_then(
                Expr::bin(BinOp::Gt, Expr::var(acc), Expr::i64(limit)),
                |f| f.break_out(1),
            );
        }
    };
    if g.while_shape {
        b.while_true(|f| {
            body(f, i);
            f.assign(i, Expr::add(Expr::var(i), Expr::i64(1)));
            f.if_then(Expr::bin(BinOp::Ge, Expr::var(i), Expr::var(n)), |f| {
                f.break_out(1)
            });
        });
    } else {
        b.for_loop(i, Expr::i64(0), Expr::var(n), |f| body(f, i));
    }
    b.store(a.out, Expr::i64(0), Expr::var(acc));
    b.build()
}

fn emit_segment(
    f: &mut FunctionBuilder,
    a: &Arrays,
    seg: Segment,
    si: usize,
    i: phloem_ir::VarId,
    acc: phloem_ir::VarId,
) {
    match seg {
        Segment::IndirectSum { filter } => {
            let x = f.var_i64(format!("x{si}"));
            let y = f.var_i64(format!("y{si}"));
            let lx = f.load(a.idx, Expr::var(i));
            f.assign(x, lx);
            let fetch_acc = |f: &mut FunctionBuilder| {
                let ly = f.load(a.data, Expr::var(x));
                f.assign(y, ly);
                f.assign(
                    acc,
                    Expr::add(
                        Expr::var(acc),
                        Expr::add(Expr::mul(Expr::var(y), Expr::i64(3)), Expr::i64(1)),
                    ),
                );
            };
            if filter {
                f.if_then(
                    Expr::bin(
                        BinOp::Eq,
                        Expr::bin(BinOp::Rem, Expr::var(x), Expr::i64(2)),
                        Expr::i64(0),
                    ),
                    fetch_acc,
                );
            } else {
                fetch_acc(f);
            }
        }
        Segment::NestedSum => {
            let s = f.var_i64(format!("s{si}"));
            let e = f.var_i64(format!("e{si}"));
            let j = f.var_i64(format!("j{si}"));
            let v = f.var_i64(format!("v{si}"));
            let ls = f.load(a.bounds, Expr::var(i));
            f.assign(s, ls);
            let le = f.load(a.bounds, Expr::add(Expr::var(i), Expr::i64(1)));
            f.assign(e, le);
            f.for_loop(j, Expr::var(s), Expr::var(e), |f| {
                let lv = f.load(a.items, Expr::var(j));
                f.assign(v, lv);
                f.assign(acc, Expr::add(Expr::var(acc), Expr::var(v)));
            });
        }
        Segment::Histogram => {
            let h = f.var_i64(format!("h{si}"));
            let lh = f.load(a.idx, Expr::var(i));
            f.assign(h, lh);
            f.atomic_rmw(BinOp::Add, a.hist, Expr::var(h), Expr::i64(1), None);
        }
        Segment::WriteRace => {
            let w = f.var_i64(format!("w{si}"));
            let z = f.var_i64(format!("z{si}"));
            f.store(a.wr, Expr::var(i), Expr::var(acc));
            let lw = f.load(a.widx, Expr::var(i));
            f.assign(w, lw);
            let lz = f.load(a.wr, Expr::var(w));
            f.assign(z, lz);
            f.assign(
                acc,
                Expr::add(
                    Expr::var(acc),
                    Expr::bin(BinOp::And, Expr::var(z), Expr::i64(7)),
                ),
            );
        }
        Segment::DenseAcc => {
            let d = f.var_i64(format!("d{si}"));
            let ld = f.load(a.dense, Expr::var(i));
            f.assign(d, ld);
            f.assign(acc, Expr::add(Expr::var(acc), Expr::var(d)));
        }
    }
}

// ---------------------------------------------------------------------
// The differential check itself.
// ---------------------------------------------------------------------

/// The pass-ablation presets every cut subset is compiled under.
pub fn presets() -> Vec<PassConfig> {
    vec![
        PassConfig::queues_only(),
        PassConfig::with_recompute(),
        PassConfig::with_cv(),
        PassConfig::with_dce(),
        PassConfig::with_handlers(),
        PassConfig::all(),
        PassConfig::all_streaming(),
    ]
}

/// Work counters of one sweep (or one genome's check).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Genomes checked.
    pub programs: u64,
    /// Compile attempts (cut subset × preset points).
    pub compiles: u64,
    /// Pipelines that compiled and were run.
    pub pipelines: u64,
    /// Timed simulator runs (one per pipeline).
    pub runs: u64,
}

impl Totals {
    /// Accumulates another counter set (index-ordered merging keeps the
    /// sweep summary independent of scheduling).
    pub fn merge(&mut self, o: &Totals) {
        self.programs += o.programs;
        self.compiles += o.compiles;
        self.pipelines += o.pipelines;
        self.runs += o.runs;
    }
}

/// Checks one genome exhaustively. Returns the first divergence as a
/// human-readable description, or `None` if everything agrees.
pub fn check(g: &Genome, totals: &mut Totals) -> Option<String> {
    let func = build_func(g);
    let mem = build_mem(g);
    let params = [("n", Value::I64(g.n))];

    let oracle = match interp::run_serial(&func, mem.clone(), &params) {
        Ok(r) => r,
        // A generator bug, not a compiler bug: surface it loudly.
        Err(t) => return Some(format!("oracle trapped on the serial program: {t}")),
    };

    // Cut subsets over the top-ranked candidates (the cost model orders
    // them; 3 keeps the sweep exponent small while covering 1-4 stage
    // pipelines, the paper's sweet spot).
    let cand: Vec<LoadId> = analyze(&func).candidates().into_iter().take(3).collect();
    let cfg = MachineConfig::paper_1core();
    for mask in 0u32..(1 << cand.len()) {
        let cuts: Vec<LoadId> = (0..cand.len())
            .filter(|b| mask & (1 << b) != 0)
            .map(|b| cand[b])
            .collect();
        for passes in presets() {
            let opts = CompileOptions {
                passes,
                ..CompileOptions::default()
            };
            totals.compiles += 1;
            let pipe = match decouple_with_cuts(&func, &cuts, &opts) {
                Ok(p) => p,
                Err(_) => continue, // rejecting a cut is legal
            };
            totals.pipelines += 1;
            if let Some(d) = diff_pipeline(&pipe, &mem, &params, &oracle, &cfg, totals) {
                return Some(format!(
                    "cuts {:?}, passes [{}]: {d}",
                    cuts.iter().map(|c| c.0).collect::<Vec<_>>(),
                    passes.label(),
                ));
            }
        }
    }
    None
}

/// Runs one compiled pipeline on the timed simulator and diffs its
/// final memory against the serial oracle.
fn diff_pipeline(
    pipe: &Pipeline,
    mem: &MemState,
    params: &[(&str, Value)],
    oracle: &interp::FunctionalRun,
    cfg: &MachineConfig,
    totals: &mut Totals,
) -> Option<String> {
    totals.runs += 1;
    let mut session = pipette_sim::Session::new(cfg.clone(), mem.clone());
    if let Err(t) = session.run(pipe, params) {
        return Some(format!("timed run trapped: {t}"));
    }
    let (final_mem, _stats) = session.finish();
    if !final_mem.same_contents(&oracle.mem) {
        return Some("final memory differs from the serial oracle".to_string());
    }
    None
}

// ---------------------------------------------------------------------
// Native-backend differential check (`fuzzdiff --native`).
// ---------------------------------------------------------------------

/// Worker-thread counts every native run must agree on (worker counts
/// clamp to the stage count inside the backend, so over-provisioned
/// points still exercise the assignment path).
pub const NATIVE_GRID: [usize; 3] = [1, 2, 4];

/// Checks one genome through the *native* backend: every cut subset of
/// the top-ranked candidates × pass preset that compiles runs on real
/// threads at every [`NATIVE_GRID`] point, and the final memory must
/// equal the serial oracle's at all of them. A trap on a pipeline the
/// compiler accepted is a failure, exactly as in the simulator sweep.
/// The two sides share no engine: the threads run `FlatInterp` over
/// bytecode, the oracle the tree-walking `StepInterp`, so this sweep
/// also diffs the interpreters on every generated program.
///
/// Candidates are capped at 3, as in the simulator sweep: each pipeline
/// here costs one real-thread run per [`NATIVE_GRID`] point where the
/// simulator sweep makes one simulated run.
pub fn check_native(g: &Genome, totals: &mut Totals) -> Option<String> {
    let func = build_func(g);
    let mem = build_mem(g);
    let params = [("n", Value::I64(g.n))];

    let oracle = match interp::run_serial(&func, mem.clone(), &params) {
        Ok(r) => r,
        Err(t) => return Some(format!("oracle trapped on the serial program: {t}")),
    };

    let cand: Vec<LoadId> = analyze(&func).candidates().into_iter().take(3).collect();
    let cfg = MachineConfig::paper_1core();
    for mask in 0u32..(1 << cand.len()) {
        let cuts: Vec<LoadId> = (0..cand.len())
            .filter(|b| mask & (1 << b) != 0)
            .map(|b| cand[b])
            .collect();
        for passes in presets() {
            let opts = CompileOptions {
                passes,
                ..CompileOptions::default()
            };
            totals.compiles += 1;
            let pipe = match decouple_with_cuts(&func, &cuts, &opts) {
                Ok(p) => p,
                Err(_) => continue,
            };
            totals.pipelines += 1;
            for threads in NATIVE_GRID {
                totals.runs += 1;
                let mut session = pipette_sim::Session::new(cfg.clone(), mem.clone());
                session.set_backend(ExecBackend::Native(NativeConfig { threads }));
                if let Err(t) = session.run(&pipe, &params) {
                    return Some(format!(
                        "cuts {:?}, passes [{}], native t{threads} trapped: {t}",
                        cuts.iter().map(|c| c.0).collect::<Vec<_>>(),
                        passes.label(),
                    ));
                }
                let (final_mem, _) = session.finish();
                if !final_mem.same_contents(&oracle.mem) {
                    return Some(format!(
                        "cuts {:?}, passes [{}], native t{threads}: \
                         final memory differs from the serial oracle",
                        cuts.iter().map(|c| c.0).collect::<Vec<_>>(),
                        passes.label(),
                    ));
                }
            }
        }
    }
    None
}

/// Delta-debugs a failing genome to a local minimum, then returns it
/// with the (re-derived) divergence description.
pub fn minimize(g: Genome, why: String) -> (Genome, String) {
    minimize_with(g, why, check)
}

/// [`minimize`] against an arbitrary checker — the native sweep shrinks
/// its failures through [`check_native`] so the reproducer still fails
/// on the backend that flushed it.
pub fn minimize_with(
    mut g: Genome,
    mut why: String,
    checker: impl Fn(&Genome, &mut Totals) -> Option<String>,
) -> (Genome, String) {
    loop {
        let mut reduced = false;
        for cand in g.shrink_candidates() {
            if let Some(w) = checker(&cand, &mut Totals::default()) {
                g = cand;
                why = w;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return (g, why);
        }
    }
}

/// Renders one (minimized) failing genome as the ready-to-paste
/// regression report the fuzzer prints.
pub fn render_failure(g: &Genome, why: &str) -> String {
    format!(
        "\n=== DIVERGENCE ===\n{why}\ngenome: seed={seed:#x} n={n} data_len={dl} while={ws} \
         break={eb:?} segments={segs:?}\n\
         --- minimized program (paste into a regression test) ---\n{prog}",
        seed = g.seed,
        n = g.n,
        dl = g.data_len,
        ws = g.while_shape,
        eb = g.early_break,
        segs = g.segments,
        prog = pretty::function_to_string(&build_func(g))
    )
}

// ---------------------------------------------------------------------
// Pool-parallel sweep driver.
// ---------------------------------------------------------------------

/// Result of a fuzz sweep. Everything here is keyed or ordered by
/// genome index, so two sweeps with the same `(seed, count)` are
/// byte-identical however many workers ran them.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    /// Merged work counters, accumulated in genome order.
    pub totals: Totals,
    /// `(genome index, genome, divergence)` for every failing genome,
    /// in genome order, un-minimized (minimization is interactive
    /// diagnostics, left to the caller).
    pub failures: Vec<(u64, Genome, String)>,
}

impl FuzzOutcome {
    /// Canonical one-line summary (byte-identical across worker counts;
    /// the determinism suite compares exactly this plus the failure
    /// renderings).
    pub fn summary(&self, seed: u64) -> String {
        format!(
            "fuzzdiff: seed {seed:#x}: {} programs, {} compile points, {} pipelines, \
             {} timed runs, {} divergences",
            self.totals.programs,
            self.totals.compiles,
            self.totals.pipelines,
            self.totals.runs,
            self.failures.len(),
        )
    }
}

/// Runs the differential sweep: `count` genomes drawn from `seed`'s
/// stream, each checked exhaustively, fanned out over `pool`. The
/// genome stream is drawn serially up front (identical to the old
/// serial loop), the per-genome checks are pure, and results merge in
/// genome order — so the outcome is bit-identical at every worker
/// count. `progress` (if given) is called with the number of completed
/// genomes at a coarse cadence, for unordered "... k/count" lines.
pub fn fuzz_sweep(
    seed: u64,
    count: u64,
    pool: &Pool,
    progress: Option<&(dyn Fn(u64) + Sync)>,
) -> FuzzOutcome {
    fuzz_sweep_with(seed, count, pool, progress, check)
}

/// [`fuzz_sweep`] against an arbitrary per-genome checker. The genome
/// stream is identical for every checker (same seed → same programs),
/// so `fuzzdiff --native` fuzzes exactly the programs the simulator
/// sweep fuzzes. Native checks spawn their own worker fleets inside the
/// pool's tasks; the pool's nested-fleet path makes that legal.
pub fn fuzz_sweep_with(
    seed: u64,
    count: u64,
    pool: &Pool,
    progress: Option<&(dyn Fn(u64) + Sync)>,
    checker: impl Fn(&Genome, &mut Totals) -> Option<String> + Sync,
) -> FuzzOutcome {
    let mut rng = Rng::new(seed);
    let genomes: Vec<Genome> = (0..count).map(|_| Genome::random(&mut rng)).collect();
    let done = AtomicU64::new(0);
    let per_genome = pool.map(&genomes, |_i, g| {
        let mut totals = Totals {
            programs: 1,
            ..Totals::default()
        };
        let why = checker(g, &mut totals);
        let k = done.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(p) = progress {
            if k.is_multiple_of(200) {
                p(k);
            }
        }
        (totals, why)
    });
    let mut out = FuzzOutcome {
        totals: Totals::default(),
        failures: Vec::new(),
    };
    for (i, r) in per_genome.into_iter().enumerate() {
        match r {
            Ok((totals, why)) => {
                out.totals.merge(&totals);
                if let Some(why) = why {
                    out.failures.push((i as u64, genomes[i].clone(), why));
                }
            }
            Err(panic) => {
                // A panicking check is itself a divergence-grade bug:
                // record it against the genome instead of dying.
                out.totals.merge(&Totals {
                    programs: 1,
                    ..Totals::default()
                });
                out.failures.push((
                    i as u64,
                    genomes[i].clone(),
                    format!("checker panicked: {}", panic.message),
                ));
            }
        }
    }
    out
}
