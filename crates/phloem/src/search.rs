//! Profile-guided pipeline search (Sec. V, Fig. 8).
//!
//! The static cost model's ranking is approximate — cache misses and
//! loop lengths are input-dependent. In PGO mode, Phloem selects more
//! than N-1 candidate decoupling points from the highest-ranked ones,
//! builds candidate pipelines from *combinations* of those points
//! ("no fewer than fifty different pipelines for each benchmark"),
//! profiles each on small training inputs, and keeps the best.
//!
//! Profiling is delegated to a caller-supplied closure (each benchmark
//! has its own host driver); candidates are profiled in parallel on the
//! shared host fleet ([`phloem_pool`]), which keeps every host
//! core busy when candidate costs are uneven and lands results in a
//! pre-sized index-keyed partition, so the report is bit-identical at
//! every worker count.
//!
//! ## Robustness contract
//!
//! A single broken candidate must not sink the search: the profile
//! closure receives a per-candidate [`ProfileBudget`] (a simulated-cycle
//! cap it should hand to the simulator's watchdog), every candidate
//! records a [`ProfileOutcome`] instead of a bare `Option`, a panicking
//! profile run is caught *by the pool* and recorded as
//! [`ProfileOutcome::Trapped`], and a candidate that times out gets
//! exactly one retry at [`SearchOptions::retry_cap_factor`] times the
//! budget. [`search_profiled`] itself never panics: it returns
//! [`SearchError`] when nothing enumerates or nothing profiles
//! successfully.

use crate::prepared::Prepared;
use crate::CompileOptions;
use phloem_ir::{Function, LoadId, Pipeline};
use phloem_pool::Pool;
use std::fmt;

/// Options for the profile-guided search.
#[derive(Clone, Debug)]
pub struct SearchOptions {
    /// Maximum *compute* stages per pipeline (the SMT thread budget).
    pub max_stages: usize,
    /// Candidate decoupling points drawn from the top of the ranking.
    pub top_k: usize,
    /// Compilation options (passes etc.).
    pub compile: CompileOptions,
    /// Worker threads used to profile candidates. Defaults to the
    /// host's available parallelism, honoring the shared
    /// `PHLOEM_WORKERS` override (see [`phloem_pool::default_workers`]).
    pub workers: usize,
    /// Per-candidate profiling budget in simulated cycles (the closure
    /// should wire it into the simulator's watchdog cycle cap).
    pub profile_cycle_cap: u64,
    /// A candidate that times out is retried once with the budget
    /// multiplied by this factor (1 disables the retry).
    pub retry_cap_factor: u64,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            max_stages: 4,
            top_k: 6,
            compile: CompileOptions::default(),
            workers: phloem_pool::default_workers(),
            profile_cycle_cap: 200_000_000,
            retry_cap_factor: 4,
        }
    }
}

/// Per-candidate profiling budget handed to the profile closure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfileBudget {
    /// Simulated-cycle cap for this candidate's profiling run(s).
    pub cycle_cap: u64,
}

/// Outcome of profiling one candidate pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum ProfileOutcome {
    /// Profiled successfully: gmean training cycles (lower is better).
    Ok(f64),
    /// The run raised a trap (or the profile closure panicked).
    Trapped(String),
    /// The run exceeded its cycle budget (watchdog cap or livelock
    /// window), including the enlarged retry budget.
    TimedOut,
}

impl ProfileOutcome {
    /// The training cycles if profiling succeeded.
    pub fn cycles(&self) -> Option<f64> {
        match self {
            ProfileOutcome::Ok(c) => Some(*c),
            _ => None,
        }
    }
}

/// Where a candidate's cycles went during profiling, as reported by
/// the profile closure (see [`search_profiled`]). Plain data so the
/// search layer stays simulator-agnostic: every driver builds it with
/// `phloem_benchsuite::candidate_outcome`, from the statistics of the
/// candidate's first training run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CandidateProfile {
    /// Name of the compute stage whose finish time bounds the makespan
    /// (the stage a tuner should attack first).
    pub critical_stage: String,
    /// Per-stage `(name, utilization)` with utilization in `[0, 1]`,
    /// in pipeline order (RA stages included).
    pub stage_utilization: Vec<(String, f64)>,
    /// Dominant stall class across all stages (e.g. `queue-full`,
    /// `queue-empty`, `backend`, `frontend`).
    pub dominant_stall: String,
}

/// One profiled candidate.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The cut loads defining the pipeline.
    pub cuts: Vec<LoadId>,
    /// Total stage count *including* reference accelerators (the metric
    /// of Fig. 13).
    pub total_stages: usize,
    /// Compute stages only.
    pub compute_stages: usize,
    /// How profiling ended for this candidate.
    pub outcome: ProfileOutcome,
    /// Cycle-attribution report, when the profile closure produced one.
    pub profile: Option<CandidateProfile>,
}

impl Candidate {
    /// Gmean training cycles; `None` unless profiling succeeded.
    pub fn train_cycles(&self) -> Option<f64> {
        self.outcome.cycles()
    }
}

/// Result of a search.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// All candidates (compiled ones), with profile results.
    pub candidates: Vec<Candidate>,
    /// Index of the best candidate in `candidates`.
    pub best: usize,
    /// The best pipeline, recompiled.
    pub pipeline: Pipeline,
}

/// Why a search produced no result.
#[derive(Clone, Debug)]
pub enum SearchError {
    /// No combination of candidate points compiled to a legal pipeline.
    NoPipelines,
    /// Every enumerated candidate trapped or timed out while profiling;
    /// the per-candidate outcomes are preserved for diagnostics.
    NoViableCandidate {
        /// The profiled candidates with their failure outcomes.
        candidates: Vec<Candidate>,
    },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::NoPipelines => write!(f, "no candidate pipeline compiles"),
            SearchError::NoViableCandidate { candidates } => write!(
                f,
                "all {} candidates failed to profile (first: {:?})",
                candidates.len(),
                candidates.first().map(|c| &c.outcome)
            ),
        }
    }
}

impl std::error::Error for SearchError {}

/// Enumerates all legal pipelines from combinations of the top-k
/// candidate points (sizes 1 ..= max_stages-1). Returns `(cuts,
/// pipeline)` pairs for the combinations that compile, in ascending
/// order of the combination's bit mask (bit `i` = the `i`-th ranked
/// candidate). The kernel's front half is prepared once for all of them.
pub fn enumerate_pipelines(func: &Function, opts: &SearchOptions) -> Vec<(Vec<LoadId>, Pipeline)> {
    let Ok(prepared) = Prepared::new(func) else {
        return Vec::new();
    };
    let mut cand = prepared.analysis.candidates();
    cand.truncate(opts.top_k);
    let mut out = Vec::new();
    let max_cuts = opts.max_stages.saturating_sub(1);
    for_each_subset(cand.len(), max_cuts, &mut Vec::new(), &mut |chosen| {
        let cuts: Vec<LoadId> = chosen.iter().rev().map(|&i| cand[i]).collect();
        if let Ok(p) = prepared.cut(&cuts, &opts.compile) {
            out.push((cuts, p));
        }
    });
    out
}

/// Visits every non-empty subset of `0..n` with at most `k` members, in
/// ascending order of its bit mask, as the members above `chosen`
/// (highest first): the subsets whose highest member is `top` come
/// after all those below it, `{top}` alone first.
fn for_each_subset(n: usize, k: usize, chosen: &mut Vec<usize>, f: &mut impl FnMut(&[usize])) {
    if k == 0 {
        return;
    }
    for top in 0..n {
        chosen.push(top);
        f(chosen);
        for_each_subset(top, k - 1, chosen, f);
        chosen.pop();
    }
}

/// Runs the profile-guided search. `profile` runs one candidate
/// (identified by its cuts and compiled pipeline) on the training inputs
/// under the given budget and reports how it went, with a per-candidate
/// [`CandidateProfile`] when it has one; candidates that time out at the
/// base budget get one retry at an enlarged budget. The report's
/// candidates carry the profiles, so callers can explain *why* the
/// winner won — which stage is critical and what the losers stalled on.
///
/// # Errors
/// [`SearchError::NoPipelines`] when nothing enumerates;
/// [`SearchError::NoViableCandidate`] when every candidate traps or
/// times out (the report-shaped outcomes are preserved inside the
/// error). This function never panics on profiling failures.
pub fn search_profiled(
    func: &Function,
    opts: &SearchOptions,
    profile: impl Fn(&[LoadId], &Pipeline, &ProfileBudget) -> (ProfileOutcome, Option<CandidateProfile>)
        + Sync,
) -> Result<SearchReport, SearchError> {
    let pipelines = enumerate_pipelines(func, opts);
    if pipelines.is_empty() {
        return Err(SearchError::NoPipelines);
    }
    let base = ProfileBudget {
        cycle_cap: opts.profile_cycle_cap,
    };
    let retry = ProfileBudget {
        cycle_cap: opts
            .profile_cycle_cap
            .saturating_mul(opts.retry_cap_factor.max(1)),
    };
    // The fleet keys results by candidate index into a pre-sized
    // partition, so the report below is independent of how the
    // candidates interleave across workers; a candidate whose profiling
    // panics is isolated by the pool and recorded as `Trapped`.
    let results = Pool::new(opts.workers).map(&pipelines, |_i, (cuts, p)| {
        let mut outcome = profile(cuts, p, &base);
        if outcome.0 == ProfileOutcome::TimedOut && retry.cycle_cap > base.cycle_cap {
            // One bounded retry: distinguishes "slow candidate" from
            // "diverging candidate" without letting either hang a worker.
            outcome = profile(cuts, p, &retry);
        }
        outcome
    });

    let mut candidates = Vec::with_capacity(pipelines.len());
    let mut best: Option<(usize, f64)> = None;
    for (i, ((cuts, p), slot)) in pipelines.iter().zip(results).enumerate() {
        let (outcome, profile) = match slot {
            Ok(outcome) => outcome,
            Err(panic) => (
                ProfileOutcome::Trapped(format!("profiling panicked: {}", panic.message)),
                None,
            ),
        };
        if let ProfileOutcome::Ok(c) = outcome {
            if best.map(|(_, b)| c < b).unwrap_or(true) {
                best = Some((i, c));
            }
        }
        candidates.push(Candidate {
            cuts: cuts.clone(),
            total_stages: p.total_stages(),
            compute_stages: p.compute_stages(),
            outcome,
            profile,
        });
    }
    let Some((best, _)) = best else {
        return Err(SearchError::NoViableCandidate { candidates });
    };
    // No panic path out of a search: `best` indexes `pipelines` by
    // construction, but if that invariant ever breaks the caller gets
    // the structured error (preserving every candidate's outcome for
    // diagnostics), not an unwinding worker. `phloemd` surfaces this
    // as a `no_viable_candidate` error response.
    let Some((_, pipeline)) = pipelines.into_iter().nth(best) else {
        return Err(SearchError::NoViableCandidate { candidates });
    };
    Ok(SearchReport {
        candidates,
        best,
        pipeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phloem_ir::{interp, ArrayDecl, Expr, FunctionBuilder, MemState, Trap};

    /// Small irregular kernel: out[0] += b[a[i]] for i < len[0].
    fn kernel() -> Function {
        let mut b = FunctionBuilder::new("gather");
        let a = b.array_i32("a");
        let bb = b.array_i32("b");
        let out = b.array_i64("out");
        let lenq = b.array_i32("len");
        let n = b.var_i64("n");
        let i = b.var_i64("i");
        let x = b.var_i64("x");
        let y = b.var_i64("y");
        let sum = b.var_i64("sum");
        let ln = b.load(lenq, Expr::i64(0));
        b.assign(n, ln);
        b.for_loop(i, Expr::i64(0), Expr::var(n), |f| {
            let la = f.load(a, Expr::var(i));
            f.assign(x, la);
            let lb = f.load(bb, Expr::var(x));
            f.assign(y, lb);
            f.assign(sum, Expr::add(Expr::var(sum), Expr::var(y)));
        });
        b.store(out, Expr::i64(0), Expr::var(sum));
        b.build()
    }

    type Profiled = (ProfileOutcome, Option<CandidateProfile>);

    /// Functional op-count profile (a stand-in for cycles).
    fn op_count_profile(_cuts: &[LoadId], p: &Pipeline, _b: &ProfileBudget) -> Profiled {
        let mut mem = MemState::new();
        mem.alloc_i64(ArrayDecl::i32("a"), (0..64).map(|i| (i * 7) % 64));
        mem.alloc_i64(ArrayDecl::i32("b"), 0..64);
        mem.alloc(ArrayDecl::i64("out"), 1);
        mem.alloc_i64(ArrayDecl::i32("len"), [64]);
        let outcome = match interp::run_pipeline(p, mem, &[], 24) {
            Ok(run) => ProfileOutcome::Ok(run.total().total() as f64),
            Err(t) => ProfileOutcome::Trapped(t.to_string()),
        };
        (outcome, None)
    }

    #[test]
    fn enumeration_covers_combinations() {
        let f = kernel();
        let pipes = enumerate_pipelines(&f, &SearchOptions::default());
        // Candidates: a[i], b[x], len[0] -> all subsets of size <= 3
        // that compile.
        assert!(pipes.len() >= 3, "got {}", pipes.len());
        let lens: Vec<usize> = pipes.iter().map(|(c, _)| c.len()).collect();
        assert!(lens.contains(&1) && lens.contains(&2));
    }

    #[test]
    fn subsets_come_in_ascending_mask_order() {
        let mut masks = Vec::new();
        for_each_subset(5, 5, &mut Vec::new(), &mut |chosen| {
            masks.push(chosen.iter().map(|&i| 1u32 << i).sum::<u32>());
        });
        assert_eq!(masks, (1..32).collect::<Vec<_>>());
        let mut capped = Vec::new();
        for_each_subset(5, 2, &mut Vec::new(), &mut |chosen| {
            capped.push(chosen.iter().map(|&i| 1u32 << i).sum::<u32>());
        });
        let want: Vec<u32> = (1..32).filter(|m: &u32| m.count_ones() <= 2).collect();
        assert_eq!(capped, want);
    }

    #[test]
    fn wide_candidate_pools_enumerate_past_32_cuts() {
        // 33 independent gathers: 33 indirect and 33 sequential loads,
        // more candidates than a 32-bit subset mask has bits.
        let mut b = FunctionBuilder::new("wide");
        let lenq = b.array_i32("len");
        let n = b.var_i64("n");
        let i = b.var_i64("i");
        let ln = b.load(lenq, Expr::i64(0));
        b.assign(n, ln);
        let lanes: Vec<_> = (0..33)
            .map(|k| {
                (
                    b.array_i32(format!("a{k}")),
                    b.array_i32(format!("b{k}")),
                    b.array_i32(format!("out{k}")),
                    b.var_i64(format!("x{k}")),
                    b.var_i64(format!("y{k}")),
                )
            })
            .collect();
        b.for_loop(i, Expr::i64(0), Expr::var(n), |f| {
            for &(a, bb, out, x, y) in &lanes {
                let la = f.load(a, Expr::var(i));
                f.assign(x, la);
                let lb = f.load(bb, Expr::var(x));
                f.assign(y, lb);
                f.store(out, Expr::var(i), Expr::var(y));
            }
        });
        let f = b.build();
        let opts = SearchOptions {
            top_k: 40,
            max_stages: 2,
            ..SearchOptions::default()
        };
        let cand = crate::analyze(&f).candidates();
        assert!(cand.len() >= 40, "got {} candidates", cand.len());
        let want: Vec<Vec<LoadId>> = cand[..40]
            .iter()
            .filter(|c| crate::decouple_with_cuts(&f, &[**c], &opts.compile).is_ok())
            .map(|c| vec![*c])
            .collect();
        assert!(want.len() > 32, "only {} single cuts are legal", want.len());
        let got: Vec<Vec<LoadId>> = enumerate_pipelines(&f, &opts)
            .into_iter()
            .map(|(cuts, _)| cuts)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn search_picks_the_fastest_profile() {
        let f = kernel();
        let report = search_profiled(&f, &SearchOptions::default(), op_count_profile).unwrap();
        assert!(report.candidates.len() >= 3);
        assert!(report.candidates[report.best].train_cycles().is_some());
        // The chosen pipeline must actually be one of the candidates.
        assert!(report.pipeline.total_stages() >= 1);
    }

    #[test]
    fn worker_count_does_not_change_the_result() {
        let f = kernel();
        let serial_opts = SearchOptions {
            workers: 1,
            ..SearchOptions::default()
        };
        let serial = search_profiled(&f, &serial_opts, op_count_profile).unwrap();
        let parallel = search_profiled(&f, &SearchOptions::default(), op_count_profile).unwrap();
        assert_eq!(serial.best, parallel.best);
        let serial_cycles: Vec<Option<f64>> =
            serial.candidates.iter().map(|c| c.train_cycles()).collect();
        let parallel_cycles: Vec<Option<f64>> = parallel
            .candidates
            .iter()
            .map(|c| c.train_cycles())
            .collect();
        assert_eq!(serial_cycles, parallel_cycles);
    }

    #[test]
    fn failing_candidates_do_not_panic_the_search() {
        let f = kernel();
        // Every odd-numbered call path fails differently: panic for
        // 1-cut candidates, trap for 2-cut ones. The search must still
        // return Ok with the survivors recorded.
        let report = search_profiled(&f, &SearchOptions::default(), |cuts, p, b| {
            if cuts.len() == 1 {
                panic!("injected profiling panic");
            }
            if cuts.len() == 2 {
                return (ProfileOutcome::Trapped(Trap::DivByZero.to_string()), None);
            }
            op_count_profile(cuts, p, b)
        });
        match report {
            Ok(r) => {
                assert!(r.candidates[r.best].train_cycles().is_some());
                assert!(r
                    .candidates
                    .iter()
                    .any(|c| matches!(c.outcome, ProfileOutcome::Trapped(_))));
            }
            Err(SearchError::NoViableCandidate { candidates }) => {
                // Legal only if *every* candidate had 1 or 2 cuts.
                assert!(candidates.iter().all(|c| c.cuts.len() <= 2));
            }
            Err(e) => panic!("unexpected search error: {e}"),
        }
    }

    #[test]
    fn all_failures_yield_a_structured_error() {
        let f = kernel();
        let err = search_profiled(&f, &SearchOptions::default(), |_, _, _| {
            (ProfileOutcome::TimedOut, None)
        })
        .unwrap_err();
        match err {
            SearchError::NoViableCandidate { candidates } => {
                assert!(!candidates.is_empty());
                assert!(candidates
                    .iter()
                    .all(|c| c.outcome == ProfileOutcome::TimedOut));
            }
            e => panic!("expected NoViableCandidate, got {e}"),
        }
    }

    #[test]
    fn timed_out_candidates_get_one_retry_at_a_larger_budget() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let f = kernel();
        let opts = SearchOptions {
            workers: 1,
            profile_cycle_cap: 1000,
            retry_cap_factor: 4,
            ..SearchOptions::default()
        };
        let max_cap_seen = AtomicU64::new(0);
        let report = search_profiled(&f, &opts, |cuts, p, b| {
            max_cap_seen.fetch_max(b.cycle_cap, Ordering::Relaxed);
            if b.cycle_cap <= 1000 {
                // Pretend every candidate is too slow at the base budget.
                return (ProfileOutcome::TimedOut, None);
            }
            op_count_profile(cuts, p, b)
        })
        .unwrap();
        assert_eq!(max_cap_seen.load(Ordering::Relaxed), 4000);
        assert!(report.candidates[report.best].train_cycles().is_some());
    }
}
