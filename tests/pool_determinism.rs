//! Worker-count independence of every fleet consumer: the pool
//! (`phloem-pool`) hands whole simulations to host threads from one
//! shared cursor, so the *only* acceptable effect of changing the worker
//! count is wall-clock time. These tests pin that down byte-for-byte:
//! the PGO search report, a fuzzdiff sweep's full report, and a
//! fig-style PGO sweep must render identically at worker counts
//! {1, 2, 4, available_parallelism} and across repeated runs at the
//! same count. (Pool-internal behavior — load balance across a blocked
//! worker, resident-thread reuse, cancellation, panic containment,
//! empty/one-task edges — is covered by the unit suite in
//! `crates/pool/tests/pool_unit.rs`.)
//!
//! The search property runs under proptest with a *randomized*
//! synthetic cost function, so determinism is not an artifact of one
//! lucky workload: candidates trap, time out, and tie at random, and
//! the report (winner choice included) must still be invariant.

use proptest::prelude::*;

use phloem_bench::fuzz::{fuzz_sweep, render_failure};
use phloem_bench::{app, machine};
use phloem_benchsuite::{bfs, pgo_search};
use phloem_compiler::search::{
    search_profiled, CandidateProfile, ProfileOutcome, SearchOptions, SearchReport,
};
use phloem_pool::Pool;
use phloem_workloads::Scale;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker counts under test: the ISSUE's {1, 2, 4} plus whatever this
/// host actually has (deduplicated; on a 1-core host the last entry
/// still exercises oversubscription at 2 and 4).
fn worker_counts() -> Vec<usize> {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1, 2, 4, avail];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Renders a search result to a canonical byte string. `Debug` output
/// is deterministic for these plain-data types, so byte equality of the
/// rendering is byte equality of the report.
fn render_search(r: &Result<SearchReport, phloem_compiler::search::SearchError>) -> String {
    match r {
        Ok(rep) => format!("best={} candidates={:?}", rep.best, rep.candidates),
        Err(e) => format!("error={e:?}"),
    }
}

/// A synthetic, seed-randomized profile closure: a pure function of the
/// candidate's cuts (never of scheduling), mixing in traps and
/// timeouts so failure paths are exercised too.
fn synthetic_outcome(seed: u64, cuts_dbg: &str) -> (ProfileOutcome, Option<CandidateProfile>) {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in cuts_dbg.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
    }
    match h % 10 {
        0 => (
            ProfileOutcome::Trapped(format!("synthetic trap {h:x}")),
            None,
        ),
        1 => (ProfileOutcome::TimedOut, None),
        _ => (
            ProfileOutcome::Ok(1000.0 + (h % 100_000) as f64),
            Some(CandidateProfile {
                critical_stage: format!("stage{}", h % 4),
                stage_utilization: vec![(format!("s{}", h % 3), (h % 97) as f64 / 97.0)],
                dominant_stall: "queue-full".into(),
            }),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `search_profiled` over the BFS kernel with a randomized
    /// synthetic cost function: byte-identical report at every worker
    /// count, and across a repeated run at the same count.
    #[test]
    fn search_report_is_worker_count_independent(seed in any::<u64>()) {
        let kernel = bfs::kernel();
        let profile = |cuts: &[phloem_ir::LoadId],
                       _p: &phloem_ir::Pipeline,
                       _b: &phloem_compiler::search::ProfileBudget| {
            synthetic_outcome(seed, &format!("{cuts:?}"))
        };
        let mut reference: Option<String> = None;
        for w in worker_counts() {
            let opts = SearchOptions { workers: w, ..SearchOptions::default() };
            let rendered = render_search(&search_profiled(&kernel, &opts, profile));
            let again = render_search(&search_profiled(&kernel, &opts, profile));
            prop_assert_eq!(&rendered, &again, "search not reproducible at {} workers", w);
            match &reference {
                None => reference = Some(rendered),
                Some(r) => prop_assert_eq!(r, &rendered, "search diverged at {} workers", w),
            }
        }
    }

    /// A fuzzdiff sweep's full report (summary + every failure
    /// rendering): byte-identical at every worker count and across
    /// repeated runs.
    #[test]
    fn fuzz_sweep_report_is_worker_count_independent(seed in any::<u64>()) {
        let render = |w: usize| {
            let outcome = fuzz_sweep(seed, 20, &Pool::new(w), None);
            let mut s = outcome.summary(seed);
            for (k, g, why) in &outcome.failures {
                s.push_str(&format!("\n[{k}] {}", render_failure(g, why)));
            }
            s
        };
        let mut reference: Option<String> = None;
        for w in worker_counts() {
            let rendered = render(w);
            prop_assert_eq!(&rendered, &render(w), "fuzz sweep not reproducible at {} workers", w);
            match &reference {
                None => reference = Some(rendered),
                Some(r) => prop_assert_eq!(r, &rendered, "fuzz sweep diverged at {} workers", w),
            }
        }
    }
}

/// A fig-style sweep — `pgo_search` profiling real BFS simulations over
/// the training graphs, exactly the search behind Figs. 9 and 13 —
/// produces a byte-identical report at every worker count. One
/// deterministic workload (real simulation is too slow to proptest),
/// asserted on the full rendered report including every candidate's
/// outcome and profile. The same sweep shows what a candidate costs: one
/// simulation per training input, which is also where its profile comes
/// from.
#[test]
fn fig_style_sweep_is_worker_count_independent() {
    let (bfs, cfg) = (app("BFS"), machine());
    let training = bfs.training_inputs(Scale::Tiny);
    let runs = AtomicUsize::new(0);
    let sweep = |w: usize| {
        let opts = SearchOptions {
            workers: w,
            ..SearchOptions::default()
        };
        pgo_search(&bfs.kernel(), &opts, &cfg, &training, |v, i, cfg| {
            runs.fetch_add(1, Ordering::Relaxed);
            bfs.run(v, i.input(), cfg, i.name(), None).0
        })
    };
    let mut reference: Option<String> = None;
    for w in worker_counts() {
        let before = runs.load(Ordering::Relaxed);
        let report = sweep(w).expect("BFS has viable candidates");
        assert_eq!(
            runs.load(Ordering::Relaxed) - before,
            report.candidates.len() * training.len(),
            "a candidate is simulated once per training input, no more"
        );
        for c in &report.candidates {
            assert_eq!(
                c.profile.is_some(),
                c.train_cycles().is_some(),
                "{:?}: every candidate that ran, and only those, carries a profile",
                c.cuts
            );
        }
        let rendered = render_search(&Ok(report));
        match &reference {
            None => reference = Some(rendered),
            Some(r) => assert_eq!(r, &rendered, "fig-style sweep diverged at {w} workers"),
        }
    }
    // A fleet never costs throughput, even oversubscribed: the tasks are
    // whole simulations, so 8 workers on fewer cores must stay within 2x
    // of one worker's wall time (and still render the same outcome).
    let timed = |w: usize| {
        let start = std::time::Instant::now();
        assert_eq!(reference, Some(render_search(&sweep(w))));
        start.elapsed().as_secs_f64()
    };
    let speedup = timed(1) / timed(8);
    assert!(
        speedup > 0.5,
        "fleet overhead pathology: 8 workers run the sweep at {speedup:.2}x of 1 worker"
    );
}
