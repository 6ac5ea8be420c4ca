//! Golden simulated-cycle regression tests.
//!
//! Infrastructure refactors must not change the timing model: these
//! tests pin the exact cycle counts and trace-event digests the timing
//! model produces on deterministic workloads, through small single-core
//! pipelines and replicated multicore ones. The pins were recorded
//! while the seed's polling scheduler, the tree-walking engine and the
//! dense issue calendar all still agreed with the surviving path, so
//! they are the reference now that those are gone. Any divergence means
//! a change altered *simulated time*, not just host time.
//!
//! To re-capture after an intentional timing-model change:
//! `GOLDEN_PRINT=1 cargo test --test golden_cycles -- --nocapture`

use phloem_benchsuite::fig14::{run_bfs_replicated, run_cc_replicated, RepVariant};
use phloem_benchsuite::{bfs, cc, spmm, taco, Variant};
use phloem_workloads::{graph, matrix};
use pipette_sim::{DigestSink, MachineConfig, TeeSink, TraceEvent, TraceMeta, TraceSink};
use std::fmt::Write as _;

/// `(label, cycles)` pinned from the seed timing model (verified
/// unchanged by the stream-prefetcher sentinel fix on these workloads).
const GOLDEN: &[(&str, u64)] = &[
    ("bfs/phloem/power_law_500", 17649),
    ("bfs/manual/power_law_500", 18395),
    ("bfs/replicated/collab_200", 20176),
    ("cc/phloem/power_law_300", 15318),
    ("cc/manual/power_law_300", 22979),
    ("spmm/phloem/rnd_40", 98808),
    ("spmm/manual/rnd_40", 114958),
    ("spmm/dp4/rnd_40", 32102),
    ("taco-spmv/phloem/rnd_48", 1961),
    ("cc/replicated/power_law_300", 17109),
];

fn measure_all() -> Vec<(&'static str, u64)> {
    let cfg1 = MachineConfig::paper_1core();
    let cfg4 = MachineConfig::paper_multicore(4);
    let mut out = Vec::new();

    let g = graph::power_law(500, 3, 3);
    out.push((
        "bfs/phloem/power_law_500",
        bfs::run(&Variant::phloem(), &g, 0, &cfg1, "power_law_500")
            .expect("golden run")
            .cycles,
    ));
    out.push((
        "bfs/manual/power_law_500",
        bfs::run(&Variant::Manual, &g, 0, &cfg1, "power_law_500")
            .expect("golden run")
            .cycles,
    ));

    let gr = graph::collaboration(200, 2);
    out.push((
        "bfs/replicated/collab_200",
        run_bfs_replicated(RepVariant::Phloem, &gr, 0, &cfg4, "collab_200")
            .expect("golden run")
            .cycles,
    ));

    let gc = graph::power_law(300, 3, 3);
    out.push((
        "cc/phloem/power_law_300",
        cc::run(&Variant::phloem(), &gc, &cfg1, "power_law_300")
            .expect("golden run")
            .cycles,
    ));
    out.push((
        "cc/manual/power_law_300",
        cc::run(&Variant::Manual, &gc, &cfg1, "power_law_300")
            .expect("golden run")
            .cycles,
    ));

    let a = matrix::random_square(40, 3.0, 1);
    let bt = a.transpose();
    out.push((
        "spmm/phloem/rnd_40",
        spmm::run(&Variant::phloem(), &a, &bt, &cfg1, "rnd_40")
            .expect("golden run")
            .cycles,
    ));
    out.push((
        "spmm/manual/rnd_40",
        spmm::run(&Variant::Manual, &a, &bt, &cfg1, "rnd_40")
            .expect("golden run")
            .cycles,
    ));
    out.push((
        "spmm/dp4/rnd_40",
        spmm::run(&Variant::DataParallel(4), &a, &bt, &cfg1, "rnd_40")
            .expect("golden run")
            .cycles,
    ));

    let m = matrix::random_square(48, 4.0, 7);
    out.push((
        "taco-spmv/phloem/rnd_48",
        taco::run(taco::TacoApp::Spmv, &Variant::phloem(), &m, &cfg1, "rnd_48")
            .expect("golden run")
            .cycles,
    ));

    out.push((
        "cc/replicated/power_law_300",
        run_cc_replicated(RepVariant::Phloem, &gc, &cfg4, "power_law_300")
            .expect("golden run")
            .cycles,
    ));
    out
}

#[test]
fn cycle_counts_match_the_seed_model_exactly() {
    let got = measure_all();
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (label, cycles) in &got {
            println!("    (\"{label}\", {cycles}),");
        }
        return;
    }
    assert_eq!(got.len(), GOLDEN.len());
    for ((label, cycles), (glabel, golden)) in got.iter().zip(GOLDEN) {
        assert_eq!(label, glabel);
        assert_eq!(
            cycles, golden,
            "{label}: simulated cycles diverged from the seed timing model"
        );
    }
}

/// `(label, seed digest, word digest)` — golden order-sensitive digests
/// of the trace event stream; any change here means the *semantic event
/// sequence* changed, not just its rendering.
///
/// The first value is the seed's pin: byte-wise FNV-1a over each
/// event's `Debug` text, which [`DebugTextSink`] still computes, so it
/// witnesses that the stream has not moved since the seed. The second
/// is [`DigestSink`]'s fold over [`TraceEvent::words`], the digest the
/// library and `phloemd`'s `trace` op report.
const GOLDEN_TRACE: &[(&str, u64, u64)] = &[
    (
        "bfs/phloem/power_law_500",
        0x96a65d54d36a922f,
        0x04129afd4083c387,
    ),
    (
        "taco-spmv/phloem/rnd_48",
        0x8168f5deefbb240e,
        0x56b93abae9f04fac,
    ),
];

/// The seed's digest definition, kept here (and only here) as a
/// reference: FNV-1a, byte by byte, over `begin <pipeline> @<base>`,
/// every event's `derive(Debug)` rendering, `end @<makespan>`, and
/// finally `#<count>`.
struct DebugTextSink {
    hash: u64,
    count: u64,
    scratch: String,
}

impl DebugTextSink {
    fn new() -> DebugTextSink {
        DebugTextSink {
            hash: 0xcbf2_9ce4_8422_2325,
            count: 0,
            scratch: String::new(),
        }
    }

    fn fold(&mut self) {
        self.hash = fnv_bytes(self.hash, &self.scratch);
        self.scratch.clear();
    }

    fn digest(&self) -> u64 {
        fnv_bytes(self.hash, &format!("#{}", self.count))
    }
}

fn fnv_bytes(h: u64, s: &str) -> u64 {
    s.bytes()
        .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

impl TraceSink for DebugTextSink {
    fn begin(&mut self, meta: &TraceMeta) {
        let _ = write!(self.scratch, "begin {} @{}", meta.pipeline, meta.base);
        self.fold();
    }

    fn event(&mut self, ev: &TraceEvent) {
        let _ = write!(self.scratch, "{ev:?}");
        self.fold();
        self.count += 1;
    }

    fn end(&mut self, makespan: u64) {
        let _ = write!(self.scratch, "end @{makespan}");
        self.fold();
    }
}

/// Both digests of one traced run, seed definition first.
fn both_digests(run: impl FnOnce(Box<dyn TraceSink>) -> Box<dyn TraceSink>) -> (u64, u64) {
    let tee = run(Box::new(TeeSink::new(vec![
        Box::new(DebugTextSink::new()),
        Box::new(DigestSink::new()),
    ])));
    let tee = tee.downcast_ref::<TeeSink>().expect("the tee comes back");
    let text = tee.sinks()[0].downcast_ref::<DebugTextSink>();
    let words = tee.sinks()[1].downcast_ref::<DigestSink>();
    (
        text.expect("text sink").digest(),
        words.expect("digest sink").digest(),
    )
}

fn trace_digests() -> Vec<(&'static str, u64, u64)> {
    let cfg = MachineConfig::paper_1core();
    let mut out = Vec::new();

    let g = graph::power_law(500, 3, 3);
    let (text, words) = both_digests(|sink| {
        let (m, sink) =
            bfs::run_opt_traced(&Variant::phloem(), &g, 0, &cfg, "power_law_500", Some(sink));
        m.expect("golden run");
        sink.expect("the sink is handed back")
    });
    out.push(("bfs/phloem/power_law_500", text, words));

    let a = matrix::random_square(48, 4.0, 7);
    let (text, words) = both_digests(|sink| {
        let (m, sink) = taco::run_opt_traced(
            taco::TacoApp::Spmv,
            &Variant::phloem(),
            &a,
            &cfg,
            "rnd_48",
            Some(sink),
        );
        m.expect("golden run");
        sink.expect("the sink is handed back")
    });
    out.push(("taco-spmv/phloem/rnd_48", text, words));
    out
}

#[test]
fn trace_digests_match_the_pinned_event_streams() {
    let got = trace_digests();
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (label, text, words) in &got {
            println!("    (\"{label}\", {text:#018x}, {words:#018x}),");
        }
        return;
    }
    assert_eq!(got.len(), GOLDEN_TRACE.len());
    for ((label, text, words), (glabel, gtext, gwords)) in got.iter().zip(GOLDEN_TRACE) {
        assert_eq!(label, glabel);
        assert_eq!(
            text, gtext,
            "{label}: the semantic trace event stream diverged from the seed's pinned digest"
        );
        assert_eq!(
            words, gwords,
            "{label}: the word digest moved while the event stream did not: \
             TraceEvent::words or DigestSink's fold changed definition"
        );
    }
}

#[test]
fn repeated_runs_are_deterministic() {
    let a = measure_all();
    let b = measure_all();
    assert_eq!(a, b, "simulation is not deterministic across runs");
}
