//! Golden IR regression tests.
//!
//! `golden_cycles` pins what ten pipelines *cost*; this file pins what
//! fifty pipelines *are*: one FNV-1a digest of the pipeline's `Debug`
//! text — stage names and placement, variable and array declarations,
//! load and branch ids, statements, handlers, queue ids — for every
//! variant the suite hand-writes or compiles. Nothing is simulated, so
//! the whole table costs milliseconds. A refactor of the builders in
//! `crates/benchsuite` must leave every value as it is; a digest that
//! moves means the generated IR moved, and `golden_cycles` (which covers
//! a fifth of these) may or may not notice.
//!
//! More tables pin what the compiler emits where the builders never
//! reach: every candidate `enumerate_pipelines` returns for each app's
//! serial kernel (cuts, order and IR, one digest per kernel and search
//! setting); `compile_static` over every pass preset and 2-4 stages
//! (one digest per kernel); and a `compile_static` call whose
//! top-ranked cut set is illegal, so its cut-dropping fallback runs.
//!
//! To re-capture after an intentional IR change:
//! `GOLDEN_PRINT=1 cargo test --test golden_ir -- --nocapture`

use phloem_benchsuite::apps::APPS;
use phloem_benchsuite::fig14::{self, RepVariant};
use phloem_benchsuite::taco::{self, TacoApp};
use phloem_benchsuite::{bfs, cc, prd, radii, spmm, Variant};
use phloem_compiler::search::{enumerate_pipelines, SearchOptions};
use phloem_compiler::{
    analyze, compile_static, decouple_with_cuts, CompileError, CompileOptions, PassConfig,
};
use phloem_ir::{LoadId, Pipeline};
use pipette_sim::MachineConfig;
use std::fmt::Debug;

/// `(label, FNV-1a of the pipeline's Debug text)`, recorded on the tree
/// before `frontier.rs` existed (the four `taco-*/dp4` rows after it:
/// their slice bounds are named `_rlo`/`_rhi` since taco shares the
/// compiler's partition rewrite, and nothing else in them moved).
const GOLDEN: &[(&str, u64)] = &[
    ("bfs/serial", 0x66713d51fd98cddf),
    ("bfs/dp4", 0x16f8e2acdd491d94),
    ("bfs/dp16", 0xb05c349158fe7007),
    ("bfs/phloem", 0x641763be6acfd610),
    ("bfs/manual", 0x0fcffc813419e68b),
    ("cc/serial", 0xf939489be9e0d296),
    ("cc/dp4", 0xde480880b99b84a3),
    ("cc/dp16", 0xd6673a6988f2fa6f),
    ("cc/phloem", 0xa49a61df3d62e637),
    ("cc/manual", 0xf3d99c548bfcf80c),
    ("radii/serial", 0x76cb296c7ddd5067),
    ("radii/dp4", 0x2ae6b203a61ad3d3),
    ("radii/dp16", 0x04f4c7e65828cc1d),
    ("radii/phloem", 0x1d2e1e51a65a0590),
    ("radii/manual", 0x6d32be4cdcf13347),
    ("spmm/serial", 0x48f786cd66179b66),
    ("spmm/dp4", 0x34c3e9dd7107bfaa),
    ("spmm/dp16", 0x18fcbfd5b102ee97),
    ("spmm/phloem", 0x104c3e47517dc613),
    ("spmm/manual", 0xb94a7177116902c3),
    ("prd-scatter/serial", 0xf6db44eb476826cd),
    ("prd-apply/serial", 0xf6d847bb23a6bb1a),
    ("prd-scatter/dp4", 0x33ff11e0fd845fc2),
    ("prd-apply/dp4", 0x03989e3890d9fe7d),
    ("prd-scatter/dp16", 0xd74962cee868ecbf),
    ("prd-apply/dp16", 0x71cea355b210fb6d),
    ("prd-scatter/phloem", 0xe236168037d73b39),
    ("prd-apply/phloem", 0xe52539ae1fe4df78),
    ("prd-scatter/manual", 0x5a6b84e541f0be8c),
    ("prd-apply/manual", 0xf6d847bb23a6bb1a),
    ("bfs/replicated-phloem", 0x7be9bf3e3558ebf7),
    ("cc/replicated-phloem", 0xa47631cf0b0c0710),
    ("radii/replicated-phloem", 0x030cfc958008762b),
    ("prd-scatter/replicated-phloem", 0x169cb31c96293b63),
    ("bfs/replicated-manual", 0x7be9bf3e3558ebf7),
    ("cc/replicated-manual", 0xf2aa6ec5db241389),
    ("radii/replicated-manual", 0x89c5f8785e2192a9),
    ("prd-scatter/replicated-manual", 0xdcbd97b79ccb8a51),
    ("taco-mtmul/serial", 0xf2e94ef170e0b3ee),
    ("taco-mtmul/dp4", 0xf420704adcc1a86f),
    ("taco-mtmul/phloem", 0x9eacb7faa11ac2c5),
    ("taco-residual/serial", 0x62d20353c3341eb0),
    ("taco-residual/dp4", 0x751be302a699991e),
    ("taco-residual/phloem", 0x2533b217fb565650),
    ("taco-spmv/serial", 0x20a21adde9b172a9),
    ("taco-spmv/dp4", 0x937bb47d11655ae6),
    ("taco-spmv/phloem", 0x76d12976a8ac03fd),
    ("taco-sddmm/serial", 0xf36ab4f366899f40),
    ("taco-sddmm/dp4", 0xadb4296c6b5e5db6),
    ("taco-sddmm/phloem", 0x39b7bb874c122749),
];

/// Vertex count / segment size the size-dependent builders are given.
const N: usize = 1000;

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(ir: &impl Debug) -> u64 {
    fnv1a(&format!("{ir:?}"))
}

fn digest_all() -> Vec<(String, u64)> {
    let cfg = MachineConfig::paper_1core();
    let variants = [
        ("serial", Variant::Serial),
        ("dp4", Variant::DataParallel(4)),
        ("dp16", Variant::DataParallel(16)),
        ("phloem", Variant::phloem()),
        ("manual", Variant::Manual),
    ];
    type Build = fn(&Variant, &MachineConfig) -> Result<Pipeline, CompileError>;
    let apps: [(&str, Build); 4] = [
        ("bfs", |v, c| bfs::pipeline_for(v, N, c)),
        ("cc", |v, c| cc::pipeline_for(v, 4 * N, c)),
        ("radii", |v, c| radii::pipeline_for(v, 4 * N, c)),
        ("spmm", spmm::pipeline_for),
    ];
    let mut out = Vec::new();
    for (app, build) in apps {
        for (tag, v) in &variants {
            let p = build(v, &cfg).expect(app);
            out.push((format!("{app}/{tag}"), digest(&p)));
        }
    }
    for (tag, v) in &variants {
        let (scatter, apply) = prd::pipelines_for(v, N, &cfg).expect("prd");
        out.push((format!("prd-scatter/{tag}"), digest(&scatter)));
        out.push((format!("prd-apply/{tag}"), digest(&apply)));
    }
    type Replicated = fn(usize, RepVariant) -> Pipeline;
    let replicated: [(&str, Replicated); 4] = [
        ("bfs", fig14::bfs_replicated),
        ("cc", fig14::cc_replicated),
        ("radii", fig14::radii_replicated),
        ("prd-scatter", fig14::prd_scatter_replicated),
    ];
    for v in [RepVariant::Phloem, RepVariant::Manual] {
        let tag = format!("{v:?}").to_lowercase();
        for (app, build) in replicated {
            let label = format!("{app}/replicated-{tag}");
            out.push((label, digest(&build(4, v))));
        }
    }
    for app in TacoApp::all() {
        for (tag, v) in [&variants[0], &variants[1], &variants[3]] {
            // One digest over all of the app's phase pipelines.
            let phases = taco::pipelines_for(app, v, &cfg).expect("taco");
            let name = app.name().to_lowercase();
            out.push((format!("taco-{name}/{tag}"), digest(&phases)));
        }
    }
    out
}

#[test]
fn pipeline_ir_matches_the_recorded_digests() {
    let got = digest_all();
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (label, d) in &got {
            println!("    (\"{label}\", {d:#018x}),");
        }
        return;
    }
    assert_eq!(got.len(), GOLDEN.len());
    for ((label, d), (glabel, golden)) in got.iter().zip(GOLDEN) {
        assert_eq!(label, glabel);
        assert_eq!(
            d, golden,
            "{label}: generated IR diverged from the recorded pipeline"
        );
    }
}

/// `(label, candidates, FNV-1a of the Debug text of the whole
/// `enumerate_pipelines` result)`: cuts and pipeline of every candidate,
/// in enumeration order.
const GOLDEN_ENUMERATION: &[(&str, usize, u64)] = &[
    ("bfs/default", 25, 0x1584ee2dd4a128a3),
    ("bfs/top4-stages4", 14, 0xf668b5c290a28cb0),
    ("cc/default", 37, 0x12f40674c3fd6122),
    ("cc/top4-stages4", 12, 0x3707c4fca1d418af),
    ("prd/default", 32, 0x59fd1890a3fec546),
    ("prd/top4-stages4", 11, 0x35d1bc61a32141ca),
    ("radii/default", 37, 0x2c033a02550b9162),
    ("radii/top4-stages4", 14, 0x033b797b26fa3f26),
    ("spmm/default", 2, 0x6b5666ccc771fc50),
    ("spmm/top4-stages4", 2, 0x6b5666ccc771fc50),
];

/// The searches pinned above: `SearchOptions::default()` (top 6 cuts,
/// up to 4 stages) and the benchmark's `pgo_search` setting.
fn search_settings() -> [(&'static str, SearchOptions); 2] {
    [
        ("default", SearchOptions::default()),
        (
            "top4-stages4",
            SearchOptions {
                top_k: 4,
                max_stages: 4,
                ..SearchOptions::default()
            },
        ),
    ]
}

#[test]
fn enumerated_candidates_match_the_recorded_digests() {
    let mut got = Vec::new();
    for app in &APPS {
        let kernel = app.kernel();
        for (tag, opts) in search_settings() {
            let cands = enumerate_pipelines(&kernel, &opts);
            let label = format!("{}/{tag}", app.id());
            got.push((label, cands.len(), digest(&cands)));
        }
    }
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (label, n, d) in &got {
            println!("    (\"{label}\", {n}, {d:#018x}),");
        }
        return;
    }
    assert_eq!(got.len(), GOLDEN_ENUMERATION.len());
    for ((label, n, d), (glabel, gn, golden)) in got.iter().zip(GOLDEN_ENUMERATION) {
        assert_eq!(label, glabel);
        assert_eq!(n, gn, "{label}: candidate count moved");
        assert_eq!(
            d, golden,
            "{label}: an enumerated candidate diverged from the recorded pipeline"
        );
    }
}

/// `(label, FNV-1a of the Debug text of the kernel's 21 pipelines)`:
/// `compile_static` at 2, 3 and 4 stages under each of the seven pass
/// presets, presets outermost.
const GOLDEN_PRESETS: &[(&str, u64)] = &[
    ("bfs/presets", 0x3b8744890a0ab6d9),
    ("cc/presets", 0xaa4743a0b0120aff),
    ("prd/presets", 0x0e6cd41fdecfc2a3),
    ("radii/presets", 0xef5c2b8508a388b2),
    ("spmm/presets", 0xeab436fea0fb1d90),
];

#[test]
fn every_pass_preset_matches_the_recorded_digests() {
    let presets = [
        PassConfig::all(),
        PassConfig::queues_only(),
        PassConfig::with_recompute(),
        PassConfig::with_cv(),
        PassConfig::with_dce(),
        PassConfig::with_handlers(),
        PassConfig::all_streaming(),
    ];
    let mut got = Vec::new();
    for app in &APPS {
        let kernel = app.kernel();
        let mut pipes = Vec::new();
        for passes in presets {
            let opts = CompileOptions {
                passes,
                ..CompileOptions::default()
            };
            for stages in 2..=4 {
                let p = compile_static(&kernel, stages, &opts);
                pipes.push(p.unwrap_or_else(|e| panic!("{}: {e}", app.id())));
            }
        }
        got.push((format!("{}/presets", app.id()), digest(&pipes)));
    }
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (label, d) in &got {
            println!("    (\"{label}\", {d:#018x}),");
        }
        return;
    }
    assert_eq!(got.len(), GOLDEN_PRESETS.len());
    for ((label, d), (glabel, golden)) in got.iter().zip(GOLDEN_PRESETS) {
        assert_eq!(label, glabel);
        assert_eq!(d, golden, "{label}: a compiled pipeline diverged");
    }
}

/// SpMM at four stages: its three top-ranked cuts (and the top two)
/// are a race violation, so `compile_static` drops cuts until one is
/// left. Pins the pipeline the fallback settles on.
const GOLDEN_FALLBACK: u64 = 0x104c3e47517dc613;

#[test]
fn compile_static_fallback_matches_the_recorded_digest() {
    let kernel = spmm::kernel();
    let opts = CompileOptions::default();
    let top: Vec<LoadId> = analyze(&kernel).candidates().into_iter().take(3).collect();
    assert!(
        matches!(
            decouple_with_cuts(&kernel, &top, &opts),
            Err(CompileError::RaceViolation(_))
        ),
        "the pin needs an illegal top cut set"
    );
    let p = compile_static(&kernel, 4, &opts).expect("the fallback finds a legal cut set");
    assert_eq!(p.compute_stages(), 2, "the fallback keeps one cut");
    let d = digest(&p);
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("const GOLDEN_FALLBACK: u64 = {d:#018x};");
        return;
    }
    assert_eq!(d, GOLDEN_FALLBACK, "the fallback's pipeline diverged");
}
