//! The figure harness, end to end, in `cargo test --workspace`: the
//! figures cheap enough to run here (`tables` and `fig6`, 80 ms in
//! release; the BFS block of `fig13`, one PGO search) must render byte
//! for byte what `SCALE=tiny figures tables fig6 fig13` last committed
//! to `results/tiny/`. Between them they cross the catalog, the app
//! table, the guarded-row builder, the PGO search and the one printer. A
//! deliberate change to one re-records with
//! `SCALE=tiny figures <name> > results/tiny/<name>.txt`. Fig. 6's rows
//! are also held to the shape the paper reports (ROADMAP 3(b)).

use phloem_bench::figures::{fig13, fig6, render, tables};

#[test]
fn tables_and_fig6_render_as_committed_at_tiny_scale() {
    std::env::set_var("SCALE", "tiny");
    let tables_txt = include_str!("../../../results/tiny/tables.txt");
    let fig6_txt = include_str!("../../../results/tiny/fig6.txt");
    for (name, blocks, want) in [("tables", tables(), tables_txt), ("fig6", fig6(), fig6_txt)] {
        let text = render(&blocks);
        assert_eq!(text, want, "{name} drifted from results/tiny/{name}.txt");
    }
}

/// `results/tiny/fig13.txt` was recorded by the commit before the PGO
/// search's candidate evaluation became one function
/// (`phloem_benchsuite::candidate_outcome`): the same candidates, bucket
/// sizes and speedups, to the printed digit, is what "same search" means.
#[test]
fn fig13s_bfs_block_renders_as_committed_at_tiny_scale() {
    std::env::set_var("SCALE", "tiny");
    let committed = include_str!("../../../results/tiny/fig13.txt");
    let bfs_block = |text: &str| {
        let from_bfs = text.lines().skip_while(|l| *l != "BFS:");
        let block = from_bfs.take_while(|l| *l != "CC:" && !l.is_empty());
        block.map(String::from).collect::<Vec<_>>()
    };
    let want = bfs_block(committed);
    assert_eq!(want.len(), 6, "BFS block of results/tiny/fig13.txt");
    assert_eq!(bfs_block(&render(&fig13(&["BFS"]))), want);
}

/// Fig. 6's shape as the paper states it, over the same rows (their
/// `label` and cycle count, not their text). `holds` is what this
/// simulator shows at tiny scale today: a claim that does not hold is
/// carried as an expected failure, so the day it flips — either way —
/// fails here with its sentence.
#[test]
fn fig6_has_the_papers_shape_at_tiny_scale() {
    std::env::set_var("SCALE", "tiny");
    let fig = fig6().remove(0);
    assert!(fig.failures.is_empty(), "{:?}", fig.failures);
    let cycles = |label: &str| {
        let row = fig.rows.iter().find(|r| r.label == label);
        row.unwrap_or_else(|| panic!("fig6 has no row {label:?}"))
            .values[0]
    };
    // Each pass's gain over the configuration it was added to.
    let ladder = [
        "Q",
        "R,Q",
        "CV,R,Q",
        "DCE,CV,R,Q",
        "CH,DCE,CV,R,Q",
        "RA,CH,DCE,CV,R,Q",
    ];
    let gain = |i: usize| 1.0 - cycles(ladder[i]) / cycles(ladder[i - 1]);
    let (rq, cv, dce) = (cycles("R,Q"), cycles("CV,R,Q"), cycles("DCE,CV,R,Q"));
    let shapes = [
        ("CV without DCE is slower than R,Q", true, cv > rq),
        (
            "DCE recovers the dip: faster than both CV,R,Q and R,Q",
            true,
            dce < cv && dce < rq,
        ),
        (
            "full Phloem is at or ahead of manual",
            true,
            cycles(ladder[5]) <= cycles("manual"),
        ),
        (
            "RA is the largest single jump (at tiny scale DCE's -21% beats RA's -7%)",
            false,
            (1..5).all(|i| gain(5) > gain(i)),
        ),
    ];
    for (claim, holds, measured) in shapes {
        assert_eq!(measured, holds, "Fig. 6 shape moved: {claim}");
    }
}
