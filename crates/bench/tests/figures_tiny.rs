//! The figure harness, end to end, in `cargo test --workspace`: the two
//! figures cheap enough to run here (80 ms in release) must render
//! byte for byte what `SCALE=tiny figures tables fig6` last committed to
//! `results/tiny/`. Between them they cross the catalog, the app table,
//! the guarded-row builder and the one printer. A deliberate change to
//! either re-records with
//! `SCALE=tiny figures <name> > results/tiny/<name>.txt`.

use phloem_bench::figures::{fig6, render, tables};

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
