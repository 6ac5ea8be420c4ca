//! The paper's tables and figures, by name:
//!
//! ```text
//! figures fig6 fig9        # any of: tables fig6 fig9 fig10 fig11 fig12 fig13 fig14
//! figures all              # all eight, in that order
//! ```
//!
//! Each name is a function in [`phloem_bench::figures`]; this binary
//! prints what it returns. `SCALE=tiny|small|full` and `PHLOEM_WORKERS`
//! as in the crate docs. Figs. 9, 10 and 11 read one measurement matrix,
//! computed once per process — with the PGO column only when `fig9` is
//! asked for — and Figs. 9 and 13 read one PGO search per app.

use phloem_bench::figures::{self, Fig9Matrix};

const NAMES: [&str; 8] = [
    "tables", "fig6", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
];

fn main() {
    let usage = |got: &str| -> ! {
        eprintln!("usage: figures <{}|all>...   (got {got})", NAMES.join("|"));
        std::process::exit(2)
    };
    let mut names: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "all" => names.extend(NAMES.map(String::from)),
            name if NAMES.contains(&name) => names.push(a),
            other => usage(&format!("{other:?}")),
        }
    }
    if names.is_empty() {
        usage("no figure");
    }
    let with_pgo = names.iter().any(|n| n == "fig9");
    let matrix = std::cell::OnceCell::new();
    let shared = || -> &Fig9Matrix { matrix.get_or_init(|| figures::fig9_matrix(with_pgo)) };
    for name in &names {
        let blocks = match name.as_str() {
            "tables" => figures::tables(),
            "fig6" => figures::fig6(),
            "fig9" => figures::fig9(shared()),
            "fig10" => figures::fig10(shared()),
            "fig11" => figures::fig11(shared()),
            "fig12" => figures::fig12(),
            "fig13" => figures::fig13(&["BFS", "CC", "Radii", "SpMM"]),
            "fig14" => figures::fig14(),
            other => unreachable!("{other} passed the NAMES check"),
        };
        print!("{}", figures::render(&blocks));
    }
}
