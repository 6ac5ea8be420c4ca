//! Input sizes, pinned. Each keeps its catalog generator and shape and
//! is scaled so that one repetition of its workload's op list takes
//! about a second on the 2-core host the benchmark was sized on: a
//! 10-second run then holds enough repetitions for a steady median.
//! The catalog's `Small` sizes are given for comparison.

use phloem_workloads::catalog::Scale;

// sim_apps: one sweep is 18 ops.
/// `coauthor-s` is `collaboration(2600)`.
pub const SIM_COAUTHOR_COMMUNITIES: usize = 260;
/// `trace-s` is `mesh(189)`.
pub const SIM_TRACE_SIDE: usize = 60;
/// `gnutella-s` is `random_square(700, 2.4)`; SpMM is quadratic in rows.
pub const SIM_GNUTELLA_ROWS: usize = 220;

// compile_grid: one round is 112 sources at about 90 us each.
pub const GRID_ROUNDS_PER_REP: usize = 100;
/// Inputs of the set-up check only, never timed.
pub const GRID_CHECK_COMMUNITIES: usize = 24;
pub const GRID_CHECK_ROWS: usize = 24;

// pgo_search: two training inputs per kernel, one test input.
/// `internet-s` is `power_law(4000, 2)`.
pub const PGO_INTERNET_VERTICES: usize = 400;
/// `road-ny-s` is `road_network(94)`.
pub const PGO_ROAD_SIDE: usize = 20;
/// `enron-s` is `power_law_matrix(360, 10.0)`.
pub const PGO_ENRON_ROWS: usize = 60;
/// `wiki-s` is `power_law_matrix(300, 12.5)`.
pub const PGO_WIKI_ROWS: usize = 50;
pub const PGO_COAUTHOR_COMMUNITIES: usize = 260;
pub const PGO_GNUTELLA_ROWS: usize = 220;

// serve_*: the daemon resolves inputs by catalog name at this scale.
pub const SERVE_SCALE: Scale = Scale::Tiny;
pub const SERVE_SCALE_NAME: &str = "tiny";
/// serve_warm: one pass replays the 117 cacheable requests once, in
/// about 6 ms.
pub const SERVE_WARM_PASSES_PER_REP: usize = 80;

// native_apps.
pub const NATIVE_COAUTHOR_COMMUNITIES: usize = 260;
pub const NATIVE_GNUTELLA_ROWS: usize = 220;
