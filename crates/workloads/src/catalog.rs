//! Input catalogs mirroring the paper's Tables IV and V.
//!
//! Each entry names the paper's input and the synthetic analogue we
//! substitute (scaled down so cycle-level simulation stays tractable;
//! all program variants of a benchmark run the same instance, so
//! speedup ratios remain comparable).

use crate::graph::{self, Graph};
use crate::matrix::{self, SparseMatrix};

/// Scale of the generated inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny instances for unit tests (seconds).
    Tiny,
    /// Default harness scale (~10-300K edges).
    Small,
    /// Larger runs for final numbers.
    Full,
}

impl Scale {
    fn factor(self) -> f64 {
        match self {
            Scale::Tiny => 0.25,
            Scale::Small => 1.0,
            Scale::Full => 3.0,
        }
    }
}

/// A named graph input.
#[derive(Clone, Debug)]
pub struct GraphInput {
    /// Short name used in result tables.
    pub name: &'static str,
    /// The paper's input this stands in for.
    pub paper_analogue: &'static str,
    /// Domain label from Table IV.
    pub domain: &'static str,
    /// The graph.
    pub graph: Graph,
}

fn scaled(base: usize, scale: Scale) -> usize {
    ((base as f64 * scale.factor()) as usize).max(16)
}

/// Training graphs (Table IV): a small internet graph and a small road
/// network.
pub fn training_graphs(scale: Scale) -> Vec<GraphInput> {
    vec![
        GraphInput {
            name: "internet-s",
            paper_analogue: "internet (126K/207K)",
            domain: "Training internet graph",
            graph: graph::power_law(scaled(4000, scale), 2, 0xA1),
        },
        GraphInput {
            name: "road-ny-s",
            paper_analogue: "USA-road-d-NY (264K/734K)",
            domain: "Training road network",
            graph: graph::road_network(scaled_side(9000, scale), 0xA2),
        },
    ]
}

fn scaled_side(target_vertices: usize, scale: Scale) -> usize {
    ((target_vertices as f64 * scale.factor()).sqrt() as usize).max(8)
}

/// Test graphs (Table IV analogues).
pub fn test_graphs(scale: Scale) -> Vec<GraphInput> {
    vec![
        GraphInput {
            name: "coauthor-s",
            paper_analogue: "coAuthorsDBLP (299K/1.9M, deg 6.4)",
            domain: "Human collaboration",
            graph: graph::collaboration(scaled(2600, scale), 0xB1),
        },
        GraphInput {
            name: "trace-s",
            paper_analogue: "hugetrace-00000 (4.6M/14M, deg 3.0)",
            domain: "Dynamic simulation",
            graph: graph::mesh(scaled_side(36_000, scale), 0xB2),
        },
        GraphInput {
            name: "circuit-s",
            paper_analogue: "Freescale1 (3.4M/19M, deg 5.6)",
            domain: "Circuit simulation",
            graph: graph::uniform_random(scaled(26_000, scale), 6, 0xB3),
        },
        GraphInput {
            name: "skitter-s",
            paper_analogue: "as-Skitter (1.7M/22M, deg 12.9)",
            domain: "Internet graph",
            graph: graph::power_law(scaled(13_000, scale), 6, 0xB4),
        },
        GraphInput {
            name: "road-usa-s",
            paper_analogue: "USA-road-d-USA (24M/58M, deg 2.4)",
            domain: "Road network",
            graph: graph::road_network(scaled_side(60_000, scale), 0xB5),
        },
    ]
}

/// A named sparse-matrix input.
#[derive(Clone, Debug)]
pub struct MatrixInput {
    /// Short name used in result tables.
    pub name: &'static str,
    /// The paper's input this stands in for.
    pub paper_analogue: &'static str,
    /// Domain label from Table V.
    pub domain: &'static str,
    /// The matrix.
    pub matrix: SparseMatrix,
}

/// SpMM training matrices (Table V analogues). Note: inner-product SpMM
/// does an O(n^2) sweep of merge-intersections, so these instances are
/// scaled further down than the row-linear kernels' inputs.
pub fn spmm_training_matrices(scale: Scale) -> Vec<MatrixInput> {
    vec![
        MatrixInput {
            name: "enron-s",
            paper_analogue: "email-Enron (36,692 x, 10.0 nnz/row)",
            domain: "Training graph as matrix 1",
            matrix: matrix::power_law_matrix(scaled(360, scale), 10.0, 0xC1),
        },
        MatrixInput {
            name: "wiki-s",
            paper_analogue: "wiki-Vote (8,297 x, 12.5 nnz/row)",
            domain: "Training graph as matrix 2",
            matrix: matrix::power_law_matrix(scaled(300, scale), 12.5, 0xC2),
        },
    ]
}

/// SpMM test matrices (Table V analogues).
pub fn spmm_test_matrices(scale: Scale) -> Vec<MatrixInput> {
    vec![
        MatrixInput {
            name: "gnutella-s",
            paper_analogue: "p2p-Gnutella31 (62,586 x, 2.4 nnz/row)",
            domain: "File sharing",
            matrix: matrix::random_square(scaled(700, scale), 2.4, 0xD1),
        },
        MatrixInput {
            name: "amazon-s",
            paper_analogue: "amazon0312 (400,727 x, 8.0 nnz/row)",
            domain: "Graph as matrix",
            matrix: matrix::random_square(scaled(900, scale), 8.0, 0xD2),
        },
        MatrixInput {
            name: "cage-s",
            paper_analogue: "cage12 (130,228 x, 15.6 nnz/row)",
            domain: "Gel electrophoresis",
            matrix: matrix::banded(scaled(700, scale), 64, 15.6, 0xD3),
        },
        MatrixInput {
            name: "cubes-s",
            paper_analogue: "2cubes_sphere (101,492 x, 16.2 nnz/row)",
            domain: "Electromagnetics",
            matrix: matrix::banded(scaled(650, scale), 128, 16.2, 0xD4),
        },
        MatrixInput {
            name: "rma10-s",
            paper_analogue: "rma10 (46,835 x, 49.7 nnz/row)",
            domain: "Fluid dynamics",
            matrix: matrix::banded(scaled(500, scale), 96, 49.7, 0xD5),
        },
    ]
}

/// Taco test matrices (Table V analogues, used by MTMul, Residual, SpMV,
/// SDDMM).
pub fn taco_test_matrices(scale: Scale) -> Vec<MatrixInput> {
    vec![
        MatrixInput {
            name: "scircuit-s",
            paper_analogue: "scircuit (170,998 x, 5.6 nnz/row)",
            domain: "Circuit simulation",
            matrix: matrix::random_square(scaled(7000, scale), 5.6, 0xE1),
        },
        MatrixInput {
            name: "econ-s",
            paper_analogue: "mac_econ_fwd500 (206,500 x, 6.2 nnz/row)",
            domain: "Economics",
            matrix: matrix::random_square(scaled(7000, scale), 6.2, 0xE2),
        },
        MatrixInput {
            name: "cop20k-s",
            paper_analogue: "cop20k_A (121,192 x, 21.7 nnz/row)",
            domain: "Particle physics",
            matrix: matrix::banded(scaled(4500, scale), 256, 21.7, 0xE3),
        },
        MatrixInput {
            name: "pwtk-s",
            paper_analogue: "pwtk (217,918 x, 52.9 nnz/row)",
            domain: "Structural",
            matrix: matrix::banded(scaled(2600, scale), 128, 52.9, 0xE4),
        },
        MatrixInput {
            name: "cant-s",
            paper_analogue: "cant (62,451 x, 64.2 nnz/row)",
            domain: "Cantilever",
            matrix: matrix::banded(scaled(2000, scale), 96, 64.2, 0xE5),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_catalogs_are_valid_and_ordered_like_the_paper() {
        let train = training_graphs(Scale::Tiny);
        let test = test_graphs(Scale::Tiny);
        assert_eq!(train.len(), 2);
        assert_eq!(test.len(), 5);
        for g in train.iter().chain(&test) {
            g.graph.validate().expect(g.name);
        }
        // Road networks stay sparse; the internet graph is denser.
        let road = &test[4];
        let skitter = &test[3];
        assert!(road.graph.avg_degree() < 4.0);
        assert!(skitter.graph.avg_degree() > 8.0);
    }

    #[test]
    fn matrix_catalogs_match_density_ordering() {
        let m = spmm_test_matrices(Scale::Tiny);
        assert_eq!(m.len(), 5);
        for e in &m {
            e.matrix.validate().expect(e.name);
        }
        // Table V sorts by nnz/row: gnutella sparse, rma10 dense (the
        // banded generator clips near the edges at tiny scales, so the
        // threshold is conservative).
        assert!(m[0].matrix.avg_nnz_per_row() < 4.0);
        assert!(m[4].matrix.avg_nnz_per_row() > 20.0);
        let taco = taco_test_matrices(Scale::Tiny);
        assert_eq!(taco.len(), 5);
        assert!(taco[4].matrix.avg_nnz_per_row() > 40.0);
    }

    #[test]
    fn scales_are_monotone() {
        let tiny = test_graphs(Scale::Tiny)[0].graph.num_edges();
        let small = test_graphs(Scale::Small)[0].graph.num_edges();
        assert!(small > tiny);
    }
}
