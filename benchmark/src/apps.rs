//! The five benchsuite applications over seed-generated inputs, shared
//! by `sim_apps`, `pgo_search` and `native_apps`.

use phloem_benchsuite::{spmm, Measurement, Variant};
use phloem_ir::{Function, Trap};
use phloem_workloads::{graph::Graph, matrix::SparseMatrix};
use pipette_sim::MachineConfig;

pub const GRAPH_APPS: [&str; 4] = phloem_bench::GRAPH_APPS;
pub const SPMM: &str = "SpMM";

/// One generated input. The catalog's names are kept with a `-gen`
/// suffix: same generator and shape, seed from `--seed`.
pub enum Input {
    Graph {
        name: &'static str,
        graph: Graph,
    },
    Matrix {
        name: &'static str,
        a: SparseMatrix,
        bt: SparseMatrix,
    },
}

impl Input {
    pub fn graph(name: &'static str, graph: Graph) -> Input {
        Input::Graph { name, graph }
    }

    pub fn matrix(name: &'static str, a: SparseMatrix) -> Input {
        let bt = a.transpose();
        Input::Matrix { name, a, bt }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Input::Graph { name, .. } | Input::Matrix { name, .. } => name,
        }
    }
}

/// Runs `app` on `input`; the app verifies its result against its host
/// oracle and panics on a mismatch.
pub fn run_app(
    app: &str,
    variant: &Variant,
    input: &Input,
    cfg: &MachineConfig,
) -> Result<Measurement, Trap> {
    match input {
        Input::Graph { name, graph } => phloem_bench::run_graph_app(app, variant, graph, cfg, name),
        Input::Matrix { name, a, bt } => spmm::run(variant, a, bt, cfg, name),
    }
}

/// The serial kernel the compiler is given for `app`.
pub fn kernel(app: &str) -> Function {
    if app == SPMM {
        spmm::kernel()
    } else {
        phloem_bench::graph_app_kernel(app)
    }
}
