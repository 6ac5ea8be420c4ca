//! The one app table. Every place that turns an app *name* into code —
//! the figure harnesses, the `trace` and `simspeed` bins, `phloemd`'s
//! batch layer — looks the name up here: its serial kernel, its single
//! run entry (`run_opt_traced`, over a graph or a matrix), its Fig. 14
//! replicated runner where it has one, and its catalog inputs.

use crate::fig14::{self, RepVariant};
use crate::runner::{Measurement, Variant};
use crate::{bfs, cc, prd, radii, spmm};
use phloem_ir::{Function, Trap};
use phloem_workloads::{catalog, Graph, Scale, SparseMatrix};
use pipette_sim::{MachineConfig, TraceSink};

/// A trace sink handed to, and back from, a run.
pub type Sink = Box<dyn TraceSink>;
/// What a run hands back: the oracle-checked measurement or the trap,
/// and the sink if one was given (even when the run traps).
pub type Ran = (Result<Measurement, Trap>, Option<Sink>);

/// What an app runs on, borrowed for one run.
#[derive(Clone, Copy)]
pub enum Input<'a> {
    /// A CSR graph (BFS starts at vertex 0).
    Graph(&'a Graph),
    /// `(A, Bᵀ)`: the inner-product kernel consumes B as CSC.
    Matrix(&'a SparseMatrix, &'a SparseMatrix),
}

type GraphRun = fn(&Variant, &Graph, &MachineConfig, &str, Option<Sink>) -> Ran;
type MatrixRun =
    fn(&Variant, &SparseMatrix, &SparseMatrix, &MachineConfig, &str, Option<Sink>) -> Ran;
type Replicated = fn(RepVariant, &Graph, &MachineConfig, &str) -> Result<Measurement, Trap>;

/// The run entry, by the catalog family the app's inputs come from.
enum Entry {
    Graph(GraphRun),
    Matrix(MatrixRun),
}

/// One row of the table.
pub struct App {
    name: &'static str,
    id: &'static str,
    kernel: fn() -> Function,
    entry: Entry,
    replicated: Option<Replicated>,
}

/// The five C-path applications, in the paper's order.
pub static APPS: [App; 5] = [
    App {
        name: "BFS",
        id: "bfs",
        kernel: bfs::kernel,
        entry: Entry::Graph(|v, g, c, n, s| bfs::run_opt_traced(v, g, 0, c, n, s)),
        replicated: Some(|r, g, c, n| fig14::run_bfs_replicated(r, g, 0, c, n)),
    },
    App {
        name: "CC",
        id: "cc",
        kernel: cc::kernel,
        entry: Entry::Graph(cc::run_opt_traced),
        replicated: Some(fig14::run_cc_replicated),
    },
    App {
        name: "PRD",
        id: "prd",
        kernel: prd::scatter_kernel,
        entry: Entry::Graph(prd::run_opt_traced),
        replicated: Some(fig14::run_prd_replicated),
    },
    App {
        name: "Radii",
        id: "radii",
        kernel: radii::kernel,
        entry: Entry::Graph(radii::run_opt_traced),
        replicated: Some(fig14::run_radii_replicated),
    },
    App {
        name: "SpMM",
        id: "spmm",
        kernel: spmm::kernel,
        entry: Entry::Matrix(spmm::run_opt_traced),
        replicated: None,
    },
];

/// Looks an app up by the name the paper's tables print (`BFS`,
/// `Radii`, `SpMM`).
pub fn app(name: &str) -> Option<&'static App> {
    APPS.iter().find(|a| a.name == name)
}

/// Looks an app up by its wire and command-line id (`bfs`, `radii`,
/// `spmm`) — what a `phloemd` request's `"app"` carries.
pub fn app_by_id(id: &str) -> Option<&'static App> {
    APPS.iter().find(|a| a.id == id)
}

impl App {
    /// Name as the paper's tables print it.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The wire and command-line id ([`app_by_id`]'s key).
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// The serial kernel the compiler and the PGO search are given.
    pub fn kernel(&self) -> Function {
        (self.kernel)()
    }

    /// Whether the app's inputs are graphs (else `(A, Bᵀ)` matrices).
    pub fn runs_on_graphs(&self) -> bool {
        matches!(self.entry, Entry::Graph(_))
    }

    /// Runs one variant on one input and verifies it against the app's
    /// host oracle (a mismatch panics: the variant miscompiled). Runtime
    /// traps come back as `Err`; `sink`, when given, observes every
    /// pipeline invocation and is handed back either way.
    pub fn run(
        &self,
        variant: &Variant,
        input: Input<'_>,
        cfg: &MachineConfig,
        input_name: &str,
        sink: Option<Sink>,
    ) -> Ran {
        match (&self.entry, input) {
            (Entry::Graph(run), Input::Graph(g)) => run(variant, g, cfg, input_name, sink),
            (Entry::Matrix(run), Input::Matrix(a, bt)) => {
                run(variant, a, bt, cfg, input_name, sink)
            }
            _ => {
                let what = format!("{} does not run on {input_name:?}'s family", self.name);
                (Err(Trap::BadId(what)), sink)
            }
        }
    }

    /// Runs the app's Fig. 14 replicated pipeline (verified like
    /// [`App::run`]); an app without one answers [`Trap::BadId`].
    pub fn run_replicated(
        &self,
        variant: RepVariant,
        input: Input<'_>,
        cfg: &MachineConfig,
        input_name: &str,
    ) -> Result<Measurement, Trap> {
        match (self.replicated, input) {
            (Some(run), Input::Graph(g)) => run(variant, g, cfg, input_name),
            _ => Err(Trap::BadId(format!(
                "{} has no replicated pipeline over {input_name:?}",
                self.name
            ))),
        }
    }

    /// The app's training (PGO profiling) inputs at `scale`.
    pub fn training_inputs(&self, scale: Scale) -> Vec<CatalogInput> {
        if self.runs_on_graphs() {
            graphs(catalog::training_graphs(scale))
        } else {
            matrices(catalog::spmm_training_matrices(scale))
        }
    }

    /// The app's test (reported) inputs at `scale`.
    pub fn test_inputs(&self, scale: Scale) -> Vec<CatalogInput> {
        if self.runs_on_graphs() {
            graphs(catalog::test_graphs(scale))
        } else {
            matrices(catalog::spmm_test_matrices(scale))
        }
    }
}

/// One catalog input, owned for the length of a sweep.
pub struct CatalogInput {
    name: &'static str,
    data: Data,
}

enum Data {
    Graph(Graph),
    Matrix(SparseMatrix, SparseMatrix),
}

fn graphs(inputs: Vec<catalog::GraphInput>) -> Vec<CatalogInput> {
    let own = |gi: catalog::GraphInput| CatalogInput {
        name: gi.name,
        data: Data::Graph(gi.graph),
    };
    inputs.into_iter().map(own).collect()
}

fn matrices(inputs: Vec<catalog::MatrixInput>) -> Vec<CatalogInput> {
    let own = |mi: catalog::MatrixInput| {
        let bt = mi.matrix.transpose();
        CatalogInput {
            name: mi.name,
            data: Data::Matrix(mi.matrix, bt),
        }
    };
    inputs.into_iter().map(own).collect()
}

impl CatalogInput {
    /// Catalog name (`coauthor-s`, `gnutella-s`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The borrowed view [`App::run`] takes.
    pub fn input(&self) -> Input<'_> {
        match &self.data {
            Data::Graph(g) => Input::Graph(g),
            Data::Matrix(a, bt) => Input::Matrix(a, bt),
        }
    }

    /// Size as progress lines print it: `23350 edges`, `404 nnz`.
    pub fn size(&self) -> String {
        match &self.data {
            Data::Graph(g) => format!("{} edges", g.num_edges()),
            Data::Matrix(a, _) => format!("{} nnz", a.nnz()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_wire_ids_are_separate_keys() {
        for a in &APPS {
            assert_eq!(app(a.name).unwrap().name, a.name);
            assert_eq!(app_by_id(a.id).unwrap().name, a.name);
            assert_eq!(a.id, a.name.to_ascii_lowercase());
        }
        assert!(app("bfs").is_none() && app_by_id("BFS").is_none());
    }

    #[test]
    fn an_input_of_the_wrong_family_is_a_trap_not_a_panic() {
        let g = phloem_workloads::graph::mesh(4, 1);
        let cfg = MachineConfig::paper_1core();
        let spmm = app("SpMM").unwrap();
        let (r, _) = spmm.run(&Variant::Serial, Input::Graph(&g), &cfg, "mesh", None);
        assert!(matches!(r, Err(Trap::BadId(_))));
        let r = spmm.run_replicated(RepVariant::Phloem, Input::Graph(&g), &cfg, "mesh");
        assert!(matches!(r, Err(Trap::BadId(_))));
    }
}
