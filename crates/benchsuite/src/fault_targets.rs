//! Packaged single-invocation pipelines for fault-injection testing.
//!
//! Each [`FaultTarget`] bundles a benchsuite pipeline with a populated
//! input memory and parameter bindings so a harness (`fuzzdiff --faults`)
//! can run one bounded kernel invocation under an injected
//! [`pipette_sim::FaultPlan`] and check its outcome.
//!
//! The set deliberately spans the simulator's structural space: manual
//! pipelines with inter-stage queues and chained RAs (BFS, CC, SpMM),
//! Phloem-compiled pipelines with control-value links (BFS static,
//! Radii), and a TACO phase. BFS-style targets get a dense fringe
//! (every vertex) so the queues carry real traffic for squeeze and
//! stall faults to bite on.

use crate::runner::Variant;
use crate::{bfs, cc, radii, spmm, taco};
use phloem_ir::{MemState, Pipeline, Value};
use phloem_workloads::{graph, matrix};
use pipette_sim::MachineConfig;

/// One fault-injection target: a pipeline plus everything needed to run
/// it once.
pub struct FaultTarget {
    /// Display name, e.g. `bfs/manual`.
    pub name: &'static str,
    /// The pipeline to run.
    pub pipeline: Pipeline,
    /// Input memory for one invocation.
    pub mem: MemState,
    /// Parameter bindings for the invocation.
    pub params: Vec<(&'static str, Value)>,
}

/// Fills the BFS fringe with every vertex so one invocation drives
/// maximal queue traffic.
fn densify_fringe(mem: &mut MemState, arrays: &bfs::BfsArrays, n: usize) {
    bfs::fringe(arrays, 1, n).fill(mem, (0..n as i64).map(Value::I64));
}

/// Builds the standard fault-target set for a machine configuration.
///
/// # Panics
/// Panics if a Phloem compilation fails — the targets are fixed known
/// kernels, so that indicates a compiler regression, not a fault.
pub fn targets(cfg: &MachineConfig) -> Vec<FaultTarget> {
    let g = graph::power_law(300, 3, 5);
    let n = g.num_vertices;
    let mut out = Vec::new();

    // BFS, hand-optimized: fetch stage + chained INDIRECT/SCAN RAs.
    {
        let (mut mem, arrays) = bfs::build_mem(&g, 0, 1);
        densify_fringe(&mut mem, &arrays, n);
        out.push(FaultTarget {
            name: "bfs/manual",
            pipeline: bfs::manual_pipeline(),
            mem,
            params: vec![("cur_dist", Value::I64(1))],
        });
    }

    // BFS, Phloem static 4-stage: queue + control-value links.
    {
        let (mut mem, arrays) = bfs::build_mem(&g, 0, 1);
        densify_fringe(&mut mem, &arrays, n);
        out.push(FaultTarget {
            name: "bfs/static4",
            pipeline: bfs::pipeline_for(&Variant::phloem(), n, cfg).expect("BFS static pipeline"),
            mem,
            params: Vec::new(),
        });
    }

    // CC, hand-optimized: build_mem already starts with a full fringe.
    {
        let (mem, _arrays) = cc::build_mem(&g, 1);
        out.push(FaultTarget {
            name: "cc/manual",
            pipeline: cc::manual_pipeline(),
            mem,
            params: Vec::new(),
        });
    }

    // Radii, Phloem static: multi-source fringe, bitfield updates.
    {
        let (mem, _arrays) = radii::build_mem(&g, 1);
        out.push(FaultTarget {
            name: "radii/static4",
            pipeline: radii::pipeline_for(&Variant::phloem(), radii::segment(&g), cfg)
                .expect("Radii static pipeline"),
            mem,
            params: vec![("round", Value::I64(1))],
        });
    }

    // SpMM, hand-optimized: two-sided merge over CSR rows.
    {
        let a = matrix::random_square(80, 6.0, 11);
        let bt = matrix::random_square(80, 6.0, 12);
        let (mem, _arrays) = spmm::build_mem(&a, &bt, 1);
        out.push(FaultTarget {
            name: "spmm/manual",
            pipeline: spmm::manual_pipeline(),
            mem,
            params: vec![("n", Value::I64(a.rows as i64))],
        });
    }

    // TACO SpMV, Phloem-compiled main phase.
    {
        let a = matrix::random_square(120, 5.0, 13);
        let k = taco::TacoApp::Spmv.kernel();
        let (mem, _out_id) = taco::build_mem(taco::TacoApp::Spmv, &k, &a);
        let pipeline = taco::pipelines_for(taco::TacoApp::Spmv, &Variant::phloem(), cfg)
            .expect("TACO SpMV pipelines")
            .pop()
            .expect("TACO SpMV has at least one phase");
        out.push(FaultTarget {
            name: "taco/spmv",
            pipeline,
            mem,
            params: taco::params(taco::TacoApp::Spmv, &a),
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_sim::Session;

    #[test]
    fn all_targets_run_clean() {
        let cfg = MachineConfig::paper_1core();
        for t in targets(&cfg) {
            let mut session = Session::new(cfg.clone(), t.mem.clone());
            session
                .run(&t.pipeline, &t.params)
                .unwrap_or_else(|e| panic!("{} trapped unfaulted: {e}", t.name));
        }
    }
}
