//! # phloem-compiler
//!
//! A reproduction of **Phloem** (Nguyen & Sanchez, HPCA 2023): a compiler
//! that automatically transforms *serial* irregular programs into
//! efficient *fine-grain pipeline-parallel* programs for Pipette-style
//! hardware.
//!
//! The compiler implements the paper's design as a series of simple
//! passes:
//!
//! 1. [`analysis`] — the static cost model that ranks candidate
//!    decoupling points (indirect loads in deep loops score highest;
//!    adjacent accesses are grouped; Sec. V).
//! 2. [`decouple`] — slicing into stages with queue communication ("add
//!    queues"), rematerialization ("recompute"), control values,
//!    control-value handlers, and inter-stage DCE (Sec. IV-B, passes 1-2
//!    and 4-6).
//! 3. [`ra`] — reference-accelerator extraction including chained RAs
//!    (pass 3).
//! 4. [`search`] — the profile-guided optimization mode that enumerates
//!    candidate pipelines and profiles them on training inputs.
//! 5. [`replicate`] — `#pragma replicate` / `#pragma distribute`
//!    data-parallel pipeline replication (Sec. IV-C).
//!
//! ```no_run
//! use phloem_compiler::{compile_static, CompileOptions};
//! # let func = phloem_ir::Function::new("empty");
//! let pipeline = compile_static(&func, 4, &CompileOptions::default())?;
//! # Ok::<(), phloem_compiler::CompileError>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod decouple;
mod emit;
pub mod normalize;
pub mod options;
pub mod ra;
pub mod replicate;
pub mod search;

pub use analysis::{analyze, AccessKind, Analysis, LoadInfo};
pub use options::{CompileError, PassConfig};

use decouple::{assign_stages, partition_comm, plan, TreeBuilder};
use emit::emit_stage;
use phloem_ir::{Expr, Function, LoadId, Pipeline, Stmt};

/// Top-level compilation options.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Pass switches (Fig. 6 ablations).
    pub passes: PassConfig,
    /// SMT threads per core.
    pub smt_threads: usize,
    /// Hardware queue budget.
    pub max_queues: u16,
    /// RA engines available.
    pub max_ras: usize,
    /// First core for placement.
    pub start_core: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            passes: PassConfig::all(),
            smt_threads: 4,
            max_queues: 16,
            max_ras: 4,
            start_core: 0,
        }
    }
}

/// Decouples `func` at exactly the given cut loads (in any order; they
/// are sorted into pipeline order automatically).
///
/// # Errors
/// Returns a [`CompileError`] when the cuts are illegal (races, missing
/// loads, unsupported shapes) or exceed hardware limits.
pub fn decouple_with_cuts(
    func: &Function,
    cuts: &[LoadId],
    opts: &CompileOptions,
) -> Result<Pipeline, CompileError> {
    func.validate()
        .map_err(|e| CompileError::Unsupported(e.to_string()))?;
    let nf = normalize::normalize(func);
    let mut tb = TreeBuilder::default();
    let mut tree = tb.build(&nf.body)?;

    // Order cuts by their position in the program.
    let positions = load_positions(&nf.body);
    let mut sorted: Vec<(usize, LoadId)> = Vec::with_capacity(cuts.len());
    for c in cuts {
        let p = positions
            .iter()
            .find(|(l, _)| l == c)
            .ok_or(CompileError::UnknownCut(*c))?
            .1;
        if sorted.iter().any(|(_, l)| l == c) {
            return Err(CompileError::Unsupported(format!("duplicate cut {c:?}")));
        }
        sorted.push((p, *c));
    }
    sorted.sort();
    let mut cut_pairs: Vec<(LoadId, u32)> = sorted
        .iter()
        .enumerate()
        .map(|(i, (_, l))| (*l, i as u32 + 1))
        .collect();
    // Adjacency grouping (Sec. V): loads adjacent to a cut load (e.g.
    // nodes[v+1] next to nodes[v]) are almost surely cache hits and are
    // kept in the cut's stage rather than being separated from it.
    let a = analyze(func);
    for info in &a.loads {
        if let Some(primary) = info.adjacent_primary {
            if let Some(&(_, stage)) = cut_pairs.iter().find(|(l, _)| *l == primary) {
                cut_pairs.push((info.id, stage));
            }
        }
    }

    let nstages = assign_stages(&mut tree, &nf.params, &cut_pairs)?;
    let (mut the_plan, forced) = plan(&tree, &nf.params, nstages, opts.passes)?;
    let groups = decouple::def_groups(&tree);
    partition_comm(&mut the_plan, &forced, &groups, opts.max_queues)?;

    let mut pipe = Pipeline::new(func.name.clone());
    let mut placed = 0usize;
    for s in 0..nstages {
        if let Some(p) = emit_stage(&the_plan, &tree, &nf, s, &func.name)? {
            let core = opts.start_core + placed / opts.smt_threads;
            pipe.add_stage(p, core);
            placed += 1;
        }
    }
    let limits = phloem_ir::ValidateLimits {
        queues_per_core: opts.max_queues,
    };
    if opts.passes.validate_between_passes {
        phloem_ir::validate_pipeline(&pipe, &limits, "emit")
            .map_err(CompileError::InvalidPipeline)?;
    }
    let mut last_pass = "emit";
    if opts.passes.use_ra {
        ra::extract(&mut pipe, &nf.arrays, opts.max_ras);
        last_pass = "ra-extract";
        if opts.passes.validate_between_passes {
            phloem_ir::validate_pipeline(&pipe, &limits, last_pass)
                .map_err(CompileError::InvalidPipeline)?;
        }
    }
    pipe.check(opts.max_queues, opts.smt_threads, opts.max_ras)
        .map_err(|e| CompileError::Unsupported(e.to_string()))?;
    phloem_ir::validate_pipeline(&pipe, &limits, last_pass)
        .map_err(CompileError::InvalidPipeline)?;
    Ok(pipe)
}

/// Static compilation mode (Sec. V): ranks decoupling points with the
/// cost model and cuts at the top `n_stages - 1`.
///
/// # Errors
/// See [`decouple_with_cuts`]; additionally falls back to fewer stages
/// if a cut combination is illegal.
pub fn compile_static(
    func: &Function,
    n_stages: usize,
    opts: &CompileOptions,
) -> Result<Pipeline, CompileError> {
    let a = analyze(func);
    let cand = a.candidates();
    let take = (n_stages.saturating_sub(1)).min(cand.len());
    let mut cuts: Vec<LoadId> = cand.into_iter().take(take).collect();
    loop {
        match decouple_with_cuts(func, &cuts, opts) {
            Ok(p) => return Ok(p),
            Err(e) if cuts.is_empty() => return Err(e),
            Err(_) => {
                cuts.pop();
            }
        }
    }
}

fn load_positions(body: &[Stmt]) -> Vec<(LoadId, usize)> {
    // Position = preorder atom index, matching TreeBuilder.
    let mut out = Vec::new();
    let mut pos = 0usize;
    fn walk(body: &[Stmt], pos: &mut usize, out: &mut Vec<(LoadId, usize)>) {
        for s in body {
            match s {
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    walk(then_body, pos, out);
                    walk(else_body, pos, out);
                }
                Stmt::For { body, .. } | Stmt::While { body, .. } => walk(body, pos, out),
                atom => {
                    if let Stmt::Assign {
                        expr: Expr::Load { id, .. },
                        ..
                    } = atom
                    {
                        out.push((*id, *pos));
                    }
                    *pos += 1;
                }
            }
        }
    }
    walk(body, &mut pos, &mut out);
    out
}
