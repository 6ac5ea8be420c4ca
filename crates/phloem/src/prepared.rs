//! A kernel's front half, built once and cut many times.
//!
//! Everything [`decouple_with_cuts`](crate::decouple_with_cuts) does
//! before it looks at the cut set — validation, normalisation, the cost
//! model, the decoupling tree and its [`Shape`] — depends on the kernel
//! alone. [`Prepared`] holds it, so `compile_static`'s cut-dropping
//! fallback and the PGO search's subset enumeration pay for it once per
//! kernel instead of once per attempt.

use crate::analysis::{analyze_normalized, Analysis};
use crate::decouple::{assign_stages, partition_comm, plan, Node, Shape, TreeBuilder};
use crate::emit::emit_stage;
use crate::options::CompileError;
use crate::{fold, normalize, ra, CompileOptions};
use phloem_ir::{Function, LoadId, Pipeline};

/// A validated, normalised, analysed kernel with its decoupling tree.
pub(crate) struct Prepared {
    /// The normalised function; its body lives on in `tree`.
    nf: Function,
    /// The kernel's own variable count: ids at or above it are the
    /// temporaries normalisation and emission declared.
    first_temp: usize,
    /// One past the largest branch id of the normalised body.
    next_branch: u32,
    tree: Vec<Node>,
    shape: Shape,
    /// The cost model's view of the kernel (what [`crate::analyze`]
    /// returns for it).
    pub analysis: Analysis,
}

impl Prepared {
    /// Validates, normalises and analyses `func` and builds its tree.
    ///
    /// # Errors
    /// [`CompileError::Unsupported`] when `func` fails
    /// [`Function::validate`] or contains queue or atomic operations.
    pub(crate) fn new(func: &Function) -> Result<Prepared, CompileError> {
        func.validate()
            .map_err(|e| CompileError::Unsupported(e.to_string()))?;
        let mut nf = normalize::normalize(func);
        let analysis = analyze_normalized(&nf);
        let next_branch = nf.next_branch_id().0 + 1;
        let mut tb = TreeBuilder::default();
        let tree = tb.build(std::mem::take(&mut nf.body))?;
        let shape = Shape::new(&tree, &tb, &nf);
        Ok(Prepared {
            first_temp: func.vars.len(),
            nf,
            next_branch,
            tree,
            shape,
            analysis,
        })
    }

    /// Decouples the kernel at exactly the given cut loads (in any
    /// order; they are sorted into pipeline order).
    ///
    /// # Errors
    /// See [`crate::decouple_with_cuts`].
    pub(crate) fn cut(
        &self,
        cuts: &[LoadId],
        opts: &CompileOptions,
    ) -> Result<Pipeline, CompileError> {
        // Order cuts by their position in the program.
        let mut sorted: Vec<(usize, LoadId)> = Vec::with_capacity(cuts.len());
        for c in cuts {
            let p = self
                .shape
                .loads
                .iter()
                .find(|(l, _, _)| l == c)
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
        // nodes[v+1] next to nodes[v]) are almost surely cache hits and
        // are kept in the cut's stage rather than being separated from it.
        for info in &self.analysis.loads {
            if let Some(primary) = info.adjacent_primary {
                if let Some(&(_, stage)) = cut_pairs.iter().find(|(l, _)| *l == primary) {
                    cut_pairs.push((info.id, stage));
                }
            }
        }

        let (stage, nstages) = assign_stages(&self.tree, &self.shape, &cut_pairs)?;
        let (mut the_plan, forced) = plan(&self.tree, &self.shape, stage, nstages, opts.passes)?;
        partition_comm(&mut the_plan, &forced, opts.max_queues)?;

        let mut pipe = Pipeline::new(self.nf.name.clone());
        let mut placed = 0usize;
        for s in 0..nstages {
            if let Some(p) = emit_stage(&the_plan, &self.tree, &self.nf, self.next_branch, s)? {
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
        if opts.passes.use_ra {
            ra::extract(&mut pipe, &self.nf.arrays, opts.max_ras);
            if opts.passes.validate_between_passes {
                phloem_ir::validate_pipeline(&pipe, &limits, "ra-extract")
                    .map_err(CompileError::InvalidPipeline)?;
            }
        }
        // Always on, after RA extraction has matched the stages it
        // offloads in their normalised shape.
        fold::fold_stages(&mut pipe, self.first_temp);
        pipe.check(opts.max_queues, opts.smt_threads, opts.max_ras)
            .map_err(|e| CompileError::Unsupported(e.to_string()))?;
        phloem_ir::validate_pipeline(&pipe, &limits, "fold")
            .map_err(CompileError::InvalidPipeline)?;
        Ok(pipe)
    }
}
