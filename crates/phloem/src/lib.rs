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
//! Everything before the cut set matters — validation, [`normalize`],
//! [`analyze`] and the decoupling tree — is built once per kernel and
//! shared by every cut set tried on it: [`compile_static`]'s fallback
//! from an illegal cut set to fewer cuts, and the subsets
//! [`search::enumerate_pipelines`] compiles. The passes key their
//! tables by dense ids (atom position, loop tag, variable, array,
//! stage) as `Vec`s; `clippy.toml` keeps std's SipHash maps out.
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
mod fold;
pub mod normalize;
pub mod options;
mod prepared;
pub mod ra;
pub mod replicate;
pub mod search;

pub use analysis::{analyze, AccessKind, Analysis, LoadInfo};
pub use options::{CompileError, PassConfig};

use phloem_ir::{Function, LoadId, Pipeline};
use prepared::Prepared;

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
    Prepared::new(func)?.cut(cuts, opts)
}

/// Static compilation mode (Sec. V): ranks decoupling points with the
/// cost model and cuts at the top `n_stages - 1`. `n_stages` counts
/// every stage the cuts make, RA stages included: BFS at 4 is 2 compute
/// + 2 RA stages.
///
/// # Errors
/// See [`decouple_with_cuts`]; additionally falls back to fewer stages
/// if a cut combination is illegal. A kernel that fails validation
/// fails once, with the error `decouple_with_cuts` returns for it.
pub fn compile_static(
    func: &Function,
    n_stages: usize,
    opts: &CompileOptions,
) -> Result<Pipeline, CompileError> {
    let prepared = Prepared::new(func)?;
    let mut cuts = prepared.analysis.candidates();
    cuts.truncate(n_stages.saturating_sub(1));
    loop {
        match prepared.cut(&cuts, opts) {
            Ok(p) => return Ok(p),
            Err(e) if cuts.is_empty() => return Err(e),
            Err(_) => {
                cuts.pop();
            }
        }
    }
}
