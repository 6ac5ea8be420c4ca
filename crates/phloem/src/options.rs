//! Compilation options: the pass-ablation switches of Fig. 6 and
//! compile-time errors.

use phloem_ir::LoadId;
use std::fmt;

/// Which of Phloem's six passes run (Sec. IV-B). Pass 1 (add queues) is
/// the decoupling itself and always runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassConfig {
    /// Pass 2: rematerialize cheap values instead of queueing them.
    pub recompute: bool,
    /// Pass 3: offload load-only stages to reference accelerators
    /// (requires control values + handlers in our codegen, matching the
    /// paper's ordering where RAs are applied last).
    pub use_ra: bool,
    /// Pass 4: replace communicated loop bounds with in-band control
    /// values.
    pub use_cv: bool,
    /// Pass 5: use hardware control-value handlers instead of inline
    /// `is_control` checks.
    pub use_handlers: bool,
    /// Pass 6: inter-stage dead code elimination of superfluous control
    /// values (collapses loops whose boundaries no stage needs).
    pub isdce: bool,
    /// Force consumer stages to be stream-terminated (control values
    /// instead of counted loops) even when trip counts are locally
    /// available. Required when the pipeline will be replicated with a
    /// `#pragma distribute` boundary: distribution changes each
    /// replica's item count, so consumers must not count iterations.
    pub stream_consumers: bool,
    /// Debug mode: run the pipeline validator after every pass boundary
    /// (emit, RA extraction, replication) instead of only on the final
    /// pipeline, so a miscompile bisects to the pass that introduced it
    /// (the returned error names that pass). The final check, after the
    /// always-on stage clean-up, names `fold`.
    pub validate_between_passes: bool,
}

impl PassConfig {
    /// All passes on (the full Phloem pipeline).
    pub fn all() -> PassConfig {
        PassConfig {
            recompute: true,
            use_ra: true,
            use_cv: true,
            use_handlers: true,
            isdce: true,
            stream_consumers: false,
            validate_between_passes: false,
        }
    }

    /// Pass 1 only: every value goes through a queue (Fig. 6 "Q").
    pub fn queues_only() -> PassConfig {
        PassConfig {
            recompute: false,
            use_ra: false,
            use_cv: false,
            use_handlers: false,
            isdce: false,
            stream_consumers: false,
            validate_between_passes: false,
        }
    }

    /// All passes plus stream-terminated consumers (for replication
    /// with a distribute boundary).
    pub fn all_streaming() -> PassConfig {
        PassConfig {
            stream_consumers: true,
            ..Self::all()
        }
    }

    /// Passes 1-2 (Fig. 6 "R,Q").
    pub fn with_recompute() -> PassConfig {
        PassConfig {
            recompute: true,
            ..Self::queues_only()
        }
    }

    /// Passes 1-2 + control values, no handlers, no DCE (Fig. 6 "CV,R,Q"
    /// — the configuration the paper shows can *hurt*).
    pub fn with_cv() -> PassConfig {
        PassConfig {
            recompute: true,
            use_cv: true,
            ..Self::queues_only()
        }
    }

    /// + inter-stage DCE (Fig. 6 "DCE,CV,R,Q").
    pub fn with_dce() -> PassConfig {
        PassConfig {
            isdce: true,
            ..Self::with_cv()
        }
    }

    /// + control-value handlers (Fig. 6 "CH,DCE,CV,R,Q").
    pub fn with_handlers() -> PassConfig {
        PassConfig {
            use_handlers: true,
            ..Self::with_dce()
        }
    }

    /// Short label for plots ("Q", "R,Q", ... "RA,CH,DCE,CV,R,Q").
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.use_ra {
            parts.push("RA");
        }
        if self.use_handlers {
            parts.push("CH");
        }
        if self.isdce {
            parts.push("DCE");
        }
        if self.use_cv {
            parts.push("CV");
        }
        if self.recompute {
            parts.push("R");
        }
        parts.push("Q");
        parts.join(",")
    }
}

impl Default for PassConfig {
    fn default() -> Self {
        Self::all()
    }
}

/// Errors raised while decoupling a function.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// The requested cut would let a stage read data another stage
    /// writes (the Fig. 4 race).
    RaceViolation(String),
    /// A source construct the decoupler does not support.
    Unsupported(String),
    /// The pipeline needs more queues than the hardware provides.
    TooManyQueues(usize, usize),
    /// A cut load id does not exist in the function.
    UnknownCut(LoadId),
    /// The produced pipeline violates a queue-protocol invariant (see
    /// [`phloem_ir::validate`]); the error names the pass that
    /// introduced it.
    InvalidPipeline(phloem_ir::PipelineError),
    /// Internal invariant violation (a compiler bug).
    Internal(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::RaceViolation(s) => write!(f, "race violation: {s}"),
            CompileError::Unsupported(s) => write!(f, "unsupported construct: {s}"),
            CompileError::TooManyQueues(need, have) => {
                write!(f, "pipeline needs {need} queues, hardware has {have}")
            }
            CompileError::UnknownCut(id) => write!(f, "unknown cut load {id:?}"),
            CompileError::InvalidPipeline(e) => write!(f, "invalid pipeline: {e}"),
            CompileError::Internal(s) => write!(f, "internal error: {s}"),
        }
    }
}

impl std::error::Error for CompileError {}
