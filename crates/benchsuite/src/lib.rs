//! # phloem-benchsuite
//!
//! The Phloem (HPCA 2023) evaluation applications, each in the four
//! variants of Fig. 9: serial, data-parallel, Phloem-compiled, and
//! manually pipelined.
//!
//! The four graph apps ([`bfs`], [`cc`], [`prd`], [`radii`]) are Ligra's
//! `edgeMap` with four update rules, and [`fig14`]'s replicated
//! pipelines are that traversal behind a distribute boundary, so the
//! traversal is written once, in the crate-private `frontier` module,
//! as fragments each builder composes in its own order. An app file
//! keeps what is its own: one array declaration (`arrays()`, with the
//! ids derived from it by name), its per-vertex payload, its per-edge
//! update rule (plain and atomic), its oracle and its one round loop,
//! which runs its Fig. 9 pipelines and [`fig14`]'s replicated ones
//! alike. [`runner`] holds the harness they all share and [`apps`] the
//! one table from an app's name to its code. `tests/golden_ir.rs` pins
//! the IR of every pipeline built here.

#![warn(missing_docs)]

pub mod apps;
pub mod bfs;
pub mod cc;
pub mod fault_targets;
pub mod fig14;
mod frontier;
pub mod prd;
pub mod radii;
pub mod runner;
pub mod spmm;
pub mod taco;

pub use runner::{
    candidate_outcome, gmean, pgo_search, run_guarded, with_backend, Measurement, Variant,
};
