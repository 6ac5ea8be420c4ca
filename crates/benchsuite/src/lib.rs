//! # phloem-benchsuite
//!
//! The Phloem (HPCA 2023) evaluation applications, each in the four
//! variants of Fig. 9: serial, data-parallel, Phloem-compiled, and
//! manually pipelined.

#![warn(missing_docs)]

pub mod apps;
pub mod bfs;
pub mod cc;
pub mod fault_targets;
pub mod fig14;
pub mod prd;
pub mod radii;
pub mod runner;
pub mod spmm;
pub mod taco;

pub use runner::{gmean, run_guarded, with_backend, Measurement, Variant};
