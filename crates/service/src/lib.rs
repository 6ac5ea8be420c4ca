//! # phloem-service
//!
//! Compile-and-simulate as a service: the layer that turns the
//! workspace's one-shot compile/simulate/search APIs into a
//! long-running, cache-backed request server.
//!
//! Three pieces:
//!
//! * [`key`] + [`cache`] — content-addressed result caching. Every
//!   cacheable request is keyed by stable FNV-1a digests of its full
//!   semantic inputs (program text, pass switches, machine config,
//!   search options), held in bounded LRU maps with hit/miss/eviction
//!   counters. Any single-field config change produces a distinct key;
//!   host-only scheduling knobs that provably cannot change results
//!   (worker counts) are excluded so identical results share an entry.
//! * [`batch`] — batched sessions: [`batch::Batch::run`] amortizes
//!   catalog-input construction across requests and fans the
//!   simulations out over the shared `phloem-pool`, returning
//!   index-ordered, bit-identical results at any worker count.
//! * [`service`] + the `phloemd` binary — a newline-delimited-JSON
//!   request server (stdin or a Unix socket) running batches
//!   concurrently with per-request watchdog budgets and cache-hit
//!   provenance on every response. Every compute op takes one path —
//!   plan → admit → execute → render — over one cached value, the
//!   payload fragment rendered at miss time ([`persist`] snapshots it
//!   as is).
//!
//! The wire protocol — requests, the `ok` frame and the one error
//! frame — lives in [`proto`]; the workspace `serde` is an offline
//! no-op shim, so JSON is hand-rolled in [`json`].

pub mod batch;
pub mod cache;
pub mod json;
pub mod key;
pub mod persist;
pub mod proto;
pub mod service;

pub use batch::{Batch, PreparedInputs, SimRequest};
pub use cache::{CacheCounters, Lru};
pub use persist::PersistCounters;
pub use proto::{Json, Op, Request};
pub use service::{BatchResult, Service, ServiceConfig};
