//! Batched simulation sessions: input setup amortized across requests,
//! execution fanned out over the shared host pool.
//!
//! Building a catalog input is pure but not free (graph generators walk
//! hundreds of thousands of edges); a batch of requests touching the
//! same input must pay that cost once, not once per request.
//! [`PreparedInputs`] builds a catalog family the first time a name from
//! it is requested, as the app table's own inputs
//! ([`phloem_benchsuite::apps::CatalogInput`], an SpMM matrix with its
//! transpose), and lends them from then on — across requests, batches,
//! and worker threads. `simulate`, `trace` and `search` resolve names
//! through its one lookup.
//!
//! [`Batch::run`] is index-ordered and deterministic at any worker
//! count: the pool's determinism contract places result `i` in slot
//! `i`, and each simulation is pure, so a batch returns bit-identical
//! measurements whether it ran on one worker or sixteen.

use phloem_benchsuite::apps::{self, App, CatalogInput, Sink};
use phloem_benchsuite::runner::budgeted;
use phloem_benchsuite::{Measurement, Variant};
use phloem_ir::{Function, Trap};
use phloem_pool::Pool;
use phloem_workloads::catalog::Scale;
use pipette_sim::trace::DigestSink;
use pipette_sim::MachineConfig;
use std::sync::OnceLock;

/// One simulation request inside a batch.
#[derive(Clone, Debug)]
pub struct SimRequest {
    /// Benchmark app: `bfs`, `cc`, `prd`, `radii`, `spmm`.
    pub app: String,
    /// The variant to run.
    pub variant: Variant,
    /// Catalog input name (e.g. `coauthor-s`, `enron-s`).
    pub input: String,
    /// Optional watchdog budget in simulated cycles for this request.
    pub cycle_cap: Option<u64>,
}

/// The named catalog inputs, built lazily per family (graphs,
/// matrices): an app's training inputs followed by its test inputs.
/// Thread-safe: the first resolver of a family builds it while later
/// ones wait, and every lookup after that is a borrow.
pub struct PreparedInputs {
    scale: Scale,
    graphs: OnceLock<Vec<CatalogInput>>,
    matrices: OnceLock<Vec<CatalogInput>>,
}

impl PreparedInputs {
    /// Empty prepared set at the given catalog scale.
    pub fn new(scale: Scale) -> PreparedInputs {
        PreparedInputs {
            scale,
            graphs: OnceLock::new(),
            matrices: OnceLock::new(),
        }
    }

    /// The input `name` of `app`'s family, building the family on first
    /// use. A name the family lacks is [`Trap::BadId`] naming it.
    pub(crate) fn lookup(&self, app: &App, name: &str) -> Result<&CatalogInput, Trap> {
        let (family, what) = if app.runs_on_graphs() {
            (&self.graphs, "graph")
        } else {
            (&self.matrices, "matrix")
        };
        let inputs = family.get_or_init(|| {
            let mut all = app.training_inputs(self.scale);
            all.extend(app.test_inputs(self.scale));
            all
        });
        inputs
            .iter()
            .find(|i| i.name() == name)
            .ok_or_else(|| Trap::BadId(format!("unknown {what} input {name:?}")))
    }
}

/// The benchmark kernel a request's `app` names.
pub fn app_kernel(name: &str) -> Option<Function> {
    apps::app_by_id(name).map(|a| a.kernel())
}

/// The body traced and untraced runs share: budget, app lookup (the
/// table in [`phloem_benchsuite::apps`] is the one place app names are
/// known), input resolution. Unknown apps and input names surface as
/// [`Trap::BadId`] — a per-request error, never a batch abort.
fn run_with(
    inputs: &PreparedInputs,
    cfg: &MachineConfig,
    req: &SimRequest,
    sink: Option<Sink>,
) -> Result<(Measurement, Option<Sink>), Trap> {
    let app = apps::app_by_id(&req.app)
        .ok_or_else(|| Trap::BadId(format!("unknown app {:?}", req.app)))?;
    let input = inputs.lookup(app, &req.input)?;
    let cfg = budgeted(cfg, req.cycle_cap);
    let (result, sink) = app.run(&req.variant, input.input(), &cfg, input.name(), sink);
    Ok((result?, sink))
}

/// Runs one request on the caller's thread.
pub fn run_one(
    inputs: &PreparedInputs,
    cfg: &MachineConfig,
    req: &SimRequest,
) -> Result<Measurement, Trap> {
    run_with(inputs, cfg, req, None).map(|(m, _)| m)
}

/// The canonical trace digest of one run: the FNV-1a hash over the
/// pipeline's full event stream plus the number of events folded in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceDigest {
    /// [`DigestSink`] hash over every invocation's event stream.
    pub digest: u64,
    /// Events folded into the digest.
    pub events: u64,
}

/// Like [`run_one`], with a [`DigestSink`] observing every pipeline
/// invocation.
pub fn run_one_traced(
    inputs: &PreparedInputs,
    cfg: &MachineConfig,
    req: &SimRequest,
) -> Result<(Measurement, TraceDigest), Trap> {
    let (m, sink) = run_with(inputs, cfg, req, Some(Box::new(DigestSink::new())))?;
    let d = sink
        .as_deref()
        .and_then(|s| s.downcast_ref::<DigestSink>())
        .ok_or_else(|| Trap::Malformed("traced run lost its digest sink".into()))?;
    Ok((
        m,
        TraceDigest {
            digest: d.digest(),
            events: d.count,
        },
    ))
}

/// The text of a host-task panic that may reach a response: its first
/// line, capped at 200 bytes, so an assert that `Debug`-prints a whole
/// result vector cannot put kilobytes on the wire.
pub(crate) fn panic_message(panic: &phloem_pool::TaskPanic) -> String {
    let text = panic.to_string();
    let line = text.lines().next().unwrap_or_default();
    let mut end = line.len().min(200);
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    format!("host task panicked: {}", &line[..end])
}

/// A batched session over a shared pool, machine config, and prepared
/// inputs.
pub struct Batch<'a> {
    pool: &'a Pool,
    inputs: &'a PreparedInputs,
    machine: &'a MachineConfig,
}

impl<'a> Batch<'a> {
    /// A session borrowing the pool, inputs, and machine config.
    pub fn new(
        pool: &'a Pool,
        inputs: &'a PreparedInputs,
        machine: &'a MachineConfig,
    ) -> Batch<'a> {
        Batch {
            pool,
            inputs,
            machine,
        }
    }

    /// Runs every request, fanned out over the pool, returning results
    /// in request order. Per-request failures (traps, bad names, even a
    /// host-side panic in one task) land in that request's slot; the
    /// batch itself always completes.
    pub fn run(&self, requests: &[SimRequest]) -> Vec<Result<Measurement, Trap>> {
        self.pool
            .map(requests, |_, req| run_one(self.inputs, self.machine, req))
            .into_iter()
            .map(|slot| match slot {
                Ok(r) => r,
                Err(panic) => Err(Trap::Malformed(panic_message(&panic))),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> MachineConfig {
        MachineConfig::paper_1core()
    }

    #[test]
    fn unknown_names_trap_instead_of_aborting_the_batch() {
        let inputs = PreparedInputs::new(Scale::Tiny);
        let pool = Pool::new(1);
        let cfg = tiny_cfg();
        let reqs = vec![
            SimRequest {
                app: "nosuch".into(),
                variant: Variant::Serial,
                input: "internet-s".into(),
                cycle_cap: None,
            },
            SimRequest {
                app: "bfs".into(),
                variant: Variant::Serial,
                input: "nosuch-graph".into(),
                cycle_cap: None,
            },
        ];
        let out = Batch::new(&pool, &inputs, &cfg).run(&reqs);
        assert!(matches!(out[0], Err(Trap::BadId(_))));
        assert!(matches!(out[1], Err(Trap::BadId(_))));
    }

    /// One catalog per family, filled from the app table: every
    /// training and test name resolves in its own family, and in the
    /// other one it is the trap naming it.
    #[test]
    fn every_catalog_name_resolves_in_its_own_family_only() {
        let inputs = PreparedInputs::new(Scale::Tiny);
        let (bfs, spmm) = (apps::app("BFS").unwrap(), apps::app("SpMM").unwrap());
        for (app, other, what) in [(bfs, spmm, "matrix"), (spmm, bfs, "graph")] {
            let mut names = app.training_inputs(Scale::Tiny);
            names.extend(app.test_inputs(Scale::Tiny));
            assert!(names.len() > 2, "{}", app.name());
            for name in names.iter().map(|i| i.name()) {
                assert_eq!(inputs.lookup(app, name).unwrap().name(), name);
                match inputs.lookup(other, name) {
                    Err(Trap::BadId(m)) => assert_eq!(m, format!("unknown {what} input {name:?}")),
                    Err(t) => panic!("{name} in the {what} family: {t}"),
                    Ok(_) => panic!("{name} resolved in the {what} family"),
                }
            }
        }
    }

    #[test]
    fn panic_text_is_one_bounded_line() {
        let long = phloem_pool::TaskPanic {
            index: 3,
            message: format!("assertion failed: é{}\n  left: [0, 1, 2]", "x".repeat(4096)),
        };
        let text = panic_message(&long);
        assert!(text.starts_with("host task panicked: task 3 panicked: assertion failed: é"));
        assert!(!text.contains('\n') && !text.contains("left:"), "{text}");
        assert!(text.len() <= 220, "{}", text.len());
    }

    #[test]
    fn batch_is_index_ordered_and_worker_count_independent() {
        let inputs = PreparedInputs::new(Scale::Tiny);
        let cfg = tiny_cfg();
        let reqs = vec![
            SimRequest {
                app: "bfs".into(),
                variant: Variant::Serial,
                input: "internet-s".into(),
                cycle_cap: None,
            },
            SimRequest {
                app: "cc".into(),
                variant: Variant::Serial,
                input: "internet-s".into(),
                cycle_cap: None,
            },
        ];
        let one = Batch::new(&Pool::new(1), &inputs, &cfg).run(&reqs);
        let two = Batch::new(&Pool::new(2), &inputs, &cfg).run(&reqs);
        for (a, b) in one.iter().zip(&two) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(
                crate::key::measurement_digest(a),
                crate::key::measurement_digest(b)
            );
        }
        // Slot order follows request order, not completion order.
        assert_eq!(one[0].as_ref().unwrap().input, "internet-s");
        assert_ne!(
            one[0].as_ref().unwrap().variant,
            String::new(),
            "variant label present"
        );
    }
}
