//! Execution: what runs inside a pool task, and the payload it builds.
//!
//! [`Service::execute`] turns one [`Work`] into the response payload —
//! everything after the `id`/`op`/`ok`/`cache` envelope — rendered once
//! to a compact JSON object. That rendered fragment is the value the
//! caches hold, the snapshot persists and every later hit splices into
//! its frame.

use super::plan::{CompileWork, SearchWork, Work};
use super::Service;
use crate::batch::{run_one, run_one_traced, SimRequest};
use crate::key;
use crate::proto::Json;
use phloem_benchsuite::apps::CatalogInput;
use phloem_benchsuite::{pgo_search, Measurement, Variant};
use phloem_compiler::compile_static;
use phloem_compiler::search::{CandidateProfile, ProfileOutcome, SearchError};
use phloem_ir::{StageKind, Trap};
use phloem_pool::CancelToken;
use pipette_sim::{CompiledPipeline, ExecBackend, MachineConfig, NativeConfig};
use std::sync::Arc;

/// Response payload fields, in render order.
type Payload = Vec<(&'static str, Json)>;

/// A failed execution: the `kind` and `message` of its error frame.
pub(crate) struct ErrResp {
    pub(crate) kind: &'static str,
    pub(crate) message: String,
}

fn trap_err(t: Trap) -> ErrResp {
    ErrResp {
        kind: match t {
            Trap::Cancelled { .. } => "cancelled",
            _ => "trap",
        },
        message: t.to_string(),
    }
}

/// Cancel reasons are empty only in pathological interleavings; keep
/// the rendered message self-describing anyway.
pub(crate) fn nonempty(reason: String) -> String {
    if reason.is_empty() {
        "cancelled".to_string()
    } else {
        reason
    }
}

fn hex(digest: u64) -> Json {
    Json::str(format!("{digest:016x}"))
}

impl Service {
    /// Runs `work` to its rendered payload fragment.
    pub(crate) fn execute(&self, work: &Work, cancel: &CancelToken) -> Result<Arc<str>, ErrResp> {
        let payload = match work {
            Work::Compile(c) => do_compile(c),
            Work::Simulate(sim) => self.run(sim).map(|m| measurement_payload(&m)),
            Work::SimulateNative(sim, native) => self.do_simulate_native(sim, *native),
            Work::Search(s) => self.do_search(s, cancel),
            Work::Trace(sim) => self.do_trace(sim),
        }?;
        Ok(Json::obj(payload).render().into())
    }

    fn run(&self, sim: &SimRequest) -> Result<Measurement, ErrResp> {
        run_one(&self.inputs, &self.cfg.machine, sim).map_err(trap_err)
    }

    /// Runs one request on the native thread backend. The ambient
    /// [`pipette_sim::BackendScope`] routes every session the app
    /// constructs onto real threads; the per-request cancel token is
    /// already ambient (the caller's `CancelScope`), so deadlines and
    /// drains reach the native run's park loop. The native fleet is a
    /// *nested* fleet inside this pool task; `phloem-pool` fleets are
    /// independent of one another, so that needs no special path.
    fn do_simulate_native(
        &self,
        sim: &SimRequest,
        native: NativeConfig,
    ) -> Result<Payload, ErrResp> {
        let m = phloem_benchsuite::with_backend(ExecBackend::Native(native), || self.run(sim))?;
        let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut payload = measurement_payload(&m);
        // Under the native backend the cycles slot carries wall-clock
        // nanoseconds; label the payload honestly and stamp the
        // native-relevant machine digest (timing-model fields excluded —
        // see `key::native_machine_config_digest`) so provenance groups
        // native results across timing configs. `stages` is what the run
        // used: a static Phloem variant compiles to at most `threads`.
        payload.extend([
            ("backend", Json::str("native")),
            ("threads", Json::u64(native.threads as u64)),
            ("stages", Json::u64(m.stats.threads.len() as u64)),
            ("host_cores", Json::u64(host_cores as u64)),
            (
                "machine",
                hex(key::native_machine_config_digest(&self.cfg.machine)),
            ),
        ]);
        Ok(payload)
    }

    fn do_trace(&self, sim: &SimRequest) -> Result<Payload, ErrResp> {
        let (m, digest) = run_one_traced(&self.inputs, &self.cfg.machine, sim).map_err(trap_err)?;
        let mut payload = measurement_payload(&m);
        payload.extend([
            ("events", Json::u64(digest.events)),
            ("trace", hex(digest.digest)),
        ]);
        Ok(payload)
    }

    /// Resolves its input as `simulate` does, then runs the figures'
    /// search with that one input as the training set.
    fn do_search(&self, s: &SearchWork, cancel: &CancelToken) -> Result<Payload, ErrResp> {
        let input = std::slice::from_ref(self.inputs.lookup(s.app, &s.input).map_err(trap_err)?);
        let run = |v: &Variant, i: &CatalogInput, cfg: &MachineConfig| {
            s.app.run(v, i.input(), cfg, i.name(), None).0
        };
        let report = pgo_search(&s.kernel, &s.opts, &self.cfg.machine, input, run);
        let report = report.map_err(|e| match e {
            SearchError::NoPipelines => ErrResp {
                kind: "no_pipelines",
                message: "no candidate pipeline compiles".to_string(),
            },
            // A cancelled search traps every candidate; report the
            // cancellation, not a misleading "nothing was viable".
            SearchError::NoViableCandidate { .. } if cancel.is_set() => ErrResp {
                kind: "cancelled",
                message: format!("search cancelled: {}", nonempty(cancel.reason())),
            },
            SearchError::NoViableCandidate { candidates } => ErrResp {
                kind: "no_viable_candidate",
                message: format!("all {} candidates failed to profile", candidates.len()),
            },
        })?;
        let best = &report.candidates[report.best];
        let viable = report
            .candidates
            .iter()
            .filter(|c| matches!(c.outcome, ProfileOutcome::Ok(_)))
            .count();
        let mut payload = vec![
            (
                "best_cuts",
                Json::Arr(best.cuts.iter().map(|c| Json::u64(c.0 as u64)).collect()),
            ),
            ("total_stages", Json::u64(best.total_stages as u64)),
            ("compute_stages", Json::u64(best.compute_stages as u64)),
            ("candidates", Json::u64(report.candidates.len() as u64)),
            ("viable", Json::u64(viable as u64)),
            (
                "train_cycles",
                Json::Num(best.train_cycles().unwrap_or(f64::NAN)),
            ),
        ];
        if let Some(p) = &best.profile {
            payload.push(("profile", profile_json(p)));
        }
        Ok(payload)
    }
}

/// Compiles and validates: an `ok:true` compile answer means the
/// pipeline lowered to bytecode and passed pre-simulation validation.
fn do_compile(c: &CompileWork) -> Result<Payload, ErrResp> {
    let pipeline = compile_static(&c.kernel, c.stages, &c.opts).map_err(|e| ErrResp {
        kind: "compile_error",
        message: e.to_string(),
    })?;
    CompiledPipeline::new(&pipeline).map_err(trap_err)?;
    let total = pipeline.stages.len();
    let compute = pipeline
        .stages
        .iter()
        .filter(|s| matches!(s.kind, StageKind::Compute))
        .count();
    Ok(vec![
        ("program", hex(c.program)),
        ("app", Json::str(c.app)),
        ("passes", Json::str(c.opts.passes.label())),
        ("stages", Json::u64(total as u64)),
        ("compute_stages", Json::u64(compute as u64)),
        ("ra_stages", Json::u64((total - compute) as u64)),
        ("queues", Json::u64(pipeline.num_queues as u64)),
    ])
}

fn measurement_payload(m: &Measurement) -> Payload {
    vec![
        ("variant", Json::str(m.variant.clone())),
        ("input", Json::str(m.input.clone())),
        ("cycles", Json::u64(m.cycles)),
        ("invocations", Json::u64(m.stats.invocations)),
        ("stats", hex(key::stats_digest(&m.stats))),
    ]
}

fn profile_json(p: &CandidateProfile) -> Json {
    let utilization = p.stage_utilization.iter().map(|(name, u)| {
        Json::Arr(vec![
            Json::str(name.clone()),
            Json::Num((u * 1e4).round() / 1e4),
        ])
    });
    Json::obj([
        ("critical_stage", Json::str(p.critical_stage.clone())),
        ("dominant_stall", Json::str(p.dominant_stall.clone())),
        ("stage_utilization", Json::Arr(utilization.collect())),
    ])
}
