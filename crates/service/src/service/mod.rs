//! The service core: request validation, content-addressed caching,
//! and batched execution over the shared host pool.
//!
//! ## One request path
//!
//! Every compute op takes the same four steps; only the first and the
//! third know which op it is:
//!
//! | step | module | what it does |
//! |------|--------|--------------|
//! | plan | `plan` | validate the request's fields, build its `Work`, derive its cache key (if cacheable) |
//! | admit | `admit` | drain gate, zero-deadline gate, cache probe, in-batch dedup, admission budget |
//! | execute | `exec` | run the work in a pool task and render its payload fragment once |
//! | render | [`crate::proto`] | envelope + fragment ([`crate::proto::ok_frame`]) or the one error frame |
//!
//! `store` holds the two caches and their snapshot. Adding an op
//! touches its `Op` variant and wire name, one `plan` arm (and its
//! `work_cost`), and one `execute` arm — nothing in
//! [`Service::handle_batch`]. `stats` and `shutdown` are the only
//! special cases: they do no work and bypass admission.
//!
//! ## Batch pipeline
//!
//! [`Service::handle_batch`] runs three phases:
//!
//! 1. **Admit** (sequential): parse every line and resolve it through
//!    `admit`. Sequencing this phase makes hit/miss provenance
//!    deterministic — two identical cacheable requests in one batch
//!    probe in line order, so both read `miss` on a cold cache (the
//!    value is computed once and shared), and both read `hit` on a
//!    warm one.
//! 2. **Compute** (parallel): every miss and every uncacheable request
//!    fans out over the pool. Searches run with `workers = 1` —
//!    batch-level parallelism already keeps the host busy — while
//!    `simulate_native` work *does* spawn a nested fleet (its stage
//!    threads) inside the pool task, through the pool's explicit
//!    nested-fleet path. A batch with nothing to compute — every line
//!    a hit, a `stats`/`shutdown` answer or an error — skips this phase
//!    and never touches the pool or the drain token.
//! 3. **Insert + assemble** (sequential): successful cacheable results
//!    are inserted, and responses are rendered in request order.
//!    A cached value is the payload fragment rendered at miss time
//!    (`Arc<str>`): a hit is the envelope plus that fragment, and a
//!    snapshot row is that fragment, so a hit — before or after a
//!    restart — is byte-identical to the miss that populated it
//!    (modulo the `id`/`cache` envelope fields) by construction.
//!
//! Errors are never cached: a trapped search or an illegal compile is
//! recomputed on the next request, so a transient budget failure does
//! not poison the cache — and a cancelled request (deadline or drain)
//! is an error like any other, so cancellation never poisons it
//! either.
//!
//! ## Robustness
//!
//! Three production concerns share this module (see `DESIGN.md` §10):
//!
//! * **Deadlines & cancellation** — every admitted work item runs
//!   under a child of the service-wide drain [`CancelToken`], with the
//!   request's `deadline_ms` armed on it. Simulations observe the
//!   token at watchdog round boundaries and trap as
//!   `Trap::Cancelled`, rendered as a structured `cancelled` error.
//! * **Admission control** — a bounded cost budget
//!   ([`ServiceConfig::max_inflight`]) counts estimated work units in
//!   flight across *all* concurrent batches; work beyond it is shed
//!   with a structured `overloaded` error carrying a `retry_after_ms`
//!   hint instead of queueing without bound.
//! * **Crash-safe persistence & drain** — rendered cache payloads
//!   snapshot to disk atomically ([`crate::persist`]) and reload on
//!   startup; [`Service::begin_drain`] rejects new work with a
//!   structured `draining` error while in-flight work finishes under
//!   a bounded grace window.

mod admit;
mod exec;
mod plan;
mod store;

pub use crate::batch::app_kernel;

use crate::batch::{panic_message, PreparedInputs};
use crate::cache::CacheCounters;
use crate::persist::{PersistCounters, Sel};
use crate::proto::{error_frame, ok_frame, parse_request, Json, Op};
use admit::{BatchState, Resolution};
use exec::{nonempty, ErrResp};
use phloem_pool::{CancelToken, FleetStats, Pool};
use phloem_workloads::catalog::Scale;
use pipette_sim::{CancelScope, MachineConfig};
use plan::KeyTable;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use store::{lock, Store};

/// Service construction parameters.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Simulated machine every request runs on.
    pub machine: MachineConfig,
    /// Catalog scale for named inputs.
    pub scale: Scale,
    /// Host worker threads for batch fan-out.
    pub workers: usize,
    /// Compile-cache capacity (entries).
    pub compile_cache_cap: usize,
    /// Search/trace-cache capacity (entries).
    pub search_cache_cap: usize,
    /// Watchdog budget, in simulated cycles, applied to any request
    /// that does not set its own `cycle_cap`.
    pub default_cycle_cap: u64,
    /// Admission budget in estimated cost units (see `work_cost`): the
    /// most work the service lets execute at once across all
    /// concurrent batches. Work beyond it is shed with a structured
    /// `overloaded` error. A single item larger than the whole budget
    /// is still admitted when the service is otherwise idle, so no
    /// request is unservable by construction.
    pub max_inflight: u64,
    /// Fallback wall-clock deadline applied to any compute request
    /// that does not set its own `deadline_ms`. `None` means no
    /// deadline.
    pub default_deadline_ms: Option<u64>,
    /// Snapshot file for crash-safe cache persistence; loaded (with
    /// corrupt-entry tolerance) at construction, written by
    /// [`Service::persist_now`]. `None` disables persistence.
    pub cache_path: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            machine: MachineConfig::paper_1core(),
            scale: Scale::Small,
            workers: phloem_pool::default_workers(),
            compile_cache_cap: 256,
            search_cache_cap: 128,
            default_cycle_cap: 200_000_000,
            max_inflight: 256,
            default_deadline_ms: None,
            cache_path: None,
        }
    }
}

/// Result of one `handle_batch` call.
pub struct BatchResult {
    /// One rendered JSON response per request line, in request order.
    pub responses: Vec<String>,
    /// True when the batch contained a `shutdown` request.
    pub shutdown: bool,
}

/// Host-fleet scheduling counters summed over every batch the service
/// has run (surfaced by the `stats` op).
#[derive(Default)]
struct FleetAccum {
    batches: u64,
    total: FleetStats,
}

impl FleetAccum {
    fn absorb(&mut self, s: &FleetStats) {
        let t = &mut self.total;
        self.batches += 1;
        t.skipped += s.skipped;
        if t.per_worker_tasks.len() < s.per_worker_tasks.len() {
            t.per_worker_tasks.resize(s.per_worker_tasks.len(), 0);
        }
        for (acc, n) in t.per_worker_tasks.iter_mut().zip(&s.per_worker_tasks) {
            *acc += n;
        }
    }
}

/// The compile-and-simulate service: two content-addressed caches, a
/// prepared-input store, and a host pool, shared across batches.
pub struct Service {
    cfg: ServiceConfig,
    pool: Pool,
    inputs: PreparedInputs,
    /// Each app's kernel and program digest, and the machine digest.
    keys: KeyTable,
    store: Store,
    /// Parent of every per-request token; firing it (drain budget
    /// expiry or a hard cancel) reaches all in-flight work at once.
    drain: CancelToken,
    /// Set by [`Service::begin_drain`]; new compute work is rejected.
    draining: AtomicBool,
    /// Admitted cost units currently executing, across all batches.
    inflight: Mutex<u64>,
    fleet: Mutex<FleetAccum>,
}

impl Service {
    /// A fresh service. Caches start cold unless
    /// [`ServiceConfig::cache_path`] names a readable snapshot, in
    /// which case surviving entries are restored (corrupt lines are
    /// skipped and counted, never fatal).
    pub fn new(cfg: ServiceConfig) -> Service {
        let store = Store::new(cfg.compile_cache_cap, cfg.search_cache_cap);
        if let Some(path) = &cfg.cache_path {
            store.restore(path);
        }
        Service {
            pool: Pool::new(cfg.workers),
            inputs: PreparedInputs::new(cfg.scale),
            keys: KeyTable::new(&cfg.machine),
            store,
            drain: CancelToken::new(),
            draining: AtomicBool::new(false),
            inflight: Mutex::new(0),
            fleet: Mutex::new(FleetAccum::default()),
            cfg,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Lifetime counters of the (compile, search/trace) caches.
    pub fn counters(&self) -> (CacheCounters, CacheCounters) {
        (
            self.store.counters(Sel::Compile),
            self.store.counters(Sel::Search),
        )
    }

    /// Lifetime persistence counters (saves, restores, corrupt skips).
    pub fn persist_counters(&self) -> PersistCounters {
        self.store.persist_counters()
    }

    /// Starts a graceful drain: new compute requests are rejected with
    /// a structured `draining` error, and every in-flight request's
    /// token inherits a deadline of `budget` from now — work that
    /// outlives the grace window is cancelled, answered, and never
    /// orphaned. Idempotent; the budget only tightens.
    pub fn begin_drain(&self, budget: Duration) {
        self.draining.store(true, Ordering::SeqCst);
        self.drain.arm_deadline(budget);
    }

    /// True once [`Service::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Immediately cancels all in-flight work (a drain with no grace).
    pub fn cancel_all(&self, reason: &str) {
        self.draining.store(true, Ordering::SeqCst);
        self.drain.cancel(reason);
    }

    /// Writes the cache snapshot to [`ServiceConfig::cache_path`]
    /// atomically (temp file + rename). Returns the number of entries
    /// written; `Ok(0)` and a no-op when persistence is disabled.
    pub fn persist_now(&self) -> std::io::Result<u64> {
        match &self.cfg.cache_path {
            Some(path) => self.store.save(path, false),
            None => Ok(0),
        }
    }

    /// [`Service::persist_now`] for the end of a frame: writes only if
    /// a cache gained an entry that no completed save covers, so a
    /// frame of hits, bypasses or errors costs no I/O and concurrent
    /// connections share one write. On return every insert made before
    /// the call is on disk. Hits reorder the LRU without making the
    /// store dirty; the unconditional save at drain records the order.
    pub fn persist_if_dirty(&self) -> std::io::Result<u64> {
        match &self.cfg.cache_path {
            Some(path) => self.store.save(path, true),
            None => Ok(0),
        }
    }

    /// The `stats` op's payload: cache counters, accumulated fleet
    /// scheduling counters, persistence counters, and service state.
    fn stats_payload(&self) -> Json {
        let (c, s) = self.counters();
        let f = lock(&self.fleet);
        let per_worker = f.total.per_worker_tasks.iter().map(|&n| Json::u64(n));
        let fleet = Json::obj([
            ("batches", Json::u64(f.batches)),
            ("skipped", Json::u64(f.total.skipped)),
            ("per_worker_tasks", Json::Arr(per_worker.collect())),
        ]);
        drop(f);
        let p = self.persist_counters();
        let persistence = Json::obj([
            ("persisted", Json::u64(p.persisted)),
            ("restored", Json::u64(p.restored)),
            ("corrupt_skipped", Json::u64(p.corrupt_skipped)),
        ]);
        Json::obj([
            ("compile", counters_json(&c)),
            ("search", counters_json(&s)),
            ("fleet", fleet),
            ("persistence", persistence),
            ("inflight", Json::u64(*lock(&self.inflight))),
            ("draining", Json::Bool(self.is_draining())),
        ])
    }

    /// Handles one batch of request lines (each one JSON object).
    pub fn handle_batch(&self, lines: &[String]) -> BatchResult {
        let mut shutdown = false;
        let mut st = BatchState::default();
        let draining = self.is_draining();

        // Phase 1: parse and admit (sequential — provenance and counter
        // updates happen in line order).
        let resolutions: Vec<Resolution> = lines
            .iter()
            .map(|line| match parse_request(line) {
                Err(e) => {
                    Resolution::Done(error_frame(e.id, e.op, "bypass", e.kind, &e.message, None))
                }
                Ok(req) => match req.op {
                    Op::Stats => Resolution::Done(ok_frame(
                        req.id,
                        req.op,
                        "bypass",
                        &self.stats_payload().render(),
                    )),
                    Op::Shutdown => {
                        shutdown = true;
                        Resolution::Done(ok_frame(req.id, req.op, "bypass", "{}"))
                    }
                    _ => self.admit(&req, draining, &mut st),
                },
            })
            .collect();

        // Phase 2: compute misses and uncacheable work in parallel. A
        // batch of hits, `stats`/`shutdown` answers and errors has
        // nothing to run.
        let computed = if st.slots.is_empty() {
            Vec::new()
        } else {
            self.compute(&st)
        };

        // Phase 3: insert successes, then render in request order.
        for (slot, result) in st.slots.iter().zip(&computed) {
            if let (Some((sel, k)), Ok(fragment)) = (slot.key, result) {
                self.store.insert(sel, k, Arc::clone(fragment));
            }
        }
        let responses = resolutions
            .into_iter()
            .map(|r| match r {
                Resolution::Done(s) => s,
                Resolution::Pending {
                    id,
                    op,
                    cache,
                    slot,
                } => match &computed[slot] {
                    Ok(fragment) => ok_frame(id, op, cache, fragment),
                    Err(e) => error_frame(id, op.name(), cache, e.kind, &e.message, None),
                },
            })
            .collect();
        BatchResult {
            responses,
            shutdown,
        }
    }

    /// Runs a batch's admitted work, each task under its own request
    /// token (ambient scope, so every Session the work creates inherits
    /// it) and the whole fleet under a drain child (so a drain skips
    /// queued tasks instead of starting them). Results are in slot
    /// order; the batch's admission cost is released.
    fn compute(&self, st: &BatchState) -> Vec<Result<Arc<str>, ErrResp>> {
        let batch_tok = self.drain.child();
        let (slots, fstats) = self.pool.run_cancellable(st.slots.len(), &batch_tok, |i| {
            let slot = &st.slots[i];
            let _scope = CancelScope::enter(slot.token.clone());
            self.execute(&slot.work, &slot.token)
        });
        self.release(st.admitted);
        lock(&self.fleet).absorb(&fstats);
        slots
            .into_iter()
            .map(|slot| match slot {
                None => Err(ErrResp {
                    kind: "cancelled",
                    message: format!(
                        "cancelled before execution: {}",
                        nonempty(batch_tok.reason())
                    ),
                }),
                Some(Ok(r)) => r,
                Some(Err(panic)) => Err(ErrResp {
                    kind: "trap",
                    message: panic_message(&panic),
                }),
            })
            .collect()
    }
}

fn counters_json(c: &CacheCounters) -> Json {
    Json::obj([
        ("hits", Json::u64(c.hits)),
        ("misses", Json::u64(c.misses)),
        ("insertions", Json::u64(c.insertions)),
        ("evictions", Json::u64(c.evictions)),
        ("hit_rate", Json::Num((c.hit_rate() * 1e4).round() / 1e4)),
    ])
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn tiny_service() -> Service {
        Service::new(ServiceConfig {
            scale: Scale::Tiny,
            workers: 2,
            default_cycle_cap: 50_000_000,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn compile_misses_then_hits_with_identical_payloads() {
        let svc = tiny_service();
        let req = r#"{"id":1,"op":"compile","app":"bfs","passes":"all"}"#.to_string();
        let cold = svc.handle_batch(std::slice::from_ref(&req));
        assert!(cold.responses[0].contains(r#""cache":"miss""#));
        let warm = svc.handle_batch(&[req]);
        assert!(warm.responses[0].contains(r#""cache":"hit""#));
        assert_eq!(
            cold.responses[0].replace(r#""cache":"miss""#, r#""cache":"hit""#),
            warm.responses[0]
        );
        let (c, _) = svc.counters();
        assert_eq!((c.hits, c.misses, c.insertions), (1, 1, 1));
    }

    #[test]
    fn stats_surface_fleet_and_persistence_counters() {
        let svc = tiny_service();
        svc.handle_batch(&[
            r#"{"id":1,"op":"compile","app":"bfs"}"#.to_string(),
            r#"{"id":2,"op":"compile","app":"cc"}"#.to_string(),
        ]);
        let out = svc.handle_batch(&[r#"{"id":3,"op":"stats"}"#.to_string()]);
        let resp = &out.responses[0];
        for field in [
            r#""fleet":{"batches":1"#,
            r#""per_worker_tasks":["#,
            r#""skipped":0"#,
            r#""persistence":{"persisted":0,"restored":0,"corrupt_skipped":0}"#,
            r#""inflight":0"#,
            r#""draining":false"#,
        ] {
            assert!(resp.contains(field), "missing {field} in {resp}");
        }
    }

    #[test]
    fn shutdown_is_reported_and_answered() {
        let svc = tiny_service();
        let out = svc.handle_batch(&[r#"{"id":5,"op":"shutdown"}"#.to_string()]);
        assert!(out.shutdown);
        assert!(out.responses[0].contains(r#""ok":true"#));
    }
}
