//! Content-addressed cache keying: stable FNV-1a digests of programs,
//! configurations, and results.
//!
//! Every key in the service layer is built from an explicit,
//! field-by-field walk of the value — **not** from `std::hash::Hash`
//! (whose output is allowed to change across releases and is randomized
//! for `HashMap`) and not from serde (the offline shim erases it). The
//! walk gives three properties the caches rely on:
//!
//! * **Stability** — the same value digests to the same key in every
//!   process, so replayed workloads hit warm caches and recorded
//!   provenance stays meaningful across runs.
//! * **Sensitivity** — every field is written at a fixed offset in the
//!   byte stream, so mutating any single field changes the stream and
//!   (modulo a 2^-64 FNV collision) the key;
//!   `tests/service_cache.rs` proves this per field for [`PassConfig`]
//!   and [`MachineConfig`].
//! * **Honesty about scheduling** — host-side knobs that provably do
//!   not change results are *excluded* where the determinism suite pins
//!   that invariant: [`search_options_digest`] skips
//!   `SearchOptions::workers`, because `tests/pool_determinism.rs`
//!   guarantees worker count never changes a report, and keying on it
//!   would only split the cache.

use phloem_benchsuite::{Measurement, Variant};
use phloem_compiler::search::SearchOptions;
use phloem_compiler::{CompileOptions, PassConfig};
use phloem_ir::Function;
use pipette_sim::{CacheParams, MachineConfig, RunStats, WatchdogConfig};

/// Incremental FNV-1a (64-bit) over a field-tagged byte stream.
#[derive(Clone, Copy, Debug)]
pub struct KeyHasher(u64);

impl KeyHasher {
    /// FNV-1a offset basis.
    pub fn new() -> KeyHasher {
        KeyHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the state.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Writes a `usize` widened to 64 bits.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Writes an `i64` via its two's-complement bits.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.u64(v as u64)
    }

    /// Writes an `f64` via its IEEE-754 bits (bit-exact, so `-0.0` and
    /// `0.0` differ — fine for digesting deterministic results).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.bytes(&[v as u8])
    }

    /// Writes a length-prefixed string (the prefix keeps `("ab","c")`
    /// distinct from `("a","bc")`).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.usize(s.len());
        self.bytes(s.as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

/// Digest of an IR function: its name plus the full pretty-printed
/// body. The pretty-printer renders every statement, expression,
/// declared array, and variable name deterministically, so two
/// functions digest equal iff they print equal — the right identity for
/// a compile cache fed by either the PhloemC frontend or builder-made
/// kernels.
pub fn program_digest(f: &Function) -> u64 {
    let mut h = KeyHasher::new();
    h.str(&f.name);
    h.str(&phloem_ir::pretty::function_to_string(f));
    h.finish()
}

/// Digest of the pass-ablation switches (every field).
pub fn pass_config_digest(p: &PassConfig) -> u64 {
    let mut h = KeyHasher::new();
    h.bool(p.recompute)
        .bool(p.use_ra)
        .bool(p.use_cv)
        .bool(p.use_handlers)
        .bool(p.isdce)
        .bool(p.stream_consumers)
        .bool(p.validate_between_passes);
    h.finish()
}

/// Digest of the full compilation options.
pub fn compile_options_digest(o: &CompileOptions) -> u64 {
    let mut h = KeyHasher::new();
    h.u64(pass_config_digest(&o.passes))
        .usize(o.smt_threads)
        .u64(o.max_queues as u64)
        .usize(o.max_ras)
        .usize(o.start_core);
    h.finish()
}

/// Digest of the machine configuration — every field. The patterns
/// below are exhaustive (no `..`), so a field added to
/// [`MachineConfig`], [`CacheParams`] or [`WatchdogConfig`] fails to
/// compile here until it is hashed: a field can never be silently left
/// out of the cache key.
pub fn machine_config_digest(m: &MachineConfig) -> u64 {
    let MachineConfig {
        cores,
        smt_threads,
        issue_width,
        rob_size,
        mshrs,
        mispredict_penalty,
        queue_capacity,
        max_queues,
        ras_per_core,
        ra_concurrency,
        ra_op_latency,
        queue_latency,
        inter_core_queue_latency,
        l1,
        l2,
        l3_kb_per_core,
        l3_ways,
        l3_latency,
        dram_latency,
        dram_controllers,
        dram_cycles_per_line,
        prefetch,
        prefetch_degree,
        launch_overhead,
        watchdog,
    } = m;
    let WatchdogConfig {
        cycle_cap,
        livelock_window,
    } = watchdog;
    let mut h = KeyHasher::new();
    h.usize(*cores)
        .usize(*smt_threads)
        .u64(*issue_width)
        .usize(*rob_size)
        .usize(*mshrs)
        .u64(*mispredict_penalty)
        .usize(*queue_capacity)
        .u64(*max_queues as u64)
        .usize(*ras_per_core)
        .usize(*ra_concurrency)
        .u64(*ra_op_latency)
        .u64(*queue_latency)
        .u64(*inter_core_queue_latency);
    for CacheParams { kb, ways, latency } in [l1, l2] {
        h.usize(*kb).usize(*ways).u64(*latency);
    }
    h.usize(*l3_kb_per_core)
        .usize(*l3_ways)
        .u64(*l3_latency)
        .u64(*dram_latency)
        .usize(*dram_controllers)
        .u64(*dram_cycles_per_line)
        .bool(*prefetch)
        .u64(*prefetch_degree)
        .u64(*launch_overhead)
        .u64(*cycle_cap)
        .u64(*livelock_window);
    h.finish()
}

/// Digest of the machine-configuration fields the **native** backend
/// can observe — the keying counterpart of
/// `tests/native_equivalence.rs`: native execution is real threads and
/// real channels, so the simulated timing model (cache hierarchy, DRAM
/// and queue latencies, issue width, ROB, prefetcher, watchdog)
/// provably cannot change its results.
/// Only the fields that shape the *program* — validation limits and
/// the capacity that floors the ring depth — are keyed:
///
/// * `cores`, `smt_threads`, `max_queues`, `ras_per_core` — pipeline
///   validation limits (`Pipeline::check`), which gate whether a run is
///   admitted at all;
/// * `queue_capacity` — the capacity that floors the ring depth: a
///   native ring holds `native::ring_depth(queue_capacity)` values, at
///   least 1024, so only a capacity above that changes how many values
///   fit, and with it blocking behaviour (never results).
///
/// Keying native work on the full [`machine_config_digest`] would split
/// provenance between configs that are indistinguishable to the
/// backend; `tests/service_native.rs` pins both directions per field.
pub fn native_machine_config_digest(m: &MachineConfig) -> u64 {
    let mut h = KeyHasher::new();
    h.usize(m.cores)
        .usize(m.smt_threads)
        .u64(m.max_queues as u64)
        .usize(m.ras_per_core)
        .usize(m.queue_capacity);
    h.finish()
}

/// Digest of the PGO search options. `workers` is deliberately
/// **excluded**: the determinism suite pins that a search report is
/// byte-identical at every worker count, so keying on it would split
/// the cache between identical results.
pub fn search_options_digest(o: &SearchOptions) -> u64 {
    let mut h = KeyHasher::new();
    h.usize(o.max_stages)
        .usize(o.top_k)
        .u64(compile_options_digest(&o.compile))
        .u64(o.profile_cycle_cap)
        .u64(o.retry_cap_factor);
    h.finish()
}

/// Digest of a benchmark variant (trace-cache keying): the variant
/// tag plus everything that selects its pipeline — the data-parallel
/// width, or the pass switches, stage budget and explicit cuts.
pub fn variant_digest(v: &Variant) -> u64 {
    let mut h = KeyHasher::new();
    match v {
        Variant::Serial => {
            h.u64(0);
        }
        Variant::DataParallel(n) => {
            h.u64(1).usize(*n);
        }
        Variant::Phloem {
            passes,
            stages,
            cuts,
        } => {
            h.u64(2)
                .u64(pass_config_digest(passes))
                .usize(*stages)
                .usize(cuts.len());
            for c in cuts {
                h.u64(c.0 as u64);
            }
        }
        Variant::Manual => {
            h.u64(3);
        }
    }
    h.finish()
}

/// Structural digest of full run statistics: every per-thread counter,
/// per-queue histogram bucket, cache counter, energy term (via f64
/// bits), the makespan, and the invocation count. Two runs digest equal
/// iff their statistics are bit-identical — the witness the service
/// layer uses to prove cached responses match cold-path responses.
pub fn stats_digest(s: &RunStats) -> u64 {
    let mut h = KeyHasher::new();
    h.u64(s.cycles).u64(s.invocations);
    h.usize(s.threads.len());
    for t in &s.threads {
        h.str(&t.name)
            .bool(t.is_ra)
            .u64(t.uops)
            .u64(t.branches)
            .u64(t.mispredicts)
            .u64(t.loads)
            .u64(t.stores)
            .u64(t.enqs)
            .u64(t.deqs)
            .u64(t.queue_stall_cycles)
            .u64(t.queue_full_stall_cycles)
            .u64(t.queue_empty_stall_cycles)
            .u64(t.backend_stall_cycles)
            .u64(t.frontend_stall_cycles)
            .u64(t.wakeups)
            .u64(t.spurious_wakeups)
            .u64(t.finish_time);
    }
    h.usize(s.queues.len());
    for q in &s.queues {
        h.usize(q.capacity)
            .u64(q.enqs)
            .u64(q.deqs)
            .usize(q.max_occupancy);
        h.usize(q.occupancy_hist.len());
        for &b in &q.occupancy_hist {
            h.u64(b);
        }
    }
    h.u64(s.cache.l1_hits)
        .u64(s.cache.l2_hits)
        .u64(s.cache.l3_hits)
        .u64(s.cache.mem_accesses)
        .u64(s.cache.prefetches)
        .f64(s.energy.core_dynamic_pj)
        .f64(s.energy.cache_pj)
        .f64(s.energy.dram_pj)
        .f64(s.energy.static_pj);
    h.finish()
}

/// Digest of one measurement (label, input, cycles, full stats).
pub fn measurement_digest(m: &Measurement) -> u64 {
    let mut h = KeyHasher::new();
    h.str(&m.variant)
        .str(&m.input)
        .u64(m.cycles)
        .u64(stats_digest(&m.stats));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_separates_field_boundaries() {
        let mut a = KeyHasher::new();
        a.str("ab").str("c");
        let mut b = KeyHasher::new();
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn program_digest_is_stable_and_content_addressed() {
        let mk = |bound: i64| {
            let mut b = phloem_ir::FunctionBuilder::new("k");
            let a = b.array_i64("a");
            let i = b.var_i64("i");
            let s = b.var_i64("s");
            b.for_loop(
                i,
                phloem_ir::Expr::i64(0),
                phloem_ir::Expr::i64(bound),
                |f| {
                    let l = f.load(a, phloem_ir::Expr::var(i));
                    f.assign(s, phloem_ir::Expr::add(phloem_ir::Expr::var(s), l));
                },
            );
            b.build()
        };
        // Same content, independently built: same digest.
        assert_eq!(program_digest(&mk(8)), program_digest(&mk(8)));
        // One constant changed: different digest.
        assert_ne!(program_digest(&mk(8)), program_digest(&mk(9)));
    }

    #[test]
    fn search_options_key_ignores_workers() {
        let a = SearchOptions::default();
        let b = SearchOptions {
            workers: a.workers + 7,
            ..a.clone()
        };
        assert_eq!(search_options_digest(&a), search_options_digest(&b));
        let c = SearchOptions {
            top_k: a.top_k + 1,
            ..a.clone()
        };
        assert_ne!(search_options_digest(&a), search_options_digest(&c));
    }

    #[test]
    fn stats_digest_sees_deep_fields() {
        let mut a = RunStats::default();
        let b = a.clone();
        assert_eq!(stats_digest(&a), stats_digest(&b));
        a.queues.push(pipette_sim::QueueStats::new(4));
        assert_ne!(stats_digest(&a), stats_digest(&b));
        let mut c = a.clone();
        c.queues[0].occupancy_hist[2] += 1;
        assert_ne!(stats_digest(&a), stats_digest(&c));
    }
}
