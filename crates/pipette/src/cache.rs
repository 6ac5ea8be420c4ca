//! Set-associative cache hierarchy and DRAM model.
//!
//! Per core: L1D and L2 (private); one shared L3 sized per Table III
//! (2 MB/core); DRAM with a minimum latency plus per-controller
//! bandwidth contention. A simple per-core stream prefetcher detects
//! ascending line sequences and pulls lines ahead, so linear traversals
//! (e.g. a BFS fringe scan) behave realistically on the serial baseline.

use crate::config::MachineConfig;
use phloem_ir::Time;

const LINE_BYTES: u64 = 64;
const LINE_SHIFT: u64 = 6;

/// Which level serviced an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitLevel {
    /// L1 data cache.
    L1,
    /// Private L2.
    L2,
    /// Shared L3.
    L3,
    /// Main memory.
    Mem,
}

/// Access counters for the hierarchy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit in L1.
    pub l1_hits: u64,
    /// Accesses that hit in L2.
    pub l2_hits: u64,
    /// Accesses that hit in L3.
    pub l3_hits: u64,
    /// Accesses that went to DRAM.
    pub mem_accesses: u64,
    /// Lines brought in by the prefetcher.
    pub prefetches: u64,
}

impl CacheStats {
    /// Total demand accesses.
    pub fn total(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.l3_hits + self.mem_accesses
    }
}

#[derive(Clone, Debug)]
struct CacheArray {
    set_mask: u64,
    ways: usize,
    /// tags[set * ways + way]; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    clock: u64,
}

impl CacheArray {
    fn new(kb: usize, ways: usize) -> CacheArray {
        let lines = (kb * 1024) as u64 / LINE_BYTES;
        let sets = (lines / ways as u64).max(1).next_power_of_two();
        CacheArray {
            set_mask: sets - 1,
            ways,
            tags: vec![u64::MAX; (sets as usize) * ways],
            stamps: vec![0; (sets as usize) * ways],
            clock: 0,
        }
    }

    /// Looks up a line; on hit refreshes LRU. Returns true on hit.
    fn access(&mut self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        let base = set * self.ways;
        self.clock += 1;
        for w in 0..self.ways {
            if self.tags[base + w] == line {
                self.stamps[base + w] = self.clock;
                return true;
            }
        }
        false
    }

    /// Inserts a line, evicting LRU.
    fn insert(&mut self, line: u64) {
        let set = (line & self.set_mask) as usize;
        let base = set * self.ways;
        self.clock += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if self.stamps[base + w] < oldest {
                oldest = self.stamps[base + w];
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
    }

    /// The demand-path hot loop: branchless hit probe, then the miss
    /// path. The probe is a fixed-trip scan over the set's tags with no
    /// early exit and no data-dependent branch inside the loop (the
    /// match index accumulates via conditional move), so the common
    /// L1-hit case costs one set-mask index, one predictable
    /// hit-or-miss branch, and no allocation or division. State
    /// transitions (including the two clock bumps of the
    /// access-then-insert pair) are bit-identical to calling
    /// [`CacheArray::access`] then [`CacheArray::insert`]; the
    /// `fused_scan_matches_access_then_insert` test pins this.
    #[inline]
    fn access_or_victim(&mut self, line: u64) -> bool {
        let base = (line & self.set_mask) as usize * self.ways;
        self.clock += 1;
        let mut hit = usize::MAX;
        for (w, &tag) in self.tags[base..base + self.ways].iter().enumerate() {
            if tag == line {
                hit = w;
            }
        }
        if hit != usize::MAX {
            self.stamps[base + hit] = self.clock;
            return true;
        }
        self.miss_install(base, line);
        false
    }

    /// Miss path of [`CacheArray::access_or_victim`]: victim scan (first
    /// invalid way, else LRU) and install — [`CacheArray::insert`]'s
    /// exact policy, with the set index already resolved.
    fn miss_install(&mut self, base: usize, line: u64) {
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if self.stamps[base + w] < oldest {
                oldest = self.stamps[base + w];
                victim = w;
            }
        }
        self.clock += 1;
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
    }

    fn contains(&self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        let base = set * self.ways;
        (0..self.ways).any(|w| self.tags[base + w] == line)
    }
}

/// One tracked stream; `last_line == u64::MAX` marks an empty entry.
/// (A zeroed default would make a fresh table treat a miss to line 1 as
/// the continuation of a phantom stream through line 0.)
#[derive(Clone, Copy, Debug)]
struct StreamEntry {
    last_line: u64,
    run: u32,
}

impl Default for StreamEntry {
    fn default() -> Self {
        StreamEntry {
            last_line: u64::MAX,
            run: 0,
        }
    }
}

/// The full memory hierarchy for one machine.
#[derive(Clone, Debug)]
pub struct MemHierarchy {
    l1: Vec<CacheArray>,
    l2: Vec<CacheArray>,
    l3: CacheArray,
    l1_latency: u64,
    l2_latency: u64,
    l3_latency: u64,
    dram_latency: u64,
    dram_cycles_per_line: u64,
    controllers: Vec<Time>,
    /// `controllers.len() - 1` when the count is a power of two (the
    /// paper config: 2), letting [`MemHierarchy::dram_access`] pick the
    /// controller with a mask instead of a division; `usize::MAX`
    /// flags the modulo fallback for odd counts.
    ctrl_mask: usize,
    prefetch: bool,
    prefetch_degree: u64,
    streams: Vec<[StreamEntry; 8]>,
    /// Counters (demand accesses only).
    pub stats: CacheStats,
}

impl MemHierarchy {
    /// Builds the hierarchy for a configuration.
    pub fn new(cfg: &MachineConfig) -> MemHierarchy {
        MemHierarchy {
            l1: (0..cfg.cores)
                .map(|_| CacheArray::new(cfg.l1.kb, cfg.l1.ways))
                .collect(),
            l2: (0..cfg.cores)
                .map(|_| CacheArray::new(cfg.l2.kb, cfg.l2.ways))
                .collect(),
            l3: CacheArray::new(cfg.l3_kb_per_core * cfg.cores, cfg.l3_ways),
            l1_latency: cfg.l1.latency,
            l2_latency: cfg.l2.latency,
            l3_latency: cfg.l3_latency,
            dram_latency: cfg.dram_latency,
            dram_cycles_per_line: cfg.dram_cycles_per_line,
            controllers: vec![0; cfg.dram_controllers.max(1)],
            ctrl_mask: if cfg.dram_controllers.max(1).is_power_of_two() {
                cfg.dram_controllers.max(1) - 1
            } else {
                usize::MAX
            },
            prefetch: cfg.prefetch,
            prefetch_degree: cfg.prefetch_degree,
            streams: vec![[StreamEntry::default(); 8]; cfg.cores],
            stats: CacheStats::default(),
        }
    }

    fn dram_access(&mut self, line: u64, now: Time) -> u64 {
        let ctrl = if self.ctrl_mask != usize::MAX {
            line as usize & self.ctrl_mask
        } else {
            line as usize % self.controllers.len()
        };
        let start = self.controllers[ctrl].max(now);
        self.controllers[ctrl] = start + self.dram_cycles_per_line;
        (start - now) + self.dram_latency
    }

    fn fill(&mut self, core: usize, line: u64) {
        self.l3.insert(line);
        self.l2[core].insert(line);
        self.l1[core].insert(line);
    }

    /// Performs a demand access from `core` to byte address `addr` at
    /// time `now`; returns `(latency, level)`.
    #[inline]
    pub fn access(&mut self, core: usize, addr: u64, now: Time) -> (u64, HitLevel) {
        let line = addr >> LINE_SHIFT;
        // Each level is probed once: a miss installs the line during the
        // same set scan (victim tracked alongside the lookup), replacing
        // the access-then-insert double scan of the old demand path.
        let (lat, level) = if self.l1[core].access_or_victim(line) {
            self.stats.l1_hits += 1;
            (self.l1_latency, HitLevel::L1)
        } else if self.l2[core].access_or_victim(line) {
            self.stats.l2_hits += 1;
            (self.l2_latency, HitLevel::L2)
        } else if self.l3.access_or_victim(line) {
            self.stats.l3_hits += 1;
            (self.l3_latency, HitLevel::L3)
        } else {
            self.stats.mem_accesses += 1;
            (self.l3_latency + self.dram_access(line, now), HitLevel::Mem)
        };
        if self.prefetch && level != HitLevel::L1 {
            self.train_prefetcher(core, line, now);
        }
        (lat, level)
    }

    /// Stream prefetcher: on a miss to line L where L-1 was recently
    /// missed by the same core, fetch the next `degree` lines.
    fn train_prefetcher(&mut self, core: usize, line: u64, now: Time) {
        let table = &mut self.streams[core];
        let mut matched = false;
        for e in table.iter_mut() {
            if e.last_line != u64::MAX && e.last_line + 1 == line {
                e.last_line = line;
                e.run = e.run.saturating_add(1);
                matched = e.run >= 2;
                break;
            }
        }
        if matched {
            for d in 1..=self.prefetch_degree {
                let pf = line + d;
                if !self.l2[core].contains(pf) && !self.l1[core].contains(pf) {
                    self.stats.prefetches += 1;
                    if !self.l3.access(pf) {
                        // Charge controller bandwidth but hide latency.
                        let _ = self.dram_access(pf, now);
                    }
                    self.fill(core, pf);
                }
            }
            return;
        }
        // Allocate a new stream entry (round-robin by line), unless the
        // slot already tracks this line's predecessor.
        let slot = (line % 8) as usize;
        let s = self.streams[core][slot];
        if s.last_line == u64::MAX || s.last_line + 1 != line {
            self.streams[core][slot] = StreamEntry {
                last_line: line,
                run: 1,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        let mut c = MachineConfig::paper_1core();
        c.prefetch = false;
        c
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut h = MemHierarchy::new(&cfg());
        let (lat1, lvl1) = h.access(0, 0x10000, 0);
        assert_eq!(lvl1, HitLevel::Mem);
        assert!(lat1 >= 120 + 40);
        let (lat2, lvl2) = h.access(0, 0x10008, 1000);
        assert_eq!(lvl2, HitLevel::L1, "same line must hit L1");
        assert_eq!(lat2, 4);
    }

    #[test]
    fn capacity_eviction_in_l1_falls_to_l2() {
        let mut h = MemHierarchy::new(&cfg());
        // Touch enough distinct lines mapping to the same set to evict.
        // L1: 32KB/64B = 512 lines, 8 ways, 64 sets -> stride of 64 lines
        // lands in one set.
        let set_stride = 64 * 64; // bytes
        for i in 0..9u64 {
            h.access(0, i * set_stride, 0);
        }
        // Line 0 must be evicted from L1 but still be in L2.
        let (lat, lvl) = h.access(0, 0, 10_000);
        assert_eq!(lvl, HitLevel::L2);
        assert_eq!(lat, 12);
    }

    #[test]
    fn dram_bandwidth_contention_serializes() {
        let mut h = MemHierarchy::new(&cfg());
        // Two accesses to lines on the same controller at the same time:
        // the second pays extra queueing delay.
        let (l1, _) = h.access(0, 0, 0);
        let (l2, _) = h.access(0, 2 * 64 * 2, 0); // same parity -> same ctrl
        assert!(l2 > l1);
    }

    #[test]
    fn prefetcher_hides_streaming_misses() {
        let mut c = MachineConfig::paper_1core();
        c.prefetch = true;
        let mut h = MemHierarchy::new(&c);
        let mut mem_level = 0;
        // Stream through 64 consecutive lines.
        for i in 0..64u64 {
            let (_, lvl) = h.access(0, i * 64, i * 10);
            if lvl == HitLevel::Mem {
                mem_level += 1;
            }
        }
        assert!(h.stats.prefetches > 0, "stream must be detected");
        assert!(
            mem_level < 40,
            "prefetching must absorb many streaming misses, got {mem_level}"
        );
    }

    #[test]
    fn fresh_stream_table_does_not_false_match_line_one() {
        // Regression: with zero-initialised stream entries, a fresh
        // table made a miss to line 1 look like the continuation of a
        // phantom stream through line 0, corrupting the table. The
        // sequence 1, 16, 2 then detected no stream at all: line 1
        // bumped a phantom entry (instead of allocating slot 1), line 16
        // clobbered it, and line 2 found no predecessor. With the
        // u64::MAX sentinel, line 1 allocates its own entry and line 2
        // extends it into a run, triggering a full-degree prefetch.
        let mut c = MachineConfig::paper_1core();
        c.prefetch = true;
        let mut h = MemHierarchy::new(&c);
        for line in [1u64, 16, 2] {
            h.access(0, line * 64, 0);
        }
        assert_eq!(
            h.stats.prefetches, h.prefetch_degree,
            "line 2 must extend the stream allocated by line 1"
        );
    }

    #[test]
    fn fused_scan_matches_access_then_insert() {
        // access_or_victim must leave the array in exactly the state of
        // an access() followed (on miss) by insert(): same tags, same
        // LRU stamps, same clock. Drive both through a sequence with
        // re-references, conflict misses, and invalid-way fills.
        let mut split = CacheArray::new(4, 4);
        let mut fused = CacheArray::new(4, 4);
        let mut x = 7u64;
        for i in 0..4000u64 {
            // Deterministic mix of streaming and re-referenced lines.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = if i % 3 == 0 { i / 2 } else { x % 97 };
            let hit_split = {
                let h = split.access(line);
                if !h {
                    split.insert(line);
                }
                h
            };
            let hit_fused = fused.access_or_victim(line);
            assert_eq!(hit_split, hit_fused, "hit/miss diverged at op {i}");
            assert_eq!(split.tags, fused.tags, "tags diverged at op {i}");
            assert_eq!(split.stamps, fused.stamps, "stamps diverged at op {i}");
            assert_eq!(split.clock, fused.clock, "clock diverged at op {i}");
        }
    }

    #[test]
    fn masked_set_index_equals_the_modulo_computation() {
        // The set count is forced to a power of two at construction, so
        // `line & set_mask` must agree with the reference `line % sets`
        // over a sweep of addresses — for every cache geometry in the
        // paper config (and a degenerate 1-set array).
        for (kb, ways) in [(32, 8), (256, 8), (2048, 16), (4, 4), (1, 16)] {
            let c = CacheArray::new(kb, ways);
            let sets = c.set_mask + 1;
            assert!(sets.is_power_of_two());
            for addr in (0..1u64 << 22).step_by(1 << 6) {
                let line = addr >> LINE_SHIFT;
                assert_eq!(
                    line & c.set_mask,
                    line % sets,
                    "kb={kb} ways={ways} line={line}"
                );
            }
        }
    }

    #[test]
    fn masked_controller_index_equals_the_modulo_computation() {
        // Two controllers (the paper config) -> mask path; three -> the
        // modulo fallback. Both must agree with `line % n`.
        for n in [1usize, 2, 3, 4] {
            let mut c = cfg();
            c.dram_controllers = n;
            let h = MemHierarchy::new(&c);
            for line in 0..4096u64 {
                let want = (line as usize) % n;
                let got = if h.ctrl_mask != usize::MAX {
                    line as usize & h.ctrl_mask
                } else {
                    line as usize % h.controllers.len()
                };
                assert_eq!(got, want, "n={n} line={line}");
            }
        }
    }

    #[test]
    fn cores_have_private_l1() {
        let mut c = cfg();
        c.cores = 2;
        let mut h = MemHierarchy::new(&c);
        h.access(0, 0x40000, 0);
        let (_, lvl) = h.access(1, 0x40000, 100);
        assert_eq!(lvl, HitLevel::L3, "other core's L1/L2 are private");
    }
}
