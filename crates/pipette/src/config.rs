//! Machine configuration (Table III of the paper).

use crate::watchdog::WatchdogConfig;
use phloem_ir::UopClass;

/// Parameters of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheParams {
    /// Capacity in KiB.
    pub kb: usize,
    /// Associativity.
    pub ways: usize,
    /// Access latency in cycles.
    pub latency: u64,
}

/// Full machine configuration.
///
/// [`MachineConfig::paper_1core`] reproduces the single-core evaluation
/// configuration of Table III; [`MachineConfig::paper_multicore`] the
/// 4-core replication experiments (Fig. 14).
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Number of cores.
    pub cores: usize,
    /// SMT threads per core.
    pub smt_threads: usize,
    /// Issue width (micro-ops per cycle per core).
    pub issue_width: u64,
    /// Reorder-buffer entries per core (partitioned among active threads).
    pub rob_size: usize,
    /// Outstanding long-miss limit per hardware thread (fill-buffer
    /// share).
    pub mshrs: usize,
    /// Branch misprediction penalty in cycles.
    pub mispredict_penalty: u64,
    /// Hardware queue capacity in elements ("queues up to 24 elements
    /// deep"): the simulator's queue depth. A native session's rings
    /// hold at least this many values, floored at
    /// [`crate::native::HOST_RING_DEPTH`] ([`crate::native::ring_depth`]).
    pub queue_capacity: usize,
    /// Maximum number of architectural queues ("16 queues max").
    pub max_queues: u16,
    /// Reference accelerators per core ("4 RAs").
    pub ras_per_core: usize,
    /// Outstanding memory accesses one RA may have in flight.
    pub ra_concurrency: usize,
    /// Fixed per-operation latency inside an RA FSM.
    pub ra_op_latency: u64,
    /// Queue operation latency (enq/deq through the physical register file).
    pub queue_latency: u64,
    /// Extra latency for a dequeue whose producer runs on another core.
    pub inter_core_queue_latency: u64,
    /// L1 data cache.
    pub l1: CacheParams,
    /// Private L2.
    pub l2: CacheParams,
    /// Shared L3 capacity *per core* in KiB (Table III: 2 MB/core).
    pub l3_kb_per_core: usize,
    /// L3 associativity.
    pub l3_ways: usize,
    /// L3 latency.
    pub l3_latency: u64,
    /// Minimum main-memory latency in cycles.
    pub dram_latency: u64,
    /// Number of memory controllers.
    pub dram_controllers: usize,
    /// Cycles one controller is busy per 64 B line (25 GB/s at 3.5 GHz).
    pub dram_cycles_per_line: u64,
    /// Enable the per-core stream prefetcher.
    pub prefetch: bool,
    /// Lines fetched ahead by the stream prefetcher.
    pub prefetch_degree: u64,
    /// Host overhead, in cycles, to launch a pipeline invocation (used
    /// between program phases / fringe rounds).
    pub launch_overhead: u64,
    /// Forward-progress watchdog limits (livelock window on, cycle cap
    /// off by default). Never fires on a healthy run; when it does fire
    /// it raises a structured trap instead of hanging the host.
    pub watchdog: WatchdogConfig,
}

impl MachineConfig {
    /// Table III configuration with a single core.
    pub fn paper_1core() -> MachineConfig {
        MachineConfig {
            cores: 1,
            smt_threads: 4,
            issue_width: 6,
            rob_size: 224,
            mshrs: 16,
            mispredict_penalty: 14,
            queue_capacity: 24,
            max_queues: 16,
            ras_per_core: 4,
            ra_concurrency: 24,
            ra_op_latency: 1,
            queue_latency: 1,
            inter_core_queue_latency: 12,
            l1: CacheParams {
                kb: 32,
                ways: 8,
                latency: 4,
            },
            l2: CacheParams {
                kb: 256,
                ways: 8,
                latency: 12,
            },
            l3_kb_per_core: 2048,
            l3_ways: 16,
            l3_latency: 40,
            dram_latency: 120,
            dram_controllers: 2,
            dram_cycles_per_line: 9,
            prefetch: true,
            prefetch_degree: 2,
            launch_overhead: 300,
            watchdog: WatchdogConfig::default(),
        }
    }

    /// Table III configuration scaled to `cores` cores (Fig. 14 uses 4).
    pub fn paper_multicore(cores: usize) -> MachineConfig {
        MachineConfig {
            cores,
            ..Self::paper_1core()
        }
    }

    /// Latency in cycles of a compute micro-op class.
    pub fn uop_latency(&self, class: UopClass) -> u64 {
        match class {
            UopClass::IntAlu => 1,
            UopClass::IntMul => 3,
            UopClass::IntDiv => 20,
            UopClass::FpAlu => 4,
            UopClass::FpMul => 4,
            UopClass::FpDiv => 14,
            UopClass::QueuePush | UopClass::QueuePop => self.queue_latency,
            UopClass::CtrlJump => 2,
        }
    }

    /// ROB share of one thread when `active` threads run on a core.
    pub fn window_per_thread(&self, active: usize) -> usize {
        (self.rob_size / active.max(1)).max(8)
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper_1core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table3() {
        let c = MachineConfig::paper_1core();
        assert_eq!(c.issue_width, 6);
        assert_eq!(c.smt_threads, 4);
        assert_eq!(c.max_queues, 16);
        assert_eq!(c.queue_capacity, 24);
        assert_eq!(c.ras_per_core, 4);
        assert_eq!(c.l1.kb, 32);
        assert_eq!(c.l2.latency, 12);
        assert_eq!(c.l3_latency, 40);
        assert_eq!(c.dram_latency, 120);
        assert_eq!(c.dram_controllers, 2);
    }

    #[test]
    fn window_partitioning() {
        let c = MachineConfig::paper_1core();
        assert_eq!(c.window_per_thread(1), 224);
        assert_eq!(c.window_per_thread(4), 56);
        assert_eq!(c.window_per_thread(0), 224);
    }
}
