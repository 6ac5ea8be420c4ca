//! Allocation budget of the compiler's front-to-back path.
//!
//! A counting global allocator tallies the heap allocations this
//! thread makes per `compile_static` over the benchmark's compile grid
//! (the five apps' serial kernels × the seven pass presets × 2-4
//! stages) and per `CompiledPipeline::new` on what it emits. The count
//! is a property of the code, not of the host: it is the same on every
//! run, so it is gated here as an equality-grade budget, not as a
//! throughput floor.

use phloem_benchsuite::apps::APPS;
use phloem_compiler::{compile_static, CompileOptions, PassConfig};
use phloem_ir::{Function, Pipeline};
use pipette_sim::{CompiledPipeline, MachineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Mean allocations per `compile_static` may not exceed this.
const COMPILE_STATIC_BUDGET: f64 = 215.0;
/// Mean allocations per `CompiledPipeline::new` may not exceed this.
const COMPILED_NEW_BUDGET: f64 = 38.0;

fn presets() -> [PassConfig; 7] {
    [
        PassConfig::all(),
        PassConfig::queues_only(),
        PassConfig::with_recompute(),
        PassConfig::with_cv(),
        PassConfig::with_dce(),
        PassConfig::with_handlers(),
        PassConfig::all_streaming(),
    ]
}

/// Compiles the grid once; returns the mean allocations per
/// `compile_static` and per `CompiledPipeline::new`.
fn grid(kernels: &[Function], cfg: &MachineConfig) -> (f64, f64) {
    let (mut compile, mut lower, mut ops) = (0u64, 0u64, 0u64);
    for kernel in kernels {
        for passes in presets() {
            let opts = CompileOptions {
                passes,
                smt_threads: cfg.smt_threads,
                max_queues: cfg.max_queues,
                max_ras: cfg.ras_per_core,
                start_core: 0,
            };
            for stages in 2..=4 {
                let before = allocs();
                let p: Pipeline = compile_static(kernel, stages, &opts).expect("grid compiles");
                let mid = allocs();
                let c = CompiledPipeline::new(&p).expect("grid lowers");
                let after = allocs();
                drop((p, c));
                compile += mid - before;
                lower += after - mid;
                ops += 1;
            }
        }
    }
    (compile as f64 / ops as f64, lower as f64 / ops as f64)
}

#[test]
fn compile_grid_stays_within_its_allocation_budget() {
    let cfg = MachineConfig::paper_1core();
    let kernels: Vec<Function> = APPS.iter().map(|a| a.kernel()).collect();
    // The first pass pays for anything initialised lazily.
    let warm = grid(&kernels, &cfg);
    let (compile, lower) = grid(&kernels, &cfg);
    assert_eq!(
        warm,
        (compile, lower),
        "allocation counts are deterministic"
    );
    println!("allocations per op: compile_static {compile:.1}, CompiledPipeline::new {lower:.1}");
    assert!(
        compile <= COMPILE_STATIC_BUDGET,
        "compile_static allocates {compile:.1} times per op (budget {COMPILE_STATIC_BUDGET})"
    );
    assert!(
        lower <= COMPILED_NEW_BUDGET,
        "CompiledPipeline::new allocates {lower:.1} times per op (budget {COMPILED_NEW_BUDGET})"
    );
}
