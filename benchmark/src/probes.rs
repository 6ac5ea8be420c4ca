//! Direct probes of the engine and the timing world: the same serial
//! kernels (all BFS rounds, one SpMM invocation) through the bare
//! interpreters on a `FunctionalWorld` and through `Machine::run_once`,
//! so the host cost of the timing model per atom can be read off.

use phloem_benchsuite::runner::serial_pipeline;
use phloem_benchsuite::{bfs, spmm};
use phloem_ir::{
    bind_params, bytecode, BlockReason, BytecodeProgram, ExecEngine, FlatInterp, Function,
    FunctionalWorld, MemState, StageExec, StageSpec, StepInterp, StepResult, Tid, Value, World,
};
use phloem_workloads::{graph::Graph, matrix::SparseMatrix};
use pipette_sim::{CompiledPipeline, Machine, MachineConfig, Session};
use std::time::Instant;

pub struct AtomRate {
    pub ns_per_atom: f64,
    pub atoms: u64,
}

fn drive<E: StageExec>(it: &mut E, world: &mut FunctionalWorld) {
    loop {
        match it
            .run_slice(world, 1024)
            .expect("serial kernel cannot trap")
        {
            (_, StepResult::Blocked(BlockReason::Budget)) => {}
            (_, StepResult::Finished) => return,
            (_, other) => panic!("serial kernel cannot block: {other:?}"),
        }
    }
}

fn invoke(
    engine: ExecEngine,
    func: &Function,
    prog: &BytecodeProgram,
    world: &mut FunctionalWorld,
    params: &[(&str, Value)],
) {
    let bound = bind_params(func, params);
    match engine {
        ExecEngine::Tree => {
            let spec = StageSpec {
                func,
                handlers: &[],
            };
            drive(&mut StepInterp::new(spec, Tid(0), &bound), world)
        }
        ExecEngine::Flat => drive(&mut FlatInterp::new(prog, Tid(0), &bound), world),
    }
}

/// Moves the next fringe into place after a BFS round; returns its
/// length (the host-side pointer swap of `bfs::run`).
fn swap_fringe(mem: &mut MemState, arrays: &bfs::BfsArrays) -> i64 {
    let len = mem.load(arrays.out_len, 0).unwrap().as_i64().unwrap();
    for k in 0..len {
        let v = mem.load(arrays.next_fringe, k).unwrap();
        mem.store(arrays.fringe, k, v).unwrap();
    }
    len
}

/// Serial BFS (all rounds) and one serial SpMM on one interpreter over a
/// `FunctionalWorld`; best of `reps`.
pub fn interp_ns_per_atom(
    engine: ExecEngine,
    g: &Graph,
    a: &SparseMatrix,
    bt: &SparseMatrix,
    reps: usize,
) -> AtomRate {
    let bfs_k = bfs::kernel();
    let bfs_p = bytecode::compile(&bfs_k, &[]).expect("BFS kernel lowers");
    let spmm_k = spmm::kernel();
    let spmm_p = bytecode::compile(&spmm_k, &[]).expect("SpMM kernel lowers");
    let mut best = f64::INFINITY;
    let mut atoms = 0;
    for _ in 0..reps {
        let (mem, arrays) = bfs::build_mem(g, 0, 1);
        let mut w1 = FunctionalWorld::new(mem, 0, 0, 1);
        let (mem, _) = spmm::build_mem(a, bt, 1);
        let mut w2 = FunctionalWorld::new(mem, 0, 0, 1);
        let t0 = Instant::now();
        let (mut len, mut dist) = (1i64, 1i64);
        while len > 0 {
            w1.mem_mut()
                .store(arrays.fringe_len, 0, Value::I64(len))
                .unwrap();
            invoke(
                engine,
                &bfs_k,
                &bfs_p,
                &mut w1,
                &[("cur_dist", Value::I64(dist))],
            );
            len = swap_fringe(w1.mem_mut(), &arrays);
            dist += 1;
        }
        invoke(
            engine,
            &spmm_k,
            &spmm_p,
            &mut w2,
            &[("n", Value::I64(a.rows as i64))],
        );
        let secs = t0.elapsed().as_secs_f64();
        atoms = w1.total_counts().total() + w2.total_counts().total();
        best = best.min(secs);
    }
    AtomRate {
        ns_per_atom: best * 1e9 / atoms.max(1) as f64,
        atoms,
    }
}

/// The same kernels through `Machine::run_once` (a fresh machine per
/// invocation); best of `reps`.
pub fn world_ns_per_atom(
    cfg: &MachineConfig,
    g: &Graph,
    a: &SparseMatrix,
    bt: &SparseMatrix,
    reps: usize,
) -> AtomRate {
    let bfs_p = serial_pipeline(bfs::kernel());
    let spmm_p = serial_pipeline(spmm::kernel());
    let mut best = f64::INFINITY;
    let mut atoms = 0;
    for _ in 0..reps {
        let (mut mem, arrays) = bfs::build_mem(g, 0, 1);
        let (smem, _) = spmm::build_mem(a, bt, 1);
        let t0 = Instant::now();
        let mut n = 0u64;
        let (mut len, mut dist) = (1i64, 1i64);
        while len > 0 {
            mem.store(arrays.fringe_len, 0, Value::I64(len)).unwrap();
            let run = Machine::run_once(cfg, &bfs_p, mem, &[("cur_dist", Value::I64(dist))])
                .expect("serial BFS round");
            n += run.stats.total_ops();
            mem = run.mem;
            len = swap_fringe(&mut mem, &arrays);
            dist += 1;
        }
        let run = Machine::run_once(cfg, &spmm_p, smem, &[("n", Value::I64(a.rows as i64))])
            .expect("serial SpMM");
        n += run.stats.total_ops();
        best = best.min(t0.elapsed().as_secs_f64());
        atoms = n;
    }
    AtomRate {
        ns_per_atom: best * 1e9 / atoms.max(1) as f64,
        atoms,
    }
}

/// A one-stage pipeline that stores one value: what every session pays
/// before its first useful cycle.
pub fn trivial_pipeline() -> (phloem_ir::Pipeline, MemState) {
    use phloem_ir::{ArrayDecl, Expr, FunctionBuilder};
    let mut b = FunctionBuilder::new("trivial");
    let out = b.array_i64("out");
    b.store(out, Expr::i64(0), Expr::i64(1));
    let mut mem = MemState::new();
    mem.alloc(ArrayDecl::i64("out"), 1);
    (serial_pipeline(b.build()), mem)
}

/// Mean microseconds of `Session::new` + `CompiledPipeline::new` + one
/// invocation + `finish` on the trivial pipeline.
pub fn session_setup_us(cfg: &MachineConfig, iters: u64) -> f64 {
    let (p, mem) = trivial_pipeline();
    crate::util::ns_per_iter(iters, || {
        let mut s = Session::new(cfg.clone(), mem.clone());
        let c = CompiledPipeline::new(&p).expect("trivial pipeline lowers");
        s.run_compiled(&p, &c, &[]).expect("trivial pipeline runs");
        std::hint::black_box(s.finish());
    }) / 1e3
}
