//! Workspace-level integration tests: C source -> Phloem -> Pipette,
//! across crates.

use phloem_benchsuite::{bfs, cc, radii, spmm, Variant};
use phloem_compiler::{compile_static, decouple_with_cuts, CompileOptions, PassConfig};
use phloem_frontend::compile_c;
use phloem_ir::{interp, ArrayDecl, MemState, StageKind, Value};
use phloem_workloads::{graph, matrix};
use pipette_sim::{Machine, MachineConfig};

const BFS_C: &str = r#"
    #pragma phloem
    void bfs_round(long cur_dist,
                   int* restrict fringe, int* restrict nodes,
                   int* restrict edges, int* restrict dist,
                   int* restrict next_fringe, int* restrict fringe_len,
                   int* restrict out_len) {
        long nl = fringe_len[0];
        long len = 0;
        for (long i = 0; i < nl; i++) {
            long v = fringe[i];
            long s = nodes[v];
            long e = nodes[v + 1];
            for (long j = s; j < e; j++) {
                long ngh = edges[j];
                long od = dist[ngh];
                if (od > cur_dist) {
                    dist[ngh] = cur_dist;
                    next_fringe[len] = ngh;
                    len++;
                }
            }
        }
        out_len[0] = len;
    }
"#;

#[test]
fn c_source_compiles_to_the_papers_bfs_pipeline() {
    let funcs = compile_c(BFS_C).expect("parse");
    let pipe = compile_static(&funcs[0].func, 4, &CompileOptions::default()).expect("compile");
    assert_eq!(pipe.total_stages(), 4);
    assert_eq!(pipe.ra_stages(), 2, "chained RAs over nodes and edges");
    // Chained: first RA feeds the second.
    let ras: Vec<_> = pipe
        .stages
        .iter()
        .filter_map(|s| match &s.kind {
            StageKind::Ra(c) => Some(c),
            _ => None,
        })
        .collect();
    assert_eq!(ras[0].out_queue, ras[1].in_queue);
}

#[test]
fn c_compiled_bfs_runs_correctly_on_the_machine() {
    let funcs = compile_c(BFS_C).expect("parse");
    let pipe = compile_static(&funcs[0].func, 4, &CompileOptions::default()).expect("compile");
    let g = graph::power_law(500, 3, 3);
    let (mem, arrays) = bfs::build_mem(&g, 0, 1);
    // One round through the timed machine.
    mem.store(arrays.fringe_len, 0, Value::I64(1)).unwrap();
    let run = Machine::run_once(
        &MachineConfig::paper_1core(),
        &pipe,
        mem,
        &[("cur_dist", Value::I64(1))],
    )
    .expect("run");
    // Compare with a functional serial round.
    let (mem2, arrays2) = bfs::build_mem(&g, 0, 1);
    mem2.store(arrays2.fringe_len, 0, Value::I64(1)).unwrap();
    let serial =
        interp::run_serial(&funcs[0].func, mem2, &[("cur_dist", Value::I64(1))]).expect("serial");
    assert_eq!(
        run.mem.i64_vec(arrays.dist),
        serial.mem.i64_vec(arrays2.dist)
    );
}

#[test]
fn every_benchmark_has_four_agreeing_variants() {
    // Smoke version of Fig. 9 at unit-test sizes; each `run` verifies
    // against its oracle internally.
    let cfg = MachineConfig::paper_1core();
    let g = graph::collaboration(50, 2);
    for v in [
        Variant::Serial,
        Variant::DataParallel(4),
        Variant::phloem(),
        Variant::Manual,
    ] {
        bfs::run(&v, &g, 0, &cfg, "t").unwrap();
        cc::run(&v, &g, &cfg, "t").unwrap();
        radii::run(&v, &g, &cfg, "t").unwrap();
    }
    let a = matrix::random_square(30, 3.0, 5);
    let bt = a.transpose();
    for v in [Variant::Serial, Variant::phloem(), Variant::Manual] {
        spmm::run(&v, &a, &bt, &cfg, "t").unwrap();
    }
}

#[test]
fn pass_ablations_preserve_semantics_for_cc() {
    let g = graph::mesh(10, 8);
    let cfg = MachineConfig::paper_1core();
    let want = cc::oracle(&g);
    for passes in [
        PassConfig::queues_only(),
        PassConfig::with_recompute(),
        PassConfig::with_cv(),
        PassConfig::with_dce(),
        PassConfig::with_handlers(),
        PassConfig::all(),
    ] {
        let v = Variant::Phloem {
            passes,
            stages: 4,
            cuts: vec![],
        };
        cc::run(&v, &g, &cfg, "mesh").unwrap(); // panics on mismatch
    }
    let _ = want;
}

#[test]
fn explicit_cut_combinations_stay_functionally_correct() {
    // Every pipeline the PGO search would enumerate must match the
    // serial oracle functionally.
    let kernel = bfs::kernel();
    let opts = phloem_compiler::search::SearchOptions::default();
    let pipes = phloem_compiler::search::enumerate_pipelines(&kernel, &opts);
    assert!(
        pipes.len() >= 10,
        "expected a rich candidate set, got {}",
        pipes.len()
    );
    let g = graph::power_law(300, 3, 1);
    // Serial reference for one round.
    let (mem, arrays) = bfs::build_mem(&g, 0, 1);
    mem.store(arrays.fringe_len, 0, Value::I64(1)).unwrap();
    let want = interp::run_serial(&kernel, mem, &[("cur_dist", Value::I64(1))])
        .unwrap()
        .mem
        .i64_vec(arrays.dist);
    for (cuts, pipe) in pipes {
        let (mem, arrays) = bfs::build_mem(&g, 0, 1);
        mem.store(arrays.fringe_len, 0, Value::I64(1)).unwrap();
        let run = interp::run_pipeline(&pipe, mem, &[("cur_dist", Value::I64(1))], 24)
            .unwrap_or_else(|e| panic!("cuts {cuts:?}: {e}"));
        assert_eq!(
            run.mem.i64_vec(arrays.dist),
            want,
            "wrong distances for cuts {cuts:?}"
        );
    }
}

#[test]
fn taco_to_phloem_full_path() {
    // Expression -> taco-mini -> Phloem -> machine, checked against the
    // host-side SpMV oracle.
    let k = taco_mini::kernels::spmv();
    let a = matrix::banded(200, 8, 6.0, 4);
    let pipe = compile_static(&k.phases[0], 4, &CompileOptions::default()).expect("compile");
    let mut mem = MemState::new();
    mem.alloc_i64(ArrayDecl::i32("A_rp"), a.row_ptr.iter().copied());
    mem.alloc_i64(ArrayDecl::i32("A_ci"), a.col_idx.iter().copied());
    mem.alloc_f64(ArrayDecl::f64("A_val"), a.vals.iter().copied());
    let x: Vec<f64> = (0..a.cols).map(|i| (i % 7) as f64 * 0.25).collect();
    mem.alloc_f64(ArrayDecl::f64("x"), x.iter().copied());
    let y = mem.alloc(ArrayDecl::f64("y"), a.rows);
    let run = Machine::run_once(
        &MachineConfig::paper_1core(),
        &pipe,
        mem,
        &[("n", Value::I64(a.rows as i64))],
    )
    .expect("run");
    let want = a.spmv(&x);
    let got = run.mem.f64_vec(y);
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() < 1e-9, "{g} vs {w}");
    }
}

#[test]
fn race_rule_forbids_stale_reads() {
    // A kernel that reads and writes the same array: cutting at the read
    // must keep it co-staged with the write; forcing the read upstream
    // must fail.
    let src = r#"
        void propagate(long n, int* restrict order, int* restrict val) {
            for (long i = 0; i < n; i++) {
                long a = order[i];
                long x = val[a];
                val[a + 1] = x;
            }
        }
    "#;
    let funcs = compile_c(src).unwrap();
    let f = &funcs[0].func;
    let a = phloem_compiler::analyze(f);
    // val is written; the val load must not be a *separating* cut below
    // the store's stage — compiling with it as the only cut keeps them
    // together and stays correct.
    let val_load = a.loads.iter().find(|l| l.array_written).unwrap().id;
    let pipe = decouple_with_cuts(f, &[val_load], &CompileOptions::default()).expect("legal");
    let mut mem = MemState::new();
    mem.alloc_i64(ArrayDecl::i32("order"), (0..16).map(|i| (i * 5) % 16));
    mem.alloc_i64(ArrayDecl::i32("val"), (0..18).map(|i| i * 10));
    let run1 = interp::run_pipeline(&pipe, mem.clone(), &[("n", Value::I64(16))], 24).unwrap();
    let run2 = interp::run_serial(f, mem, &[("n", Value::I64(16))]).unwrap();
    assert!(run1.mem.same_contents(&run2.mem));
}

#[test]
fn pragma_replicate_distribute_end_to_end() {
    // A filter-gather kernel replicated x4 with a distributed boundary,
    // compiled straight from C source and run on a 4-core machine.
    let src = r#"
        #pragma phloem
        #pragma replicate(4)
        #pragma distribute
        void histogram(long n, int* restrict keys, int* restrict buckets) {
            for (long i = 0; i < n; i++) {
                long k = keys[i];
                buckets[k] += 1;
            }
        }
    "#;
    // buckets is read+written, so all bucket accesses co-stage; keys
    // feed the distributed boundary.
    let pipes = phloem_suite::compile_c_source(
        src,
        &CompileOptions {
            passes: PassConfig::with_handlers(), // keep boundary on compute
            ..Default::default()
        },
    )
    .expect("compile");
    let (_, pipe) = &pipes[0];
    assert_eq!(pipe.cores_used(), 4);

    let n = 4096usize;
    let m = 64usize;
    let mut mem = MemState::new();
    mem.alloc_i64(
        ArrayDecl::i32("keys"),
        (0..n).map(|i| ((i * 2654435761) % m) as i64),
    );
    let buckets = mem.alloc(ArrayDecl::i32("buckets"), m);
    let run = Machine::run_once(
        &MachineConfig::paper_multicore(4),
        pipe,
        mem,
        &[("n", Value::I64(n as i64))],
    )
    .expect("run");
    let got = run.mem.i64_vec(buckets);
    let mut want = vec![0i64; m];
    for i in 0..n {
        want[(i * 2654435761) % m] += 1;
    }
    assert_eq!(got, want);
}
