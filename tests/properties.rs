//! Property-based tests: Phloem's decoupling must preserve serial
//! semantics for *randomized* irregular kernels and *arbitrary* legal
//! cut choices — not just the benchmark kernels.

use proptest::prelude::*;

use phloem_compiler::{decouple_with_cuts, CompileOptions, PassConfig};
use phloem_ir::{interp, ArrayDecl, BinOp, Expr, Function, FunctionBuilder, MemState, Value};

/// Specification of a random irregular kernel:
///
/// ```c
/// for i in 0..n:
///   x = A[i]
///   y = B[x]
///   (optional filter) if (y % 2 == parity):
///       C[x] = y + i?            (write)
///       acc += y
///   (optional inner loop) for j in x..x+span:
///       z = B[j]; acc2 += z
/// out[0] = acc; out[1] = acc2
/// ```
#[derive(Clone, Debug)]
struct KernelSpec {
    n: usize,
    filter: bool,
    parity: i64,
    write_c: bool,
    inner: bool,
    span: i64,
    seed: u64,
}

fn spec_strategy() -> impl Strategy<Value = KernelSpec> {
    (
        4usize..40,
        any::<bool>(),
        0i64..2,
        any::<bool>(),
        any::<bool>(),
        1i64..4,
        any::<u64>(),
    )
        .prop_map(
            |(n, filter, parity, write_c, inner, span, seed)| KernelSpec {
                n,
                filter,
                parity,
                write_c,
                inner,
                span,
                seed,
            },
        )
}

fn build_kernel(spec: &KernelSpec) -> Function {
    let mut b = FunctionBuilder::new("randk");
    let n = b.param_i64("n");
    let a = b.array_i32("A");
    let bb = b.array_i32("B");
    let c = b.array_i32("C");
    let out = b.array_i64("out");
    let i = b.var_i64("i");
    let x = b.var_i64("x");
    let y = b.var_i64("y");
    let z = b.var_i64("z");
    let j = b.var_i64("j");
    let acc = b.var_i64("acc");
    let acc2 = b.var_i64("acc2");
    let spec = spec.clone();
    b.for_loop(i, Expr::i64(0), Expr::var(n), |f| {
        let la = f.load(a, Expr::var(i));
        f.assign(x, la);
        let lb = f.load(bb, Expr::var(x));
        f.assign(y, lb);
        let body = |f: &mut FunctionBuilder| {
            if spec.write_c {
                f.store(c, Expr::var(x), Expr::add(Expr::var(y), Expr::var(i)));
            }
            f.assign(acc, Expr::add(Expr::var(acc), Expr::var(y)));
        };
        if spec.filter {
            f.if_then(
                Expr::eq(
                    Expr::bin(BinOp::Rem, Expr::var(y), Expr::i64(2)),
                    Expr::i64(spec.parity),
                ),
                body,
            );
        } else {
            body(f);
        }
        if spec.inner {
            f.for_loop(
                j,
                Expr::var(x),
                Expr::add(Expr::var(x), Expr::i64(spec.span)),
                |f| {
                    let lz = f.load(bb, Expr::var(j));
                    f.assign(z, lz);
                    f.assign(acc2, Expr::add(Expr::var(acc2), Expr::var(z)));
                },
            );
        }
    });
    b.store(out, Expr::i64(0), Expr::var(acc));
    b.store(out, Expr::i64(1), Expr::var(acc2));
    b.build()
}

fn build_mem(spec: &KernelSpec) -> MemState {
    let m = 64usize;
    let mut mem = MemState::new();
    let mut s = spec.seed | 1;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    mem.alloc_i64(
        ArrayDecl::i32("A"),
        (0..spec.n).map(|_| (next() % (m as u64 - 8)) as i64),
    );
    mem.alloc_i64(
        ArrayDecl::i32("B"),
        (0..m as i64).map(|_| (next() % 100) as i64),
    );
    mem.alloc(ArrayDecl::i32("C"), m);
    mem.alloc(ArrayDecl::i64("out"), 2);
    mem
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every cut subset the search would consider, under every pass
    /// configuration, computes exactly the serial result.
    #[test]
    fn decoupling_preserves_semantics(spec in spec_strategy(), mask in 0u32..16) {
        let kernel = build_kernel(&spec);
        let mem = build_mem(&spec);
        let want = interp::run_serial(&kernel, mem.clone(), &[("n", Value::I64(spec.n as i64))])
            .unwrap();
        let analysis = phloem_compiler::analyze(&kernel);
        let cands = analysis.candidates();
        let cuts: Vec<_> = cands
            .iter()
            .enumerate()
            .filter(|(k, _)| mask & (1 << k) != 0)
            .map(|(_, l)| *l)
            .take(3)
            .collect();
        for passes in [PassConfig::queues_only(), PassConfig::with_handlers(), PassConfig::all()] {
            let opts = CompileOptions { passes, ..Default::default() };
            let pipe = match decouple_with_cuts(&kernel, &cuts, &opts) {
                Ok(p) => p,
                // Some combinations are legitimately rejected (races,
                // queue budget); rejection is fine, miscompilation is not.
                Err(_) => continue,
            };
            let run = interp::run_pipeline(
                &pipe,
                mem.clone(),
                &[("n", Value::I64(spec.n as i64))],
                24,
            );
            let run = run.unwrap_or_else(|e| panic!("cuts {cuts:?} [{}]: {e}", passes.label()));
            prop_assert!(
                run.mem.same_contents(&want.mem),
                "divergence for cuts {:?} passes {}",
                cuts,
                passes.label()
            );
        }
    }

    /// The timed machine computes the same memory as the functional
    /// interpreter (timing must never change semantics).
    #[test]
    fn timing_model_is_functionally_transparent(spec in spec_strategy()) {
        let kernel = build_kernel(&spec);
        let mem = build_mem(&spec);
        let opts = CompileOptions::default();
        let analysis = phloem_compiler::analyze(&kernel);
        let cuts: Vec<_> = analysis.candidates().into_iter().take(2).collect();
        let Ok(pipe) = decouple_with_cuts(&kernel, &cuts, &opts) else { return Ok(()); };
        let f = interp::run_pipeline(&pipe, mem.clone(), &[("n", Value::I64(spec.n as i64))], 24)
            .unwrap();
        let t = pipette_sim::Machine::run_once(
            &pipette_sim::MachineConfig::paper_1core(),
            &pipe,
            mem,
            &[("n", Value::I64(spec.n as i64))],
        )
        .unwrap();
        prop_assert!(t.mem.same_contents(&f.mem));
        prop_assert!(t.stats.cycles > 0);
    }
}
