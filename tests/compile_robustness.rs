//! Parser-level robustness: every PhloemC program the frontend accepts
//! must either compile or produce a `CompileError` — never panic — for
//! *every* cut subset and pass-ablation point. These shapes previously
//! drove `phloem::decouple` into `unwrap`/`expect`/map-indexing panics
//! (loop-tag and carrier-stream lookups in `plan_loop`/`finish_stage`).

use phloem_compiler::{analyze, compile_static, decouple_with_cuts, CompileOptions, PassConfig};
use phloem_frontend::compile_c;
use phloem_ir::{Expr, LoadId, Stmt, VarId};

fn presets() -> Vec<PassConfig> {
    vec![
        PassConfig::queues_only(),
        PassConfig::with_recompute(),
        PassConfig::with_cv(),
        PassConfig::with_dce(),
        PassConfig::with_handlers(),
        PassConfig::all(),
        PassConfig::all_streaming(),
    ]
}

/// Compiles `src` at every subset of its cut loads, across all pass
/// presets (with and without inter-pass validation). Returns how many
/// combinations compiled successfully.
fn sweep(src: &str) -> usize {
    let funcs = compile_c(src).expect("frontend accepts the program");
    let f = &funcs[0].func;
    let nloads = f.next_load_id().0 as usize;
    assert!(nloads <= 10, "sweep is exponential in load count");
    let mut ok = 0;
    for mask in 0u32..(1 << nloads) {
        let cuts: Vec<LoadId> = (0..nloads)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| LoadId(i as u32))
            .collect();
        for passes in presets() {
            for validate in [false, true] {
                let opts = CompileOptions {
                    passes: PassConfig {
                        validate_between_passes: validate,
                        ..passes
                    },
                    ..CompileOptions::default()
                };
                // Ok or Err are both acceptable; a panic is the bug.
                if decouple_with_cuts(f, &cuts, &opts).is_ok() {
                    ok += 1;
                }
            }
        }
    }
    ok
}

#[test]
fn filter_loop_with_break_never_panics_the_decoupler() {
    // while(1)+break with a filtered indirect load: the filter's `if`
    // can end up alone in a stage whose loop has no carrier stream.
    let ok = sweep(
        r#"
        void f(long n, int* restrict a, int* restrict b, int* restrict out) {
            long k = 0;
            long acc = 0;
            while (1) {
                long x = a[k];
                if (x > 0) {
                    long y = b[x];
                    acc += y;
                }
                k++;
                if (k >= n) {
                    break;
                }
            }
            out[0] = acc;
        }
    "#,
    );
    assert!(ok > 0, "at least the no-cut pipeline must compile");
}

#[test]
fn condition_only_communication_never_panics_the_decoupler() {
    // The only value crossing the cut is a branch condition; the
    // downstream stage's loop must fall back to communicated bounds
    // rather than assume a CV carrier exists.
    let ok = sweep(
        r#"
        void g(long n, int* restrict a, int* restrict flags,
               int* restrict out) {
            long hits = 0;
            for (long i = 0; i < n; i++) {
                long v = a[i];
                long fl = flags[v];
                if (fl > 0) {
                    hits++;
                }
            }
            out[0] = hits;
        }
    "#,
    );
    assert!(ok > 0);
}

#[test]
fn nested_loops_with_early_exit_never_panic_the_decoupler() {
    let ok = sweep(
        r#"
        void h(long n, long limit, int* restrict starts,
               int* restrict items, int* restrict out) {
            long total = 0;
            for (long i = 0; i < n; i++) {
                long s = starts[i];
                long e = starts[i + 1];
                for (long j = s; j < e; j++) {
                    long it = items[j];
                    total += it;
                }
                if (total > limit) {
                    break;
                }
            }
            out[0] = total;
        }
    "#,
    );
    assert!(ok > 0);
}

#[test]
fn a_malformed_kernel_fails_once_with_the_validation_error() {
    // A legal irregular kernel with several cut candidates, then one
    // statement writing an undeclared variable: `Function::validate`
    // rejects it, so no cut set can help. `compile_static` must return
    // the very error `decouple_with_cuts` does.
    let mut f = compile_c(
        r#"
        void k(int* restrict len, int* restrict a, int* restrict b,
               int* restrict out) {
            long n = len[0];
            long acc = 0;
            for (long i = 0; i < n; i++) {
                long x = a[i];
                long y = b[x];
                acc += y;
            }
            out[0] = acc;
        }
    "#,
    )
    .expect("frontend accepts the program")
    .remove(0)
    .func;
    let ghost = VarId(f.vars.len() as u32);
    f.body.push(Stmt::Assign {
        var: ghost,
        expr: Expr::i64(1),
    });
    assert!(f.validate().is_err());
    let cuts = analyze(&f).candidates();
    assert!(cuts.len() >= 2, "the kernel offers cut candidates");
    let opts = CompileOptions::default();
    let direct = decouple_with_cuts(&f, &cuts[..1], &opts).unwrap_err();
    assert_eq!(compile_static(&f, 4, &opts).unwrap_err(), direct);
    assert_eq!(decouple_with_cuts(&f, &[], &opts).unwrap_err(), direct);
}
