//! The Taco-path benchmarks (Fig. 12): SpMV, Residual, MTMul, and SDDMM,
//! generated by `taco-mini` and compiled by Phloem's *static* flow (the
//! paper uses static compilation for the Taco benchmarks).
//!
//! Data-parallel variants are derived mechanically from the generated
//! serial code: the row loop is partitioned across threads (by the
//! rewrite `phloem_compiler::replicate` partitions a replica's input
//! with), and MTMul's scatter-accumulate becomes an atomic add —
//! mirroring how a data-parallel Taco backend would parallelize these
//! kernels.

use crate::runner::{
    compile_fitted, data_parallel_pipeline, measure, serial_pipeline, Measurement, Ran, Sink,
    Variant,
};
use phloem_compiler::replicate::partition_top_loop;
use phloem_ir::{BinOp, Expr, MemState, Pipeline, Stmt, Trap, Value};
use phloem_workloads::{DenseMatrix, SparseMatrix};
use pipette_sim::{MachineConfig, Session};
use taco_mini::{kernels, Kernel};

/// Dense inner dimension used for SDDMM's `C (n x k)` and `D (k x m)`.
pub const SDDMM_K: usize = 16;

/// One of the four Taco benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TacoApp {
    /// `y = A x`.
    Spmv,
    /// `y = b - A x`.
    Residual,
    /// `y = alpha Aᵀ x + beta z`.
    Mtmul,
    /// `A = B ∘ (C D)`.
    Sddmm,
}

impl TacoApp {
    /// All four, in the paper's order.
    pub fn all() -> [TacoApp; 4] {
        [
            TacoApp::Mtmul,
            TacoApp::Residual,
            TacoApp::Spmv,
            TacoApp::Sddmm,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TacoApp::Spmv => "SpMV",
            TacoApp::Residual => "Residual",
            TacoApp::Mtmul => "MTMul",
            TacoApp::Sddmm => "SDDMM",
        }
    }

    /// The generated kernel.
    pub fn kernel(self) -> Kernel {
        match self {
            TacoApp::Spmv => kernels::spmv(),
            TacoApp::Residual => kernels::residual(),
            TacoApp::Mtmul => kernels::mtmul(),
            TacoApp::Sddmm => kernels::sddmm(),
        }
    }
}

/// Deterministic dense vector.
fn dense_vec(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ seed;
            ((x >> 11) % 1000) as f64 / 500.0 - 1.0
        })
        .collect()
}

/// Builds memory for an app on matrix `a`; returns `(mem, output id)`.
pub fn build_mem(app: TacoApp, k: &Kernel, a: &SparseMatrix) -> (MemState, phloem_ir::ArrayId) {
    let n = a.rows;
    let mut mem = MemState::new();
    for (name, decl) in k.array_names.iter().zip(&k.arrays) {
        match name.as_str() {
            s if s.ends_with("_rp") => {
                mem.alloc_i64(decl.clone(), a.row_ptr.iter().copied());
            }
            s if s.ends_with("_ci") => {
                mem.alloc_i64(decl.clone(), a.col_idx.iter().copied());
            }
            s if s.ends_with("_val") => {
                mem.alloc_f64(decl.clone(), a.vals.iter().copied());
            }
            "x" => {
                mem.alloc_f64(decl.clone(), dense_vec(n, 1));
            }
            "b" | "z" => {
                mem.alloc_f64(decl.clone(), dense_vec(n, 2));
            }
            "C" => {
                mem.alloc_f64(decl.clone(), DenseMatrix::random(n, SDDMM_K, 3).data);
            }
            "D" => {
                mem.alloc_f64(decl.clone(), DenseMatrix::random(SDDMM_K, n, 4).data);
            }
            "y" => {
                mem.alloc(decl.clone(), n);
            }
            s if s.ends_with("_val_out") => {
                mem.alloc(decl.clone(), a.nnz().max(1));
            }
            other => panic!("unexpected taco array `{other}`"),
        }
    }
    let out = if app == TacoApp::Sddmm {
        k.array("A_val_out")
    } else {
        k.array("y")
    };
    (mem, out)
}

/// Parameter bindings for an app.
pub fn params(app: TacoApp, a: &SparseMatrix) -> Vec<(&'static str, Value)> {
    let n = a.rows as i64;
    match app {
        TacoApp::Spmv | TacoApp::Residual => vec![("n", Value::I64(n))],
        TacoApp::Mtmul => vec![
            ("n", Value::I64(n)),
            ("m", Value::I64(n)),
            ("alpha", Value::F64(1.5)),
            ("beta", Value::F64(0.25)),
        ],
        TacoApp::Sddmm => vec![
            ("n", Value::I64(n)),
            ("kdim", Value::I64(SDDMM_K as i64)),
            ("m", Value::I64(n)),
        ],
    }
}

/// Replaces `yv = out[idx]; out[idx] = yv + P` with an atomic add of `P`.
fn atomicize(body: &mut Vec<Stmt>, out: phloem_ir::ArrayId) {
    let mut i = 0;
    while i < body.len() {
        let replace = if i + 1 < body.len() {
            match (&body[i], &body[i + 1]) {
                (
                    Stmt::Assign {
                        var: yv,
                        expr: Expr::Load { array, index, .. },
                    },
                    Stmt::Store {
                        array: a2,
                        index: i2,
                        value: Expr::Binary(BinOp::Add, lhs, rhs),
                    },
                ) if *array == out && a2 == array && **index == *i2 => {
                    if matches!(&**lhs, Expr::Var(v) if v == yv) {
                        Some((i2.clone(), (**rhs).clone()))
                    } else {
                        None
                    }
                }
                _ => None,
            }
        } else {
            None
        };
        if let Some((idx, add)) = replace {
            body.splice(
                i..i + 2,
                [Stmt::AtomicRmw {
                    op: BinOp::Add,
                    array: out,
                    index: idx,
                    value: add,
                    old: None,
                }],
            );
        }
        match &mut body[i] {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                atomicize(then_body, out);
                atomicize(else_body, out);
            }
            Stmt::For { body: b, .. } | Stmt::While { body: b, .. } => atomicize(b, out),
            _ => {}
        }
        i += 1;
    }
}

/// Builds the pipelines (one per phase) for a variant.
///
/// # Errors
/// Propagates Phloem compile errors.
pub fn pipelines_for(
    app: TacoApp,
    variant: &Variant,
    cfg: &MachineConfig,
) -> Result<Vec<Pipeline>, phloem_compiler::CompileError> {
    let k = app.kernel();
    let mut out = Vec::new();
    for (pi, phase) in k.phases.iter().enumerate() {
        let p = match variant {
            Variant::Serial | Variant::Manual => serial_pipeline(phase.clone()),
            Variant::DataParallel(t) => {
                // MTMul's main (last) phase scatters into y.
                let atomic = if app == TacoApp::Mtmul && pi == k.phases.len() - 1 {
                    Some(k.array("y"))
                } else {
                    None
                };
                // Thread `tid`'s copy: the compiler's own input-partition
                // rewrite on the row loop, then the scatter made atomic.
                let thread_phase = |tid| {
                    let mut f = phase.clone();
                    f.name = format!("{}-t{tid}", phase.name);
                    partition_top_loop(&mut f, tid, *t);
                    if let Some(out) = atomic {
                        atomicize(&mut f.body, out);
                    }
                    f
                };
                data_parallel_pipeline((0..*t).map(thread_phase).collect(), cfg.smt_threads)
            }
            Variant::Phloem { passes, stages, .. } => compile_fitted(phase, *stages, cfg, *passes)?,
        };
        out.push(p);
    }
    Ok(out)
}

/// Runs one Taco app on matrix `a` and verifies the output against the
/// serial functional oracle.
///
/// Runtime failures (watchdog traps, injected faults) surface as
/// `Err(Trap)`; an output mismatch still panics, as it means the
/// variant miscompiled (tolerance for atomic-reordered MTMul).
pub fn run(
    app: TacoApp,
    variant: &Variant,
    a: &SparseMatrix,
    cfg: &MachineConfig,
    input: &str,
) -> Result<Measurement, Trap> {
    run_opt_traced(app, variant, a, cfg, input, None).0
}

/// The single run entry: [`run`] wraps it and every traced caller
/// calls it. `sink`, when given, observes every phase pipeline
/// invocation and is handed back even when the run traps.
pub fn run_opt_traced(
    app: TacoApp,
    variant: &Variant,
    a: &SparseMatrix,
    cfg: &MachineConfig,
    input: &str,
    sink: Option<Sink>,
) -> Ran {
    let k = app.kernel();
    let pipelines = pipelines_for(app, variant, cfg).expect("taco pipelines");
    let (mem, out_id) = build_mem(app, &k, a);
    let ps = params(app, a);
    // Serial functional oracle.
    let want = {
        let (mem, _) = build_mem(app, &k, a);
        let mut cur = mem;
        for ph in &k.phases {
            cur = phloem_ir::interp::run_serial(ph, cur, &ps)
                .expect("oracle")
                .mem;
        }
        cur.f64_vec(out_id)
    };
    let body = |session: &mut Session| {
        for p in &pipelines {
            session.run(p, &ps)?;
        }
        Ok(())
    };
    let label = variant.label();
    measure(label, input, cfg, mem, sink, body, |mem, label| {
        let got = mem.f64_vec(out_id);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-9 + 1e-9 * w.abs(),
                "{} {label}: out[{i}] = {g} vs {w}",
                app.name()
            );
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phloem_workloads::matrix;

    #[test]
    fn all_apps_all_variants_agree() {
        let a = matrix::random_square(60, 4.0, 7);
        let cfg = MachineConfig::paper_1core();
        for app in TacoApp::all() {
            for v in [Variant::Serial, Variant::DataParallel(4), Variant::phloem()] {
                let m = run(app, &v, &a, &cfg, "rnd").expect("taco run");
                assert!(m.cycles > 0, "{} {}", app.name(), v.label());
            }
        }
    }

    #[test]
    fn spmv_pipeline_uses_scan_ras() {
        let cfg = MachineConfig::paper_1core();
        let ps = pipelines_for(TacoApp::Spmv, &Variant::phloem(), &cfg).unwrap();
        assert_eq!(ps.len(), 1);
        let p = &ps[0];
        assert!(
            p.ra_stages() >= 1,
            "SpMV should offload streams to RAs:\n{}",
            phloem_ir::pretty::pipeline_to_string(p)
        );
    }
}
