//! Lowering tensor-index expressions to Phloem IR loop nests.
//!
//! Like Taco, the lowerer derives the loop structure from the formats:
//! the (single) CSR operand drives a `for row / for nonzero` nest;
//! dense operands become direct address computations; an index that
//! appears only on the right-hand side is reduced; a left-hand-side
//! index that equals the sparse *column* index produces a
//! scatter-accumulate (e.g. `y = Aᵀx`), split into an initialization
//! phase plus a scatter phase — Phloem then pipelines each phase.

use crate::parser::{Access, Factor, TensorAssign, Term};
use phloem_ir::Value;
use phloem_ir::{ArrayDecl, ArrayId, Expr, Function, FunctionBuilder, VarId};
use std::collections::HashMap;
use std::fmt;

/// Storage format of one tensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Compressed sparse rows (row_ptr / col_idx / vals arrays).
    Csr,
    /// Dense vector of `f64`.
    DenseVec,
    /// Dense row-major matrix of `f64`.
    DenseMat,
    /// Runtime scalar parameter.
    Scalar,
}

/// Lowering error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LowerError(pub String);

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

/// A compiled kernel: one or more program phases plus the memory layout
/// contract (array order and scalar parameter names).
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Kernel name.
    pub name: String,
    /// Program phases in execution order (Phloem decouples each phase
    /// individually; phases synchronize between them).
    pub phases: Vec<Function>,
    /// Array declarations in [`ArrayId`] order; the host must allocate
    /// memory in exactly this order.
    pub arrays: Vec<ArrayDecl>,
    /// Names of the arrays (same order), mapping tensors to array slots:
    /// the CSR tensor `A` contributes `A_rp`, `A_ci`, `A_val`.
    pub array_names: Vec<String>,
    /// Scalar parameters every phase accepts (`n` = sparse rows, plus
    /// `m`/`kdim` when used, plus user scalars like `alpha`).
    pub params: Vec<String>,
}

impl Kernel {
    /// Index of a named array in the layout.
    ///
    /// # Panics
    /// Panics if the name is unknown.
    pub fn array(&self, name: &str) -> ArrayId {
        let i = self
            .array_names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("unknown array `{name}`"));
        ArrayId(i as u32)
    }
}

struct Layout {
    decls: Vec<ArrayDecl>,
    names: Vec<String>,
}

impl Layout {
    fn add(&mut self, name: &str, decl: ArrayDecl) -> usize {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i;
        }
        self.names.push(name.to_string());
        self.decls.push(decl);
        self.names.len() - 1
    }
}

fn sparse_access<'a>(
    assign: &'a TensorAssign,
    formats: &HashMap<String, Format>,
) -> Result<&'a Access, LowerError> {
    let mut found = None;
    for t in &assign.terms {
        for f in &t.factors {
            if let Factor::Access(a) = f {
                if formats.get(&a.tensor) == Some(&Format::Csr) {
                    match found {
                        None => found = Some(a),
                        Some(prev) if prev == a => {}
                        Some(_) => {
                            return Err(LowerError(
                                "co-iteration over multiple sparse operands is not supported"
                                    .into(),
                            ))
                        }
                    }
                }
            }
        }
    }
    found.ok_or_else(|| LowerError("no CSR operand found".into()))
}

/// Lowers a parsed assignment given the tensor formats.
///
/// # Errors
/// Returns [`LowerError`] for shapes outside the supported patterns
/// (one CSR operand; dense everything else).
pub fn lower(
    assign: &TensorAssign,
    formats: &HashMap<String, Format>,
) -> Result<Kernel, LowerError> {
    let sparse = sparse_access(assign, formats)?.clone();
    if sparse.indices.len() != 2 {
        return Err(LowerError("the CSR operand must be a matrix".into()));
    }
    let (ri, ci) = (sparse.indices[0].clone(), sparse.indices[1].clone());

    let mut layout = Layout {
        decls: Vec::new(),
        names: Vec::new(),
    };
    let sp = &sparse.tensor;
    layout.add(&format!("{sp}_rp"), ArrayDecl::i32(format!("{sp}_rp")));
    layout.add(&format!("{sp}_ci"), ArrayDecl::i32(format!("{sp}_ci")));
    layout.add(&format!("{sp}_val"), ArrayDecl::f64(format!("{sp}_val")));

    // Classify the output (its format must be declared).
    let lhs = &assign.lhs;
    formats
        .get(&lhs.tensor)
        .ok_or_else(|| LowerError(format!("no format for `{}`", lhs.tensor)))?;

    // Contraction index: appears on the RHS but neither in the sparse
    // access nor on the LHS (dense-dense contraction, e.g. SDDMM's k).
    let mut contraction: Option<String> = None;
    for t in &assign.terms {
        for f in &t.factors {
            if let Factor::Access(a) = f {
                for ix in &a.indices {
                    if *ix != ri && *ix != ci && !lhs.indices.contains(ix) {
                        contraction = Some(ix.clone());
                    }
                }
            }
        }
    }

    // Register dense operands & scalars.
    let mut params: Vec<String> = vec!["n".into()];
    let mut scalars: Vec<String> = Vec::new();
    for t in &assign.terms {
        for f in &t.factors {
            match f {
                Factor::Access(a) if a.tensor != *sp => match formats.get(&a.tensor) {
                    Some(Format::DenseVec) => {
                        layout.add(&a.tensor, ArrayDecl::f64(a.tensor.clone()));
                    }
                    Some(Format::DenseMat) => {
                        layout.add(&a.tensor, ArrayDecl::f64(a.tensor.clone()));
                    }
                    other => {
                        return Err(LowerError(format!(
                            "unsupported operand format {other:?} for `{}`",
                            a.tensor
                        )))
                    }
                },
                Factor::Scalar(s) if !scalars.contains(s) => {
                    scalars.push(s.clone());
                }
                _ => {}
            }
        }
    }

    let scatter = lhs.indices == vec![ci.clone()];
    let sddmm = lhs.indices == vec![ri.clone(), ci.clone()];
    let rowwise = lhs.indices == vec![ri.clone()];
    if !(scatter || sddmm || rowwise) {
        return Err(LowerError(format!(
            "unsupported output indexing {:?}",
            lhs.indices
        )));
    }
    if scatter {
        params.push("m".into());
    }
    if contraction.is_some() {
        params.push("kdim".into());
        params.push("m".into());
    }
    params.extend(scalars.iter().cloned());

    // Output array.
    let out_name = if sddmm {
        format!("{}_val_out", lhs.tensor)
    } else {
        lhs.tensor.clone()
    };
    layout.add(&out_name, ArrayDecl::f64(out_name.clone()));

    let kernel_name = format!("taco_{}", lhs.tensor);
    let mut phases = Vec::new();

    // Scatter outputs need an initialization phase for the terms that do
    // not contain the sparse operand (e.g. `beta * z(j)`).
    if scatter {
        let mut b = FunctionBuilder::new(format!("{kernel_name}:init"));
        let (vars, arrays) = declare(&mut b, &layout, &params);
        let jv = b.var_i64("j");
        let m = vars["m"];
        let acc = b.var_f64("initacc");
        b.for_loop(jv, Expr::i64(0), Expr::var(m), |f| {
            f.assign(acc, Expr::f64(0.0));
            for t in &assign.terms {
                if term_has_sparse(t, sp) {
                    continue;
                }
                let prod = term_product(f, t, sp, &vars, &arrays, &layout, |ix| {
                    if ix == ci {
                        Some(Expr::var(jv))
                    } else {
                        None
                    }
                });
                f.assign(acc, Expr::add(Expr::var(acc), prod));
            }
            f.store(arrays[&out_name], Expr::var(jv), Expr::var(acc));
        });
        phases.push(b.build());
    }

    // Main sparse phase.
    {
        let mut b = FunctionBuilder::new(format!("{kernel_name}:main"));
        let (vars, arrays) = declare(&mut b, &layout, &params);
        let n = vars["n"];
        let iv = b.var_i64("i");
        let s = b.var_i64("s");
        let e = b.var_i64("e");
        let k = b.var_i64("k");
        let col = b.var_i64("col");
        let acc = b.var_f64("acc");
        let rp = arrays[&format!("{sp}_rp")];
        let cia = arrays[&format!("{sp}_ci")];
        let val = arrays[&format!("{sp}_val")];
        let contraction = contraction.clone();
        b.for_loop(iv, Expr::i64(0), Expr::var(n), |f| {
            let l1 = f.load(rp, Expr::var(iv));
            f.assign(s, l1);
            let l2 = f.load(rp, Expr::add(Expr::var(iv), Expr::i64(1)));
            f.assign(e, l2);
            if rowwise {
                f.assign(acc, Expr::f64(0.0));
            }
            f.for_loop(k, Expr::var(s), Expr::var(e), |f| {
                let lc = f.load(cia, Expr::var(k));
                f.assign(col, lc);
                let resolve = |ix: &str| -> Option<Expr> {
                    if ix == ri {
                        Some(Expr::var(iv))
                    } else if ix == ci {
                        Some(Expr::var(col))
                    } else {
                        None
                    }
                };
                // Product over the sparse terms (value + dense factors).
                for t in &assign.terms {
                    if !term_has_sparse(t, sp) {
                        continue;
                    }
                    let mut prod = if t.sign < 0.0 {
                        Expr::f64(-1.0)
                    } else {
                        Expr::f64(1.0)
                    };
                    let lv = f.load(val, Expr::var(k));
                    prod = smul(prod, lv);
                    for fac in &t.factors {
                        match fac {
                            Factor::Access(a) if a.tensor == *sp => {}
                            Factor::Access(a) => {
                                match formats.get(&a.tensor) {
                                    Some(Format::DenseVec) => {
                                        let ix = resolve(&a.indices[0]).expect("vec index");
                                        let ld = f.load(arrays[&a.tensor], ix);
                                        prod = smul(prod, ld);
                                    }
                                    Some(Format::DenseMat) => {
                                        // Handled below via the contraction loop.
                                    }
                                    _ => unreachable!("checked above"),
                                }
                            }
                            Factor::Scalar(sc) => {
                                prod = smul(prod, Expr::var(vars[sc.as_str()]));
                            }
                            Factor::Const(c) => prod = smul(prod, Expr::f64(*c)),
                        }
                    }
                    if let Some(cx) = &contraction {
                        // Dense-dense dot product (SDDMM): acc2 = sum_t
                        // C[i*kdim+t] * D[t*m+col].
                        let kdim = vars["kdim"];
                        let m = vars["m"];
                        let tvar = f.var_i64("t");
                        let dot = f.var_f64("dot");
                        f.assign(dot, Expr::f64(0.0));
                        let mats: Vec<&Access> = assign
                            .terms
                            .iter()
                            .flat_map(|t| &t.factors)
                            .filter_map(|fa| match fa {
                                Factor::Access(a)
                                    if formats.get(&a.tensor) == Some(&Format::DenseMat) =>
                                {
                                    Some(a)
                                }
                                _ => None,
                            })
                            .collect();
                        f.for_loop(tvar, Expr::i64(0), Expr::var(kdim), |f| {
                            let mut p = Expr::f64(1.0);
                            for a in &mats {
                                // Row-major address from the two indices.
                                let (r0, c0) = (&a.indices[0], &a.indices[1]);
                                let row = if r0 == cx.as_str() {
                                    Expr::var(tvar)
                                } else {
                                    resolve(r0).expect("mat row")
                                };
                                let colx = if c0 == cx.as_str() {
                                    Expr::var(tvar)
                                } else {
                                    resolve(c0).expect("mat col")
                                };
                                let stride = if r0 == cx.as_str() || *r0 == ci {
                                    // D is kdim x m.
                                    Expr::var(m)
                                } else {
                                    Expr::var(kdim)
                                };
                                let addr = Expr::add(Expr::mul(row, stride), colx);
                                let ld = f.load(arrays[&a.tensor], addr);
                                p = smul(p, ld);
                            }
                            f.assign(dot, Expr::add(Expr::var(dot), p));
                        });
                        prod = smul(prod, Expr::var(dot));
                    }
                    if rowwise {
                        f.assign(acc, Expr::add(Expr::var(acc), prod));
                    } else if scatter {
                        let yv = f.var_f64("yv");
                        let ly = f.load(arrays[&out_name], Expr::var(col));
                        f.assign(yv, ly);
                        f.store(
                            arrays[&out_name],
                            Expr::var(col),
                            Expr::add(Expr::var(yv), prod),
                        );
                    } else {
                        // SDDMM: one output per nonzero.
                        f.store(arrays[&out_name], Expr::var(k), prod);
                    }
                }
            });
            if rowwise {
                // Row epilogue: non-sparse terms (e.g. `b(i)`), then store.
                let mut total = Expr::var(acc);
                for t in &assign.terms {
                    if term_has_sparse(t, sp) {
                        continue;
                    }
                    let prod = term_product(f, t, sp, &vars, &arrays, &layout, |ix| {
                        if ix == ri {
                            Some(Expr::var(iv))
                        } else {
                            None
                        }
                    });
                    total = Expr::add(total, prod);
                }
                f.store(arrays[&out_name], Expr::var(iv), total);
            }
        });
        phases.push(b.build());
    }

    Ok(Kernel {
        name: kernel_name,
        phases,
        arrays: layout.decls,
        array_names: layout.names,
        params,
    })
}

/// Multiplication with unit-constant folding (keeps generated inner
/// loops lean enough for reference-accelerator extraction).
fn smul(a: Expr, b: Expr) -> Expr {
    match (&a, &b) {
        (Expr::Const(Value::F64(x)), _) if *x == 1.0 => b,
        (_, Expr::Const(Value::F64(x))) if *x == 1.0 => a,
        _ => Expr::mul(a, b),
    }
}

fn term_has_sparse(t: &Term, sp: &str) -> bool {
    t.factors
        .iter()
        .any(|f| matches!(f, Factor::Access(a) if a.tensor == sp))
}

fn declare(
    b: &mut FunctionBuilder,
    layout: &Layout,
    params: &[String],
) -> (HashMap<String, VarId>, HashMap<String, ArrayId>) {
    let mut vars = HashMap::new();
    for p in params {
        let v = if p == "n" || p == "m" || p == "kdim" {
            b.param_i64(p.clone())
        } else {
            b.param_f64(p.clone())
        };
        vars.insert(p.clone(), v);
    }
    let mut arrays = HashMap::new();
    for (name, decl) in layout.names.iter().zip(&layout.decls) {
        let id = b.array(decl.clone());
        arrays.insert(name.clone(), id);
    }
    (vars, arrays)
}

fn term_product(
    f: &mut FunctionBuilder,
    t: &Term,
    sp: &str,
    vars: &HashMap<String, VarId>,
    arrays: &HashMap<String, ArrayId>,
    _layout: &Layout,
    resolve: impl Fn(&str) -> Option<Expr>,
) -> Expr {
    let mut prod = if t.sign < 0.0 {
        Expr::f64(-1.0)
    } else {
        Expr::f64(1.0)
    };
    for fac in &t.factors {
        match fac {
            Factor::Access(a) if a.tensor == sp => unreachable!("non-sparse term"),
            Factor::Access(a) => {
                let ix = resolve(&a.indices[0]).expect("resolvable index");
                let ld = f.load(arrays[&a.tensor], ix);
                prod = smul(prod, ld);
            }
            Factor::Scalar(s) => prod = smul(prod, Expr::var(vars[s.as_str()])),
            Factor::Const(c) => prod = smul(prod, Expr::f64(*c)),
        }
    }
    prod
}
