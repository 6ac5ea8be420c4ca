//! The static cost model that ranks candidate decoupling points (Sec. V).
//!
//! Phloem prioritizes loads by (1) predicted cost — indirect accesses are
//! expensive, sequential ones are prefetchable, and an access adjacent to
//! another access of the same array is almost surely a hit and should be
//! *grouped* with it rather than decoupled — and (2) frequency, weighting
//! loads in deeper loops more heavily.

use crate::normalize::normalize;
use phloem_ir::{ArrayId, Expr, Function, LoadId, Stmt, VarId};
use std::collections::BTreeSet;

/// How a load's address behaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Index is data-dependent (derived from another load): expensive.
    Indirect,
    /// Index is affine in an *irregular* loop's variable (data-dependent
    /// trip count): streaming over data-dependent ranges.
    Sequential,
    /// Index is affine in a *regular* (dense, statically counted) loop's
    /// variable. Conventional cores handle these well; they are never
    /// decoupling candidates — Phloem decouples across sources of
    /// irregularity only.
    Dense,
    /// Index derives only from parameters/constants: cheap.
    Cheap,
}

/// Facts about one static load site.
#[derive(Clone, Debug)]
pub struct LoadInfo {
    /// The load site.
    pub id: LoadId,
    /// Array accessed.
    pub array: ArrayId,
    /// Preorder position among atoms (defines pipeline order).
    pub pos: usize,
    /// Loop nesting depth.
    pub depth: u32,
    /// Address behaviour.
    pub kind: AccessKind,
    /// True if another load of the same array at a nearby offset
    /// precedes this one (grouped with it; never a cut candidate).
    pub adjacent_secondary: bool,
    /// The first load of this load's adjacency group, when secondary.
    pub adjacent_primary: Option<LoadId>,
    /// True if the accessed array is also written by the function.
    pub array_written: bool,
    /// Cost-model score (higher = better decoupling point).
    pub score: f64,
}

/// Result of the static analysis.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// All load sites in preorder.
    pub loads: Vec<LoadInfo>,
    /// Arrays written by stores or atomics.
    pub written_arrays: BTreeSet<ArrayId>,
}

impl Analysis {
    /// Candidate decoupling points, best first. Adjacent-secondary loads
    /// are excluded (they are grouped with their primary).
    pub fn candidates(&self) -> Vec<LoadId> {
        let mut c: Vec<&LoadInfo> = self
            .loads
            .iter()
            .filter(|l| !l.adjacent_secondary && l.kind != AccessKind::Dense)
            .collect();
        c.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
        c.into_iter().map(|l| l.id).collect()
    }

    /// Info for one load id.
    pub fn load(&self, id: LoadId) -> Option<&LoadInfo> {
        self.loads.iter().find(|l| l.id == id)
    }
}

#[derive(Clone, Copy, Debug)]
struct Sym {
    root: VarId,
    off: i64,
    tainted: bool,
    /// Loop variable this value is linear in (e.g. `t*m + col` is
    /// linear in `t`), independent of taint.
    lin: Option<VarId>,
}

struct Walker {
    /// Symbolic value per variable, indexed by `VarId` (grown on demand:
    /// `analyze` also sees functions that never passed validation).
    syms: Vec<Option<Sym>>,
    /// Active loops: (induction var, irregular trip count?).
    loop_vars: Vec<(VarId, bool)>,
    pos: usize,
    loads: Vec<LoadInfo>,
    written: BTreeSet<ArrayId>,
    /// (array, root, off, group primary) of previously seen loads, for
    /// adjacency; a load that starts its group is its own primary.
    seen: Vec<(ArrayId, VarId, i64, LoadId)>,
}

const FREQ_WEIGHT: f64 = 10.0;

impl Walker {
    fn sym(&self, v: VarId) -> Option<Sym> {
        self.syms.get(v.0 as usize).copied().flatten()
    }

    fn set_sym(&mut self, v: VarId, sym: Sym) {
        let i = v.0 as usize;
        if i >= self.syms.len() {
            self.syms.resize(i + 1, None);
        }
        self.syms[i] = Some(sym);
    }

    fn sym_of_leaf(&self, e: &Expr) -> Option<Sym> {
        match e {
            Expr::Var(v) => Some(self.sym(*v).unwrap_or(Sym {
                root: *v,
                off: 0,
                tainted: false,
                lin: None,
            })),
            _ => None,
        }
    }

    fn leaf_tainted(&self, e: &Expr) -> bool {
        self.sym_of_leaf(e).map(|s| s.tainted).unwrap_or(false)
    }

    fn record_load(&mut self, id: LoadId, array: ArrayId, index: &Expr, depth: u32) {
        let sym = self.sym_of_leaf(index);
        let loop_of = |v: VarId| self.loop_vars.iter().rev().find(|(lv, _)| *lv == v);
        let kind = match sym {
            Some(s) => {
                let linear_loop = loop_of(s.root).or_else(|| s.lin.and_then(&loop_of));
                match linear_loop {
                    Some((_, irregular)) => {
                        if *irregular {
                            AccessKind::Sequential
                        } else {
                            AccessKind::Dense
                        }
                    }
                    None if s.tainted => AccessKind::Indirect,
                    None => AccessKind::Cheap,
                }
            }
            None => AccessKind::Cheap, // constant index
        };
        let adjacent_primary = sym.and_then(|s| {
            self.seen
                .iter()
                .find(|&&(a, r, o, _)| a == array && r == s.root && (o - s.off).abs() <= 2)
                .map(|&(_, _, _, primary)| primary)
        });
        let adjacent_secondary = adjacent_primary.is_some();
        if let Some(s) = sym {
            self.seen
                .push((array, s.root, s.off, adjacent_primary.unwrap_or(id)));
        }
        let base = match kind {
            AccessKind::Indirect => 8.0,
            AccessKind::Sequential => 2.0,
            AccessKind::Dense => 0.1,
            AccessKind::Cheap => 0.5,
        };
        let adj_factor = if adjacent_secondary { 0.05 } else { 1.0 };
        let score = base * FREQ_WEIGHT.powi(depth as i32) * adj_factor;
        self.loads.push(LoadInfo {
            id,
            array,
            pos: self.pos,
            depth,
            kind,
            adjacent_secondary,
            adjacent_primary,
            array_written: false, // filled at the end
            score,
        });
    }

    fn walk(&mut self, body: &[Stmt], depth: u32) {
        for s in body {
            self.pos += 1;
            match s {
                Stmt::Assign { var, expr } => {
                    match expr {
                        Expr::Load { id, array, index } => {
                            self.record_load(*id, *array, index, depth);
                            self.set_sym(
                                *var,
                                Sym {
                                    root: *var,
                                    off: 0,
                                    tainted: true,
                                    lin: None,
                                },
                            );
                        }
                        Expr::Var(src) => {
                            let s = self.sym(*src).unwrap_or(Sym {
                                root: *src,
                                off: 0,
                                tainted: false,
                                lin: None,
                            });
                            self.set_sym(*var, s);
                        }
                        Expr::Binary(phloem_ir::BinOp::Add, a, b) => {
                            // var = v + c or c + v keeps the symbolic base;
                            // var = p + q propagates loop-linearity.
                            let sym = match (&**a, &**b) {
                                (Expr::Var(_), Expr::Const(c)) => {
                                    self.sym_of_leaf(a).zip(c.as_i64().ok()).map(|(s, k)| Sym {
                                        root: s.root,
                                        off: s.off + k,
                                        tainted: s.tainted,
                                        lin: s.lin,
                                    })
                                }
                                (Expr::Const(c), Expr::Var(_)) => {
                                    self.sym_of_leaf(b).zip(c.as_i64().ok()).map(|(s, k)| Sym {
                                        root: s.root,
                                        off: s.off + k,
                                        tainted: s.tainted,
                                        lin: s.lin,
                                    })
                                }
                                _ => None,
                            };
                            let sa = self.sym_of_leaf(a);
                            let sb = self.sym_of_leaf(b);
                            let tainted = self.leaf_tainted(a) || self.leaf_tainted(b);
                            let is_active =
                                |v: VarId| self.loop_vars.iter().any(|(lv, _)| *lv == v);
                            let lin = sym.and_then(|s| s.lin).or_else(|| {
                                [sa, sb].into_iter().flatten().find_map(|s| {
                                    s.lin.or_else(|| is_active(s.root).then_some(s.root))
                                })
                            });
                            self.set_sym(
                                *var,
                                sym.map(|s| Sym { lin, ..s }).unwrap_or(Sym {
                                    root: *var,
                                    off: 0,
                                    tainted,
                                    lin,
                                }),
                            );
                        }
                        Expr::Binary(phloem_ir::BinOp::Mul, a, b) => {
                            // var = t * s is linear in t when s is
                            // loop-invariant data (untainted).
                            let sa = self.sym_of_leaf(a);
                            let sb = self.sym_of_leaf(b);
                            let is_active =
                                |v: VarId| self.loop_vars.iter().any(|(lv, _)| *lv == v);
                            let lin_of = |s: Option<Sym>| {
                                s.and_then(|s| {
                                    s.lin.or_else(|| is_active(s.root).then_some(s.root))
                                })
                            };
                            let a_taint = sa.map(|s| s.tainted).unwrap_or(false);
                            let b_taint = sb.map(|s| s.tainted).unwrap_or(false);
                            let lin = if !b_taint {
                                lin_of(sa)
                            } else if !a_taint {
                                lin_of(sb)
                            } else {
                                None
                            };
                            self.set_sym(
                                *var,
                                Sym {
                                    root: *var,
                                    off: 0,
                                    tainted: a_taint || b_taint,
                                    lin,
                                },
                            );
                        }
                        _ => {
                            let mut tainted = false;
                            expr.for_each_var(&mut |v| {
                                tainted |= self.sym(v).is_some_and(|s| s.tainted);
                            });
                            self.set_sym(
                                *var,
                                Sym {
                                    root: *var,
                                    off: 0,
                                    tainted,
                                    lin: None,
                                },
                            );
                        }
                    }
                }
                Stmt::Store { array, .. } | Stmt::AtomicRmw { array, .. } => {
                    self.written.insert(*array);
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.walk(then_body, depth);
                    self.walk(else_body, depth);
                }
                Stmt::For {
                    var,
                    start,
                    end,
                    body,
                    ..
                } => {
                    // A loop is *irregular* when its trip count is
                    // data-dependent (bounds derived from loads).
                    let irregular = self.leaf_tainted(start) || self.leaf_tainted(end);
                    self.set_sym(
                        *var,
                        Sym {
                            root: *var,
                            off: 0,
                            tainted: false,
                            lin: Some(*var),
                        },
                    );
                    self.loop_vars.push((*var, irregular));
                    self.walk(body, depth + 1);
                    self.loop_vars.pop();
                }
                Stmt::While { body, .. } => {
                    self.walk(body, depth + 1);
                }
                Stmt::Deq { var, .. } => {
                    self.set_sym(
                        *var,
                        Sym {
                            root: *var,
                            off: 0,
                            tainted: true,
                            lin: None,
                        },
                    );
                }
                _ => {}
            }
        }
    }
}

/// Analyzes a function (normalizing it first).
pub fn analyze(func: &Function) -> Analysis {
    analyze_normalized(&normalize(func))
}

/// [`analyze`] of a function that is already in normal form.
pub(crate) fn analyze_normalized(nf: &Function) -> Analysis {
    let mut w = Walker {
        syms: vec![None; nf.vars.len()],
        loop_vars: Vec::new(),
        pos: 0,
        loads: Vec::new(),
        written: BTreeSet::new(),
        seen: Vec::new(),
    };
    w.walk(&nf.body, 0);
    let written = w.written;
    let mut loads = w.loads;
    for l in &mut loads {
        l.array_written = written.contains(&l.array);
    }
    Analysis {
        loads,
        written_arrays: written,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phloem_ir::{Expr, FunctionBuilder};

    /// The BFS inner kernel's load structure:
    /// n=flen[0]; for i in 0..n { v=fringe[i]; s=nodes[v]; e=nodes[v+1];
    ///   for j in s..e { ngh=edges[j]; od=dist[ngh];
    ///     if od>cd { dist[ngh]=cd; nf[len]=ngh; len++ } } }
    fn bfs_like() -> Function {
        let mut b = FunctionBuilder::new("bfs_round");
        let cd = b.param_i64("cur_dist");
        let fringe = b.array_i32("fringe");
        let nodes = b.array_i32("nodes");
        let edges = b.array_i32("edges");
        let dist = b.array_i32("dist");
        let nf = b.array_i32("next_fringe");
        let nf_len_arr = b.array_i32("nf_len");
        let flen = b.array_i32("flen");
        let n = b.var_i64("n");
        let i = b.var_i64("i");
        let v = b.var_i64("v");
        let s = b.var_i64("s");
        let e = b.var_i64("e");
        let j = b.var_i64("j");
        let ngh = b.var_i64("ngh");
        let od = b.var_i64("od");
        let len = b.var_i64("len");
        let ll = b.load(flen, Expr::i64(0));
        b.assign(n, ll);
        b.for_loop(i, Expr::i64(0), Expr::var(n), |f| {
            let lv = f.load(fringe, Expr::var(i));
            f.assign(v, lv);
            let ls = f.load(nodes, Expr::var(v));
            f.assign(s, ls);
            let le = f.load(nodes, Expr::add(Expr::var(v), Expr::i64(1)));
            f.assign(e, le);
            f.for_loop(j, Expr::var(s), Expr::var(e), |f| {
                let ln = f.load(edges, Expr::var(j));
                f.assign(ngh, ln);
                let lo = f.load(dist, Expr::var(ngh));
                f.assign(od, lo);
                f.if_then(
                    Expr::bin(phloem_ir::BinOp::Gt, Expr::var(od), Expr::var(cd)),
                    |f| {
                        f.store(dist, Expr::var(ngh), Expr::var(cd));
                        f.store(nf, Expr::var(len), Expr::var(ngh));
                        f.assign(len, Expr::add(Expr::var(len), Expr::i64(1)));
                    },
                );
            });
        });
        b.store(nf_len_arr, Expr::i64(0), Expr::var(len));
        let _ = cd;
        b.build()
    }

    #[test]
    fn bfs_load_classification() {
        let a = analyze(&bfs_like());
        assert_eq!(a.loads.len(), 6);
        // flen[0]: cheap; fringe[i]: sequential over a data-dependent
        // trip count; nodes[v]: indirect; nodes[v+1]: adjacent; edges[j]:
        // sequential; dist[ngh]: indirect + written.
        assert_eq!(a.loads[0].kind, AccessKind::Cheap);
        assert_eq!(a.loads[1].kind, AccessKind::Sequential);
        assert_eq!(a.loads[2].kind, AccessKind::Indirect);
        assert!(
            a.loads[3].adjacent_secondary,
            "nodes[v+1] pairs with nodes[v]"
        );
        assert_eq!(a.loads[4].kind, AccessKind::Sequential);
        assert_eq!(a.loads[4].depth, 2);
        assert_eq!(a.loads[5].kind, AccessKind::Indirect);
        assert!(a.loads[5].array_written);
    }

    #[test]
    fn dense_loops_are_not_decoupling_candidates() {
        // y[i] += a * x[i] over a statically counted loop: both streams
        // are dense -> no candidates (Phloem decouples irregularity only).
        let mut b = FunctionBuilder::new("saxpy");
        let n = b.param_i64("n");
        let x = b.array_f64("x");
        let y = b.array_f64("y");
        let i = b.var_i64("i");
        let t = b.var_f64("t");
        b.for_loop(i, Expr::i64(0), Expr::var(n), |f| {
            let lx = f.load(x, Expr::var(i));
            let ly = f.load(y, Expr::var(i));
            f.assign(t, Expr::add(ly, lx));
            f.store(y, Expr::var(i), Expr::var(t));
        });
        let a = analyze(&b.build());
        assert!(a.loads.iter().all(|l| l.kind == AccessKind::Dense));
        assert!(a.candidates().is_empty());
    }

    #[test]
    fn bfs_candidate_ranking_matches_paper() {
        // "the access to g->edges is considered even more costly than
        //  to g->nodes" — and dist (indirect, innermost) tops the list.
        let a = analyze(&bfs_like());
        let c = a.candidates();
        let dist = a.loads[5].id;
        let edges = a.loads[4].id;
        let nodes = a.loads[2].id;
        let fringe = a.loads[1].id;
        assert_eq!(c[0], dist);
        assert_eq!(c[1], edges);
        assert_eq!(c[2], nodes);
        assert!(c.contains(&fringe));
        // The adjacent second nodes load is not a candidate; flen is cheap
        // but still listed after the irregular ones.
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn written_arrays_detected() {
        let a = analyze(&bfs_like());
        assert_eq!(a.written_arrays.len(), 3); // dist, next_fringe, nf_len
        assert!(a.loads.iter().filter(|l| l.array_written).count() >= 1);
    }
}
