//! Decoupling: slicing a serial loop nest into pipeline stages.
//!
//! Given N-1 *cut loads*, every atom is assigned to a stage (the stage of
//! its dependences, its controlling conditions, and — for accesses to
//! written arrays — its race group, per Fig. 4). Values defined in one
//! stage and used in a later one flow through queues; the planner then
//! applies the paper's passes 2 and 4-6 to shrink communication:
//!
//! * **recompute** (pass 2): cheap pure defs are rematerialized in the
//!   consumer instead of queued;
//! * **control values** (pass 4): loops whose bounds would need queues
//!   become `while (true)` streams terminated by in-band CVs;
//! * **control-value handlers** (pass 5): CV checks move out of inner
//!   loops into hardware handlers;
//! * **inter-stage DCE** (pass 6): loop-boundary CVs nobody needs are
//!   never sent, letting consumers collapse loop nests into flat streams
//!   (*transparent* loops below).
//!
//! Reference-accelerator extraction (pass 3) runs afterwards in
//! [`crate::ra`].
//!
//! The program tree (`Node`) and its `Shape` depend only on the
//! kernel, so one tree serves every cut set tried on it; what a cut set
//! decides — each atom's stage and the `Plan` — lives in tables
//! indexed by atom position, loop tag, variable or array, which are all
//! small dense integers.

use crate::options::{CompileError, PassConfig};
use phloem_ir::{ArrayId, BranchId, Expr, Function, LoadId, QueueId, Stmt, VarId};
use std::ops::{Index, IndexMut};

/// Control value tag signalling end-of-pipeline.
pub const DONE: u32 = 0;

/// Control value tag for the end of loop `tag` (one per loop site).
pub fn next_tag(loop_tag: usize) -> u32 {
    1 + loop_tag as u32
}

/// The decoupled program tree. Atoms are numbered by preorder position,
/// structures (ifs and loops) by tag.
#[derive(Debug)]
pub(crate) enum Node {
    Atom {
        stmt: Stmt,
        def: Option<VarId>,
        pos: usize,
    },
    If {
        tag: usize,
        id: BranchId,
        cond: Expr,
        then: Vec<Node>,
        els: Vec<Node>,
        exit: bool,
    },
    For {
        tag: usize,
        id: BranchId,
        var: VarId,
        lo: Expr,
        hi: Expr,
        body: Vec<Node>,
    },
    While {
        tag: usize,
        id: BranchId,
        body: Vec<Node>,
    },
}

impl Node {
    pub(crate) fn is_loop(&self) -> bool {
        matches!(self, Node::For { .. } | Node::While { .. })
    }

    pub(crate) fn tag(&self) -> Option<usize> {
        match self {
            Node::If { tag, .. } | Node::For { tag, .. } | Node::While { tag, .. } => Some(*tag),
            Node::Atom { .. } => None,
        }
    }
}

#[derive(Default)]
pub(crate) struct TreeBuilder {
    /// Structure tags handed out so far.
    pub next_tag: usize,
    /// Atom positions handed out so far.
    pub next_pos: usize,
}

impl TreeBuilder {
    /// Builds the tree of a normalised body, taking its statements.
    pub(crate) fn build(&mut self, stmts: Vec<Stmt>) -> Result<Vec<Node>, CompileError> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match s {
                Stmt::If {
                    id,
                    cond,
                    then_body,
                    else_body,
                } => {
                    let exit = then_body
                        .iter()
                        .chain(&else_body)
                        .any(|s| matches!(s, Stmt::Break { .. }));
                    let tag = self.next_tag;
                    self.next_tag += 1;
                    out.push(Node::If {
                        tag,
                        id,
                        cond,
                        then: self.build(then_body)?,
                        els: self.build(else_body)?,
                        exit,
                    });
                }
                Stmt::For {
                    id,
                    var,
                    start,
                    end,
                    body,
                } => {
                    let tag = self.next_tag;
                    self.next_tag += 1;
                    out.push(Node::For {
                        tag,
                        id,
                        var,
                        lo: start,
                        hi: end,
                        body: self.build(body)?,
                    });
                }
                Stmt::While { id, body, .. } => {
                    let tag = self.next_tag;
                    self.next_tag += 1;
                    out.push(Node::While {
                        tag,
                        id,
                        body: self.build(body)?,
                    });
                }
                Stmt::Deq { .. }
                | Stmt::Enq { .. }
                | Stmt::EnqSel { .. }
                | Stmt::EnqCtrl { .. } => {
                    return Err(CompileError::Unsupported(
                        "queue operations in source code".into(),
                    ));
                }
                Stmt::AtomicRmw { .. } => {
                    return Err(CompileError::Unsupported(
                        "atomic operations in source code".into(),
                    ));
                }
                other => {
                    let pos = self.next_pos;
                    self.next_pos += 1;
                    out.push(Node::Atom {
                        def: other.write(),
                        stmt: other,
                        pos,
                    });
                }
            }
        }
        Ok(out)
    }
}

fn for_each_atom<'a>(nodes: &'a [Node], f: &mut impl FnMut(&'a Stmt, Option<VarId>, usize)) {
    for n in nodes {
        match n {
            Node::Atom { stmt, def, pos } => f(stmt, *def, *pos),
            Node::If { then, els, .. } => {
                for_each_atom(then, f);
                for_each_atom(els, f);
            }
            Node::For { body, .. } | Node::While { body, .. } => for_each_atom(body, f),
        }
    }
}

fn load_of(stmt: &Stmt) -> Option<(LoadId, ArrayId)> {
    if let Stmt::Assign {
        expr: Expr::Load { id, array, .. },
        ..
    } = stmt
    {
        Some((*id, *array))
    } else {
        None
    }
}

/// A dense table over `(row, stage)` pairs; rows are atom positions,
/// loop tags or variables.
pub(crate) struct Grid<T> {
    stages: usize,
    cells: Vec<T>,
}

impl<T: Clone + Default> Grid<T> {
    pub(crate) fn new(rows: usize, stages: u32) -> Grid<T> {
        Grid {
            stages: stages as usize,
            cells: vec![T::default(); rows * stages as usize],
        }
    }
}

impl<T> Index<(usize, u32)> for Grid<T> {
    type Output = T;
    fn index(&self, (row, s): (usize, u32)) -> &T {
        &self.cells[row * self.stages + s as usize]
    }
}

impl<T> IndexMut<(usize, u32)> for Grid<T> {
    fn index_mut(&mut self, (row, s): (usize, u32)) -> &mut T {
        &mut self.cells[row * self.stages + s as usize]
    }
}

/// What the tree says independent of any cut set, indexed densely.
pub(crate) struct Shape {
    /// Atom positions in the tree.
    pub natoms: usize,
    /// Structure tags in the tree.
    pub ntags: usize,
    /// Whether each variable is a parameter.
    param: Vec<bool>,
    /// Loop tag owning each induction variable.
    pub loop_of_var: Vec<Option<usize>>,
    /// Variable each atom defines, by position.
    pub def_var: Vec<Option<VarId>>,
    /// Def positions of variable `v`: `def_pos[def_start[v]..def_start[v + 1]]`.
    def_start: Vec<usize>,
    def_pos: Vec<usize>,
    /// Straight-line group per def position (see [`Shape::new`]); any
    /// other position holds a value no group shares.
    pub group: Vec<usize>,
    /// Arrays some atom stores to.
    written: Vec<bool>,
    /// Every load atom in program order: (load site, position, array).
    pub loads: Vec<(LoadId, usize, ArrayId)>,
}

impl Shape {
    /// Collects the facts of `tree`, built by `tb` from the body of `nf`.
    ///
    /// Groups: consecutive def atoms in the same body (with no
    /// intervening control structure) share a group. Values defined in
    /// one group and consumed by the same stage can share a queue — the
    /// hardware sees them in producer program order either way, and
    /// this is what lets adjacent loads (`nodes[v]`, `nodes[v+1]`) feed a
    /// single reference accelerator.
    pub(crate) fn new(tree: &[Node], tb: &TreeBuilder, nf: &Function) -> Shape {
        let nvars = nf.vars.len();
        let mut shape = Shape {
            natoms: tb.next_pos,
            ntags: tb.next_tag,
            param: vec![false; nvars],
            loop_of_var: vec![None; nvars],
            def_var: vec![None; tb.next_pos],
            def_start: vec![0; nvars + 1],
            def_pos: Vec::new(),
            group: (0..tb.next_pos).map(|pos| usize::MAX - pos).collect(),
            written: vec![false; nf.arrays.len()],
            loads: Vec::new(),
        };
        for p in &nf.params {
            shape.param[p.0 as usize] = true;
        }
        fn walk(nodes: &[Node], shape: &mut Shape, next_group: &mut usize) {
            let mut current: Option<usize> = None;
            for n in nodes {
                match n {
                    Node::Atom { stmt, def, pos } => {
                        if let Some(v) = def {
                            shape.def_var[*pos] = Some(*v);
                            shape.def_start[v.0 as usize + 1] += 1;
                            shape.group[*pos] = *current.get_or_insert_with(|| {
                                *next_group += 1;
                                *next_group - 1
                            });
                        }
                        if let Stmt::Store { array, .. } = stmt {
                            shape.written[array.0 as usize] = true;
                        }
                        if let Some((id, array)) = load_of(stmt) {
                            shape.loads.push((id, *pos, array));
                        }
                    }
                    Node::If { then, els, .. } => {
                        current = None;
                        walk(then, shape, next_group);
                        walk(els, shape, next_group);
                    }
                    Node::For { var, tag, body, .. } => {
                        current = None;
                        shape.loop_of_var[var.0 as usize] = Some(*tag);
                        walk(body, shape, next_group);
                    }
                    Node::While { body, .. } => {
                        current = None;
                        walk(body, shape, next_group);
                    }
                }
            }
        }
        walk(tree, &mut shape, &mut 0);
        for v in 0..nvars {
            shape.def_start[v + 1] += shape.def_start[v];
        }
        let mut fill = shape.def_start.clone();
        shape.def_pos = vec![0; shape.def_start[nvars]];
        for (pos, def) in shape.def_var.iter().enumerate() {
            if let Some(v) = def {
                shape.def_pos[fill[v.0 as usize]] = pos;
                fill[v.0 as usize] += 1;
            }
        }
        shape
    }

    /// Def positions of `v`, in program order (empty: never defined).
    pub(crate) fn defs_of(&self, v: VarId) -> &[usize] {
        let v = v.0 as usize;
        &self.def_pos[self.def_start[v]..self.def_start[v + 1]]
    }

    /// Is `v` free in every stage (a parameter or a loop variable)?
    pub(crate) fn is_free(&self, v: VarId) -> bool {
        self.param[v.0 as usize] || self.loop_of_var[v.0 as usize].is_some()
    }
}

// ---------------------------------------------------------------------
// Stage assignment
// ---------------------------------------------------------------------

struct Stager {
    /// Stage of each atom, by position.
    stage: Vec<u32>,
    /// Stage of each variable's latest def.
    var_stage: Vec<u32>,
    /// Variables free at the current point (parameters and the
    /// induction variables of enclosing loops).
    free: Vec<bool>,
    /// Forced stage per load atom, by position.
    overrides: Vec<Option<u32>>,
    /// Minimum stage for *any* access (loads and stores) to a written
    /// array: all of its accesses must share one stage (Fig. 4).
    array_floor: Vec<u32>,
    /// Whether each load atom is a cut point, by position.
    is_cut: Vec<bool>,
    changed: bool,
    error: Option<CompileError>,
}

impl Stager {
    fn var_stage(&self, v: VarId) -> u32 {
        if self.free[v.0 as usize] {
            0
        } else {
            self.var_stage[v.0 as usize]
        }
    }

    fn leaf_stage(&self, e: &Expr) -> u32 {
        match e {
            Expr::Var(v) => self.var_stage(*v),
            _ => 0,
        }
    }

    fn expr_stage(&self, e: &Expr) -> u32 {
        let mut m = 0;
        e.for_each_var(&mut |v| m = m.max(self.var_stage(v)));
        m
    }

    fn assign(&mut self, nodes: &[Node], ctrl: u32) {
        let mut ctrl_run = ctrl;
        for n in nodes {
            match n {
                Node::Atom { stmt, def, pos } => {
                    let pos = *pos;
                    let dep = match stmt {
                        Stmt::Assign { expr, .. } => self.expr_stage(expr),
                        Stmt::Store { index, value, .. } => {
                            self.expr_stage(index).max(self.expr_stage(value))
                        }
                        _ => 0,
                    };
                    let mut s = dep.max(ctrl_run);
                    if let Stmt::Store { array, .. } = stmt {
                        s = s.max(self.array_floor[array.0 as usize]);
                    }
                    if let (Some((lid, _)), Some(o)) = (load_of(stmt), self.overrides[pos]) {
                        if dep > o || ctrl_run > o {
                            let what = if self.is_cut[pos] {
                                "cut point depends on a later stage"
                            } else {
                                "a read of a written array cannot run \
                                 before the stage that writes it"
                            };
                            self.error
                                .get_or_insert(CompileError::RaceViolation(format!(
                                    "{what} (load {lid:?}: dep stage {dep}, \
                                     ctrl {ctrl_run}, forced {o})"
                                )));
                        }
                        s = s.max(o);
                    }
                    if s > self.stage[pos] {
                        self.stage[pos] = s;
                        self.changed = true;
                    }
                    if let Some(d) = def {
                        let slot = &mut self.var_stage[d.0 as usize];
                        if self.stage[pos] > *slot {
                            *slot = self.stage[pos];
                            self.changed = true;
                        }
                    }
                }
                Node::If {
                    cond,
                    then,
                    els,
                    exit,
                    ..
                } => {
                    let cs = self.leaf_stage(cond);
                    let inner = ctrl_run.max(cs);
                    self.assign(then, inner);
                    self.assign(els, inner);
                    if *exit {
                        // Statements after a loop-exit test are control
                        // dependent on it.
                        ctrl_run = ctrl_run.max(cs);
                    }
                }
                Node::For {
                    var, lo, hi, body, ..
                } => {
                    let bs = self.leaf_stage(lo).max(self.leaf_stage(hi));
                    let v = var.0 as usize;
                    let added = !self.free[v];
                    self.free[v] = true;
                    self.assign(body, ctrl_run.max(bs));
                    if added {
                        self.free[v] = false;
                    }
                }
                Node::While { body, .. } => {
                    self.assign(body, ctrl_run);
                }
            }
        }
    }
}

/// Assigns a stage to every atom of `tree` for the given cut loads
/// (`(load, forced stage)`, adjacency-grouped loads included). Returns
/// the stage of each atom by position and the stage count (before
/// compaction).
pub(crate) fn assign_stages(
    tree: &[Node],
    shape: &Shape,
    cuts: &[(LoadId, u32)],
) -> Result<(Vec<u32>, u32), CompileError> {
    let mut stager = Stager {
        stage: vec![0; shape.natoms],
        var_stage: vec![0; shape.param.len()],
        free: shape.param.clone(),
        overrides: vec![None; shape.natoms],
        array_floor: vec![0; shape.written.len()],
        is_cut: vec![false; shape.natoms],
        changed: true,
        error: None,
    };
    for &(lid, stage) in cuts {
        if let Some(&(_, pos, _)) = shape.loads.iter().find(|(l, _, _)| *l == lid) {
            stager.overrides[pos] = Some(stage);
            stager.is_cut[pos] = true;
        }
    }
    // Latest stage of any access to each written array.
    let mut acc: Vec<Option<u32>> = vec![None; shape.written.len()];
    for _round in 0..24 {
        let mut inner = 0;
        while stager.changed {
            stager.changed = false;
            stager.assign(tree, 0);
            if let Some(e) = stager.error.take() {
                return Err(e);
            }
            inner += 1;
            if inner > 64 {
                return Err(CompileError::Internal("staging did not converge".into()));
            }
        }
        // Written-array grouping (the Fig. 4 race rule): all accesses to
        // a written array land in the stage of its latest access.
        acc.fill(None);
        for_each_atom(tree, &mut |stmt, _, pos| {
            let arr = match stmt {
                Stmt::Store { array, .. } => Some(*array),
                _ => load_of(stmt).map(|(_, array)| array),
            };
            if let Some(a) = arr {
                if shape.written[a.0 as usize] {
                    let e = acc[a.0 as usize].get_or_insert(0);
                    *e = (*e).max(stager.stage[pos]);
                }
            }
        });
        let mut changed = false;
        for &(_, pos, arr) in &shape.loads {
            if let Some(s) = acc[arr.0 as usize] {
                if stager.overrides[pos].unwrap_or(0) < s {
                    stager.overrides[pos] = Some(s);
                    changed = true;
                }
            }
        }
        // Stores must also move up to the group's stage (a cut can pull
        // a load past a store of the same array).
        for (floor, s) in stager.array_floor.iter_mut().zip(&acc) {
            if let Some(s) = *s {
                if *floor < s {
                    *floor = s;
                    changed = true;
                }
            }
        }
        if !changed {
            let nstages = stager.stage.iter().copied().max().unwrap_or(0) + 1;
            return Ok((stager.stage, nstages));
        }
        stager.changed = true;
    }
    Err(CompileError::Internal(
        "write-constraint fixpoint did not converge".into(),
    ))
}

// ---------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------

/// How a loop is realized in one stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LoopMode {
    /// `for` (or `while` + exit test) with locally available bounds.
    Bounds,
    /// `while (true)` terminated by in-band control values.
    Cv,
    /// Not emitted: its single nested stream flows through (pass-6 DCE).
    Transparent,
}

/// The full communication/control plan shared by all stages of one cut
/// set. `(pos, s)` rows are atom positions, `(tag, s)` rows loop tags.
pub(crate) struct Plan<'t> {
    pub shape: &'t Shape,
    /// Stage of each atom, by position.
    pub stage: Vec<u32>,
    /// Right-hand side of each `Assign` def atom, by position.
    pub def_expr: Vec<Option<&'t Expr>>,
    /// Communicated pairs `(def pos, consumer stage) -> queue`.
    pub comm: Grid<Option<QueueId>>,
    /// Recomputed pairs `(def pos, consumer stage)`.
    pub recomp: Grid<bool>,
    /// Stages using each var (data + structural uses): `(var, stage)`.
    pub uses: Grid<bool>,
    /// Loop mode per (loop tag, stage); present loops only.
    pub modes: Grid<Option<LoopMode>>,
    /// Consumers that need the end-of-loop CV: (loop tag, stage).
    pub need_next: Grid<bool>,
    /// Dropped filter-ifs: (if tag, stage).
    pub dropped: Grid<bool>,
    /// Carrier def position per (CV loop tag, consumer stage).
    pub carrier_pos: Grid<Option<usize>>,
    /// The def position whose queue delivers DONE, per consumer stage.
    pub done_carrier: Vec<Option<usize>>,
    /// NEXT duties: (loop tag, producer stage) -> [(carrier def pos, consumer)].
    pub next_duties: Grid<Vec<(usize, u32)>>,
    /// DONE duties: producer stage -> [(carrier def pos, consumer)].
    pub done_duties: Vec<Vec<(usize, u32)>>,
    /// Number of stages (before compaction).
    pub nstages: u32,
    /// Pass switches.
    pub passes: PassConfig,
}

impl Plan<'_> {
    pub fn is_comm(&self, pos: usize, s: u32) -> bool {
        self.comm[(pos, s)].is_some()
    }

    pub fn queue(&self, pos: usize, s: u32) -> QueueId {
        self.comm[(pos, s)].expect("a planned queue")
    }

    pub fn uses(&self, v: VarId, s: u32) -> bool {
        self.uses[(v.0 as usize, s)]
    }

    fn add_use(&mut self, v: VarId, s: u32) {
        self.uses[(v.0 as usize, s)] = true;
    }

    pub fn mode(&self, tag: usize, s: u32) -> Option<LoopMode> {
        self.modes[(tag, s)]
    }

    /// Does `pos`'s queue carry loop `tag`'s end-of-loop CV to stage `s`?
    pub fn carries(&self, tag: usize, s: u32, pos: usize) -> bool {
        self.carrier_pos[(tag, s)] == Some(pos)
    }
}

fn leaf_var(e: &Expr) -> Option<VarId> {
    if let Expr::Var(v) = e {
        Some(*v)
    } else {
        None
    }
}

/// Is this atom emitted for stage `s` (given current uses)?
fn atom_present(plan: &Plan, pos: usize, def: Option<VarId>, s: u32) -> bool {
    plan.stage[pos] == s || def.is_some_and(|v| plan.uses(v, s))
}

pub(crate) fn node_present(plan: &Plan, n: &Node, s: u32) -> bool {
    match n {
        Node::Atom { stmt, def, pos } => {
            if matches!(stmt, Stmt::Break { .. }) {
                return false; // skeleton; emitted with its exit-if
            }
            atom_present(plan, *pos, *def, s)
        }
        Node::If {
            then, els, exit, ..
        } => {
            if *exit {
                // Exit tests are skeleton: present wherever the loop is.
                return false;
            }
            then.iter().any(|c| node_present(plan, c, s))
                || els.iter().any(|c| node_present(plan, c, s))
        }
        Node::For { body, .. } | Node::While { body, .. } => {
            body.iter().any(|c| node_present(plan, c, s))
        }
    }
}

/// All defs of `v` are available at stage `s` without a queue or with one
/// that is already planned (preliminary version used during planning:
/// a def is local only if its stage is `s`).
fn var_local(plan: &Plan, v: VarId, s: u32) -> bool {
    // A variable never defined is an implicit zero everywhere.
    plan.shape.is_free(v) || plan.shape.defs_of(v).iter().all(|&p| plan.stage[p] == s)
}

/// First def position inside a subtree whose value stage `s` consumes.
fn first_use_inside(plan: &Plan, nodes: &[Node], s: u32) -> Option<usize> {
    let mut best: Option<usize> = None;
    for_each_atom(nodes, &mut |_, def, pos| {
        if let Some(v) = def {
            if plan.stage[pos] != s && plan.uses(v, s) && best.map(|b| pos < b).unwrap_or(true) {
                best = Some(pos);
            }
        }
    });
    best
}

/// The only direct child of `body` present in stage `s`, if exactly one is.
fn sole_present<'n>(plan: &Plan, body: &'n [Node], s: u32) -> Option<&'n Node> {
    let mut present = body.iter().filter(|c| node_present(plan, c, s));
    let first = present.next();
    first.filter(|_| present.next().is_none())
}

/// Visits a loop's bound variables: a `for`'s leaf bounds, or the
/// conditions of a `while`'s exit tests.
fn for_each_bound_var(node: &Node, f: &mut impl FnMut(VarId)) {
    match node {
        Node::For { lo, hi, .. } => {
            leaf_var(lo).into_iter().chain(leaf_var(hi)).for_each(f);
        }
        Node::While { body, .. } => {
            for n in body {
                if let Node::If {
                    cond, exit: true, ..
                } = n
                {
                    leaf_var(cond).into_iter().for_each(&mut *f);
                }
            }
        }
        _ => {}
    }
}

pub(crate) struct Planner<'t> {
    pub tree: &'t [Node],
    pub plan: Plan<'t>,
    /// Forced queue pairs `(def pos, stage)` (carriers must never be
    /// recomputed).
    pub forced_comm: Grid<bool>,
    /// Loops that must stay emitted for a stage (producer duties):
    /// `(tag, stage)`.
    pub force_emit: Grid<bool>,
    pub error: Option<CompileError>,
}

impl<'t> Planner<'t> {
    /// Effective "stream" mode of a loop for stage `s` (resolving
    /// transparent chains).
    fn streamy(&self, n: &Node, s: u32) -> bool {
        let Some(tag) = n.tag() else { return false };
        match self.plan.mode(tag, s) {
            Some(LoopMode::Cv) => true,
            Some(LoopMode::Transparent) => {
                let body = match n {
                    Node::For { body, .. } | Node::While { body, .. } => body,
                    _ => return false,
                };
                body.iter()
                    .filter(|c| node_present(&self.plan, c, s))
                    .all(|c| self.streamy(c, s))
            }
            _ => false,
        }
    }

    /// Plans structures in `nodes` for stage `s`, innermost-first.
    fn plan_body(&mut self, nodes: &'t [Node], s: u32) {
        for n in nodes {
            match n {
                Node::Atom { .. } => {}
                Node::If { then, els, .. } => {
                    self.plan_body(then, s);
                    self.plan_body(els, s);
                }
                Node::For { body, .. } | Node::While { body, .. } => {
                    if node_present(&self.plan, n, s) {
                        self.plan_loop(n, body, s);
                    }
                }
            }
        }
    }

    fn register_if_conds(&mut self, nodes: &'t [Node], s: u32) {
        // Register condition uses for all *kept* present ifs in this
        // subtree (dropped ifs were excluded before this call).
        for n in nodes {
            if let Node::If {
                tag,
                cond,
                then,
                els,
                exit,
                ..
            } = n
            {
                if !exit && !self.plan.dropped[(*tag, s)] && node_present(&self.plan, n, s) {
                    if let Some(v) = leaf_var(cond) {
                        if !var_local(&self.plan, v, s) {
                            self.plan.add_use(v, s);
                        }
                    }
                }
                self.register_if_conds(then, s);
                self.register_if_conds(els, s);
            }
        }
    }

    fn plan_loop(&mut self, node: &'t Node, body: &'t [Node], s: u32) {
        // Children first.
        self.plan_body(body, s);

        let Some(tag) = node.tag() else {
            self.error.get_or_insert(CompileError::Internal(
                "loop node without a structure tag".into(),
            ));
            return;
        };
        let passes = self.plan.passes;

        // Does stage `s` read this loop's induction variable (directly,
        // or via a def it may recompute locally)? CV mode loses the
        // induction variable, so such loops must keep `for` structure.
        // Only atoms the stage *owns* need the variable; values it
        // consumes arrive via queues (loop-var-reading defs are never
        // recomputed cross-stage, see `partition_comm`).
        let needs_var = match node {
            Node::For { var, .. } => {
                let mut found = false;
                for_each_atom(body, &mut |stmt, _, pos| {
                    found |= self.plan.stage[pos] == s && stmt.header_reads_var(*var);
                });
                found
            }
            _ => false,
        };

        // The sole present direct child, if there is exactly one.
        let sole = sole_present(&self.plan, body, s);

        // Transparency (pass 6): the loop's only content for `s` is a
        // single nested stream.
        if passes.isdce
            && !needs_var
            && !self.force_emit[(tag, s)]
            && sole.is_some_and(|c| c.is_loop() && self.streamy(c, s))
        {
            self.plan.modes[(tag, s)] = Some(LoopMode::Transparent);
            return;
        }

        // Drop-if (filter pattern): sole present child is an if whose
        // condition lives upstream.
        let mut force_cv = false;
        if passes.use_cv {
            if let Some(Node::If {
                tag: if_tag,
                cond,
                els,
                exit: false,
                ..
            }) = sole
            {
                let cond_nonlocal = leaf_var(cond)
                    .map(|v| !var_local(&self.plan, v, s))
                    .unwrap_or(false);
                let els_present = els.iter().any(|c| node_present(&self.plan, c, s));
                if cond_nonlocal && !els_present {
                    self.plan.dropped[(*if_tag, s)] = true;
                    force_cv = true;
                }
            }
        }

        // Register kept-if condition uses inside this loop body (direct
        // and nested ifs not owned by deeper loops are all handled when
        // their innermost enclosing loop is planned; to keep it simple we
        // register for the whole subtree minus nested loops' bodies —
        // registering twice is harmless since `uses` is a set).
        self.register_if_conds(body, s);

        // Loop bound (or while-exit condition) variables.
        let mut bounds_local = true;
        for_each_bound_var(node, &mut |v| bounds_local &= var_local(&self.plan, v, s));

        // Stream-consumer mode: a stage that consumes values prefers CV
        // termination even with a locally known trip count (needed
        // upstream of distribute boundaries).
        let force_stream = passes.stream_consumers
            && passes.use_cv
            && !needs_var
            && first_use_inside(&self.plan, body, s).is_some();
        if bounds_local && !force_cv && !force_stream {
            self.plan.modes[(tag, s)] = Some(LoopMode::Bounds);
            return;
        }

        // CV mode if allowed and a carrier stream exists.
        if passes.use_cv && !needs_var {
            if let Some(carrier) = first_use_inside(&self.plan, body, s) {
                self.plan.modes[(tag, s)] = Some(LoopMode::Cv);
                self.forced_comm[(carrier, s)] = true;
                self.plan.carrier_pos[(tag, s)] = Some(carrier);
                return;
            }
        }
        if force_cv {
            self.error.get_or_insert(CompileError::Internal(
                "drop-if without a carrier stream".into(),
            ));
        }

        // Fall back to communicated bounds.
        let plan = &mut self.plan;
        for_each_bound_var(node, &mut |v| {
            if !var_local(plan, v, s) {
                plan.add_use(v, s);
            }
        });
        self.plan.modes[(tag, s)] = Some(LoopMode::Bounds);
    }

    /// Phase B for stage `s`: NEXT/DONE needs and producer duties.
    fn plan_ctrl(&mut self, nodes: &'t [Node], s: u32, enclosing_emitted: bool) {
        for n in nodes {
            match n {
                Node::Atom { .. } => {}
                Node::If { then, els, .. } => {
                    self.plan_ctrl(then, s, enclosing_emitted);
                    self.plan_ctrl(els, s, enclosing_emitted);
                }
                Node::For { tag, body, .. } | Node::While { tag, body, .. } => {
                    if !node_present(&self.plan, n, s) {
                        continue;
                    }
                    match self.plan.mode(*tag, s) {
                        Some(LoopMode::Transparent) => {
                            self.plan_ctrl(body, s, enclosing_emitted);
                        }
                        Some(LoopMode::Cv) => {
                            if enclosing_emitted {
                                self.plan.need_next[(*tag, s)] = true;
                            }
                            self.plan_ctrl(body, s, true);
                        }
                        _ => {
                            self.plan_ctrl(body, s, true);
                        }
                    }
                }
            }
        }
    }

    /// Determines DONE routing for stage `s` and registers NEXT/DONE
    /// duties on the producers of the relevant carrier queues.
    fn finish_stage(&mut self, s: u32) {
        // DONE need: the outermost emitted structure is a CV loop; DONE
        // arrives on *that* loop's carrier (where the stage blocks after
        // all inner streams drained).
        let mut cur: &[Node] = self.tree;
        while let Some(first) = cur
            .iter()
            .find(|n| n.is_loop() && node_present(&self.plan, n, s))
        {
            let Some(tag) = first.tag() else {
                self.error.get_or_insert(CompileError::Internal(
                    "loop node without a structure tag".into(),
                ));
                return;
            };
            match self.plan.mode(tag, s) {
                Some(LoopMode::Transparent) => {
                    cur = match first {
                        Node::For { body, .. } | Node::While { body, .. } => body,
                        _ => unreachable!(),
                    };
                }
                Some(LoopMode::Cv) => {
                    let Some(pos) = self.plan.carrier_pos[(tag, s)] else {
                        self.error.get_or_insert(CompileError::Internal(
                            "CV-mode loop without a carrier stream".into(),
                        ));
                        return;
                    };
                    self.plan.done_carrier[s as usize] = Some(pos);
                    break;
                }
                _ => break,
            }
        }

        // Register duties on producers.
        if let Some(pos) = self.plan.done_carrier[s as usize] {
            if self.plan.shape.def_var[pos].is_none() {
                self.error.get_or_insert(CompileError::Internal(
                    "carrier position has no defining atom".into(),
                ));
                return;
            }
            let producer = self.plan.stage[pos];
            self.plan.done_duties[producer as usize].push((pos, s));
        }
        for tag in 0..self.plan.shape.ntags {
            if !self.plan.need_next[(tag, s)] {
                continue;
            }
            let Some(pos) = self.plan.carrier_pos[(tag, s)] else {
                self.error.get_or_insert(CompileError::Internal(
                    "NEXT-needing loop without a carrier stream".into(),
                ));
                return;
            };
            if self.plan.shape.def_var[pos].is_none() {
                self.error.get_or_insert(CompileError::Internal(
                    "carrier position has no defining atom".into(),
                ));
                return;
            }
            let producer = self.plan.stage[pos];
            self.plan.next_duties[(tag, producer)].push((pos, s));
            self.force_emit[(tag, producer)] = true;
        }
    }
}

/// Runs planning over all stages; fills everything in [`Plan`] except
/// the final comm/recompute partition and queue ids (see
/// [`partition_comm`]). Returns the plan and the forced queue pairs.
pub(crate) fn plan<'t>(
    tree: &'t [Node],
    shape: &'t Shape,
    stage: Vec<u32>,
    nstages: u32,
    passes: PassConfig,
) -> Result<(Plan<'t>, Grid<bool>), CompileError> {
    let (natoms, ntags) = (shape.natoms, shape.ntags);
    let mut plan = Plan {
        shape,
        stage,
        def_expr: vec![None; natoms],
        comm: Grid::new(natoms, nstages),
        recomp: Grid::new(natoms, nstages),
        uses: Grid::new(shape.param.len(), nstages),
        modes: Grid::new(ntags, nstages),
        need_next: Grid::new(ntags, nstages),
        dropped: Grid::new(ntags, nstages),
        carrier_pos: Grid::new(ntags, nstages),
        done_carrier: vec![None; nstages as usize],
        next_duties: Grid::new(ntags, nstages),
        done_duties: vec![Vec::new(); nstages as usize],
        nstages,
        passes,
    };
    // Def expressions and data uses: a stage reads a variable that has
    // a def in another stage.
    for_each_atom(tree, &mut |stmt, def, pos| {
        if let (Some(_), Stmt::Assign { expr, .. }) = (def, stmt) {
            plan.def_expr[pos] = Some(expr);
        }
        let s = plan.stage[pos];
        stmt.for_each_header_read(&mut |r| {
            if !shape.is_free(r) && shape.defs_of(r).iter().any(|&p| plan.stage[p] != s) {
                plan.add_use(r, s);
            }
        });
    });

    let mut planner = Planner {
        tree,
        plan,
        forced_comm: Grid::new(natoms, nstages),
        force_emit: Grid::new(ntags, nstages),
        error: None,
    };
    for s in (0..nstages).rev() {
        planner.plan_body(tree, s);
        planner.plan_ctrl(tree, s, false);
        planner.finish_stage(s);
        if let Some(e) = planner.error.take() {
            return Err(e);
        }
    }
    Ok((planner.plan, planner.forced_comm))
}

/// Partitions uses into queues vs. recomputation (pass 2) and assigns
/// queue ids, merging same-group same-stage defs bound for the same
/// consumer into one queue.
pub(crate) fn partition_comm(
    plan: &mut Plan,
    forced: &Grid<bool>,
    max_queues: u16,
) -> Result<(), CompileError> {
    let shape = plan.shape;
    let recompute_on = plan.passes.recompute;
    let mut decided_comm: Grid<bool> = Grid::new(shape.natoms, plan.nstages);
    let mut decided_recomp: Grid<bool> = Grid::new(shape.natoms, plan.nstages);

    for pos in 0..shape.natoms {
        let Some(var) = shape.def_var[pos] else {
            continue;
        };
        let expr = plan.def_expr[pos];
        let producer = plan.stage[pos];
        for s in 0..plan.nstages {
            if s == producer || !plan.uses(var, s) {
                continue;
            }
            let can_recompute = recompute_on
                && !forced[(pos, s)]
                && match expr {
                    Some(e) if !matches!(e, Expr::Load { .. }) => {
                        let mut ok = true;
                        e.for_each_var(&mut |v| {
                            // Loop-variable-derived values may only be
                            // rematerialized where the consumer emits
                            // that loop with counted (`for`) structure
                            // — CV streams lose induction variables.
                            ok &= shape.loop_of_var[v.0 as usize]
                                .is_none_or(|tag| plan.mode(tag, s) == Some(LoopMode::Bounds));
                            ok &= shape.is_free(v)
                                || shape.defs_of(v).iter().all(|&p2| {
                                    plan.stage[p2] == s
                                        || decided_comm[(p2, s)]
                                        || decided_recomp[(p2, s)]
                                });
                        });
                        ok
                    }
                    _ => false,
                };
            if can_recompute {
                decided_recomp[(pos, s)] = true;
            } else {
                // Loop-carried values (accumulators: the def reads its
                // own variable) cannot be streamed — communicating one
                // per iteration serializes the stages on the reduction
                // chain and doubles traffic (e.g. SDDMM's dense dot
                // product). Reject the cut set; the search falls back.
                let mut self_carried = false;
                if let Some(e) = expr {
                    e.for_each_var(&mut |v| self_carried |= v == var);
                }
                if self_carried {
                    return Err(CompileError::Unsupported(format!(
                        "cut would stream the loop-carried value `{}`                          across stages",
                        var.0
                    )));
                }
                decided_comm[(pos, s)] = true;
            }
        }
    }
    // Assign queue ids, sharing one queue among a straight-line group's
    // defs (same producer stage) bound for the same consumer.
    let mut queue_of: Vec<((usize, u32, u32), QueueId)> = Vec::new();
    for pos in 0..shape.natoms {
        for consumer in 0..plan.nstages {
            if !decided_comm[(pos, consumer)] {
                continue;
            }
            let key = (shape.group[pos], plan.stage[pos], consumer);
            let q = match queue_of.iter().find(|(k, _)| *k == key) {
                Some(&(_, q)) => q,
                None => {
                    let q = QueueId(queue_of.len() as u16);
                    queue_of.push((key, q));
                    q
                }
            };
            plan.comm[(pos, consumer)] = Some(q);
        }
    }
    if queue_of.len() > max_queues as usize {
        return Err(CompileError::TooManyQueues(
            queue_of.len(),
            max_queues as usize,
        ));
    }
    plan.recomp = decided_recomp;
    Ok(())
}
