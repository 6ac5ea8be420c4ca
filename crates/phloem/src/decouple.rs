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

use crate::options::{CompileError, PassConfig};
use phloem_ir::{ArrayId, BranchId, Expr, LoadId, QueueId, Stmt, VarId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Control value tag signalling end-of-pipeline.
pub const DONE: u32 = 0;

/// Control value tag for the end of loop `tag` (one per loop site).
pub fn next_tag(loop_tag: usize) -> u32 {
    1 + loop_tag as u32
}

/// The decoupled program tree with stage annotations.
#[derive(Debug)]
pub(crate) enum Node {
    Atom {
        stmt: Stmt,
        stage: u32,
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
    next_tag: usize,
    next_pos: usize,
}

impl TreeBuilder {
    pub(crate) fn build(&mut self, stmts: &[Stmt]) -> Result<Vec<Node>, CompileError> {
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
                        .chain(else_body)
                        .any(|s| matches!(s, Stmt::Break { .. }));
                    let tag = self.next_tag;
                    self.next_tag += 1;
                    out.push(Node::If {
                        tag,
                        id: *id,
                        cond: cond.clone(),
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
                        id: *id,
                        var: *var,
                        lo: start.clone(),
                        hi: end.clone(),
                        body: self.build(body)?,
                    });
                }
                Stmt::While { id, body, .. } => {
                    let tag = self.next_tag;
                    self.next_tag += 1;
                    out.push(Node::While {
                        tag,
                        id: *id,
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
                        stmt: other.clone(),
                        stage: 0,
                        def: other.write(),
                        pos,
                    });
                }
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Stage assignment
// ---------------------------------------------------------------------

struct Stager {
    var_stage: HashMap<VarId, u32>,
    free: HashSet<VarId>,
    overrides: HashMap<LoadId, u32>,
    /// Minimum stage for *any* access (loads and stores) to a written
    /// array: all of its accesses must share one stage (Fig. 4).
    array_floor: HashMap<ArrayId, u32>,
    is_cut: HashSet<LoadId>,
    changed: bool,
    error: Option<CompileError>,
}

impl Stager {
    fn leaf_stage(&self, e: &Expr) -> u32 {
        match e {
            Expr::Var(v) if !self.free.contains(v) => self.var_stage.get(v).copied().unwrap_or(0),
            _ => 0,
        }
    }

    fn expr_stage(&self, e: &Expr) -> u32 {
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        vars.iter()
            .filter(|v| !self.free.contains(v))
            .map(|v| self.var_stage.get(v).copied().unwrap_or(0))
            .max()
            .unwrap_or(0)
    }

    fn load_of(stmt: &Stmt) -> Option<LoadId> {
        if let Stmt::Assign {
            expr: Expr::Load { id, .. },
            ..
        } = stmt
        {
            Some(*id)
        } else {
            None
        }
    }

    fn assign(&mut self, nodes: &mut [Node], ctrl: u32) {
        let mut ctrl_run = ctrl;
        for n in nodes {
            match n {
                Node::Atom {
                    stmt, stage, def, ..
                } => {
                    let dep = match stmt {
                        Stmt::Assign { expr, .. } => self.expr_stage(expr),
                        Stmt::Store { index, value, .. } => {
                            self.expr_stage(index).max(self.expr_stage(value))
                        }
                        _ => 0,
                    };
                    let mut s = dep.max(ctrl_run);
                    if let Stmt::Store { array, .. } = stmt {
                        if let Some(&f) = self.array_floor.get(array) {
                            s = s.max(f);
                        }
                    }
                    if let Some(lid) = Self::load_of(stmt) {
                        if let Some(&o) = self.overrides.get(&lid) {
                            if dep > o || ctrl_run > o {
                                let what = if self.is_cut.contains(&lid) {
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
                    }
                    if s > *stage {
                        *stage = s;
                        self.changed = true;
                    }
                    if let Some(d) = def {
                        let prev = self.var_stage.get(d).copied().unwrap_or(0);
                        let newv = prev.max(*stage);
                        if prev != newv || !self.var_stage.contains_key(d) {
                            self.var_stage.insert(*d, newv);
                            if prev != newv {
                                self.changed = true;
                            }
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
                    let added = self.free.insert(*var);
                    self.assign(body, ctrl_run.max(bs));
                    if added {
                        self.free.remove(var);
                    }
                }
                Node::While { body, .. } => {
                    self.assign(body, ctrl_run);
                }
            }
        }
    }
}

fn for_each_atom<'a>(nodes: &'a [Node], f: &mut impl FnMut(&'a Node)) {
    for n in nodes {
        match n {
            Node::Atom { .. } => f(n),
            Node::If { then, els, .. } => {
                for_each_atom(then, f);
                for_each_atom(els, f);
            }
            Node::For { body, .. } | Node::While { body, .. } => for_each_atom(body, f),
        }
    }
}

pub(crate) fn max_stage(nodes: &[Node]) -> u32 {
    let mut m = 0;
    for_each_atom(nodes, &mut |n| {
        if let Node::Atom { stage, .. } = n {
            m = m.max(*stage);
        }
    });
    m
}

/// Assigns stages in place; returns the stage count (before compaction).
pub(crate) fn assign_stages(
    tree: &mut [Node],
    params: &[VarId],
    cuts: &[(LoadId, u32)],
) -> Result<u32, CompileError> {
    let mut written = HashSet::new();
    for_each_atom(tree, &mut |n| {
        if let Node::Atom {
            stmt: Stmt::Store { array, .. },
            ..
        } = n
        {
            written.insert(*array);
        }
    });
    let mut all_loads: Vec<(LoadId, ArrayId)> = Vec::new();
    for_each_atom(tree, &mut |n| {
        if let Node::Atom {
            stmt:
                Stmt::Assign {
                    expr: Expr::Load { id, array, .. },
                    ..
                },
            ..
        } = n
        {
            all_loads.push((*id, *array));
        }
    });

    let mut stager = Stager {
        var_stage: HashMap::new(),
        free: params.iter().copied().collect(),
        overrides: cuts.iter().copied().collect(),
        array_floor: HashMap::new(),
        is_cut: cuts.iter().map(|(l, _)| *l).collect(),
        changed: true,
        error: None,
    };
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
        let mut acc: HashMap<ArrayId, u32> = HashMap::new();
        for_each_atom(tree, &mut |n| {
            if let Node::Atom { stmt, stage, .. } = n {
                let arr = match stmt {
                    Stmt::Store { array, .. } => Some(*array),
                    Stmt::Assign {
                        expr: Expr::Load { array, .. },
                        ..
                    } => Some(*array),
                    _ => None,
                };
                if let Some(a) = arr {
                    if written.contains(&a) {
                        let e = acc.entry(a).or_insert(0);
                        *e = (*e).max(*stage);
                    }
                }
            }
        });
        let mut changed = false;
        for &(lid, arr) in &all_loads {
            if let Some(&s) = acc.get(&arr) {
                let cur = stager.overrides.get(&lid).copied().unwrap_or(0);
                if cur < s {
                    stager.overrides.insert(lid, s);
                    changed = true;
                }
            }
        }
        // Stores must also move up to the group's stage (a cut can pull
        // a load past a store of the same array).
        for (&arr, &s) in &acc {
            let cur = stager.array_floor.get(&arr).copied().unwrap_or(0);
            if cur < s {
                stager.array_floor.insert(arr, s);
                changed = true;
            }
        }
        if !changed {
            return Ok(max_stage(tree) + 1);
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

/// Per-def-atom information.
#[derive(Clone, Debug)]
pub(crate) struct DefInfo {
    pub var: VarId,
    pub stage: u32,
    pub expr: Option<Expr>,
}

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

/// The full communication/control plan shared by all stages.
#[derive(Debug, Default)]
pub(crate) struct Plan {
    /// Communicated pairs `(def pos, consumer stage) -> queue`.
    pub comm: BTreeMap<(usize, u32), QueueId>,
    /// Recomputed pairs `(def pos, consumer stage)`.
    pub recomp: BTreeSet<(usize, u32)>,
    /// Def atoms by position.
    pub defs: BTreeMap<usize, DefInfo>,
    /// Def positions of each var.
    pub defs_of_var: BTreeMap<VarId, Vec<usize>>,
    /// Stages using each var (data + structural uses).
    pub uses: BTreeMap<VarId, BTreeSet<u32>>,
    /// Loop mode per (loop tag, stage); present loops only.
    pub modes: HashMap<(usize, u32), LoopMode>,
    /// Consumers that need the end-of-loop CV: (loop tag, stage).
    pub need_next: BTreeSet<(usize, u32)>,
    /// Dropped filter-ifs: (if tag, stage).
    pub dropped: BTreeSet<(usize, u32)>,
    /// Carrier def position per (CV loop tag, consumer stage).
    pub carrier_pos: HashMap<(usize, u32), usize>,
    /// The def position whose queue delivers DONE, per consumer stage.
    pub done_carrier: HashMap<u32, usize>,
    /// Stages whose outermost emitted loop is CV (they end on DONE).
    pub done_need: BTreeSet<u32>,
    /// NEXT duties: (loop tag, producer stage) -> [(carrier def pos, consumer)].
    pub next_duties: BTreeMap<(usize, u32), Vec<(usize, u32)>>,
    /// DONE duties: producer stage -> [(carrier def pos, consumer)].
    pub done_duties: BTreeMap<u32, Vec<(usize, u32)>>,
    /// Free variables (params; loop vars are handled structurally).
    pub free: HashSet<VarId>,
    /// Loop variables (local to every participant of their loop).
    pub loop_vars: HashSet<VarId>,
    /// Loop tag owning each induction variable.
    pub loop_of_var: HashMap<VarId, usize>,
    /// Number of stages (before compaction; used by diagnostics).
    #[allow(dead_code)]
    pub nstages: u32,
    /// Pass switches.
    pub passes: PassConfig,
}

impl Plan {
    pub fn is_comm(&self, pos: usize, s: u32) -> bool {
        self.comm.contains_key(&(pos, s))
    }

    pub fn queue(&self, pos: usize, s: u32) -> QueueId {
        self.comm[&(pos, s)]
    }

    /// Is var `v` free (param or loop variable)?
    pub fn is_free(&self, v: VarId) -> bool {
        self.free.contains(&v) || self.loop_vars.contains(&v)
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
fn atom_present(plan: &Plan, stage: u32, def: Option<VarId>, s: u32) -> bool {
    if stage == s {
        return true;
    }
    if let Some(v) = def {
        return plan.uses.get(&v).map(|u| u.contains(&s)).unwrap_or(false);
    }
    false
}

pub(crate) fn node_present(plan: &Plan, n: &Node, s: u32) -> bool {
    match n {
        Node::Atom {
            stage, def, stmt, ..
        } => {
            if matches!(stmt, Stmt::Break { .. }) {
                return false; // skeleton; emitted with its exit-if
            }
            atom_present(plan, *stage, *def, s)
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
    if plan.is_free(v) {
        return true;
    }
    match plan.defs_of_var.get(&v) {
        None => true, // never defined: implicit zero everywhere
        Some(ds) => ds.iter().all(|p| plan.defs[p].stage == s),
    }
}

/// First def position inside a subtree whose value stage `s` consumes.
fn first_use_inside(plan: &Plan, nodes: &[Node], s: u32) -> Option<usize> {
    let mut best: Option<usize> = None;
    for_each_atom(nodes, &mut |n| {
        if let Node::Atom {
            def: Some(v),
            pos,
            stage,
            ..
        } = n
        {
            if *stage != s
                && plan.uses.get(v).map(|u| u.contains(&s)).unwrap_or(false)
                && best.map(|b| *pos < b).unwrap_or(true)
            {
                best = Some(*pos);
            }
        }
    });
    best
}

pub(crate) struct Planner<'t> {
    pub tree: &'t [Node],
    pub plan: Plan,
    /// Forced queue pairs (carriers must never be recomputed).
    pub forced_comm: BTreeSet<(usize, u32)>,
    /// Loops that must stay emitted for a stage (producer duties).
    pub force_emit: BTreeSet<(usize, u32)>,
    pub error: Option<CompileError>,
}

impl<'t> Planner<'t> {
    /// Effective "stream" mode of a loop for stage `s` (resolving
    /// transparent chains).
    fn streamy(&self, n: &Node, s: u32) -> bool {
        let Some(tag) = n.tag() else { return false };
        match self.plan.modes.get(&(tag, s)) {
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
    /// `direct_loop: true` when `nodes` is a loop body whose direct
    /// children are eligible for drop-if.
    fn plan_body(&mut self, nodes: &'t [Node], s: u32) {
        for n in nodes {
            match n {
                Node::Atom { .. } => {}
                Node::If {
                    then, els, exit, ..
                } => {
                    self.plan_body(then, s);
                    self.plan_body(els, s);
                    let _ = exit;
                }
                Node::For { body, .. } | Node::While { body, .. } => {
                    if node_present(&self.plan, n, s) {
                        self.plan_loop(n, body, s);
                    }
                }
            }
        }
    }

    fn exit_cond_vars(body: &[Node]) -> Vec<VarId> {
        body.iter()
            .filter_map(|n| match n {
                Node::If {
                    cond, exit: true, ..
                } => leaf_var(cond),
                _ => None,
            })
            .collect()
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
                if !exit
                    && !self.plan.dropped.contains(&(*tag, s))
                    && node_present(&self.plan, n, s)
                {
                    if let Some(v) = leaf_var(cond) {
                        if !var_local(&self.plan, v, s) {
                            self.plan.uses.entry(v).or_default().insert(s);
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
        let needs_var = match node {
            Node::For { var, .. } => {
                let mut found = false;
                fn scan(nodes: &[Node], var: VarId, s: u32, found: &mut bool) {
                    for n in nodes {
                        match n {
                            Node::Atom { stmt, stage, .. } => {
                                // Only atoms the stage *owns* need the
                                // variable; values it consumes arrive via
                                // queues (loop-var-reading defs are never
                                // recomputed cross-stage, see
                                // `partition_comm`).
                                if *stage == s && stmt.header_reads().contains(&var) {
                                    *found = true;
                                }
                            }
                            Node::If { then, els, .. } => {
                                scan(then, var, s, found);
                                scan(els, var, s, found);
                            }
                            Node::For { body, .. } | Node::While { body, .. } => {
                                scan(body, var, s, found)
                            }
                        }
                    }
                }
                scan(body, *var, s, &mut found);
                found
            }
            _ => false,
        };

        // Present direct children.
        let present: Vec<&Node> = body
            .iter()
            .filter(|c| node_present(&self.plan, c, s))
            .collect();

        // Transparency (pass 6): the loop's only content for `s` is a
        // single nested stream.
        if passes.isdce
            && !needs_var
            && !self.force_emit.contains(&(tag, s))
            && present.len() == 1
            && present[0].is_loop()
            && self.streamy(present[0], s)
        {
            self.plan.modes.insert((tag, s), LoopMode::Transparent);
            return;
        }

        // Drop-if (filter pattern): sole present child is an if whose
        // condition lives upstream.
        let mut force_cv = false;
        if passes.use_cv && present.len() == 1 {
            if let Node::If {
                tag: if_tag,
                cond,
                els,
                exit: false,
                ..
            } = present[0]
            {
                let cond_nonlocal = leaf_var(cond)
                    .map(|v| !var_local(&self.plan, v, s))
                    .unwrap_or(false);
                let els_present = els.iter().any(|c| node_present(&self.plan, c, s));
                if cond_nonlocal && !els_present {
                    self.plan.dropped.insert((*if_tag, s));
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
        let bound_vars: Vec<VarId> = match node {
            Node::For { lo, hi, .. } => {
                [leaf_var(lo), leaf_var(hi)].into_iter().flatten().collect()
            }
            Node::While { .. } => Self::exit_cond_vars(body),
            _ => unreachable!(),
        };
        let bounds_local = bound_vars.iter().all(|v| var_local(&self.plan, *v, s));

        // Stream-consumer mode: a stage that consumes values prefers CV
        // termination even with a locally known trip count (needed
        // upstream of distribute boundaries).
        let force_stream = passes.stream_consumers
            && passes.use_cv
            && !needs_var
            && first_use_inside(&self.plan, body, s).is_some();
        if bounds_local && !force_cv && !force_stream {
            self.plan.modes.insert((tag, s), LoopMode::Bounds);
            return;
        }

        // CV mode if allowed and a carrier stream exists.
        if passes.use_cv && !needs_var {
            if let Some(carrier) = first_use_inside(&self.plan, body, s) {
                self.plan.modes.insert((tag, s), LoopMode::Cv);
                self.forced_comm.insert((carrier, s));
                self.plan.carrier_pos.insert((tag, s), carrier);
                return;
            }
        }
        if force_cv {
            self.error.get_or_insert(CompileError::Internal(
                "drop-if without a carrier stream".into(),
            ));
        }

        // Fall back to communicated bounds.
        for v in &bound_vars {
            if !var_local(&self.plan, *v, s) {
                self.plan.uses.entry(*v).or_default().insert(s);
            }
        }
        self.plan.modes.insert((tag, s), LoopMode::Bounds);
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
                    match self.plan.modes.get(&(*tag, s)) {
                        Some(LoopMode::Transparent) => {
                            self.plan_ctrl(body, s, enclosing_emitted);
                        }
                        Some(LoopMode::Cv) => {
                            if enclosing_emitted {
                                self.plan.need_next.insert((*tag, s));
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
            match self.plan.modes.get(&(tag, s)) {
                Some(LoopMode::Transparent) => {
                    cur = match first {
                        Node::For { body, .. } | Node::While { body, .. } => body,
                        _ => unreachable!(),
                    };
                }
                Some(LoopMode::Cv) => {
                    self.plan.done_need.insert(s);
                    let Some(&pos) = self.plan.carrier_pos.get(&(tag, s)) else {
                        self.error.get_or_insert(CompileError::Internal(
                            "CV-mode loop without a carrier stream".into(),
                        ));
                        return;
                    };
                    self.plan.done_carrier.insert(s, pos);
                    break;
                }
                _ => break,
            }
        }

        // Register duties on producers.
        if let Some(&pos) = self.plan.done_carrier.get(&s) {
            let Some(def) = self.plan.defs.get(&pos) else {
                self.error.get_or_insert(CompileError::Internal(
                    "carrier position has no defining atom".into(),
                ));
                return;
            };
            let producer = def.stage;
            self.plan
                .done_duties
                .entry(producer)
                .or_default()
                .push((pos, s));
        }
        let needs: Vec<usize> = self
            .plan
            .need_next
            .iter()
            .filter(|(_, u)| *u == s)
            .map(|(t, _)| *t)
            .collect();
        for tag in needs {
            let Some(&pos) = self.plan.carrier_pos.get(&(tag, s)) else {
                self.error.get_or_insert(CompileError::Internal(
                    "NEXT-needing loop without a carrier stream".into(),
                ));
                return;
            };
            let Some(def) = self.plan.defs.get(&pos) else {
                self.error.get_or_insert(CompileError::Internal(
                    "carrier position has no defining atom".into(),
                ));
                return;
            };
            let producer = def.stage;
            self.plan
                .next_duties
                .entry((tag, producer))
                .or_default()
                .push((pos, s));
            self.force_emit.insert((tag, producer));
        }
    }
}

/// Runs planning over all stages; fills everything in [`Plan`] except
/// the final comm/recompute partition and queue ids (see
/// [`partition_comm`]).
pub(crate) fn plan(
    tree: &[Node],
    params: &[VarId],
    nstages: u32,
    passes: PassConfig,
) -> Result<(Plan, BTreeSet<(usize, u32)>), CompileError> {
    let mut plan = Plan {
        free: params.iter().copied().collect(),
        nstages,
        passes,
        ..Default::default()
    };
    // Collect defs, loop vars, and data uses.
    fn collect(plan: &mut Plan, nodes: &[Node]) {
        for n in nodes {
            match n {
                Node::Atom {
                    stmt,
                    stage,
                    def,
                    pos,
                } => {
                    if let Some(v) = def {
                        let expr = match stmt {
                            Stmt::Assign { expr, .. } => Some(expr.clone()),
                            _ => None,
                        };
                        plan.defs.insert(
                            *pos,
                            DefInfo {
                                var: *v,
                                stage: *stage,
                                expr,
                            },
                        );
                        plan.defs_of_var.entry(*v).or_default().push(*pos);
                    }
                }
                Node::If { then, els, .. } => {
                    collect(plan, then);
                    collect(plan, els);
                }
                Node::For { var, tag, body, .. } => {
                    plan.loop_vars.insert(*var);
                    plan.loop_of_var.insert(*var, *tag);
                    collect(plan, body);
                }
                Node::While { body, .. } => collect(plan, body),
            }
        }
    }
    collect(&mut plan, tree);

    fn data_uses(plan: &mut Plan, nodes: &[Node]) {
        let mut pending: Vec<(VarId, u32)> = Vec::new();
        for_each_atom_local(nodes, &mut |stmt: &Stmt, stage: u32| {
            for r in stmt.header_reads() {
                pending.push((r, stage));
            }
        });
        for (r, s) in pending {
            if plan.is_free(r) {
                continue;
            }
            let has_nonlocal_def = plan
                .defs_of_var
                .get(&r)
                .map(|ds| ds.iter().any(|p| plan.defs[p].stage != s))
                .unwrap_or(false);
            if has_nonlocal_def {
                plan.uses.entry(r).or_default().insert(s);
            }
        }
    }
    fn for_each_atom_local(nodes: &[Node], f: &mut impl FnMut(&Stmt, u32)) {
        for n in nodes {
            match n {
                Node::Atom { stmt, stage, .. } => f(stmt, *stage),
                Node::If { then, els, .. } => {
                    for_each_atom_local(then, f);
                    for_each_atom_local(els, f);
                }
                Node::For { body, .. } | Node::While { body, .. } => for_each_atom_local(body, f),
            }
        }
    }
    data_uses(&mut plan, tree);

    let mut planner = Planner {
        tree,
        plan,
        forced_comm: BTreeSet::new(),
        force_emit: BTreeSet::new(),
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

/// Computes a straight-line group id per def position: consecutive atoms
/// in the same body (with no intervening control structure) share a
/// group. Values defined in one group and consumed by the same stage can
/// share a queue — the hardware sees them in producer program order
/// either way, and this is what lets adjacent loads (`nodes[v]`,
/// `nodes[v+1]`) feed a single reference accelerator.
pub(crate) fn def_groups(tree: &[Node]) -> HashMap<usize, usize> {
    let mut groups = HashMap::new();
    let mut next_group = 0usize;
    fn walk(nodes: &[Node], groups: &mut HashMap<usize, usize>, next_group: &mut usize) {
        let mut current: Option<usize> = None;
        for n in nodes {
            match n {
                Node::Atom { pos, def, .. } => {
                    if def.is_some() {
                        let g = *current.get_or_insert_with(|| {
                            let g = *next_group;
                            *next_group += 1;
                            g
                        });
                        groups.insert(*pos, g);
                    }
                }
                Node::If { then, els, .. } => {
                    current = None;
                    walk(then, groups, next_group);
                    walk(els, groups, next_group);
                }
                Node::For { body, .. } | Node::While { body, .. } => {
                    current = None;
                    walk(body, groups, next_group);
                }
            }
        }
    }
    walk(tree, &mut groups, &mut next_group);
    groups
}

/// Partitions uses into queues vs. recomputation (pass 2) and assigns
/// queue ids, merging same-group same-stage defs bound for the same
/// consumer into one queue.
pub(crate) fn partition_comm(
    plan: &mut Plan,
    forced: &BTreeSet<(usize, u32)>,
    groups: &HashMap<usize, usize>,
    max_queues: u16,
) -> Result<(), CompileError> {
    let recompute_on = plan.passes.recompute;
    let mut decided_comm: BTreeSet<(usize, u32)> = BTreeSet::new();
    let mut decided_recomp: BTreeSet<(usize, u32)> = BTreeSet::new();

    let defs: Vec<(usize, DefInfo)> = plan.defs.iter().map(|(p, d)| (*p, d.clone())).collect();
    for (pos, d) in &defs {
        let consumers: Vec<u32> = plan
            .uses
            .get(&d.var)
            .map(|set| set.iter().copied().filter(|s| *s != d.stage).collect())
            .unwrap_or_default();
        for s in consumers {
            let pair = (*pos, s);
            let can_recompute = recompute_on
                && !forced.contains(&pair)
                && match &d.expr {
                    Some(e) if !matches!(e, Expr::Load { .. }) => {
                        let mut vars = Vec::new();
                        e.collect_vars(&mut vars);
                        // Loop-variable-derived values may only be
                        // rematerialized where the consumer emits that
                        // loop with counted (`for`) structure — CV
                        // streams lose induction variables.
                        vars.iter().all(|v| match plan.loop_of_var.get(v) {
                            Some(tag) => plan.modes.get(&(*tag, s)) == Some(&LoopMode::Bounds),
                            None => !plan.loop_vars.contains(v),
                        }) && vars.iter().all(|v| {
                            plan.is_free(*v)
                                || plan
                                    .defs_of_var
                                    .get(v)
                                    .map(|ds| {
                                        ds.iter().all(|p2| {
                                            plan.defs[p2].stage == s
                                                || decided_comm.contains(&(*p2, s))
                                                || decided_recomp.contains(&(*p2, s))
                                        })
                                    })
                                    .unwrap_or(true)
                        })
                    }
                    _ => false,
                };
            if can_recompute {
                decided_recomp.insert(pair);
            } else {
                // Loop-carried values (accumulators: the def reads its
                // own variable) cannot be streamed — communicating one
                // per iteration serializes the stages on the reduction
                // chain and doubles traffic (e.g. SDDMM's dense dot
                // product). Reject the cut set; the search falls back.
                let self_carried = d
                    .expr
                    .as_ref()
                    .map(|e| {
                        let mut vars = Vec::new();
                        e.collect_vars(&mut vars);
                        vars.contains(&d.var)
                    })
                    .unwrap_or(false);
                if self_carried {
                    return Err(CompileError::Unsupported(format!(
                        "cut would stream the loop-carried value `{}`                          across stages",
                        plan.defs[pos].var.0
                    )));
                }
                decided_comm.insert(pair);
            }
        }
    }
    // Assign queue ids, sharing one queue among a straight-line group's
    // defs (same producer stage) bound for the same consumer.
    let mut queue_of: BTreeMap<(usize, u32, u32), QueueId> = BTreeMap::new();
    let mut next_q = 0u16;
    for pair in &decided_comm {
        let (pos, consumer) = *pair;
        let group = groups.get(&pos).copied().unwrap_or(usize::MAX - pos);
        let producer = plan.defs[&pos].stage;
        let key = (group, producer, consumer);
        let q = *queue_of.entry(key).or_insert_with(|| {
            let q = QueueId(next_q);
            next_q += 1;
            q
        });
        plan.comm.insert(*pair, q);
    }
    if next_q as usize > max_queues as usize {
        return Err(CompileError::TooManyQueues(
            next_q as usize,
            max_queues as usize,
        ));
    }
    plan.recomp = decided_recomp;
    Ok(())
}
