//! The frontier vocabulary: the fragments of Ligra's `edgeMap` that
//! BFS, CC, PageRank-Delta and Radii — and their Fig. 14 replicas —
//! are composed from.
//!
//! The four graph benchmarks are one traversal with four update rules
//! (Sec. VI), and their replicated versions are that traversal behind a
//! `#pragma distribute` boundary (Sec. IV-C, Fig. 7). The traversal is
//! written here once, as fragments an app composes *in its own order*:
//! each fragment declares the variables it needs when it is called and
//! emits its statements where it is called, so the order of the calls is
//! the order of the generated IR. That is why this is a vocabulary and
//! not a generator: the hand-written variants differ in incidental order
//! (CC's data-parallel kernel loads `labels[v]` before the row bounds,
//! its serial kernel after), and `tests/golden_ir.rs` holds every
//! pipeline to the IR it had before this module existed.
//!
//! Each fragment hides one protocol:
//!
//! * [`slice`] / [`fringe_slice`] — the bounds of part `t` of `T`;
//! * [`for_each_vertex`] and [`RowWalk`] — the fringe loop, the CSR row
//!   fetch and the edge loop;
//! * [`Segment`] — append-to-next-fringe at a producer's segment base,
//!   and publishing its length (what [`crate::runner::Fringe`] gathers);
//! * [`write_min`] — Ligra's `writeMin`, the update rule BFS and CC
//!   share;
//! * [`request_row`] + [`add_csr_ras`] — the chained INDIRECT→SCAN
//!   `nodes`/`edges` reference accelerators, with or without the
//!   per-vertex `NEXT`;
//! * [`distribute`], [`deq_packed`], [`forward_done`],
//!   [`counted_consumer`] — the distribute boundary: the packed
//!   `(payload << 32) | ngh` word, `enq_sel` by destination, `DONE` to
//!   every consumer, one `DONE` per producer counted before a consumer
//!   finishes;
//! * [`resume_on`], [`break_on`] — the plain control-value handlers;
//! * [`fetch_stage`], [`grouped_consumer`] — the first and last stage of
//!   a hand-built pipeline.

use phloem_ir::{
    ArrayDecl, ArrayId, BinOp, CtrlHandler, Expr, FunctionBuilder, HandlerEnd, MemState, Pipeline,
    QueueId, RaConfig, RaMode, StageProgram, Stmt, VarId,
};
use phloem_workloads::Graph;

/// Control value: end of stream.
pub const DONE: u32 = 0;
/// Control value: end of one vertex's neighbours (or of one range).
pub const NEXT: u32 = 1;

// ---------------------------------------------------------------------
// Arrays: one declaration per app
// ---------------------------------------------------------------------

/// The id `decls` gives the array called `name`: its position, which is
/// also the order the host allocates in.
///
/// # Panics
/// Panics if no array has that name (a typo in an app's id table).
pub fn array_id(decls: &[ArrayDecl], name: &str) -> ArrayId {
    let at = decls.iter().position(|d| d.name == name);
    ArrayId(at.unwrap_or_else(|| panic!("no array `{name}` declared")) as u32)
}

/// A stage builder that has declared `arrays` (all stages of a pipeline
/// share one array id space).
pub fn stage(name: impl Into<String>, arrays: &[ArrayDecl]) -> FunctionBuilder {
    let mut b = FunctionBuilder::new(name);
    for a in arrays {
        b.array(a.clone());
    }
    b
}

/// Allocates one of the arrays every frontier app declares under the
/// same name: the CSR `nodes` and `edges`, and `out_len` with one slot
/// per producer.
///
/// # Panics
/// Panics on any other name: an app's `build_mem` must give every array
/// it declares its initial contents.
pub fn alloc_graph_array(
    mem: &mut MemState,
    decl: ArrayDecl,
    g: &Graph,
    producers: usize,
) -> ArrayId {
    match decl.name.as_str() {
        "nodes" => mem.alloc_i64(decl, g.offsets.iter().copied()),
        "edges" => mem.alloc_i64(decl, g.edges.iter().copied()),
        "out_len" => mem.alloc(decl, producers.max(1)),
        other => panic!("array `{other}` has no initial contents"),
    }
}

// ---------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------

/// `dst = array[at]`.
pub fn load_to(f: &mut FunctionBuilder, dst: VarId, array: ArrayId, at: VarId) {
    let l = f.load(array, Expr::var(at));
    f.assign(dst, l);
}

/// `for var in start..end`, handing back what the body returns (the
/// variables it declared).
fn for_range<R>(
    b: &mut FunctionBuilder,
    var: VarId,
    (start, end): (Expr, Expr),
    body: impl FnOnce(&mut FunctionBuilder) -> R,
) -> R {
    let mut out = None;
    b.for_loop(var, start, end, |f| out = Some(body(f)));
    out.expect("for_loop runs its body once")
}

/// `while (true)`, handing back what the body returns. Control-value
/// handlers end the loop.
pub fn forever<R>(b: &mut FunctionBuilder, body: impl FnOnce(&mut FunctionBuilder) -> R) -> R {
    let mut out = None;
    b.while_true(|f| out = Some(body(f)));
    out.expect("while_true runs its body once")
}

/// One of `of` equal parts of a range: thread `index`'s, or replica
/// `index`'s.
#[derive(Clone, Copy, Debug)]
pub struct Part {
    /// Which part.
    pub index: usize,
    /// Out of how many.
    pub of: usize,
}

/// The bounds of `part` of `0..total`: the whole range when `None`,
/// else fresh `lo = total*t/T` and `hi = total*(t+1)/T`.
pub fn slice(b: &mut FunctionBuilder, total: VarId, part: Option<Part>) -> (Expr, Expr) {
    let Some(Part { index, of }) = part else {
        return (Expr::i64(0), Expr::var(total));
    };
    let lo = b.var_i64("lo");
    let hi = b.var_i64("hi");
    let bound = |t: usize| {
        let scaled = Expr::mul(Expr::var(total), Expr::i64(t as i64));
        Expr::bin(BinOp::Div, scaled, Expr::i64(of as i64))
    };
    b.assign(lo, bound(index));
    b.assign(hi, bound(index + 1));
    (Expr::var(lo), Expr::var(hi))
}

/// `nl = fringe_len[0]`, then the bounds of `part` of the fringe.
pub fn fringe_slice(
    b: &mut FunctionBuilder,
    fringe_len: ArrayId,
    part: Option<Part>,
) -> (Expr, Expr) {
    let nl = b.var_i64("nl");
    let l = b.load(fringe_len, Expr::i64(0));
    b.assign(nl, l);
    slice(b, nl, part)
}

/// `for i in span { v = fringe[i]; body(v) }`.
pub fn for_each_vertex<R>(
    b: &mut FunctionBuilder,
    fringe: ArrayId,
    span: (Expr, Expr),
    body: impl FnOnce(&mut FunctionBuilder, VarId) -> R,
) -> R {
    let i = b.var_i64("i");
    let v = b.var_i64("v");
    for_range(b, i, span, |f| {
        load_to(f, v, fringe, i);
        body(f, v)
    })
}

/// The walk over one vertex's CSR row: `s = nodes[key]`,
/// `e = nodes[key+1]`, `for j in s..e { ngh = edges[j] }`. Declared in
/// one step and emitted in two, because some kernels load their
/// per-vertex payload between the row fetch and the edge loop.
pub struct RowWalk {
    s: VarId,
    e: VarId,
    j: VarId,
    ngh: VarId,
}

impl RowWalk {
    /// Declares `s`, `e`, `j`, `ngh`.
    pub fn declare(b: &mut FunctionBuilder) -> RowWalk {
        RowWalk {
            s: b.var_i64("s"),
            e: b.var_i64("e"),
            j: b.var_i64("j"),
            ngh: b.var_i64("ngh"),
        }
    }

    /// Fetches the row bounds of vertex `key`.
    pub fn fetch(&self, f: &mut FunctionBuilder, nodes: ArrayId, key: VarId) {
        load_to(f, self.s, nodes, key);
        let next = f.load(nodes, Expr::add(Expr::var(key), Expr::i64(1)));
        f.assign(self.e, next);
    }

    /// Runs `body(ngh)` for every neighbour in the fetched row.
    pub fn for_each_edge<R>(
        &self,
        f: &mut FunctionBuilder,
        edges: ArrayId,
        body: impl FnOnce(&mut FunctionBuilder, VarId) -> R,
    ) -> R {
        let row = (Expr::var(self.s), Expr::var(self.e));
        for_range(f, self.j, row, |f| {
            load_to(f, self.ngh, edges, self.j);
            body(f, self.ngh)
        })
    }
}

// ---------------------------------------------------------------------
// Output: a producer's segment of the next fringe
// ---------------------------------------------------------------------

/// Where one producer (the serial kernel, a data-parallel thread, an
/// update replica) appends what it found: its segment of `next` and its
/// slot of `out_len`. [`crate::runner::Fringe`] is the host's side of
/// this protocol.
pub struct Segment {
    next: ArrayId,
    out_len: ArrayId,
    base: Option<Expr>,
    slot: usize,
}

impl Segment {
    /// The only producer: appends from 0, publishes in slot 0.
    pub fn serial(next: ArrayId, out_len: ArrayId) -> Segment {
        Segment::new(next, out_len, None, 0)
    }

    /// Producer `slot`, appending from the host-known offset `start`.
    pub fn at(next: ArrayId, out_len: ArrayId, start: usize, slot: usize) -> Segment {
        Segment::new(next, out_len, Some(Expr::i64(start as i64)), slot)
    }

    /// Replica `r`, appending from `r * seg` for a launch parameter `seg`.
    pub fn of_replica(next: ArrayId, out_len: ArrayId, r: usize, seg: VarId) -> Segment {
        let base = Expr::mul(Expr::i64(r as i64), Expr::var(seg));
        Segment::new(next, out_len, Some(base), r)
    }

    fn new(next: ArrayId, out_len: ArrayId, base: Option<Expr>, slot: usize) -> Segment {
        Segment {
            next,
            out_len,
            base,
            slot,
        }
    }

    /// `next[base + len] = v; len = len + 1`.
    pub fn append(&self, f: &mut FunctionBuilder, len: VarId, v: VarId) {
        let at = match &self.base {
            Some(base) => Expr::add(base.clone(), Expr::var(len)),
            None => Expr::var(len),
        };
        f.store(self.next, at, Expr::var(v));
        f.assign(len, Expr::add(Expr::var(len), Expr::i64(1)));
    }

    /// `out_len[slot] = len`, after the producer's last append.
    pub fn publish(&self, b: &mut FunctionBuilder, len: VarId) {
        b.store(self.out_len, Expr::i64(self.slot as i64), Expr::var(len));
    }
}

/// Ligra's `writeMin` as a per-edge rule: lower `array[ngh]` to `value`,
/// and append every vertex it lowered to `out`. Plain, it reads the old
/// value into a variable called `seen`; `atomic`, an atomic-min hands it
/// back in `old`. Returns the count variable it declared.
pub fn write_min(
    f: &mut FunctionBuilder,
    array: ArrayId,
    ngh: VarId,
    value: VarId,
    seen: &str,
    out: &Segment,
    atomic: bool,
) -> VarId {
    let was = f.var_i64(if atomic { "old" } else { seen });
    let len = f.var_i64("len");
    if atomic {
        let (at, to) = (Expr::var(ngh), Expr::var(value));
        f.atomic_rmw(BinOp::Min, array, at, to, Some(was));
    } else {
        load_to(f, was, array, ngh);
    }
    let lowered = Expr::bin(BinOp::Gt, Expr::var(was), Expr::var(value));
    f.if_then(lowered, |f| {
        if !atomic {
            f.store(array, Expr::var(ngh), Expr::var(value));
        }
        out.append(f, len, ngh);
    });
    len
}

// ---------------------------------------------------------------------
// Control-value handlers
// ---------------------------------------------------------------------

fn handler(queue: QueueId, ctrl: u32, body: Vec<Stmt>, end: HandlerEnd) -> CtrlHandler {
    CtrlHandler {
        queue,
        ctrl: Some(ctrl),
        bind: None,
        body,
        end,
    }
}

/// On `ctrl` at the head of `queue`: drop it and carry on.
pub fn resume_on(queue: QueueId, ctrl: u32) -> CtrlHandler {
    handler(queue, ctrl, vec![], HandlerEnd::Resume)
}

/// On `ctrl` at the head of `queue`: leave `levels` loops.
pub fn break_on(queue: QueueId, ctrl: u32, levels: u32) -> CtrlHandler {
    handler(queue, ctrl, vec![], HandlerEnd::BreakLoops(levels))
}

// ---------------------------------------------------------------------
// The chained nodes/edges reference accelerators
// ---------------------------------------------------------------------

/// Asks the `nodes` RA for vertex `v`'s row: enqueues `v` and `v+1`.
pub fn request_row(f: &mut FunctionBuilder, vq: QueueId, v: VarId) {
    f.enq(vq, Expr::var(v));
    f.enq(vq, Expr::add(Expr::var(v), Expr::i64(1)));
}

/// Adds the chained pair on `core`: an INDIRECT RA turning the `v, v+1`
/// stream on `vq` into row bounds on `rq`, and a SCAN RA streaming
/// `edges[s..e]` onto `nq`, ending each row with `scan_end` if given
/// (the hand versions keep that per-vertex `NEXT`). `at` suffixes the
/// RA names (`"@r2"`).
pub fn add_csr_ras(
    p: &mut Pipeline,
    arrays: &[ArrayDecl],
    (nodes, edges): (ArrayId, ArrayId),
    [vq, rq, nq]: [QueueId; 3],
    scan_end: Option<u32>,
    at: &str,
    core: usize,
) {
    let ra = |name: &str, mode, base, in_queue, out_queue, scan_end_ctrl| RaConfig {
        name: format!("{name}{at}"),
        mode,
        base,
        in_queue,
        out_queue,
        forward_ctrl: true,
        scan_end_ctrl,
    };
    let indirect = ra("nodes", RaMode::Indirect, nodes, vq, rq, None);
    p.add_ra(indirect, arrays, core);
    let scan = ra("edges", RaMode::Scan, edges, rq, nq, scan_end);
    p.add_ra(scan, arrays, core);
}

// ---------------------------------------------------------------------
// The distribute boundary
// ---------------------------------------------------------------------

/// `(hi << 32) | lo`: a payload travelling with a neighbour id in one
/// word, so the pair survives cross-replica queue interleaving.
pub fn pack(hi: Expr, lo: Expr) -> Expr {
    Expr::bin(BinOp::Or, Expr::bin(BinOp::Shl, hi, Expr::i64(32)), lo)
}

/// Routes `ngh` — packed under `payload`, if there is one — to the
/// consumer owning it (`ngh % consumers.len()`).
pub fn distribute(
    f: &mut FunctionBuilder,
    consumers: &[QueueId],
    ngh: VarId,
    payload: Option<Expr>,
) {
    let word = match payload {
        Some(p) => pack(p, Expr::var(ngh)),
        None => Expr::var(ngh),
    };
    f.enq_sel(consumers.to_vec(), Expr::var(ngh), word);
}

/// The neighbour id of a packed word.
pub fn low_half(word: VarId) -> Expr {
    Expr::bin(BinOp::And, Expr::var(word), Expr::i64(0xFFFF_FFFF))
}

/// The payload of a packed word.
pub fn high_half(word: VarId) -> Expr {
    Expr::bin(BinOp::Shr, Expr::var(word), Expr::i64(32))
}

/// The consumer's side of [`distribute`] with a payload: dequeues one
/// word and splits it. Returns `(ngh, payload)`; `payload` names the
/// payload variable.
pub fn deq_packed(f: &mut FunctionBuilder, queue: QueueId, payload: &str) -> (VarId, VarId) {
    let x = f.var_i64("x");
    let ngh = f.var_i64("ngh");
    let pay = f.var_i64(payload);
    f.deq(x, queue);
    f.assign(ngh, low_half(x));
    f.assign(pay, high_half(x));
    (ngh, pay)
}

fn done_to_all(consumers: &[QueueId]) -> Vec<Stmt> {
    let done = |q: &QueueId| Stmt::EnqCtrl {
        queue: *q,
        ctrl: DONE,
    };
    consumers.iter().map(done).collect()
}

/// A producer's end of stream as a handler: when `DONE` arrives on
/// `input`, send it to every consumer and finish the stage.
pub fn forward_done(input: QueueId, consumers: &[QueueId]) -> CtrlHandler {
    let end = HandlerEnd::FinishStage;
    handler(input, DONE, done_to_all(consumers), end)
}

/// Finishes a stage that consumes `queue` across a distribute boundary:
/// it counts one `DONE` per producer and leaves its loop at the last.
pub fn counted_consumer(mut b: FunctionBuilder, queue: QueueId, producers: usize) -> StageProgram {
    let dones = b.var_i64("_dones");
    let count = Stmt::Assign {
        var: dones,
        expr: Expr::add(Expr::var(dones), Expr::i64(1)),
    };
    let end = HandlerEnd::BreakWhen(dones, producers as i64, 1);
    StageProgram {
        func: b.build(),
        handlers: vec![handler(queue, DONE, vec![count], end)],
    }
}

// ---------------------------------------------------------------------
// Stage shapes
// ---------------------------------------------------------------------

/// A fetch stage: hands each vertex of `part` of the fringe to
/// `per_vertex`, then sends `DONE` down each of `outs`.
pub fn fetch_stage(
    mut b: FunctionBuilder,
    (fringe, fringe_len): (ArrayId, ArrayId),
    part: Option<Part>,
    outs: &[QueueId],
    per_vertex: impl FnOnce(&mut FunctionBuilder, VarId),
) -> StageProgram {
    let span = fringe_slice(&mut b, fringe_len, part);
    for_each_vertex(&mut b, fringe, span, per_vertex);
    for done in done_to_all(outs) {
        b.stmt(done);
    }
    StageProgram::plain(b.build())
}

/// The update loop of a hand-built pipeline whose fetch stage forwards a
/// per-vertex payload: one `payload` from `pq`, then that vertex's
/// neighbours from `nq` until the edges RA's `NEXT`; `DONE` on `pq` ends
/// the stage's loop. Returns what `per_edge` returned and the two
/// handlers.
pub fn grouped_consumer<R>(
    b: &mut FunctionBuilder,
    payload: VarId,
    (pq, nq): (QueueId, QueueId),
    per_edge: impl FnOnce(&mut FunctionBuilder, VarId) -> R,
) -> (R, Vec<CtrlHandler>) {
    let ngh = b.var_i64("ngh");
    let out = forever(b, |f| {
        f.deq(payload, pq);
        forever(f, |f| {
            f.deq(ngh, nq);
            per_edge(f, ngh)
        })
    });
    (out, vec![break_on(nq, NEXT, 1), break_on(pq, DONE, 1)])
}
