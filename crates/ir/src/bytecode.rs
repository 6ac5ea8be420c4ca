//! Bytecode compilation for stage programs.
//!
//! [`compile`] lowers a [`Function`] body plus its registered
//! [`CtrlHandler`]s into a [`BytecodeProgram`]: one linear instruction
//! array with register-slot operands, pre-resolved branch and loop-back
//! targets, and expression trees flattened into three-address micro-ops.
//! [`crate::flat::FlatInterp`] executes it with a program counter
//! instead of the [`crate::step::StepInterp`] frame stack, making the
//! same sequence of [`crate::World`] calls — simulated timing is
//! bit-identical by construction; only host work changes.
//!
//! ## Word slots and typed instructions
//!
//! A register is either a *word slot* (a `u64` word plus its ready time,
//! 16 bytes) or a *tagged slot* (a [`Value`] plus its ready time, 24
//! bytes). A variable is a word slot when every write to it yields data
//! of its declared type (the `kinds` analysis decides; in practice only
//! dequeue targets that can receive an unhandled control value, and
//! handler binds, stay tagged). Constants are never-written slots of
//! either kind. An operation whose operands are all words compiles to a
//! typed instruction (`TBin` with a `TOp` such as `AddI` or `MulF`,
//! `TLoad`, `TStore`, `TBranch`, …) whose operand types, result type and
//! micro-op class are fixed at compile time; anything touching a tagged
//! slot keeps the dynamic instruction and its runtime tag checks.
//!
//! ## Atom boundaries
//!
//! The tree interpreter executes one *atom* per step: a simple statement
//! or one control-flow decision, with the expression micro-ops leading
//! up to it folded into the same step. The bytecode mirrors this by
//! splitting instructions into two classes:
//!
//! * **free** instructions (unary, binary and load micro-ops into a
//!   temporary, `Instr::Jump`, `Instr::ForEnter`) execute and fall
//!   through within the current step;
//! * **atom-ending** instructions (assignments, memory writes, queue
//!   ops, branches, loop tests, handler returns, `Instr::Halt`) end
//!   the step exactly where the tree interpreter would.
//!
//! ## Operand timing rules
//!
//! Each register slot carries a value *and* a readiness time. Reading an
//! operand reproduces the tree interpreter's rules exactly: a constant
//! is ready at the thread's control-flow time, a variable at
//! `max(write time, flow time)`, and a temporary (an intermediate
//! expression result) at its raw producer completion time. A constant
//! is a slot whose time stays 0, so it reads by the variable rule.
//!
//! ## Queue operations
//!
//! `try_enq`/`try_deq` keep the block-before-mutate contract: a blocked
//! queue instruction leaves the program counter *on itself* and returns
//! [`crate::StepResult::Blocked`], so the scheduler can retry it later
//! without the expression micro-ops ever re-executing (their results
//! are still in the operand registers). A dequeued control value with a
//! matching handler jumps into the handler's code region; the handler's
//! terminating `Instr::HandlerRet` consults the *dispatching* dequeue
//! site for its pre-resolved break targets, because `break N` out of a
//! handler is defined relative to the loops enclosing the dequeue.

use crate::expr::{ArrayId, BranchId, Expr, QueueId, VarId};
use crate::func::Function;
use crate::kinds::{self, Cell};
use crate::pipeline::Pipeline;
use crate::stmt::{CtrlHandler, HandlerEnd, Stmt};
use crate::value::{BinOp, Trap, Ty, UnOp, Value};
use crate::world::UopClass;

/// Names the two stage-program interpreters, for harnesses that time
/// or diff one against the other. Nothing selects an engine at run
/// time: the simulator and the native backend always run
/// [`crate::flat::FlatInterp`], and the serial oracle
/// ([`crate::interp`]) always runs [`crate::step::StepInterp`]. Both
/// make the same [`crate::World`] calls in the same order
/// (`tests/flat_differential.rs` pins it), so they differ only in host
/// throughput.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecEngine {
    /// Bytecode compilation + program-counter execution
    /// ([`crate::flat::FlatInterp`]); the engine of the simulator and
    /// the native backend.
    #[default]
    Flat,
    /// The original tree-walking interpreter
    /// ([`crate::step::StepInterp`]); reference implementation.
    Tree,
}

/// A register operand: a slot index, with the operand timing rule in the
/// top bit. A variable or constant is ready at `max(write time, flow
/// time)`, a temporary at its raw producer time; [`Reg::flow_mask`]
/// makes both one branch-free `max`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Reg(u32);

impl Reg {
    const VAR: u32 = 1 << 31;

    fn var(slot: u32) -> Reg {
        Reg(slot | Self::VAR)
    }

    fn tmp(slot: u32) -> Reg {
        Reg(slot)
    }

    /// The slot index.
    #[inline(always)]
    pub(crate) fn slot(self) -> usize {
        (self.0 & !Self::VAR) as usize
    }

    /// All ones for a variable or constant, zero for a temporary: the
    /// operand is ready at `slot time max (flow & mask)`.
    #[inline(always)]
    pub(crate) fn flow_mask(self) -> u64 {
        u64::from(self.0 >> 31).wrapping_neg()
    }
}

/// An operand of a dynamic instruction: a tagged slot, or a word slot
/// read as a [`Value`] of its type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Opd {
    Tag(Reg),
    Word(Reg, Ty),
}

/// Where a dynamic instruction writes a variable (or a loop, atomic or
/// handler result): a tagged slot, or a word slot of the given type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Dst {
    Tag(u32),
    Word(u32, Ty),
}

/// A typed binary operation over two words of one type: the integer
/// operators over `i64` words and the float ones over `f64` words
/// (comparisons yield an `i64` 0 or 1). Float operands have no bitwise
/// or shift operator: those trap, so they stay dynamic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub(crate) enum TOp {
    AddI,
    SubI,
    MulI,
    DivI,
    RemI,
    AndI,
    OrI,
    XorI,
    ShlI,
    ShrI,
    LtI,
    LeI,
    GtI,
    GeI,
    EqI,
    NeI,
    MinI,
    MaxI,
    AddF,
    SubF,
    MulF,
    DivF,
    RemF,
    MinF,
    MaxF,
    LtF,
    LeF,
    GtF,
    GeF,
    EqF,
    NeF,
}

impl TOp {
    /// The typed form of `op` over two `i64` words (`float` false) or
    /// two `f64` words.
    pub(crate) fn new(op: BinOp, float: bool) -> Option<TOp> {
        use BinOp::*;
        use TOp::*;
        Some(match (op, float) {
            (Add, false) => AddI,
            (Sub, false) => SubI,
            (Mul, false) => MulI,
            (Div, false) => DivI,
            (Rem, false) => RemI,
            (And, false) => AndI,
            (Or, false) => OrI,
            (Xor, false) => XorI,
            (Shl, false) => ShlI,
            (Shr, false) => ShrI,
            (Lt, false) => LtI,
            (Le, false) => LeI,
            (Gt, false) => GtI,
            (Ge, false) => GeI,
            (Eq, false) => EqI,
            (Ne, false) => NeI,
            (Min, false) => MinI,
            (Max, false) => MaxI,
            (Add, true) => AddF,
            (Sub, true) => SubF,
            (Mul, true) => MulF,
            (Div, true) => DivF,
            (Rem, true) => RemF,
            (Min, true) => MinF,
            (Max, true) => MaxF,
            (Lt, true) => LtF,
            (Le, true) => LeF,
            (Gt, true) => GtF,
            (Ge, true) => GeF,
            (Eq, true) => EqF,
            (Ne, true) => NeF,
            (And | Or | Xor | Shl | Shr, true) => return None,
        })
    }

    fn is_float(self) -> bool {
        self as u8 >= TOp::AddF as u8
    }

    /// The micro-op class: [`UopClass::for_binop`] of operands of this
    /// operator's type.
    pub(crate) fn class(self) -> UopClass {
        use TOp::*;
        match self {
            MulI => UopClass::IntMul,
            DivI | RemI => UopClass::IntDiv,
            MulF => UopClass::FpMul,
            DivF | RemF => UopClass::FpDiv,
            op if op.is_float() => UopClass::FpAlu,
            _ => UopClass::IntAlu,
        }
    }

    /// The result type.
    pub(crate) fn result(self) -> Ty {
        use TOp::*;
        match self {
            AddF | SubF | MulF | DivF | RemF | MinF | MaxF => Ty::F64,
            _ => Ty::I64,
        }
    }
}

/// The result type of a typed unary `op` over a word of type `ty`.
pub(crate) fn unop_result(op: UnOp, ty: Ty) -> Ty {
    match op {
        UnOp::Neg => ty,
        UnOp::I2F => Ty::F64,
        UnOp::Not | UnOp::BitNot | UnOp::IsCtrl | UnOp::CtrlTag | UnOp::F2I => Ty::I64,
    }
}

/// One bytecode instruction. See the module docs for the free vs.
/// atom-ending split and the typed vs. dynamic one. Typed instructions
/// (`T…`) read and write word slots; `dst` and `var` of a typed
/// instruction and the `cur`/`lim` loop state are word-slot indices,
/// `dst` of a dynamic micro-op a tagged-slot index.
#[derive(Clone, Debug)]
pub(crate) enum Instr {
    // ----- free (fall through within the current atom) -----
    /// dst = op a, over an `a` of type `ty`.
    TUn {
        op: UnOp,
        ty: Ty,
        class: UopClass,
        a: Reg,
        dst: u32,
    },
    /// dst = a op b.
    TBin {
        op: TOp,
        class: UopClass,
        a: Reg,
        b: Reg,
        dst: u32,
    },
    /// dst = array[index], an element of type `ty`.
    TLoad {
        array: ArrayId,
        ty: Ty,
        index: Reg,
        dst: u32,
    },
    /// dst = op a.
    Un { op: UnOp, a: Opd, dst: u32 },
    /// dst = a op b.
    Bin { op: BinOp, a: Opd, b: Opd, dst: u32 },
    /// dst = array[index].
    Load {
        array: ArrayId,
        index: Opd,
        dst: u32,
    },
    /// Unconditional jump (loop back edges, if/else joins).
    Jump(u32),
    /// Latches a for-loop's start/limit into its loop slots.
    ForEnter {
        start: Opd,
        end: Opd,
        cur: u32,
        lim: u32,
    },
    // ----- atom-ending -----
    /// var = src, both words of one type.
    TAssign { var: u32, src: Reg },
    /// var = op a, ending the atom (peephole-fused assignment of a
    /// unary result; saves a dispatch and a temp round trip).
    TUnA {
        op: UnOp,
        ty: Ty,
        class: UopClass,
        a: Reg,
        var: u32,
    },
    /// var = a op b, ending the atom (fused assignment).
    TBinA {
        op: TOp,
        class: UopClass,
        a: Reg,
        b: Reg,
        var: u32,
    },
    /// var = array[index], ending the atom (fused assignment).
    TLoadA {
        array: ArrayId,
        ty: Ty,
        index: Reg,
        var: u32,
    },
    /// array[index] = value, a word of type `ty`.
    TStore {
        array: ArrayId,
        ty: Ty,
        index: Reg,
        value: Reg,
    },
    /// `if` or `while` test on an `i64` word: taken falls through,
    /// not-taken jumps to `target` (the else arm, the join, or the loop
    /// exit).
    TBranch {
        id: BranchId,
        cond: Reg,
        target: u32,
    },
    /// Fused typed compare-and-branch (the compare micro-op still
    /// issues; only the dispatch and the temp round trip are saved).
    TBinBranch {
        op: TOp,
        class: UopClass,
        a: Reg,
        b: Reg,
        id: BranchId,
        target: u32,
    },
    /// var = src.
    Assign { var: Dst, src: Opd },
    /// var = op a, ending the atom (fused assignment).
    UnA { op: UnOp, a: Opd, var: Dst },
    /// var = a op b, ending the atom (fused assignment).
    BinA { op: BinOp, a: Opd, b: Opd, var: Dst },
    /// var = array[index], ending the atom (fused assignment).
    LoadA {
        array: ArrayId,
        index: Opd,
        var: Dst,
    },
    /// array[index] = value.
    Store {
        array: ArrayId,
        index: Opd,
        value: Opd,
    },
    /// Atomic read-modify-write; `old` receives the previous value.
    AtomicRmw {
        op: BinOp,
        array: ArrayId,
        index: Opd,
        value: Opd,
        old: Option<Dst>,
    },
    /// Blocking enqueue. Retries re-read `value` (pure; no micro-ops).
    Enq { queue: QueueId, value: Opd },
    /// Replica-distributing enqueue; the select micro-op issues once and
    /// the chosen queue is stashed across blocked retries.
    EnqSel {
        queues: Box<[QueueId]>,
        select: Opd,
        value: Opd,
    },
    /// Enqueue of a control value.
    EnqCtrl { queue: QueueId, ctrl: u32 },
    /// Blocking dequeue; dispatches control values to handlers. The
    /// `depth` loops enclosing this site have their exits at
    /// `BytecodeProgram::breaks[breaks..breaks + depth]`, innermost
    /// first: where a dispatched handler's `break k` goes.
    Deq {
        var: Dst,
        queue: QueueId,
        breaks: u32,
        depth: u32,
    },
    /// `if` or `while` test: taken falls through, not-taken jumps to
    /// `target`.
    Branch {
        id: BranchId,
        cond: Opd,
        target: u32,
    },
    /// Fused compare-and-branch.
    BinBranch {
        op: BinOp,
        a: Opd,
        b: Opd,
        id: BranchId,
        target: u32,
    },
    /// First for-loop test (no increment).
    ForTest {
        id: BranchId,
        var: Dst,
        cur: u32,
        lim: u32,
        exit: u32,
    },
    /// For-loop back edge: increment, test, branch to `body` or `exit`.
    ForStep {
        id: BranchId,
        var: Dst,
        cur: u32,
        lim: u32,
        body: u32,
        exit: u32,
    },
    /// `break N` resolved to the target loop's exit.
    BreakJump(u32),
    /// Handler return: pops the dispatch record and applies the end
    /// action relative to the dispatching dequeue site.
    HandlerRet(HandlerEnd),
    /// End of the stage program.
    Halt,
    /// A statically-detected runtime trap (e.g. a `break` crossing a
    /// handler boundary); traps when — and only when — executed, exactly
    /// like the tree interpreter.
    Fault(Box<str>),
}

/// A control-value handler's dispatch entry.
#[derive(Clone, Debug)]
pub(crate) struct HandlerEntry {
    pub(crate) queue: QueueId,
    pub(crate) ctrl: Option<u32>,
    pub(crate) bind: Option<Dst>,
    pub(crate) entry: u32,
}

/// A compiled stage program: the executable form consumed by
/// [`crate::flat::FlatInterp`].
#[derive(Clone, Debug)]
pub struct BytecodeProgram {
    pub(crate) name: String,
    /// Word slots: variables first, then constants and temporaries.
    pub(crate) nwords: u32,
    /// Tagged slots: variables first, then constants and temporaries.
    pub(crate) ntagged: u32,
    pub(crate) body_empty: bool,
    pub(crate) code: Vec<Instr>,
    /// The slot of each variable, by [`VarId`].
    pub(crate) vars: Vec<Dst>,
    /// Initial contents of the slots that do not start as an all-zero
    /// word: the constants, and each tagged variable's typed zero.
    pub(crate) inits: Vec<(Dst, Value)>,
    /// Loop exits of every dequeue site (see `Instr::Deq`).
    pub(crate) breaks: Vec<u32>,
    pub(crate) handlers: Vec<HandlerEntry>,
}

impl BytecodeProgram {
    /// The compiled function's name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of instructions (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the instruction array is empty (never, in practice:
    /// compilation always emits at least `Instr::Halt`).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The type of variable `v`'s word slot, or `None` if `v` is kept
    /// in a tagged slot (it can hold a control value, or data of more
    /// than one type) or is out of range.
    pub fn word_type(&self, v: VarId) -> Option<Ty> {
        match self.vars.get(v.0 as usize)? {
            Dst::Word(_, ty) => Some(*ty),
            Dst::Tag(_) => None,
        }
    }

    /// Tagged slots of the program: variables, control constants and
    /// the temporaries of dynamic micro-ops.
    pub fn tagged_slots(&self) -> usize {
        self.ntagged as usize
    }

    /// Handler lookup with the tree interpreter's precedence: an exact
    /// tag match wins over a wildcard, declaration order breaks ties.
    pub(crate) fn find_handler(&self, q: QueueId, tag: u32) -> Option<&HandlerEntry> {
        self.handlers
            .iter()
            .find(|h| h.queue == q && h.ctrl == Some(tag))
            .or_else(|| {
                self.handlers
                    .iter()
                    .find(|h| h.queue == q && h.ctrl.is_none())
            })
    }
}

/// Compiles a stage program (function body + registered control-value
/// handlers) to bytecode, on its own: every queue it dequeues from may
/// carry anything, so each dequeue target is a tagged slot.
/// [`compile_pipeline`] knows what each queue carries.
///
/// # Errors
/// Returns [`Trap::BadId`] for out-of-range variable ids (the tree
/// interpreter would trap or panic on first use at runtime; compilation
/// surfaces them eagerly). Run [`Function::validate`] first to rule
/// them out. Break statements that would cross a handler or function
/// boundary compile to `Instr::Fault` and trap only when executed,
/// matching tree semantics.
pub fn compile(func: &Function, handlers: &[CtrlHandler]) -> Result<BytecodeProgram, Trap> {
    compile_with(func, handlers, &kinds::stage_facts(func, handlers))
}

/// Compiles every stage program of `pipeline`, with the slot kinds a
/// whole-pipeline analysis of what each queue carries allows.
///
/// # Errors
/// As [`compile`].
pub fn compile_pipeline(pipeline: &Pipeline) -> Result<Vec<BytecodeProgram>, Trap> {
    let facts = kinds::pipeline_facts(pipeline);
    let mut at = 0;
    pipeline
        .stages
        .iter()
        .map(|s| {
            let n = s.program.func.vars.len();
            at += n;
            compile_with(&s.program.func, &s.program.handlers, &facts[at - n..at])
        })
        .collect()
}

fn compile_with(
    func: &Function,
    handlers: &[CtrlHandler],
    facts: &[Cell],
) -> Result<BytecodeProgram, Trap> {
    let mut c = Compiler {
        func,
        // Normalization declares a temporary per expression, so the
        // variable count tracks a stage's size: `vars + 16` instructions
        // hold every stage of the benchmark's compile grid, and a larger
        // stage grows the array.
        code: Vec::with_capacity(func.vars.len() + 16),
        inits: Vec::new(),
        vars: Vec::with_capacity(func.vars.len()),
        first_const: 0,
        nwords: 0,
        ntagged: 0,
        patches: Vec::new(),
        depth: 0,
        breaks: Vec::new(),
    };
    for (decl, f) in func.vars.iter().zip(facts) {
        // The facts start at the declared type, so a word is of it.
        let dst = match f.facts.word() {
            Some(ty) => Dst::Word(c.word_slot(), ty),
            None => {
                let slot = c.tagged_slot();
                c.inits.push((Dst::Tag(slot), decl.ty.zero()));
                Dst::Tag(slot)
            }
        };
        c.vars.push(dst);
    }
    c.first_const = c.inits.len();
    c.emit_body(&func.body)?;
    c.code.push(Instr::Halt);
    debug_assert!(c.depth == 0 && c.patches.is_empty());
    let mut htab = Vec::with_capacity(handlers.len());
    for h in handlers {
        let entry = c.code.len() as u32;
        let bind = match h.bind {
            Some(v) => Some(c.var_dst(v)?),
            None => None,
        };
        if let HandlerEnd::FinishWhen(v, _) | HandlerEnd::BreakWhen(v, _, _) = h.end {
            c.check_var(v)?;
        }
        c.emit_body(&h.body)?;
        debug_assert!(c.depth == 0 && c.patches.is_empty());
        c.code.push(Instr::HandlerRet(h.end));
        htab.push(HandlerEntry {
            queue: h.queue,
            ctrl: h.ctrl,
            bind,
            entry,
        });
    }
    Ok(BytecodeProgram {
        name: func.name.clone(),
        nwords: c.nwords,
        ntagged: c.ntagged,
        body_empty: func.body.is_empty(),
        code: c.code,
        vars: c.vars,
        inits: c.inits,
        breaks: c.breaks,
        handlers: htab,
    })
}

/// A forward reference to be patched with a loop's exit pc.
#[derive(Clone, Copy)]
enum Patch {
    /// Instruction whose exit/target field points past the loop.
    Exit(usize),
    /// An entry of `BytecodeProgram::breaks`.
    Break(usize),
}

impl Patch {
    fn apply(self, code: &mut [Instr], breaks: &mut [u32], target_pc: u32) {
        match self {
            Patch::Exit(i) => match &mut code[i] {
                Instr::Jump(t) | Instr::BreakJump(t) => *t = target_pc,
                Instr::Branch { target, .. }
                | Instr::BinBranch { target, .. }
                | Instr::TBranch { target, .. }
                | Instr::TBinBranch { target, .. } => *target = target_pc,
                Instr::ForTest { exit, .. } | Instr::ForStep { exit, .. } => *exit = target_pc,
                other => unreachable!("patching non-branch {other:?}"),
            },
            Patch::Break(i) => breaks[i] = target_pc,
        }
    }
}

/// A compare (or any binary op) fused into the branch that consumes it.
enum Fused {
    Typed(TOp, Reg, Reg),
    Dyn(BinOp, Opd, Opd),
}

struct Compiler<'f> {
    func: &'f Function,
    code: Vec<Instr>,
    /// `inits` holds the tagged variables' zeros, then the constants
    /// from this index on.
    inits: Vec<(Dst, Value)>,
    first_const: usize,
    vars: Vec<Dst>,
    nwords: u32,
    ntagged: u32,
    /// Forward references to the exits of the open loops, each with the
    /// depth of the loop it exits (1 = outermost). The main body and
    /// each handler body open their own loops: breaks cannot cross a
    /// handler boundary.
    patches: Vec<(u32, Patch)>,
    /// Loops open around the statement being compiled.
    depth: u32,
    breaks: Vec<u32>,
}

impl Compiler<'_> {
    fn check_var(&self, v: VarId) -> Result<u32, Trap> {
        if v.0 as usize >= self.vars.len() {
            return Err(Trap::BadId(format!("var {}", v.0)));
        }
        Ok(v.0)
    }

    fn var_dst(&self, v: VarId) -> Result<Dst, Trap> {
        Ok(self.vars[self.check_var(v)? as usize])
    }

    fn word_slot(&mut self) -> u32 {
        self.nwords += 1;
        self.nwords - 1
    }

    fn tagged_slot(&mut self) -> u32 {
        self.ntagged += 1;
        self.ntagged - 1
    }

    /// The slot holding the constant `v` (as a word of type `ty` when
    /// `ty` is given). Programs are small: a linear dedup scan keeps the
    /// constants few without a map. Constants compare by bits, so `-0.0`
    /// and `0.0` stay apart.
    fn constant(&mut self, v: Value, ty: Option<Ty>) -> Reg {
        let same = |a: Value, b: Value| match (a, b) {
            (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        };
        let found = self.inits[self.first_const..]
            .iter()
            .find_map(|&(d, c)| match (d, ty) {
                (Dst::Word(s, t), Some(ty)) if t == ty && same(c, v) => Some(s),
                (Dst::Tag(s), None) if same(c, v) => Some(s),
                _ => None,
            });
        let slot = found.unwrap_or_else(|| {
            let (dst, slot) = match ty {
                Some(ty) => {
                    let s = self.word_slot();
                    (Dst::Word(s, ty), s)
                }
                None => {
                    let s = self.tagged_slot();
                    (Dst::Tag(s), s)
                }
            };
            self.inits.push((dst, v));
            slot
        });
        Reg::var(slot)
    }

    /// The constant behind a word register, if it is one.
    fn constant_of(&self, r: Reg, ty: Ty) -> Option<Value> {
        self.inits[self.first_const..]
            .iter()
            .find_map(|&(d, v)| match d {
                Dst::Word(s, t) if t == ty && r == Reg::var(s) => Some(v),
                _ => None,
            })
    }

    /// `v` as an `f64` operand: a float word, or an integer constant
    /// converted at compile time as [`Value::as_f64`] converts it.
    fn as_float(&mut self, v: Opd) -> Option<Reg> {
        match v {
            Opd::Word(r, Ty::F64) => Some(r),
            Opd::Word(r, Ty::I64) => match self.constant_of(r, Ty::I64)? {
                Value::I64(x) => Some(self.constant(Value::F64(x as f64), Some(Ty::F64))),
                _ => None,
            },
            Opd::Tag(_) => None,
        }
    }

    /// The typed form of `a op b`, if both are words and a typed
    /// operator covers them.
    fn typed_bin(&mut self, op: BinOp, a: Opd, b: Opd) -> Option<(TOp, Reg, Reg)> {
        let (Opd::Word(ra, ta), Opd::Word(rb, tb)) = (a, b) else {
            return None;
        };
        let float = ta == Ty::F64 || tb == Ty::F64;
        let top = TOp::new(op, float)?;
        if !float {
            return Some((top, ra, rb));
        }
        Some((top, self.as_float(a)?, self.as_float(b)?))
    }

    /// If `cond` is the temporary produced by the immediately preceding
    /// binary micro-op, pops that micro-op and returns its fields for
    /// fusion into the consuming branch. A typed one fuses only if it
    /// yields an `i64` word, whose truth test is `!= 0`.
    fn take_cmp_tail(&mut self, cond: Opd) -> Option<Fused> {
        let fused = match (cond, self.code.last()?) {
            (Opd::Word(r, Ty::I64), Instr::TBin { op, a, b, dst, .. }) if r == Reg::tmp(*dst) => {
                Fused::Typed(*op, *a, *b)
            }
            (Opd::Tag(r), Instr::Bin { op, a, b, dst }) if r == Reg::tmp(*dst) => {
                Fused::Dyn(*op, *a, *b)
            }
            _ => return None,
        };
        self.code.pop();
        Some(fused)
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Flattens an expression; emits its micro-ops and returns where the
    /// result is. Micro-op order matches the tree interpreter's
    /// recursive evaluation exactly.
    fn emit_expr(&mut self, e: &Expr) -> Result<Opd, Trap> {
        Ok(match e {
            Expr::Const(v @ Value::Ctrl(_)) => Opd::Tag(self.constant(*v, None)),
            Expr::Const(v @ Value::I64(_)) => Opd::Word(self.constant(*v, Some(Ty::I64)), Ty::I64),
            Expr::Const(v @ Value::F64(_)) => Opd::Word(self.constant(*v, Some(Ty::F64)), Ty::F64),
            Expr::Var(v) => match self.var_dst(*v)? {
                Dst::Word(s, ty) => Opd::Word(Reg::var(s), ty),
                Dst::Tag(s) => Opd::Tag(Reg::var(s)),
            },
            Expr::Unary(op, a) => match self.emit_expr(a)? {
                Opd::Word(a, ty) if *op != UnOp::CtrlTag => {
                    let dst = self.word_slot();
                    let class = match ty {
                        Ty::F64 => UopClass::FpAlu,
                        Ty::I64 => UopClass::IntAlu,
                    };
                    self.code.push(Instr::TUn {
                        op: *op,
                        ty,
                        class,
                        a,
                        dst,
                    });
                    Opd::Word(Reg::tmp(dst), unop_result(*op, ty))
                }
                a => {
                    let dst = self.tagged_slot();
                    self.code.push(Instr::Un { op: *op, a, dst });
                    Opd::Tag(Reg::tmp(dst))
                }
            },
            Expr::Binary(op, a, b) => {
                let a = self.emit_expr(a)?;
                let b = self.emit_expr(b)?;
                match self.typed_bin(*op, a, b) {
                    Some((op, a, b)) => {
                        let dst = self.word_slot();
                        self.code.push(Instr::TBin {
                            op,
                            class: op.class(),
                            a,
                            b,
                            dst,
                        });
                        Opd::Word(Reg::tmp(dst), op.result())
                    }
                    None => {
                        let dst = self.tagged_slot();
                        self.code.push(Instr::Bin { op: *op, a, b, dst });
                        Opd::Tag(Reg::tmp(dst))
                    }
                }
            }
            Expr::Load { array, index, .. } => {
                let index = self.emit_expr(index)?;
                let decl = self.func.arrays.get(array.0 as usize);
                match (index, decl) {
                    (Opd::Word(index, Ty::I64), Some(d)) => {
                        let dst = self.word_slot();
                        self.code.push(Instr::TLoad {
                            array: *array,
                            ty: d.ty,
                            index,
                            dst,
                        });
                        Opd::Word(Reg::tmp(dst), d.ty)
                    }
                    _ => {
                        let dst = self.tagged_slot();
                        self.code.push(Instr::Load {
                            array: *array,
                            index,
                            dst,
                        });
                        Opd::Tag(Reg::tmp(dst))
                    }
                }
            }
        })
    }

    /// Emits an `if`/`while` test of `cond` (fused with the compare that
    /// computes it, if any) with its target unpatched; returns its index.
    fn emit_branch(&mut self, id: BranchId, cond: &Expr) -> Result<usize, Trap> {
        let cond = self.emit_expr(cond)?;
        let fused = self.take_cmp_tail(cond);
        let target = u32::MAX;
        self.code.push(match (fused, cond) {
            (Some(Fused::Typed(op, a, b)), _) => Instr::TBinBranch {
                op,
                class: op.class(),
                a,
                b,
                id,
                target,
            },
            (Some(Fused::Dyn(op, a, b)), _) => Instr::BinBranch {
                op,
                a,
                b,
                id,
                target,
            },
            (None, Opd::Word(cond, Ty::I64)) => Instr::TBranch { id, cond, target },
            (None, cond) => Instr::Branch { id, cond, target },
        });
        Ok(self.code.len() - 1)
    }

    fn emit_body(&mut self, stmts: &[Stmt]) -> Result<(), Trap> {
        for s in stmts {
            self.emit_stmt(s)?;
        }
        Ok(())
    }

    fn patch(&mut self, p: Patch, target_pc: u32) {
        p.apply(&mut self.code, &mut self.breaks, target_pc);
    }

    /// Opens a loop whose exit `first` jumps to.
    fn open_loop(&mut self, first: Patch) {
        self.depth += 1;
        self.patches.push((self.depth, first));
    }

    /// Closes the innermost loop: everything that exits it now jumps
    /// here.
    fn close_loop(&mut self) {
        let exit = self.here();
        let Compiler {
            code,
            breaks,
            patches,
            depth,
            ..
        } = self;
        patches.retain(|&(d, p)| {
            if d == *depth {
                p.apply(code, breaks, exit);
            }
            d != *depth
        });
        *depth -= 1;
    }

    /// Peephole: when the expression's last micro-op produced `src`,
    /// rewrites it into the fused atom-ending form that writes `var`
    /// directly. Temporaries are single-use by construction and no
    /// branch target can point between an expression's micro-ops and
    /// its consuming statement, so the rewrite is invisible except to
    /// the host clock. A typed micro-op fuses only into a word variable
    /// of its result type.
    fn fuse_assign(&mut self, src: Opd, var: Dst) -> Option<Instr> {
        let word = |ty: Ty| match var {
            Dst::Word(s, t) if t == ty => Some(s),
            _ => None,
        };
        Some(match (src, self.code.last()?) {
            (
                Opd::Word(r, ty),
                Instr::TUn {
                    op,
                    ty: aty,
                    class,
                    a,
                    dst,
                },
            ) if r == Reg::tmp(*dst) => Instr::TUnA {
                op: *op,
                ty: *aty,
                class: *class,
                a: *a,
                var: word(ty)?,
            },
            (
                Opd::Word(r, ty),
                Instr::TBin {
                    op,
                    class,
                    a,
                    b,
                    dst,
                },
            ) if r == Reg::tmp(*dst) => Instr::TBinA {
                op: *op,
                class: *class,
                a: *a,
                b: *b,
                var: word(ty)?,
            },
            (
                Opd::Word(r, ty),
                Instr::TLoad {
                    array, index, dst, ..
                },
            ) if r == Reg::tmp(*dst) => Instr::TLoadA {
                array: *array,
                ty,
                index: *index,
                var: word(ty)?,
            },
            (Opd::Tag(r), Instr::Un { op, a, dst }) if r == Reg::tmp(*dst) => Instr::UnA {
                op: *op,
                a: *a,
                var,
            },
            (Opd::Tag(r), Instr::Bin { op, a, b, dst }) if r == Reg::tmp(*dst) => Instr::BinA {
                op: *op,
                a: *a,
                b: *b,
                var,
            },
            (Opd::Tag(r), Instr::Load { array, index, dst }) if r == Reg::tmp(*dst) => {
                Instr::LoadA {
                    array: *array,
                    index: *index,
                    var,
                }
            }
            _ => return None,
        })
    }

    fn emit_stmt(&mut self, s: &Stmt) -> Result<(), Trap> {
        match s {
            Stmt::Assign { var, expr } => {
                let src = self.emit_expr(expr)?;
                let var = self.var_dst(*var)?;
                if let Some(f) = self.fuse_assign(src, var) {
                    *self.code.last_mut().expect("fusable tail") = f;
                    return Ok(());
                }
                self.code.push(match (var, src) {
                    (Dst::Word(var, ty), Opd::Word(src, sty)) if ty == sty => {
                        Instr::TAssign { var, src }
                    }
                    _ => Instr::Assign { var, src },
                });
            }
            Stmt::Store {
                array,
                index,
                value,
            } => {
                let index = self.emit_expr(index)?;
                let value = self.emit_expr(value)?;
                self.code.push(match (index, value) {
                    (Opd::Word(index, Ty::I64), Opd::Word(value, ty)) => Instr::TStore {
                        array: *array,
                        ty,
                        index,
                        value,
                    },
                    _ => Instr::Store {
                        array: *array,
                        index,
                        value,
                    },
                });
            }
            Stmt::AtomicRmw {
                op,
                array,
                index,
                value,
                old,
            } => {
                let index = self.emit_expr(index)?;
                let value = self.emit_expr(value)?;
                let old = match old {
                    Some(o) => Some(self.var_dst(*o)?),
                    None => None,
                };
                self.code.push(Instr::AtomicRmw {
                    op: *op,
                    array: *array,
                    index,
                    value,
                    old,
                });
            }
            Stmt::If {
                id,
                cond,
                then_body,
                else_body,
            } => {
                let br = self.emit_branch(*id, cond)?;
                self.emit_body(then_body)?;
                if else_body.is_empty() {
                    let join = self.here();
                    self.patch(Patch::Exit(br), join);
                } else {
                    let skip = self.code.len();
                    self.code.push(Instr::Jump(u32::MAX));
                    let else_t = self.here();
                    self.patch(Patch::Exit(br), else_t);
                    self.emit_body(else_body)?;
                    let join = self.here();
                    self.patch(Patch::Exit(skip), join);
                }
            }
            Stmt::While { id, cond, body } => {
                let test = self.here();
                let br = self.emit_branch(*id, cond)?;
                self.open_loop(Patch::Exit(br));
                self.emit_body(body)?;
                self.code.push(Instr::Jump(test));
                self.close_loop();
            }
            Stmt::For {
                id,
                var,
                start,
                end,
                body,
            } => {
                let start = self.emit_expr(start)?;
                let end = self.emit_expr(end)?;
                let var = self.var_dst(*var)?;
                let cur = self.word_slot();
                let lim = self.word_slot();
                self.code.push(Instr::ForEnter {
                    start,
                    end,
                    cur,
                    lim,
                });
                let test = self.code.len();
                self.code.push(Instr::ForTest {
                    id: *id,
                    var,
                    cur,
                    lim,
                    exit: u32::MAX,
                });
                self.open_loop(Patch::Exit(test));
                self.emit_body(body)?;
                let step = self.code.len();
                self.code.push(Instr::ForStep {
                    id: *id,
                    var,
                    cur,
                    lim,
                    body: test as u32 + 1,
                    exit: u32::MAX,
                });
                self.patches.push((self.depth, Patch::Exit(step)));
                self.close_loop();
            }
            Stmt::Break { levels } => {
                if *levels == 0 {
                    // The tree interpreter re-executes a `break 0`
                    // forever (it pops nothing and never advances);
                    // reproduce that exactly with a self-loop.
                    let here = self.here();
                    self.code.push(Instr::BreakJump(here));
                } else if *levels > self.depth {
                    self.code.push(Instr::Fault(
                        format!("break {levels} crosses a handler or function boundary")
                            .into_boxed_str(),
                    ));
                } else {
                    let idx = self.code.len();
                    self.code.push(Instr::BreakJump(u32::MAX));
                    let target = self.depth + 1 - levels;
                    self.patches.push((target, Patch::Exit(idx)));
                }
            }
            Stmt::Enq { queue, value } => {
                let value = self.emit_expr(value)?;
                self.code.push(Instr::Enq {
                    queue: *queue,
                    value,
                });
            }
            Stmt::EnqSel {
                queues,
                select,
                value,
            } => {
                let select = self.emit_expr(select)?;
                let value = self.emit_expr(value)?;
                self.code.push(Instr::EnqSel {
                    queues: queues.clone().into_boxed_slice(),
                    select,
                    value,
                });
            }
            Stmt::EnqCtrl { queue, ctrl } => {
                self.code.push(Instr::EnqCtrl {
                    queue: *queue,
                    ctrl: *ctrl,
                });
            }
            Stmt::Deq { var, queue } => {
                let var = self.var_dst(*var)?;
                let start = self.breaks.len();
                for k in 0..self.depth {
                    self.breaks.push(u32::MAX);
                    self.patches
                        .push((self.depth - k, Patch::Break(start + k as usize)));
                }
                self.code.push(Instr::Deq {
                    var,
                    queue: *queue,
                    breaks: start as u32,
                    depth: self.depth,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn compiles_nested_control_flow() {
        let mut b = FunctionBuilder::new("t");
        let n = b.param_i64("n");
        let i = b.var_i64("i");
        let x = b.var_i64("x");
        b.for_loop(i, Expr::i64(0), Expr::var(n), |b| {
            b.if_then(Expr::lt(Expr::var(i), Expr::i64(3)), |b| {
                b.assign(x, Expr::add(Expr::var(x), Expr::var(i)));
            });
        });
        let f = b.build();
        let p = compile(&f, &[]).unwrap();
        assert!(!p.is_empty());
        assert!(matches!(p.code.last(), Some(Instr::Halt)));
        // No unpatched targets may remain.
        for ins in &p.code {
            match ins {
                Instr::Jump(t) | Instr::BreakJump(t) => assert_ne!(*t, u32::MAX),
                Instr::Branch { target, .. }
                | Instr::BinBranch { target, .. }
                | Instr::TBranch { target, .. }
                | Instr::TBinBranch { target, .. } => assert_ne!(*target, u32::MAX),
                Instr::ForTest { exit, .. } | Instr::ForStep { exit, .. } => {
                    assert_ne!(*exit, u32::MAX)
                }
                _ => {}
            }
        }
        assert!(p.breaks.iter().all(|t| *t != u32::MAX));
        // Every register is a word: the compare-and-branch and the add
        // are typed.
        assert_eq!(p.tagged_slots(), 0);
        assert!(p
            .code
            .iter()
            .any(|i| matches!(i, Instr::TBinBranch { op: TOp::LtI, .. })));
        assert!(p.code.iter().any(|i| matches!(
            i,
            Instr::TBinA {
                op: TOp::AddI,
                class: UopClass::IntAlu,
                ..
            }
        )));
    }

    #[test]
    fn break_too_deep_compiles_to_fault() {
        let mut b = FunctionBuilder::new("t");
        let i = b.var_i64("i");
        b.for_loop(i, Expr::i64(0), Expr::i64(2), |b| {
            b.break_out(5);
        });
        let f = b.build();
        let p = compile(&f, &[]).unwrap();
        assert!(p.code.iter().any(|i| matches!(i, Instr::Fault(_))));
    }

    #[test]
    fn bad_var_id_is_rejected_at_compile_time() {
        let mut b = FunctionBuilder::new("t");
        let x = b.var_i64("x");
        b.assign(x, Expr::var(VarId(99)));
        let f = b.build();
        assert!(matches!(compile(&f, &[]), Err(Trap::BadId(_))));
    }

    /// A dequeue target on its own may receive anything, and a variable
    /// written with two types holds either: both stay tagged, and what
    /// reads them stays dynamic. An integer constant meeting a float
    /// word converts at compile time, so `y * 2` is a typed `MulF`.
    #[test]
    fn tagged_slots_are_the_dequeue_targets_and_the_mixed_writes() {
        let mut b = FunctionBuilder::new("t");
        let d = b.var_i64("d");
        let m = b.var_i64("m");
        let y = b.var_f64("y");
        b.deq(d, QueueId(0));
        b.assign(m, Expr::add(Expr::var(d), Expr::i64(1)));
        b.assign(m, Expr::f64(0.5));
        b.assign(y, Expr::mul(Expr::var(y), Expr::i64(2)));
        let f = b.build();
        let p = compile(&f, &[]).unwrap();
        assert_eq!(p.word_type(d), None);
        assert_eq!(p.word_type(m), None);
        assert_eq!(p.word_type(y), Some(Ty::F64));
        assert!(p.code.iter().any(|i| matches!(
            i,
            Instr::TBinA {
                op: TOp::MulF,
                class: UopClass::FpMul,
                ..
            }
        )));
        assert!(p
            .code
            .iter()
            .any(|i| matches!(i, Instr::BinA { op: BinOp::Add, .. })));
    }

    #[test]
    fn constants_keep_the_sign_of_zero() {
        let mut b = FunctionBuilder::new("t");
        let y = b.var_f64("y");
        b.assign(y, Expr::f64(0.0));
        b.assign(y, Expr::f64(-0.0));
        let p = compile(&b.build(), &[]).unwrap();
        let zeros: Vec<u64> = p
            .inits
            .iter()
            .filter_map(|(_, v)| match v {
                Value::F64(x) => Some(x.to_bits()),
                _ => None,
            })
            .collect();
        assert_eq!(zeros, [0.0f64.to_bits(), (-0.0f64).to_bits()]);
    }
}
