//! Differential tests: the flat bytecode engine ([`FlatInterp`]) must be
//! indistinguishable from the tree-walking oracle ([`StepInterp`]) at
//! the [`World`] boundary.
//!
//! A [`RecordingWorld`] logs every call (operation kind, thread,
//! arguments, dependence time, and result) and advances a private clock
//! on each one so returned times are non-trivial — any divergence in
//! call order, micro-op class, or time plumbing shows up as a log
//! mismatch. Both engines run the same program in lockstep; every
//! [`StepResult`] (including `Blocked` reasons), the full call log, the
//! final memory, and all variable values must agree exactly.
//!
//! Agreement alone would pass two engines that are wrong alike, so a
//! table of small programs with absolute expectations ([`cases`]) runs
//! on each engine through [`StageExec`].

use std::collections::VecDeque;

use phloem_ir::bytecode::compile;
use phloem_ir::{
    ArrayDecl, ArrayId, BinOp, BlockReason, BranchId, CtrlHandler, Expr, FlatInterp, Function,
    FunctionBuilder, FunctionalWorld, HandlerEnd, MemState, QueueId, StageExec, StageSpec,
    StepInterp, StepResult, Stmt, Tid, Time, Trap, UnOp, UopClass, Value, VarId, World,
};
use proptest::prelude::*;

/// One logged [`World`] call: kind, inputs, and result.
#[derive(Clone, Debug, PartialEq)]
enum Call {
    Uop(Tid, UopClass, Time, Time),
    Branch(Tid, BranchId, bool, Time, Time),
    Load(Tid, ArrayId, i64, Time, Value, Time),
    Store(Tid, ArrayId, i64, Value, Time, Time),
    Rmw(Tid, BinOp, ArrayId, i64, Value, Time, Value, Time),
    Enq(Tid, QueueId, Value, Time, Option<Time>),
    Deq(Tid, QueueId, Time, Option<(Value, Time)>),
}

/// A functional world with bounded queues that records every call and
/// returns a strictly increasing clock as each op's completion time.
struct RecordingWorld {
    mem: MemState,
    queues: Vec<VecDeque<Value>>,
    capacity: usize,
    clock: Time,
    log: Vec<Call>,
}

impl RecordingWorld {
    fn new(mem: MemState, nqueues: usize, capacity: usize) -> Self {
        RecordingWorld {
            mem,
            queues: (0..nqueues).map(|_| VecDeque::new()).collect(),
            capacity,
            clock: 0,
            log: Vec::new(),
        }
    }

    fn tick(&mut self) -> Time {
        self.clock += 1;
        self.clock
    }
}

impl World for RecordingWorld {
    fn uop(&mut self, t: Tid, class: UopClass, dep: Time) -> Time {
        let done = self.tick().max(dep + 1);
        self.log.push(Call::Uop(t, class, dep, done));
        done
    }

    fn branch(&mut self, t: Tid, site: BranchId, taken: bool, cond_ready: Time) -> Time {
        let done = self.tick().max(cond_ready + 1);
        self.log
            .push(Call::Branch(t, site, taken, cond_ready, done));
        done
    }

    fn load(
        &mut self,
        t: Tid,
        array: ArrayId,
        index: i64,
        dep: Time,
    ) -> Result<(Value, Time), Trap> {
        let v = self.mem.load(array, index)?;
        let done = self.tick().max(dep + 2);
        self.log.push(Call::Load(t, array, index, dep, v, done));
        Ok((v, done))
    }

    fn store(
        &mut self,
        t: Tid,
        array: ArrayId,
        index: i64,
        value: Value,
        dep: Time,
    ) -> Result<Time, Trap> {
        self.mem.store(array, index, value)?;
        let done = self.tick().max(dep + 2);
        self.log
            .push(Call::Store(t, array, index, value, dep, done));
        Ok(done)
    }

    fn atomic_rmw(
        &mut self,
        t: Tid,
        op: BinOp,
        array: ArrayId,
        index: i64,
        value: Value,
        dep: Time,
    ) -> Result<(Value, Time), Trap> {
        let old = self.mem.load(array, index)?;
        let new = phloem_ir::eval_binop(op, old, value)?;
        self.mem.store(array, index, new)?;
        let done = self.tick().max(dep + 3);
        self.log
            .push(Call::Rmw(t, op, array, index, value, dep, old, done));
        Ok((old, done))
    }

    fn try_enq(&mut self, t: Tid, q: QueueId, w: Value, dep: Time) -> Result<Option<Time>, Trap> {
        let cap = self.capacity;
        let queue = self
            .queues
            .get_mut(q.0 as usize)
            .ok_or_else(|| Trap::BadId(format!("queue {}", q.0)))?;
        let res = if queue.len() >= cap {
            None
        } else {
            queue.push_back(w);
            self.clock += 1;
            Some(self.clock.max(dep + 1))
        };
        self.log.push(Call::Enq(t, q, w, dep, res));
        Ok(res)
    }

    fn try_deq(&mut self, t: Tid, q: QueueId, dep: Time) -> Result<Option<(Value, Time)>, Trap> {
        let queue = self
            .queues
            .get_mut(q.0 as usize)
            .ok_or_else(|| Trap::BadId(format!("queue {}", q.0)))?;
        let res = match queue.pop_front() {
            Some(w) => {
                self.clock += 1;
                Some((w, self.clock.max(dep + 1)))
            }
            None => None,
        };
        self.log.push(Call::Deq(t, q, dep, res));
        Ok(res)
    }

    fn mem(&self) -> &MemState {
        &self.mem
    }

    fn mem_mut(&mut self) -> &mut MemState {
        &mut self.mem
    }
}

const BUDGET: u64 = 200_000;

/// What the external driver does when a single-stage program blocks.
#[derive(Clone, Copy)]
enum Unblock {
    /// Feed `Value::I64(counter)` on empty, drain on full.
    Data,
    /// Like `Data`, but every 3rd fed value is `Value::Ctrl(7)`.
    CtrlEvery3,
}

/// Runs one program under both engines in lockstep and asserts full
/// observational equality: per-step results, world call logs, final
/// memory, and every variable.
fn assert_engines_agree(
    f: &Function,
    handlers: &[CtrlHandler],
    mem: MemState,
    nqueues: usize,
    capacity: usize,
    unblock: Unblock,
) {
    f.validate().expect("test kernel must validate");
    let prog = compile(f, handlers).expect("compile");
    let mut wt = RecordingWorld::new(mem.clone(), nqueues, capacity);
    let mut wf = RecordingWorld::new(mem, nqueues, capacity);
    let spec = StageSpec { func: f, handlers };
    let mut tree = StepInterp::new(spec, Tid(0), &[]).with_budget(BUDGET);
    let mut flat = FlatInterp::new(&prog, Tid(0), &[]).with_budget(BUDGET);
    let mut fed = 0i64;
    let mut step = 0u64;
    let trapped = loop {
        step += 1;
        let rt = tree.step(&mut wt);
        let rf = flat.step(&mut wf);
        assert_eq!(rt, rf, "engines diverged at step {step}");
        match rt {
            Err(_) => break true,
            Ok(StepResult::Finished) => break false,
            Ok(StepResult::Blocked(BlockReason::QueueFull(q))) => {
                // Drain one element from both worlds identically.
                for w in [&mut wt, &mut wf] {
                    w.queues[q.0 as usize].pop_front().expect("full queue");
                }
            }
            Ok(StepResult::Blocked(BlockReason::QueueEmpty(q))) => {
                fed += 1;
                let v = match unblock {
                    Unblock::CtrlEvery3 if fed % 3 == 0 => Value::Ctrl(7),
                    _ => Value::I64(fed),
                };
                for w in [&mut wt, &mut wf] {
                    w.queues[q.0 as usize].push_back(v);
                }
            }
            Ok(_) => {}
        }
        assert!(step < 4 * BUDGET, "lockstep driver did not terminate");
    };
    assert_eq!(wt.log, wf.log, "world call logs diverged");
    assert!(wt.mem.same_contents(&wf.mem), "final memory diverged");
    for v in 0..f.vars.len() as u32 {
        assert_eq!(
            tree.var(VarId(v)),
            flat.var(VarId(v)),
            "variable {v} diverged"
        );
    }
    // A trap ends the run. The flat engine keeps the step counter and the
    // flow time in locals for the slice and leaves through `?` without
    // writing them back, so after a trap they are not comparable (the
    // budget trap, which reports the counter, writes it back itself).
    if !trapped {
        assert_eq!(tree.steps(), flat.steps(), "step counts diverged");
        assert_eq!(tree.flow_time(), flat.flow_time(), "flow times diverged");
    }
}

/// Runs a two-stage producer/consumer pipeline under both engines,
/// round-robin, and asserts observational equality.
fn assert_engines_agree_pipeline(
    stages: &[(&Function, &[CtrlHandler])],
    mem: MemState,
    nqueues: usize,
    capacity: usize,
) {
    let progs: Vec<_> = stages
        .iter()
        .map(|(f, h)| compile(f, h).expect("compile"))
        .collect();
    let mut wt = RecordingWorld::new(mem.clone(), nqueues, capacity);
    let mut wf = RecordingWorld::new(mem, nqueues, capacity);
    let mut tree: Vec<_> = stages
        .iter()
        .enumerate()
        .map(|(i, (f, h))| {
            StepInterp::new(
                StageSpec {
                    func: f,
                    handlers: h,
                },
                Tid(i as u32),
                &[],
            )
            .with_budget(BUDGET)
        })
        .collect();
    let mut flat: Vec<_> = progs
        .iter()
        .enumerate()
        .map(|(i, p)| FlatInterp::new(p, Tid(i as u32), &[]).with_budget(BUDGET))
        .collect();
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        let mut all_done = true;
        for i in 0..stages.len() {
            if tree[i].is_finished() {
                assert!(flat[i].is_finished(), "finish state diverged on stage {i}");
                continue;
            }
            let rt = tree[i].step(&mut wt);
            let rf = flat[i].step(&mut wf);
            assert_eq!(rt, rf, "stage {i} diverged in round {rounds}");
            if !matches!(rt, Ok(StepResult::Finished)) {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
        assert!(rounds < 4 * BUDGET, "pipeline did not terminate");
    }
    assert_eq!(wt.log, wf.log, "world call logs diverged");
    assert!(wt.mem.same_contents(&wf.mem), "final memory diverged");
}

// ---------------------------------------------------------------------
// Handcrafted scenarios: queues, control values, handlers, blocking.
// ---------------------------------------------------------------------

/// Producer enqueues 0..n then a control value; consumer accumulates
/// into memory until its handler breaks the loop. Tiny queue capacity
/// forces QueueFull and QueueEmpty blocks on both sides.
#[test]
fn producer_consumer_with_ctrl_handler() {
    let q = QueueId(0);
    let mut mem = MemState::new();
    mem.alloc_i64(ArrayDecl::i64("out"), [0]);

    let mut pb = FunctionBuilder::new("producer");
    let i = pb.var_i64("i");
    pb.for_loop(i, Expr::i64(0), Expr::i64(13), |b| {
        b.enq(q, Expr::var(i));
    });
    pb.enq_ctrl(q, 7);
    let producer = pb.build();

    let mut cb = FunctionBuilder::new("consumer");
    let out = cb.array_i64("out");
    let x = cb.var_i64("x");
    cb.while_loop(Expr::i64(1), |b| {
        b.deq(x, q);
        b.atomic_rmw(BinOp::Add, out, Expr::i64(0), Expr::var(x), None);
    });
    let consumer = cb.build();
    let handlers = vec![CtrlHandler {
        queue: q,
        ctrl: Some(7),
        bind: None,
        body: vec![],
        end: HandlerEnd::BreakLoops(1),
    }];

    assert_engines_agree_pipeline(&[(&producer, &[]), (&consumer, &handlers)], mem, 1, 2);
}

/// A handler with a non-empty body, a bound control value, and
/// FinishWhen termination; the dequeue sits inside nested loops so the
/// handler's break targets cross loop levels.
#[test]
fn handler_body_bind_and_finish_when() {
    let q = QueueId(0);
    let mut b = FunctionBuilder::new("consumer");
    let x = b.var_i64("x");
    let seen = b.var_i64("seen");
    let cv = b.var_i64("cv");
    let i = b.var_i64("i");
    b.for_loop(i, Expr::i64(0), Expr::i64(1000), |b| {
        b.while_loop(Expr::i64(1), |b| {
            b.deq(x, q);
            b.assign(seen, Expr::add(Expr::var(seen), Expr::var(x)));
        });
    });
    let f = b.build();
    let handlers = vec![
        CtrlHandler {
            queue: q,
            ctrl: Some(7),
            bind: Some(cv),
            body: vec![],
            end: HandlerEnd::FinishWhen(seen, 40),
        },
        CtrlHandler {
            queue: q,
            ctrl: None,
            bind: None,
            body: vec![],
            end: HandlerEnd::BreakLoops(2),
        },
    ];
    assert_engines_agree(&f, &handlers, MemState::new(), 1, 4, Unblock::CtrlEvery3);
}

/// A wildcard handler whose end is BreakWhen, exercised alongside an
/// exact-tag handler that resumes (exact match must win).
#[test]
fn handler_precedence_and_break_when() {
    let q = QueueId(0);
    let mut b = FunctionBuilder::new("consumer");
    let x = b.var_i64("x");
    let seen = b.var_i64("seen");
    b.while_loop(Expr::i64(1), |b| {
        b.deq(x, q);
        b.assign(seen, Expr::add(Expr::var(seen), Expr::i64(1)));
    });
    let f = b.build();
    let handlers = vec![
        CtrlHandler {
            queue: q,
            ctrl: Some(9),
            bind: None,
            body: vec![],
            end: HandlerEnd::Resume,
        },
        CtrlHandler {
            queue: q,
            ctrl: None,
            bind: None,
            body: vec![Stmt::Assign {
                var: seen,
                expr: Expr::add(Expr::var(seen), Expr::i64(100)),
            }],
            end: HandlerEnd::BreakWhen(seen, 101, 1),
        },
    ];
    assert_engines_agree(&f, &handlers, MemState::new(), 1, 4, Unblock::CtrlEvery3);
}

/// EnqSel distributes across replicas; a full target queue blocks and
/// the retry must not re-issue the select micro-op.
#[test]
fn enq_sel_blocks_without_reissuing_select() {
    let qs = [QueueId(0), QueueId(1)];
    let mut b = FunctionBuilder::new("distributor");
    let i = b.var_i64("i");
    b.for_loop(i, Expr::i64(0), Expr::i64(9), |b| {
        b.enq_sel(
            qs.to_vec(),
            Expr::var(i),
            Expr::mul(Expr::var(i), Expr::i64(3)),
        );
    });
    let f = b.build();
    assert_engines_agree(&f, &[], MemState::new(), 2, 2, Unblock::Data);
}

/// Loads, stores, atomics, nested loops, and both if arms, all with
/// non-trivial dependence times.
#[test]
fn memory_and_control_kernel() {
    let mut mem = MemState::new();
    mem.alloc_i64(ArrayDecl::i64("a"), (0..16).map(|v| v * 3 % 7));
    mem.alloc_i64(ArrayDecl::i64("out"), vec![0; 16]);

    let mut b = FunctionBuilder::new("kernel");
    let a = b.array_i64("a");
    let out = b.array_i64("out");
    let i = b.var_i64("i");
    let j = b.var_i64("j");
    let x = b.var_i64("x");
    let old = b.var_i64("old");
    b.for_loop(i, Expr::i64(0), Expr::i64(16), |b| {
        let l = b.load(a, Expr::var(i));
        b.assign(x, l);
        b.if_else(
            Expr::lt(Expr::var(x), Expr::i64(3)),
            |b| {
                b.for_loop(j, Expr::i64(0), Expr::var(x), |b| {
                    b.atomic_rmw(BinOp::Add, out, Expr::var(j), Expr::i64(1), Some(old));
                });
            },
            |b| {
                b.store(out, Expr::var(i), Expr::mul(Expr::var(x), Expr::var(x)));
            },
        );
    });
    let f = b.build();
    assert_engines_agree(&f, &[], mem, 0, 0, Unblock::Data);
}

// ---------------------------------------------------------------------
// Absolute expectations: one table, both engines.
// ---------------------------------------------------------------------

/// What a program must do, whichever engine runs it.
enum Expect {
    /// Runs to the end without blocking; the variable then holds the value.
    Var(VarId, Value),
    /// Blocks on the full queue at least once, and finishes once the
    /// driver has drained a value per block.
    BlocksOnFull(QueueId),
    /// Traps with `OpBudgetExceeded` under this budget.
    BudgetTrap(u64),
}

/// One row: a program, its handlers, the world it starts in (queue
/// count, capacity, values already in queue 0) and the expectation.
struct Case {
    name: &'static str,
    func: Function,
    handlers: Vec<CtrlHandler>,
    queues: (usize, usize),
    preload: Vec<Value>,
    expect: Expect,
}

fn cases() -> Vec<Case> {
    let q = QueueId(0);
    let mut cases = Vec::new();

    // sum = 0; for i in 0..10 { sum += i }
    let mut b = FunctionBuilder::new("sum");
    let sum = b.var_i64("sum");
    let i = b.var_i64("i");
    b.assign(sum, Expr::i64(0));
    b.for_loop(i, Expr::i64(0), Expr::i64(10), |b| {
        b.assign(sum, Expr::bin(BinOp::Add, Expr::var(sum), Expr::var(i)));
    });
    cases.push(Case {
        name: "sum_loop",
        func: b.build(),
        handlers: vec![],
        queues: (0, 0),
        preload: vec![],
        expect: Expect::Var(sum, Value::I64(45)),
    });

    // found = -1; for i in 0..5 { for j in 0..5 { if i*5+j == 7 { found = j; break 2 } } }
    let mut b = FunctionBuilder::new("find");
    let found = b.var_i64("found");
    let i = b.var_i64("i");
    let j = b.var_i64("j");
    b.assign(found, Expr::i64(-1));
    b.for_loop(i, Expr::i64(0), Expr::i64(5), |b| {
        b.for_loop(j, Expr::i64(0), Expr::i64(5), |b| {
            let cond = Expr::eq(
                Expr::add(Expr::mul(Expr::var(i), Expr::i64(5)), Expr::var(j)),
                Expr::i64(7),
            );
            b.if_then(cond, |b| {
                b.assign(found, Expr::var(j));
                b.break_out(2);
            });
        });
    });
    cases.push(Case {
        name: "nested_break",
        func: b.build(),
        handlers: vec![],
        queues: (0, 0),
        preload: vec![],
        expect: Expect::Var(found, Value::I64(2)),
    });

    // A capacity-2 queue must block a 4-element producer.
    let mut b = FunctionBuilder::new("producer");
    let i = b.var_i64("i");
    b.for_loop(i, Expr::i64(0), Expr::i64(4), |b| {
        b.enq(q, Expr::var(i));
    });
    cases.push(Case {
        name: "enq_blocks_on_full_queue_and_resumes",
        func: b.build(),
        handlers: vec![],
        queues: (1, 2),
        preload: vec![],
        expect: Expect::BlocksOnFull(q),
    });

    let mut b = FunctionBuilder::new("spin");
    let x = b.var_i64("x");
    b.while_loop(Expr::i64(1), |b| {
        b.assign(x, Expr::add(Expr::var(x), Expr::i64(1)));
    });
    cases.push(Case {
        name: "budget_trap",
        func: b.build(),
        handlers: vec![],
        queues: (0, 0),
        preload: vec![],
        expect: Expect::BudgetTrap(100),
    });

    // while(true) { deq x; sum += x }, with a handler on CV 7 that
    // breaks the dequeue's enclosing loop.
    let mut b = FunctionBuilder::new("consumer");
    let x = b.var_i64("x");
    let sum = b.var_i64("sum");
    b.while_loop(Expr::i64(1), |b| {
        b.deq(x, q);
        b.assign(sum, Expr::add(Expr::var(sum), Expr::var(x)));
    });
    cases.push(Case {
        name: "ctrl_handler_breaks_inner_loop",
        func: b.build(),
        handlers: vec![CtrlHandler {
            queue: q,
            ctrl: Some(7),
            bind: None,
            body: vec![],
            end: HandlerEnd::BreakLoops(1),
        }],
        queues: (1, 8),
        preload: vec![Value::I64(1), Value::I64(2), Value::I64(3), Value::Ctrl(7)],
        expect: Expect::Var(sum, Value::I64(6)),
    });

    let mut b = FunctionBuilder::new("consumer");
    let x = b.var_i64("x");
    let saw = b.var_i64("saw_ctrl");
    b.deq(x, q);
    b.assign(saw, Expr::is_ctrl(Expr::var(x)));
    cases.push(Case {
        name: "deq_without_handler_delivers_ctrl_value",
        func: b.build(),
        handlers: vec![],
        queues: (1, 8),
        preload: vec![Value::Ctrl(3)],
        expect: Expect::Var(saw, Value::I64(1)),
    });
    cases
}

impl Case {
    fn world(&self) -> FunctionalWorld {
        let (nqueues, capacity) = self.queues;
        let mut world = FunctionalWorld::new(MemState::new(), nqueues, capacity, 2);
        for v in &self.preload {
            let enq = world.try_enq(Tid(1), QueueId(0), *v, 0);
            enq.unwrap().expect("the preload fits its queue");
        }
        world
    }

    fn budget(&self) -> u64 {
        match self.expect {
            Expect::BudgetTrap(n) => n,
            _ => BUDGET,
        }
    }

    /// Steps `it` to its end in a fresh world, draining one value each
    /// time it blocks on a full queue, and checks the expectation;
    /// `var` reads a variable of `it` afterwards.
    fn run<E: StageExec>(&self, engine: &str, it: &mut E, var: impl Fn(&E, VarId) -> Value) {
        let at = format!("{} on the {engine} engine", self.name);
        let mut world = self.world();
        let mut full_blocks = Vec::new();
        let end = loop {
            match it.step(&mut world) {
                Ok(StepResult::Progress) => {}
                Ok(StepResult::Blocked(BlockReason::QueueFull(q))) => {
                    full_blocks.push(q);
                    let (v, _) = world.try_deq(Tid(1), q, 0).unwrap().unwrap();
                    assert!(matches!(v, Value::I64(_)), "{at}: drained {v:?}");
                }
                other => break other,
            }
        };
        match self.expect {
            Expect::Var(v, want) => {
                assert_eq!(end, Ok(StepResult::Finished), "{at}");
                assert_eq!(full_blocks, [], "{at}");
                assert_eq!(var(it, v), want, "{at}");
            }
            Expect::BlocksOnFull(q) => {
                assert_eq!(end, Ok(StepResult::Finished), "{at}");
                assert!(!full_blocks.is_empty(), "{at}: never blocked");
                assert!(full_blocks.iter().all(|b| *b == q), "{at}: {full_blocks:?}");
            }
            Expect::BudgetTrap(n) => assert_eq!(end, Err(Trap::OpBudgetExceeded(n)), "{at}"),
        }
    }
}

#[test]
fn absolute_expectations_hold_on_both_engines() {
    for case in cases() {
        case.func.validate().expect(case.name);
        let prog = compile(&case.func, &case.handlers).expect(case.name);
        let spec = StageSpec {
            func: &case.func,
            handlers: &case.handlers,
        };
        let mut tree = StepInterp::new(spec, Tid(0), &[]).with_budget(case.budget());
        case.run("tree", &mut tree, |it, v| it.var(v));
        let mut flat = FlatInterp::new(&prog, Tid(0), &[]).with_budget(case.budget());
        case.run("flat", &mut flat, |it, v| it.var(v));
    }
}

// ---------------------------------------------------------------------
// Randomized kernels.
// ---------------------------------------------------------------------

const ARR_LEN: i64 = 8;

/// Builds a random structured kernel from a flat opcode list. Loops and
/// ifs nest one level via a fixed inner pattern parameterized by the
/// operand byte, which is enough to exercise every instruction form.
fn build_random_kernel(ops: &[(u8, u8)]) -> (Function, MemState) {
    let mut mem = MemState::new();
    mem.alloc_i64(ArrayDecl::i64("a"), (0..ARR_LEN).map(|v| (v * 5 + 2) % 9));
    mem.alloc_i64(ArrayDecl::i64("out"), vec![0; ARR_LEN as usize]);
    let q = QueueId(0);

    let mut b = FunctionBuilder::new("rand_kernel");
    let a = b.array_i64("a");
    let out = b.array_i64("out");
    let x = b.var_i64("x");
    let y = b.var_i64("y");
    let i = b.var_i64("i");
    let old = b.var_i64("old");
    let idx = |e: Expr| Expr::bin(BinOp::Rem, e, Expr::i64(ARR_LEN));
    for &(op, arg) in ops {
        let k = i64::from(arg);
        match op % 10 {
            0 => b.assign(x, Expr::add(Expr::var(x), Expr::i64(k % 5))),
            1 => b.assign(
                y,
                Expr::add(Expr::mul(Expr::var(x), Expr::i64(3)), Expr::var(y)),
            ),
            2 => {
                let l = b.load(a, idx(Expr::var(x)));
                b.assign(x, l);
            }
            3 => b.store(out, idx(Expr::var(y)), Expr::var(x)),
            4 => b.atomic_rmw(BinOp::Max, out, idx(Expr::var(x)), Expr::var(y), Some(old)),
            5 => b.for_loop(i, Expr::i64(0), Expr::i64(k % 4 + 1), |b| {
                b.assign(x, Expr::add(Expr::var(x), Expr::var(i)));
                if k % 2 == 0 {
                    b.store(out, idx(Expr::var(i)), Expr::var(x));
                }
            }),
            6 => b.if_else(
                Expr::lt(Expr::var(x), Expr::i64(k % 20)),
                |b| b.assign(y, Expr::add(Expr::var(y), Expr::i64(1))),
                |b| b.assign(x, Expr::bin(BinOp::Rem, Expr::var(x), Expr::i64(17))),
            ),
            7 => {
                // Bounded while: strictly decreasing loop variable.
                b.assign(i, Expr::i64(k % 6));
                b.while_loop(Expr::bin(BinOp::Gt, Expr::var(i), Expr::i64(0)), |b| {
                    b.assign(i, Expr::bin(BinOp::Sub, Expr::var(i), Expr::i64(1)));
                    b.assign(y, Expr::add(Expr::var(y), Expr::var(i)));
                });
            }
            8 => b.enq(q, Expr::var(x)),
            _ => b.deq(y, q),
        }
    }
    (b.build(), mem)
}

/// Builds a kernel whose `if` and `while` conditions are single binary
/// operations (so they lower to the fused `BinIf`/`BinWhile`) over
/// operands of every dynamic type: an integer variable, a float
/// variable, a variable holding whatever was last dequeued (an integer
/// or, with no handler installed, a raw control value), and integer and
/// float constants at the edges, some behind a unary operator. Each
/// statement is `(shape, op, lhs, rhs)`; most conditions evaluate, some
/// trap, and both engines must do either identically.
fn build_mixed_condition_kernel(stmts: &[(u8, u8, u8, u8)]) -> Function {
    let q = QueueId(0);
    let mut b = FunctionBuilder::new("mixed_conditions");
    let x = b.var_i64("x");
    let f = b.var_f64("f");
    let c = b.var_i64("c");
    let n = b.var_i64("n");
    b.assign(x, Expr::i64(3));
    b.assign(f, Expr::f64(2.5));
    let operand = |k: u8| match k % 15 {
        // Integers twice as often as the rest: they are the fast path.
        0 | 1 => Expr::var(x),
        2 => Expr::var(f),
        3 => Expr::var(c),
        4 => Expr::i64(0),
        5 => Expr::i64(-1),
        6 => Expr::i64(64),
        7 => Expr::i64(i64::MAX),
        8 => Expr::i64(i64::MIN),
        9 => Expr::f64(1.5),
        10 => Expr::f64(-0.0),
        11 => Expr::f64(f64::NAN),
        // A unary micro-op feeding the fused compare.
        12 => Expr::un(UnOp::Not, Expr::var(x)),
        13 => Expr::un(UnOp::Neg, Expr::var(f)),
        _ => Expr::un(UnOp::BitNot, Expr::var(c)),
    };
    for &(shape, op, lhs, rhs) in stmts {
        let cond = Expr::bin(
            BinOp::ALL[op as usize % BinOp::ALL.len()],
            operand(lhs),
            operand(rhs),
        );
        match shape % 4 {
            0 => b.deq(c, q),
            1 | 2 => b.if_else(
                cond,
                |b| b.assign(x, Expr::add(Expr::var(x), Expr::i64(1))),
                |b| b.assign(f, Expr::sub(Expr::var(f), Expr::f64(0.5))),
            ),
            _ => {
                // Whatever the condition does, four trips at most.
                b.assign(n, Expr::i64(0));
                b.while_loop(cond, |b| {
                    b.assign(x, Expr::sub(Expr::var(x), Expr::i64(1)));
                    b.assign(n, Expr::add(Expr::var(n), Expr::i64(1)));
                    b.if_then(Expr::bin(BinOp::Ge, Expr::var(n), Expr::i64(4)), |b| {
                        b.break_out(1)
                    });
                });
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized kernels: both engines must agree on every step result,
    /// every world call (class, args, dependence and completion times),
    /// final memory, and all variables.
    #[test]
    fn engines_agree_on_random_kernels(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..24),
        cap in 1usize..4,
    ) {
        let (f, mem) = build_random_kernel(&ops);
        assert_engines_agree(&f, &[], mem, 1, cap, Unblock::Data);
    }

    /// Randomized kernels again, but fed control values (with a wildcard
    /// handler) so dispatch paths run under random surrounding code.
    #[test]
    fn engines_agree_on_random_kernels_with_ctrl(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..16),
    ) {
        let (f, mem) = build_random_kernel(&ops);
        let seen = VarId(1); // `y` in build_random_kernel
        let handlers = vec![CtrlHandler {
            queue: QueueId(0),
            ctrl: None,
            bind: None,
            body: vec![],
            end: HandlerEnd::FinishWhen(seen, i64::MAX),
        }];
        assert_engines_agree(&f, &handlers, mem, 1, 2, Unblock::CtrlEvery3);
    }

    /// Fused compare-and-branch conditions over mixed integer, float and
    /// control operands: the integer fast path, the generic fall-through
    /// and every trap in between must leave the same call log.
    #[test]
    fn engines_agree_on_mixed_type_conditions(
        stmts in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..12,
        ),
    ) {
        let f = build_mixed_condition_kernel(&stmts);
        assert_engines_agree(&f, &[], MemState::new(), 1, 2, Unblock::CtrlEvery3);
    }
}
