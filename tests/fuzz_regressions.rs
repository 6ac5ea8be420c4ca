//! Minimized regression tests from `fuzzdiff` divergences (see
//! `crates/bench/src/bin/fuzzdiff.rs`). Each test is a shrunk failing
//! program committed with the cut/pass combination that exposed it.

use phloem_compiler::{decouple_with_cuts, CompileOptions, PassConfig};
use phloem_ir::{
    interp, ArrayDecl, BinOp, Expr, Function, FunctionBuilder, LoadId, MemState, Value,
};
use pipette_sim::{ExecBackend, Machine, MachineConfig, NativeConfig, Session};

/// fuzzdiff seed 0xf00d (13/100 programs): a `while(1)` CSR walk whose
/// exit test `if (i >= n) break` sits in the loop body. With control
/// values disabled (`queues_only`), every stage replicates the exit-if
/// skeleton, but the `break` inside was emitted only by its owning
/// stage — the consumer's copy read `if (_t1) { }` and spun forever,
/// deadlocking once the producer finished.
fn while_csr_walk() -> Function {
    let mut b = FunctionBuilder::new("fuzz");
    let n = b.param_i64("n");
    let bounds = b.array_i64("bounds");
    let items = b.array_i64("items");
    let out = b.array_i64("out");
    let acc = b.var_i64("acc");
    let i = b.var_i64("i");
    let s0 = b.var_i64("s0");
    let e0 = b.var_i64("e0");
    let j0 = b.var_i64("j0");
    let v0 = b.var_i64("v0");
    b.while_true(|f| {
        let ls = f.load(bounds, Expr::var(i));
        f.assign(s0, ls);
        let le = f.load(bounds, Expr::add(Expr::var(i), Expr::i64(1)));
        f.assign(e0, le);
        f.for_loop(j0, Expr::var(s0), Expr::var(e0), |f| {
            let lv = f.load(items, Expr::var(j0));
            f.assign(v0, lv);
            f.assign(acc, Expr::add(Expr::var(acc), Expr::var(v0)));
        });
        f.assign(i, Expr::add(Expr::var(i), Expr::i64(1)));
        f.if_then(Expr::bin(BinOp::Ge, Expr::var(i), Expr::var(n)), |f| {
            f.break_out(1)
        });
    });
    b.store(out, Expr::i64(0), Expr::var(acc));
    b.build()
}

fn mem() -> MemState {
    let mut mem = MemState::new();
    mem.alloc_i64(ArrayDecl::i64("bounds"), [0, 1, 3]);
    mem.alloc_i64(ArrayDecl::i64("items"), [10, 20, 30, 40]);
    mem.alloc(ArrayDecl::i64("out"), 2);
    mem
}

#[test]
fn while_exit_break_is_replicated_into_every_bounds_stage() {
    let func = while_csr_walk();
    let params = [("n", Value::I64(2))];
    let oracle = interp::run_serial(&func, mem(), &params).expect("serial oracle");
    let opts = CompileOptions {
        passes: PassConfig::queues_only(),
        ..CompileOptions::default()
    };
    // Both cut points (the second bounds load, the items load) produced
    // a consumer stage missing the exit break.
    for cut in [1, 2] {
        let pipe = decouple_with_cuts(&func, &[LoadId(cut)], &opts)
            .unwrap_or_else(|e| panic!("cut {cut} must compile: {e}"));
        let run = Machine::run_once(&MachineConfig::paper_1core(), &pipe, mem(), &params)
            .unwrap_or_else(|e| panic!("cut {cut} deadlocked: {e}"));
        assert!(
            run.mem.same_contents(&oracle.mem),
            "cut {cut}: memory diverged from the serial oracle"
        );
    }
}

/// The same exit-break reproducer on the native thread backend. The
/// historical bug deadlocked a consumer stage; under native execution
/// the identical miscompile would park the fleet and surface as a
/// `Deadlock` trap, so this pin keeps the skeleton-replication fix
/// honest on real threads too (`fuzzdiff --native` at 200 genomes ×
/// its thread grid flushed no additional divergences to pin as of the
/// backend's introduction).
#[test]
fn while_exit_break_pin_holds_on_the_native_backend() {
    let func = while_csr_walk();
    let params = [("n", Value::I64(2))];
    let oracle = interp::run_serial(&func, mem(), &params).expect("serial oracle");
    let opts = CompileOptions {
        passes: PassConfig::queues_only(),
        ..CompileOptions::default()
    };
    for cut in [1, 2] {
        let pipe = decouple_with_cuts(&func, &[LoadId(cut)], &opts)
            .unwrap_or_else(|e| panic!("cut {cut} must compile: {e}"));
        for threads in [1, 2, 4] {
            let mut s = Session::new(MachineConfig::paper_1core(), mem());
            s.set_backend(ExecBackend::Native(NativeConfig { threads }));
            s.run(&pipe, &params)
                .unwrap_or_else(|e| panic!("cut {cut} t{threads} trapped natively: {e}"));
            let (nmem, _) = s.finish();
            assert!(
                nmem.same_contents(&oracle.mem),
                "cut {cut} t{threads}: native memory diverged"
            );
        }
    }
}
