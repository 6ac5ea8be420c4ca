//! Cooperative cancellation is cycle-neutral.
//!
//! The service layer threads a host-side `CancelToken` into sessions
//! (explicitly or via the ambient `CancelScope`), and the timing world
//! polls it at the same round boundaries the watchdog uses. The pins:
//!
//! * a token that never fires is **observationally free** — outcome,
//!   `RunStats`, final memory, and trace digest are bit-identical to a
//!   run with no token at all;
//! * a token cancelled *before* the run starts fires at the first round
//!   boundary — so the resulting `Trap::Cancelled` lands on the **same
//!   simulated cycle with the same message** however the token reached
//!   the session (the host clock only decides *whether* a round gets
//!   cancelled, never what the simulated state at that round is).

use phloem_benchsuite::fault_targets::{targets, FaultTarget};
use pipette_sim::{CancelScope, CancelToken, DigestSink, MachineConfig, Session};
use std::time::Duration;

/// Everything observable from one run: the outcome (makespan or the
/// trap, rendered), `RunStats` and final memory via `Debug`, and the
/// trace digest. Trapped runs still digest their partial trace.
struct Observed {
    outcome: String,
    stats: String,
    mem: String,
    digest: u64,
}

/// How the run acquires (or doesn't acquire) a cancel token.
enum Tok {
    None,
    /// `Session::set_cancel` with a deadline far beyond the run.
    ExplicitUnfired,
    /// Ambient `CancelScope` with a deadline far beyond the run.
    AmbientUnfired,
    /// `Session::set_cancel` with a token cancelled before the run.
    ExplicitPreCancelled,
    /// Ambient `CancelScope` with a token cancelled before the run.
    AmbientPreCancelled,
}

fn pre_cancelled() -> CancelToken {
    let t = CancelToken::new();
    t.cancel("test drain");
    t
}

fn observe(target: &FaultTarget, cfg: &MachineConfig, tok: &Tok) -> Observed {
    let _scope = match tok {
        Tok::AmbientUnfired => Some(CancelScope::enter(CancelToken::with_deadline(
            Duration::from_secs(3600),
        ))),
        Tok::AmbientPreCancelled => Some(CancelScope::enter(pre_cancelled())),
        _ => None,
    };
    let mut session = Session::new(cfg.clone(), target.mem.clone());
    match tok {
        Tok::ExplicitUnfired => {
            session.set_cancel(CancelToken::with_deadline(Duration::from_secs(3600)));
        }
        Tok::ExplicitPreCancelled => session.set_cancel(pre_cancelled()),
        Tok::None | Tok::AmbientUnfired | Tok::AmbientPreCancelled => {}
    }
    session.set_trace(Box::new(DigestSink::new()));
    let outcome = match session.run(&target.pipeline, &target.params) {
        Ok(end) => format!("end={end}"),
        Err(e) => format!("trap={e}"),
    };
    let sink = session.take_trace().unwrap();
    let digest = sink.downcast_ref::<DigestSink>().unwrap().digest();
    let (mem, stats) = session.finish();
    Observed {
        outcome,
        stats: format!("{stats:?}"),
        mem: format!("{mem:?}"),
        digest,
    }
}

/// An unfired token — explicit or ambient — changes nothing: same
/// outcome, stats, memory, and trace digest as a token-free run.
#[test]
fn unfired_tokens_are_observationally_free() {
    let cfg = MachineConfig::paper_1core();
    let all = targets(&cfg);
    for target in all.iter().take(3) {
        let bare = observe(target, &cfg, &Tok::None);
        for tok in [Tok::ExplicitUnfired, Tok::AmbientUnfired] {
            let armed = observe(target, &cfg, &tok);
            let label = target.name;
            assert_eq!(bare.outcome, armed.outcome, "{label}: outcome diverged");
            assert_eq!(bare.stats, armed.stats, "{label}: RunStats diverged");
            assert_eq!(bare.mem, armed.mem, "{label}: final memory diverged");
            assert_eq!(bare.digest, armed.digest, "{label}: trace digest diverged");
        }
    }
}

/// A pre-cancelled token traps at the first round boundary, with the
/// cancel reason in the trap. The grid is {target} × {explicit, ambient
/// token}: on each target both deliveries report the same
/// `Trap::Cancelled` at the same cycle with the same snapshot, the same
/// memory, and the same trace digest (cancellation itself emits no
/// trace event).
#[test]
fn pre_cancelled_runs_trap_identically_across_the_grid() {
    let cfg = MachineConfig::paper_1core();
    let all = targets(&cfg);
    for target in all.iter().take(3) {
        let explicit = observe(target, &cfg, &Tok::ExplicitPreCancelled);
        let ambient = observe(target, &cfg, &Tok::AmbientPreCancelled);
        let label = target.name;
        assert!(
            explicit.outcome.starts_with("trap=cancelled at cycle "),
            "{label}: expected a Cancelled trap, got {}",
            explicit.outcome
        );
        assert!(
            explicit.outcome.contains("test drain"),
            "{label}: trap must carry the cancel reason: {}",
            explicit.outcome
        );
        assert_eq!(explicit.outcome, ambient.outcome, "{label}: trap diverged");
        assert_eq!(explicit.mem, ambient.mem, "{label}: final memory diverged");
        assert_eq!(
            explicit.digest, ambient.digest,
            "{label}: trace digest diverged"
        );
    }
}
