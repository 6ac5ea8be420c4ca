//! The event-driven SMT scheduler.
//!
//! Each stage thread is in one of three states:
//!
//! * **Ready** — will run a slice at its position in the round scan;
//! * **Waiting(reason)** — parked on the wait-list of the queue named by
//!   its [`BlockReason`]; *never stepped* until a queue event wakes it;
//! * **Finished** — the stage program terminated.
//!
//! Every successful enqueue wakes the waiters of that queue's
//! empty-list, every successful dequeue wakes its full-list (see
//! [`QueueEvent`]). Events are drained after *every* slice, so a thread
//! woken by an earlier-indexed thread still runs within the same round.
//!
//! ## Why skipping a parked thread is cycle-exact
//!
//! 1. A blocked `try_enq`/`try_deq` returns before touching timing state
//!    (see `timing.rs`), so re-stepping a still-blocked thread would be
//!    a timing no-op.
//! 2. A parked thread is skipped only while the awaited queue cannot
//!    have changed in its favour (no enqueue since it found the queue
//!    empty / no dequeue since it found it full); the skipped steps are
//!    exactly the no-ops of (1).
//! 3. All other `World` calls happen in round-scan order: the scan is
//!    index-ordered, slices are [`SLICE`]-bounded, and wakeups only
//!    clear the skip condition — they never reorder.
//!
//! The golden cycle counts and trace digests in
//! `tests/golden_cycles.rs` pin the resulting schedule.

use crate::queue::QueueEvent;
use crate::timing::{AdvanceEvent, TimingWorld, WAIT_EMPTY, WAIT_FULL};
use crate::trace::{TraceEvent, TraceVerdict, EV_FAULT, EV_SCHED, EV_WATCHDOG};
use crate::watchdog::{self, ThreadCond};
use phloem_ir::{queue_topology, BlockReason, FlatInterp, Pipeline, QueueId, StepResult, Trap};
use std::collections::BTreeSet;

/// Maximum atoms a thread executes before yielding to the next one
/// (preserves the SMT interleaving granularity of the seed model).
pub(crate) const SLICE: u32 = 128;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ThreadState {
    Ready,
    Waiting(BlockReason),
    Finished,
}

/// Runs all stage interpreters to completion of the compute stages.
///
/// # Errors
/// Propagates traps; reports deadlock (with the wait cycle) when a full
/// round makes no progress while compute stages remain.
pub(crate) fn run(
    world: &mut TimingWorld<'_>,
    interps: &mut [FlatInterp<'_>],
    is_compute: &[bool],
    pipeline: &Pipeline,
) -> Result<(), Trap> {
    let n = interps.len();
    let nq = world.queues.len();
    let mut state: Vec<ThreadState> = interps
        .iter()
        .map(|it| {
            if it.is_finished() {
                ThreadState::Finished
            } else {
                ThreadState::Ready
            }
        })
        .collect();
    let mut wait_empty: Vec<Vec<usize>> = vec![Vec::new(); nq];
    let mut wait_full: Vec<Vec<usize>> = vec![Vec::new(); nq];
    let mut woken = vec![false; n];
    let mut killed = vec![false; n];
    // Scratch buffer for draining the world's event log without
    // re-allocating every slice.
    let mut events: Vec<QueueEvent> = Vec::new();

    loop {
        let mut progressed = false;
        let mut compute_live = false;
        for i in 0..n {
            if state[i] == ThreadState::Finished {
                continue;
            }
            // Fault injection: kill thresholds key on the atom count,
            // checked at round boundaries, *before* the parked-skip so
            // a parked thread can still be killed.
            if let Some(at) = world.fault_kill_at(i) {
                if interps[i].steps() >= at {
                    killed[i] = true;
                    state[i] = ThreadState::Finished;
                    progressed = true;
                    let at_atoms = interps[i].steps();
                    world.emit(EV_FAULT, || TraceEvent::FaultKill {
                        thread: i as u32,
                        at_atoms,
                    });
                    continue;
                }
            }
            if is_compute[i] {
                compute_live = true;
            }
            if matches!(state[i], ThreadState::Waiting(_)) {
                // Parked: the awaited queue has not changed in this
                // thread's favour, so a step would be a timing no-op.
                continue;
            }
            let was_woken = std::mem::replace(&mut woken[i], false);
            let (steps, outcome) = interps[i].run_slice(world, SLICE)?;
            if steps > 0 {
                progressed = true;
            }
            match outcome {
                StepResult::Finished => {
                    progressed = true;
                    state[i] = ThreadState::Finished;
                    world.note_finish(i);
                    let at = world.threads[i].finish_time;
                    world.emit(EV_SCHED, || TraceEvent::Finish {
                        thread: i as u32,
                        at,
                    });
                }
                StepResult::Blocked(BlockReason::Budget) => {
                    // Slice preemption: still runnable next round.
                    state[i] = ThreadState::Ready;
                }
                StepResult::Blocked(b) => {
                    state[i] = ThreadState::Waiting(b);
                    let (queue, full) = match b {
                        BlockReason::QueueFull(q) => {
                            wait_full[q.0 as usize].push(i);
                            world.wait_flags[q.0 as usize] |= WAIT_FULL;
                            (q.0, true)
                        }
                        BlockReason::QueueEmpty(q) => {
                            wait_empty[q.0 as usize].push(i);
                            world.wait_flags[q.0 as usize] |= WAIT_EMPTY;
                            (q.0, false)
                        }
                        BlockReason::Budget => unreachable!("matched above"),
                    };
                    let at = world.threads[i].cursor();
                    world.emit(EV_SCHED, || TraceEvent::Park {
                        thread: i as u32,
                        queue,
                        full,
                        at,
                    });
                    if was_woken && steps == 0 {
                        // Woken, but another thread claimed the entry or
                        // slot first.
                        world.threads[i].stats.spurious_wakeups += 1;
                        let at = world.threads[i].cursor();
                        world.emit(EV_SCHED, || TraceEvent::SpuriousWake {
                            thread: i as u32,
                            at,
                        });
                    }
                }
                StepResult::Progress => unreachable!("run_slice never returns bare Progress"),
            }
            // Wake waiters of every queue this slice touched (including,
            // possibly, thread `i` itself if it both fed and drained the
            // same queue). The world only logs events for queues whose
            // wait flag is set, so this loop is empty on most slices.
            world.drain_events_into(&mut events);
            for ev in events.drain(..) {
                let (waiters, flag, at) = match ev {
                    QueueEvent::Enq(q, at) => (&mut wait_empty[q.0 as usize], WAIT_EMPTY, at),
                    QueueEvent::Deq(q, at) => (&mut wait_full[q.0 as usize], WAIT_FULL, at),
                };
                for j in waiters.drain(..) {
                    if state[j] == ThreadState::Finished {
                        // A parked thread killed by fault injection must
                        // stay dead; never resurrect it to Ready.
                        continue;
                    }
                    state[j] = ThreadState::Ready;
                    woken[j] = true;
                    world.threads[j].stats.wakeups += 1;
                    let queue = match ev {
                        QueueEvent::Enq(q, _) | QueueEvent::Deq(q, _) => q.0,
                    };
                    world.emit(EV_SCHED, || TraceEvent::Wake {
                        thread: j as u32,
                        queue,
                        at,
                    });
                }
                let q = match ev {
                    QueueEvent::Enq(q, _) | QueueEvent::Deq(q, _) => q.0 as usize,
                };
                world.wait_flags[q] &= !flag;
            }
        }
        if !compute_live {
            if killed.iter().any(|&k| k) {
                // Every compute stage either finished or was killed: a
                // kill-bearing run must still end in a structured trap,
                // never a silent success.
                let at = world.last_progress();
                world.emit(EV_WATCHDOG, || TraceEvent::Verdict {
                    verdict: TraceVerdict::Killed,
                    at,
                });
                return Err(watchdog::killed_trap(
                    world,
                    interps,
                    &conds(&state, &killed),
                    &pipeline.name,
                ));
            }
            return Ok(());
        }
        if !progressed {
            let at = world.last_progress();
            world.emit(EV_WATCHDOG, || TraceEvent::Verdict {
                verdict: TraceVerdict::Deadlock,
                at,
            });
            return Err(deadlock_trap(world, interps, &state, &killed, pipeline));
        }
        // One advance point per round: reclaim issue-calendar slots
        // and run the watchdog verdict — consolidated so reclamation
        // can never skip a watchdog check.
        if let Some(v) = world.advance_to(AdvanceEvent::RoundEnd) {
            // Cancellation is host-timing-driven (which round it fires
            // at depends on the wall clock), so unlike the two watchdog
            // limits it is deliberately NOT a trace event: emitting one
            // would make trace digests nondeterministic. The structured
            // trap carries the full snapshot instead.
            let tv = match v {
                watchdog::Verdict::CycleLimit => Some(TraceVerdict::CycleLimit),
                watchdog::Verdict::Livelock => Some(TraceVerdict::Livelock),
                watchdog::Verdict::Cancelled => None,
            };
            if let Some(tv) = tv {
                let at = world.last_progress();
                world.emit(EV_WATCHDOG, || TraceEvent::Verdict { verdict: tv, at });
            }
            return Err(watchdog::fire(
                v,
                world,
                interps,
                &conds(&state, &killed),
                &pipeline.name,
            ));
        }
    }
}

/// Maps scheduler thread states (plus the kill flags) to the watchdog's
/// snapshot-visible conditions.
fn conds(state: &[ThreadState], killed: &[bool]) -> Vec<ThreadCond> {
    state
        .iter()
        .zip(killed)
        .map(|(s, &k)| match (s, k) {
            (_, true) => ThreadCond::Killed,
            (ThreadState::Ready, _) => ThreadCond::Ready,
            (ThreadState::Waiting(b), _) => ThreadCond::Waiting(*b),
            (ThreadState::Finished, _) => ThreadCond::Finished,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Deadlock diagnostics
// ---------------------------------------------------------------------

/// Builds the deadlock trap: the wait cycle (stage -> blocked-on queue
/// -> stage owning the other end) when one exists, plus the shared
/// diagnostics snapshot (same format as the livelock/cycle-cap traps).
fn deadlock_trap(
    world: &TimingWorld<'_>,
    interps: &[FlatInterp<'_>],
    state: &[ThreadState],
    killed: &[bool],
    pipeline: &Pipeline,
) -> Trap {
    let qdesc = |q: QueueId| watchdog::qdesc(world, q);
    // Each queue's producers and consumer, handlers included (RA stages
    // too: their FSM is a stage program like any other).
    let topology = queue_topology(pipeline);
    let blocked: Vec<(usize, BlockReason)> = state
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            ThreadState::Waiting(b) => Some((i, *b)),
            _ => None,
        })
        .collect();

    // Edges: a blocked stage waits on the *live* stages that could
    // relieve it — the other end of the queue it is blocked on.
    let relievers = |reason: BlockReason| -> Vec<usize> {
        let Some(ends) = topology.iter().find(|e| Some(e.queue) == reason.queue()) else {
            return Vec::new();
        };
        let other_end = match reason {
            BlockReason::QueueEmpty(_) => &ends.producers[..],
            _ => ends.consumer.as_slice(),
        };
        other_end
            .iter()
            .copied()
            .filter(|&j| state[j] != ThreadState::Finished)
            .collect()
    };

    // DFS for a wait cycle among the blocked stages.
    let cycle = find_cycle(&blocked, &relievers);
    let cycle_str = match cycle {
        Some(path) => {
            let mut s = String::from("wait cycle: ");
            for (k, &i) in path.iter().enumerate() {
                let reason = blocked
                    .iter()
                    .find(|(j, _)| *j == i)
                    .map(|(_, b)| *b)
                    .expect("cycle nodes are blocked");
                let edge = match reason {
                    BlockReason::QueueFull(q) => format!("enq {}", qdesc(q)),
                    BlockReason::QueueEmpty(q) => format!("deq {}", qdesc(q)),
                    BlockReason::Budget => String::new(),
                };
                let node = |i: usize| {
                    let ra = if world.threads[i].is_ra { " (RA)" } else { "" };
                    format!("`{}`{}", interps[i].name(), ra)
                };
                s.push_str(&format!("{} --[{}]--> ", node(i), edge));
                if k + 1 == path.len() {
                    s.push_str(&node(path[0]));
                }
            }
            s
        }
        None => String::from(
            "no wait cycle (starvation: a blocked stage's counterpart stages have finished)",
        ),
    };

    Trap::Deadlock(format!(
        "pipeline `{}` deadlocked; {}; blocked stages: {}",
        pipeline.name,
        cycle_str,
        watchdog::render_snapshot(world, interps, &conds(state, killed))
    ))
}

/// Finds a cycle in the wait graph, returned as the list of stage
/// indices along it (each waits on the next, last waits on the first).
fn find_cycle(
    blocked: &[(usize, BlockReason)],
    relievers: &dyn Fn(BlockReason) -> Vec<usize>,
) -> Option<Vec<usize>> {
    let reason_of = |i: usize| blocked.iter().find(|(j, _)| *j == i).map(|(_, b)| *b);
    for &(start, _) in blocked {
        // DFS with an explicit path; only blocked stages can be part of
        // a cycle (a runnable stage would have made progress).
        let mut path: Vec<usize> = vec![start];
        let mut iters: Vec<Vec<usize>> = vec![reason_of(start).map(relievers).unwrap_or_default()];
        let mut visited = BTreeSet::new();
        visited.insert(start);
        while let Some(frontier) = iters.last_mut() {
            let Some(next) = frontier.pop() else {
                path.pop();
                iters.pop();
                continue;
            };
            if let Some(pos) = path.iter().position(|&p| p == next) {
                return Some(path[pos..].to_vec());
            }
            if !visited.insert(next) {
                continue;
            }
            let Some(r) = reason_of(next) else {
                continue; // not blocked: dead end for cycle purposes
            };
            path.push(next);
            iters.push(relievers(r));
        }
    }
    None
}
