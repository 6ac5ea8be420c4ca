//! Deterministic, seeded fault injection for the timed simulator.
//!
//! A [`FaultPlan`] perturbs one pipeline invocation with hardware-shaped
//! faults: queue-capacity squeezes, op-latency spikes (RA latency
//! variance), transient dequeue-delivery stalls, and thread kills. The
//! design invariant — enforced by `fuzzdiff --faults` — is that a
//! faulted run always terminates in
//! bounded cycles with either the correct output or a structured
//! [`phloem_ir::Trap`]: never a hang, never silent corruption.
//!
//! ## Determinism
//!
//! Every fault trigger is keyed on simulated state, never on host
//! behaviour, so the same plan gives the same run every time:
//!
//! * **enqueue/dequeue ordinals** (the per-queue count of *successful*
//!   operations so far, within one invocation);
//! * **simulated issue cycles**;
//! * **per-stage atom counts** ([`phloem_ir::StageExec::steps`]),
//!   checked at scheduler round boundaries.
//!
//! Faults also never *unblock-then-reblock* a parked thread behind the
//! event-driven scheduler's back: a squeeze only makes full-checks
//! stricter (the wake event for the squeezed queue still fires on every
//! dequeue), and the latency faults are pure completion-time additions
//! that never turn a successful op into a blocked one.

use phloem_ir::Time;

/// One injected fault (see the module docs for determinism rules).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Clamp a queue's effective capacity to `cap` entries while its
    /// successful-enqueue ordinal lies in `[from_enq, until_enq)`.
    /// Models transient back-pressure (e.g. a partially power-gated
    /// queue bank); the physical slot-recycling timing is untouched.
    QueueSqueeze {
        /// Architectural queue index.
        queue: u16,
        /// Effective capacity during the window (clamped to >= 1).
        cap: usize,
        /// First enqueue ordinal affected.
        from_enq: u64,
        /// First enqueue ordinal no longer affected.
        until_enq: u64,
    },
    /// Add `extra` cycles to every uop/load completion of one thread
    /// whose issue cycle lies in `[from, until)`. Models RA latency
    /// spikes (DRAM refresh, link contention) when aimed at an RA
    /// thread, and slow-core jitter otherwise.
    LatencySpike {
        /// Hardware thread (stage index).
        thread: usize,
        /// Extra completion latency in cycles.
        extra: u64,
        /// First issue cycle affected.
        from: Time,
        /// First issue cycle no longer affected.
        until: Time,
    },
    /// Add `extra` cycles to the delivery time of dequeues on `queue`
    /// whose successful-dequeue ordinal lies in `[from_deq, until_deq)`.
    /// Models a transient stall in the queue's read port.
    DequeueStall {
        /// Architectural queue index.
        queue: u16,
        /// Extra delivery latency in cycles.
        extra: u64,
        /// First dequeue ordinal affected.
        from_deq: u64,
        /// First dequeue ordinal no longer affected.
        until_deq: u64,
    },
    /// Kill one thread once it has executed `after_atoms` interpreter
    /// atoms (checked at round boundaries). A killed thread stops
    /// executing; the run can then only end in a structured trap
    /// ([`phloem_ir::Trap::ThreadKilled`] if the survivors drain,
    /// usually a starvation deadlock otherwise) — never a silent
    /// success.
    ThreadKill {
        /// Hardware thread (stage index).
        thread: usize,
        /// Atom count at which the kill triggers.
        after_atoms: u64,
    },
}

/// A set of faults applied to subsequent invocations of a
/// [`crate::Session`] (ordinal and cycle windows are relative to each
/// invocation's own counters and launch base, so plans compose with
/// multi-invocation hosts).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injected faults; effects of overlapping faults stack
    /// (capacities take the minimum, latencies add).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan over an explicit fault list.
    pub fn new(faults: Vec<Fault>) -> FaultPlan {
        FaultPlan { faults }
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Generates a seeded random plan of 1–3 faults for a pipeline with
    /// `threads` stages and `queues` architectural queues.
    /// `cycle_horizon`/`atom_horizon` bound the trigger windows and
    /// should come from an unfaulted reference run (its makespan and its
    /// largest per-stage atom count). Identical seeds yield identical
    /// plans.
    pub fn random(
        seed: u64,
        threads: usize,
        queues: usize,
        cycle_horizon: u64,
        atom_horizon: u64,
    ) -> FaultPlan {
        let mut s = seed.wrapping_mul(2).wrapping_add(1); // nonzero state
        let mut next = move || {
            // xorshift64*: small, seedable, good enough for fuzzing.
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            s.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let threads = threads.max(1);
        let cyc = cycle_horizon.max(16);
        let atoms = atom_horizon.max(16);
        let n = 1 + (next() % 3) as usize;
        let mut faults = Vec::with_capacity(n);
        for _ in 0..n {
            // Weighted kind pick; queue-shaped faults need a queue.
            let kind = if queues == 0 { 7 } else { next() % 8 };
            let f = match kind {
                0..=2 => {
                    let from = next() % atoms;
                    Fault::QueueSqueeze {
                        queue: (next() % queues as u64) as u16,
                        cap: 1 + (next() % 3) as usize,
                        from_enq: from,
                        until_enq: from + 1 + next() % (atoms / 2 + 1),
                    }
                }
                3..=4 => {
                    let from = next() % cyc;
                    Fault::LatencySpike {
                        thread: (next() % threads as u64) as usize,
                        extra: 20 + next() % 2000,
                        from,
                        until: from + 1 + next() % (cyc / 2 + 1),
                    }
                }
                5..=6 => {
                    let from = next() % atoms;
                    Fault::DequeueStall {
                        queue: (next() % queues as u64) as u16,
                        extra: 10 + next() % 500,
                        from_deq: from,
                        until_deq: from + 1 + next() % (atoms / 2 + 1),
                    }
                }
                _ => Fault::ThreadKill {
                    thread: (next() % threads as u64) as usize,
                    after_atoms: next() % atoms,
                },
            };
            faults.push(f);
        }
        FaultPlan { faults }
    }

    /// True if the plan kills at least one thread (such a plan can never
    /// produce a successful run).
    pub fn has_kill(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::ThreadKill { .. }))
    }

    /// Effective capacity of `queue` for its next enqueue (ordinal
    /// `enq_ord`), given the `physical` capacity.
    pub(crate) fn queue_cap(&self, queue: usize, enq_ord: u64, physical: usize) -> usize {
        let mut cap = physical;
        for f in &self.faults {
            if let Fault::QueueSqueeze {
                queue: q,
                cap: c,
                from_enq,
                until_enq,
            } = f
            {
                if *q as usize == queue && enq_ord >= *from_enq && enq_ord < *until_enq {
                    cap = cap.min((*c).max(1));
                }
            }
        }
        cap
    }

    /// Extra completion latency for an op of `thread` issued at `at`.
    pub(crate) fn latency_extra(&self, thread: usize, at: Time) -> u64 {
        let mut extra = 0;
        for f in &self.faults {
            if let Fault::LatencySpike {
                thread: t,
                extra: e,
                from,
                until,
            } = f
            {
                if *t == thread && at >= *from && at < *until {
                    extra += *e;
                }
            }
        }
        extra
    }

    /// Extra delivery latency for the next dequeue on `queue` (ordinal
    /// `deq_ord`).
    pub(crate) fn deq_extra(&self, queue: usize, deq_ord: u64) -> u64 {
        let mut extra = 0;
        for f in &self.faults {
            if let Fault::DequeueStall {
                queue: q,
                extra: e,
                from_deq,
                until_deq,
            } = f
            {
                if *q as usize == queue && deq_ord >= *from_deq && deq_ord < *until_deq {
                    extra += *e;
                }
            }
        }
        extra
    }

    /// Atom count at which `thread` is killed, if any kill targets it
    /// (the earliest wins).
    pub(crate) fn kill_at(&self, thread: usize) -> Option<u64> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::ThreadKill {
                    thread: t,
                    after_atoms,
                } if *t == thread => Some(*after_atoms),
                _ => None,
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(42, 4, 3, 10_000, 5_000);
        let b = FaultPlan::random(42, 4, 3, 10_000, 5_000);
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.faults.len() <= 3);
        let c = FaultPlan::random(43, 4, 3, 10_000, 5_000);
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
    }

    #[test]
    fn accessors_respect_windows() {
        let p = FaultPlan::new(vec![
            Fault::QueueSqueeze {
                queue: 1,
                cap: 2,
                from_enq: 10,
                until_enq: 20,
            },
            Fault::LatencySpike {
                thread: 0,
                extra: 100,
                from: 50,
                until: 60,
            },
            Fault::DequeueStall {
                queue: 0,
                extra: 7,
                from_deq: 0,
                until_deq: 5,
            },
            Fault::ThreadKill {
                thread: 2,
                after_atoms: 99,
            },
        ]);
        assert_eq!(p.queue_cap(1, 15, 24), 2);
        assert_eq!(p.queue_cap(1, 20, 24), 24);
        assert_eq!(p.queue_cap(0, 15, 24), 24);
        assert_eq!(p.latency_extra(0, 55), 100);
        assert_eq!(p.latency_extra(0, 60), 0);
        assert_eq!(p.latency_extra(1, 55), 0);
        assert_eq!(p.deq_extra(0, 4), 7);
        assert_eq!(p.deq_extra(0, 5), 0);
        assert_eq!(p.kill_at(2), Some(99));
        assert_eq!(p.kill_at(0), None);
        assert!(p.has_kill());
    }
}
