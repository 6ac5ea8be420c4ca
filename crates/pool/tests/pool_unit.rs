//! Unit tests for the work-stealing fleet: result determinism, steal
//! fairness, park/unpark, panic containment, the empty/singleton
//! edges, and the resident-thread runs. Timing-shaped scenarios use sleeps, which work on any host
//! (including a single-core one: sleeping threads release the CPU).

use phloem_pool::{run_resident, CancelToken, Pool, TaskPanic};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Every slot holds its own task's result, in index order, at any
/// worker count.
#[test]
fn results_land_in_index_order() {
    for workers in [1, 2, 3, 8, 64] {
        let pool = Pool::new(workers);
        let out = pool.run(37, |i| i * i);
        assert_eq!(out.len(), 37);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap(), &(i * i), "workers={workers}");
        }
    }
}

/// Each task runs exactly once even under heavy stealing pressure.
#[test]
fn each_task_runs_exactly_once() {
    let counts: Vec<AtomicU64> = (0..200).map(|_| AtomicU64::new(0)).collect();
    let pool = Pool::new(8);
    let out = pool.run(200, |i| {
        counts[i].fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(out.len(), 200);
    for (i, c) in counts.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), 1, "task {i}");
    }
}

/// Steal fairness: when worker 0's seeded block head-of-line-blocks on
/// an expensive task, the rest of its block must be executed by other
/// workers (this is exactly the static-chunking pathology the pool
/// exists to fix).
#[test]
fn idle_workers_steal_a_blocked_workers_backlog() {
    let pool = Pool::new(4);
    // 40 tasks, 4 workers -> worker 0 is seeded indices 0..10. Task 0
    // sleeps long enough for the other workers to drain everything else
    // and come stealing.
    let (out, stats) = pool.run_stats(40, |i| {
        if i == 0 {
            std::thread::sleep(Duration::from_millis(120));
        }
        i
    });
    assert!(out.iter().all(|r| r.is_ok()));
    assert!(
        stats.steals >= 1,
        "no steal happened despite a blocked worker: {stats:?}"
    );
    // Worker 0 cannot have run its whole seeded block: it was asleep.
    assert!(
        stats.per_worker_tasks[0] < 10,
        "worker 0 ran its whole block while blocked: {stats:?}"
    );
    // Everything still ran exactly once (sum over workers == tasks).
    assert_eq!(stats.per_worker_tasks.iter().sum::<u64>(), 40);
}

/// Park/unpark: a worker that runs dry while another worker's task is
/// still in flight parks instead of spinning, and wakes when the fleet
/// completes.
#[test]
fn dry_workers_park_until_completion() {
    let pool = Pool::new(2);
    // Two tasks, two workers: worker 1's single task sleeps, worker 0
    // finishes instantly, finds nothing to steal, and must park.
    let (out, stats) = pool.run_stats(2, |i| {
        if i == 1 {
            std::thread::sleep(Duration::from_millis(60));
        }
        i
    });
    assert!(out.iter().all(|r| r.is_ok()));
    assert!(
        stats.parks >= 1,
        "the dry worker never parked: {stats:?} (spinning would burn a host core)"
    );
}

/// Park-wakeup regression: with the epoch-guarded park protocol, a dry
/// worker waiting out a ~120ms straggler parks a small number of times
/// and is woken by the completion notification, never by the timeout
/// backstop. (The old fixed-1ms condvar bound re-woke the dry worker
/// ~120 times here, busy-burning the host while native-channel stages
/// block.)
#[test]
fn parked_workers_wake_by_notification_not_timeout() {
    let pool = Pool::new(2);
    let (out, stats) = pool.run_stats(2, |i| {
        if i == 1 {
            std::thread::sleep(Duration::from_millis(120));
        }
        i
    });
    assert!(out.iter().all(|r| r.is_ok()));
    assert!(
        stats.parks <= 4,
        "dry worker re-parked {} times over a 120ms straggler; \
         the park loop is still polling instead of blocking: {stats:?}",
        stats.parks
    );
    assert_eq!(
        stats.timeout_wakeups, 0,
        "a park wakeup came from the timeout backstop, not a \
         notification: {stats:?}"
    );
}

/// Nested fleets: a task running inside one fleet may spawn its own
/// fleet (the native backend does exactly this when a service request
/// executing on a pool worker runs pipeline stages on threads).
#[test]
fn nested_fleet_inside_a_task_completes() {
    let outer = Pool::new(2);
    let out = outer.run(4, |i| {
        let inner = Pool::new(2);
        let inner_out = inner.run(3, move |j| i * 10 + j);
        inner_out
            .into_iter()
            .map(|r| r.unwrap())
            .collect::<Vec<usize>>()
    });
    for (i, r) in out.iter().enumerate() {
        assert_eq!(r.as_ref().unwrap(), &vec![i * 10, i * 10 + 1, i * 10 + 2]);
    }
}

/// Panic containment: a panicking task fills its own slot with
/// `Err(TaskPanic)` and nothing else.
#[test]
fn panics_are_contained_to_their_slot() {
    for workers in [1, 4] {
        let pool = Pool::new(workers);
        let out = pool.run(9, |i| {
            if i == 4 {
                panic!("injected fleet panic {i}");
            }
            i + 1
        });
        for (i, r) in out.iter().enumerate() {
            if i == 4 {
                let e: &TaskPanic = r.as_ref().unwrap_err();
                assert_eq!(e.index, 4);
                assert!(e.message.contains("injected fleet panic"), "{e}");
            } else {
                assert_eq!(r.as_ref().unwrap(), &(i + 1));
            }
        }
    }
}

/// Zero tasks: no threads, no results, no hang.
#[test]
fn zero_tasks() {
    let pool = Pool::new(8);
    let out: Vec<Result<u64, _>> = pool.run(0, |_| unreachable!("no tasks"));
    assert!(out.is_empty());
    let (out, stats) = pool.run_stats(0, |i| i);
    assert!(out.is_empty());
    assert_eq!(stats.per_worker_tasks.iter().sum::<u64>(), 0);
}

/// One task: the fleet clamps to one worker and runs inline.
#[test]
fn one_task_runs_inline() {
    let caller = std::thread::current().id();
    let pool = Pool::new(8);
    let (out, stats) = pool.run_stats(1, |i| (i, std::thread::current().id()));
    assert_eq!(stats.workers, 1);
    let (i, tid) = out[0].as_ref().unwrap();
    assert_eq!(*i, 0);
    assert_eq!(*tid, caller, "a singleton fleet must not spawn threads");
}

/// The resident tests take turns, so each knows which threads are parked.
static RESIDENT: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// `run_resident` tasks are all live at once: every task waits at a
/// barrier only the whole set can pass.
/// Task 0 is the caller; results land by index; borrows are fine.
#[test]
fn resident_tasks_overlap_and_land_in_index_order() {
    let _turn = RESIDENT.lock().unwrap_or_else(|e| e.into_inner());
    let caller = std::thread::current().id();
    for n in [0, 1, 2, 5] {
        let barrier = std::sync::Barrier::new(n);
        let out = run_resident(n, |i| {
            barrier.wait();
            (i * i, std::thread::current().id())
        });
        assert_eq!(out.len(), n);
        let mut threads = std::collections::HashSet::new();
        for (i, r) in out.iter().enumerate() {
            let (sq, tid) = r.as_ref().unwrap();
            assert_eq!(*sq, i * i, "n={n}");
            assert_eq!(*tid == caller, i == 0, "n={n}: only task 0 is the caller's");
            assert!(threads.insert(*tid), "n={n}: a thread per task");
        }
    }
}

/// Resident threads are borrowed, not spawned, by the second run, and
/// two concurrent runs never share one (each run's tasks block on each
/// other, so a shared thread would hang one of them). `Pool::run` fleets
/// run their non-caller workers on the same threads, under the same
/// rules.
#[test]
fn resident_threads_are_reused_and_never_shared() {
    use std::sync::Barrier;
    let _turn = RESIDENT.lock().unwrap_or_else(|e| e.into_inner());
    // The off-caller threads of one run — a `run_resident` set or a
    // `Pool::run` fleet — whose `n` tasks all meet at `barrier`, so each
    // fleet worker runs exactly one of them.
    let ids = |fleet: bool, n: usize, barrier: &Barrier| {
        let task = |_| {
            barrier.wait();
            let me = std::thread::current();
            (me.id(), me.name().map(str::to_owned))
        };
        let out = if fleet {
            Pool::new(n).run(n, task)
        } else {
            run_resident(n, task)
        };
        out.into_iter()
            .skip(1)
            .map(|r| {
                let (id, name) = r.unwrap();
                assert_eq!(name.as_deref(), Some("phloem-resident"), "fleet={fleet}");
                id
            })
            .collect::<Vec<_>>()
    };
    // One barrier across both runs: neither finishes before both started.
    let concurrent = |fleet: bool| {
        let both = Barrier::new(8);
        std::thread::scope(|s| {
            let a = s.spawn(|| ids(fleet, 4, &both));
            let b = s.spawn(|| ids(fleet, 4, &both));
            (a.join().unwrap(), b.join().unwrap())
        })
    };
    let (a, b) = concurrent(false);
    assert!(a.iter().all(|t| !b.contains(t)), "{a:?} vs {b:?}");
    let (c, d) = concurrent(true);
    assert!(
        c.iter().all(|t| !d.contains(t)),
        "fleets share: {c:?} vs {d:?}"
    );
    // Their threads are parked now: the next run, of either kind, spawns
    // nothing. The other tests' fleets borrow from the same list and may
    // take them first, so a run may retry; a kind of run that never
    // reuses a thread never passes.
    let mut known: Vec<_> = [a, b, c, d].concat();
    for fleet in [false, true] {
        let reused = (0..20).any(|_| {
            let again = ids(fleet, 3, &Barrier::new(3));
            let all_known = again.iter().all(|t| known.contains(t));
            known.extend(again);
            all_known
        });
        assert!(reused, "fleet={fleet}: every run had a new thread");
    }
}

/// A panicking resident task fills its own slot, on the caller's thread
/// or off it; its thread serves the next run.
#[test]
fn resident_panics_are_contained_to_their_slot() {
    let _turn = RESIDENT.lock().unwrap_or_else(|e| e.into_inner());
    for bad in [0, 2] {
        let out = run_resident(3, |i| {
            if i == bad {
                panic!("injected resident panic {i}");
            }
            i + 1
        });
        for (i, r) in out.iter().enumerate() {
            if i == bad {
                let e: &TaskPanic = r.as_ref().unwrap_err();
                assert_eq!(e.index, bad);
                assert!(e.message.contains("injected resident panic"), "{e}");
            } else {
                assert_eq!(r.as_ref().unwrap(), &(i + 1));
            }
        }
    }
}

/// `map` hands each task its index and item.
#[test]
fn map_passes_items_by_index() {
    let items: Vec<String> = (0..20).map(|i| format!("item-{i}")).collect();
    let pool = Pool::new(3);
    let out = pool.map(&items, |i, s| format!("{i}:{s}"));
    for (i, r) in out.iter().enumerate() {
        assert_eq!(r.as_ref().unwrap(), &format!("{i}:item-{i}"));
    }
}

/// Worker counts beyond the task count are clamped; beyond the host's
/// core count they still complete (oversubscription is legal).
#[test]
fn oversubscription_and_clamping() {
    let pool = Pool::new(64);
    let (out, stats) = pool.run_stats(5, |i| i * 3);
    assert_eq!(stats.workers, 5);
    for (i, r) in out.iter().enumerate() {
        assert_eq!(r.as_ref().unwrap(), &(i * 3));
    }
}

/// A cancellable fleet whose token never fires behaves exactly like an
/// uncancellable one: every slot comes back `Some(Ok(..))`, nothing is
/// skipped.
#[test]
fn unfired_token_changes_nothing() {
    for workers in [1, 4] {
        let pool = Pool::new(workers);
        let token = CancelToken::new();
        let (out, stats) = pool.run_cancellable(23, &token, |i| i * 7);
        assert_eq!(stats.skipped, 0);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(
                r.as_ref().unwrap().as_ref().unwrap(),
                &(i * 7),
                "workers={workers}"
            );
        }
    }
}

/// Drain latency is bounded by the drain budget, not by queue depth:
/// cancelling a fleet with a deep backlog of sleepy tasks must return
/// in roughly (cancel delay + one task), never queue_depth × task cost.
/// This is the park-behavior satellite: queued tasks are skipped, and
/// parked workers are woken by the cancel itself rather than sleeping
/// out timeout loops.
#[test]
fn drain_latency_bounded_by_budget_not_queue_depth() {
    const TASKS: usize = 400; // serial cost: 400 × 5 ms = 2 s
    let pool = Pool::new(2);
    let token = CancelToken::new();
    let t2 = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        t2.cancel("drain test");
    });
    let start = Instant::now();
    let (out, stats) = pool.run_cancellable(TASKS, &token, |i| {
        std::thread::sleep(Duration::from_millis(5));
        i
    });
    let elapsed = start.elapsed();
    canceller.join().unwrap();
    // Generous CI bound, still ~7x below the 2 s serial queue cost.
    assert!(
        elapsed < Duration::from_millis(300),
        "drain took {elapsed:?}: latency scaled with queue depth, not the budget"
    );
    assert!(stats.skipped > 0, "nothing was skipped: {stats:?}");
    let ran = out.iter().filter(|s| s.is_some()).count() as u64;
    assert_eq!(
        ran + stats.skipped,
        TASKS as u64,
        "every task must be exactly run-once or skipped: {stats:?}"
    );
    // Tasks that did run (before the cancel) completed normally.
    for (i, s) in out.iter().enumerate() {
        if let Some(r) = s {
            assert_eq!(r.as_ref().unwrap(), &i);
        }
    }
}

/// An expired deadline cancels the fleet with no explicit cancel call.
#[test]
fn deadline_expiry_skips_the_tail() {
    let pool = Pool::new(1); // serial path must honour deadlines too
    let token = CancelToken::with_deadline(Duration::from_millis(25));
    let start = Instant::now();
    let (out, stats) = pool.run_cancellable(200, &token, |i| {
        std::thread::sleep(Duration::from_millis(5));
        i
    });
    assert!(
        start.elapsed() < Duration::from_millis(300),
        "deadline did not stop a serial fleet"
    );
    assert!(stats.skipped > 0);
    assert!(out[0].is_some(), "the first task ran before the deadline");
    assert!(token.is_set());
    assert_eq!(token.reason(), "deadline exceeded");
}
