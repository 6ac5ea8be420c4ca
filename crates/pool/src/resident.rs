//! Resident threads, the only threads this crate makes: a free list of
//! parked OS threads that a run — a [`crate::Pool::run`] fleet or a
//! [`crate::run_resident`] set — borrows for its duration and hands back.
//!
//! `std::thread::scope` pays a spawn and a join per thread per run —
//! about 250 µs for a four-stage native pipeline on a two-core VM,
//! against 30 µs to wake four parked threads and hear back from them.
//! A pipeline that runs once per graph round, or for 200 µs in all,
//! spends more on its threads than on its work.
//!
//! A thread here is the receiving end of a channel of boxed jobs; the
//! free list holds the sending ends. A run takes as many as it needs
//! (spawning what is missing), sends each one job, runs task 0 itself,
//! waits for every job to report, and returns the senders. Concurrent
//! runs therefore never share a thread, which tasks that block on each
//! other need.
//!
//! Task 0 stays on the caller for placement as much as for the saved
//! wake: a thread woken while its waker still runs lands on another
//! idle core, but two woken back to back by a caller about to sleep can
//! land on one, and for a sub-millisecond run nothing moves them apart
//! (two spinning stage workers sharing a core measured 2.5x the wall
//! time of the same two on a core each).

use std::sync::{mpsc, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Senders of the threads no run is using.
static IDLE: Mutex<Vec<mpsc::Sender<Job>>> = Mutex::new(Vec::new());

/// Idle threads kept; a run that would return more lets the surplus
/// exit. Bounds what a burst of concurrent wide runs leaves behind.
const MAX_IDLE: usize = 64;

fn spawn() -> mpsc::Sender<Job> {
    let (tx, rx) = mpsc::channel::<Job>();
    std::thread::Builder::new()
        .name("phloem-resident".to_string())
        .spawn(move || {
            // Exits when its sender drops.
            for job in rx {
                job();
            }
        })
        .expect("spawn a resident worker thread");
    tx
}

/// Waits, on drop, for every job sent and not yet heard from: a job
/// borrows from the caller's frame, so that frame must not unwind (a
/// failed spawn half-way through a run) while one is still out.
struct Outstanding<T> {
    done: mpsc::Receiver<T>,
    sent: usize,
}

impl<T> Outstanding<T> {
    fn next(&mut self) -> T {
        let v = self
            .done
            .recv()
            .expect("a resident worker reports each job");
        self.sent -= 1;
        v
    }
}

impl<T> Drop for Outstanding<T> {
    fn drop(&mut self) {
        for _ in 0..self.sent {
            // An error means every job's sender is gone: nothing is out.
            if self.done.recv().is_err() {
                break;
            }
        }
    }
}

/// Runs `task(0..n)` all at once — task 0 on the calling thread, the
/// others on a resident thread each — and returns what they returned in
/// index order. `n` is at least 1; `task` must not unwind (the caller
/// wraps each task body in `catch_unwind`).
pub(crate) fn run<R, F>(n: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // `threads[w - 1]` runs task `w`.
    let mut threads = {
        let mut idle = IDLE.lock().unwrap_or_else(|e| e.into_inner());
        let keep = idle.len().saturating_sub(n - 1);
        idle.split_off(keep)
    };
    let (report, done) = mpsc::channel();
    let mut out = Outstanding { done, sent: 0 };
    for w in 1..n {
        if threads.len() < w {
            threads.push(spawn());
        }
        let (task, report) = (&task, report.clone());
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            // The last use of anything borrowed: once this is sent the
            // caller may return.
            let _ = report.send((w, task(w)));
        });
        // SAFETY: only the lifetime changes. The job borrows `task` and
        // sends an `R`, both of which outlive this call, and this call
        // does not return or unwind before the job has run to its last
        // borrow: `out` counts it from here and waits for its report,
        // in `next` or in `drop`.
        let job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
        // A thread lives until its sender drops: jobs do not unwind.
        threads[w - 1]
            .send(job)
            .expect("a resident worker outlives its sender");
        out.sent += 1;
    }
    drop(report);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    results[0] = Some(task(0));
    for _ in 1..n {
        let (w, r) = out.next();
        results[w] = Some(r);
    }
    let mut idle = IDLE.lock().unwrap_or_else(|e| e.into_inner());
    let room = MAX_IDLE.saturating_sub(idle.len());
    idle.extend(threads.into_iter().take(room));
    drop(idle);
    results
        .into_iter()
        .map(|r| r.expect("every job reported once"))
        .collect()
}
