//! Spans around the calls into each layer, recorded from outside the
//! program under test.
//!
//! A span has a name (`layer.call`), a start, an end, the span that
//! caused it, and the id of the op it belongs to. Spans stay in memory
//! and are written once, when the run ends, in the Chrome trace event
//! format `pipette_sim::PerfettoSink` uses. A layer's self time is its
//! span minus the part its child spans cover.
//!
//! With tracing off, [`span`] costs one relaxed load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for an op's root span.
    pub parent: u64,
    /// The root span's id, shared by every span of one op.
    pub op: u64,
    pub tid: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static DONE: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct Local {
    tid: u64,
    /// Open spans, outermost first.
    stack: Vec<u64>,
    /// Finished spans of the op still open on this thread.
    buf: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        buf: Vec::new(),
    });
}

pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Closes its span when dropped.
pub struct Guard {
    open: Option<(u64, u64, u64, &'static str, u64)>,
}

/// Opens a span on this thread. The first span opened on a thread with
/// none open is an op's root; spans opened inside it are its children.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, op) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied().unwrap_or(0);
        let op = l.stack.first().copied().unwrap_or(id);
        l.stack.push(id);
        (parent, op)
    });
    Guard {
        open: Some((id, parent, op, name, now_ns())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, op, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.stack.pop();
            let tid = l.tid;
            l.buf.push(Span {
                id,
                parent,
                op,
                tid,
                name,
                start_ns,
                end_ns,
            });
            // A root span closing ends its op: hand the op's spans over.
            // Threads of a scoped pool can exit before their
            // thread-local destructors run, so nothing waits for those.
            if l.stack.is_empty() {
                DONE.lock().expect("span sink poisoned").append(&mut l.buf);
            }
        });
    }
}

/// Runs `f` inside a span.
pub fn in_span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = span(name);
    f()
}

/// Every finished span so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *DONE.lock().expect("span sink poisoned"))
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Per-name count, total time and self time.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for s in spans {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Over the root spans named `root`: the share of their time that their
/// descendants' self times account for. The issue asks that this stays
/// within 10 % of 1 on `compile_grid` and `serve_warm`.
pub fn child_coverage(spans: &[Span], root: &str) -> f64 {
    let roots: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == root)
        .map(|s| s.id)
        .collect();
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let (mut root_ns, mut desc_self_ns) = (0u64, 0u64);
    for s in spans.iter().filter(|s| roots.contains(&s.op)) {
        if s.parent == 0 {
            root_ns += s.dur_ns();
        } else {
            desc_self_ns += s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
    }
    if root_ns == 0 {
        0.0
    } else {
        desc_self_ns as f64 / root_ns as f64
    }
}

/// Writes at most `cap` spans (the earliest ops) as Chrome trace events;
/// `ts` and `dur` are microseconds.
pub fn write_chrome(path: &std::path::Path, spans: &[Span], cap: usize) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    write!(
        out,
        "\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{{\"name\":\"phloem-benchmark ({} of {} spans)\"}}}}",
        spans.len().min(cap),
        spans.len()
    )?;
    for s in spans.iter().take(cap) {
        write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(""),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.op
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}
