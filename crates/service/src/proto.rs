//! The `phloemd` wire protocol: newline-delimited JSON requests, and
//! the two frames that answer them.
//!
//! One request per line; a **blank line ends a batch** (the daemon
//! answers each batch before reading the next, so a client can observe
//! warm-cache behaviour within a single connection). Every answer is
//! either [`ok_frame`] — the `id`/`op`/`ok`/`cache` envelope followed by
//! the op's payload — or [`error_frame`], the one error shape the
//! service and the daemon share. The JSON itself lives in
//! [`crate::json`] and is re-exported here.

pub use crate::json::{parse, Json};

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// Request operations the service understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Compile an app kernel under a pass preset; cached.
    Compile,
    /// Run one benchmark variant on one input; uncached (`bypass`).
    Simulate,
    /// Run one benchmark variant on the native thread backend (real OS
    /// threads, bounded channels); uncached (`bypass`) — the payload
    /// carries wall-clock time, which is not content-addressable.
    SimulateNative,
    /// PGO candidate search on one input; cached.
    Search,
    /// Traced run producing the canonical event-stream digest; cached.
    Trace,
    /// Report cache counters; uncached.
    Stats,
    /// Ask the daemon to exit after this batch.
    Shutdown,
}

impl Op {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Compile => "compile",
            Op::Simulate => "simulate",
            Op::SimulateNative => "simulate_native",
            Op::Search => "search",
            Op::Trace => "trace",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
        }
    }
}

/// One parsed request line. Fields beyond `id`/`op` are optional at the
/// protocol layer; the service validates per-op requirements and
/// answers a structured `bad_request` error rather than dropping the
/// line.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
    /// Benchmark app: `bfs`, `cc`, `prd`, `radii`, `spmm`.
    pub app: Option<String>,
    /// Named workload input (see `phloem-workloads`' catalog).
    pub input: Option<String>,
    /// Simulate variant: `serial`, `data-parallel`, `phloem`, `manual`.
    pub variant: Option<String>,
    /// Pass preset: `all`, `queues-only`, `with-recompute`, `with-cv`,
    /// `with-dce`, `with-handlers`, `all-streaming`.
    pub passes: Option<String>,
    /// Stage budget for `compile` / the `phloem` variant.
    pub stages: Option<usize>,
    /// Thread count for the `data-parallel` variant — and, for
    /// `simulate_native`, the native worker count (`0`/absent = one
    /// thread per stage).
    pub threads: Option<usize>,
    /// Per-request watchdog budget in simulated cycles.
    pub cycle_cap: Option<u64>,
    /// Search: candidate decoupling points drawn from the ranking top.
    pub top_k: Option<usize>,
    /// Search: maximum compute stages per candidate.
    pub max_stages: Option<usize>,
    /// Wall-clock deadline for this request, in milliseconds. `0` is
    /// legal and means "already expired": the service answers a
    /// structured `cancelled` error without running anything.
    pub deadline_ms: Option<u64>,
}

/// Why a request line was refused before planning: everything an error
/// frame needs. A line that is not a well-formed request has no id or
/// op to echo and reads `id: 0, op: "parse", kind: "parse"`; a
/// well-formed request carrying a wrong-typed field keeps its own
/// `id`/`op` and reads `kind: "bad_request"`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejected {
    /// The id to echo.
    pub id: u64,
    /// The op name to echo.
    pub op: &'static str,
    /// The error kind.
    pub kind: &'static str,
    /// What was wrong, naming the offending field.
    pub message: String,
}

/// Reads optional field `key`: absent is `None`, and a present value
/// `conv` refuses is an error naming the field — never a silent default.
fn field<T>(
    v: &Json,
    key: &str,
    want: &str,
    conv: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, String> {
    v.get(key)
        .map(|j| conv(j).ok_or_else(|| format!("field {key:?} must be {want}")))
        .transpose()
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, Rejected> {
    let unparsed = |message: String| Rejected {
        id: 0,
        op: "parse",
        kind: "parse",
        message,
    };
    let v = parse(line).map_err(unparsed)?;
    if !matches!(v, Json::Obj(_)) {
        return Err(unparsed("request must be a JSON object".into()));
    }
    let op = match v.get("op").and_then(Json::as_str) {
        Some("compile") => Op::Compile,
        Some("simulate") => Op::Simulate,
        Some("simulate_native") => Op::SimulateNative,
        Some("search") => Op::Search,
        Some("trace") => Op::Trace,
        Some("stats") => Op::Stats,
        Some("shutdown") => Op::Shutdown,
        Some(other) => return Err(unparsed(format!("unknown op {other:?}"))),
        None => return Err(unparsed("missing \"op\"".into())),
    };
    let id = match v.get("id") {
        Some(j) => j
            .as_u64()
            .ok_or_else(|| unparsed("\"id\" must be a non-negative integer".into()))?,
        None => return Err(unparsed("missing \"id\"".into())),
    };
    let bad = |message: String| Rejected {
        id,
        op: op.name(),
        kind: "bad_request",
        message,
    };
    let s = |k| field(&v, k, "a string", |j| j.as_str().map(String::from)).map_err(bad);
    let n = |k| field(&v, k, "a non-negative integer", Json::as_usize).map_err(bad);
    let n64 = |k| field(&v, k, "a non-negative integer", Json::as_u64).map_err(bad);
    Ok(Request {
        id,
        op,
        app: s("app")?,
        input: s("input")?,
        variant: s("variant")?,
        passes: s("passes")?,
        stages: n("stages")?,
        threads: n("threads")?,
        cycle_cap: n64("cycle_cap")?,
        top_k: n("top_k")?,
        max_stages: n("max_stages")?,
        deadline_ms: n64("deadline_ms")?,
    })
}

// ---------------------------------------------------------------------
// Response frames
// ---------------------------------------------------------------------

/// The four fields every frame starts with.
fn envelope(id: u64, op: &str, ok: bool, cache: &str) -> [(&'static str, Json); 4] {
    [
        ("id", Json::u64(id)),
        ("op", Json::str(op)),
        ("ok", Json::Bool(ok)),
        ("cache", Json::str(cache)),
    ]
}

/// An `ok:true` frame: the envelope followed by the fields of
/// `fragment`, a compactly rendered JSON object (`{}` for none). The
/// fragment is spliced in as text, so a cached payload reaches the wire
/// with exactly the bytes it was rendered to at miss time.
pub fn ok_frame(id: u64, op: Op, cache: &str, fragment: &str) -> String {
    let mut out = Json::obj(envelope(id, op.name(), true, cache)).render();
    if fragment.len() > 2 {
        out.pop();
        out.push(',');
        out.push_str(&fragment[1..]);
    }
    out
}

/// The one error frame: `{id, op, ok:false, cache, error:{kind,
/// message[, retry_after_ms]}}`. Every error the service or the daemon
/// answers is built here.
pub fn error_frame(
    id: u64,
    op: &str,
    cache: &str,
    kind: &str,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let retry = retry_after_ms.map(|ms| ("retry_after_ms", Json::u64(ms)));
    let error = [("kind", Json::str(kind)), ("message", Json::str(message))];
    let error = Json::obj(error.into_iter().chain(retry));
    Json::obj(
        envelope(id, op, false, cache)
            .into_iter()
            .chain([("error", error)]),
    )
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_request_line() {
        let r = parse_request(
            r#"{"id":7,"op":"simulate","app":"bfs","variant":"phloem","input":"coauthor-s","stages":4}"#,
        )
        .unwrap();
        assert_eq!(r.id, 7);
        assert_eq!(r.op, Op::Simulate);
        assert_eq!(r.app.as_deref(), Some("bfs"));
        assert_eq!(r.stages, Some(4));
        assert_eq!(r.cycle_cap, None);
        assert_eq!(r.deadline_ms, None);
        assert!(parse_request(r#"{"id":1,"op":"frobnicate"}"#).is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn id_is_required_and_integral() {
        let missing = parse_request(r#"{"op":"stats"}"#).unwrap_err();
        assert!(missing.message.contains("missing \"id\""), "{missing:?}");
        assert_eq!(
            (missing.id, missing.op, missing.kind),
            (0, "parse", "parse")
        );
        let bad = parse_request(r#"{"id":"seven","op":"stats"}"#).unwrap_err();
        assert!(bad.message.contains("non-negative integer"), "{bad:?}");
        assert!(parse_request(r#"{"id":-1,"op":"stats"}"#).is_err());
        let r = parse_request(r#"{"id":3,"op":"stats","deadline_ms":0}"#).unwrap();
        assert_eq!(r.deadline_ms, Some(0));
    }

    #[test]
    fn wrong_typed_fields_are_refused_by_name_under_the_requests_own_id() {
        for (line, field) in [
            (
                r#"{"id":4,"op":"compile","app":"bfs","stages":"three"}"#,
                "stages",
            ),
            (
                r#"{"id":4,"op":"compile","app":"bfs","cycle_cap":-5}"#,
                "cycle_cap",
            ),
            (
                r#"{"id":4,"op":"compile","app":"bfs","cycle_cap":1.5}"#,
                "cycle_cap",
            ),
            (
                r#"{"id":4,"op":"compile","app":"bfs","deadline_ms":"soon"}"#,
                "deadline_ms",
            ),
            (r#"{"id":4,"op":"compile","app":5}"#, "app"),
            (
                r#"{"id":4,"op":"compile","app":"bfs","threads":null}"#,
                "threads",
            ),
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(
                (e.id, e.op, e.kind),
                (4, "compile", "bad_request"),
                "{line}"
            );
            assert!(e.message.contains(&format!("{field:?}")), "{e:?}");
        }
    }

    #[test]
    fn frames_share_one_envelope_and_splice_fragments_verbatim() {
        assert_eq!(
            ok_frame(7, Op::Compile, "hit", r#"{"app":"bfs","x":0.5}"#),
            r#"{"id":7,"op":"compile","ok":true,"cache":"hit","app":"bfs","x":0.5}"#
        );
        assert_eq!(
            ok_frame(5, Op::Shutdown, "bypass", "{}"),
            r#"{"id":5,"op":"shutdown","ok":true,"cache":"bypass"}"#
        );
        assert_eq!(
            error_frame(0, "read", "bypass", "timed_out", "late", None),
            r#"{"id":0,"op":"read","ok":false,"cache":"bypass","error":{"kind":"timed_out","message":"late"}}"#
        );
        assert_eq!(
            error_frame(2, "simulate", "bypass", "overloaded", "full", Some(25)),
            r#"{"id":2,"op":"simulate","ok":false,"cache":"bypass","error":{"kind":"overloaded","message":"full","retry_after_ms":25}}"#
        );
    }
}
