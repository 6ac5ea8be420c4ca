//! Admission: the gates a compute request passes between parsing and
//! the pool, identical for every op.
//!
//! In line order: the drain gate, the zero-deadline gate, planning
//! (`bad_request`), the cache probe (`hit`), in-batch dedup by key (a
//! duplicate rides the first requester's slot, admission and token),
//! and the admission budget (`overloaded`). What survives is pushed
//! onto the batch's work list under its own cancel token.

use super::plan::{plan, work_cost, Planned, Work};
use super::store::lock;
use super::Service;
use crate::persist::Sel;
use crate::proto::{error_frame, ok_frame, Op, Request};
use phloem_pool::CancelToken;
use std::collections::HashMap;
use std::time::Duration;

/// How one request line will be answered.
pub(crate) enum Resolution {
    /// Fully rendered before execution.
    Done(String),
    /// Waiting on compute slot `slot`.
    Pending {
        id: u64,
        op: Op,
        cache: &'static str,
        slot: usize,
    },
}

/// One admitted work item.
pub(crate) struct Admitted {
    pub(crate) work: Work,
    /// Where a successful result is cached.
    pub(crate) key: Option<(Sel, u64)>,
    pub(crate) token: CancelToken,
}

/// Per-batch planning state: the admitted work list (indexed by slot),
/// in-batch dedup, and the admission cost to release when the batch
/// completes.
#[derive(Default)]
pub(crate) struct BatchState {
    pub(crate) slots: Vec<Admitted>,
    pending_by_key: HashMap<u64, usize>,
    pub(crate) admitted: u64,
}

impl Service {
    /// Tries to reserve `cost` units of the admission budget. On
    /// refusal, returns a `retry_after_ms` hint that scales with the
    /// current load. An oversized item is admitted when the service is
    /// idle so no request is unservable.
    fn try_admit(&self, cost: u64) -> Result<(), u64> {
        let mut inflight = lock(&self.inflight);
        if *inflight > 0 && *inflight + cost > self.cfg.max_inflight {
            return Err((25 * inflight.div_ceil(4)).clamp(25, 1000));
        }
        *inflight += cost;
        Ok(())
    }

    pub(crate) fn release(&self, cost: u64) {
        let mut inflight = lock(&self.inflight);
        *inflight = inflight.saturating_sub(cost);
    }

    /// Resolves one compute request: answered on the spot (rejected,
    /// shed, or a cache hit) or admitted into `st`.
    pub(crate) fn admit(&self, req: &Request, draining: bool, st: &mut BatchState) -> Resolution {
        let (id, op) = (req.id, req.op);
        let refuse = |kind, message: &str, retry_after_ms| {
            Resolution::Done(error_frame(
                id,
                op.name(),
                "bypass",
                kind,
                message,
                retry_after_ms,
            ))
        };
        // Gated before touching caches or the budget: a draining
        // service rejects compute, and a zero deadline is already
        // expired by definition.
        if draining {
            return refuse(
                "draining",
                "service is draining; no new work is admitted",
                None,
            );
        }
        let deadline = req.deadline_ms.or(self.cfg.default_deadline_ms);
        if deadline == Some(0) {
            return refuse(
                "cancelled",
                "deadline_ms is 0: the deadline expired before execution",
                None,
            );
        }
        let Planned { work, key } = match plan(&self.cfg, &self.keys, req) {
            Ok(p) => p,
            Err(message) => return refuse("bad_request", &message, None),
        };
        let mut cache = "bypass";
        let mut duplicate = None;
        if let Some((sel, k)) = key {
            if let Some(fragment) = self.store.get(sel, k) {
                return Resolution::Done(ok_frame(id, op, "hit", &fragment));
            }
            cache = "miss";
            duplicate = st.pending_by_key.get(&k).copied();
        }
        let slot = match duplicate {
            Some(slot) => slot,
            None => {
                let cost = work_cost(&work);
                if let Err(retry_ms) = self.try_admit(cost) {
                    return refuse(
                        "overloaded",
                        "admission budget exhausted; retry after the hint",
                        Some(retry_ms),
                    );
                }
                st.admitted += cost;
                // A per-request token: child of the drain token, with
                // the request's wall-clock deadline armed.
                let token = self.drain.child();
                if let Some(ms) = deadline {
                    token.arm_deadline(Duration::from_millis(ms));
                }
                st.slots.push(Admitted { work, key, token });
                let slot = st.slots.len() - 1;
                if let Some((_, k)) = key {
                    st.pending_by_key.insert(k, slot);
                }
                slot
            }
        };
        Resolution::Pending {
            id,
            op,
            cache,
            slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::tiny_service;
    use super::super::{Service, ServiceConfig};
    use phloem_workloads::catalog::Scale;

    #[test]
    fn duplicate_requests_in_one_batch_compute_once() {
        let svc = tiny_service();
        let req = r#"{"id":9,"op":"compile","app":"cc"}"#.to_string();
        let out = svc.handle_batch(&[req.clone(), req]);
        // Both probed a cold cache → both miss, but the work ran once.
        assert!(out.responses[0].contains(r#""cache":"miss""#));
        assert!(out.responses[1].contains(r#""cache":"miss""#));
        assert_eq!(out.responses[0], out.responses[1]);
        let (c, _) = svc.counters();
        assert_eq!((c.misses, c.insertions), (2, 1));
    }

    #[test]
    fn zero_deadline_is_cancelled_before_execution() {
        let svc = tiny_service();
        let out = svc.handle_batch(&[
            r#"{"id":1,"op":"simulate","app":"bfs","input":"internet-s","variant":"serial","deadline_ms":0}"#
                .to_string(),
            r#"{"id":2,"op":"compile","app":"bfs","deadline_ms":0}"#.to_string(),
        ]);
        for resp in &out.responses {
            assert!(resp.contains(r#""kind":"cancelled""#), "{resp}");
            assert!(resp.contains("deadline"), "{resp}");
        }
        // An expired deadline never touches the caches or the pool.
        let (c, s) = svc.counters();
        assert_eq!(c.misses + c.hits + s.misses + s.hits, 0);
    }

    #[test]
    fn overload_sheds_with_a_retry_hint() {
        let svc = Service::new(ServiceConfig {
            scale: Scale::Tiny,
            workers: 2,
            default_cycle_cap: 50_000_000,
            max_inflight: 1,
            ..ServiceConfig::default()
        });
        let out = svc.handle_batch(&[
            // Admitted despite cost > budget: the service is idle.
            r#"{"id":1,"op":"simulate","app":"bfs","input":"internet-s","variant":"serial"}"#
                .to_string(),
            // Shed: the budget is already over-committed.
            r#"{"id":2,"op":"simulate","app":"cc","input":"internet-s","variant":"serial"}"#
                .to_string(),
        ]);
        assert!(
            out.responses[0].contains(r#""ok":true"#),
            "{}",
            out.responses[0]
        );
        assert!(
            out.responses[1].contains(r#""kind":"overloaded""#),
            "{}",
            out.responses[1]
        );
        assert!(
            out.responses[1].contains(r#""retry_after_ms":"#),
            "{}",
            out.responses[1]
        );
        // The budget is released once the batch completes.
        let again = svc.handle_batch(&[
            r#"{"id":3,"op":"simulate","app":"cc","input":"internet-s","variant":"serial"}"#
                .to_string(),
        ]);
        assert!(
            again.responses[0].contains(r#""ok":true"#),
            "{}",
            again.responses[0]
        );
    }

    #[test]
    fn draining_rejects_compute_but_answers_stats_and_shutdown() {
        let svc = tiny_service();
        svc.begin_drain(std::time::Duration::from_secs(5));
        assert!(svc.is_draining());
        let out = svc.handle_batch(&[
            r#"{"id":1,"op":"compile","app":"bfs"}"#.to_string(),
            r#"{"id":2,"op":"stats"}"#.to_string(),
            r#"{"id":3,"op":"shutdown"}"#.to_string(),
        ]);
        assert!(
            out.responses[0].contains(r#""kind":"draining""#),
            "{}",
            out.responses[0]
        );
        assert!(
            out.responses[1].contains(r#""draining":true"#),
            "{}",
            out.responses[1]
        );
        assert!(
            out.responses[2].contains(r#""ok":true"#),
            "{}",
            out.responses[2]
        );
        assert!(out.shutdown);
    }

    #[test]
    fn hard_cancel_skips_queued_work_with_structured_errors() {
        let svc = tiny_service();
        svc.cancel_all("test shutdown");
        let out = svc.handle_batch(&[
            r#"{"id":1,"op":"simulate","app":"bfs","input":"internet-s","variant":"serial"}"#
                .to_string(),
        ]);
        // The draining gate rejects at plan time — the work never runs.
        assert!(
            out.responses[0].contains(r#""kind":"draining""#),
            "{}",
            out.responses[0]
        );
    }
}
