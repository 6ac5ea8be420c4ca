//! The cache store: two bounded LRUs over one value type, and their
//! crash-safe snapshot.
//!
//! Both caches hold the same thing — the payload fragment rendered once
//! at miss time — so they are one store indexed by [`Sel`]. They stay
//! two LRUs with two capacities because compile and search/trace
//! entries differ ~100× in recompute cost, and `stats` reports them
//! separately.

use crate::cache::{CacheCounters, Lru};
use crate::persist::{self, PersistCounters, Sel, Snapshot};
use crate::proto::{parse, Json};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks `m`, recovering the data from a poisoned lock: every critical
/// section in this crate leaves its data consistent, so a panic
/// elsewhere must not take the service down with it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) struct Store {
    /// Indexed by `Sel as usize`.
    caches: [Mutex<Lru<u64, Arc<str>>>; 2],
    persist: Mutex<PersistCounters>,
}

impl Store {
    pub(crate) fn new(compile_cap: usize, search_cap: usize) -> Store {
        Store {
            caches: [compile_cap, search_cap].map(|cap| Mutex::new(Lru::new(cap))),
            persist: Mutex::new(PersistCounters::default()),
        }
    }

    fn cache(&self, sel: Sel) -> MutexGuard<'_, Lru<u64, Arc<str>>> {
        lock(&self.caches[sel as usize])
    }

    /// Probes `sel` for `key`, counting the probe.
    pub(crate) fn get(&self, sel: Sel, key: u64) -> Option<Arc<str>> {
        self.cache(sel).get(&key)
    }

    pub(crate) fn insert(&self, sel: Sel, key: u64, fragment: Arc<str>) {
        self.cache(sel).insert(key, fragment);
    }

    pub(crate) fn counters(&self, sel: Sel) -> CacheCounters {
        self.cache(sel).counters()
    }

    pub(crate) fn persist_counters(&self) -> PersistCounters {
        *lock(&self.persist)
    }

    /// Writes both caches to `path` atomically; returns entries written.
    pub(crate) fn save(&self, path: &Path) -> std::io::Result<u64> {
        let snap = Snapshot {
            compile: self.cache(Sel::Compile).snapshot(),
            search: self.cache(Sel::Search).snapshot(),
        };
        let written = persist::save(path, &snap)?;
        lock(&self.persist).persisted += written;
        Ok(written)
    }

    /// Loads a snapshot into the caches. A row that survived its
    /// checksum but is not a JSON object is outside input the frames
    /// must never splice: it is skipped and counted as corrupt. A
    /// surviving row is stored in its canonical rendering, which for
    /// every row a service wrote is the row itself.
    pub(crate) fn restore(&self, path: &Path) {
        let loaded = match persist::load(path) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("phloem-service: cannot read cache snapshot {path:?}: {e}");
                return;
            }
        };
        let Snapshot { compile, search } = loaded.snapshot;
        let (mut restored, mut corrupt) = (0, loaded.corrupt_skipped);
        for (sel, rows) in [(Sel::Compile, compile), (Sel::Search, search)] {
            let mut cache = self.cache(sel);
            for (key, text) in rows {
                match parse(&text) {
                    Ok(obj @ Json::Obj(_)) => {
                        cache.insert(key, obj.render().into());
                        restored += 1;
                    }
                    _ => corrupt += 1,
                }
            }
        }
        let mut p = lock(&self.persist);
        p.restored += restored;
        p.corrupt_skipped += corrupt;
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Service, ServiceConfig};
    use phloem_workloads::catalog::Scale;

    #[test]
    fn cache_persists_and_restores_bit_identical_payloads() {
        let mut path = std::env::temp_dir();
        path.push(format!("phloem-service-snap-{}.cache", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = ServiceConfig {
            scale: Scale::Tiny,
            workers: 2,
            default_cycle_cap: 50_000_000,
            cache_path: Some(path.clone()),
            ..ServiceConfig::default()
        };
        let reqs = [
            r#"{"id":1,"op":"compile","app":"bfs"}"#.to_string(),
            r#"{"id":2,"op":"trace","app":"bfs","input":"internet-s","variant":"serial"}"#
                .to_string(),
        ];
        let first = Service::new(cfg.clone());
        let cold = first.handle_batch(&reqs);
        assert!(cold
            .responses
            .iter()
            .all(|r| r.contains(r#""cache":"miss""#)));
        let written = first.persist_now().unwrap();
        assert_eq!(written, 2);
        assert_eq!(first.persist_counters().persisted, 2);
        drop(first);

        // A "restarted" service on the same path answers warm hits
        // byte-identical to the cold responses (modulo provenance).
        let second = Service::new(cfg);
        assert_eq!(second.persist_counters().restored, 2);
        assert_eq!(second.persist_counters().corrupt_skipped, 0);
        let warm = second.handle_batch(&reqs);
        for (c, w) in cold.responses.iter().zip(&warm.responses) {
            assert!(w.contains(r#""cache":"hit""#), "{w}");
            assert_eq!(
                c.replace(r#""cache":"miss""#, r#""cache":"hit""#),
                *w,
                "restored payload must be bit-identical"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_checksummed_row_that_is_not_an_object_is_counted_corrupt() {
        let mut path = std::env::temp_dir();
        path.push(format!("phloem-service-rows-{}.cache", std::process::id()));
        let snap = crate::persist::Snapshot {
            compile: vec![(1, "[1,2]".into()), (2, r#"{"app":"bfs"}"#.into())],
            search: vec![(3, "not json".into())],
        };
        crate::persist::save(&path, &snap).unwrap();
        let store = super::Store::new(4, 4);
        store.restore(&path);
        let p = store.persist_counters();
        assert_eq!((p.restored, p.corrupt_skipped), (1, 2));
        assert_eq!(
            store.get(crate::persist::Sel::Compile, 2).as_deref(),
            Some(r#"{"app":"bfs"}"#)
        );
        let _ = std::fs::remove_file(&path);
    }
}
