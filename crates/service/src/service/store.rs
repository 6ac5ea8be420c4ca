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
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Inserts so far. Bumped *after* the row is in its cache, so a
    /// save that reads `n` here snapshots at least those `n` rows.
    inserts: AtomicU64,
    /// The save lock — saves share one `<path>.tmp`, so they must not
    /// overlap — holding the `inserts` value the last completed save
    /// covered.
    saved: Mutex<u64>,
    persist: Mutex<PersistCounters>,
}

impl Store {
    pub(crate) fn new(compile_cap: usize, search_cap: usize) -> Store {
        Store {
            caches: [compile_cap, search_cap].map(|cap| Mutex::new(Lru::new(cap))),
            inserts: AtomicU64::new(0),
            saved: Mutex::new(0),
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
        self.inserts.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn counters(&self, sel: Sel) -> CacheCounters {
        self.cache(sel).counters()
    }

    pub(crate) fn persist_counters(&self) -> PersistCounters {
        *lock(&self.persist)
    }

    /// Writes both caches to `path` atomically, one save at a time;
    /// returns entries written. With `only_if_dirty`, returns `Ok(0)`
    /// and leaves `path` untouched when every insert is already on
    /// disk: nothing was inserted since the last save, or a concurrent
    /// save that this call waited out covered it.
    pub(crate) fn save(&self, path: &Path, only_if_dirty: bool) -> std::io::Result<u64> {
        let mut saved = lock(&self.saved);
        // Read before the snapshot: it holds every row counted here.
        let inserts = self.inserts.load(Ordering::Acquire);
        if only_if_dirty && *saved == inserts {
            return Ok(0);
        }
        let snap = Snapshot {
            compile: self.cache(Sel::Compile).snapshot(),
            search: self.cache(Sel::Search).snapshot(),
        };
        let written = persist::save(path, &snap)?;
        *saved = inserts;
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
    use super::Store;
    use crate::persist::{self, Sel};
    use phloem_workloads::catalog::Scale;
    use std::os::unix::fs::MetadataExt;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A fresh snapshot path, unique per test and process.
    fn temp_cache(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "phloem-service-{name}-{}.cache",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn persisting(path: &Path) -> ServiceConfig {
        ServiceConfig {
            scale: Scale::Tiny,
            workers: 2,
            default_cycle_cap: 50_000_000,
            cache_path: Some(path.to_path_buf()),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn cache_persists_and_restores_bit_identical_payloads() {
        let path = temp_cache("snap");
        let cfg = persisting(&path);
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
        let path = temp_cache("rows");
        let snap = persist::Snapshot {
            compile: vec![(1, "[1,2]".into()), (2, r#"{"app":"bfs"}"#.into())],
            search: vec![(3, "not json".into())],
        };
        persist::save(&path, &snap).unwrap();
        let store = Store::new(4, 4);
        store.restore(&path);
        let p = store.persist_counters();
        assert_eq!((p.restored, p.corrupt_skipped), (1, 2));
        assert_eq!(
            store.get(Sel::Compile, 2).as_deref(),
            Some(r#"{"app":"bfs"}"#)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_v2_snapshot_is_dropped_whole_and_its_trace_misses_again() {
        let path = temp_cache("v2");
        let cfg = persisting(&path);
        let trace = [
            r#"{"id":1,"op":"trace","app":"bfs","input":"internet-s","variant":"serial"}"#
                .to_string(),
        ];
        let first = Service::new(cfg.clone());
        let cold = first.handle_batch(&trace).responses;
        assert!(cold[0].contains(r#""cache":"miss""#), "{}", cold[0]);
        assert_eq!(first.persist_now().unwrap(), 1);
        drop(first);

        // The same row, checksum intact, as a v2 daemon would have left
        // it: its "trace" hex may be the old digest of this stream.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replacen("phloem-cache v4", "phloem-cache v2", 1),
        )
        .unwrap();
        let second = Service::new(cfg);
        let p = second.persist_counters();
        assert_eq!((p.restored, p.corrupt_skipped), (0, 1));
        assert_eq!(second.handle_batch(&trace).responses, cold);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_frame_with_no_insert_does_not_touch_the_file() {
        let path = temp_cache("clean");
        let svc = Service::new(persisting(&path));
        let identity = || {
            let m = std::fs::metadata(&path).unwrap();
            (m.ino(), m.mtime(), m.mtime_nsec())
        };
        assert_eq!(svc.persist_if_dirty().unwrap(), 0);
        assert!(!path.exists(), "an empty store has nothing to make durable");

        let compile = r#"{"id":1,"op":"compile","app":"bfs"}"#.to_string();
        svc.handle_batch(std::slice::from_ref(&compile));
        assert_eq!(svc.persist_if_dirty().unwrap(), 1);
        let written = identity();

        // A hit, a bypass and an error: no insert between them.
        let frame = [
            compile,
            r#"{"id":2,"op":"simulate","app":"bfs","input":"internet-s","variant":"serial"}"#
                .to_string(),
            r#"{"id":3,"op":"compile","app":"nope"}"#.to_string(),
        ];
        let answers = svc.handle_batch(&frame).responses;
        assert!(answers[0].contains(r#""cache":"hit""#), "{}", answers[0]);
        assert!(answers[1].contains(r#""cache":"bypass""#), "{}", answers[1]);
        assert!(answers[2].contains(r#""ok":false"#), "{}", answers[2]);
        assert_eq!(svc.persist_if_dirty().unwrap(), 0);
        assert_eq!(identity(), written);
        assert_eq!(svc.persist_counters().persisted, 1);

        // The unconditional save still writes: a rename, so a new inode.
        assert_eq!(svc.persist_now().unwrap(), 1);
        assert_ne!(identity().0, written.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_saves_never_tear_the_snapshot() {
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 24;
        let path = temp_cache("race");
        let store = Store::new(1024, 1024);
        let done = AtomicBool::new(false);
        let pad = "x".repeat(300);
        let keys_on_disk = || {
            let loaded = persist::load(&path).unwrap();
            assert_eq!(loaded.corrupt_skipped, 0, "a reader saw a torn snapshot");
            let snap = loaded.snapshot;
            let keys = snap.compile.into_iter().chain(snap.search);
            keys.map(|(key, _)| key)
                .collect::<std::collections::HashSet<u64>>()
        };
        std::thread::scope(|s| {
            // Whatever `path` holds at any moment is a whole snapshot.
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    keys_on_disk();
                }
            });
            let writers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (store, path, pad, keys_on_disk) = (&store, &path, &pad, &keys_on_disk);
                    s.spawn(move || {
                        for i in 0..ROUNDS {
                            let key = t * 1000 + i;
                            let sel = [Sel::Compile, Sel::Search][(i % 2) as usize];
                            store.insert(
                                sel,
                                key,
                                format!(r#"{{"k":{key},"pad":"{pad}"}}"#).into(),
                            );
                            // Both entry points, as a frame and a drain
                            // on two connections would mix them.
                            let saved = store.save(path, t % 2 == 1);
                            saved.expect("a save lost its tmp file to another writer");
                            let on_disk = keys_on_disk();
                            for mine in (0..=i).map(|i| t * 1000 + i) {
                                assert!(on_disk.contains(&mine), "completed save lost row {mine}");
                            }
                        }
                    })
                })
                .collect();
            // Stop the reader before a writer's panic propagates.
            let joined: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
            done.store(true, Ordering::Release);
            for writer in joined {
                if let Err(panic) = writer {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        assert_eq!(keys_on_disk().len() as u64, THREADS * ROUNDS);
        let _ = std::fs::remove_file(&path);
    }
}
