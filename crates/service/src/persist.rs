//! Crash-safe cache snapshots: a checksummed, line-oriented dump of the
//! service's rendered response payloads, written atomically.
//!
//! ## Format
//!
//! ```text
//! phloem-cache v4
//! C <key:16-hex> <check:16-hex> <payload-json>
//! S <key:16-hex> <check:16-hex> <payload-json>
//! ```
//!
//! One entry per line: `C` rows feed the compile cache, `S` rows the
//! search/trace cache. `key` is the content-addressed cache key;
//! `check` is an FNV-1a digest over `(tag, key, payload)` so a torn or
//! bit-flipped line is detected independently of every other line.
//! `payload` is the entry's rendered response payload — compact JSON,
//! so it never contains a newline and the line framing is unambiguous.
//!
//! Entries appear **least recently used first**, per cache, so
//! replaying them through `Lru::insert` on startup reconstructs both
//! the contents *and* the eviction order of the snapshotted cache.
//!
//! ## Guarantees
//!
//! * **Atomic save** — the snapshot is written to `<path>.tmp`,
//!   `sync_all`'d, then renamed over `path`. A crash mid-save leaves
//!   the previous snapshot intact; there is never a moment where
//!   `path` holds a partial file — provided saves to one `path` do not
//!   overlap (they share the one tmp file). The service serialises its
//!   own behind the store's save lock.
//! * **Tolerant load** — a missing file is an empty snapshot; a
//!   corrupt line (bad shape, bad hex, checksum mismatch) is skipped
//!   and counted, never fatal. A corrupt *header* distrusts the whole
//!   file (the format version is unknown) but still only counts, so a
//!   damaged snapshot can never prevent the daemon from starting.

use crate::key::KeyHasher;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Magic first line; bump the version when the row format or what a
/// key digests changes, so rows no probe can reach are dropped at load
/// instead of occupying LRU capacity. v3: the trace digest became a
/// word-wise fold (DESIGN §trace); a v2 `"trace"` hex is a different
/// function of the same stream and must not be served as a hit. v4:
/// a `search` row's `profile` names the critical *compute* stage and
/// the stall class summed across stages; a v3 row may hold neither.
const HEADER: &str = "phloem-cache v4";

/// Which cache a snapshot row belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sel {
    /// The compile cache (`C` rows).
    Compile,
    /// The search/trace cache (`S` rows).
    Search,
}

impl Sel {
    fn tag(self) -> u8 {
        match self {
            Sel::Compile => b'C',
            Sel::Search => b'S',
        }
    }
}

/// Lifetime persistence counters, surfaced by the `stats` op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistCounters {
    /// Entries written across all saves.
    pub persisted: u64,
    /// Entries restored from snapshots at load time.
    pub restored: u64,
    /// Snapshot lines skipped as corrupt (checksum/shape/header).
    pub corrupt_skipped: u64,
}

/// Everything a save writes / a load returns: `(key, rendered payload)`
/// pairs per cache, least recently used first. A payload is the cached
/// value itself — the fragment rendered once at miss time — so saving
/// shares it rather than re-rendering or copying it.
#[derive(Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Compile-cache entries.
    pub compile: Vec<(u64, Arc<str>)>,
    /// Search/trace-cache entries.
    pub search: Vec<(u64, Arc<str>)>,
}

impl Snapshot {
    /// Total entries across both caches.
    pub fn len(&self) -> usize {
        self.compile.len() + self.search.len()
    }

    /// True when the snapshot holds nothing.
    pub fn is_empty(&self) -> bool {
        self.compile.is_empty() && self.search.is_empty()
    }
}

/// A loaded snapshot plus how many lines had to be discarded.
#[derive(Debug, Default)]
pub struct Loaded {
    /// The surviving entries.
    pub snapshot: Snapshot,
    /// Corrupt lines skipped (0 on a clean file).
    pub corrupt_skipped: u64,
}

/// Per-line checksum: FNV-1a over the tag byte, the key, and the
/// payload text. Field order matters (it is part of the format).
fn line_check(sel: Sel, key: u64, payload: &str) -> u64 {
    let mut h = KeyHasher::new();
    h.bytes(&[sel.tag()]).u64(key).str(payload);
    h.finish()
}

/// Writes `snap` to `path` atomically (tmp + `sync_all` + rename).
/// Returns the number of entries written.
pub fn save(path: &Path, snap: &Snapshot) -> std::io::Result<u64> {
    let mut text = String::with_capacity(64 * (1 + snap.len()));
    text.push_str(HEADER);
    text.push('\n');
    let mut written = 0u64;
    for (sel, entries) in [(Sel::Compile, &snap.compile), (Sel::Search, &snap.search)] {
        for (key, payload) in entries {
            debug_assert!(!payload.contains('\n'), "payloads are compact JSON");
            let check = line_check(sel, *key, payload);
            let _ = writeln!(
                text,
                "{} {key:016x} {check:016x} {payload}",
                sel.tag() as char
            );
            written += 1;
        }
    }
    let tmp = tmp_path(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(written)
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Loads `path`, skipping (and counting) corrupt lines. A missing file
/// is an empty snapshot; any other I/O failure is returned as-is.
/// Decoding is lossy on purpose: a bit-flip into invalid UTF-8 must
/// surface as a per-line checksum mismatch (counted corruption), not an
/// `InvalidData` error that throws the whole snapshot away.
pub fn load(path: &Path) -> std::io::Result<Loaded> {
    let text = match std::fs::read(path) {
        Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Loaded::default()),
        Err(e) => return Err(e),
    };
    let mut lines = text.lines();
    let mut out = Loaded::default();
    if lines.next() != Some(HEADER) {
        // Unknown version or damaged header: the row format cannot be
        // trusted, so the whole file is one corrupt unit.
        out.corrupt_skipped = 1;
        return Ok(out);
    }
    for line in lines {
        if line.is_empty() {
            continue; // trailing newline artifacts are not corruption
        }
        match parse_line(line) {
            Some((Sel::Compile, key, payload)) => out.snapshot.compile.push((key, payload)),
            Some((Sel::Search, key, payload)) => out.snapshot.search.push((key, payload)),
            None => out.corrupt_skipped += 1,
        }
    }
    Ok(out)
}

fn parse_line(line: &str) -> Option<(Sel, u64, Arc<str>)> {
    let sel = match line.as_bytes().first()? {
        b'C' => Sel::Compile,
        b'S' => Sel::Search,
        _ => return None,
    };
    let rest = line.get(1..)?.strip_prefix(' ')?;
    let (key_hex, rest) = rest.split_once(' ')?;
    let (check_hex, payload) = rest.split_once(' ')?;
    if key_hex.len() != 16 || check_hex.len() != 16 {
        return None;
    }
    let key = u64::from_str_radix(key_hex, 16).ok()?;
    let check = u64::from_str_radix(check_hex, 16).ok()?;
    if line_check(sel, key, payload) != check {
        return None;
    }
    Some((sel, key, payload.into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("phloem-persist-test-{}-{name}", std::process::id()));
        p
    }

    fn sample() -> Snapshot {
        Snapshot {
            compile: vec![
                (0xdead_beef, r#"{"app":"bfs","stages":4}"#.into()),
                (7, r#"{"app":"cc","stages":2}"#.into()),
            ],
            search: vec![(42, r#"{"best_cuts":[3],"viable":2}"#.into())],
        }
    }

    #[test]
    fn save_load_round_trips_bit_identically() {
        let path = temp_file("roundtrip");
        let snap = sample();
        assert_eq!(save(&path, &snap).unwrap(), 3);
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.corrupt_skipped, 0);
        assert_eq!(loaded.snapshot, snap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_empty_snapshot() {
        let loaded = load(Path::new("/nonexistent/phloem-cache-nowhere")).unwrap();
        assert!(loaded.snapshot.is_empty());
        assert_eq!(loaded.corrupt_skipped, 0);
    }

    #[test]
    fn corrupt_lines_are_skipped_and_counted_not_fatal() {
        let path = temp_file("corrupt");
        save(&path, &sample()).unwrap();
        // Flip one payload byte in the middle line; its checksum no
        // longer matches, but the neighbours must survive.
        let text = std::fs::read_to_string(&path).unwrap();
        let mangled: String = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == 2 {
                    l.replace("\"cc\"", "\"CC\"")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(&path, mangled).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.corrupt_skipped, 1);
        assert_eq!(loaded.snapshot.compile.len(), 1);
        assert_eq!(loaded.snapshot.search.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_and_garbage_rows_are_tolerated() {
        let path = temp_file("truncated");
        save(&path, &sample()).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.truncate(text.len() - 9); // tear the last line mid-payload
        text.push_str("\nnot a row at all\n");
        std::fs::write(&path, &text).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.corrupt_skipped, 2);
        assert_eq!(loaded.snapshot.compile.len(), 2);
        assert!(loaded.snapshot.search.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_utf8_flip_is_counted_corruption_not_an_error() {
        let path = temp_file("nonutf8");
        save(&path, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Stomp an invalid UTF-8 byte into the middle line's payload.
        let line_start = bytes
            .iter()
            .enumerate()
            .filter(|(_, b)| **b == b'\n')
            .nth(1)
            .map(|(i, _)| i + 1)
            .unwrap();
        bytes[line_start + 40] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.corrupt_skipped, 1);
        assert_eq!(loaded.snapshot.compile.len(), 1);
        assert_eq!(loaded.snapshot.search.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_header_distrusts_the_file_without_failing() {
        let path = temp_file("header");
        std::fs::write(&path, "phloem-cache v999\nC 00 00 {}\n").unwrap();
        let loaded = load(&path).unwrap();
        assert!(loaded.snapshot.is_empty());
        assert_eq!(loaded.corrupt_skipped, 1);
        // The previous version, every row's checksum intact: still one
        // corrupt unit — its keys may name values computed under an
        // older definition (v3's search profiles).
        save(&path, &sample()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("phloem-cache v4\n"));
        std::fs::write(&path, text.replacen("v4", "v3", 1)).unwrap();
        let loaded = load(&path).unwrap();
        assert!(loaded.snapshot.is_empty());
        assert_eq!(loaded.corrupt_skipped, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_is_atomic_under_replacement() {
        let path = temp_file("atomic");
        save(&path, &sample()).unwrap();
        let second = Snapshot {
            compile: vec![(1, "{}".into())],
            search: Vec::new(),
        };
        save(&path, &second).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.snapshot, second);
        assert!(
            !tmp_path(&path).exists(),
            "tmp file must not survive a completed save"
        );
        let _ = std::fs::remove_file(&path);
    }
}
