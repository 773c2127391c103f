//! Content-addressed on-disk result cache.
//!
//! Each cached entry is one JSON file under the cache directory, named by
//! an FNV-1a hash of the schema version plus the cell's canonical
//! [`key`](crate::Cell::key). The file stores the schema, the full key,
//! and the serialized [`RunReport`]; on load both the schema and the key
//! are re-checked, so a hash collision, a stale schema, or a corrupt file
//! all degrade to a cache miss — never to a wrong result.
//!
//! The cache is safe for concurrent writers in one or many processes:
//! every store writes to a uniquely-named temp file (pid + sequence
//! number) and atomically renames it into place, so readers only ever see
//! complete entries; two writers racing on the same cell both publish a
//! whole file and the later rename wins with an identical result. A
//! reader racing a [`Cache::clear`] sees a missing entry, which is just a
//! miss — the cell re-runs.
//!
//! [`Cache::stats`] memoizes what each file counts as, keyed by the
//! content-address hash in its name and checked against the file's length
//! and mtime, so a scan reads and parses only new or changed files and a
//! warm scan costs one directory walk. Like git's "racily clean" index
//! entries, a file whose mtime is within [`SETTLE`] of a scan's start is
//! never trusted: timestamps come from a coarse clock, so an in-place
//! rewrite inside one tick cannot be served stale. Clones of one `Cache`
//! share the memo.

use crate::Cell;
use hintm::{Json, RunReport, WORKLOAD_NAMES};
use hintm_trace::Fnv64;
use std::collections::{BTreeMap, HashMap};
use std::ffi::OsStr;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, SystemTime};

/// Version of the cached-entry format AND of anything that feeds the
/// simulated numbers. Bump it whenever reports change meaning (new stats
/// fields, simulator behavior changes) to invalidate every prior entry.
pub const SCHEMA_VERSION: u32 = 2;

/// How old a file's mtime must be, at a scan's start, before
/// [`Cache::stats`] trusts a memoized verdict for it. It covers the
/// coarsest file timestamp clock in common use (one second).
const SETTLE: Duration = Duration::from_secs(1);

/// Whether a file stamped `mtime` has settled by `scan_start`: a later
/// rewrite is then bound to change its mtime. A future mtime (clock skew)
/// never settles.
fn settled(mtime: SystemTime, scan_start: SystemTime) -> bool {
    scan_start
        .duration_since(mtime)
        .is_ok_and(|age| age >= SETTLE)
}

/// The content-address hash a cache file's stem spells, or `None` for
/// any other name. Only the exact form [`Cache::path_for`] writes (16
/// lowercase hex digits) counts, so distinct names never share a hash.
fn content_hash(stem: &OsStr) -> Option<u64> {
    let stem = stem.to_str()?;
    if stem.len() != 16 || !stem.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

/// What one cache file counts as in [`CacheStats`]. `W` names the
/// workload: a `&str` when counting, an index into [`WORKLOAD_NAMES`] in
/// the memo.
#[derive(Clone, Copy, Debug)]
enum Verdict<W> {
    /// A current-schema entry of this workload.
    Current(W),
    /// A well-formed entry at another schema version.
    Stale,
    /// A file whose contents are not a well-formed entry.
    Unreadable,
}

impl Verdict<&str> {
    /// The memo's form, or `None` for a workload outside the registry
    /// (such a file is simply re-read on every scan).
    fn compact(self) -> Option<Verdict<u8>> {
        Some(match self {
            Verdict::Current(w) => {
                let i = WORKLOAD_NAMES.iter().position(|&n| n == w)?;
                Verdict::Current(u8::try_from(i).ok()?)
            }
            Verdict::Stale => Verdict::Stale,
            Verdict::Unreadable => Verdict::Unreadable,
        })
    }
}

impl Verdict<u8> {
    fn expand(self) -> Verdict<&'static str> {
        match self {
            Verdict::Current(i) => Verdict::Current(WORKLOAD_NAMES[usize::from(i)]),
            Verdict::Stale => Verdict::Stale,
            Verdict::Unreadable => Verdict::Unreadable,
        }
    }
}

/// A settled file's verdict, valid while its length and mtime match.
#[derive(Debug)]
struct Memoized {
    mtime: SystemTime,
    len: u64,
    verdict: Verdict<u8>,
    /// The last scan that saw the file unchanged.
    scan: u32,
}

/// The memo behind [`Cache::stats`] (see the module docs).
#[derive(Debug, Default)]
struct Memo {
    /// Settled files, by the content-address hash in their names.
    files: HashMap<u64, Memoized>,
    /// Scans so far; files a scan did not confirm are dropped after it.
    scan: u32,
    /// Files the latest scan had to read and parse.
    parsed: usize,
}

/// A result cache rooted at one directory. Clones share one
/// [`Cache::stats`] memo.
#[derive(Clone, Debug)]
pub struct Cache {
    dir: PathBuf,
    schema: u32,
    memo: Arc<Mutex<Memo>>,
}

impl Cache {
    /// A cache at `dir` with the current [`SCHEMA_VERSION`].
    pub fn new(dir: impl Into<PathBuf>) -> Cache {
        Cache::with_schema(dir, SCHEMA_VERSION)
    }

    /// A cache at `dir` pinned to an explicit schema version. Exposed so
    /// tests can prove a schema bump invalidates old entries; production
    /// code should use [`Cache::new`].
    pub(crate) fn with_schema(dir: impl Into<PathBuf>, schema: u32) -> Cache {
        Cache {
            dir: dir.into(),
            schema,
            memo: Arc::default(),
        }
    }

    /// The default cache directory: `$HINTM_CACHE_DIR`, or `.hintm-cache`
    /// in the current directory.
    pub fn default_dir() -> PathBuf {
        std::env::var_os("HINTM_CACHE_DIR")
            .map_or_else(|| PathBuf::from(".hintm-cache"), PathBuf::from)
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a cell's result lives at. Its name is a 64-bit FNV-1a
    /// hash; collisions are harmless (the stored key is re-checked), so a
    /// small fast non-cryptographic hash is enough.
    pub fn path_for(&self, cell: &Cell) -> PathBuf {
        let addressed = format!("schema={}|{}", self.schema, cell.key());
        self.dir
            .join(format!("{:016x}.json", Fnv64::hash(addressed.as_bytes())))
    }

    /// Loads a cell's cached report. Any mismatch — missing file, parse
    /// failure, wrong schema, wrong key — is a miss.
    pub fn load(&self, cell: &Cell) -> Option<RunReport> {
        let text = fs::read_to_string(self.path_for(cell)).ok()?;
        let j = Json::parse(&text).ok()?;
        if j.field("schema").ok()?.as_u64().ok()? != self.schema as u64 {
            return None;
        }
        if j.field("key").ok()?.as_str().ok()? != cell.key() {
            return None;
        }
        RunReport::from_json_value(j.field("report").ok()?).ok()
    }

    /// Stores a cell's report, atomically (write-then-rename), creating
    /// the cache directory on first use. The temp file carries the
    /// writing process's id plus a process-wide sequence number, so
    /// concurrent writers — threads or whole processes — never clobber
    /// each other's half-written files; the rename publishes a complete
    /// entry or nothing.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory or file cannot
    /// be written.
    pub fn store(&self, cell: &Cell, report: &RunReport) -> io::Result<()> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        fs::create_dir_all(&self.dir)?;
        let entry = Json::Obj(vec![
            ("schema".into(), Json::u64(self.schema as u64)),
            ("key".into(), Json::Str(cell.key())),
            ("report".into(), report.to_json_value()),
        ]);
        let path = self.path_for(cell);
        let tmp = self.dir.join(format!(
            "{}.{}.{}.tmp",
            path.file_stem().and_then(|s| s.to_str()).unwrap_or("entry"),
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        fs::write(&tmp, entry.to_string())?;
        fs::rename(&tmp, &path).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
    }

    /// Deletes every cached entry, returning how many were removed. A
    /// missing cache directory counts as already clear, and an entry that
    /// vanishes mid-clear (a concurrent clear, or a writer's temp file
    /// renamed away) is skipped rather than an error.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if an entry cannot be removed.
    pub fn clear(&self) -> io::Result<usize> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut removed = 0;
        for entry in entries {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "json" || e == "tmp") {
                match fs::remove_file(&path) {
                    Ok(()) => removed += 1,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(removed)
    }

    /// Scans the cache directory and summarizes its contents. This is the
    /// single code path behind both `hintm cache stats` and the server's
    /// `GET /stats` endpoint.
    ///
    /// What each file counts as is memoized (see the module docs): a file
    /// is read and parsed only when it is new, its length or mtime
    /// changed, or its mtime is within one second of this scan's start, so
    /// a warm scan of an unchanged cache costs one directory walk. Files
    /// that vanish drop out of the memo. Scans through clones of one
    /// `Cache` share the memo and run one at a time; the result always
    /// equals a cold scan's.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be read;
    /// a missing directory is an empty cache, and individual unreadable
    /// or corrupt entries are counted rather than fatal.
    pub fn stats(&self) -> io::Result<CacheStats> {
        let mut stats = CacheStats {
            dir: self.dir.clone(),
            schema: self.schema,
            ..CacheStats::default()
        };
        let scan_start = SystemTime::now();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(stats),
            Err(e) => return Err(e),
        };
        // A panic mid-scan leaves every memoized verdict valid on its own.
        let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        let Memo {
            files,
            scan,
            parsed,
        } = &mut *memo;
        *scan = scan.wrapping_add(1);
        *parsed = 0;
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let name = Path::new(&name);
            if name.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let meta = entry.metadata().ok();
            let bytes = meta.as_ref().map_or(0, |m| m.len());
            // Only a settled regular file named by its hash is memoized.
            let slot = meta
                .filter(fs::Metadata::is_file)
                .and_then(|m| m.modified().ok())
                .filter(|&mtime| settled(mtime, scan_start))
                .zip(name.file_stem().and_then(content_hash));
            if let Some((mtime, hash)) = slot {
                if let Some(hit) = files
                    .get_mut(&hash)
                    .filter(|m| m.len == bytes && m.mtime == mtime)
                {
                    hit.scan = *scan;
                    stats.count(hit.verdict.expand(), bytes);
                    continue;
                }
            }
            *parsed += 1;
            let Ok(text) = fs::read_to_string(entry.path()) else {
                // An I/O failure may be transient: count it, memoize nothing.
                stats.unreadable += 1;
                continue;
            };
            let json = Json::parse(&text).ok();
            let verdict = json.as_ref().map_or(Verdict::Unreadable, |j| self.judge(j));
            stats.count(verdict, bytes);
            if let (Some((mtime, hash)), Some(verdict)) = (slot, verdict.compact()) {
                let scan = *scan;
                files.insert(
                    hash,
                    Memoized {
                        mtime,
                        len: bytes,
                        verdict,
                        scan,
                    },
                );
            }
        }
        files.retain(|_, m| m.scan == *scan);
        Ok(stats)
    }

    /// What a parsed cache file counts as.
    fn judge<'j>(&self, j: &'j Json) -> Verdict<&'j str> {
        let schema = j.field("schema").and_then(Json::as_u64);
        let key = j.field("key").and_then(Json::as_str);
        match (schema, key) {
            (Ok(schema), Ok(_)) if schema != self.schema as u64 => Verdict::Stale,
            // The workload is the key's first `|`-separated field.
            (Ok(_), Ok(key)) => Verdict::Current(key.split('|').next().unwrap_or("?")),
            _ => Verdict::Unreadable,
        }
    }
}

/// Per-workload slice of a [`CacheStats`] breakdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkloadCacheStats {
    /// Cached entries for this workload at the current schema.
    pub entries: usize,
    /// Total bytes those entries occupy on disk.
    pub bytes: u64,
}

/// A summary of a cache directory's contents (see [`Cache::stats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// The cache root that was scanned.
    pub dir: PathBuf,
    /// The schema version the scan counted as current.
    pub schema: u32,
    /// Entries at the current schema version.
    pub entries: usize,
    /// Total bytes of the current-schema entries.
    pub bytes: u64,
    /// Well-formed entries at a different (stale) schema version.
    pub stale: usize,
    /// Files that could not be read or parsed.
    pub unreadable: usize,
    /// Current-schema entries grouped by workload (sorted by name).
    pub by_workload: BTreeMap<String, WorkloadCacheStats>,
}

impl CacheStats {
    /// Counts one file of `bytes` bytes.
    fn count(&mut self, verdict: Verdict<&str>, bytes: u64) {
        match verdict {
            Verdict::Current(workload) => {
                self.entries += 1;
                self.bytes += bytes;
                let w = match self.by_workload.get_mut(workload) {
                    Some(w) => w,
                    None => self.by_workload.entry(workload.to_string()).or_default(),
                };
                w.entries += 1;
                w.bytes += bytes;
            }
            Verdict::Stale => self.stale += 1,
            Verdict::Unreadable => self.unreadable += 1,
        }
    }

    /// Renders the stats as a JSON object (the `cache` section of the
    /// server's `GET /stats` response).
    pub fn to_json(&self) -> Json {
        let workloads = self
            .by_workload
            .iter()
            .map(|(name, w)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("entries".into(), Json::u64(w.entries as u64)),
                        ("bytes".into(), Json::u64(w.bytes)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("dir".into(), Json::Str(self.dir.display().to_string())),
            ("schema".into(), Json::u64(self.schema as u64)),
            ("entries".into(), Json::u64(self.entries as u64)),
            ("bytes".into(), Json::u64(self.bytes)),
            ("stale".into(), Json::u64(self.stale as u64)),
            ("unreadable".into(), Json::u64(self.unreadable as u64)),
            ("by_workload".into(), Json::Obj(workloads)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hintm-cache-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn report() -> RunReport {
        Cell::new("ssca2").run().unwrap()
    }

    #[test]
    fn store_then_load_is_bit_identical() {
        let dir = tmp("roundtrip");
        let cache = Cache::new(&dir);
        let cell = Cell::new("ssca2");
        let r = report();
        assert!(cache.load(&cell).is_none());
        cache.store(&cell, &r).unwrap();
        let back = cache.load(&cell).expect("hit");
        assert_eq!(back.to_json(), r.to_json());
        // A different cell misses even with the file present.
        assert!(cache.load(&Cell::new("ssca2").seed(7)).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_bump_invalidates() {
        let dir = tmp("schema");
        let cell = Cell::new("ssca2");
        let r = report();
        Cache::with_schema(&dir, 1).store(&cell, &r).unwrap();
        assert!(Cache::with_schema(&dir, 1).load(&cell).is_some());
        assert!(Cache::with_schema(&dir, 2).load(&cell).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entry_is_a_miss() {
        let dir = tmp("corrupt");
        let cache = Cache::new(&dir);
        let cell = Cell::new("ssca2");
        cache.store(&cell, &report()).unwrap();
        fs::write(cache.path_for(&cell), "{not json").unwrap();
        assert!(cache.load(&cell).is_none());
        // Valid JSON with the wrong key is also a miss (collision guard).
        fs::write(
            cache.path_for(&cell),
            format!("{{\"schema\":{SCHEMA_VERSION},\"key\":\"other\",\"report\":{{}}}}"),
        )
        .unwrap();
        assert!(cache.load(&cell).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_and_readers_never_corrupt_an_entry() {
        let dir = tmp("concurrent");
        let cache = Cache::new(&dir);
        let cell = Cell::new("ssca2");
        let r = report();
        let expected = r.to_json();
        // Two writer threads hammer the same cell while two readers poll
        // it. Every load must be either a miss (before the first publish)
        // or the complete, correct report — never a torn file.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        cache.store(&cell, &r).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        if let Some(back) = cache.load(&cell) {
                            assert_eq!(back.to_json(), expected);
                        }
                    }
                });
            }
        });
        assert_eq!(cache.load(&cell).unwrap().to_json(), expected);
        // No temp files left behind.
        let leftovers = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "tmp")
            })
            .count();
        assert_eq!(leftovers, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_count_entries_stale_and_unreadable() {
        let dir = tmp("stats");
        let cache = Cache::new(&dir);
        assert_eq!(cache.stats().unwrap().entries, 0, "missing dir is empty");
        let r = report();
        cache.store(&Cell::new("ssca2"), &r).unwrap();
        cache.store(&Cell::new("ssca2").seed(7), &r).unwrap();
        cache.store(&Cell::new("kmeans"), &r).unwrap();
        Cache::with_schema(&dir, 99)
            .store(&Cell::new("kmeans").seed(9), &r)
            .unwrap();
        fs::write(dir.join("garbage.json"), "{not json").unwrap();

        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.stale, 1);
        assert_eq!(stats.unreadable, 1);
        assert!(stats.bytes > 0);
        assert_eq!(stats.by_workload["ssca2"].entries, 2);
        assert_eq!(stats.by_workload["kmeans"].entries, 1);
        let json = stats.to_json();
        assert_eq!(json.field("entries").unwrap().as_u64().unwrap(), 3);
        assert!(json.field("by_workload").unwrap().get("ssca2").is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Stamps every file in `dir` an hour old, so scans trust their memo.
    fn backdate(dir: &Path) {
        let old = SystemTime::now() - Duration::from_secs(3600);
        for entry in fs::read_dir(dir).unwrap() {
            let file = fs::File::options()
                .write(true)
                .open(entry.unwrap().path())
                .unwrap();
            file.set_modified(old).unwrap();
        }
    }

    /// Overwrites `path` in place with garbage of the same length.
    fn scribble(path: &Path) {
        let len = fs::metadata(path).unwrap().len() as usize;
        fs::write(path, "x".repeat(len)).unwrap();
    }

    fn memo(cache: &Cache) -> std::sync::MutexGuard<'_, Memo> {
        cache.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn only_mtimes_a_full_settle_window_old_are_trusted() {
        let now = SystemTime::now();
        assert!(settled(now - SETTLE, now));
        assert!(settled(now - Duration::from_secs(3600), now));
        assert!(!settled(now - SETTLE + Duration::from_millis(1), now));
        assert!(!settled(now, now));
        assert!(!settled(now + Duration::from_secs(3600), now), "future");
    }

    #[test]
    fn only_path_for_names_carry_a_content_hash() {
        let cell = Cell::new("ssca2");
        let path = Cache::new("d").path_for(&cell);
        let addressed = format!("schema={SCHEMA_VERSION}|{}", cell.key());
        assert_eq!(
            content_hash(path.file_stem().unwrap()),
            Some(Fnv64::hash(addressed.as_bytes()))
        );
        assert_eq!(content_hash(OsStr::new("00000000000000ab")), Some(0xab));
        for other in [
            "00000000000000AB",
            "+0000000000000ab",
            "0000000000000ab",
            "garbage",
        ] {
            assert_eq!(content_hash(OsStr::new(other)), None, "{other}");
        }
    }

    #[test]
    fn warm_stats_match_a_cold_scan_after_interleaved_work() {
        let dir = tmp("memo");
        let cache = Cache::new(&dir);
        // Another process writing the same directory.
        let other = Cache::new(&dir);
        let r = report();
        let matches_cold = || {
            let warm = cache.stats().unwrap();
            assert_eq!(warm, Cache::new(&dir).stats().unwrap());
            warm
        };
        matches_cold();
        cache.store(&Cell::new("ssca2"), &r).unwrap();
        other.store(&Cell::new("kmeans"), &r).unwrap();
        matches_cold();
        Cache::with_schema(&dir, 99)
            .store(&Cell::new("kmeans").seed(9), &r)
            .unwrap();
        fs::write(dir.join("0123456789abcdef.json"), "{not json").unwrap();
        fs::write(dir.join("garbage.json"), "{not json").unwrap();
        other.store(&Cell::new("ssca2").seed(7), &r).unwrap();
        // A workload outside the registry is counted but never memoized.
        other.store(&Cell::new("custom"), &r).unwrap();
        matches_cold();

        backdate(&dir);
        let stats = matches_cold();
        assert_eq!((stats.entries, stats.stale, stats.unreadable), (4, 1, 2));
        assert_eq!(stats.by_workload["custom"].entries, 1);
        // Every other settled file named by its hash is now memoized: a
        // rescan re-reads only `garbage.json` and the `custom` entry.
        assert_eq!(memo(&cache).files.len(), 5);
        assert_eq!(cache.stats().unwrap(), stats);
        assert_eq!(memo(&cache).parsed, 2);

        fs::remove_file(cache.path_for(&Cell::new("ssca2"))).unwrap();
        assert_eq!(matches_cold().entries, 3);
        assert_eq!(memo(&cache).files.len(), 4, "vanished file dropped");
        other.store(&Cell::new("genome"), &r).unwrap();
        assert_eq!(matches_cold().by_workload["genome"].entries, 1);

        cache.clear().unwrap();
        assert_eq!(
            matches_cold(),
            CacheStats {
                dir: dir.clone(),
                schema: SCHEMA_VERSION,
                ..CacheStats::default()
            }
        );
        assert!(memo(&cache).files.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_length_rewrite_after_a_scan_counts_as_unreadable() {
        let dir = tmp("rewrite");
        let cache = Cache::new(&dir);
        let r = report();

        // A fresh entry: the rewrite lands inside the settle window. Even
        // with the old mtime put back, as a clock too coarse to tick
        // between the two writes would leave it, the scan re-reads it.
        let fresh = Cell::new("ssca2");
        cache.store(&fresh, &r).unwrap();
        let path = cache.path_for(&fresh);
        let mtime = fs::metadata(&path).unwrap().modified().unwrap();
        assert_eq!(cache.stats().unwrap().entries, 1);
        scribble(&path);
        let file = fs::File::options().write(true).open(&path).unwrap();
        file.set_modified(mtime).unwrap();
        let stats = cache.stats().unwrap();
        assert_eq!((stats.entries, stats.unreadable), (0, 1));

        // A settled, memoized entry: the rewrite moves its mtime.
        fs::remove_file(&path).unwrap();
        let settled = Cell::new("kmeans");
        cache.store(&settled, &r).unwrap();
        backdate(&dir);
        assert_eq!(cache.stats().unwrap().entries, 1);
        assert_eq!(memo(&cache).files.len(), 1);
        scribble(&cache.path_for(&settled));
        let stats = cache.stats().unwrap();
        assert_eq!((stats.entries, stats.unreadable), (0, 1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clones_share_one_memo() {
        let dir = tmp("clones");
        let cache = Cache::new(&dir);
        let clone = cache.clone();
        assert!(Arc::ptr_eq(&cache.memo, &clone.memo));
        cache.store(&Cell::new("ssca2"), &report()).unwrap();
        backdate(&dir);
        assert_eq!(cache.stats().unwrap().entries, 1);
        assert_eq!(memo(&cache).parsed, 1);
        assert_eq!(clone.stats().unwrap().entries, 1);
        assert_eq!(memo(&clone).parsed, 0, "the clone reused the scan");
        // A separate instance on the same directory starts cold.
        let separate = Cache::new(&dir);
        assert_eq!(separate.stats().unwrap().entries, 1);
        assert_eq!(memo(&separate).parsed, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_poisoned_memo_still_serves_stats() {
        let dir = tmp("poison");
        let cache = Cache::new(&dir);
        cache.store(&Cell::new("ssca2"), &report()).unwrap();
        let clone = cache.clone();
        let _ = std::thread::spawn(move || {
            let _held = clone.memo.lock().unwrap();
            panic!("a scan panicked");
        })
        .join();
        assert!(cache.memo.is_poisoned());
        assert_eq!(cache.stats().unwrap().entries, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_removes_entries_and_tolerates_missing_dir() {
        let dir = tmp("clear");
        let cache = Cache::new(&dir);
        assert_eq!(cache.clear().unwrap(), 0);
        cache.store(&Cell::new("ssca2"), &report()).unwrap();
        cache.store(&Cell::new("ssca2").seed(7), &report()).unwrap();
        assert_eq!(cache.clear().unwrap(), 2);
        assert_eq!(cache.clear().unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
