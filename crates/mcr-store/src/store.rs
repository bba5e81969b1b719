//! The sharded, disk-backed result store.
//!
//! Layout under the store directory (DESIGN.md §5j):
//!
//! ```text
//! <dir>/shard-00/<16-hex config_key>.json   committed entries
//! <dir>/shard-00/.<key>.<pid>-<seq>.tmp     in-flight writes (private names)
//! <dir>/quarantine/<shard>-<file>.<seq>     entries that failed validation
//! ```
//!
//! Opening a store creates only `<dir>`: a shard directory appears at
//! the first publish into it, `quarantine/` at the first quarantine. A
//! missing directory reads as an empty one.
//!
//! Entries are content-addressed by [`SystemConfig::config_key`]
//! (`mcr_dram::SystemConfig::config_key`) and land in shard
//! `key & (shards - 1)`. Publishing is atomic: the entry is fully
//! written to a process-unique `.tmp` name in the same directory, then
//! `rename`d over the final name — readers only ever open `*.json`
//! files, so they see either the old entry, the new entry, or nothing,
//! never a torn write. Because every publisher of a key writes the
//! identical bytes (reports are pure functions of their config), races
//! between processes are harmless last-writer-wins.
//!
//! Every entry embeds an FNV-1a checksum of its report's bytes as
//! stored. A reader that finds anything wrong — an envelope other than
//! the writer's, a checksum mismatch, a key that disagrees with the
//! filename, unparseable JSON, a decode error — moves the file into
//! `quarantine/` and reports a miss, so the sweep engine silently
//! recomputes and re-publishes. Corruption can cost wall clock, never
//! correctness.

use crate::codec::{decode_report, parse_key_hex, report_to_json};
use mcr_dram::{ReportStore, RunReport};
use mcr_telemetry::Counter;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Entry-format version stamped into every file, as it is written there;
/// bump on layout changes so older stores quarantine cleanly instead of
/// half-decoding.
const FORMAT: &str = "1";

/// The entry envelope, which [`encode_entry`] writes and [`split_entry`]
/// reads: `{"format":1,"key":"<16 hex>","checksum":"<16 hex>","report":`,
/// the report, then `}` and a newline. The report is the last member, so
/// its stored bytes run from the end of [`REPORT`] to [`TAIL`].
const HEAD: &str = "{\"format\":";
const KEY: &str = ",\"key\":\"";
const CHECKSUM: &str = "\",\"checksum\":\"";
const REPORT: &str = "\",\"report\":";
const TAIL: &str = "}\n";

/// Default shard count (must be a power of two, at most 256).
pub const DEFAULT_SHARDS: usize = 16;

/// A sharded, disk-backed, content-addressed [`ReportStore`] with an
/// in-memory hot tier.
///
/// * `lookup` consults the hot tier first, then the shard file on disk
///   (validating checksum and key), promoting disk hits into the hot
///   tier. Corrupt entries are quarantined and read as misses.
/// * `publish` inserts into the hot tier and durably writes the entry
///   via write-then-rename before returning.
///
/// Multiple `ResultStore`s — in one process or many — may share a
/// directory; see the module docs for why the races are benign.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    shards: usize,
    hot: Vec<Mutex<HashMap<u64, RunReport>>>,
    hits_hot: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    quarantined: AtomicU64,
    io_errors: AtomicU64,
    tmp_seq: AtomicU64,
}

/// Point-in-time accounting snapshot of a [`ResultStore`], exposed
/// through `mcr-telemetry` counters (the `stats` answer of `mcr-serve`
/// and `mcr_sim cache stats` render it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Shard count the store was opened with.
    pub shards: usize,
    /// Entries currently held in the in-memory hot tier.
    pub hot_entries: usize,
    /// Committed on-disk entries per shard (scanned at snapshot time).
    pub disk_entries_per_shard: Vec<u64>,
    /// Lookups answered from the hot tier.
    pub hits_hot: Counter,
    /// Lookups answered from disk (validated, then promoted).
    pub hits_disk: Counter,
    /// Lookups that found nothing usable.
    pub misses: Counter,
    /// Reports published by this store instance.
    pub inserts: Counter,
    /// Entries moved to quarantine after failing validation.
    pub quarantined: Counter,
    /// I/O failures swallowed (publish or quarantine attempts); the
    /// store stays a correct cache under them, just a colder one.
    pub io_errors: Counter,
}

impl StoreStats {
    /// Total committed on-disk entries across all shards.
    pub fn disk_entries(&self) -> u64 {
        self.disk_entries_per_shard.iter().sum()
    }
}

/// Outcome of a full [`ResultStore::verify`] scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Entries that validated end-to-end (parse, key, checksum, decode).
    pub intact: u64,
    /// Files that failed and were moved to quarantine.
    pub corrupt: Vec<PathBuf>,
    /// Leftover `.tmp` files from interrupted publishes (not counted as
    /// corruption — [`ResultStore::gc`] removes them).
    pub stale_tmp: u64,
}

impl VerifyReport {
    /// True when the scan found nothing wrong.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

/// Outcome of a [`ResultStore::gc`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Leftover `.tmp` files removed from the shard directories.
    pub tmp_removed: u64,
    /// Quarantined files removed.
    pub quarantine_removed: u64,
}

impl ResultStore {
    /// Opens a store rooted at `dir` with [`DEFAULT_SHARDS`] shards,
    /// creating `dir` if needed (shard directories wait for their first
    /// publish).
    ///
    /// # Errors
    ///
    /// Propagates the failure to create `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_sharded(dir, DEFAULT_SHARDS)
    }

    /// Opens a store with an explicit shard count (a power of two in
    /// `1..=256`; the key's low bits select the shard), creating `dir` if
    /// needed. A shard directory is created by the first publish into it.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a bad shard count, otherwise the failure to
    /// create `dir`.
    pub fn open_sharded(dir: impl Into<PathBuf>, shards: usize) -> io::Result<Self> {
        if !(1..=256).contains(&shards) || !shards.is_power_of_two() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shard count must be a power of two in 1..=256, got {shards}"),
            ));
        }
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultStore {
            dir,
            shards,
            hot: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            hits_hot: AtomicU64::new(0),
            hits_disk: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shard a key lands in: its low `log2(shards)` bits.
    pub fn shard_of(&self, key: u64) -> usize {
        (key & (self.shards as u64 - 1)) as usize
    }

    fn shard_dir(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard:02x}"))
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.shard_dir(self.shard_of(key))
            .join(format!("{key:016x}.json"))
    }

    /// Committed on-disk entries, summed over all shards (a scan).
    pub fn len(&self) -> u64 {
        self.disk_occupancy().iter().sum()
    }

    /// True when no shard holds a committed entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries currently in the in-memory hot tier.
    pub fn hot_len(&self) -> usize {
        self.hot
            .iter()
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    fn disk_occupancy(&self) -> Vec<u64> {
        (0..self.shards)
            .map(|s| {
                committed_entries(&self.shard_dir(s))
                    .map(|v| v.len() as u64)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Accounting snapshot (scans the shard directories for occupancy).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            shards: self.shards,
            hot_entries: self.hot_len(),
            disk_entries_per_shard: self.disk_occupancy(),
            hits_hot: counter_of(self.hits_hot.load(Ordering::Relaxed)),
            hits_disk: counter_of(self.hits_disk.load(Ordering::Relaxed)),
            misses: counter_of(self.misses.load(Ordering::Relaxed)),
            inserts: counter_of(self.inserts.load(Ordering::Relaxed)),
            quarantined: counter_of(self.quarantined.load(Ordering::Relaxed)),
            io_errors: counter_of(self.io_errors.load(Ordering::Relaxed)),
        }
    }

    fn hot_get(&self, key: u64) -> Option<RunReport> {
        self.hot[self.shard_of(key)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned()
    }

    fn hot_put(&self, key: u64, report: &RunReport) {
        self.hot[self.shard_of(key)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, report.clone());
    }

    /// Moves a failed entry into `quarantine/` (best effort: on a move
    /// failure the file is left behind and only the counter advances —
    /// the caller already treats the entry as a miss either way).
    fn quarantine(&self, path: &Path) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let file = path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".to_string());
        let shard = path
            .parent()
            .and_then(Path::file_name)
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_else(|| "unknown".to_string());
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let quarantine = self.dir.join("quarantine");
        let dest = quarantine.join(format!("{shard}-{file}.{seq}"));
        if in_dir(&quarantine, || fs::rename(path, &dest)).is_err() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reads, validates and decodes one committed entry file. `None`
    /// means the file was unusable (already quarantined by this call).
    fn load_entry(&self, path: &Path, expect_key: Option<u64>) -> Option<RunReport> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            // No entry (or no shard directory yet), or another store
            // quarantined it under us — a plain miss.
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            // Unreadable content (e.g. not UTF-8) is corruption.
            Err(_) => {
                self.quarantine(path);
                return None;
            }
        };
        match decode_entry(&text, expect_key) {
            Ok(report) => Some(report),
            Err(_) => {
                self.quarantine(path);
                None
            }
        }
    }

    /// Looks a key up without touching the hit/miss counters (used by
    /// `verify`).
    fn disk_get(&self, key: u64) -> Option<RunReport> {
        self.load_entry(&self.entry_path(key), Some(key))
    }

    /// Full-store integrity scan: every committed entry is parsed,
    /// checksummed against its embedded report, checked against its
    /// filename and decoded. Failures are quarantined, exactly as a
    /// `lookup` would have done — `verify` just does it eagerly.
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport {
            intact: 0,
            corrupt: Vec::new(),
            stale_tmp: 0,
        };
        for s in 0..self.shards {
            let dir = self.shard_dir(s);
            let Ok(entries) = fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.ends_with(".tmp") {
                    report.stale_tmp += 1;
                    continue;
                }
                let key = name.strip_suffix(".json").and_then(parse_key_hex);
                let Some(key) = key else {
                    // Not an entry file at all: quarantine the stray.
                    report.corrupt.push(path.clone());
                    self.quarantine(&path);
                    continue;
                };
                if self.shard_of(key) != s || self.load_entry(&path, Some(key)).is_none() {
                    if self.shard_of(key) != s {
                        self.quarantine(&path);
                    }
                    report.corrupt.push(path);
                } else {
                    report.intact += 1;
                }
            }
        }
        report
    }

    /// Removes leftover `.tmp` files (interrupted publishes) and drains
    /// the quarantine directory.
    pub fn gc(&self) -> GcReport {
        let mut report = GcReport {
            tmp_removed: 0,
            quarantine_removed: 0,
        };
        for s in 0..self.shards {
            let Ok(entries) = fs::read_dir(self.shard_dir(s)) else {
                continue;
            };
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().ends_with(".tmp")
                    && fs::remove_file(entry.path()).is_ok()
                {
                    report.tmp_removed += 1;
                }
            }
        }
        if let Ok(entries) = fs::read_dir(self.dir.join("quarantine")) {
            for entry in entries.flatten() {
                if fs::remove_file(entry.path()).is_ok() {
                    report.quarantine_removed += 1;
                }
            }
        }
        report
    }
}

impl ReportStore for ResultStore {
    fn lookup(&self, key: u64) -> Option<RunReport> {
        if let Some(report) = self.hot_get(key) {
            self.hits_hot.fetch_add(1, Ordering::Relaxed);
            return Some(report);
        }
        match self.disk_get(key) {
            Some(report) => {
                self.hits_disk.fetch_add(1, Ordering::Relaxed);
                self.hot_put(key, &report);
                Some(report)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn publish(&self, key: u64, report: &RunReport) {
        self.hot_put(key, report);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let shard_dir = self.shard_dir(self.shard_of(key));
        let tmp = shard_dir.join(format!(".{key:016x}.{}-{seq}.tmp", std::process::id()));
        let text = encode_entry(key, report);
        // Durable-before-return, best effort under I/O failure: a failed
        // publish only costs a future recompute, never correctness.
        let committed = in_dir(&shard_dir, || fs::write(&tmp, text.as_bytes()))
            .and_then(|()| fs::rename(&tmp, self.entry_path(key)));
        if committed.is_err() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
            let _ = fs::remove_file(&tmp);
        }
    }
}

/// Runs `op`, and once more after creating `dir` when it fails with
/// `NotFound`: shard and quarantine directories are made on first use.
fn in_dir(dir: &Path, op: impl Fn() -> io::Result<()>) -> io::Result<()> {
    match op() {
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            fs::create_dir_all(dir)?;
            op()
        }
        done => done,
    }
}

/// Committed entry files (`<16 hex>.json`) in one shard directory.
fn committed_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.strip_suffix(".json").and_then(parse_key_hex).is_some() {
            out.push(entry.path());
        }
    }
    Ok(out)
}

/// FNV-1a 64-bit hash — the entry checksum. Stable across platforms and
/// already the idiom for content hashing in this workspace.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializes one store entry: format stamp, key, checksum over the
/// report's bytes, and the report itself, serialized once.
fn encode_entry(key: u64, report: &RunReport) -> String {
    let mut body = String::new();
    report_to_json(report).write(&mut body);
    let checksum = fnv1a64(body.as_bytes());
    format!("{HEAD}{FORMAT}{KEY}{key:016x}{CHECKSUM}{checksum:016x}{REPORT}{body}{TAIL}")
}

/// Splits an entry into its key, checksum and stored report bytes.
/// `None` unless the text has exactly the envelope [`encode_entry`]
/// writes, with this build's format stamp.
fn split_entry(text: &str) -> Option<(u64, u64, &str)> {
    let rest = text.strip_prefix(HEAD)?.strip_prefix(FORMAT)?;
    let (key, rest) = rest.strip_prefix(KEY)?.split_at_checked(16)?;
    let (checksum, rest) = rest.strip_prefix(CHECKSUM)?.split_at_checked(16)?;
    let body = rest.strip_prefix(REPORT)?.strip_suffix(TAIL)?;
    Some((parse_key_hex(key)?, parse_key_hex(checksum)?, body))
}

/// Validates and decodes one entry: envelope and format, key (against
/// `expect_key` when given), checksum over the report bytes as stored,
/// then the full report decode.
fn decode_entry(text: &str, expect_key: Option<u64>) -> Result<RunReport, ()> {
    let (key, checksum, body) = split_entry(text).ok_or(())?;
    if expect_key.is_some_and(|k| k != key) || fnv1a64(body.as_bytes()) != checksum {
        return Err(());
    }
    decode_report(body).map_err(|_| ())
}

fn counter_of(n: u64) -> Counter {
    let mut c = Counter::new();
    c.add(n);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_dram::{McrMode, System, SystemConfig};
    use sim_json::Json;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mcr-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_report(len: usize) -> (u64, RunReport) {
        run(&SystemConfig::single_core("libq", len))
    }

    fn run(cfg: &SystemConfig) -> (u64, RunReport) {
        let report = System::try_build(cfg).expect("valid config").run();
        (cfg.config_key(), report)
    }

    /// Subdirectory names under a store's root, sorted.
    fn subdirs(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .expect("store dir")
            .flatten()
            .filter(|e| e.path().is_dir())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// Reference encoder: the envelope built as a `Json::obj` and
    /// serialized whole. `encode_entry` must match it byte for byte, so
    /// stores written either way read back alike.
    fn encode_entry_dom(key: u64, report: &RunReport) -> String {
        let report_json = report_to_json(report);
        let checksum = fnv1a64(report_json.to_string().as_bytes());
        let entry = Json::obj([
            ("format", Json::from_u64_lossless(1)),
            ("key", Json::str(format!("{key:016x}"))),
            ("checksum", Json::str(format!("{checksum:016x}"))),
            ("report", report_json),
        ]);
        format!("{entry}\n")
    }

    #[test]
    fn open_creates_only_the_root() {
        let dir = tmp_dir("lazy");
        let store = ResultStore::open(&dir).expect("open");
        assert!(subdirs(&dir).is_empty(), "open made {:?}", subdirs(&dir));
        assert_eq!(store.lookup(0x1234), None);
        let stats = store.stats();
        assert_eq!(stats.misses.get(), 1);
        assert_eq!(stats.quarantined.get(), 0);
        assert_eq!(stats.io_errors.get(), 0);
        assert_eq!(stats.disk_entries_per_shard, vec![0; DEFAULT_SHARDS]);
        assert_eq!(store.len(), 0);
        assert!(store.is_empty());
        let v = store.verify();
        assert!(v.is_clean());
        assert_eq!((v.intact, v.stale_tmp), (0, 0));
        assert_eq!(
            store.gc(),
            GcReport {
                tmp_removed: 0,
                quarantine_removed: 0
            }
        );
        assert!(subdirs(&dir).is_empty(), "a read made {:?}", subdirs(&dir));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_creates_its_shard() {
        let dir = tmp_dir("first-publish");
        let (key, report) = sample_report(1_200);
        let store = ResultStore::open(&dir).expect("open");
        store.publish(key, &report);
        let shard = format!("shard-{:02x}", store.shard_of(key));
        assert_eq!(subdirs(&dir), vec![shard]);
        assert_eq!(store.stats().io_errors.get(), 0);
        // A second key in another shard makes that shard too.
        let other = key ^ 1;
        store.publish(other, &report);
        assert_eq!(subdirs(&dir).len(), 2);
        assert_eq!(store.len(), 2);

        let second = ResultStore::open(&dir).expect("second store");
        assert_eq!(second.lookup(key).as_ref(), Some(&report));
        assert_eq!(second.stats().hits_disk.get(), 1);
        assert!(!dir.join("quarantine").exists());

        // The first quarantine makes `quarantine/`.
        fs::write(second.entry_path(other), b"{}").expect("corrupt");
        assert_eq!(second.lookup(other), None);
        assert_eq!(second.stats().quarantined.get(), 1);
        assert_eq!(second.stats().io_errors.get(), 0);
        assert_eq!(
            fs::read_dir(dir.join("quarantine")).expect("dir").count(),
            1
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_are_byte_identical() {
        let mut nan = sample_report(800).1;
        nan.avg_read_latency = f64::NAN;
        nan.edp = f64::NEG_INFINITY;
        let cases = [
            sample_report(1_200),
            run(&SystemConfig::single_core("comm1", 1_000).with_mode(McrMode::headline())),
            run(&SystemConfig::single_core("black", 600).with_powerdown(16)),
            (0, nan),
            (u64::MAX, sample_report(400).1),
        ];
        for (key, report) in &cases {
            let text = encode_entry(*key, report);
            assert_eq!(text, encode_entry_dom(*key, report), "key {key:016x}");
            let back = decode_entry(&text, Some(*key)).expect("decodes");
            assert_eq!(encode_entry(*key, &back), text);
        }
    }

    #[test]
    fn checksum_covers_the_stored_bytes() {
        let dir = tmp_dir("stored-bytes");
        let (key, report) = sample_report(1_200);
        let store = ResultStore::open(&dir).expect("open");
        store.publish(key, &report);
        let path = store.entry_path(key);
        let text = fs::read_to_string(&path).expect("read");
        let member = "\"report\":";
        let at = text.find(member).expect("report member") + member.len();
        let (head, body) = text.split_at(at);

        // Whitespace inside the report: the same document, other bytes.
        let spaced = format!("{head}{}", body.replacen(",\"", ", \"", 1));
        assert_eq!(
            Json::parse(&spaced).expect("still JSON"),
            Json::parse(&text).expect("JSON")
        );
        // One digit of the report flipped: still JSON, another report.
        let digit = body
            .find(|c: char| ('1'..='8').contains(&c))
            .expect("a digit");
        let mut flipped = text.clone().into_bytes();
        flipped[at + digit] += 1;
        let flipped = String::from_utf8(flipped).expect("ASCII flip");
        assert!(Json::parse(&flipped).is_ok());

        for (i, tampered) in [spaced, flipped].into_iter().enumerate() {
            assert_ne!(tampered, text);
            fs::write(&path, tampered).expect("tamper");
            let fresh = ResultStore::open(&dir).expect("reopen");
            assert_eq!(fresh.lookup(key), None, "case {i}");
            assert_eq!(fresh.stats().quarantined.get(), 1, "case {i}");
            assert!(!path.exists(), "case {i}");
            fresh.publish(key, &report);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reordered_members_are_quarantined() {
        let dir = tmp_dir("reordered");
        let (key, report) = sample_report(1_200);
        let store = ResultStore::open(&dir).expect("open");
        store.publish(key, &report);
        let path = store.entry_path(key);
        let text = fs::read_to_string(&path).expect("read");
        let (_, _, body) = split_entry(&text).expect("the writer's envelope");
        // Two neighbouring members swapped: the same members, valid JSON,
        // and a checksum recomputed over the new bytes.
        let first = format!(",\"total_mem_cycles\":{}", report.total_mem_cycles);
        let second = format!(",\"reads_done\":{}", report.reads_done);
        let swapped = body.replacen(&format!("{first}{second}"), &format!("{second}{first}"), 1);
        assert_ne!(swapped, body);
        assert!(Json::parse(&swapped).is_ok());
        let err = decode_report(&swapped).expect_err("out of the writer's order");
        assert_eq!(err.path, "report.total_mem_cycles");
        let checksum = fnv1a64(swapped.as_bytes());
        let entry = format!(
            "{HEAD}{FORMAT}{KEY}{key:016x}{CHECKSUM}{checksum:016x}{REPORT}{swapped}{TAIL}"
        );
        assert_eq!(split_entry(&entry), Some((key, checksum, swapped.as_str())));
        fs::write(&path, entry).expect("rewrite");

        let fresh = ResultStore::open(&dir).expect("reopen");
        assert_eq!(
            fresh.lookup(key),
            None,
            "a reordered entry must read as a miss"
        );
        assert_eq!(fresh.stats().quarantined.get(), 1);
        assert!(!path.exists());
        assert_eq!(
            fs::read_dir(dir.join("quarantine")).expect("dir").count(),
            1
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_then_reopen_then_lookup() {
        let dir = tmp_dir("reopen");
        let (key, report) = sample_report(1_200);
        {
            let store = ResultStore::open(&dir).expect("open");
            store.publish(key, &report);
            assert_eq!(store.len(), 1);
        }
        // A fresh store (cold hot tier) must serve the entry from disk.
        let store = ResultStore::open(&dir).expect("reopen");
        assert_eq!(store.hot_len(), 0);
        assert_eq!(store.lookup(key).as_ref(), Some(&report));
        assert_eq!(store.stats().hits_disk.get(), 1);
        // Second lookup rides the promoted hot tier.
        assert_eq!(store.lookup(key).as_ref(), Some(&report));
        assert_eq!(store.stats().hits_hot.get(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_selection_uses_low_key_bits() {
        let dir = tmp_dir("shards");
        let store = ResultStore::open_sharded(&dir, 8).expect("open");
        assert_eq!(store.shard_of(0x10), 0);
        assert_eq!(store.shard_of(0x17), 7);
        assert!(ResultStore::open_sharded(tmp_dir("bad"), 12).is_err());
        assert!(ResultStore::open_sharded(tmp_dir("bad2"), 512).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_misses() {
        let dir = tmp_dir("corrupt");
        let (key, report) = sample_report(1_200);
        let store = ResultStore::open(&dir).expect("open");
        store.publish(key, &report);
        let path = store.entry_path(key);
        fs::write(&path, b"{\"format\": 1, \"garbage\": true}").expect("corrupt");
        let fresh = ResultStore::open(&dir).expect("reopen");
        assert_eq!(fresh.lookup(key), None, "corrupt entry must read as a miss");
        assert!(!path.exists(), "corrupt entry must leave the shard");
        assert_eq!(fresh.stats().quarantined.get(), 1);
        assert_eq!(
            fs::read_dir(dir.join("quarantine")).expect("dir").count(),
            1
        );
        // Recompute-and-republish heals the store.
        fresh.publish(key, &report);
        assert_eq!(fresh.lookup(key).as_ref(), Some(&report));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_catches_a_single_flipped_digit() {
        let dir = tmp_dir("flip");
        let (key, report) = sample_report(1_200);
        let store = ResultStore::open(&dir).expect("open");
        store.publish(key, &report);
        let path = store.entry_path(key);
        let text = fs::read_to_string(&path).expect("read");
        // Flip one digit inside the report payload without breaking the
        // JSON shape: the checksum must catch it.
        let tampered = text.replacen("\"exec_cpu_cycles\":", "\"exec_cpu_cycles\": 1, \"x\":", 1);
        assert_ne!(tampered, text);
        fs::write(&path, tampered).expect("tamper");
        let fresh = ResultStore::open(&dir).expect("reopen");
        assert_eq!(fresh.lookup(key), None);
        assert_eq!(fresh.stats().quarantined.get(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_and_gc_walk_the_whole_store() {
        let dir = tmp_dir("verify");
        let (key, report) = sample_report(1_200);
        // Filed under a key in shard 0, so the publish creates shard 0.
        let key = key & !(DEFAULT_SHARDS as u64 - 1);
        let store = ResultStore::open(&dir).expect("open");
        store.publish(key, &report);
        assert!(store.verify().is_clean());
        // Plant a zero-length entry, a stale tmp and a stray file.
        let shard0 = store.shard_dir(0);
        fs::write(shard0.join(format!("{:016x}.json", 0u64)), b"").expect("zero");
        fs::write(shard0.join(".deadbeef.tmp"), b"partial").expect("tmp");
        fs::write(shard0.join("stray.txt"), b"?").expect("stray");
        let v = store.verify();
        assert_eq!(v.intact, 1);
        assert_eq!(v.corrupt.len(), 2, "zero-length entry + stray");
        assert_eq!(v.stale_tmp, 1);
        let gc = store.gc();
        assert_eq!(gc.tmp_removed, 1);
        assert!(gc.quarantine_removed >= 2);
        assert!(store.verify().is_clean());
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
