//! Content-addressed memoization of scheduling results.
//!
//! Scheduling is the expensive half of the pipeline: every model other
//! than `icc` solves a chain of exact-rational ILPs. The result is a pure
//! function of `(SCoP, model, config)` — the dependence graph is itself
//! derived from the SCoP — so repeated invocations (the `wfc` CLI, the
//! figure harnesses, iterative schedule-space search re-visiting a
//! candidate) can skip the ILP entirely.
//!
//! A [`Fingerprint`] addresses an entry by content, not identity:
//!
//! * the SCoP is rendered to its canonical text
//!   ([`wf_scop::text::to_text`], which round-trips through the parser)
//!   and hashed with the stable FNV-1a hasher from `wf-harness` — two
//!   structurally identical SCoPs built by different code paths share
//!   entries, and the fingerprint survives across processes;
//! * the model contributes its name;
//! * every [`PlutoConfig`] knob is hashed field-by-field, so tuning the
//!   engine never serves stale schedules.
//!
//! Entries live in a bounded in-memory LRU behind a process-wide mutex
//! ([`global`]), shared by every [`Optimizer`](crate::Optimizer) in the
//! process. When the `WF_CACHE_DIR` environment variable names a
//! directory, entries additionally spill to
//! `<dir>/<scop>-<model>-<config>.json` and misses consult the spill
//! first, which is what makes a *second* `wfc bench-all` process report
//! cache hits. Only `Ok` results are cached; scheduling failures are
//! re-derived (they are rare and cheap — the engine fails fast).
//!
//! Determinism guarantee: a cache hit returns a byte-identical
//! [`Transformed`] to what the cold path would compute, because the cold
//! path is deterministic and the entry is keyed on every input that
//! influences it. The spill codec is versioned; any decode mismatch is
//! treated as a miss, never an error.
//!
//! Spill robustness: transient I/O failures (the `cache.spill_read` /
//! `cache.spill_write` fault sites, NFS hiccups, permission flaps) are
//! retried up to [`SPILL_IO_ATTEMPTS`] times with a bounded millisecond
//! backoff before degrading to a miss / surfaced error — a one-off
//! hiccup costs microseconds, not a lost entry. Pruning never touches
//! `.tmp-` files younger than [`TMP_GRACE_SECS`], closing the
//! cross-process race where one process's `spill_prune` could delete
//! another's fresh temp file between its write and its rename.

use crate::pipeline::Model;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use wf_harness::fault::{self, FaultKind};
use wf_harness::hash::Fnv64;
use wf_harness::json::Json;
use wf_schedule::pluto::Transformed;
use wf_schedule::transform::{DimKind, Schedule, StmtRow};
use wf_schedule::PlutoConfig;
use wf_scop::Scop;

/// Spill format version; bumped whenever the encoding changes.
const SPILL_VERSION: i128 = 1;

/// Content address of one scheduling result.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fingerprint {
    /// FNV-1a digest of the SCoP's canonical text.
    pub scop: u64,
    /// The fusion model.
    pub model: Model,
    /// FNV-1a digest of the engine tunables.
    pub config: u64,
}

impl Fingerprint {
    /// Fingerprint of `(scop, model, config)`.
    #[must_use]
    pub fn new(scop: &Scop, model: Model, config: &PlutoConfig) -> Fingerprint {
        Fingerprint {
            scop: scop_fingerprint(scop),
            model,
            config: config_fingerprint(config),
        }
    }

    /// Incremental re-fingerprint: the same SCoP and model under a
    /// different `config`, rehashing **only** the config knobs.
    ///
    /// [`Fingerprint::new`] renders the SCoP's full canonical text to
    /// digest it — by far the dominant cost — so candidate enumeration in
    /// the iterative-search harness, which varies only the engine
    /// tunables, computes one base fingerprint and derives every
    /// candidate's key through this delta path. Identical by construction
    /// to `Fingerprint::new(scop, model, config)` for the SCoP the base
    /// was built from.
    #[must_use]
    pub fn with_config(&self, config: &PlutoConfig) -> Fingerprint {
        Fingerprint {
            scop: self.scop,
            model: self.model,
            config: config_fingerprint(config),
        }
    }

    /// The same SCoP and config under a different fusion `model`; like
    /// [`with_config`](Fingerprint::with_config), no SCoP re-render.
    #[must_use]
    pub fn with_model(&self, model: Model) -> Fingerprint {
        Fingerprint { model, ..*self }
    }

    /// The spill file stem: `<scop:016x>-<model>-<config:016x>`.
    #[must_use]
    pub fn file_stem(&self) -> String {
        format!(
            "{:016x}-{}-{:016x}",
            self.scop,
            self.model.name(),
            self.config
        )
    }
}

/// Stable digest of a SCoP's canonical textual form.
#[must_use]
pub fn scop_fingerprint(scop: &Scop) -> u64 {
    wf_harness::fnv1a_64(wf_scop::text::to_text(scop).as_bytes())
}

/// Stable digest of every scheduling-engine knob.
#[must_use]
pub fn config_fingerprint(config: &PlutoConfig) -> u64 {
    let mut h = Fnv64::new();
    h.update_i128(config.coeff_bound)
        .update_i128(config.shift_bound)
        .update_i128(config.u_bound)
        .update_i128(config.w_bound)
        .update_usize(config.max_iters)
        .update_usize(config.ilp_node_budget)
        .update_u64(config.ilp_cell_budget)
        .update_usize(config.max_fusion_width);
    h.digest()
}

/// Hit/miss/store counters (monotone over the cache's lifetime).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CacheStats {
    /// In-memory lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing (in memory or on disk).
    pub misses: u64,
    /// Entries inserted after a cold computation.
    pub stores: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Misses rescued by the `WF_CACHE_DIR` spill.
    pub spill_hits: u64,
    /// Entries written to the spill directory.
    pub spill_stores: u64,
    /// Corrupt spill entries quarantined (renamed aside) and treated as
    /// misses.
    pub spill_quarantined: u64,
}

impl CacheStats {
    /// Total lookups served (in-memory hits + spill rescues + misses).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.spill_hits + self.misses
    }

    /// Percentage of lookups served from memory or the spill (0 when no
    /// lookups have happened).
    #[must_use]
    pub fn hit_rate_pct(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            return 0.0;
        }
        (self.hits + self.spill_hits) as f64 * 100.0 / total as f64
    }

    /// Percentage of lookups rescued by the `WF_CACHE_DIR` spill.
    #[must_use]
    pub fn spill_hit_rate_pct(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            return 0.0;
        }
        self.spill_hits as f64 * 100.0 / total as f64
    }

    /// Render as a JSON object (for `BENCH_all.json` and `--json` output).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("hits", Json::from(self.hits)),
            ("misses", Json::from(self.misses)),
            ("stores", Json::from(self.stores)),
            ("evictions", Json::from(self.evictions)),
            ("spill_hits", Json::from(self.spill_hits)),
            ("spill_stores", Json::from(self.spill_stores)),
            ("spill_quarantined", Json::from(self.spill_quarantined)),
            ("hit_rate_pct", Json::Num(self.hit_rate_pct())),
            ("spill_hit_rate_pct", Json::Num(self.spill_hit_rate_pct())),
        ])
    }
}

struct Entry {
    transformed: Transformed,
    last_used: u64,
}

/// A bounded LRU of scheduling results; see the module docs.
pub struct ScheduleCache {
    capacity: usize,
    tick: u64,
    map: HashMap<Fingerprint, Entry>,
    stats: CacheStats,
    /// Spill directory override; `None` defers to `WF_CACHE_DIR` at each
    /// operation (tests pin it to avoid racing on process environment).
    spill_override: Option<PathBuf>,
}

impl ScheduleCache {
    /// An empty cache holding at most `capacity` entries (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> ScheduleCache {
        ScheduleCache {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
            stats: CacheStats::default(),
            spill_override: None,
        }
    }

    /// Pin the spill directory instead of consulting `WF_CACHE_DIR`.
    #[must_use]
    pub fn with_spill_dir(mut self, dir: PathBuf) -> ScheduleCache {
        self.spill_override = Some(dir);
        self
    }

    fn spill_target(&self) -> Option<PathBuf> {
        self.spill_override.clone().or_else(spill_dir)
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counters snapshot.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop all entries (counters are preserved; they are lifetime
    /// totals).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Look up a fingerprint, consulting the `WF_CACHE_DIR` spill on an
    /// in-memory miss. Returns a clone of the cached result.
    pub fn lookup(&mut self, key: &Fingerprint) -> Option<Transformed> {
        self.tick += 1;
        if let Some(e) = self.map.get_mut(key) {
            e.last_used = self.tick;
            self.stats.hits += 1;
            wf_harness::obs::add("cache.hit", 1);
            return Some(e.transformed.clone());
        }
        if let Some(dir) = self.spill_target() {
            match spill_read(&dir, key) {
                SpillOutcome::Hit(t) => {
                    self.stats.spill_hits += 1;
                    wf_harness::obs::add("cache.spill_hit", 1);
                    self.insert_only(*key, (*t).clone());
                    return Some(*t);
                }
                SpillOutcome::Quarantined => self.stats.spill_quarantined += 1,
                SpillOutcome::Miss => {}
            }
        }
        self.stats.misses += 1;
        wf_harness::obs::add("cache.miss", 1);
        None
    }

    /// Insert a cold result, spilling it to `WF_CACHE_DIR` when set.
    /// Every [`SPILL_PRUNE_PERIOD`]-th successful spill store also prunes
    /// the spill directory against the [`SpillCaps`] from the environment,
    /// amortizing the directory scan.
    pub fn insert(&mut self, key: Fingerprint, t: &Transformed) {
        self.stats.stores += 1;
        wf_harness::obs::add("cache.store", 1);
        if let Some(dir) = self.spill_target() {
            if spill_write(&dir, &key, t).is_ok() {
                self.stats.spill_stores += 1;
                wf_harness::obs::add("cache.spill_store", 1);
                if self.stats.spill_stores.is_multiple_of(SPILL_PRUNE_PERIOD) {
                    let _ = spill_prune(&dir, &SpillCaps::from_env());
                }
            }
        }
        self.insert_only(key, t.clone());
    }

    fn insert_only(&mut self, key: Fingerprint, t: Transformed) {
        self.tick += 1;
        while self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // O(n) eviction scan: capacities are small (hundreds) and
            // insertions are rare next to the ILP they memoize.
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty at capacity");
            self.map.remove(&lru);
            self.stats.evictions += 1;
        }
        self.map.insert(
            key,
            Entry {
                transformed: t,
                last_used: self.tick,
            },
        );
    }
}

/// Default capacity of the process-wide cache: the whole catalog × all
/// models fits with room for search-harness candidates.
const GLOBAL_CAPACITY: usize = 256;

/// The process-wide schedule cache shared by every
/// [`Optimizer`](crate::Optimizer).
pub fn global() -> &'static Mutex<ScheduleCache> {
    static CACHE: OnceLock<Mutex<ScheduleCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(ScheduleCache::new(GLOBAL_CAPACITY)))
}

fn global_guard() -> std::sync::MutexGuard<'static, ScheduleCache> {
    global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Counters snapshot of the process-wide cache.
#[must_use]
pub fn stats() -> CacheStats {
    global_guard().stats()
}

/// Drop every entry of the process-wide cache (counters survive). Used by
/// phase profilers that need a cold run mid-process.
pub fn clear() {
    global_guard().clear();
}

pub(crate) fn global_lookup(key: &Fingerprint) -> Option<Transformed> {
    global_guard().lookup(key)
}

pub(crate) fn global_insert(key: Fingerprint, t: &Transformed) {
    global_guard().insert(key, t);
}

/// The spill directory (`WF_CACHE_DIR`), if configured.
#[must_use]
pub fn spill_dir() -> Option<PathBuf> {
    std::env::var_os("WF_CACHE_DIR")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// What a spill lookup found; quarantines are reported separately so the
/// stats can distinguish "never cached" from "cached but corrupt".
#[derive(Clone, PartialEq, Debug)]
pub enum SpillOutcome {
    /// A valid entry (boxed: the payload dwarfs the other variants).
    Hit(Box<Transformed>),
    /// No entry (or an unreadable file — crash-safety treats both as
    /// cold).
    Miss,
    /// The entry existed but failed to decode; it was renamed to
    /// `<stem>.json.quarantined` so it cannot poison future lookups, and
    /// this lookup proceeds as a miss.
    Quarantined,
}

/// Attempts (initial + retries) a transient spill I/O failure is given
/// before it is surfaced. Transient means: the `cache.spill_read/write`
/// fault sites, or an OS error that is not "file does not exist" — NFS
/// hiccups, `EMFILE` pressure, a concurrent prune racing the rename.
pub const SPILL_IO_ATTEMPTS: u32 = 3;

/// Backoff before retry `n` (1-based); bounded and tiny — spill I/O sits
/// on the scheduling path, and an entry that stays unreachable for ~5 ms
/// is better re-solved than waited on.
const SPILL_RETRY_BACKOFF: [std::time::Duration; 2] = [
    std::time::Duration::from_millis(1),
    std::time::Duration::from_millis(4),
];

/// Sleep before retry number `retry` (1-based) and count it.
fn spill_backoff(retry: u32) {
    wf_harness::obs::add("cache.spill_retry", 1);
    let idx = (retry as usize - 1).min(SPILL_RETRY_BACKOFF.len() - 1);
    std::thread::sleep(SPILL_RETRY_BACKOFF[idx]);
}

/// Write one entry under `dir` (which is created as needed).
///
/// Crash-safe: the entry is written to a process-unique temp file and
/// atomically renamed into place, so a reader (or a crash mid-write)
/// never observes a torn entry under the final name.
///
/// Transient failures (including the `cache.spill_write` fault site) are
/// retried up to [`SPILL_IO_ATTEMPTS`] times with a bounded backoff
/// before the error surfaces — a one-off hiccup costs a few
/// milliseconds, not a lost store.
///
/// # Errors
/// Propagates the last filesystem error; callers treat it as "no spill".
pub fn spill_write(dir: &Path, key: &Fingerprint, t: &Transformed) -> std::io::Result<()> {
    let mut last = None;
    for attempt in 0..SPILL_IO_ATTEMPTS {
        if attempt > 0 {
            spill_backoff(attempt);
        }
        match spill_write_once(dir, key, t) {
            Ok(()) => return Ok(()),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("at least one attempt ran"))
}

fn spill_write_once(dir: &Path, key: &Fingerprint, t: &Transformed) -> std::io::Result<()> {
    if fault::should_inject("cache.spill_write", FaultKind::Io) {
        return Err(std::io::Error::other("injected spill-write fault"));
    }
    std::fs::create_dir_all(dir)?;
    let final_path = dir.join(format!("{}.json", key.file_stem()));
    // Write-then-rename so a concurrent reader never sees a torn file.
    let tmp = dir.join(format!("{}.tmp-{}", key.file_stem(), std::process::id()));
    std::fs::write(&tmp, transformed_to_json(t).render())?;
    std::fs::rename(&tmp, &final_path)
}

/// Read one entry back. A missing file is an immediate
/// [`SpillOutcome::Miss`]; a *transient* read failure (the
/// `cache.spill_read` fault site, or an OS error on a file that exists)
/// is retried up to [`SPILL_IO_ATTEMPTS`] times with a bounded backoff
/// before being reported as a miss. A file that *reads* but fails to
/// parse or decode (torn by a crash predating atomic writes, truncated
/// by a full disk, or hand-edited) is renamed aside without retrying —
/// corruption is not transient — and reported as
/// [`SpillOutcome::Quarantined`]; if a concurrent process (the amortized
/// prune of another process sharing `WF_CACHE_DIR`) deletes the file
/// before the rename, the lookup is a clean [`SpillOutcome::Miss`]
/// instead.
#[must_use]
pub fn spill_read(dir: &Path, key: &Fingerprint) -> SpillOutcome {
    let path = dir.join(format!("{}.json", key.file_stem()));
    let mut text = None;
    for attempt in 0..SPILL_IO_ATTEMPTS {
        if attempt > 0 {
            spill_backoff(attempt);
        }
        if fault::should_inject("cache.spill_read", FaultKind::Io) {
            continue; // simulated unreadable file; maybe transient
        }
        match std::fs::read_to_string(&path) {
            Ok(t) => {
                text = Some(t);
                break;
            }
            // Absent is definitive: the entry was never written (or was
            // pruned); retrying cannot make it appear.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return SpillOutcome::Miss,
            Err(_) => {} // transient (permissions flap, NFS hiccup): retry
        }
    }
    let Some(text) = text else {
        return SpillOutcome::Miss;
    };
    let decoded = Json::parse(&text)
        .ok()
        .and_then(|j| transformed_from_json(&j));
    match decoded {
        Some(t) => SpillOutcome::Hit(Box::new(t)),
        None => quarantine_corrupt(&path),
    }
}

/// Move a corrupt entry aside (best-effort; delete if even the rename
/// fails) so the decode cost is paid once. If the file is already gone
/// when we try — the prune or quarantine of another process sharing
/// `WF_CACHE_DIR` won the race between our read and the rename — the
/// entry simply no longer exists: that is a clean [`SpillOutcome::Miss`],
/// not a quarantine, exactly as if the prune had run a moment earlier.
fn quarantine_corrupt(path: &Path) -> SpillOutcome {
    let aside = path.with_extension("json.quarantined");
    match std::fs::rename(path, &aside) {
        Ok(()) => SpillOutcome::Quarantined,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => SpillOutcome::Miss,
        Err(_) => match std::fs::remove_file(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => SpillOutcome::Miss,
            // Deleted, or stuck in place (it may poison again, so the
            // caller should still count it): either way it was corrupt.
            _ => SpillOutcome::Quarantined,
        },
    }
}

/// Amortization period for [`spill_prune`] inside
/// [`ScheduleCache::insert`].
pub const SPILL_PRUNE_PERIOD: u64 = 32;

/// Size/age bounds for the spill directory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpillCaps {
    /// Maximum total bytes across entries (oldest evicted first beyond
    /// it).
    pub max_bytes: u64,
    /// Entries older than this many seconds are removed (`None` = no age
    /// cap).
    pub max_age_secs: Option<u64>,
}

impl SpillCaps {
    /// Default size cap: 256 MiB.
    pub const DEFAULT_MAX_BYTES: u64 = 256 * 1024 * 1024;

    /// Read `WF_CACHE_MAX_BYTES` / `WF_CACHE_MAX_AGE_SECS`, validated.
    ///
    /// # Errors
    /// [`wf_harness::WfError::Invalid`] (exit code 2) when either variable
    /// is set but is not a non-negative integer — `wfc` validates this up
    /// front instead of silently running with the defaults.
    pub fn try_from_env() -> Result<SpillCaps, wf_harness::WfError> {
        let parse = |name: &str| -> Result<Option<u64>, wf_harness::WfError> {
            match std::env::var(name) {
                Ok(v) => v.trim().parse::<u64>().map(Some).map_err(|_| {
                    wf_harness::WfError::invalid(format!(
                        "{name} must be a non-negative integer, got {v:?}"
                    ))
                }),
                Err(_) => Ok(None),
            }
        };
        Ok(SpillCaps {
            max_bytes: parse("WF_CACHE_MAX_BYTES")?.unwrap_or(Self::DEFAULT_MAX_BYTES),
            max_age_secs: parse("WF_CACHE_MAX_AGE_SECS")?,
        })
    }

    /// Infallible [`SpillCaps::try_from_env`] for library paths that cannot
    /// surface errors: malformed values fall back to the defaults (256 MiB,
    /// no age cap).
    #[must_use]
    pub fn from_env() -> SpillCaps {
        Self::try_from_env().unwrap_or(SpillCaps {
            max_bytes: Self::DEFAULT_MAX_BYTES,
            max_age_secs: None,
        })
    }
}

/// Everything prune-relevant in the spill directory: entries,
/// quarantined entries, and orphaned temp files from crashed writers.
fn spill_files(dir: &Path) -> Vec<(PathBuf, u64, Option<std::time::SystemTime>)> {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in rd.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let relevant = name.ends_with(".json")
            || name.ends_with(".json.quarantined")
            || name.contains(".tmp-");
        if !relevant {
            continue;
        }
        let Ok(meta) = entry.metadata() else { continue };
        if !meta.is_file() {
            continue;
        }
        out.push((path, meta.len(), meta.modified().ok()));
    }
    out
}

/// One spill-directory entry as reported by `wfc cache --stats`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpillEntry {
    /// File name within the spill directory.
    pub file: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Seconds since last modification (`None` when the filesystem has no
    /// usable mtime).
    pub age_secs: Option<u64>,
}

/// Per-entry inventory of the spill directory (entries + quarantined +
/// orphaned temp files), sorted by file name for stable output.
#[must_use]
pub fn spill_entries(dir: &Path) -> Vec<SpillEntry> {
    let now = std::time::SystemTime::now();
    let mut out: Vec<SpillEntry> = spill_files(dir)
        .into_iter()
        .map(|(path, bytes, modified)| SpillEntry {
            file: path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            bytes,
            age_secs: modified
                .and_then(|m| now.duration_since(m).ok())
                .map(|d| d.as_secs()),
        })
        .collect();
    out.sort_by(|a, b| a.file.cmp(&b.file));
    out
}

/// Entry count and total bytes of the spill directory (entries +
/// quarantined + orphaned temp files).
#[must_use]
pub fn spill_usage(dir: &Path) -> (usize, u64) {
    let files = spill_files(dir);
    let bytes = files.iter().map(|(_, len, _)| len).sum();
    (files.len(), bytes)
}

/// Grace window during which a `.tmp-` file is presumed to belong to a
/// live writer in another process and must not be pruned. `spill_write`
/// creates the temp file and renames it within milliseconds, so a minute
/// of slack covers even a heavily-loaded writer; anything older is an
/// orphan from a crash.
pub const TMP_GRACE_SECS: u64 = 60;

/// Is this a `.tmp-` file young enough that a concurrent `spill_write`
/// may still be about to rename it? Files with a *future* mtime (clock
/// skew) are treated as in-grace — we cannot prove they are orphans.
/// Unknown mtimes are not protected: a temp file whose metadata cannot
/// be read is overwhelmingly a leftover, not a live write.
fn tmp_in_grace(
    path: &Path,
    modified: Option<std::time::SystemTime>,
    now: std::time::SystemTime,
) -> bool {
    let is_tmp = path
        .file_name()
        .is_some_and(|n| n.to_string_lossy().contains(".tmp-"));
    if !is_tmp {
        return false;
    }
    match modified {
        Some(m) => match now.duration_since(m) {
            Ok(age) => age.as_secs() < TMP_GRACE_SECS,
            Err(_) => true, // future mtime: assume live
        },
        None => false,
    }
}

/// Enforce `caps` on the spill directory: drop entries older than the age
/// cap, then drop oldest-first until the byte cap holds. Returns how many
/// files were removed. Failures to remove individual files are skipped —
/// pruning is hygiene, not correctness.
///
/// `.tmp-` files younger than [`TMP_GRACE_SECS`] are never removed (by
/// either pass): `spill_write` in *another process* may be between its
/// write and its rename, and deleting the temp file out from under it
/// turns an atomic store into a spurious I/O error. In-grace temp files
/// still count toward the byte total — they will become entries (or
/// prunable orphans) momentarily.
pub fn spill_prune(dir: &Path, caps: &SpillCaps) -> usize {
    let now = std::time::SystemTime::now();
    let mut files = spill_files(dir);
    let mut removed = 0usize;
    if let Some(max_age) = caps.max_age_secs {
        files.retain(|(path, _, modified)| {
            if tmp_in_grace(path, *modified, now) {
                return true;
            }
            let expired = modified
                .and_then(|m| now.duration_since(m).ok())
                .is_some_and(|age| age.as_secs() > max_age);
            if expired && std::fs::remove_file(path).is_ok() {
                removed += 1;
                return false;
            }
            true
        });
    }
    let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
    if total > caps.max_bytes {
        // Oldest first; files with unknown mtimes go first (they are
        // orphaned temp files more often than live entries).
        files.sort_by_key(|(_, _, modified)| *modified);
        for (path, len, modified) in files {
            if total <= caps.max_bytes {
                break;
            }
            if tmp_in_grace(&path, modified, now) {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                removed += 1;
                total = total.saturating_sub(len);
            }
        }
    }
    removed
}

/// Remove every spill entry (plus quarantined and temp files), returning
/// how many files were deleted.
///
/// # Errors
/// Propagates a failure to list the directory; per-file removal failures
/// are skipped.
pub fn spill_clear(dir: &Path) -> std::io::Result<usize> {
    if !dir.exists() {
        return Ok(0);
    }
    std::fs::read_dir(dir)?; // surface unreadable dirs as an error
    let mut removed = 0;
    for (path, _, _) in spill_files(dir) {
        if std::fs::remove_file(path).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

/// Encode a scheduling result for the disk spill.
#[must_use]
pub fn transformed_to_json(t: &Transformed) -> Json {
    let opt = |v: &Option<usize>| v.map_or(Json::Null, Json::from);
    let usizes = |v: &[usize]| Json::Arr(v.iter().map(|&x| Json::from(x)).collect());
    Json::obj([
        ("version", Json::Int(SPILL_VERSION)),
        (
            "dims",
            Json::Arr(
                t.schedule
                    .dims
                    .iter()
                    .map(|d| match d {
                        DimKind::Loop => Json::str("loop"),
                        DimKind::Scalar => Json::str("scalar"),
                    })
                    .collect(),
            ),
        ),
        (
            "rows",
            Json::Arr(
                t.schedule
                    .rows
                    .iter()
                    .map(|dim| {
                        Json::Arr(
                            dim.iter()
                                .map(|r| {
                                    Json::obj([
                                        (
                                            "c",
                                            Json::Arr(
                                                r.coeffs.iter().map(|&c| Json::Int(c)).collect(),
                                            ),
                                        ),
                                        ("k", Json::Int(r.konst)),
                                    ])
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
        ("sat_dim", Json::Arr(t.sat_dim.iter().map(opt).collect())),
        ("scc_of", usizes(&t.sccs.scc_of)),
        (
            "scc_members",
            Json::Arr(t.sccs.members.iter().map(|m| usizes(m)).collect()),
        ),
        ("scc_order", usizes(&t.scc_order)),
        ("partitions", usizes(&t.partitions)),
        ("strategy", Json::str(t.strategy.as_str())),
        (
            "band_of_dim",
            Json::Arr(t.band_of_dim.iter().map(opt).collect()),
        ),
    ])
}

/// Decode a spilled scheduling result; `None` on any shape or version
/// mismatch.
#[must_use]
pub fn transformed_from_json(j: &Json) -> Option<Transformed> {
    if j.get("version")?.as_i128()? != SPILL_VERSION {
        return None;
    }
    let usize_of = |v: &Json| -> Option<usize> { usize::try_from(v.as_i128()?).ok() };
    let usizes = |v: &Json| -> Option<Vec<usize>> { v.as_arr()?.iter().map(usize_of).collect() };
    let opts = |v: &Json| -> Option<Vec<Option<usize>>> {
        v.as_arr()?
            .iter()
            .map(|x| match x {
                Json::Null => Some(None),
                other => usize_of(other).map(Some),
            })
            .collect()
    };
    let dims = j
        .get("dims")?
        .as_arr()?
        .iter()
        .map(|d| match d.as_str() {
            Some("loop") => Some(DimKind::Loop),
            Some("scalar") => Some(DimKind::Scalar),
            _ => None,
        })
        .collect::<Option<Vec<DimKind>>>()?;
    let rows = j
        .get("rows")?
        .as_arr()?
        .iter()
        .map(|dim| {
            dim.as_arr()?
                .iter()
                .map(|r| {
                    Some(StmtRow {
                        coeffs: r
                            .get("c")?
                            .as_arr()?
                            .iter()
                            .map(Json::as_i128)
                            .collect::<Option<Vec<i128>>>()?,
                        konst: r.get("k")?.as_i128()?,
                    })
                })
                .collect::<Option<Vec<StmtRow>>>()
        })
        .collect::<Option<Vec<Vec<StmtRow>>>>()?;
    if rows.len() != dims.len() {
        return None;
    }
    Some(Transformed {
        schedule: Schedule { dims, rows },
        sat_dim: opts(j.get("sat_dim")?)?,
        sccs: wf_deps::SccInfo {
            scc_of: usizes(j.get("scc_of")?)?,
            members: j
                .get("scc_members")?
                .as_arr()?
                .iter()
                .map(usizes)
                .collect::<Option<Vec<Vec<usize>>>>()?,
        },
        scc_order: usizes(j.get("scc_order")?)?,
        partitions: usizes(j.get("partitions")?)?,
        strategy: j.get("strategy")?.as_str()?.to_string(),
        band_of_dim: opts(j.get("band_of_dim")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_transformed(tag: i128) -> Transformed {
        Transformed {
            schedule: Schedule {
                dims: vec![DimKind::Scalar, DimKind::Loop],
                rows: vec![
                    vec![StmtRow::scalar(2, tag), StmtRow::scalar(2, 1)],
                    vec![
                        StmtRow {
                            coeffs: vec![1, 0],
                            konst: 0,
                        },
                        StmtRow {
                            coeffs: vec![0, 1],
                            konst: -3,
                        },
                    ],
                ],
            },
            sat_dim: vec![Some(1), None],
            sccs: wf_deps::SccInfo {
                scc_of: vec![0, 1],
                members: vec![vec![0], vec![1]],
            },
            scc_order: vec![0, 1],
            partitions: vec![0, 1],
            strategy: "wisefuse".to_string(),
            band_of_dim: vec![None, Some(0)],
        }
    }

    fn key(n: u64) -> Fingerprint {
        Fingerprint {
            scop: n,
            model: Model::Wisefuse,
            config: 7,
        }
    }

    #[test]
    fn spill_codec_round_trips() {
        let t = sample_transformed(5);
        let j = transformed_to_json(&t);
        assert_eq!(transformed_from_json(&j), Some(t.clone()));
        // Through the actual serializer/parser as well.
        let reparsed = Json::parse(&j.render()).unwrap();
        assert_eq!(transformed_from_json(&reparsed), Some(t));
    }

    #[test]
    fn spill_codec_rejects_version_and_shape_mismatches() {
        let t = sample_transformed(5);
        let mut j = transformed_to_json(&t);
        match &mut j {
            Json::Obj(fields) => fields[0].1 = Json::Int(999),
            _ => unreachable!(),
        }
        assert_eq!(transformed_from_json(&j), None);
        assert_eq!(transformed_from_json(&Json::obj([])), None);
    }

    #[test]
    fn lru_bounds_and_counters() {
        let mut c = ScheduleCache::new(2);
        assert!(c.lookup(&key(1)).is_none());
        c.insert(key(1), &sample_transformed(1));
        c.insert(key(2), &sample_transformed(2));
        assert!(c.lookup(&key(1)).is_some()); // 1 now most recent
        c.insert(key(3), &sample_transformed(3)); // evicts 2
        assert!(c.lookup(&key(2)).is_none());
        assert!(c.lookup(&key(1)).is_some());
        assert!(c.lookup(&key(3)).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (3, 2));
        assert_eq!((s.stores, s.evictions), (3, 1));
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().stores, 3, "counters survive clear");
    }

    #[test]
    fn with_config_matches_full_fingerprint() {
        use wf_scop::{Aff, Expr, ScopBuilder};
        let mut b = ScopBuilder::new("fp", &["N"]);
        b.context_ge(Aff::param(0) - 4);
        let a = b.array("A", &[Aff::param(0)]);
        b.stmt("S0", 1, &[0, 0])
            .bounds(0, Aff::zero(), Aff::param(0) - 1)
            .write(a, &[Aff::iter(0)])
            .rhs(Expr::Const(1.0))
            .done();
        let scop = b.build();

        let base = Fingerprint::new(&scop, Model::Wisefuse, &PlutoConfig::default());
        let tweaked = PlutoConfig {
            max_fusion_width: 3,
            ..PlutoConfig::default()
        };
        // The delta path must agree with a from-scratch fingerprint…
        assert_eq!(
            base.with_config(&tweaked),
            Fingerprint::new(&scop, Model::Wisefuse, &tweaked)
        );
        assert_eq!(base.with_config(&PlutoConfig::default()), base);
        // …and distinct configs must not collide on the config digest.
        assert_ne!(base.with_config(&tweaked).config, base.config);
        // Same for the model delta.
        assert_eq!(
            base.with_model(Model::Nofuse),
            Fingerprint::new(&scop, Model::Nofuse, &PlutoConfig::default())
        );
    }

    #[test]
    fn cached_value_is_returned_verbatim() {
        let mut c = ScheduleCache::new(8);
        let t = sample_transformed(9);
        c.insert(key(9), &t);
        assert_eq!(c.lookup(&key(9)), Some(t));
    }

    // Tests below exercise spill I/O, whose `cache.spill_read/write`
    // fault sites some sibling tests target with installed plans — all
    // of them hold the crate-wide fault gate.
    use crate::fault_gate;
    use wf_harness::fault::{self, FaultPlan};

    fn spill_plan(seed: u64, rate: u32, site: &str) -> FaultPlan {
        FaultPlan {
            site: Some(site.to_string()),
            ..FaultPlan::all(seed, rate)
        }
    }

    /// A seed whose decision sequence at `site` is: visit 1 injects,
    /// visits 2 and 3 do not — i.e. exactly one transient fault that a
    /// single retry rescues. Found by search so the test never depends
    /// on hash-function internals.
    fn one_shot_fault_seed(site: &str, rate: u32) -> u64 {
        (0..10_000)
            .find(|&seed| {
                let p = spill_plan(seed, rate, site);
                fault::decide(&p, site, 1)
                    && !fault::decide(&p, site, 2)
                    && !fault::decide(&p, site, 3)
            })
            .expect("a one-shot seed exists within 10k candidates")
    }

    #[test]
    fn spill_files_round_trip_via_explicit_dir() {
        let _gate = fault_gate();
        let dir = std::env::temp_dir().join(format!("wf-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = sample_transformed(4);
        let k = key(4);
        assert_eq!(spill_read(&dir, &k), SpillOutcome::Miss);
        spill_write(&dir, &k, &t).expect("spill write");
        assert_eq!(spill_read(&dir, &k), SpillOutcome::Hit(Box::new(t)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_spill_entry_is_quarantined_once_then_misses() {
        let _gate = fault_gate();
        let dir = std::env::temp_dir().join(format!("wf-cache-quar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let k = key(6);
        let entry = dir.join(format!("{}.json", k.file_stem()));
        // A truncated write from a crashed pre-atomic-rename era.
        std::fs::write(&entry, "{\"version\": 1, \"dims\": [\"lo").unwrap();
        assert_eq!(spill_read(&dir, &k), SpillOutcome::Quarantined);
        assert!(!entry.exists(), "corrupt entry must be moved aside");
        assert!(
            entry.with_extension("json.quarantined").exists(),
            "quarantine keeps the evidence"
        );
        // Second lookup: plain miss, no re-quarantine churn.
        assert_eq!(spill_read(&dir, &k), SpillOutcome::Miss);
        // A fresh write recovers the slot.
        let t = sample_transformed(6);
        spill_write(&dir, &k, &t).unwrap();
        assert_eq!(spill_read(&dir, &k), SpillOutcome::Hit(Box::new(t)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantined_lookup_counts_and_misses() {
        let _gate = fault_gate();
        let dir = std::env::temp_dir().join(format!("wf-cache-quarstat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let k = key(11);
        std::fs::write(dir.join(format!("{}.json", k.file_stem())), "not json").unwrap();
        let mut c = ScheduleCache::new(4).with_spill_dir(dir.clone());
        assert!(c.lookup(&k).is_none());
        let s = c.stats();
        assert_eq!((s.spill_quarantined, s.misses), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_enforces_size_and_age_caps() {
        let _gate = fault_gate();
        let dir = std::env::temp_dir().join(format!("wf-cache-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for n in 0..4 {
            spill_write(&dir, &key(n), &sample_transformed(n as i128)).unwrap();
        }
        let (files, bytes) = spill_usage(&dir);
        assert_eq!(files, 4);
        assert!(bytes > 0);
        let per_entry = bytes / 4;
        // Size cap that fits only ~2 entries.
        let removed = spill_prune(
            &dir,
            &SpillCaps {
                max_bytes: per_entry * 2 + 1,
                max_age_secs: None,
            },
        );
        assert_eq!(removed, 2, "oldest two entries pruned");
        assert_eq!(spill_usage(&dir).0, 2);
        // Age cap of zero seconds is not instant-expiry (mtime == now is
        // not *older* than 0), so backdate via a large cap sanity check:
        // nothing else is removed.
        let removed = spill_prune(
            &dir,
            &SpillCaps {
                max_bytes: u64::MAX,
                max_age_secs: Some(3600),
            },
        );
        assert_eq!(removed, 0);
        // clear() removes the rest.
        assert_eq!(spill_clear(&dir).unwrap(), 2);
        assert_eq!(spill_usage(&dir), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_spares_fresh_tmp_files() {
        let _gate = fault_gate();
        let dir = std::env::temp_dir().join(format!("wf-cache-tmpgrace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for n in 0..2 {
            spill_write(&dir, &key(n), &sample_transformed(n as i128)).unwrap();
        }
        // Another process's in-flight write, seconds from its rename.
        let tmp = dir.join("inflight.tmp-424242");
        std::fs::write(&tmp, "{\"version\": 1").unwrap();
        // Size pass under a zero byte cap: real entries go, tmp stays.
        let removed = spill_prune(
            &dir,
            &SpillCaps {
                max_bytes: 0,
                max_age_secs: None,
            },
        );
        assert_eq!(removed, 2, "only the finished entries are prunable");
        assert!(tmp.exists(), "fresh tmp survives the size pass");
        // Age pass: older than the age cap but inside the tmp grace
        // window must still survive.
        let backdate = |secs: u64| {
            let then = std::time::SystemTime::now() - std::time::Duration::from_secs(secs);
            std::fs::File::options()
                .write(true)
                .open(&tmp)
                .unwrap()
                .set_modified(then)
                .unwrap();
        };
        backdate(TMP_GRACE_SECS / 2);
        let removed = spill_prune(
            &dir,
            &SpillCaps {
                max_bytes: u64::MAX,
                max_age_secs: Some(1),
            },
        );
        assert_eq!(removed, 0, "in-grace tmp survives the age pass");
        assert!(tmp.exists());
        // Past the grace window it is an orphan from a crashed writer
        // and pruning reclaims it.
        backdate(TMP_GRACE_SECS + 5);
        let removed = spill_prune(
            &dir,
            &SpillCaps {
                max_bytes: 0,
                max_age_secs: None,
            },
        );
        assert_eq!(removed, 1, "expired tmp is reclaimed");
        assert!(!tmp.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_write_retry_rescues_a_transient_fault() {
        let _gate = fault_gate();
        let dir = std::env::temp_dir().join(format!("wf-cache-wretry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let site = "cache.spill_write";
        // install() resets visit counters, so the first attempt is
        // visit 1: it injects, the retry (visit 2) does not.
        fault::install(spill_plan(one_shot_fault_seed(site, 500), 500, site));
        let t = sample_transformed(3);
        assert!(
            spill_write(&dir, &key(3), &t).is_ok(),
            "one transient fault must be absorbed by the retry"
        );
        fault::reset_to_env();
        assert_eq!(spill_read(&dir, &key(3)), SpillOutcome::Hit(Box::new(t)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_write_surfaces_persistent_faults() {
        let _gate = fault_gate();
        let dir = std::env::temp_dir().join(format!("wf-cache-wfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Rate 1000: every attempt injects; the bounded retry must give
        // up rather than spin.
        fault::install(spill_plan(7, 1000, "cache.spill_write"));
        let err = spill_write(&dir, &key(5), &sample_transformed(5));
        fault::reset_to_env();
        assert!(
            err.is_err(),
            "persistent faults surface after {SPILL_IO_ATTEMPTS} attempts"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_read_retry_rescues_then_persistent_fault_misses() {
        let _gate = fault_gate();
        let dir = std::env::temp_dir().join(format!("wf-cache-rretry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = sample_transformed(8);
        spill_write(&dir, &key(8), &t).unwrap();
        let site = "cache.spill_read";
        // One transient unreadable-file fault: the retry recovers the hit.
        fault::install(spill_plan(one_shot_fault_seed(site, 500), 500, site));
        assert_eq!(
            spill_read(&dir, &key(8)),
            SpillOutcome::Hit(Box::new(t)),
            "one transient read fault must be absorbed by the retry"
        );
        // Persistent unreadability degrades to a miss, never an error.
        fault::install(spill_plan(7, 1000, site));
        assert_eq!(spill_read(&dir, &key(8)), SpillOutcome::Miss);
        fault::reset_to_env();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruned_entry_is_clean_miss_without_retry_or_quarantine() {
        let _gate = fault_gate();
        let dir = std::env::temp_dir().join(format!("wf-cache-prace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // An entry another process sharing `WF_CACHE_DIR` just validated…
        let k = key(12);
        spill_write(&dir, &k, &sample_transformed(12)).unwrap();
        // …then its amortized prune deletes before our read gets there.
        std::fs::remove_file(dir.join(format!("{}.json", k.file_stem()))).unwrap();
        let prev = wf_harness::obs::enabled();
        wf_harness::obs::set_enabled(prev | wf_harness::obs::METRICS);
        let before = wf_harness::obs::metrics().counter("cache.spill_retry");
        let mut c = ScheduleCache::new(4).with_spill_dir(dir.clone());
        let hit = c.lookup(&k);
        let after = wf_harness::obs::metrics().counter("cache.spill_retry");
        wf_harness::obs::set_enabled(prev);
        assert!(hit.is_none());
        assert_eq!(after - before, 0, "ENOENT must not burn spill retries");
        let s = c.stats();
        assert_eq!(
            (s.spill_quarantined, s.misses, s.spill_hits),
            (0, 1, 0),
            "a pruned entry is a clean miss, never a quarantine"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_fault_then_prune_race_reads_as_clean_miss() {
        let _gate = fault_gate();
        let dir = std::env::temp_dir().join(format!("wf-cache-fprace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let k = key(13);
        spill_write(&dir, &k, &sample_transformed(13)).unwrap();
        let site = "cache.spill_read";
        // Attempt 1 hits a transient fault; by the retry the file has
        // been pruned by a sibling process. The retry must discover the
        // ENOENT and stop cleanly rather than keep retrying or
        // quarantine anything.
        fault::install(spill_plan(one_shot_fault_seed(site, 500), 500, site));
        std::fs::remove_file(dir.join(format!("{}.json", k.file_stem()))).unwrap();
        let outcome = spill_read(&dir, &k);
        fault::reset_to_env();
        assert_eq!(outcome, SpillOutcome::Miss);
        assert!(
            !dir.join(format!("{}.json.quarantined", k.file_stem()))
                .exists(),
            "nothing to quarantine when the entry is simply gone"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_rename_race_is_clean_miss() {
        let dir = std::env::temp_dir().join(format!("wf-cache-qrace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // The corrupt file vanished between our read and the quarantine
        // rename (a sibling pruned or quarantined it first).
        let path = dir.join("gone.json");
        assert_eq!(quarantine_corrupt(&path), SpillOutcome::Miss);
        assert!(!path.with_extension("json.quarantined").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_fingerprint_covers_every_knob() {
        let base = PlutoConfig::default();
        let fp = config_fingerprint(&base);
        let variants = [
            PlutoConfig {
                coeff_bound: base.coeff_bound + 1,
                ..base
            },
            PlutoConfig {
                shift_bound: base.shift_bound + 1,
                ..base
            },
            PlutoConfig {
                u_bound: base.u_bound + 1,
                ..base
            },
            PlutoConfig {
                w_bound: base.w_bound + 1,
                ..base
            },
            PlutoConfig {
                max_iters: base.max_iters + 1,
                ..base
            },
            PlutoConfig {
                ilp_node_budget: base.ilp_node_budget + 1,
                ..base
            },
            PlutoConfig {
                ilp_cell_budget: base.ilp_cell_budget + 1,
                ..base
            },
            PlutoConfig {
                max_fusion_width: base.max_fusion_width + 1,
                ..base
            },
        ];
        for v in &variants {
            assert_ne!(config_fingerprint(v), fp, "knob not fingerprinted: {v:?}");
        }
    }
}
