//! **obs** — the workspace's zero-dependency observability layer.
//!
//! Three instruments share one process-wide switchboard, all compiled to
//! near-zero cost when disabled (a single relaxed atomic load per probe,
//! no allocation, no locking):
//!
//! * **Hierarchical spans** — [`span`] (or the [`span!`](crate::span)
//!   macro) returns an RAII guard that records a timed interval on drop.
//!   Timestamps come from one process-wide monotonic epoch
//!   ([`Instant`]), nesting is tracked per thread, and the pool helpers
//!   in [`pool`](crate::pool) propagate the submitting thread's span
//!   context into worker jobs via [`current_ctx`]/[`enter_ctx`], so a
//!   worker's `ilp.solve` span nests under the `run_all` span that
//!   submitted it. [`write_trace`] renders everything as Chrome
//!   trace-event JSON (`chrome://tracing`, Perfetto) — the `wfc --trace
//!   <path>` / `WF_TRACE=<path>` surface.
//! * **A metrics registry** — named monotone counters ([`add`]) and
//!   power-of-two bucketed histograms ([`observe`]) keyed by `'static`
//!   names, snapshotted as JSON ([`metrics`], [`MetricsSnapshot`]).
//!   The pipeline feeds it ILP nodes/pivots, simplex iterations, FM
//!   eliminations, cache hit/miss/spill traffic, pool batch sizes,
//!   budget exhaustions and fault injections; `wfc bench-all` embeds a
//!   per-benchmark delta in every report row.
//! * **A fusion decision log** — [`decision`] records *why* the
//!   scheduler did what it did: every Algorithm 1 ordering choice (seed
//!   placement, reuse-driven fuse, dimensionality match, program-order
//!   tiebreak) and every Algorithm 2 cut (the offending forward
//!   dependence, its SCC pair, the candidate hyperplane it poisoned).
//!   Entries are tagged with the active [`scope`] (the fusion strategy
//!   set by the scheduling engine) and a per-scope sequence number, so
//!   [`drain_decisions`] yields a deterministic order regardless of how
//!   many pool workers were scheduling concurrently. `wfc explain
//!   <kernel>` renders the log for humans.
//!
//! Enabling any instrument never changes pipeline *results*: probes only
//! read pipeline state, and the scheduler's determinism tests assert
//! byte-identical schedules traced vs. untraced.
//!
//! The in-memory event and decision buffers are **bounded**
//! ([`set_buffer_limit`], default [`DEFAULT_BUFFER_LIMIT`]): once full,
//! further records are counted in [`dropped`] (and the `obs.dropped`
//! counter) instead of growing without bound. Long runs that need every
//! span stream them to disk instead: `WF_TRACE_STREAM=<path>`
//! ([`stream_open`]) writes each span as one JSONL line the moment it
//! closes, bypassing the in-memory buffer entirely.

use crate::json::Json;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Bit flag: record spans ([`span`]).
pub const TRACE: u8 = 1;
/// Bit flag: record metrics ([`add`], [`observe`]).
pub const METRICS: u8 = 2;
/// Bit flag: record fusion decisions ([`decision`]).
pub const DECISIONS: u8 = 4;

/// The master switch; all probes gate on one relaxed load of this.
static FLAGS: AtomicU8 = AtomicU8::new(0);

/// Enable the given instrument bits (`TRACE | METRICS | DECISIONS`),
/// replacing the previous set. `set_enabled(0)` turns everything off.
pub fn set_enabled(flags: u8) {
    FLAGS.store(flags, Ordering::Relaxed);
}

/// Current instrument bits.
#[must_use]
pub fn enabled() -> u8 {
    FLAGS.load(Ordering::Relaxed)
}

/// Is span recording on?
#[inline]
#[must_use]
pub fn trace_on() -> bool {
    enabled() & TRACE != 0
}

/// Is the metrics registry on?
#[inline]
#[must_use]
pub fn metrics_on() -> bool {
    enabled() & METRICS != 0
}

/// Is the fusion decision log on?
#[inline]
#[must_use]
pub fn decisions_on() -> bool {
    enabled() & DECISIONS != 0
}

/// Enable from the environment: `WF_TRACE=<path>` turns on spans and
/// metrics (the path is the caller's business — `wfc` writes the Chrome
/// trace there on exit). Returns the path when set.
pub fn init_from_env() -> Option<String> {
    let path = std::env::var("WF_TRACE").ok().filter(|p| !p.is_empty())?;
    set_enabled(enabled() | TRACE | METRICS);
    Some(path)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// The process-wide monotonic epoch all span timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Span ids are process-unique and never reused; 0 means "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Small dense thread ids for the trace (`std::thread::ThreadId` is
/// opaque); assigned on each thread's first probe.
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// Innermost live span id on this thread (0 at top level).
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    /// This thread's dense trace id.
    static TID: Cell<u32> = const { Cell::new(0) };
    /// The decision scope ([`scope`]) active on this thread.
    static SCOPE: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
}

fn tid() -> u32 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// One recorded interval, in Chrome trace-event terms.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span name (static: span names form a fixed taxonomy).
    pub name: &'static str,
    /// Microseconds since the process epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Dense thread id.
    pub tid: u32,
    /// This span's id.
    pub id: u64,
    /// Enclosing span's id (0 = root). Pool workers inherit the
    /// *submitting* span here, which is what makes traces hierarchical
    /// across threads.
    pub parent: u64,
    /// Extra key/value annotations.
    pub args: Vec<(&'static str, String)>,
}

static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

fn events_guard() -> MutexGuard<'static, Vec<TraceEvent>> {
    EVENTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Buffer bounds & the streaming sink
// ---------------------------------------------------------------------------

/// Default cap on the in-memory event buffer and the decision log
/// (each), in records. Roomy for every interactive run; fuzz/bench
/// marathons that overflow it should stream (`WF_TRACE_STREAM`).
pub const DEFAULT_BUFFER_LIMIT: usize = 262_144;

/// Records the streaming sink will write before dropping, per stream:
/// a multiple of the in-memory cap since disk is the escape hatch.
const STREAM_LIMIT_FACTOR: u64 = 64;

static BUFFER_LIMIT: AtomicUsize = AtomicUsize::new(DEFAULT_BUFFER_LIMIT);

/// Records (events + decisions + streamed lines) dropped because a
/// bound was hit. Counted even when metrics are off, so the trace
/// writer can warn about truncation.
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Cap the in-memory event buffer and decision log at `limit` records
/// each (see [`DEFAULT_BUFFER_LIMIT`]). Overflow increments [`dropped`]
/// and the `obs.dropped` counter rather than allocating.
pub fn set_buffer_limit(limit: usize) {
    BUFFER_LIMIT.store(limit.max(1), Ordering::Relaxed);
}

/// The current in-memory buffer cap.
#[must_use]
pub fn buffer_limit() -> usize {
    BUFFER_LIMIT.load(Ordering::Relaxed)
}

/// Total records dropped so far because a buffer or stream bound was
/// hit (process lifetime; monotone).
#[must_use]
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

fn drop_one() {
    DROPPED.fetch_add(1, Ordering::Relaxed);
    add("obs.dropped", 1);
}

struct StreamSink {
    w: std::io::BufWriter<std::fs::File>,
    lines: u64,
    max_lines: u64,
}

/// `Some` while a stream is open; the flag mirrors it so the span-drop
/// hot path can skip the mutex entirely when not streaming.
static STREAM: Mutex<Option<StreamSink>> = Mutex::new(None);
static STREAM_ON: AtomicBool = AtomicBool::new(false);

fn stream_guard() -> MutexGuard<'static, Option<StreamSink>> {
    STREAM
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Open the streaming span sink at `path` (truncating; parent
/// directories created): from now on every closing span is written as
/// one line-buffered JSONL record instead of accumulating in memory.
/// The stream is bounded at `64 ×` the in-memory cap; overflow counts
/// in [`dropped`]. This is the `WF_TRACE_STREAM=<path>` surface.
///
/// # Errors
/// Propagates filesystem errors from creating the file.
pub fn stream_open(path: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let file = std::fs::File::create(path)?;
    *stream_guard() = Some(StreamSink {
        w: std::io::BufWriter::new(file),
        lines: 0,
        max_lines: (buffer_limit() as u64).saturating_mul(STREAM_LIMIT_FACTOR),
    });
    STREAM_ON.store(true, Ordering::Release);
    Ok(())
}

/// Is the streaming sink open?
#[must_use]
pub fn stream_active() -> bool {
    STREAM_ON.load(Ordering::Acquire)
}

/// Flush and close the streaming sink; returns how many lines were
/// written (`None` when no stream was open). Dropped-on-bound records
/// are in [`dropped`].
pub fn stream_close() -> std::io::Result<Option<u64>> {
    STREAM_ON.store(false, Ordering::Release);
    match stream_guard().take() {
        None => Ok(None),
        Some(mut s) => {
            s.w.flush()?;
            Ok(Some(s.lines))
        }
    }
}

/// Write one event to the open stream (line-buffered: one write + flush
/// per span, so a crash loses at most the span being written).
fn stream_write(ev: &TraceEvent) {
    let mut g = stream_guard();
    let Some(s) = g.as_mut() else {
        // Raced with stream_close; fall back to the bounded buffer.
        drop(g);
        buffer_push(ev.clone());
        return;
    };
    if s.lines >= s.max_lines {
        drop(g);
        drop_one();
        return;
    }
    let mut line = event_json(ev).render();
    line.push('\n');
    if s.w
        .write_all(line.as_bytes())
        .and_then(|()| s.w.flush())
        .is_ok()
    {
        s.lines += 1;
    }
}

/// Push into the bounded in-memory buffer, counting overflow.
fn buffer_push(ev: TraceEvent) {
    let mut g = events_guard();
    if g.len() >= buffer_limit() {
        drop(g);
        drop_one();
        return;
    }
    g.push(ev);
}

/// RAII span guard: records a [`TraceEvent`] on drop when tracing was on
/// at creation. Deliberately `!Send` — a span belongs to the thread that
/// opened it (cross-thread propagation goes through [`current_ctx`]).
pub struct SpanGuard {
    name: &'static str,
    start_us: u64,
    id: u64,
    parent: u64,
    args: Vec<(&'static str, String)>,
    active: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl SpanGuard {
    /// Attach a key/value annotation (no-op on an inactive guard, so
    /// callers can annotate unconditionally without paying when off).
    pub fn arg(&mut self, key: &'static str, value: impl Into<String>) -> &mut SpanGuard {
        if self.active {
            self.args.push((key, value.into()));
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        CURRENT_SPAN.with(|c| c.set(self.parent));
        let ev = TraceEvent {
            name: self.name,
            ts_us: self.start_us,
            dur_us: now_us().saturating_sub(self.start_us),
            tid: tid(),
            id: self.id,
            parent: self.parent,
            args: std::mem::take(&mut self.args),
        };
        if stream_active() {
            stream_write(&ev);
        } else {
            buffer_push(ev);
        }
    }
}

/// Open a span; the returned guard records it when dropped. When tracing
/// is off this is one atomic load and an inert guard — no clock read, no
/// id allocation, no lock.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    if !trace_on() {
        return SpanGuard {
            name,
            start_us: 0,
            id: 0,
            parent: 0,
            args: Vec::new(),
            active: false,
            _not_send: std::marker::PhantomData,
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT_SPAN.with(|c| {
        let p = c.get();
        c.set(id);
        p
    });
    SpanGuard {
        name,
        start_us: now_us(),
        id,
        parent,
        args: Vec::new(),
        active: true,
        _not_send: std::marker::PhantomData,
    }
}

/// A capturable reference to the calling thread's innermost span,
/// for handing to worker threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanCtx(u64);

/// Capture the calling thread's span context (to re-enter on a worker).
#[must_use]
pub fn current_ctx() -> SpanCtx {
    if !trace_on() {
        return SpanCtx(0);
    }
    SpanCtx(CURRENT_SPAN.with(Cell::get))
}

/// RAII guard restoring the previous thread-local span context on drop.
pub struct CtxGuard {
    prev: u64,
    active: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        if self.active {
            CURRENT_SPAN.with(|c| c.set(self.prev));
        }
    }
}

/// Adopt a captured [`SpanCtx`] as this thread's current span, so spans
/// opened by a pool worker nest under the span that submitted the job.
#[must_use]
pub fn enter_ctx(ctx: SpanCtx) -> CtxGuard {
    if !trace_on() {
        return CtxGuard {
            prev: 0,
            active: false,
            _not_send: std::marker::PhantomData,
        };
    }
    let prev = CURRENT_SPAN.with(|c| {
        let p = c.get();
        c.set(ctx.0);
        p
    });
    CtxGuard {
        prev,
        active: true,
        _not_send: std::marker::PhantomData,
    }
}

/// Remove and return every recorded trace event (tests, and the trace
/// writer).
#[must_use]
pub fn take_events() -> Vec<TraceEvent> {
    std::mem::take(&mut *events_guard())
}

/// One event in Chrome trace-event form (also the streaming sink's
/// per-line format, so a streamed file is the `traceEvents` array, one
/// element per line).
#[must_use]
pub fn event_json(e: &TraceEvent) -> Json {
    let mut args = vec![("id", Json::from(e.id)), ("parent", Json::from(e.parent))];
    for (k, v) in &e.args {
        args.push((*k, Json::str(v.as_str())));
    }
    Json::obj([
        ("name", Json::str(e.name)),
        ("cat", Json::str("wf")),
        ("ph", Json::str("X")),
        ("ts", Json::from(e.ts_us)),
        ("dur", Json::from(e.dur_us)),
        ("pid", Json::Int(1)),
        ("tid", Json::from(u64::from(e.tid))),
        ("args", Json::obj(args)),
    ])
}

/// Render events as a Chrome trace-event JSON document
/// (`{"traceEvents": [...]}`; complete `"ph":"X"` events, microsecond
/// timestamps). The `parent` span id rides in `args` so tools and tests
/// can reconstruct the hierarchy exactly even across thread boundaries.
/// A metrics snapshot and the solver-cost attribution table ride along
/// so `wfc profile --trace FILE` can reconcile cells without re-running.
#[must_use]
pub fn trace_json(events: &[TraceEvent]) -> Json {
    let evs: Vec<Json> = events.iter().map(event_json).collect();
    Json::obj([
        ("traceEvents", Json::Arr(evs)),
        ("displayTimeUnit", Json::str("ms")),
        ("metrics", metrics().to_json()),
        ("attribution", crate::attr::snapshot().to_json()),
        ("dropped", Json::from(dropped())),
    ])
}

/// Drain all recorded spans and write them (plus a metrics snapshot) as
/// Chrome trace JSON to `path`.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_trace(path: &str) -> std::io::Result<()> {
    let events = take_events();
    let doc = trace_json(&events);
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, doc.render())
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Histogram bucket upper bounds: powers of two `1, 2, 4, …, 2^20`, plus
/// an implicit overflow bucket. A value `v` lands in the first bucket
/// whose bound is `>= v` (so bucket `2^k` holds `2^(k-1) < v <= 2^k`,
/// and bucket `1` holds `v <= 1`).
pub const HISTOGRAM_BOUNDS: [u64; 21] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131_072,
    262_144, 524_288, 1_048_576,
];

/// A power-of-two bucketed histogram (see [`HISTOGRAM_BOUNDS`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket observation counts; `counts[HISTOGRAM_BOUNDS.len()]`
    /// is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl Default for Histogram {
    /// An empty histogram with every bucket (including overflow) present.
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; HISTOGRAM_BOUNDS.len() + 1],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// The bucket index a value lands in.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        HISTOGRAM_BOUNDS.partition_point(|&b| b < value)
    }

    /// Record one observation (callers building ad-hoc histograms, e.g.
    /// `wfc cache --stats --json` over spill entry sizes/ages; the
    /// registry path goes through [`observe`]).
    pub fn record(&mut self, value: u64) {
        self.counts[Histogram::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// This histogram minus an earlier snapshot of the same histogram.
    #[must_use]
    pub fn delta(&self, earlier: &Histogram) -> Histogram {
        let mut counts = self.counts.clone();
        for (c, e) in counts.iter_mut().zip(&earlier.counts) {
            *c = c.saturating_sub(*e);
        }
        Histogram {
            counts,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// The `q`-quantile (`0 < q <= 1`), linearly interpolated inside the
    /// power-of-two bucket the rank lands in (bucket `i` spans
    /// `(bound[i-1], bound[i]]`; the overflow bucket interpolates over
    /// one further doubling). An estimate — exact only when the bucket
    /// is a point — but monotone in `q` and deterministic in the counts.
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            #[allow(clippy::cast_precision_loss)]
            let (prev, next) = (cum as f64, (cum + n) as f64);
            cum += n;
            if next >= rank {
                let lo = if i == 0 { 0 } else { HISTOGRAM_BOUNDS[i - 1] };
                let hi = HISTOGRAM_BOUNDS
                    .get(i)
                    .copied()
                    .unwrap_or(HISTOGRAM_BOUNDS[HISTOGRAM_BOUNDS.len() - 1] * 2);
                #[allow(clippy::cast_precision_loss)]
                let (lo, hi) = (lo as f64, hi as f64);
                let frac = (rank - prev) / (next - prev);
                return lo + frac * (hi - lo);
            }
        }
        // Unreachable with a consistent histogram; be safe anyway.
        #[allow(clippy::cast_precision_loss)]
        let fallback = HISTOGRAM_BOUNDS[HISTOGRAM_BOUNDS.len() - 1] as f64;
        fallback
    }

    /// The upper bound of bucket `i` (`2 * 2^20` for the overflow
    /// bucket, matching [`quantile`](Histogram::quantile)'s one further
    /// doubling).
    fn bucket_bound(i: usize) -> u64 {
        HISTOGRAM_BOUNDS
            .get(i)
            .copied()
            .unwrap_or(HISTOGRAM_BOUNDS[HISTOGRAM_BOUNDS.len() - 1] * 2)
    }

    /// A quantile rendered for reports: `null` for an empty histogram
    /// (there is no rank to estimate), the bucket's upper bound when
    /// every observation sits in a single bucket (interpolating inside
    /// one bucket invents sub-bucket precision the counts do not carry),
    /// otherwise the interpolated estimate rounded to 3 decimals so the
    /// rendering is stable.
    #[must_use]
    pub fn quantile_json(&self, q: f64) -> Json {
        if self.count == 0 {
            return Json::Null;
        }
        let mut nonzero = self.counts.iter().enumerate().filter(|(_, &n)| n > 0);
        if let (Some((i, _)), None) = (nonzero.next(), nonzero.next()) {
            #[allow(clippy::cast_precision_loss)]
            return Json::Num(Histogram::bucket_bound(i) as f64);
        }
        Json::Num((self.quantile(q) * 1000.0).round() / 1000.0)
    }

    /// JSON form: `{"count", "sum", "p50", "p95", "p99", "buckets":
    /// [{"le", "n"}, ...]}` with zero buckets elided (`le` is `"inf"`
    /// for the overflow bucket); the quantiles follow
    /// [`quantile_json`](Histogram::quantile_json) (nulls when empty,
    /// the bucket bound when only one bucket is populated).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let le = HISTOGRAM_BOUNDS
                    .get(i)
                    .map_or_else(|| Json::str("inf"), |&b| Json::from(b));
                Json::obj([("le", le), ("n", Json::from(n))])
            })
            .collect();
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("p50", self.quantile_json(0.50)),
            ("p95", self.quantile_json(0.95)),
            ("p99", self.quantile_json(0.99)),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Add `delta` to the named counter (created on first use). One relaxed
/// atomic load and nothing else when metrics are off.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if !metrics_on() || delta == 0 {
        return;
    }
    *registry().counters.entry(name).or_insert(0) += delta;
}

/// Record one observation in the named histogram (created on first
/// use). One relaxed atomic load and nothing else when metrics are off.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !metrics_on() {
        return;
    }
    registry().histograms.entry(name).or_default().record(value);
}

/// A point-in-time copy of the metrics registry.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsSnapshot {
    /// A counter's value (0 when never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram, if it was ever observed.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// This snapshot minus an `earlier` one — counters and histograms
    /// that did not move are dropped, so the delta is exactly "what this
    /// phase did".
    #[must_use]
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(&k, &v)| {
                let d = v.saturating_sub(earlier.counter(k));
                (d > 0).then_some((k, d))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|(&k, h)| {
                let d = earlier
                    .histogram(k)
                    .map_or_else(|| h.clone(), |e| h.delta(e));
                (d.count > 0).then_some((k, d))
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// JSON form: `{"counters": {...}, "histograms": {...}}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "counters".to_string(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(&k, &v)| (k.to_string(), Json::from(v)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(&k, h)| (k.to_string(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Snapshot the metrics registry.
#[must_use]
pub fn metrics() -> MetricsSnapshot {
    let r = registry();
    MetricsSnapshot {
        counters: r.counters.clone(),
        histograms: r.histograms.clone(),
    }
}

/// Clear every counter and histogram (tests and per-run harnesses).
pub fn reset_metrics() {
    let mut r = registry();
    r.counters.clear();
    r.histograms.clear();
}

// ---------------------------------------------------------------------------
// Fusion decision log
// ---------------------------------------------------------------------------

/// One recorded scheduling decision; see the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The decision scope active when recorded (the fusion strategy
    /// name, e.g. `"wisefuse"`; empty at top level).
    pub scope: String,
    /// Sequence number *within* the scope — deterministic because one
    /// strategy's scheduling pass is single-threaded.
    pub seq: u64,
    /// Decision class: `"alg1.seed"`, `"alg1.fuse"`, `"alg2.cut"`,
    /// `"cut.dim"`, `"cut.failure"`, `"cut.budget"`, `"hyperplane"`.
    pub kind: &'static str,
    /// Human-readable rationale.
    pub summary: String,
    /// Structured key/value payload (SCC ids, statement names, rows).
    pub data: Vec<(&'static str, String)>,
}

impl Decision {
    /// JSON form (for `wfc explain --json`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj([
            ("scope", Json::str(self.scope.as_str())),
            ("seq", Json::from(self.seq)),
            ("kind", Json::str(self.kind)),
            ("summary", Json::str(self.summary.as_str())),
        ]);
        for (k, v) in &self.data {
            j.push(*k, Json::str(v.as_str()));
        }
        j
    }
}

#[derive(Default)]
struct DecisionLog {
    entries: Vec<Decision>,
    next_seq: BTreeMap<String, u64>,
}

static DECISION_LOG: OnceLock<Mutex<DecisionLog>> = OnceLock::new();

fn decision_log() -> MutexGuard<'static, DecisionLog> {
    DECISION_LOG
        .get_or_init(|| Mutex::new(DecisionLog::default()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// RAII guard for the thread-local decision scope; restores the previous
/// scope on drop.
pub struct ScopeGuard {
    prev: String,
    active: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.active {
            SCOPE.with(|s| *s.borrow_mut() = std::mem::take(&mut self.prev));
        }
    }
}

/// Set the calling thread's decision scope (the scheduling engine tags
/// each pass with its strategy name). Inert when decisions are off.
#[must_use]
pub fn scope(name: &str) -> ScopeGuard {
    if !decisions_on() {
        return ScopeGuard {
            prev: String::new(),
            active: false,
            _not_send: std::marker::PhantomData,
        };
    }
    let prev = SCOPE.with(|s| std::mem::replace(&mut *s.borrow_mut(), name.to_string()));
    ScopeGuard {
        prev,
        active: true,
        _not_send: std::marker::PhantomData,
    }
}

/// Record a decision under the current scope. Callers building costly
/// summaries should guard on [`decisions_on`] first.
pub fn decision(kind: &'static str, summary: String, data: Vec<(&'static str, String)>) {
    if !decisions_on() {
        return;
    }
    let scope = SCOPE.with(|s| s.borrow().clone());
    let mut log = decision_log();
    if log.entries.len() >= buffer_limit() {
        drop(log);
        drop_one();
        return;
    }
    let seq = log.next_seq.entry(scope.clone()).or_insert(0);
    let entry = Decision {
        scope,
        seq: *seq,
        kind,
        summary,
        data,
    };
    *seq += 1;
    log.entries.push(entry);
}

/// Remove and return every recorded decision, sorted by
/// `(scope, seq)` — a deterministic total order however many workers
/// were scheduling concurrently (each scope's pass is single-threaded,
/// so per-scope sequence numbers are reproducible).
#[must_use]
pub fn drain_decisions() -> Vec<Decision> {
    let mut log = decision_log();
    log.next_seq.clear();
    let mut entries = std::mem::take(&mut log.entries);
    entries.sort_by(|a, b| a.scope.cmp(&b.scope).then(a.seq.cmp(&b.seq)));
    entries
}

/// Open a span with optional inline annotations:
/// `span!("ilp.solve")` or `span!("schedule", "model" => name)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::obs::span($name)
    };
    ($name:expr, $($k:literal => $v:expr),+ $(,)?) => {{
        let mut s = $crate::obs::span($name);
        $(s.arg($k, $v);)+
        s
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    // The switchboard is process-global; unit tests here only exercise
    // pure helpers. Stateful behaviour is covered by the serialized
    // integration suite in `tests/obs.rs`.

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(1_048_576), 20);
        assert_eq!(Histogram::bucket_index(1_048_577), 21); // overflow
        assert_eq!(Histogram::bucket_index(u64::MAX), 21);
    }

    #[test]
    fn empty_histogram_emits_null_quantiles() {
        let h = Histogram::default();
        let doc = h.to_json();
        for key in ["p50", "p95", "p99"] {
            assert_eq!(doc.get(key), Some(&Json::Null), "{key} of empty histogram");
        }
        assert_eq!(doc.get("count").unwrap().as_i128(), Some(0));
        assert_eq!(doc.get("buckets").unwrap().as_arr().unwrap().len(), 0);
        // Never NaN/garbage through the renderer either.
        assert!(doc.render().contains("\"p50\": null") || doc.render().contains("\"p50\":null"));
    }

    #[test]
    fn single_bucket_histogram_emits_bucket_bound() {
        let mut h = Histogram::default();
        h.record(5); // bucket (4, 8]
        h.record(7);
        h.record(8);
        let doc = h.to_json();
        for key in ["p50", "p95", "p99"] {
            assert_eq!(doc.get(key).unwrap().as_f64(), Some(8.0), "{key}");
        }
        // Overflow-only histogram reports the overflow interpolation cap.
        let mut o = Histogram::default();
        o.record(5_000_000);
        let cap = f64::from(2 * 1_048_576u32);
        assert_eq!(o.to_json().get("p99").unwrap().as_f64(), Some(cap));
    }

    #[test]
    fn multi_bucket_quantiles_still_interpolate() {
        let mut h = Histogram::default();
        for v in [1, 1, 1, 1000] {
            h.record(v);
        }
        let p50 = h.to_json().get("p50").unwrap().as_f64().unwrap();
        assert!(p50.is_finite() && p50 <= 1.0, "p50 {p50} in first bucket");
        let p99 = h.to_json().get("p99").unwrap().as_f64().unwrap();
        assert!(p99 > 512.0, "p99 {p99} lands in the 1000s bucket");
    }

    #[test]
    fn histogram_delta_subtracts() {
        let mut a = Histogram::default();
        a.record(3);
        a.record(100);
        let earlier = a.clone();
        a.record(3);
        let d = a.delta(&earlier);
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 3);
        assert_eq!(d.counts[Histogram::bucket_index(3)], 1);
        assert_eq!(d.counts[Histogram::bucket_index(100)], 0);
    }

    #[test]
    fn quantiles_interpolate_from_buckets() {
        let mut h = Histogram::default();
        // 100 observations of exactly 8: the whole mass is in the
        // (4, 8] bucket, so every quantile lands inside it.
        for _ in 0..100 {
            h.record(8);
        }
        for q in [0.5, 0.95, 0.99] {
            let v = h.quantile(q);
            assert!(v > 4.0 && v <= 8.0, "q{q} = {v}");
        }
        // Monotone in q.
        assert!(h.quantile(0.5) <= h.quantile(0.95));
        assert!(h.quantile(0.95) <= h.quantile(0.99));
    }

    #[test]
    fn quantiles_split_across_buckets() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        assert!(h.quantile(0.5) <= 1.0);
        let p99 = h.quantile(0.99);
        assert!(p99 > 512.0 && p99 <= 1024.0, "p99 = {p99}");
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_overflow_bucket_is_finite() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        let p50 = h.quantile(0.5);
        assert!(p50.is_finite() && p50 > 1_048_576.0);
    }

    #[test]
    fn histogram_json_carries_quantiles() {
        let mut h = Histogram::default();
        h.record(8);
        let j = h.to_json();
        assert!(j.get("p50").unwrap().as_f64().unwrap() > 0.0);
        assert!(j.get("p95").is_some() && j.get("p99").is_some());
        assert!(Json::parse(&j.render()).is_ok());
    }

    #[test]
    fn trace_json_shape() {
        let ev = TraceEvent {
            name: "ilp.solve",
            ts_us: 10,
            dur_us: 5,
            tid: 2,
            id: 7,
            parent: 3,
            args: vec![("model", "wisefuse".to_string())],
        };
        let doc = trace_json(&[ev]);
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].get("name").unwrap().as_str(), Some("ilp.solve"));
        assert_eq!(evs[0].get("ph").unwrap().as_str(), Some("X"));
        let args = evs[0].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_i128(), Some(3));
        assert_eq!(args.get("model").unwrap().as_str(), Some("wisefuse"));
        // Round-trips through the strict parser.
        assert!(Json::parse(&doc.render()).is_ok());
    }
}
