//! The benchmark's own spans, recorded around calls into the crates.
//!
//! Every timed call goes through [`Tracer::time`], traced or not: the
//! untraced run needs the same durations for its per-op rows. Only a
//! traced run keeps the spans (name, start, end, parent, op id) in memory
//! and writes them out when the workload ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;
use wf_harness::json::Json;

/// One closed interval around a call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `deps.analyze`.
    pub name: &'static str,
    /// Sub-key (a fusion model's name) or `""`.
    pub tag: &'static str,
    /// The operation this span belongs to.
    pub op: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start and end, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// `name` or `name.tag`: the key per-layer metrics are summed under.
    pub fn key(&self) -> String {
        if self.tag.is_empty() {
            self.name.to_string()
        } else {
            format!("{}.{}", self.name, self.tag)
        }
    }
}

pub struct Tracer {
    keep: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(keep: bool) -> Tracer {
        Tracer {
            keep,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Run `f`, returning its result and its wall time in seconds; a
    /// tracer that keeps spans also records the interval under the span
    /// that is open on this thread.
    pub fn time<R>(
        &self,
        name: &'static str,
        tag: &'static str,
        op: u32,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        if !self.keep {
            let t0 = Instant::now();
            let r = f();
            return (r, t0.elapsed().as_secs_f64());
        }
        let parent = self.stack.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                tag,
                op,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let start = self.epoch.elapsed();
        let r = f();
        let end = self.epoch.elapsed();
        self.stack.borrow_mut().pop();
        let span = &mut self.spans.borrow_mut()[idx];
        span.start_ns = start.as_nanos() as u64;
        span.end_ns = end.as_nanos() as u64;
        (r, (end - start).as_secs_f64())
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one parent never overlap here — the
/// benchmark is single-threaded).
pub fn self_seconds(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.seconds();
        }
    }
    own
}

/// Inclusive seconds summed per span key.
pub fn totals_by_key(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.key()).or_insert(0.0) += s.seconds();
    }
    out
}

/// Share (percent) of the `root` spans' wall time that no child span
/// covers: what the trace failed to account for.
pub fn unaccounted_pct(spans: &[Span], root: &str) -> f64 {
    let own = self_seconds(spans);
    let (mut total, mut uncovered) = (0.0, 0.0);
    for (s, own_s) in spans.iter().zip(&own) {
        if s.name == root {
            total += s.seconds();
            uncovered += own_s;
        }
    }
    if total == 0.0 {
        0.0
    } else {
        uncovered / total * 100.0
    }
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", Json::from(i)),
                    ("name", Json::str(s.key())),
                    ("op", Json::from(u64::from(s.op))),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            tag: "",
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(1), 20, 30),
            span("c", Some(0), 60, 90),
        ];
        let own = self_seconds(&spans);
        let ns = |x: f64| (x * 1e9).round() as i64;
        assert_eq!(ns(own[0]), 30);
        assert_eq!(ns(own[1]), 30);
        assert_eq!(ns(own[2]), 10);
        assert_eq!(ns(own[3]), 30);
        assert!((unaccounted_pct(&spans, "op") - 30.0).abs() < 1e-9);
    }

    #[test]
    fn tracer_nests_and_untraced_tracer_keeps_nothing() {
        let t = Tracer::new(true);
        let ((), outer) = t.time("op", "", 7, || {
            t.time("inner", "wisefuse", 7, || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].key(), "inner.wisefuse");
        assert!(spans[0].seconds() >= spans[1].seconds());
        assert!((spans[0].seconds() - outer).abs() < 1e-12);
        let off = Tracer::new(false);
        let (v, secs) = off.time("op", "", 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0 && off.spans().is_empty());
    }
}
