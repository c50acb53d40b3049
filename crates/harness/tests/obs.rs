//! Integration tests for the `obs` switchboard. The registry, event
//! buffer, and decision log are process-global, so every test takes the
//! same lock and resets the world before and after touching it.

use std::sync::Mutex;
use wf_harness::obs::{self, Histogram, HISTOGRAM_BOUNDS};
use wf_harness::pool;

static LOCK: Mutex<()> = Mutex::new(());

/// Serialize and sandbox one test's use of the global switchboard.
fn exclusive(f: impl FnOnce()) {
    let _guard = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let reset = || {
        obs::set_enabled(0);
        let _ = obs::take_events();
        let _ = obs::drain_decisions();
        let _ = obs::stream_close();
        obs::reset_metrics();
        obs::set_buffer_limit(obs::DEFAULT_BUFFER_LIMIT);
        wf_harness::attr::reset();
    };
    let prev = obs::enabled();
    reset();
    f();
    reset();
    obs::set_enabled(prev);
}

#[test]
fn span_nesting_within_a_thread() {
    exclusive(|| {
        obs::set_enabled(obs::TRACE);
        {
            let mut outer = wf_harness::span!("outer", "k" => "v");
            outer.arg("k2", "v2");
            let _inner = wf_harness::span!("inner");
        }
        let events = obs::take_events();
        assert_eq!(events.len(), 2);
        // Inner drops (and records) first.
        let inner = &events[0];
        let outer = &events[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.parent, outer.id, "inner must nest under outer");
        assert_eq!(outer.parent, 0, "outer is a root span");
        assert_eq!(
            outer.args,
            vec![("k", "v".to_string()), ("k2", "v2".to_string())]
        );
    });
}

#[test]
fn spans_nest_across_pool_workers() {
    exclusive(|| {
        obs::set_enabled(obs::TRACE);
        {
            let _submit = wf_harness::span!("submit");
            // The pool captures the submitting span's ctx and re-enters it
            // in every worker, so worker spans nest under "submit".
            let workers = pool::ThreadPool::new(4);
            let _ = workers.try_map((0..8u32).collect::<Vec<u32>>(), |i| {
                let _s = wf_harness::span!("job");
                i * 2
            });
            // Borrowed fork/join propagates the same way (its jobs may run
            // on the caller, so only the nesting is asserted below).
            let base = [1u32; 4];
            let _ = workers.try_scope(4, base.len(), |i| {
                let _s = wf_harness::span!("scope-job");
                base[i] + 1
            });
        }
        let events = obs::take_events();
        let submit = events
            .iter()
            .find(|e| e.name == "submit")
            .expect("submit span recorded");
        let jobs: Vec<_> = events.iter().filter(|e| e.name == "job").collect();
        assert_eq!(jobs.len(), 8);
        for j in &jobs {
            assert_eq!(
                j.parent, submit.id,
                "worker span must nest under the submitting span"
            );
        }
        // At least one job ran on a different thread than the submitter.
        assert!(
            jobs.iter().any(|j| j.tid != submit.tid),
            "expected cross-thread nesting with 4 workers and 8 jobs"
        );
        let scope_jobs: Vec<_> = events.iter().filter(|e| e.name == "scope-job").collect();
        assert_eq!(scope_jobs.len(), 4);
        for j in &scope_jobs {
            assert_eq!(
                j.parent, submit.id,
                "try_scope job span must nest under the forking span"
            );
        }
    });
}

#[test]
fn histogram_buckets_via_registry() {
    exclusive(|| {
        obs::set_enabled(obs::METRICS);
        // One observation per boundary value, plus overflow.
        for &b in &HISTOGRAM_BOUNDS {
            obs::observe("t.h", b);
        }
        obs::observe("t.h", HISTOGRAM_BOUNDS[HISTOGRAM_BOUNDS.len() - 1] + 1);
        let snap = obs::metrics();
        let h = snap.histogram("t.h").expect("histogram exists");
        assert_eq!(h.count, HISTOGRAM_BOUNDS.len() as u64 + 1);
        for (i, _) in HISTOGRAM_BOUNDS.iter().enumerate() {
            assert_eq!(h.counts[i], 1, "bucket {i} holds exactly its bound");
        }
        assert_eq!(h.counts[HISTOGRAM_BOUNDS.len()], 1, "overflow bucket");
        // Boundary semantics: 2^k lands in bucket k+? — spot check edges.
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(1_048_576), 20);
        assert_eq!(Histogram::bucket_index(1_048_577), 21);
    });
}

#[test]
fn counters_and_deltas() {
    exclusive(|| {
        obs::set_enabled(obs::METRICS);
        obs::add("t.c", 3);
        let earlier = obs::metrics();
        obs::add("t.c", 4);
        obs::add("t.other", 1);
        let now = obs::metrics();
        assert_eq!(now.counter("t.c"), 7);
        let d = now.delta(&earlier);
        assert_eq!(d.counter("t.c"), 4);
        assert_eq!(d.counter("t.other"), 1);
        // Unmoved counters are dropped from the delta entirely.
        obs::add("t.frozen", 1);
        let e2 = obs::metrics();
        let d2 = obs::metrics().delta(&e2);
        assert!(!d2.counters.contains_key("t.frozen"));
    });
}

#[test]
fn disabled_mode_records_nothing() {
    exclusive(|| {
        obs::set_enabled(0);
        {
            let mut s = wf_harness::span!("ghost", "k" => "v");
            s.arg("k2", "v2");
        }
        let _ctx = obs::enter_ctx(obs::current_ctx());
        obs::add("ghost.c", 5);
        obs::observe("ghost.h", 5);
        let _scope = obs::scope("ghost");
        obs::decision("ghost.kind", "never stored".to_string(), Vec::new());
        assert!(obs::take_events().is_empty(), "no spans when off");
        let snap = obs::metrics();
        assert_eq!(snap.counter("ghost.c"), 0);
        assert!(snap.histogram("ghost.h").is_none());
        assert!(obs::drain_decisions().is_empty(), "no decisions when off");
    });
}

#[test]
fn disabled_span_guard_does_not_allocate_args() {
    exclusive(|| {
        obs::set_enabled(0);
        let mut s = obs::span("ghost");
        // `arg` on an inactive guard must not buffer anything — the whole
        // point of the flag check is zero cost when off.
        s.arg("k", "an expensive string".to_string());
        drop(s);
        obs::set_enabled(obs::TRACE);
        let _ = obs::take_events();
        obs::set_enabled(0);
    });
}

#[test]
fn decision_log_orders_by_scope_then_seq() {
    exclusive(|| {
        obs::set_enabled(obs::DECISIONS);
        {
            let _s = obs::scope("zeta");
            obs::decision("k", "z0".to_string(), Vec::new());
            obs::decision("k", "z1".to_string(), Vec::new());
        }
        {
            let _s = obs::scope("alpha");
            obs::decision("k", "a0".to_string(), Vec::new());
        }
        let ds = obs::drain_decisions();
        let order: Vec<(&str, u64, &str)> = ds
            .iter()
            .map(|d| (d.scope.as_str(), d.seq, d.summary.as_str()))
            .collect();
        assert_eq!(
            order,
            vec![("alpha", 0, "a0"), ("zeta", 0, "z0"), ("zeta", 1, "z1")]
        );
        // Draining resets per-scope sequence numbers.
        {
            let _s = obs::scope("zeta");
            obs::decision("k", "fresh".to_string(), Vec::new());
        }
        assert_eq!(obs::drain_decisions()[0].seq, 0);
    });
}

#[test]
fn trace_json_round_trips_through_parser() {
    exclusive(|| {
        obs::set_enabled(obs::TRACE | obs::METRICS);
        obs::add("t.c", 1);
        {
            let _s = wf_harness::span!("phase", "model" => "wisefuse");
        }
        let doc = obs::trace_json(&obs::take_events());
        let text = doc.render();
        let parsed = wf_harness::json::Json::parse(&text).expect("valid JSON");
        let evs = parsed
            .get("traceEvents")
            .and_then(wf_harness::json::Json::as_arr)
            .expect("traceEvents array");
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].get("name").unwrap().as_str(), Some("phase"));
        assert!(parsed.get("metrics").is_some());
    });
}

#[test]
fn buffer_cap_drops_spans_and_counts_them() {
    exclusive(|| {
        obs::set_enabled(obs::TRACE | obs::METRICS);
        obs::set_buffer_limit(4);
        let d0 = obs::dropped();
        for _ in 0..10 {
            let _s = wf_harness::span!("burst");
        }
        let events = obs::take_events();
        assert_eq!(events.len(), 4, "buffer is capped at the limit");
        assert_eq!(obs::dropped() - d0, 6, "overflow is counted, not stored");
        assert_eq!(
            obs::metrics().counter("obs.dropped"),
            6,
            "drops surface as a counter"
        );
    });
}

#[test]
fn decision_log_respects_the_buffer_cap() {
    exclusive(|| {
        obs::set_enabled(obs::DECISIONS | obs::METRICS);
        obs::set_buffer_limit(2);
        let d0 = obs::dropped();
        let _scope = obs::scope("cap");
        for i in 0..5 {
            obs::decision("k", format!("d{i}"), Vec::new());
        }
        assert_eq!(obs::drain_decisions().len(), 2);
        assert_eq!(obs::dropped() - d0, 3);
    });
}

#[test]
fn stream_sink_writes_jsonl_and_bypasses_memory() {
    exclusive(|| {
        obs::set_enabled(obs::TRACE);
        let dir = std::env::temp_dir().join(format!("wf-obs-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("stream.jsonl");
        obs::stream_open(path.to_str().unwrap()).unwrap();
        {
            let _outer = wf_harness::span!("s-outer");
            let _inner = wf_harness::span!("s-inner");
        }
        let lines = obs::stream_close().unwrap().expect("stream was open");
        assert_eq!(lines, 2);
        assert!(
            obs::take_events().is_empty(),
            "streamed spans must not also buffer in memory"
        );
        let content = std::fs::read_to_string(&path).unwrap();
        let names: Vec<String> = content
            .lines()
            .map(|line| {
                let j = wf_harness::json::Json::parse(line).expect("each line is valid JSON");
                j.get("name").unwrap().as_str().unwrap().to_string()
            })
            .collect();
        // Spans close innermost-first.
        assert_eq!(names, ["s-inner", "s-outer"]);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn stream_sink_is_bounded() {
    exclusive(|| {
        obs::set_enabled(obs::TRACE);
        // max lines = 64 x the in-memory cap.
        obs::set_buffer_limit(1);
        let dir = std::env::temp_dir().join(format!("wf-obs-sbound-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("stream.jsonl");
        obs::stream_open(path.to_str().unwrap()).unwrap();
        let d0 = obs::dropped();
        for _ in 0..70 {
            let _s = wf_harness::span!("flood");
        }
        let lines = obs::stream_close().unwrap().expect("stream was open");
        assert_eq!(lines, 64, "stream stops at 64x the buffer limit");
        assert_eq!(obs::dropped() - d0, 6, "overflow past the bound is counted");
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn pool_panic_unwinds_span_stack_cleanly() {
    exclusive(|| {
        obs::set_enabled(obs::TRACE);
        let workers = pool::ThreadPool::new(2);
        {
            let _submit = wf_harness::span!("submit-panic");
            // One job panics while holding an open span inside the
            // propagated ctx; the pool contains it per-slot.
            let slots = workers.try_scope(2, 4, |i| {
                let _s = wf_harness::span!("doomed");
                assert!(i != 2, "boom");
                i
            });
            assert!(slots.iter().any(Result::is_err), "the panic surfaced");
        }
        let _ = obs::take_events();
        // A fresh scope on the same workers must start from a clean span
        // stack: no orphan ctx from the panicked job may leak in.
        let slots = workers.try_scope(2, 4, |i| {
            let _s = wf_harness::span!("clean");
            i
        });
        assert!(slots.iter().all(Result::is_ok));
        let events = obs::take_events();
        let clean: Vec<_> = events.iter().filter(|e| e.name == "clean").collect();
        assert_eq!(clean.len(), 4);
        for e in clean {
            assert_eq!(
                e.parent, 0,
                "span stack must unwind past the panic: no stale parent ctx"
            );
        }
    });
}
