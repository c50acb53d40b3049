//! End-to-end observability acceptance for the `wfc` binary: the §11
//! invariant (outputs byte-identical with instrumentation on vs off) and
//! the profiler's two hard guarantees — critical path bounded by wall time
//! and cost attribution reconciling exactly with the `simplex.cells`
//! counter.
//!
//! Every test spawns the real binary via `CARGO_BIN_EXE_wfc`, so each run
//! gets a fresh process and there is no shared obs state to serialize on.

use std::path::PathBuf;
use std::process::{Command, Output};

use wf_harness::json::Json;

fn wfc() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_wfc"));
    // Start from a clean slate: the test runner's own environment must not
    // leak instrumentation into "off" runs.
    cmd.env_remove("WF_TRACE_STREAM")
        .env_remove("WF_OBS_LIMIT")
        .env_remove("WF_CACHE_DIR");
    cmd
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn wfc");
    assert!(
        out.status.success(),
        "wfc failed ({:?}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wf-cli-obs-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn parse_stdout(out: &Output) -> Json {
    Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON on stdout")
}

/// The acceptance gate from the issue: generated code is byte-identical
/// whether or not the streaming sink is recording.
#[test]
fn emit_is_byte_identical_with_instrumentation_on_vs_off() {
    let dir = scratch("emit");
    let plain = run_ok(wfc().args(["emit", "advect"]));

    let instrumented = run_ok(
        wfc()
            .args(["emit", "advect"])
            .env("WF_TRACE_STREAM", dir.join("stream.jsonl")),
    );

    assert_eq!(
        plain.stdout, instrumented.stdout,
        "WF_TRACE_STREAM changed the emitted code"
    );

    // The sink really ran: every line it wrote is one valid JSON object.
    let stream = std::fs::read_to_string(dir.join("stream.jsonl")).unwrap();
    assert!(stream.lines().count() > 0, "stream sink wrote no spans");
    for line in stream.lines() {
        let doc = Json::parse(line).expect("stream line is valid JSON");
        assert!(doc.get("name").is_some(), "span line missing name: {line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed instrumentation knob is a hard usage error, not a
/// silently ignored setting.
#[test]
fn malformed_instrumentation_env_exits_2() {
    for (var, val) in [("WF_TRACE_STREAM", ""), ("WF_OBS_LIMIT", "lots")] {
        let out = wfc()
            .args(["run", "advect"])
            .env(var, val)
            .output()
            .expect("spawn wfc");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{var}={val:?} should be rejected with exit 2"
        );
    }
}

/// The profiler's two invariants on a live catalog benchmark: pool-aware
/// critical path never exceeds wall time, and the attributed cell total
/// equals the `simplex.cells` counter delta exactly.
#[test]
fn profile_reconciles_and_bounds_the_critical_path() {
    let out = run_ok(wfc().args(["profile", "advect", "--json"]));
    let doc = parse_stdout(&out);
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("profile/v1"));

    let wall = doc.get("wall_us").and_then(Json::as_i128).expect("wall_us");
    let cp = doc
        .get("critical_path_us")
        .and_then(Json::as_i128)
        .expect("critical_path_us");
    assert!(wall > 0);
    assert!(cp <= wall, "critical path {cp}us exceeds wall {wall}us");

    let cells = doc
        .get("simplex_cells")
        .and_then(Json::as_i128)
        .expect("simplex_cells");
    let attributed = doc
        .get("attributed_cells")
        .and_then(Json::as_i128)
        .expect("attributed_cells");
    assert!(cells > 0, "profiling a real benchmark does solver work");
    assert_eq!(attributed, cells, "attribution does not reconcile");
    assert_eq!(doc.get("reconciled"), Some(&Json::Bool(true)));
}

/// With timings stripped, the profile is a pure function of the schedule
/// search — two runs produce byte-identical documents (the CI smoke
/// check's `cmp`).
#[test]
fn stripped_profile_is_deterministic_across_runs() {
    let a = run_ok(wfc().args(["profile", "advect", "--strip-timings"]));
    let b = run_ok(wfc().args(["profile", "advect", "--strip-timings"]));
    assert!(!a.stdout.is_empty());
    assert_eq!(
        a.stdout, b.stdout,
        "timing-stripped profile differs between identical runs"
    );
}
