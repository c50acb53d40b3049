//! Where the benchmark lives on disk, and what host it ran on.

use std::path::{Path, PathBuf};
use std::process::Command;
use wf_harness::json::Json;
use wf_harness::Fnv64;

/// The `benchmark/` directory: `benchmark/run` passes it at run time, and
/// a bare `cargo run` falls back to where the package was built.
pub fn home() -> PathBuf {
    std::env::var_os("WF_BENCHMARK_HOME")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

pub fn results_dir() -> PathBuf {
    home().join("results")
}

/// The spill directory `catalog_warm` and `kernels` fill once and read
/// afterwards. Schedules are build products of the code under test, so the
/// directory is keyed by the benchmark executable (which links every
/// crate statically): a rebuilt compiler never reads an older build's
/// schedules. Directories of other builds are removed.
pub fn shared_spill_dir() -> std::io::Result<PathBuf> {
    let exe = std::fs::read(std::env::current_exe()?)?;
    let name = format!("spill-{:016x}", Fnv64::new().update(&exe).digest());
    let results = results_dir();
    std::fs::create_dir_all(&results)?;
    for entry in std::fs::read_dir(&results)?.flatten() {
        let other = entry.file_name();
        let other = other.to_string_lossy();
        if other.starts_with("spill-") && *other != name {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
    Ok(results.join(name))
}

/// Peak resident set of this process in MB (`VmHWM`), 0.0 off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a timing depends on besides the code: cores, compilers, build.
pub fn fingerprint() -> Json {
    let home = home();
    Json::obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, usize::from)),
        ),
        ("rustc", Json::str(first_line("rustc", &["-V"], &home))),
        ("cc", Json::str(first_line("cc", &["--version"], &home))),
        (
            "opt_level",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "git_commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"], &home)),
        ),
    ])
}

/// A file-name-safe digest of the parts of the fingerprint that decide
/// whether two runs are comparable (not the commit).
pub fn fingerprint_slug(fp: &Json) -> String {
    let field = |k: &str| fp.get(k).and_then(Json::as_str).unwrap_or("");
    // `rustc 1.95.0 (…)` names its version second, `cc (…) 12.2.0` last.
    let rustc = field("rustc")
        .split_whitespace()
        .nth(1)
        .unwrap_or("unknown");
    let cc = field("cc").split_whitespace().last().unwrap_or("unknown");
    let slug = format!(
        "{}core-rustc{rustc}-cc{cc}-{}",
        fp.get("nproc").and_then(Json::as_i128).unwrap_or(0),
        field("opt_level")
    );
    slug.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || "._-".contains(c) {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slug_keeps_versions_only() {
        let fp = Json::obj([
            ("nproc", Json::from(2usize)),
            ("rustc", Json::str("rustc 1.95.0 (59807616e 2026-04-14)")),
            ("cc", Json::str("cc (Debian 12.2.0-14+deb12u1) 12.2.0")),
            ("opt_level", Json::str("release")),
            ("git_commit", Json::str("abc")),
        ]);
        assert_eq!(fingerprint_slug(&fp), "2core-rustc1.95.0-cc12.2.0-release");
    }
}
