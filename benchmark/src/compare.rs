//! `wf-benchmark compare A.json B.json`: two set files, one verdict per
//! workload × end-to-end metric. A is the base of every ratio.

use crate::spec::{Metric, Workload, END_TO_END};
use crate::stats::{median, spread};
use wf_harness::json::Json;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A spread is wider than the bound, and B does not beat A run for run.
    Unresolved,
}

pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    if metric.better.worse_by(median(a), median(b), metric.bound) {
        return Verdict::Worse;
    }
    let every_b_beats_every_a = a
        .iter()
        .all(|&x| b.iter().all(|&y| metric.better.worse_by(y, x, 0.0)));
    if spread(a).max(spread(b)) > metric.bound && !every_b_beats_every_a {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get(metric))
        .and_then(Json::as_arr)
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("wf-benchmark/set/v1") => Ok(doc),
        _ => Err(format!("{path}: not a wf-benchmark set file")),
    }
}

/// Prints the table; `Ok(true)` when no metric is worse.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("A = {path_a}\nB = {path_b}   (ratio = B / A, base A)");
    println!(
        "{:<14} {:<22} {:>13} {:>13} {:>8} {:>6} {:>9} {:>9}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "bound", "spread A", "spread B"
    );
    let mut none_worse = true;
    for w in Workload::ALL {
        for m in &END_TO_END {
            let (va, vb) = (values(&a, w.name(), m.name), values(&b, w.name(), m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{:<14} {:<22} missing from one set", w.name(), m.name);
                continue;
            }
            let v = verdict(m, &va, &vb);
            none_worse &= v != Verdict::Worse;
            println!(
                "{:<14} {:<22} {:>13.6} {:>13.6} {:>8.4} {:>5.0}% {:>8.2}% {:>8.2}%  {}",
                w.name(),
                m.name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                m.bound * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Better;

    const LOWER_10: Metric = Metric {
        name: "t",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    };

    #[test]
    fn verdicts() {
        let a = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(
            verdict(&LOWER_10, &a, &[1.05, 1.04, 1.06, 1.05]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&LOWER_10, &a, &[1.2, 1.21, 1.19, 1.2]),
            Verdict::Worse
        );
        // Wide spread, medians close: cannot tell.
        let noisy = [0.7, 1.3, 1.0, 0.8, 1.25];
        assert_eq!(verdict(&LOWER_10, &a, &noisy), Verdict::Unresolved);
        // Wide spread, but every B run beats every A run.
        assert_eq!(
            verdict(&LOWER_10, &[2.0, 3.0, 2.5, 2.2], &[0.5, 1.0, 0.7, 0.6]),
            Verdict::Ok
        );
        let higher = Metric {
            better: Better::Higher,
            ..LOWER_10
        };
        assert_eq!(verdict(&higher, &[2.0, 2.0], &[1.7, 1.7]), Verdict::Worse);
        assert_eq!(verdict(&higher, &[2.0, 2.0], &[1.9, 1.9]), Verdict::Ok);
    }
}
