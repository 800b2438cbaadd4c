//! `agree A.json B.json`: is B no worse than A?
//!
//! Compares two result files metric by metric against the bounds in the
//! root `BENCHMARK.json`. It is how a pair of runs of one commit shows
//! run-to-run agreement (run it both ways round) and how a later change
//! reads its before/after pair.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::catalog::{Better, END_TO_END};
use crate::json::Value;
use crate::report::RunReport;

/// `end_to_end[].bound` of `BENCHMARK.json`, by metric name.
pub fn bounds_of(benchmark_json: &Value) -> Result<BTreeMap<String, f64>, String> {
    let list = benchmark_json
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err("BENCHMARK.json: an end_to_end entry lacks name or bound".to_string()),
            }
        })
        .collect()
}

/// The comparison, as text, and whether B agrees with A.
///
/// B *disagrees* when an end-to-end metric is worse than A's by more
/// than its bound, when a workload of A is missing from B, or — if both
/// files were taken with one seed — when a metric that must repeat
/// exactly, or a `sim_digest`, differs at all.
pub fn compare(a: &RunReport, b: &RunReport, bounds: &BTreeMap<String, f64>) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let same_seed = a.seed == b.seed && !a.quick && !b.quick;
    let _ = writeln!(
        out,
        "A: seed {} on {} core(s), {}\nB: seed {} on {} core(s), {}",
        a.seed, a.cores, a.rustc, b.seed, b.cores, b.rustc
    );
    if !same_seed {
        let _ = writeln!(
            out,
            "seeds differ: exact metrics are judged by their bounds and digests are not compared"
        );
    }
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            let _ = writeln!(out, "\n== {} ==  MISSING from B", wa.name);
            ok = false;
            continue;
        };
        let digest = if !same_seed {
            "not compared"
        } else if wa.sim_digest == wb.sim_digest {
            "equal"
        } else {
            ok = false;
            "DIFFERENT"
        };
        let _ = writeln!(
            out,
            "\n== {} ==  sim_digest {digest} ({:016x} / {:016x})",
            wa.name, wa.sim_digest, wb.sim_digest
        );
        let _ = writeln!(
            out,
            "  {:<20} {:>15} {:>44} {:>15} {:>44} {:>9} {:>7}  verdict",
            "metric", "A", "A [q1, median, q3] n", "B", "B [q1, median, q3] n", "B vs A", "bound"
        );
        for m in &END_TO_END {
            let find = |w: &crate::report::WorkloadReport| {
                w.end_to_end
                    .iter()
                    .find(|(n, _)| n == m.name)
                    .map(|(_, s)| *s)
            };
            let (Some(sa), Some(sb)) = (find(wa), find(wb)) else {
                continue;
            };
            // Positive = B is worse, as a share of A.
            let worse = match m.better {
                Better::Lower => (sb.value - sa.value) / sa.value.abs(),
                Better::Higher => (sa.value - sb.value) / sa.value.abs(),
            };
            let bound = bounds.get(m.name).copied().unwrap_or(0.0);
            let verdict = if m.exact && same_seed {
                if sa.value == sb.value {
                    "equal"
                } else {
                    ok = false;
                    "DIFFERS (must be equal)"
                }
            } else if worse <= bound {
                "within bound"
            } else {
                ok = false;
                "OUTSIDE BOUND"
            };
            let quartiles = |s: crate::measure::Stat| {
                format!("[{:.6}, {:.6}, {:.6}] {}", s.q1, s.median, s.q3, s.n)
            };
            let _ = writeln!(
                out,
                "  {:<20} {:>15.6} {:>44} {:>15.6} {:>44} {:>+8.2}% {:>6.1}%  {verdict}",
                m.name,
                sa.value,
                quartiles(sa),
                sb.value,
                quartiles(sb),
                0.0 - worse * 100.0,
                bound * 100.0
            );
        }
    }
    let _ = writeln!(
        out,
        "\n(B vs A: positive is better, negative is worse, whichever way the metric runs)\n{}",
        if ok { "AGREE" } else { "DISAGREE" }
    );
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Stat;
    use crate::report::WorkloadReport;

    fn report(seed: u64, ops_per_s: f64, allocs: f64, digest: u64) -> RunReport {
        RunReport {
            seed,
            seconds: 10.0,
            quick: false,
            cores: 2,
            rustc: "rustc".into(),
            kits: vec![],
            workloads: vec![WorkloadReport {
                name: "msg_mesh".into(),
                sim_digest: digest,
                ops: 100,
                attempted: 100,
                failed: 0,
                failures: vec![],
                timed_s: vec![],
                traced_reps: 0,
                end_to_end: vec![
                    ("ops_per_s".into(), Stat::exact(ops_per_s)),
                    ("allocs_per_op".into(), Stat::exact(allocs)),
                ],
                per_layer: vec![],
            }],
        }
    }

    fn bounds() -> BTreeMap<String, f64> {
        [
            ("ops_per_s".to_string(), 0.10),
            ("allocs_per_op".to_string(), 0.01),
        ]
        .into()
    }

    #[test]
    fn within_bound_agrees_either_way_round() {
        let a = report(1, 1000.0, 30.0, 7);
        let b = report(1, 950.0, 30.0, 7);
        assert!(compare(&a, &b, &bounds()).1);
        assert!(compare(&b, &a, &bounds()).1);
    }

    #[test]
    fn worse_beyond_the_bound_disagrees_but_better_does_not() {
        let a = report(1, 1000.0, 30.0, 7);
        let slow = report(1, 880.0, 30.0, 7);
        assert!(!compare(&a, &slow, &bounds()).1, "12 % slower");
        assert!(
            compare(&slow, &a, &bounds()).1,
            "faster is never a regression"
        );
    }

    #[test]
    fn exact_metrics_and_digests_must_be_equal_on_one_seed() {
        let a = report(1, 1000.0, 30.0, 7);
        assert!(!compare(&a, &report(1, 1000.0, 30.1, 7), &bounds()).1);
        assert!(
            !compare(&a, &report(1, 1000.0, 29.9, 7), &bounds()).1,
            "even better differs"
        );
        assert!(
            !compare(&a, &report(1, 1000.0, 30.0, 8), &bounds()).1,
            "digest differs"
        );
        // Across seeds the bound decides and digests are not compared.
        assert!(compare(&a, &report(2, 1000.0, 30.1, 8), &bounds()).1);
        assert!(!compare(&a, &report(2, 1000.0, 31.0, 8), &bounds()).1);
    }

    #[test]
    fn a_missing_workload_disagrees() {
        let a = report(1, 1000.0, 30.0, 7);
        let mut b = a.clone();
        b.workloads.clear();
        assert!(!compare(&a, &b, &bounds()).1);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let doc = crate::json::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        assert_eq!(bounds_of(&doc).unwrap()["setup_s"], 0.25);
        assert!(bounds_of(&crate::json::parse("{}").unwrap()).is_err());
    }
}
