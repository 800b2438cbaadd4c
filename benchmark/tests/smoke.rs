//! End-to-end smoke test: the real binary, every workload at one tiny
//! repetition (`--quick`), every named metric present and finite.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use demos_benchmark::catalog::{per_layer, COUNTERS, END_TO_END, KITS, TRACED, WORKLOADS};
use demos_benchmark::json::{self, Value};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_demos-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn last_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(stdout.lines().last().expect("some output")).expect("last line is JSON")
}

fn finite(v: &Value, what: &str) -> f64 {
    let x = v.get("value").and_then(Value::as_f64).unwrap_or_else(|| {
        panic!("{what}: no numeric value (NaN and infinity are written as null)")
    });
    assert!(x.is_finite(), "{what} = {x}");
    x
}

#[test]
fn quick_run_reports_every_named_metric() {
    let out_file = tmp("smoke-full.json");
    let out = bench(&["run", "--quick", "--out", out_file.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "exit {:?}\n{}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = json::parse(&std::fs::read_to_string(&out_file).unwrap()).unwrap();
    assert!(doc.get("cores").and_then(Value::as_f64).unwrap() >= 1.0);
    assert!(doc
        .get("rustc")
        .and_then(Value::as_str)
        .unwrap()
        .starts_with("rustc"));

    let kits = doc.get("kits").unwrap();
    for k in &KITS {
        let v = finite(
            kits.get(k.name).unwrap_or_else(|| panic!("kit {}", k.name)),
            k.name,
        );
        // A count may legitimately be 0; a time, rate or ratio may not.
        assert!(v > 0.0 || k.unit == "count", "{} = {v}", k.name);
    }
    let workloads = doc.get("workloads").unwrap();
    for w in &WORKLOADS {
        let r = workloads
            .get(w.name)
            .unwrap_or_else(|| panic!("workload {}", w.name));
        assert_eq!(
            r.get("correct").and_then(Value::as_bool),
            Some(true),
            "{}",
            w.name
        );
        assert_eq!(
            r.get("failed").and_then(Value::as_f64),
            Some(0.0),
            "{}",
            w.name
        );
        assert!(r.get("sim_digest").and_then(Value::as_str).unwrap().len() == 16);
        for m in &END_TO_END {
            let what = format!("{}/{}", w.name, m.name);
            let v = finite(
                r.get("end_to_end").unwrap().get(m.name).expect(&what),
                &what,
            );
            assert!(v > 0.0, "{what} = {v}: end-to-end metrics are never 0");
        }
        for m in COUNTERS.iter().chain(&TRACED) {
            let what = format!("{}/{}", w.name, m.name);
            finite(r.get("per_layer").unwrap().get(m.name).expect(&what), &what);
        }

        // The traced run left its spans behind: every parent resolves
        // and every repetition has exactly one root.
        let trace =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{}.jsonl", w.name));
        let spans: Vec<Value> = std::fs::read_to_string(&trace)
            .unwrap_or_else(|e| panic!("{}: {e}", trace.display()))
            .lines()
            .map(|l| json::parse(l).unwrap())
            .collect();
        assert!(!spans.is_empty(), "{}", w.name);
        let ids: Vec<f64> = spans
            .iter()
            .map(|s| s.get("id").and_then(Value::as_f64).unwrap())
            .collect();
        let mut roots = 0;
        for s in &spans {
            assert_eq!(s.get("workload").and_then(Value::as_str), Some(w.name));
            match s.get("parent").unwrap() {
                Value::Null => roots += 1,
                p => assert!(
                    ids.contains(&p.as_f64().unwrap()),
                    "{}: dangling parent",
                    w.name
                ),
            }
        }
        assert_eq!(roots, 1, "{}: one traced repetition when quick", w.name);
        let shares: f64 = TRACED
            .iter()
            .filter(|m| m.name.starts_with("span."))
            .map(|m| finite(r.get("per_layer").unwrap().get(m.name).unwrap(), m.name))
            .sum();
        assert!(
            (shares - 1.0).abs() <= 0.01,
            "{}: span shares sum to {shares}",
            w.name
        );
    }

    // A result file agrees with itself, both ways round by symmetry.
    let same = bench(&[
        "agree",
        out_file.to_str().unwrap(),
        out_file.to_str().unwrap(),
    ]);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    assert!(String::from_utf8_lossy(&same.stdout).contains("AGREE"));
}

/// What a driver sees: `--workload W --seed N --seconds S --trace 0|1`,
/// and as the last line one object with exactly four keys whose metrics
/// are the end-to-end ones (`--trace 0`) or the per-layer ones (`1`).
#[test]
fn driver_invocation_prints_the_contract_line() {
    for (trace, out_name) in [("0", "smoke-e2e.json"), ("1", "smoke-layers.json")] {
        let out_file = tmp(out_name);
        let out = bench(&[
            "run",
            "--quick",
            "--workload",
            "migrate_churn",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--out",
            out_file.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = last_line(&out);
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
        let metrics = line.get("metrics").and_then(Value::as_obj).unwrap();
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = if trace == "0" {
            END_TO_END.iter().map(|m| m.name).collect()
        } else {
            per_layer().map(|m| m.name).collect()
        };
        assert_eq!(got, want, "--trace {trace}");
        for (name, m) in metrics {
            finite(m, name);
            assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
        }
    }
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [
        &["run", "--workload", "no_such_workload"][..],
        &["run", "--seed"],
        &["run", "--frobnicate"],
        &["agree", "only-one.json"],
        &[],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
