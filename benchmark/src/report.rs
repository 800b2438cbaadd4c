//! A run's results: the result file `agree` reads back, the table a
//! person reads, and the one-line summary a driver reads.

use std::fmt::Write as _;

use crate::catalog::{per_layer_unit, END_TO_END};
use crate::json::Value;
use crate::measure::Stat;

/// Everything measured about one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadReport {
    /// The workload's fixed name.
    pub name: String,
    /// Hash over every simulated statistic; equal across repetitions.
    pub sim_digest: u64,
    /// Operations completed by one repetition.
    pub ops: u64,
    /// Operations attempted by one repetition.
    pub attempted: u64,
    /// Operations failed in one repetition.
    pub failed: u64,
    /// Correctness and bypass checks that failed, in words.
    pub failures: Vec<String>,
    /// Seconds in the timed region of every timed repetition, in order
    /// (empty: pass not run): the samples behind the medians.
    pub timed_s: Vec<f64>,
    /// Traced repetitions behind the span shares (0: pass not run).
    pub traced_reps: usize,
    /// End-to-end metrics, in catalogue order (empty: pass not run).
    pub end_to_end: Vec<(String, Stat)>,
    /// Counters, span shares, overhead and attribution, in catalogue
    /// order (empty: pass not run). Kits are kept once per run.
    pub per_layer: Vec<(String, f64)>,
}

impl WorkloadReport {
    /// Every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }
}

/// One invocation of `run`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--quick`: tiny repetitions, numbers mean nothing.
    pub quick: bool,
    /// Cores available to the process when it ran.
    pub cores: usize,
    /// `rustc -V` of the compiler that built the binary.
    pub rustc: String,
    /// Kit metrics, in catalogue order (empty: kits not run).
    pub kits: Vec<(String, f64)>,
    /// One report per workload run, in run order.
    pub workloads: Vec<WorkloadReport>,
}

fn unit_of_end_to_end(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

fn plain_metric(name: &str, value: f64) -> Value {
    Value::obj()
        .with("value", value)
        .with("unit", per_layer_unit(name).unwrap_or(""))
}

impl RunReport {
    /// Every workload correct.
    pub fn correct(&self) -> bool {
        self.workloads.iter().all(WorkloadReport::correct)
    }

    /// The result file.
    pub fn to_json(&self) -> Value {
        let mut kits = Value::obj();
        for (name, v) in &self.kits {
            kits.set(name, plain_metric(name, *v));
        }
        let mut workloads = Value::obj();
        for w in &self.workloads {
            let mut e2e = Value::obj();
            for (name, s) in &w.end_to_end {
                e2e.set(
                    name,
                    Value::obj()
                        .with("value", s.value)
                        .with("unit", unit_of_end_to_end(name))
                        .with("q1", s.q1)
                        .with("median", s.median)
                        .with("q3", s.q3)
                        .with("n", s.n),
                );
            }
            let mut layers = Value::obj();
            for (name, v) in &w.per_layer {
                layers.set(name, plain_metric(name, *v));
            }
            let failures: Vec<Value> = w.failures.iter().map(|f| f.as_str().into()).collect();
            workloads.set(
                &w.name,
                Value::obj()
                    .with("sim_digest", format!("{:016x}", w.sim_digest))
                    .with("correct", w.correct())
                    .with("ops", w.ops)
                    .with("attempted", w.attempted)
                    .with("failed", w.failed)
                    .with("failures", failures)
                    .with(
                        "timed_s",
                        w.timed_s.iter().map(|&s| Value::Num(s)).collect::<Vec<_>>(),
                    )
                    .with("traced_reps", w.traced_reps)
                    .with("end_to_end", e2e)
                    .with("per_layer", layers),
            );
        }
        Value::obj()
            .with("benchmark", "demos-mp host-time ledger")
            .with("seed", self.seed)
            .with("seconds", self.seconds)
            .with("quick", self.quick)
            .with("cores", self.cores)
            .with("rustc", self.rustc.as_str())
            .with("kits", kits)
            .with("workloads", workloads)
    }

    /// Read a result file back.
    pub fn from_json(doc: &Value) -> Result<RunReport, String> {
        let num = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("result file: missing number `{k}`"))
        };
        let fields = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_obj)
                .map(<[_]>::to_vec)
                .ok_or_else(|| format!("result file: missing object `{k}`"))
        };
        let plain = |v: &Value, k: &str| -> Result<Vec<(String, f64)>, String> {
            fields(v, k)?
                .into_iter()
                .map(|(name, m)| Ok((name, num(&m, "value")?)))
                .collect()
        };
        let mut workloads = Vec::new();
        for (name, w) in fields(doc, "workloads")? {
            let digest = w
                .get("sim_digest")
                .and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("result file: {name}: bad sim_digest"))?;
            let end_to_end = fields(&w, "end_to_end")?
                .into_iter()
                .map(|(metric, m)| {
                    let stat = Stat {
                        value: num(&m, "value")?,
                        q1: num(&m, "q1")?,
                        median: num(&m, "median")?,
                        q3: num(&m, "q3")?,
                        n: num(&m, "n")? as usize,
                    };
                    Ok((metric, stat))
                })
                .collect::<Result<_, String>>()?;
            let failures = w
                .get("failures")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect();
            workloads.push(WorkloadReport {
                sim_digest: digest,
                ops: num(&w, "ops")? as u64,
                attempted: num(&w, "attempted")? as u64,
                failed: num(&w, "failed")? as u64,
                failures,
                timed_s: w
                    .get("timed_s")
                    .and_then(Value::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Value::as_f64)
                    .collect(),
                traced_reps: num(&w, "traced_reps")? as usize,
                end_to_end,
                per_layer: plain(&w, "per_layer")?,
                name,
            });
        }
        Ok(RunReport {
            seed: num(doc, "seed")? as u64,
            seconds: num(doc, "seconds")?,
            quick: doc.get("quick").and_then(Value::as_bool).unwrap_or(false),
            cores: num(doc, "cores")? as usize,
            rustc: doc
                .get("rustc")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
            kits: plain(doc, "kits")?,
            workloads,
        })
    }

    /// Every metric by name with its unit, for a person.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "demos-mp host-time ledger: seed {}, {} s per pass, {} core(s), {}{}",
            self.seed,
            self.seconds,
            self.cores,
            self.rustc,
            if self.quick {
                " -- QUICK: tiny repetitions, the numbers mean nothing"
            } else {
                ""
            }
        );
        for w in &self.workloads {
            let _ = writeln!(
                out,
                "\n== {} ==  sim_digest {:016x}  ops {}  attempted {}  failed {}  {}",
                w.name,
                w.sim_digest,
                w.ops,
                w.attempted,
                w.failed,
                if w.correct() { "correct" } else { "INCORRECT" }
            );
            for f in &w.failures {
                let _ = writeln!(out, "  FAILED CHECK: {f}");
            }
            if !w.end_to_end.is_empty() {
                // Fewer than 20 samples support no percentile above the
                // median, so the table stops at the quartiles.
                let _ = writeln!(
                    out,
                    "  end to end ({} timed repetitions; value = fastest repetition of a timing; \
                     no percentile above the median is reportable with n < 20)",
                    w.timed_s.len()
                );
                let _ = writeln!(
                    out,
                    "    {:<20} {:>16} {:>16} {:>16} {:>16} {:>4}  unit",
                    "metric", "value", "q1", "median", "q3", "n"
                );
                for (name, s) in &w.end_to_end {
                    let _ = writeln!(
                        out,
                        "    {:<20} {:>16.6} {:>16.6} {:>16.6} {:>16.6} {:>4}  {}",
                        name,
                        s.value,
                        s.q1,
                        s.median,
                        s.q3,
                        s.n,
                        unit_of_end_to_end(name)
                    );
                }
            }
            if !w.per_layer.is_empty() {
                let _ = writeln!(
                    out,
                    "  per layer ({} traced repetitions; attr.* are estimates)",
                    w.traced_reps
                );
                for (name, v) in &w.per_layer {
                    let unit = per_layer_unit(name).unwrap_or("");
                    let _ = writeln!(out, "    {name:<34} {v:>18.6}  {unit}");
                }
            }
        }
        if !self.kits.is_empty() {
            let _ = writeln!(out, "\n== kits ==  (layer functions timed from outside)");
            for (name, v) in &self.kits {
                let unit = per_layer_unit(name).unwrap_or("");
                let _ = writeln!(out, "    {name:<34} {v:>18.6}  {unit}");
            }
        }
        out
    }

    /// The last line of standard output: `correct`, `attempted`, `failed`
    /// and `metrics`. With `per_layer` the metrics are every per-layer
    /// metric (kits included), otherwise every end-to-end metric. When
    /// several workloads ran, each name is prefixed `<workload>/`.
    pub fn summary_line(&self, per_layer: bool) -> String {
        let mut metrics = Value::obj();
        let prefix = |w: &WorkloadReport, name: &str| {
            if self.workloads.len() == 1 {
                name.to_string()
            } else {
                format!("{}/{name}", w.name)
            }
        };
        for w in &self.workloads {
            if per_layer {
                for (name, v) in self.kits.iter().chain(&w.per_layer) {
                    metrics.set(&prefix(w, name), plain_metric(name, *v));
                }
            } else {
                for (name, s) in &w.end_to_end {
                    metrics.set(
                        &prefix(w, name),
                        Value::obj()
                            .with("value", s.value)
                            .with("unit", unit_of_end_to_end(name)),
                    );
                }
            }
        }
        Value::obj()
            .with("correct", self.correct())
            .with(
                "attempted",
                self.workloads.iter().map(|w| w.attempted).sum::<u64>(),
            )
            .with(
                "failed",
                self.workloads.iter().map(|w| w.failed).sum::<u64>(),
            )
            .with("metrics", metrics)
            .to_line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> RunReport {
        RunReport {
            seed: 1983,
            seconds: 10.0,
            quick: false,
            cores: 2,
            rustc: "rustc 1.95.0".into(),
            kits: vec![("types.encode_ns_64b".into(), 41.25)],
            workloads: vec![WorkloadReport {
                name: "msg_mesh".into(),
                sim_digest: 0xDEAD_BEEF_0123_4567,
                ops: 102_336,
                attempted: 102_400,
                failed: 0,
                failures: vec![],
                timed_s: vec![0.41, 0.40, 0.43],
                traced_reps: 5,
                end_to_end: vec![
                    (
                        "ops_per_s".into(),
                        Stat {
                            value: 251_234.567_890_123,
                            q1: 240_000.5,
                            median: 248_000.75,
                            q3: 251_234.567_890_123,
                            n: 17,
                        },
                    ),
                    ("allocs_per_op".into(), Stat::exact(31.5)),
                ],
                per_layer: vec![("net.frames_sent".into(), 409_600.0)],
            }],
        }
    }

    #[test]
    fn result_file_round_trips() {
        let r = sample();
        let text = r.to_json().to_pretty();
        let back = RunReport::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let r = sample();
        for per_layer in [false, true] {
            let line = r.summary_line(per_layer);
            assert!(!line.contains('\n'));
            let doc = json::parse(&line).unwrap();
            let keys: Vec<&str> = doc
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        }
        let e2e = json::parse(&r.summary_line(false)).unwrap();
        let m = e2e.get("metrics").unwrap();
        assert_eq!(
            m.get("ops_per_s").unwrap().get("value").unwrap().as_f64(),
            Some(251_234.567_890_123)
        );
        assert_eq!(
            m.get("ops_per_s").unwrap().get("unit").unwrap().as_str(),
            Some("ops/s")
        );
        let layers = json::parse(&r.summary_line(true)).unwrap();
        let m = layers.get("metrics").unwrap();
        assert!(
            m.get("types.encode_ns_64b").is_some(),
            "kits are per-layer metrics"
        );
        assert!(m.get("net.frames_sent").is_some());
        assert!(m.get("ops_per_s").is_none());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = sample();
        assert!(r.correct());
        r.workloads[0].failures.push("drain: …".into());
        assert!(!r.correct());
        assert!(r.to_table().contains("FAILED CHECK"));
    }
}
