//! From passes to named metrics.

use std::collections::BTreeMap;

use crate::catalog::{Better, COUNTERS, END_TO_END};
use crate::harness::{counted_pass, timed_pass, traced_pass, Budget, Outcome, Workload};
use crate::spans::{self, SpanRec};
use crate::stats::quartiles;

/// A metric's value with the spread of the samples behind it.
///
/// For a timing metric the value is the **fastest repetition** — the
/// smallest time, the largest rate — not the median. Every repetition of
/// a run does identical, deterministic work, so there is a floor no
/// repetition can beat, and on a shared box everything above the floor is
/// interference, which comes in bursts and only ever adds time. Over ten
/// runs of `migrate_churn` taken in a noisy hour the medians of the
/// repetition times spread (interquartile range over median) by 17–30 %,
/// the first quartiles by 11–15 %, the fastest repetitions by 4–5 %
/// (`results/noise-floor.txt`): one quiet repetition in thirty is enough
/// for the minimum, a quartile needs eight. The quartiles and the median are still recorded and printed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    /// The reported value: the fastest repetition of a timing metric, or
    /// the single value of an exact one.
    pub value: f64,
    /// First quartile of the samples.
    pub q1: f64,
    /// Median of the samples.
    pub median: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// How many samples. With fewer than 20 no percentile above the
    /// median is reportable, so none is reported.
    pub n: usize,
}

impl Stat {
    /// A value measured once (exact counts).
    pub fn exact(value: f64) -> Stat {
        Stat {
            value,
            q1: value,
            median: value,
            q3: value,
            n: 1,
        }
    }

    /// Quartiles of `samples`; the value is the best sample, whichever
    /// way `better` points.
    fn of(samples: &[f64], better: Better) -> Stat {
        let (q1, median, q3) = quartiles(samples).expect("at least one repetition");
        let best = match better {
            Better::Lower => f64::min,
            Better::Higher => f64::max,
        };
        Stat {
            value: samples.iter().copied().reduce(best).expect("non-empty"),
            q1,
            median,
            q3,
            n: samples.len(),
        }
    }
}

/// The end-to-end half of a workload's result.
pub struct EndToEndResult {
    /// The eight metrics, in catalogue order.
    pub metrics: Vec<(&'static str, Stat)>,
    /// Seconds in the timed region of every timed repetition, in order.
    pub timed_s: Vec<f64>,
    /// What every repetition did (failed checks included).
    pub outcome: Outcome,
}

/// Timed pass, then counted pass, then the eight end-to-end metrics.
/// (`setup_s`, `ops_per_s` and `host_ns_per_event` are taken from the
/// fastest repetition; see [`Stat`].)
pub fn end_to_end(w: &dyn Workload, budget: Budget) -> EndToEndResult {
    let timed = timed_pass(w, budget);
    let (figures, counted) = counted_pass(w);
    let mut outcome = timed.outcome;
    if counted.digest != outcome.digest {
        outcome.failures.push(format!(
            "sim_digest differs between the timed and the counted pass: {:016x} then {:016x}",
            outcome.digest, counted.digest
        ));
    }
    let ops = outcome.ops.max(1) as f64;
    let per_rep = |better: Better, f: &dyn Fn(f64, f64) -> f64| {
        let v: Vec<f64> = timed.reps.iter().map(|r| f(r.setup_s, r.timed_s)).collect();
        Stat::of(&v, better)
    };
    let events = outcome.events.max(1) as f64;
    // In catalogue order; the smoke test checks the names against it.
    let metrics = vec![
        ("setup_s", per_rep(Better::Lower, &|setup, _| setup)),
        (
            "ops_per_s",
            per_rep(Better::Higher, &|_, timed| ops / timed),
        ),
        (
            "host_ns_per_event",
            per_rep(Better::Lower, &|_, timed| timed * 1e9 / events),
        ),
        ("allocs_per_op", Stat::exact(figures.allocs as f64 / ops)),
        (
            "alloc_bytes_per_op",
            Stat::exact(figures.bytes as f64 / ops),
        ),
        (
            "peak_heap_mib",
            Stat::exact(figures.peak_live_bytes as f64 / (1u64 << 20) as f64),
        ),
        ("virt_us_per_op", Stat::exact(outcome.virt_us as f64 / ops)),
        (
            "ok_share",
            Stat::exact(1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
    ];
    debug_assert!(metrics
        .iter()
        .map(|m| m.0)
        .eq(END_TO_END.iter().map(|m| m.name)));
    EndToEndResult {
        metrics,
        timed_s: timed.reps.iter().map(|r| r.timed_s).collect(),
        outcome,
    }
}

/// The per-layer half of a workload's result (kits excluded: they do not
/// depend on the workload and are measured once per run).
pub struct TracedResult {
    /// Counters, span shares, overhead ratio and attribution estimates,
    /// in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Every span of every traced repetition.
    pub spans: Vec<SpanRec>,
    /// Traced repetitions taken (as many plain ones were interleaved).
    pub reps: usize,
    /// What every repetition did (failed checks included).
    pub outcome: Outcome,
}

/// Traced pass, then counters, span shares, the tracing overhead and the
/// estimated split of `sim.run` self time by layer.
pub fn traced(
    w: &dyn Workload,
    budget: Budget,
    kits: &BTreeMap<&'static str, f64>,
) -> TracedResult {
    let pass = traced_pass(w, budget);
    let mut outcome = pass.outcome;
    let mut metrics: Vec<(&'static str, f64)> = COUNTERS
        .iter()
        .map(|c| (c.name, outcome.counters.get(c.name).copied().unwrap_or(0.0)))
        .collect();

    // Mean over repetitions: each repetition's shares add up to one, and
    // so does their mean (their medians would not).
    let reps = pass.traced_s.len();
    let mut mean_shares: Vec<(&'static str, f64)> =
        spans::SHARES.iter().map(|&s| (s, 0.0)).collect();
    for rep in 0..reps {
        match spans::shares(&pass.spans, rep) {
            Some(shares) => {
                for (slot, (_, v)) in mean_shares.iter_mut().zip(shares) {
                    slot.1 += v / reps as f64;
                }
            }
            None => outcome
                .failures
                .push(format!("traced repetition {rep} recorded no root span")),
        }
    }
    let sum: f64 = mean_shares.iter().map(|(_, v)| v).sum();
    if (sum - 1.0).abs() > 0.01 {
        outcome
            .failures
            .push(format!("span self-time shares add up to {sum}, not 1"));
    }
    let run_self = mean_shares[1].1;
    metrics.extend(mean_shares);

    // The two sides of a pair ran back to back, so their ratio cancels the
    // machine's slow drift; the median over pairs shrugs off the pairs in
    // which a burst of interference hit one side only.
    let pair_ratios: Vec<f64> = pass
        .traced_s
        .iter()
        .zip(&pass.plain_s)
        .map(|(traced, plain)| traced / plain)
        .collect();
    let (_, overhead, _) = quartiles(&pair_ratios).expect("at least one pair");
    metrics.push(("trace.overhead_ratio", overhead));
    // The shares are of the traced repetitions' root spans, so the
    // estimates are taken over the same denominator: their mean.
    let roots: Vec<f64> = pass
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64)
        .collect();
    let root_ns = roots.iter().sum::<f64>() / roots.len().max(1) as f64;
    metrics.extend(attribution(&outcome, kits, run_self, root_ns));

    TracedResult {
        metrics,
        spans: pass.spans,
        reps,
        outcome,
    }
}

/// *Estimates*, not measurements: each layer's kit unit cost times the
/// workload's count of that unit, over the repetition's wall time
/// (`rep_ns`, the mean duration of the traced repetitions' root spans). The
/// kits time whole calls from outside, so the unit costs nest (a remote
/// delivery contains a codec round trip and a channel hop) and each layer
/// is charged its kit minus the kits it contains. What the estimates do
/// not explain of `span.sim_run_self_share` is reported as unexplained;
/// a negative value means the kits overestimate this workload.
fn attribution(
    outcome: &Outcome,
    kits: &BTreeMap<&'static str, f64>,
    run_self_share: f64,
    rep_ns: f64,
) -> Vec<(&'static str, f64)> {
    let kit = |name: &str| kits.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| outcome.counters.get(name).copied().unwrap_or(0.0);

    let codec = kit("types.encode_ns_64b") + kit("types.decode_ns_64b");
    let channel = kit("net.channel_ns_per_msg");
    let types_ns = codec * count("kernel.transmitted");
    let net_ns = channel * count("net.data_frames")
        + kit("net.simnet_ns_per_frame") * count("net.frames_sent");
    let remote_own = (kit("kernel.remote_deliver_ns") - codec - channel).max(0.0);
    let kernel_ns = kit("kernel.local_deliver_ns") * count("kernel.delivered_local")
        + remote_own * count("kernel.transmitted")
        + kit("kernel.link_update_ns") * count("kernel.link_updates_sent");
    // A migration's kit cost already contains its messages and data
    // frames; charging the smallest image size keeps the overlap with the
    // per-frame estimates above small.
    let core_ns = kit("core.migration_host_us_4k") * 1e3 * count("core.completed");
    // Policy work happens between `sim.run` slices, not inside them, so
    // its estimate is not part of the split; it is printed because the
    // traced run measures the same thing directly (`span.sim_snapshot_share`
    // + `span.policy_decide_share`), which checks the kit method.
    let policy_ns =
        (kit("policy.decide_ns_64m") + kit("sim.snapshot_ns_64m")) * count("policy.ticks");

    let share = |ns: f64| if rep_ns > 0.0 { ns / rep_ns } else { 0.0 };
    let inside = [
        ("attr.types_share", share(types_ns)),
        ("attr.net_share", share(net_ns)),
        ("attr.kernel_share", share(kernel_ns)),
        ("attr.core_share", share(core_ns)),
    ];
    let explained: f64 = inside.iter().map(|(_, v)| v).sum();
    let mut out = inside.to_vec();
    out.push(("attr.policy_share", share(policy_ns)));
    out.push(("attr.unexplained_share", run_self_share - explained));
    out
}
