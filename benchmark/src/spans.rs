//! Benchmark-side spans: one record around each call the benchmark makes
//! into a layer.
//!
//! Spans nest on one thread, stay in memory while the run measures, and
//! are written out as JSON lines when it ends. A span's *self time* is its
//! duration minus the part of it its children cover; the per-workload
//! shares reported as `span.*` are self times grouped by the layer the
//! span's name stands for, over the duration of the repetition's root
//! span — so they add up to one.
//!
//! These spans stop at the program's public functions: nothing inside
//! `Cluster::step` is visible to them (spans inside the program are a
//! later change).

use crate::clock::now_ns;
use crate::json::Value;

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

/// One finished (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// Position in the recorder; unique within one trace file.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// What was called (`sim.run`, `core.migrate`, …).
    pub name: &'static str,
    /// [`now_ns`] at entry.
    pub start_ns: u64,
    /// [`now_ns`] at exit.
    pub end_ns: u64,
    /// Which repetition of the run this span belongs to.
    pub rep: usize,
    /// Work counted at the same boundary (visits, deliveries, forwards).
    pub counts: Vec<(&'static str, u64)>,
}

impl SpanRec {
    /// Host nanoseconds between entry and exit.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder. Switched off it records nothing and each call is a
/// branch, which is how the timed passes run.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    rep: usize,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Spans::default()
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Spans {
            on: true,
            ..Spans::default()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Label the spans that follow with repetition `rep`.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let id = self.recs.len();
        self.recs.push(SpanRec {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now_ns(),
            end_ns: 0,
            rep: self.rep,
            counts: Vec::new(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `span` (and anything left open inside it).
    pub fn exit(&mut self, span: SpanId) {
        self.exit_with(span, &[]);
    }

    /// Close `span`, attaching work counts taken at the same boundary.
    pub fn exit_with(&mut self, span: SpanId, counts: &[(&'static str, u64)]) {
        if !self.on {
            return;
        }
        let end = now_ns();
        while let Some(id) = self.open.pop() {
            self.recs[id].end_ns = end;
            if id == span.0 {
                self.recs[id].counts.extend_from_slice(counts);
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.enter(name);
        let r = f(self);
        self.exit(id);
        r
    }

    /// Everything recorded so far.
    pub fn records(&self) -> &[SpanRec] {
        &self.recs
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times_ns(recs: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = recs.iter().map(SpanRec::duration_ns).collect();
    for r in recs {
        if let Some(p) = r.parent {
            own[p] = own[p].saturating_sub(r.duration_ns());
        }
    }
    own
}

/// The share names, in catalogue order.
pub const SHARES: [&str; 9] = [
    "span.setup_share",
    "span.sim_run_self_share",
    "span.sim_post_share",
    "span.core_migrate_call_share",
    "span.sim_snapshot_share",
    "span.policy_decide_share",
    "span.chaos_generate_share",
    "span.chaos_run_share",
    "span.post_process_share",
];

/// Which share a span's self time counts towards. Set-up is one share
/// whatever it calls (build, boot, spawn, warm-up run); the containers
/// (`rep`, `timed`, `policy.tick`) hold only the benchmark's own glue,
/// which is booked with post-processing so that the nine shares cover the
/// whole repetition.
fn share_of(name: &str) -> &'static str {
    match name {
        "setup" | "sim.build" | "sysproc.boot" | "sim.spawn" | "sim.warmup" | "chaos.corpus" => {
            "span.setup_share"
        }
        "sim.run" => "span.sim_run_self_share",
        "sim.post" => "span.sim_post_share",
        "core.migrate" => "span.core_migrate_call_share",
        "sim.snapshot" => "span.sim_snapshot_share",
        "policy.decide" => "span.policy_decide_share",
        "chaos.generate" => "span.chaos_generate_share",
        "chaos.run" => "span.chaos_run_share",
        _ => "span.post_process_share",
    }
}

/// Self-time shares of repetition `rep`, over its root span's duration,
/// in [`SHARES`] order. `None` if the repetition has no closed root.
pub fn shares(recs: &[SpanRec], rep: usize) -> Option<Vec<(&'static str, f64)>> {
    let root = recs
        .iter()
        .find(|r| r.rep == rep && r.parent.is_none() && r.duration_ns() > 0)?;
    let total = root.duration_ns() as f64;
    let own = self_times_ns(recs);
    let mut out: Vec<(&'static str, f64)> = SHARES.iter().map(|&s| (s, 0.0)).collect();
    for r in recs.iter().filter(|r| r.rep == rep) {
        let share = share_of(r.name);
        if let Some(slot) = out.iter_mut().find(|(s, _)| *s == share) {
            slot.1 += own[r.id] as f64 / total;
        }
    }
    Some(out)
}

/// One JSON object per span, one per line.
pub fn to_json_lines(recs: &[SpanRec], workload: &str) -> String {
    let mut out = String::new();
    for r in recs {
        let mut counts = Value::obj();
        for &(k, v) in &r.counts {
            counts.set(k, v);
        }
        let line = Value::obj()
            .with("id", r.id)
            .with("parent", r.parent.map_or(Value::Null, Value::from))
            .with("name", r.name)
            .with("start_ns", r.start_ns)
            .with("end_ns", r.end_ns)
            .with("workload", workload)
            .with("rep", r.rep)
            .with("counts", counts);
        out.push_str(&line.to_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            rep: 0,
            counts: Vec::new(),
        }
    }

    /// rep[0,100] ⊃ setup[0,20] ⊃ sim.build[5,15]; rep ⊃ timed[20,90] ⊃
    /// two sibling sim.run [20,50] and [55,85], the second ⊃
    /// core.migrate[60,70].
    fn tree() -> Vec<SpanRec> {
        vec![
            rec(0, None, "rep", 0, 100),
            rec(1, Some(0), "setup", 0, 20),
            rec(2, Some(1), "sim.build", 5, 15),
            rec(3, Some(0), "timed", 20, 90),
            rec(4, Some(3), "sim.run", 20, 50),
            rec(5, Some(3), "sim.run", 55, 85),
            rec(6, Some(5), "core.migrate", 60, 70),
        ]
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let own = self_times_ns(&tree());
        assert_eq!(own[0], 100 - 20 - 70, "rep minus setup and timed");
        assert_eq!(own[1], 20 - 10, "setup minus sim.build");
        assert_eq!(own[2], 10);
        assert_eq!(own[3], 70 - 30 - 30, "timed minus both sibling runs");
        assert_eq!(own[4], 30);
        assert_eq!(own[5], 30 - 10, "second run minus its migrate call");
        assert_eq!(own[6], 10);
        assert_eq!(own.iter().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn shares_group_by_layer_and_sum_to_one() {
        let s = shares(&tree(), 0).unwrap();
        let get = |name: &str| s.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!((get("span.setup_share") - 0.20).abs() < 1e-12);
        assert!((get("span.sim_run_self_share") - 0.50).abs() < 1e-12);
        assert!((get("span.core_migrate_call_share") - 0.10).abs() < 1e-12);
        assert!((get("span.post_process_share") - 0.20).abs() < 1e-12);
        let sum: f64 = s.iter().map(|(_, v)| v).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(shares(&tree(), 1).is_none(), "no such repetition");
    }

    #[test]
    fn recorder_nests_and_off_records_nothing() {
        let mut s = Spans::on();
        s.set_rep(3);
        let root = s.enter("rep");
        s.scope("setup", |s| s.scope("sim.build", |_| ()));
        let run = s.enter("sim.run");
        s.exit_with(run, &[("visits", 9)]);
        s.exit(root);
        let r = s.records();
        assert_eq!(r.len(), 4);
        assert_eq!(r[1].parent, Some(0));
        assert_eq!(r[2].parent, Some(1));
        assert_eq!(r[3].parent, Some(0));
        assert_eq!(r[3].counts, vec![("visits", 9)]);
        assert!(r.iter().all(|x| x.rep == 3 && x.end_ns >= x.start_ns));
        assert!(r[0].end_ns >= r[3].end_ns);

        let mut off = Spans::off();
        let id = off.enter("rep");
        off.exit(id);
        assert!(off.records().is_empty());
    }

    #[test]
    fn json_lines_resolve_parents() {
        let text = to_json_lines(&tree(), "msg_mesh");
        let lines: Vec<Value> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 7);
        for l in &lines {
            match l.get("parent").unwrap() {
                Value::Null => {}
                p => {
                    let p = p.as_f64().unwrap();
                    assert!(lines
                        .iter()
                        .any(|o| o.get("id").unwrap().as_f64() == Some(p)));
                }
            }
            assert_eq!(l.get("workload").unwrap().as_str(), Some("msg_mesh"));
        }
    }
}
