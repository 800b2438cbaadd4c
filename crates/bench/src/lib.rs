//! Experiment harness for the DEMOS/MP reproduction.
//!
//! The `exp` binary regenerates the experiments of DESIGN.md's index
//! (E1–E17), printing paper-style tables: `exp <name>` for one, `exp all`
//! for the whole suite. Host-time measurement is not here: that is
//! `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use demos_kernel::{MsgCount, TrafficBreakdown};
use demos_sim::prelude::*;
use demos_types::MachineId;

/// Render a section header.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}

/// A simple aligned text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringify each cell).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Print aligned.
    pub fn print(&self) {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, c) in cells.iter().enumerate().take(ncols) {
                out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            println!("{}", out.trim_end());
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols;
        println!("{}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Merge traffic counters across every kernel in the cluster.
pub fn total_traffic(cluster: &Cluster) -> TrafficBreakdown {
    let mut t = TrafficBreakdown::default();
    for i in 0..cluster.len() {
        t.merge(&cluster.node(MachineId(i as u16)).kernel.stats().traffic);
    }
    t
}

/// `a - b` per category (counters are monotonic).
pub fn traffic_delta(a: &TrafficBreakdown, b: &TrafficBreakdown) -> TrafficBreakdown {
    fn d(x: MsgCount, y: MsgCount) -> MsgCount {
        MsgCount {
            msgs: x.msgs - y.msgs,
            bytes: x.bytes - y.bytes,
        }
    }
    TrafficBreakdown {
        kernel_op: d(a.kernel_op, b.kernel_op),
        migrate: d(a.migrate, b.migrate),
        md_req: d(a.md_req, b.md_req),
        md_data: d(a.md_data, b.md_data),
        md_ack: d(a.md_ack, b.md_ack),
        md_done: d(a.md_done, b.md_done),
        link_maint: d(a.link_maint, b.link_maint),
        mgmt: d(a.mgmt, b.mgmt),
        user: d(a.user, b.user),
    }
}

/// Everything measured about one migration.
#[derive(Debug, Clone, Copy)]
pub struct MigrationMeasurement {
    /// Resident-state bytes transferred.
    pub resident: u32,
    /// Swappable-state bytes transferred.
    pub swappable: u32,
    /// Image bytes transferred.
    pub image: u32,
    /// Virtual time from freeze to restart.
    pub duration: Duration,
    /// Remote traffic attributable to the migration, by category.
    pub traffic: TrafficBreakdown,
}

/// Migrate `pid` to `dest` on an otherwise-quiet cluster and measure the
/// transfer (sizes, elapsed virtual time, per-category traffic).
pub fn measure_migration(
    cluster: &mut Cluster,
    pid: ProcessId,
    dest: MachineId,
) -> MigrationMeasurement {
    let src = cluster.where_is(pid).expect("process exists");
    let (resident, swappable, image) = {
        let proc = cluster.node(src).kernel.process(pid).expect("exists");
        (
            proc.serialize_resident().len() as u32,
            proc.serialize_swappable().len() as u32,
            proc.image.flat_len() as u32,
        )
    };
    let before_traffic = total_traffic(cluster);
    let t0 = cluster.now();
    cluster.migrate(pid, dest).expect("migration starts");
    // Run until the Restarted phase lands (bounded).
    let mut restarted = None;
    for _ in 0..100_000 {
        if let Some(t) = cluster
            .trace()
            .phase_time(pid, MigrationPhase::Restarted, t0)
        {
            restarted = Some(t);
            break;
        }
        if !cluster.step() {
            break;
        }
    }
    let restarted = restarted
        .or_else(|| {
            cluster
                .trace()
                .phase_time(pid, MigrationPhase::Restarted, t0)
        })
        .expect("migration completed");
    let traffic = traffic_delta(&total_traffic(cluster), &before_traffic);
    MigrationMeasurement {
        resident,
        swappable,
        image,
        duration: restarted.since(t0),
        traffic,
    }
}

/// Format bytes human-readably.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_aligned() {
        let mut t = Table::new(["col", "value"]);
        t.row(["a", "1"]);
        t.row(["longer", "22"]);
        t.print(); // smoke: no panic
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn fmt_bytes_scales() {
        assert_eq!(fmt_bytes(17), "17 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
    }

    #[test]
    fn measure_migration_on_quiet_cluster() {
        let mut cluster = Cluster::mesh(2);
        let pid = cluster
            .spawn(
                MachineId(0),
                "cargo",
                &demos_sim::programs::Cargo::state(1000),
                ImageLayout::default(),
            )
            .unwrap();
        cluster.run_for(Duration::from_millis(5));
        let m = measure_migration(&mut cluster, pid, MachineId(1));
        assert!((230..=270).contains(&m.resident), "resident {}", m.resident);
        assert!(m.image > 14_000, "image includes declared segments");
        assert!(m.duration.as_micros() > 0);
        assert_eq!(
            m.traffic.migrate.msgs, 4,
            "Offer, Accept, TransferComplete, CleanupDone"
        );
        assert_eq!(
            m.traffic.md_req.msgs, 3,
            "three state pulls (§3.1 steps 4-5)"
        );
        assert!(
            m.traffic.md_data.bytes as u32 > m.image,
            "image dominates transfer"
        );
    }
}
