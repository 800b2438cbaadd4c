//! Shard partitioning for the parallel executor.
//!
//! The cluster's machines are dealt to `S` shards — one per worker
//! thread — like cards: machine `i` belongs to shard `i mod S`, at local
//! index `i / S`. A workload rarely spreads evenly over the machine
//! range, but it rarely lines up with the residues mod `S` either, so
//! every lookahead window splits about evenly; a contiguous split hands
//! whichever range is busy in a window all of that window's work while
//! the other shards wait at the barrier. Each worker borrows strided
//! views of the *same* per-machine storage the sequential loop uses: no
//! copying in, no copying out.
//!
//! The plan also derives the **lookahead** — the minimum latency over
//! edges whose endpoints live in different shards. Any frame that crosses
//! a shard boundary must traverse at least one cross-shard edge (routes
//! are edge paths; a path between machines in different shards changes
//! shard somewhere), so a frame sent at time `T` arrives no earlier than
//! `T + lookahead`. That bound is what lets a shard safely execute the
//! whole window `[W, W + lookahead)` without hearing from its neighbours.
//! The argument holds for any partition; only which edges cross changes.

use demos_net::Topology;
use demos_types::{Duration, MachineId};

/// How a cluster is split across worker threads, plus the synchronization
/// bound the split admits. Derived from (machine count, shard count,
/// topology) and cached against [`Topology::version`].
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Number of shards (worker threads). Always ≥ 1 and ≤ machine count.
    /// Machine `i` belongs to shard `i % shards`.
    pub shards: usize,
    /// Minimum latency over cross-shard edges: how far a shard may run
    /// past the global horizon without missing a cross-shard arrival.
    /// `None` means no edge crosses a shard boundary — shards are fully
    /// independent and windows are bounded only by the caller's deadline.
    pub lookahead: Option<Duration>,
    /// [`Topology::version`] this plan was computed against.
    pub topo_version: u64,
}

impl ShardPlan {
    /// Partition `n` machines over (at most) `shards` threads against
    /// `topo`. Shard counts above `n` are clamped; machines are dealt
    /// round-robin, so shard sizes differ by at most one, earlier shards
    /// taking the remainder.
    pub fn new(n: usize, shards: usize, topo: &Topology) -> ShardPlan {
        let s = shards.clamp(1, n.max(1));
        ShardPlan {
            shards: s,
            lookahead: Self::cross_lookahead(topo, n, s),
            topo_version: topo.version(),
        }
    }

    /// Minimum latency over edges whose endpoints are in different shards.
    fn cross_lookahead(topo: &Topology, n: usize, s: usize) -> Option<Duration> {
        if s <= 1 {
            return None;
        }
        // Uniform complete mesh: every cross-shard edge carries the same
        // parameters, O(1).
        if let Some(params) = topo.uniform() {
            return Some(params.latency);
        }
        // Dense: scan the (small — only edited topologies are dense)
        // matrix once per plan.
        let mut min: Option<Duration> = None;
        for a in 0..n {
            for b in (a + 1)..n {
                if a % s == b % s {
                    continue;
                }
                if let Some(e) = topo.edge(MachineId(a as u16), MachineId(b as u16)) {
                    min = Some(match min {
                        None => e.latency,
                        Some(m) if e.latency < m => e.latency,
                        Some(m) => m,
                    });
                }
            }
        }
        min
    }

    /// The shard owning machine index `i`.
    pub fn shard_of(&self, i: usize) -> usize {
        i % self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demos_net::EdgeParams;

    #[test]
    fn machines_are_dealt_round_robin() {
        let topo = Topology::full_mesh(10, EdgeParams::default());
        let plan = ShardPlan::new(10, 4, &topo);
        assert_eq!(plan.shards, 4);
        let mut sizes = vec![0; 4];
        for i in 0..10 {
            assert_eq!(plan.shard_of(i), i % 4);
            sizes[plan.shard_of(i)] += 1;
        }
        assert_eq!(sizes, vec![3, 3, 2, 2], "sizes differ by at most one");
    }

    #[test]
    fn shard_count_clamps_to_machines() {
        let topo = Topology::full_mesh(3, EdgeParams::default());
        let plan = ShardPlan::new(3, 8, &topo);
        assert_eq!(plan.shards, 3);
        let solo = ShardPlan::new(3, 1, &topo);
        assert_eq!(solo.shards, 1);
        assert_eq!(solo.lookahead, None, "one shard needs no lookahead");
    }

    #[test]
    fn uniform_mesh_lookahead_is_edge_latency() {
        let topo = Topology::full_mesh(8, EdgeParams::fast());
        let plan = ShardPlan::new(8, 2, &topo);
        assert_eq!(plan.lookahead, Some(Duration::from_micros(50)));
    }

    #[test]
    fn dense_lookahead_is_min_cross_edge() {
        // Line 0-1-2-3 dealt in two: every edge crosses, 1—2 is cheapest.
        let mut topo = Topology::line(4, EdgeParams::default());
        topo.set_edge(
            MachineId(1),
            MachineId(2),
            EdgeParams {
                latency: Duration::from_micros(75),
                ns_per_byte: 0,
                loss: 0.0,
            },
        );
        let plan = ShardPlan::new(4, 2, &topo);
        assert_eq!(plan.lookahead, Some(Duration::from_micros(75)));
    }

    #[test]
    fn disconnected_shards_have_unbounded_lookahead() {
        // Two disjoint pairs, 0-2 and 1-3, each inside one dealt shard.
        let mut topo = Topology::new(4);
        topo.set_edge(MachineId(0), MachineId(2), EdgeParams::default());
        topo.set_edge(MachineId(1), MachineId(3), EdgeParams::default());
        let plan = ShardPlan::new(4, 2, &topo);
        assert_eq!(plan.lookahead, None);
    }
}
