//! Cluster topology and routing.
//!
//! Machines are vertices; bidirectional edges carry latency, a per-byte
//! transmission cost and an independent loss probability. Frames follow
//! precomputed shortest-latency paths, so a message "possibly travels
//! through intermediate processors" (§1) — which is exactly what makes
//! moving a process closer to a resource reduce system-wide traffic
//! (experiment E10).
//!
//! Two representations back the same routing API:
//!
//! * **Uniform** — a complete mesh where every edge carries identical
//!   parameters (the paper's single shared network). Routes are trivially
//!   the direct edge, so construction and every query are O(1) regardless
//!   of cluster size. This is what makes 4096-machine clusters buildable:
//!   the dense matrix would need O(n²) memory and O(n³) route recompute.
//! * **Dense** — an explicit adjacency matrix with Floyd–Warshall
//!   all-pairs routes, used for lines, rings, stars and any topology that
//!   has been edited (fault injection severs edges). A uniform topology
//!   silently materializes to dense on its first edge edit.

use demos_types::{Duration, MachineId};

/// Parameters of one bidirectional edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeParams {
    /// Fixed propagation + switching latency per frame.
    pub latency: Duration,
    /// Transmission cost per byte, in nanoseconds (1000 ns/B ≈ 1 MB/s).
    pub ns_per_byte: u64,
    /// Probability that a frame traversing this edge is lost.
    pub loss: f64,
}

impl Default for EdgeParams {
    fn default() -> Self {
        // Roughly a few-Mbit/s local network of early-80s vintage: 500 us
        // switching latency, ~2 MB/s, lossless unless configured otherwise.
        EdgeParams {
            latency: Duration::from_micros(500),
            ns_per_byte: 500,
            loss: 0.0,
        }
    }
}

impl EdgeParams {
    /// A fast, lossless LAN edge (useful in unit tests).
    pub fn fast() -> Self {
        EdgeParams {
            latency: Duration::from_micros(50),
            ns_per_byte: 50,
            loss: 0.0,
        }
    }

    /// Time for a frame of `bytes` to traverse this edge.
    pub fn transit(&self, bytes: usize) -> Duration {
        self.latency + Duration::from_micros((self.ns_per_byte * bytes as u64) / 1000)
    }
}

/// A route between two machines, precomputed.
#[derive(Clone, Debug, Default)]
struct Route {
    /// Edges along the path, as `(from, to)` indices; empty for self-routes
    /// or unreachable pairs.
    edges: Vec<(usize, usize)>,
    /// Total fixed latency along the path.
    reachable: bool,
}

/// Storage behind [`Topology`]: uniform complete mesh or explicit matrix.
#[derive(Clone, Debug)]
enum Repr {
    /// Complete mesh, every edge identical. No per-pair storage at all.
    Uniform { params: EdgeParams },
    /// Adjacency matrix plus all-pairs routes, recomputed on change.
    Dense {
        edges: Vec<Option<EdgeParams>>,
        routes: Vec<Route>,
    },
}

/// The cluster graph with all-pairs shortest routes.
///
/// Machines are identified by dense [`MachineId`]s `0..n`.
#[derive(Clone, Debug)]
pub struct Topology {
    n: usize,
    repr: Repr,
    /// Bumped on every mutation; lets callers cache derived structures
    /// (e.g. shard partition plans) and cheaply detect staleness.
    version: u64,
    /// Minimum latency over all installed edges (`None` when edgeless).
    min_latency: Option<Duration>,
    /// Maximum loss probability over all installed edges.
    max_loss: f64,
}

impl Topology {
    /// A topology of `n` machines with no edges.
    pub fn new(n: usize) -> Self {
        let mut t = Topology {
            n,
            repr: Repr::Dense {
                edges: vec![None; n * n],
                routes: vec![Route::default(); n * n],
            },
            version: 0,
            min_latency: None,
            max_loss: 0.0,
        };
        t.recompute();
        t
    }

    /// Fully connected mesh with identical edges — the common case, like
    /// the paper's single shared network. Stored uniformly: O(1) build
    /// and O(1) routing queries at any `n`, so clusters of thousands of
    /// machines cost nothing to wire up. Editing an edge afterwards
    /// (fault injection) materializes the explicit matrix.
    pub fn full_mesh(n: usize, params: EdgeParams) -> Self {
        let mut t = Topology {
            n,
            repr: Repr::Uniform { params },
            version: 0,
            min_latency: None,
            max_loss: 0.0,
        };
        t.refresh_summary();
        t
    }

    /// A line `m0 - m1 - … - m(n-1)`: maximizes multi-hop routing, used by
    /// the communication-affinity experiments.
    pub fn line(n: usize, params: EdgeParams) -> Self {
        let mut t = Topology::new(n);
        for a in 0..n.saturating_sub(1) {
            t.set_edge_raw(MachineId(a as u16), MachineId((a + 1) as u16), params);
        }
        t.recompute();
        t
    }

    /// A ring: like [`Topology::line`] plus the closing edge, so every
    /// pair has two disjoint routes (shortest is taken; the other is the
    /// natural fail-over when an edge is cleared).
    pub fn ring(n: usize, params: EdgeParams) -> Self {
        let mut t = Topology::line(n, params);
        if n > 2 {
            t.set_edge(MachineId(0), MachineId((n - 1) as u16), params);
        }
        t
    }

    /// A star with `m0` as the hub: every inter-leaf message transits the
    /// hub (two hops), concentrating byte·hops the way a shared bus or
    /// central switch would.
    pub fn star(n: usize, params: EdgeParams) -> Self {
        let mut t = Topology::new(n);
        for a in 1..n {
            t.set_edge_raw(MachineId(0), MachineId(a as u16), params);
        }
        t.recompute();
        t
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the topology has no machines.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// All machine ids.
    pub fn machines(&self) -> impl Iterator<Item = MachineId> + '_ {
        (0..self.n as u16).map(MachineId)
    }

    /// Mutation counter: changes iff routing behavior may have changed.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Minimum fixed latency over all installed edges, `None` when the
    /// topology has no edges. The conservative parallel executor derives
    /// its lookahead from this.
    pub fn min_edge_latency(&self) -> Option<Duration> {
        self.min_latency
    }

    /// Maximum loss probability over all installed edges. Loss draws come
    /// from one global RNG whose draw order is execution-order dependent,
    /// so any lossy edge pins the cluster to the sequential path.
    pub fn max_edge_loss(&self) -> f64 {
        self.max_loss
    }

    /// The shared edge parameters when this topology is still a uniform
    /// complete mesh (never edited); `None` once materialized to dense.
    pub fn uniform(&self) -> Option<EdgeParams> {
        match &self.repr {
            Repr::Uniform { params } if self.n >= 2 => Some(*params),
            Repr::Uniform { .. } | Repr::Dense { .. } => None,
        }
    }

    fn idx(&self, a: MachineId, b: MachineId) -> usize {
        a.0 as usize * self.n + b.0 as usize
    }

    /// Convert a uniform mesh into the explicit matrix form so individual
    /// edges can be edited. O(n²) memory + O(n³) route recompute — only
    /// fault-injection paths (small clusters) take this.
    fn materialize(&mut self) {
        let Repr::Uniform { params } = self.repr else {
            return;
        };
        let n = self.n;
        let mut edges = vec![None; n * n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    edges[a * n + b] = Some(params);
                }
            }
        }
        self.repr = Repr::Dense {
            edges,
            routes: vec![Route::default(); n * n],
        };
        self.recompute();
    }

    /// Install (or replace) the bidirectional edge `a — b` and recompute
    /// routes.
    pub fn set_edge(&mut self, a: MachineId, b: MachineId, params: EdgeParams) {
        self.materialize();
        self.set_edge_raw(a, b, params);
        self.recompute();
    }

    /// Install an edge without recomputing routes — bulk construction
    /// only; the caller must `recompute()` before routing.
    fn set_edge_raw(&mut self, a: MachineId, b: MachineId, params: EdgeParams) {
        assert!((a.0 as usize) < self.n && (b.0 as usize) < self.n && a != b);
        let (i, j) = (self.idx(a, b), self.idx(b, a));
        #[expect(
            clippy::unreachable,
            reason = "host-side construction invariant, not a kernel handler: every caller materializes the dense repr first"
        )]
        let Repr::Dense { edges, .. } = &mut self.repr
        else {
            unreachable!("set_edge_raw on uniform repr");
        };
        edges[i] = Some(params);
        edges[j] = Some(params);
    }

    /// Remove the edge `a — b` (network fault injection) and recompute.
    pub fn clear_edge(&mut self, a: MachineId, b: MachineId) {
        self.materialize();
        let (i, j) = (self.idx(a, b), self.idx(b, a));
        #[expect(
            clippy::unreachable,
            reason = "host-side construction invariant, not a kernel handler: materialize() above just installed the dense repr"
        )]
        let Repr::Dense { edges, .. } = &mut self.repr
        else {
            unreachable!("materialize left uniform repr");
        };
        edges[i] = None;
        edges[j] = None;
        self.recompute();
    }

    /// Direct edge parameters between `a` and `b`, if adjacent.
    pub fn edge(&self, a: MachineId, b: MachineId) -> Option<EdgeParams> {
        match &self.repr {
            Repr::Uniform { params } => (a != b).then_some(*params),
            Repr::Dense { edges, .. } => edges[self.idx(a, b)],
        }
    }

    /// Recompute routes (dense) and refresh the edge summary + version.
    fn recompute(&mut self) {
        if let Repr::Dense { edges, routes } = &mut self.repr {
            Self::recompute_dense(self.n, edges, routes);
        }
        self.refresh_summary();
    }

    fn refresh_summary(&mut self) {
        self.version += 1;
        match &self.repr {
            Repr::Uniform { params } => {
                self.min_latency = (self.n >= 2).then_some(params.latency);
                self.max_loss = if self.n >= 2 { params.loss } else { 0.0 };
            }
            Repr::Dense { edges, .. } => {
                let mut min = None;
                let mut loss = 0.0f64;
                for e in edges.iter().flatten() {
                    min = Some(match min {
                        None => e.latency,
                        Some(m) if e.latency < m => e.latency,
                        Some(m) => m,
                    });
                    if e.loss > loss {
                        loss = e.loss;
                    }
                }
                self.min_latency = min;
                self.max_loss = loss;
            }
        }
    }

    /// Floyd–Warshall over fixed latency; ties broken towards fewer hops
    /// then lower intermediate index, keeping routes deterministic.
    fn recompute_dense(n: usize, edges: &[Option<EdgeParams>], routes: &mut [Route]) {
        const INF: u64 = u64::MAX / 4;
        let mut dist = vec![INF; n * n];
        let mut next: Vec<Option<usize>> = vec![None; n * n];
        for a in 0..n {
            dist[a * n + a] = 0;
            for b in 0..n {
                if let Some(e) = edges[a * n + b] {
                    dist[a * n + b] = e.latency.as_micros();
                    next[a * n + b] = Some(b);
                }
            }
        }
        for k in 0..n {
            for a in 0..n {
                if dist[a * n + k] == INF {
                    continue;
                }
                for b in 0..n {
                    let through = dist[a * n + k].saturating_add(dist[k * n + b]);
                    if through < dist[a * n + b] {
                        dist[a * n + b] = through;
                        next[a * n + b] = next[a * n + k];
                    }
                }
            }
        }
        for a in 0..n {
            for b in 0..n {
                let mut route = Route {
                    edges: Vec::new(),
                    reachable: a == b,
                };
                if a != b && next[a * n + b].is_some() {
                    route.reachable = true;
                    let mut cur = a;
                    // Paths are at most n-1 edges; guard against cycles anyway.
                    for _ in 0..n {
                        if cur == b {
                            break;
                        }
                        let Some(step) = next[cur * n + b] else {
                            route.reachable = false;
                            break;
                        };
                        route.edges.push((cur, step));
                        cur = step;
                    }
                    if cur != b {
                        route.reachable = false;
                        route.edges.clear();
                    }
                }
                routes[a * n + b] = route;
            }
        }
    }

    /// Whether `b` is reachable from `a`.
    pub fn reachable(&self, a: MachineId, b: MachineId) -> bool {
        match &self.repr {
            Repr::Uniform { .. } => (a.0 as usize) < self.n && (b.0 as usize) < self.n,
            Repr::Dense { routes, .. } => routes[self.idx(a, b)].reachable,
        }
    }

    /// Number of edges on the route `a → b` (0 for `a == b`).
    pub fn hops(&self, a: MachineId, b: MachineId) -> usize {
        match &self.repr {
            Repr::Uniform { .. } => usize::from(a != b),
            Repr::Dense { routes, .. } => routes[self.idx(a, b)].edges.len(),
        }
    }

    /// Total transit time and combined loss probability for a frame of
    /// `bytes` on the route `a → b`, or `None` if unreachable.
    pub fn transit(&self, a: MachineId, b: MachineId, bytes: usize) -> Option<(Duration, f64)> {
        match &self.repr {
            Repr::Uniform { params } => {
                if (a.0 as usize) >= self.n || (b.0 as usize) >= self.n {
                    return None;
                }
                if a == b {
                    // Matches the dense self-route: empty edge list.
                    return Some((Duration::ZERO, 0.0));
                }
                Some((params.transit(bytes), params.loss))
            }
            Repr::Dense { edges, routes } => {
                let route = &routes[self.idx(a, b)];
                if !route.reachable {
                    return None;
                }
                let mut total = Duration::ZERO;
                let mut survive = 1.0f64;
                for &(x, y) in &route.edges {
                    // A route referencing a missing edge means the routing
                    // table is stale; report the pair unreachable instead of
                    // aborting.
                    let e = edges[x * self.n + y]?;
                    total += e.transit(bytes);
                    survive *= 1.0 - e.loss;
                }
                Some((total, 1.0 - survive))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: u16) -> MachineId {
        MachineId(i)
    }

    #[test]
    fn mesh_is_single_hop() {
        let t = Topology::full_mesh(4, EdgeParams::default());
        for a in 0..4u16 {
            for b in 0..4u16 {
                if a != b {
                    assert_eq!(t.hops(m(a), m(b)), 1);
                    assert!(t.reachable(m(a), m(b)));
                }
            }
        }
        assert_eq!(t.hops(m(2), m(2)), 0);
    }

    #[test]
    fn line_routes_multi_hop() {
        let t = Topology::line(5, EdgeParams::default());
        assert_eq!(t.hops(m(0), m(4)), 4);
        assert_eq!(t.hops(m(1), m(3)), 2);
        let (d1, _) = t.transit(m(0), m(1), 100).unwrap();
        let (d4, _) = t.transit(m(0), m(4), 100).unwrap();
        assert_eq!(d4.as_micros(), d1.as_micros() * 4);
    }

    #[test]
    fn shortest_path_prefers_low_latency() {
        // 0 -1ms- 1 -1ms- 2, plus a 10ms direct 0-2 edge: route must go via 1.
        let mut t = Topology::new(3);
        let fast = EdgeParams {
            latency: Duration::from_millis(1),
            ns_per_byte: 0,
            loss: 0.0,
        };
        let slow = EdgeParams {
            latency: Duration::from_millis(10),
            ns_per_byte: 0,
            loss: 0.0,
        };
        t.set_edge(m(0), m(1), fast);
        t.set_edge(m(1), m(2), fast);
        t.set_edge(m(0), m(2), slow);
        assert_eq!(t.hops(m(0), m(2)), 2);
        let (d, _) = t.transit(m(0), m(2), 0).unwrap();
        assert_eq!(d, Duration::from_millis(2));
    }

    #[test]
    fn ring_offers_alternate_route() {
        let mut t = Topology::ring(5, EdgeParams::default());
        assert_eq!(t.hops(m(0), m(4)), 1, "closing edge is the short way");
        t.clear_edge(m(0), m(4));
        assert_eq!(t.hops(m(0), m(4)), 4, "falls back around the ring");
        assert!(t.reachable(m(0), m(4)));
    }

    #[test]
    fn star_routes_through_hub() {
        let t = Topology::star(4, EdgeParams::default());
        assert_eq!(t.hops(m(1), m(3)), 2);
        assert_eq!(t.hops(m(0), m(3)), 1);
    }

    #[test]
    fn partition_is_unreachable() {
        let mut t = Topology::line(3, EdgeParams::default());
        t.clear_edge(m(1), m(2));
        assert!(!t.reachable(m(0), m(2)));
        assert!(t.transit(m(0), m(2), 10).is_none());
        assert!(t.reachable(m(0), m(1)));
    }

    #[test]
    fn transit_scales_with_bytes() {
        let t = Topology::full_mesh(
            2,
            EdgeParams {
                latency: Duration::ZERO,
                ns_per_byte: 1000,
                loss: 0.0,
            },
        );
        let (d, _) = t.transit(m(0), m(1), 1024).unwrap();
        assert_eq!(d, Duration::from_micros(1024));
    }

    #[test]
    fn loss_combines_across_hops() {
        let e = EdgeParams {
            latency: Duration::ZERO,
            ns_per_byte: 0,
            loss: 0.5,
        };
        let t = Topology::line(3, e);
        let (_, loss) = t.transit(m(0), m(2), 0).unwrap();
        assert!((loss - 0.75).abs() < 1e-9);
    }

    #[test]
    fn self_route() {
        let t = Topology::full_mesh(2, EdgeParams::default());
        assert!(t.reachable(m(0), m(0)));
        let (d, l) = t.transit(m(0), m(0), 100).unwrap();
        assert_eq!(d, Duration::ZERO);
        assert_eq!(l, 0.0);
    }

    /// The uniform representation must answer every routing query exactly
    /// like a dense mesh built edge-by-edge.
    #[test]
    fn uniform_matches_materialized_mesh() {
        let params = EdgeParams {
            latency: Duration::from_micros(120),
            ns_per_byte: 300,
            loss: 0.25,
        };
        let uni = Topology::full_mesh(6, params);
        assert!(uni.uniform().is_some());
        let mut dense = Topology::full_mesh(6, params);
        // Editing any edge (even rewriting it identically) materializes.
        dense.set_edge(m(0), m(1), params);
        assert!(dense.uniform().is_none());
        for a in 0..6u16 {
            for b in 0..6u16 {
                assert_eq!(uni.reachable(m(a), m(b)), dense.reachable(m(a), m(b)));
                assert_eq!(uni.hops(m(a), m(b)), dense.hops(m(a), m(b)));
                let (du, lu) = uni.transit(m(a), m(b), 64).unwrap();
                let (dd, ld) = dense.transit(m(a), m(b), 64).unwrap();
                assert_eq!(du, dd);
                assert!((lu - ld).abs() < 1e-12);
            }
        }
        assert_eq!(uni.min_edge_latency(), dense.min_edge_latency());
        assert!((uni.max_edge_loss() - dense.max_edge_loss()).abs() < 1e-12);
    }

    /// Clearing an edge on a uniform mesh materializes and reroutes.
    #[test]
    fn uniform_materializes_on_clear() {
        let mut t = Topology::full_mesh(4, EdgeParams::default());
        let v0 = t.version();
        t.clear_edge(m(0), m(1));
        assert!(t.version() > v0, "edits bump the version");
        assert!(t.uniform().is_none());
        assert_eq!(t.hops(m(0), m(1)), 2, "reroutes around the severed edge");
        assert!(t.reachable(m(0), m(1)));
    }

    /// Edge summaries track the extremes over installed edges.
    #[test]
    fn edge_summaries() {
        assert_eq!(Topology::new(3).min_edge_latency(), None);
        let mut t = Topology::line(3, EdgeParams::default());
        assert_eq!(t.min_edge_latency(), Some(Duration::from_micros(500)));
        assert_eq!(t.max_edge_loss(), 0.0);
        t.set_edge(
            m(0),
            m(2),
            EdgeParams {
                latency: Duration::from_micros(40),
                ns_per_byte: 0,
                loss: 0.125,
            },
        );
        assert_eq!(t.min_edge_latency(), Some(Duration::from_micros(40)));
        assert!((t.max_edge_loss() - 0.125).abs() < 1e-12);
        // A single-machine "mesh" has no edges at all.
        assert_eq!(
            Topology::full_mesh(1, EdgeParams::default()).min_edge_latency(),
            None
        );
    }
}
