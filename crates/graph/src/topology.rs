//! The [`Topology`] abstraction: what the CONGEST engine actually needs
//! from a graph, plus seed-deterministic *implicit* topologies that emit
//! adjacency on demand without materializing an edge list.
//!
//! A materialized CSR [`Graph`] is an implementation accident, not a
//! requirement: the engine and every node program touch a graph only
//! through `node_count` / `degree` / `port` / `endpoints` / `weight` /
//! `side_of`. [`Topology`] captures exactly that surface, object-safely,
//! so a `&dyn Topology` can stand in anywhere a `&Graph` used to — the
//! CSR graph implements it by delegation (unchanged semantics,
//! bit-identical runs), and [`ImplicitTopology`] implements it from
//! closed-form adjacency, making n = 10⁶ runs fit in memory that a
//! materialized graph plus per-node state would exhaust.
//!
//! # Port/edge-id contract
//!
//! [`Graph`] numbers ports in edge-insertion order. Every implicit
//! family defines a canonical global edge-id enumeration and presents
//! each node's ports **sorted by edge id**; its
//! [`ImplicitTopology::materialize`] twin inserts edges in exactly that
//! id order, which makes the CSR twin's ports identical — so a protocol
//! run is bit-for-bit the same on either representation (the
//! `topology_equiv` proptests pin this).
//!
//! # Determinism domain
//!
//! `ring`, `torus` and `reg` (circulant) adjacency is pure arithmetic:
//! O(1) per port, any n. `gnp` draws each pair's coin from a keyed hash
//! of `(seed, u, v)` — exact and replayable, but a *row* costs O(n)
//! hashes and construction costs O(n²), so the spec parser caps it at
//! [`GNP_MAX_NODES`] nodes; million-node runs use the structured
//! families.

use crate::bitset::BitSet;
use crate::graph::{EdgeId, Graph, NodeId, Side};
use crate::GraphError;

/// Maximum node count the `gnp:` implicit family accepts: G(n,p)
/// construction is O(n²) keyed hashes, so past this size it stops being
/// "implicit" in any useful sense (use `ring`/`torus`/`reg` instead).
pub const GNP_MAX_NODES: usize = 50_000;

/// The graph surface the CONGEST engine and runtime middleware consume.
///
/// Object-safe by construction: engines hold `&dyn Topology`. `Sync` is
/// required because the sharded engine shares the topology across
/// worker threads.
pub trait Topology: Sync {
    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Number of edges (parallel edges counted individually).
    fn edge_count(&self) -> usize;

    /// The degree of `v` (number of incident edges).
    fn degree(&self, v: NodeId) -> usize;

    /// The maximum degree `Δ` (0 for an empty graph).
    fn max_degree(&self) -> usize;

    /// The `(neighbour, edge)` pair behind port `p` of node `v`; ports
    /// number `0..degree(v)`.
    fn port(&self, v: NodeId, p: usize) -> (NodeId, EdgeId);

    /// Endpoints of edge `e` (unordered).
    fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId);

    /// Weight of edge `e` (1.0 for unweighted topologies).
    fn weight(&self, e: EdgeId) -> f64 {
        let _ = e;
        1.0
    }

    /// Whether explicit weights are attached.
    fn is_weighted(&self) -> bool {
        false
    }

    /// The side of `v` in a known bipartition, if one is known.
    fn side_of(&self, v: NodeId) -> Option<Side> {
        let _ = v;
        None
    }

    /// Downcast hook: the materialized CSR graph behind this topology,
    /// if it *is* one. Layers that genuinely need CSR-only operations
    /// (e.g. `edge_subgraph` in churn maintenance) use this to avoid
    /// re-materializing, and fall back to [`materialize`] otherwise.
    fn as_graph(&self) -> Option<&Graph> {
        None
    }

    /// The endpoint of `e` that is not `v`.
    ///
    /// # Panics
    /// Panics if `v` is not an endpoint of `e`.
    fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.endpoints(e);
        if v == a {
            b
        } else {
            assert_eq!(v, b, "node {v} is not an endpoint of edge {e}");
            a
        }
    }

    /// Neighbours of `v` in port order (one entry per incident edge).
    fn neighbors<'a>(&'a self, v: NodeId) -> Box<dyn Iterator<Item = NodeId> + 'a> {
        Box::new((0..self.degree(v)).map(move |p| self.port(v, p).0))
    }

    /// Incident arcs of `v` as `(port, neighbour, edge)` triples.
    fn incident<'a>(&'a self, v: NodeId) -> Box<dyn Iterator<Item = (usize, NodeId, EdgeId)> + 'a> {
        Box::new((0..self.degree(v)).map(move |p| {
            let (u, e) = self.port(v, p);
            (p, u, e)
        }))
    }

    /// The port of `v` whose arc is edge `e`, if any.
    fn port_of_edge(&self, v: NodeId, e: EdgeId) -> Option<usize> {
        (0..self.degree(v)).find(|&p| self.port(v, p).1 == e)
    }
}

impl Topology for Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        Graph::edge_count(self)
    }

    fn degree(&self, v: NodeId) -> usize {
        Graph::degree(self, v)
    }

    fn max_degree(&self) -> usize {
        Graph::max_degree(self)
    }

    fn port(&self, v: NodeId, p: usize) -> (NodeId, EdgeId) {
        Graph::port(self, v, p)
    }

    fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        Graph::endpoints(self, e)
    }

    fn weight(&self, e: EdgeId) -> f64 {
        Graph::weight(self, e)
    }

    fn is_weighted(&self) -> bool {
        Graph::is_weighted(self)
    }

    fn side_of(&self, v: NodeId) -> Option<Side> {
        self.bipartition().map(|b| b[v])
    }

    fn as_graph(&self) -> Option<&Graph> {
        Some(self)
    }

    fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        Graph::other_endpoint(self, e, v)
    }

    fn neighbors<'a>(&'a self, v: NodeId) -> Box<dyn Iterator<Item = NodeId> + 'a> {
        Box::new(Graph::neighbors(self, v))
    }

    fn incident<'a>(&'a self, v: NodeId) -> Box<dyn Iterator<Item = (usize, NodeId, EdgeId)> + 'a> {
        Box::new(Graph::incident(self, v))
    }

    fn port_of_edge(&self, v: NodeId, e: EdgeId) -> Option<usize> {
        Graph::port_of_edge(self, v, e)
    }
}

/// SplitMix64: the keyed hash behind the `gnp` family's pair coins.
/// (Same mixer as `dam_congest::rng::splitmix64`; duplicated here so the
/// graph crate stays dependency-free.)
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The keyed coin of pair `(u, v)` (`u < v`) under `seed`: present iff
/// the hash clears the probability threshold.
fn gnp_pair_present(seed: u64, threshold: u128, u: NodeId, v: NodeId) -> bool {
    let h = splitmix64(
        splitmix64(seed ^ 0x6E70_5F67_6E70_C01A) ^ (((u as u64) << 32) | (v as u64 & 0xFFFF_FFFF)),
    );
    u128::from(h) < threshold
}

/// A seed-deterministic implicit topology: adjacency in closed form, no
/// materialized edge list. See the module docs for the port/edge-id
/// contract each family obeys.
#[derive(Debug, Clone, PartialEq)]
pub enum ImplicitTopology {
    /// The cycle `C_n` (`n ≥ 3`): edge `e` joins `e` and `(e+1) mod n`.
    /// Bipartition (even/odd) is exposed when `n` is even.
    Ring {
        /// Number of nodes.
        n: usize,
    },
    /// The `w × h` torus grid (`w, h ≥ 3`): node `v = y·w + x`; edge
    /// `2v` goes right (x-wrap), edge `2v+1` goes down (y-wrap).
    /// Bipartition (coordinate parity) is exposed when both `w` and `h`
    /// are even.
    Torus {
        /// Grid width.
        w: usize,
        /// Grid height.
        h: usize,
    },
    /// The `d`-regular circulant on `n` nodes: offset `j ∈ 1..=d/2`
    /// contributes the edge block `(j−1)·n + v ↦ (v, (v+j) mod n)`; odd
    /// `d` (requires even `n`) adds the diameter block of `n/2` edges.
    Regular {
        /// Number of nodes (`d < n`; even when `d` is odd).
        n: usize,
        /// Degree (`1 ≤ d < n`).
        d: usize,
    },
    /// G(n, p) with keyed pairwise hash coins: pair `(u, v)` (`u < v`)
    /// is present iff `hash(seed, u, v) < p·2⁶⁴`. Exact and replayable,
    /// but O(n) per adjacency row — capped at [`GNP_MAX_NODES`].
    Gnp {
        /// Number of nodes.
        n: usize,
        /// Edge probability.
        p: f64,
        /// Coin-hash key.
        seed: u64,
        /// Forward-edge prefix sums: `prefix[u]` is the number of edges
        /// `(a, b)` with `a < u` — i.e. the first edge id owned by `u`'s
        /// forward block. Length `n + 1`; `prefix[n]` is the edge count.
        prefix: Vec<u64>,
        /// Per-node total degrees (forward + backward).
        degrees: Vec<u32>,
        /// Cached maximum degree.
        max_deg: usize,
    },
}

impl ImplicitTopology {
    /// The ring `C_n`.
    ///
    /// # Errors
    /// `n < 3` (smaller rings degenerate to parallel edges/self-loops).
    pub fn ring(n: usize) -> Result<ImplicitTopology, String> {
        if n < 3 {
            return Err(format!("ring needs n >= 3, got {n}"));
        }
        Ok(ImplicitTopology::Ring { n })
    }

    /// The `w × h` torus.
    ///
    /// # Errors
    /// `w < 3` or `h < 3` (wrap-around would create parallel edges).
    pub fn torus(w: usize, h: usize) -> Result<ImplicitTopology, String> {
        if w < 3 || h < 3 {
            return Err(format!("torus needs w, h >= 3, got {w}x{h}"));
        }
        Ok(ImplicitTopology::Torus { w, h })
    }

    /// The `d`-regular circulant on `n` nodes.
    ///
    /// # Errors
    /// `d == 0`, `d >= n`, or odd `d` with odd `n` (the diameter offset
    /// needs an even node count).
    pub fn regular(n: usize, d: usize) -> Result<ImplicitTopology, String> {
        if d == 0 || d >= n {
            return Err(format!("reg needs 1 <= d < n, got n={n} d={d}"));
        }
        if d % 2 == 1 && n % 2 == 1 {
            return Err(format!("reg with odd d={d} needs even n, got n={n}"));
        }
        Ok(ImplicitTopology::Regular { n, d })
    }

    /// G(n, p) with keyed hash coins under `seed`.
    ///
    /// # Errors
    /// `p` outside `[0, 1]` or `n > `[`GNP_MAX_NODES`] (construction is
    /// O(n²); use a structured family at that scale).
    pub fn gnp(n: usize, p: f64, seed: u64) -> Result<ImplicitTopology, String> {
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("gnp probability must be in [0, 1], got {p}"));
        }
        if n > GNP_MAX_NODES {
            return Err(format!(
                "gnp is O(n^2) to construct; n={n} exceeds the {GNP_MAX_NODES}-node cap \
                 (use ring/torus/reg at this scale)"
            ));
        }
        let threshold = gnp_threshold(p);
        let mut degrees = vec![0u32; n];
        let mut prefix = vec![0u64; n + 1];
        for u in 0..n {
            let mut fwd = 0u64;
            for v in (u + 1)..n {
                if gnp_pair_present(seed, threshold, u, v) {
                    fwd += 1;
                    degrees[u] += 1;
                    degrees[v] += 1;
                }
            }
            prefix[u + 1] = prefix[u] + fwd;
        }
        let max_deg = degrees.iter().copied().max().unwrap_or(0) as usize;
        Ok(ImplicitTopology::Gnp { n, p, seed, prefix, degrees, max_deg })
    }

    /// Parses the canonical topology spec grammar shared by the CLI,
    /// the chaos harness and the bench bins:
    ///
    /// * `ring:N` — the cycle `C_N`;
    /// * `torus:WxH` — the `W × H` torus grid;
    /// * `reg:N:D` — the `D`-regular circulant on `N` nodes;
    /// * `gnp:N:P:SEED` — G(N, P) with keyed hash coins under `SEED`.
    ///
    /// # Errors
    /// A human-readable message naming the malformed or out-of-domain
    /// spec (CLIs map it to usage-error exit 2).
    pub fn parse(spec: &str) -> Result<ImplicitTopology, String> {
        let bad = |what: &str| format!("bad topology spec '{spec}': {what}");
        let mut parts = spec.split(':');
        let family = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        match family {
            "ring" => {
                let [n] = rest[..] else { return Err(bad("want ring:N")) };
                let n: usize = n.parse().map_err(|_| bad("N must be an integer"))?;
                ImplicitTopology::ring(n)
            }
            "torus" => {
                let [dims] = rest[..] else { return Err(bad("want torus:WxH")) };
                let (w, h) = dims.split_once('x').ok_or_else(|| bad("want torus:WxH"))?;
                let w: usize = w.parse().map_err(|_| bad("W must be an integer"))?;
                let h: usize = h.parse().map_err(|_| bad("H must be an integer"))?;
                ImplicitTopology::torus(w, h)
            }
            "reg" => {
                let [n, d] = rest[..] else { return Err(bad("want reg:N:D")) };
                let n: usize = n.parse().map_err(|_| bad("N must be an integer"))?;
                let d: usize = d.parse().map_err(|_| bad("D must be an integer"))?;
                ImplicitTopology::regular(n, d)
            }
            "gnp" => {
                let [n, p, seed] = rest[..] else { return Err(bad("want gnp:N:P:SEED")) };
                let n: usize = n.parse().map_err(|_| bad("N must be an integer"))?;
                let p: f64 = p.parse().map_err(|_| bad("P must be a probability"))?;
                let seed: u64 = seed.parse().map_err(|_| bad("SEED must be an integer"))?;
                ImplicitTopology::gnp(n, p, seed)
            }
            other => Err(format!(
                "unknown topology family '{other}' in '{spec}' (ring:N | torus:WxH | reg:N:D | \
                 gnp:N:P:SEED)"
            )),
        }
    }

    /// The canonical spec string this topology parses from.
    #[must_use]
    pub fn spec(&self) -> String {
        match *self {
            ImplicitTopology::Ring { n } => format!("ring:{n}"),
            ImplicitTopology::Torus { w, h } => format!("torus:{w}x{h}"),
            ImplicitTopology::Regular { n, d } => format!("reg:{n}:{d}"),
            ImplicitTopology::Gnp { n, p, seed, .. } => format!("gnp:{n}:{p}:{seed}"),
        }
    }

    /// Materializes the CSR twin: same node count, same edge ids, same
    /// port numbering (edges are inserted in global id order, and every
    /// implicit family presents ports sorted by edge id — which is what
    /// makes runs on either representation bit-identical).
    ///
    /// # Panics
    /// Panics only on internal enumeration bugs (the construction is
    /// self-validating).
    #[must_use]
    pub fn materialize(&self) -> Graph {
        let n = Topology::node_count(self);
        let m = Topology::edge_count(self);
        let mut b = Graph::builder(n);
        for e in 0..m {
            let (u, v) = Topology::endpoints(self, e);
            b.edge(u, v);
        }
        if let Some(sides) = self.bipartition_vec() {
            b.bipartition(sides);
        }
        b.build().expect("implicit families enumerate valid simple edges")
    }

    /// The full bipartition vector, when the family exposes one.
    fn bipartition_vec(&self) -> Option<Vec<Side>> {
        let n = Topology::node_count(self);
        (0..n).map(|v| Topology::side_of(self, v)).collect()
    }

    /// All-present node and edge masks sized for this topology —
    /// convenience for presence-mask call sites.
    #[must_use]
    pub fn full_masks(&self) -> (BitSet, BitSet) {
        (
            BitSet::filled(Topology::node_count(self), true),
            BitSet::filled(Topology::edge_count(self), true),
        )
    }

    /// Port `p` of `v` as `(edge, neighbour)` for the constant-degree
    /// families, in closed form and without allocating: ports are sorted
    /// by edge id.
    fn arc(&self, v: NodeId, p: usize) -> (EdgeId, NodeId) {
        let out_of_range = || panic!("port {p} out of range at node {v}");
        match *self {
            ImplicitTopology::Ring { n } => *ring_arcs(n, v).get(p).unwrap_or_else(out_of_range),
            ImplicitTopology::Torus { w, h } => {
                *torus_arcs(w, h, v).get(p).unwrap_or_else(out_of_range)
            }
            ImplicitTopology::Regular { n, d } => {
                if p >= d {
                    out_of_range();
                }
                regular_arc(n, d, v, p)
            }
            ImplicitTopology::Gnp { .. } => unreachable!("gnp uses its own row scan (see `port`)"),
        }
    }
}

/// The ring's two `(edge, neighbour)` pairs at `v`, sorted by edge id:
/// the predecessor edge is `pred`, the successor edge is `v`.
fn ring_arcs(n: usize, v: NodeId) -> [(EdgeId, NodeId); 2] {
    assert!(v < n, "node {v} out of range");
    let pred = (v + n - 1) % n;
    let succ = (v + 1) % n;
    let mut arcs = [(pred, pred), (v, succ)];
    arcs.sort_unstable();
    arcs
}

/// The torus's four `(edge, neighbour)` pairs at `v`, sorted by edge id.
fn torus_arcs(w: usize, h: usize, v: NodeId) -> [(EdgeId, NodeId); 4] {
    assert!(v < w * h, "node {v} out of range");
    let (x, y) = (v % w, v / w);
    let right = y * w + (x + 1) % w;
    let down = ((y + 1) % h) * w + x;
    let left = y * w + (x + w - 1) % w;
    let up = ((y + h - 1) % h) * w + x;
    let mut arcs = [(2 * v, right), (2 * v + 1, down), (2 * left, left), (2 * up + 1, up)];
    arcs.sort_unstable();
    arcs
}

/// Port `p` of `v` on the `d`-regular circulant as `(edge, neighbour)`.
/// Offset `j` owns the id block `[(j−1)·n, j·n)`, holding `v`'s forward
/// edge at `(j−1)·n + v` and its backward edge at `(j−1)·n + (v−j mod
/// n)`; the diameter block comes last. Sorting by id is therefore
/// block order, then offset order inside a block.
fn regular_arc(n: usize, d: usize, v: NodeId, p: usize) -> (EdgeId, NodeId) {
    assert!(v < n, "node {v} out of range");
    if p == 2 * (d / 2) {
        let half = n / 2;
        return ((d / 2) * n + v % half, (v + half) % n);
    }
    let j = p / 2 + 1;
    let block = (j - 1) * n;
    let back = (v + n - j) % n;
    let forward = (block + v, (v + j) % n);
    let backward = (block + back, back);
    // The smaller offset inside the block comes first.
    if p.is_multiple_of(2) == (v < back) {
        forward
    } else {
        backward
    }
}

/// `p` as a 128-bit threshold on a 64-bit hash (exact at `p = 1`).
fn gnp_threshold(p: f64) -> u128 {
    if p >= 1.0 {
        1u128 << 64
    } else if p <= 0.0 {
        0
    } else {
        // Exact rounding of p·2⁶⁴ through f64 arithmetic.
        (p * (u64::MAX as f64 + 1.0)) as u128
    }
}

impl Topology for ImplicitTopology {
    fn node_count(&self) -> usize {
        match *self {
            ImplicitTopology::Ring { n }
            | ImplicitTopology::Regular { n, .. }
            | ImplicitTopology::Gnp { n, .. } => n,
            ImplicitTopology::Torus { w, h } => w * h,
        }
    }

    fn edge_count(&self) -> usize {
        match *self {
            ImplicitTopology::Ring { n } => n,
            ImplicitTopology::Torus { w, h } => 2 * w * h,
            ImplicitTopology::Regular { n, d } => (d / 2) * n + (d % 2) * (n / 2),
            ImplicitTopology::Gnp { ref prefix, .. } => {
                usize::try_from(*prefix.last().expect("prefix is nonempty")).expect("fits usize")
            }
        }
    }

    fn degree(&self, v: NodeId) -> usize {
        match *self {
            ImplicitTopology::Ring { n } => {
                assert!(v < n, "node {v} out of range");
                2
            }
            ImplicitTopology::Torus { w, h } => {
                assert!(v < w * h, "node {v} out of range");
                4
            }
            ImplicitTopology::Regular { n, d } => {
                assert!(v < n, "node {v} out of range");
                d
            }
            ImplicitTopology::Gnp { ref degrees, .. } => degrees[v] as usize,
        }
    }

    fn max_degree(&self) -> usize {
        match *self {
            ImplicitTopology::Ring { .. } => 2,
            ImplicitTopology::Torus { .. } => 4,
            ImplicitTopology::Regular { d, .. } => d,
            ImplicitTopology::Gnp { max_deg, .. } => max_deg,
        }
    }

    fn port(&self, v: NodeId, p: usize) -> (NodeId, EdgeId) {
        if let ImplicitTopology::Gnp { n, seed, p: prob, ref prefix, ref degrees, .. } = *self {
            assert!(p < degrees[v] as usize, "port {p} out of range at node {v}");
            let threshold = gnp_threshold(prob);
            // Ports sorted by edge id: edges to smaller neighbours come
            // first (their ids live in the neighbour's forward block,
            // blocks ordered by owner), then edges to larger neighbours
            // (this node's own forward block, ordered by neighbour).
            let mut seen = 0usize;
            for u in 0..v {
                if gnp_pair_present(seed, threshold, u, v) {
                    if seen == p {
                        return (u, gnp_edge_id(seed, threshold, prefix, u, v));
                    }
                    seen += 1;
                }
            }
            let mut fwd = prefix[v];
            for u in (v + 1)..n {
                if gnp_pair_present(seed, threshold, v, u) {
                    if seen == p {
                        return (u, usize::try_from(fwd).expect("fits usize"));
                    }
                    seen += 1;
                    fwd += 1;
                }
            }
            unreachable!("degree table disagrees with coin scan at node {v}");
        }
        let (e, u) = self.arc(v, p);
        (u, e)
    }

    fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        match *self {
            ImplicitTopology::Ring { n } => {
                assert!(e < n, "edge {e} out of range");
                (e, (e + 1) % n)
            }
            ImplicitTopology::Torus { w, h } => {
                let n = w * h;
                assert!(e < 2 * n, "edge {e} out of range");
                let v = e / 2;
                let (x, y) = (v % w, v / w);
                if e.is_multiple_of(2) {
                    (v, y * w + (x + 1) % w)
                } else {
                    (v, ((y + 1) % h) * w + x)
                }
            }
            ImplicitTopology::Regular { n, d } => {
                assert!(e < Topology::edge_count(self), "edge {e} out of range");
                let j = e / n + 1;
                if d % 2 == 1 && e >= (d / 2) * n {
                    let v = e - (d / 2) * n;
                    (v, v + n / 2)
                } else {
                    let v = e % n;
                    (v, (v + j) % n)
                }
            }
            ImplicitTopology::Gnp { seed, p, ref prefix, .. } => {
                let m = Topology::edge_count(self);
                assert!(e < m, "edge {e} out of range");
                let threshold = gnp_threshold(p);
                // Owner: the largest u with prefix[u] <= e.
                let u = match prefix.partition_point(|&x| x <= e as u64) {
                    0 => unreachable!("prefix[0] == 0"),
                    idx => idx - 1,
                };
                let mut rank = e as u64 - prefix[u];
                for v in (u + 1)..Topology::node_count(self) {
                    if gnp_pair_present(seed, threshold, u, v) {
                        if rank == 0 {
                            return (u, v);
                        }
                        rank -= 1;
                    }
                }
                unreachable!("prefix table disagrees with coin scan at edge {e}");
            }
        }
    }

    fn incident<'a>(&'a self, v: NodeId) -> Box<dyn Iterator<Item = (usize, NodeId, EdgeId)> + 'a> {
        let triple = |(p, (e, u)): (usize, (EdgeId, NodeId))| (p, u, e);
        match *self {
            ImplicitTopology::Ring { n } => {
                Box::new(ring_arcs(n, v).into_iter().enumerate().map(triple))
            }
            ImplicitTopology::Torus { w, h } => {
                Box::new(torus_arcs(w, h, v).into_iter().enumerate().map(triple))
            }
            ImplicitTopology::Regular { n, d } => {
                assert!(v < n, "node {v} out of range");
                Box::new((0..d).map(move |p| triple((p, regular_arc(n, d, v, p)))))
            }
            ImplicitTopology::Gnp { .. } => Box::new((0..self.degree(v)).map(move |p| {
                let (u, e) = self.port(v, p);
                (p, u, e)
            })),
        }
    }

    fn side_of(&self, v: NodeId) -> Option<Side> {
        match *self {
            ImplicitTopology::Ring { n } if n % 2 == 0 => {
                Some(if v.is_multiple_of(2) { Side::X } else { Side::Y })
            }
            ImplicitTopology::Torus { w, h } if w % 2 == 0 && h % 2 == 0 => {
                let (x, y) = (v % w, v / w);
                Some(if (x + y) % 2 == 0 { Side::X } else { Side::Y })
            }
            _ => None,
        }
    }
}

/// The edge id of present pair `(u, v)` (`u < v`): `u`'s block start
/// plus `v`'s rank among `u`'s forward neighbours.
fn gnp_edge_id(seed: u64, threshold: u128, prefix: &[u64], u: NodeId, v: NodeId) -> EdgeId {
    let rank = ((u + 1)..v).filter(|&w| gnp_pair_present(seed, threshold, u, w)).count() as u64;
    usize::try_from(prefix[u] + rank).expect("fits usize")
}

/// Materializes *any* topology into a CSR [`Graph`] by inserting edges
/// in global id order. For topologies whose ports are sorted by edge id
/// (every [`ImplicitTopology`] family) the twin is port-identical; for
/// an arbitrary [`Graph`] input prefer [`Topology::as_graph`], which is
/// free and exact.
///
/// # Errors
/// Propagates builder errors (cannot happen for well-formed topologies).
pub fn materialize(topo: &dyn Topology) -> Result<Graph, GraphError> {
    if let Some(g) = topo.as_graph() {
        return Ok(g.clone());
    }
    let mut b = Graph::builder(topo.node_count());
    for e in 0..topo.edge_count() {
        let (u, v) = topo.endpoints(e);
        if topo.is_weighted() {
            b.weighted_edge(u, v, topo.weight(e));
        } else {
            b.edge(u, v);
        }
    }
    if let Some(sides) = (0..topo.node_count()).map(|v| topo.side_of(v)).collect() {
        b.bipartition(sides);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the trait contract against the materialized twin: node/edge
    /// counts, degrees, every port (neighbour *and* edge id), every
    /// endpoint pair, and the bipartition.
    fn assert_twin(t: &ImplicitTopology) {
        let g = t.materialize();
        assert_eq!(Topology::node_count(t), g.node_count(), "{}", t.spec());
        assert_eq!(Topology::edge_count(t), g.edge_count(), "{}", t.spec());
        assert_eq!(Topology::max_degree(t), g.max_degree(), "{}", t.spec());
        for v in 0..g.node_count() {
            assert_eq!(Topology::degree(t, v), g.degree(v), "{} node {v}", t.spec());
            for p in 0..g.degree(v) {
                assert_eq!(Topology::port(t, v, p), g.port(v, p), "{} port {v}.{p}", t.spec());
            }
            assert_eq!(Topology::side_of(t, v), Topology::side_of(&g, v), "{} side {v}", t.spec());
        }
        for e in 0..g.edge_count() {
            assert_eq!(Topology::endpoints(t, e), g.endpoints(e), "{} edge {e}", t.spec());
        }
        if let Some(b) = g.bipartition() {
            assert_eq!(b.len(), g.node_count());
            g.validate_bipartition().expect("exposed bipartitions are proper");
        }
    }

    #[test]
    fn ring_matches_twin() {
        for n in [3, 4, 5, 8, 17] {
            assert_twin(&ImplicitTopology::ring(n).unwrap());
        }
    }

    #[test]
    fn torus_matches_twin() {
        for (w, h) in [(3, 3), (3, 4), (4, 4), (5, 3), (6, 4)] {
            assert_twin(&ImplicitTopology::torus(w, h).unwrap());
        }
    }

    #[test]
    fn regular_matches_twin() {
        for (n, d) in [(5, 2), (6, 3), (8, 4), (10, 5), (9, 4), (12, 7)] {
            assert_twin(&ImplicitTopology::regular(n, d).unwrap());
        }
    }

    #[test]
    fn gnp_matches_twin() {
        for (n, p, seed) in [(1, 0.5, 0), (12, 0.3, 1), (20, 0.5, 7), (16, 1.0, 3), (10, 0.0, 9)] {
            assert_twin(&ImplicitTopology::gnp(n, p, seed).unwrap());
        }
    }

    #[test]
    fn spec_parser_roundtrips_and_rejects() {
        for spec in ["ring:8", "torus:4x6", "reg:10:4", "gnp:12:0.25:7"] {
            let t = ImplicitTopology::parse(spec).unwrap();
            assert_eq!(t.spec(), spec);
            assert_twin(&t);
        }
        for bad in [
            "ring:2",
            "ring:x",
            "ring",
            "torus:4",
            "torus:2x5",
            "reg:4:4",
            "reg:5:3",
            "reg:4:0",
            "gnp:5:1.5:0",
            "gnp:5:0.5",
            "mesh:4",
            "",
            "gnp:999999999:0.5:0",
        ] {
            assert!(ImplicitTopology::parse(bad).is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn incident_lists_every_port_in_order() {
        for spec in
            ["ring:3", "ring:9", "torus:3x5", "torus:6x4", "reg:7:6", "reg:12:11", "reg:40:9"]
        {
            let t = ImplicitTopology::parse(spec).unwrap();
            let g = t.materialize();
            for v in 0..g.node_count() {
                let got: Vec<_> = Topology::incident(&t, v).collect();
                let want: Vec<_> = g.incident(v).collect();
                assert_eq!(got, want, "{spec} node {v}");
            }
        }
        let t = ImplicitTopology::gnp(14, 0.4, 2).unwrap();
        for v in 0..14 {
            let ports: Vec<_> = (0..Topology::degree(&t, v))
                .map(|p| {
                    let (u, e) = Topology::port(&t, v, p);
                    (p, u, e)
                })
                .collect();
            assert_eq!(Topology::incident(&t, v).collect::<Vec<_>>(), ports, "gnp node {v}");
        }
    }

    #[test]
    fn generic_materialize_prefers_csr_and_rebuilds_implicit() {
        let t = ImplicitTopology::ring(6).unwrap();
        let twin = t.materialize();
        let again = materialize(&t).unwrap();
        assert_eq!(twin, again);
        let back = materialize(&twin).unwrap();
        assert_eq!(twin, back);
    }

    #[test]
    fn gnp_coins_are_seed_keyed() {
        let a = ImplicitTopology::gnp(30, 0.4, 1).unwrap();
        let b = ImplicitTopology::gnp(30, 0.4, 2).unwrap();
        let c = ImplicitTopology::gnp(30, 0.4, 1).unwrap();
        assert_eq!(a, c, "same seed, same graph");
        assert_ne!(a.materialize(), b.materialize(), "different seeds should differ somewhere");
    }
}
