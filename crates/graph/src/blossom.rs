//! Edmonds' blossom algorithm: exact maximum-cardinality matching in
//! general graphs, `O(n³)`.
//!
//! The oracle for measuring the approximation ratio of the general-graph
//! distributed algorithms (Theorem 3.15). The implementation is the
//! classical BFS-with-contraction formulation: grow alternating trees from
//! free roots, contract odd cycles (blossoms) to their base, and augment
//! when two trees touch.

use crate::graph::{Graph, NodeId};
use crate::matching::Matching;

const NIL: usize = usize::MAX;

/// Computes a maximum-cardinality matching of an arbitrary graph.
///
/// # Example
/// ```
/// use dam_graph::{generators, blossom};
/// // An odd cycle C_5 has a maximum matching of size 2...
/// assert_eq!(blossom::maximum_matching(&generators::cycle(5)).size(), 2);
/// // ...and the "flower" (C_5 + stem) of size 3, which greedy search
/// // without blossom contraction cannot find.
/// assert_eq!(blossom::maximum_matching(&generators::flower(2)).size(), 3);
/// ```
#[must_use]
pub fn maximum_matching(g: &Graph) -> Matching {
    let n = g.node_count();
    let mut mate = vec![NIL; n];

    // Greedy warm start speeds up the search considerably. It walks only
    // edges in adjacency: an `edge_subgraph` keeps masked-out ids in its
    // id space.
    for e in g.edge_ids() {
        let (u, v) = g.endpoints(e);
        if mate[u] == NIL && mate[v] == NIL && g.incident(u).any(|(_, _, f)| f == e) {
            mate[u] = v;
            mate[v] = u;
        }
    }

    let mut solver = Solver {
        g,
        mate,
        parent: vec![NIL; n],
        base: (0..n).collect(),
        used: vec![false; n],
        blossom: vec![false; n],
    };
    for v in 0..n {
        if solver.mate[v] == NIL {
            solver.find_augmenting_path(v);
        }
    }

    // Convert mate pointers to edge ids (pick any connecting edge).
    let mut m = Matching::new(g);
    for v in 0..n {
        let u = solver.mate[v];
        if u != NIL && v < u {
            let e = g
                .incident(v)
                .find(|&(_, w, _)| w == u)
                .map(|(_, _, e)| e)
                .expect("mate is a neighbour");
            m.add(g, e).expect("mate pointers form a matching");
        }
    }
    m
}

/// The maximum matching size (convenience wrapper).
#[must_use]
pub fn maximum_matching_size(g: &Graph) -> usize {
    maximum_matching(g).size()
}

struct Solver<'a> {
    g: &'a Graph,
    mate: Vec<NodeId>,
    parent: Vec<NodeId>,
    base: Vec<NodeId>,
    used: Vec<bool>,
    blossom: Vec<bool>,
}

impl Solver<'_> {
    /// Grows an alternating tree from `root`; augments and returns on
    /// success.
    fn find_augmenting_path(&mut self, root: NodeId) {
        let n = self.g.node_count();
        self.used.iter_mut().for_each(|u| *u = false);
        self.parent.iter_mut().for_each(|p| *p = NIL);
        for i in 0..n {
            self.base[i] = i;
        }
        self.used[root] = true;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            let neighbours: Vec<NodeId> = self.g.neighbors(v).collect();
            for u in neighbours {
                if self.base[v] == self.base[u] || self.mate[v] == u {
                    continue;
                }
                if u == root || (self.mate[u] != NIL && self.parent[self.mate[u]] != NIL) {
                    // Found a blossom: contract it.
                    let cur_base = self.lca(v, u);
                    self.blossom.iter_mut().for_each(|b| *b = false);
                    self.mark_path(v, cur_base, u);
                    self.mark_path(u, cur_base, v);
                    for i in 0..n {
                        if self.blossom[self.base[i]] {
                            self.base[i] = cur_base;
                            if !self.used[i] {
                                self.used[i] = true;
                                queue.push_back(i);
                            }
                        }
                    }
                } else if self.parent[u] == NIL {
                    self.parent[u] = v;
                    if self.mate[u] == NIL {
                        self.augment(u);
                        return;
                    }
                    self.used[self.mate[u]] = true;
                    queue.push_back(self.mate[u]);
                }
            }
        }
    }

    /// Lowest common ancestor of `a` and `b` in the alternating tree
    /// (walking via bases).
    fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let n = self.g.node_count();
        let mut used_path = vec![false; n];
        let mut v = a;
        loop {
            v = self.base[v];
            used_path[v] = true;
            if self.mate[v] == NIL {
                break;
            }
            v = self.parent[self.mate[v]];
        }
        let mut u = b;
        loop {
            u = self.base[u];
            if used_path[u] {
                return u;
            }
            u = self.parent[self.mate[u]];
        }
    }

    /// Marks blossom membership along the tree path from `v` down to
    /// `base_node`, rethreading parents through `child`.
    fn mark_path(&mut self, mut v: NodeId, base_node: NodeId, mut child: NodeId) {
        while self.base[v] != base_node {
            self.blossom[self.base[v]] = true;
            self.blossom[self.base[self.mate[v]]] = true;
            self.parent[v] = child;
            child = self.mate[v];
            v = self.parent[self.mate[v]];
        }
    }

    /// Flips matched/unmatched along the alternating path ending at free
    /// node `u`.
    fn augment(&mut self, mut u: NodeId) {
        while u != NIL {
            let pv = self.parent[u];
            let ppv = self.mate[pv];
            self.mate[u] = pv;
            self.mate[pv] = u;
            u = ppv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn handles_blossoms() {
        assert_eq!(maximum_matching_size(&generators::cycle(5)), 2);
        assert_eq!(maximum_matching_size(&generators::flower(1)), 2);
        assert_eq!(maximum_matching_size(&generators::flower(3)), 4);
        // Two triangles joined by a bridge: perfect matching of size 3.
        let g = crate::Graph::builder(6)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 0)
            .edge(3, 4)
            .edge(4, 5)
            .edge(5, 3)
            .edge(0, 3)
            .build()
            .unwrap();
        assert_eq!(maximum_matching_size(&g), 3);
    }

    #[test]
    fn agrees_with_brute_force_random() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..60 {
            let g = generators::gnp(10, 0.3, &mut rng);
            let m = maximum_matching(&g);
            m.validate(&g).unwrap();
            assert_eq!(m.size(), brute::maximum_matching_size(&g), "mismatch on {g}");
        }
    }

    #[test]
    fn edge_subgraphs_match_only_surviving_edges() {
        // Masked-out edge ids stay in the id space of an edge subgraph
        // but leave its adjacency; none of them may enter the matching.
        let g = generators::cycle(6);
        let keep: Vec<bool> = (0..g.edge_count()).map(|e| e != 0 && e != 3).collect();
        let sub = g.edge_subgraph(&keep);
        let m = maximum_matching(&sub);
        m.validate(&sub).unwrap();
        assert_eq!(m.size(), 2);

        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..40 {
            let g = generators::gnp(10, 0.4, &mut rng);
            let keep: Vec<bool> = (0..g.edge_count()).map(|_| rng.random_bool(0.6)).collect();
            let sub = g.edge_subgraph(&keep);
            let compact = crate::Graph::builder(g.node_count())
                .edges(g.edge_ids().filter(|&e| keep[e]).map(|e| g.endpoints(e)))
                .build()
                .unwrap();
            let m = maximum_matching(&sub);
            m.validate(&sub).unwrap();
            assert_eq!(m.size(), brute::maximum_matching_size(&compact), "mismatch on {sub}");
        }
    }

    #[test]
    fn agrees_with_hopcroft_karp_on_bipartite() {
        let mut rng = StdRng::seed_from_u64(123);
        for _ in 0..20 {
            let g = generators::bipartite_gnp(9, 9, 0.3, &mut rng);
            assert_eq!(
                maximum_matching_size(&g),
                crate::hopcroft_karp::maximum_bipartite_matching_size(&g)
            );
        }
    }

    #[test]
    fn perfect_on_even_structures() {
        assert_eq!(maximum_matching_size(&generators::cycle(10)), 5);
        assert_eq!(maximum_matching_size(&generators::complete(8)), 4);
        assert_eq!(maximum_matching_size(&generators::grid(4, 4)), 8);
    }

    #[test]
    fn empty_graphs() {
        let g = crate::Graph::builder(4).build().unwrap();
        assert_eq!(maximum_matching_size(&g), 0);
    }
}
