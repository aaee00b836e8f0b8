//! §3.1: the generic LOCAL-model `(1−ε)`-MCM (Algorithms 1 and 2,
//! Theorem 3.7).
//!
//! This is the algorithm with **large messages**: nodes flood their
//! neighbourhoods (Algorithm 2), leaders — the smaller-id endpoint of
//! each augmenting path — enumerate every augmenting path of length
//! `≤ ℓ` in their view, and a Luby MIS over the conflict graph `C_M(ℓ)`
//! (Definition 3.1) is *emulated* on the physical graph: each MIS
//! iteration floods path bids to distance `2ℓ` (two conflicting paths'
//! leaders are at most `2ℓ` apart), winners announce themselves, and
//! conflicting paths die (Lemma 3.5's `O(t·ℓ)` emulation).
//!
//! The messages carry subgraph descriptions and path bids whose size
//! grows with the graph — exactly the `O((|V|+|E|) log n)` width of
//! Lemma 3.4. Experiment E5 contrasts this against the `O(log n)`-bit
//! machinery of §3.2.
//!
//! Per phase `ℓ ∈ {1, 3, …, 2k−1}` the driver repeats passes
//! (gather → `T` MIS iterations → augment winners) until no augmenting
//! path of length `≤ ℓ` remains; every pass augments at least one path
//! (the globally largest bid always wins), so the loop terminates and
//! the phase postcondition of Lemma 3.2 holds exactly.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use dam_congest::{BitSize, Context, ExecPlan, Network, Port, Protocol, SimConfig};
use dam_graph::{EdgeId, Graph, NodeId, Topology};
use rand::RngExt;

use crate::error::CoreError;
use crate::report::{matching_from_registers, AlgorithmReport};

/// A fact in a node's knowledge base, flooded during the gather stage
/// and the MIS emulation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fact {
    /// Node `id` exists; its matched edge (or `None` = free).
    Node {
        /// Node id.
        id: u32,
        /// Its output register.
        matched: Option<u32>,
    },
    /// Edge `id` connects `u` and `v`.
    Edge {
        /// Edge id.
        id: u32,
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
    /// A leader's lottery bid for one of its paths in MIS iteration
    /// `iter`. The path is identified by its canonical node list.
    Bid {
        /// MIS iteration number.
        iter: u32,
        /// Lottery value.
        value: u64,
        /// Canonical node list of the path.
        key: Vec<u32>,
    },
    /// The path `key` won iteration `iter` and joined the MIS.
    Won {
        /// MIS iteration number.
        iter: u32,
        /// Canonical node list of the winner.
        key: Vec<u32>,
    },
}

impl BitSize for Fact {
    fn bit_size(&self) -> usize {
        match self {
            Fact::Node { .. } => 2 * 32 + 1,
            Fact::Edge { .. } => 3 * 32,
            Fact::Bid { key, .. } => 32 + 64 + 32 * key.len(),
            Fact::Won { key, .. } => 32 + 32 * key.len(),
        }
    }
}

/// Messages: knowledge floods and the final path-flip walk.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalMsg {
    /// Newly learned facts (delta flooding).
    Flood(Vec<Fact>),
    /// Augmentation walk along a winner path: node and edge lists.
    Flip {
        /// Path nodes in order.
        nodes: Vec<u32>,
        /// Path edges in order (`edges[i]` connects `nodes[i]`,
        /// `nodes[i+1]`).
        edges: Vec<u32>,
    },
}

impl BitSize for LocalMsg {
    fn bit_size(&self) -> usize {
        match self {
            LocalMsg::Flood(facts) => facts.iter().map(BitSize::bit_size).sum(),
            LocalMsg::Flip { nodes, edges } => 32 * (nodes.len() + edges.len()),
        }
    }
}

/// An augmenting path a leader is responsible for.
#[derive(Debug, Clone)]
struct OwnPath {
    nodes: Vec<u32>,
    edges: Vec<u32>,
    alive: bool,
}

impl OwnPath {
    fn key(&self) -> Vec<u32> {
        canonical(&self.nodes)
    }
}

fn canonical(nodes: &[u32]) -> Vec<u32> {
    if nodes.last() < nodes.first() {
        nodes.iter().rev().copied().collect()
    } else {
        nodes.to_vec()
    }
}

fn intersects(a: &[u32], b: &[u32]) -> bool {
    a.iter().any(|x| b.contains(x))
}

/// Static parameters of one pass.
#[derive(Debug, Clone, Copy)]
pub struct GenericParams {
    /// Maximum path length `ℓ` (odd).
    pub l: usize,
    /// MIS iterations `T` emulated per pass.
    pub mis_iterations: usize,
}

impl GenericParams {
    fn gather_rounds(&self) -> usize {
        self.l + 2
    }
    fn flood_rounds(&self) -> usize {
        2 * self.l + 1
    }
    fn iter_rounds(&self) -> usize {
        2 * self.flood_rounds()
    }
    fn total_rounds(&self) -> usize {
        self.gather_rounds() + self.mis_iterations * self.iter_rounds() + self.l + 2
    }
}

/// Per-node state of one generic-algorithm pass.
#[derive(Debug)]
pub struct GenericNode {
    params: GenericParams,
    register: Option<EdgeId>,
    known: BTreeSet<Fact>,
    fresh: Vec<Fact>,
    paths: Vec<OwnPath>,
    enumerated: bool,
    saw_path: bool,
    augmented: bool,
}

impl GenericNode {
    /// Builds the pass state for node `v` of `g` with register `matched`.
    #[must_use]
    pub fn new(
        params: GenericParams,
        g: &dyn Topology,
        v: NodeId,
        matched: Option<EdgeId>,
    ) -> GenericNode {
        let mut known = BTreeSet::new();
        known.insert(Fact::Node { id: v as u32, matched: matched.map(|e| e as u32) });
        for (_, u, e) in g.incident(v) {
            let (a, b) = g.endpoints(e);
            let _ = u;
            known.insert(Fact::Edge { id: e as u32, u: a as u32, v: b as u32 });
        }
        let fresh = known.iter().cloned().collect();
        GenericNode {
            params,
            register: matched,
            known,
            fresh,
            paths: Vec::new(),
            enumerated: false,
            saw_path: false,
            augmented: false,
        }
    }

    fn absorb(&mut self, facts: Vec<Fact>) {
        for f in facts {
            if self.known.insert(f.clone()) {
                self.fresh.push(f);
            }
        }
    }

    fn flood(&mut self, ctx: &mut Context<'_, LocalMsg>) {
        if self.fresh.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.fresh);
        ctx.broadcast(LocalMsg::Flood(batch));
    }

    /// Enumerates the augmenting paths of length ≤ ℓ led by this node
    /// (smaller-id endpoint, Algorithm 2 step 3) from the knowledge base.
    fn enumerate(&mut self, me: u32) {
        let mut matched_of: BTreeMap<u32, Option<u32>> = BTreeMap::new();
        let mut adj: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
        for f in &self.known {
            match f {
                Fact::Node { id, matched } => {
                    matched_of.insert(*id, *matched);
                }
                Fact::Edge { id, u, v } => {
                    adj.entry(*u).or_default().push((*v, *id));
                    adj.entry(*v).or_default().push((*u, *id));
                }
                _ => {}
            }
        }
        // Only enumerate if my own free-ness allows leading paths.
        if matched_of.get(&me) != Some(&None) {
            return; // I am matched (or unknown): I lead nothing.
        }
        let is_free = |v: u32| matched_of.get(&v) == Some(&None);
        let known_node = |v: u32| matched_of.contains_key(&v);
        let edge_matched = |v: u32, e: u32| matched_of.get(&v) == Some(&Some(e));

        let mut nodes = vec![me];
        let mut edges: Vec<u32> = Vec::new();
        let mut out: Vec<OwnPath> = Vec::new();
        // The argument list mirrors the recursion state of the path
        // enumeration; bundling it into a struct would only rename it.
        #[allow(clippy::too_many_arguments)]
        fn dfs(
            v: u32,
            l: usize,
            nodes: &mut Vec<u32>,
            edges: &mut Vec<u32>,
            adj: &BTreeMap<u32, Vec<(u32, u32)>>,
            known_node: &dyn Fn(u32) -> bool,
            is_free: &dyn Fn(u32) -> bool,
            edge_matched: &dyn Fn(u32, u32) -> bool,
            me: u32,
            out: &mut Vec<OwnPath>,
        ) {
            if edges.len() >= l {
                return;
            }
            let need_matched = edges.len() % 2 == 1;
            if let Some(arcs) = adj.get(&v) {
                for &(u, e) in arcs {
                    if nodes.contains(&u) || !known_node(u) {
                        continue;
                    }
                    // The alternation status of edge e at v: matched iff
                    // it is v's (equivalently u's) matched edge.
                    let m = edge_matched(v, e) || edge_matched(u, e);
                    if m != need_matched {
                        continue;
                    }
                    nodes.push(u);
                    edges.push(e);
                    if edges.len() % 2 == 1 && is_free(u) && me < u {
                        out.push(OwnPath {
                            nodes: nodes.clone(),
                            edges: edges.clone(),
                            alive: true,
                        });
                    }
                    dfs(u, l, nodes, edges, adj, known_node, is_free, edge_matched, me, out);
                    nodes.pop();
                    edges.pop();
                }
            }
        }
        dfs(
            me,
            self.params.l,
            &mut nodes,
            &mut edges,
            &adj,
            &known_node,
            &is_free,
            &edge_matched,
            me,
            &mut out,
        );
        self.saw_path = !out.is_empty();
        self.paths = out;
        self.enumerated = true;
    }

    /// Facts relevant to MIS iteration `iter`.
    fn bids_for(&self, iter: u32) -> Vec<(u64, Vec<u32>)> {
        self.known
            .iter()
            .filter_map(|f| match f {
                Fact::Bid { iter: i, value, key } if *i == iter => Some((*value, key.clone())),
                _ => None,
            })
            .collect()
    }

    fn winners_for(&self, iter: u32) -> Vec<Vec<u32>> {
        self.known
            .iter()
            .filter_map(|f| match f {
                Fact::Won { iter: i, key } if *i == iter => Some(key.clone()),
                _ => None,
            })
            .collect()
    }

    fn flip_from(&mut self, ctx: &mut Context<'_, LocalMsg>, nodes: &[u32], edges: &[u32]) {
        let me = ctx.id() as u32;
        let idx = nodes.iter().position(|&x| x == me).expect("I am on the path");
        // Pairing (0,1), (2,3), ...: node at even index matches forward.
        let my_edge = if idx % 2 == 0 { edges[idx] } else { edges[idx - 1] };
        self.register = Some(my_edge as EdgeId);
        self.augmented = true;
        if idx + 1 < nodes.len() {
            // Forward along the connecting edge.
            let next_edge = edges[idx];
            let port = (0..ctx.degree())
                .find(|&p| ctx.edge(p) == next_edge as EdgeId)
                .expect("path edge is incident");
            ctx.send(port, LocalMsg::Flip { nodes: nodes.to_vec(), edges: edges.to_vec() });
        }
    }
}

impl Protocol for GenericNode {
    type Msg = LocalMsg;
    type Output = crate::bipartite::PhaseOutput;

    fn on_start(&mut self, ctx: &mut Context<'_, LocalMsg>) {
        self.flood(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, LocalMsg>, inbox: &[(Port, LocalMsg)]) {
        let mut flips: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        for (_, msg) in inbox {
            match msg {
                LocalMsg::Flood(facts) => self.absorb(facts.clone()),
                LocalMsg::Flip { nodes, edges } => flips.push((nodes.clone(), edges.clone())),
            }
        }
        let round = ctx.round();
        let p = self.params;
        let gather_end = p.gather_rounds();
        let mis_end = gather_end + p.mis_iterations * p.iter_rounds();

        if round < gather_end {
            self.flood(ctx);
        } else if round < mis_end {
            let within = round - gather_end;
            let iter = (within / p.iter_rounds()) as u32;
            let phase_round = within % p.iter_rounds();
            if phase_round == 0 {
                // Start of iteration: enumerate once, then bid for every
                // living path.
                if !self.enumerated {
                    self.enumerate(ctx.id() as u32);
                }
                // Discard stale flood residue from previous sub-stages.
                self.fresh.clear();
                for path in &self.paths {
                    if path.alive {
                        let value: u64 = ctx.rng().random();
                        let f = Fact::Bid { iter, value, key: path.key() };
                        if self.known.insert(f.clone()) {
                            self.fresh.push(f);
                        }
                    }
                }
                self.flood(ctx);
            } else if phase_round < p.flood_rounds() {
                self.flood(ctx);
            } else if phase_round == p.flood_rounds() {
                // Bid flood complete: decide winners among my paths.
                let bids = self.bids_for(iter);
                let mut new_won: Vec<Fact> = Vec::new();
                for path in &mut self.paths {
                    if !path.alive {
                        continue;
                    }
                    let key = path.key();
                    let mine = bids
                        .iter()
                        .find(|(_, k)| *k == key)
                        .map(|(v, k)| (*v, k.clone()))
                        .expect("my own bid is known");
                    let beaten = bids.iter().any(|(v, k)| {
                        *k != key && intersects(k, &path.nodes) && (*v, k) > (mine.0, &mine.1)
                    });
                    if !beaten {
                        path.alive = false; // decided: in the MIS
                        new_won.push(Fact::Won { iter, key: key.clone() });
                        // Remember for the augment stage.
                        path.nodes.shrink_to_fit();
                    }
                }
                // Mark winners distinctly: collect them in `winners`.
                for f in new_won {
                    if self.known.insert(f.clone()) {
                        self.fresh.push(f);
                    }
                }
                self.flood(ctx);
            } else {
                // Won flood rounds; at the last one, kill conflicting
                // paths.
                self.flood(ctx);
                if phase_round == p.iter_rounds() - 1 {
                    let winners = self.winners_for(iter);
                    for path in &mut self.paths {
                        if path.alive
                            && winners
                                .iter()
                                .any(|w| *w != path.key() && intersects(w, &path.nodes))
                        {
                            path.alive = false;
                        }
                    }
                }
            }
        } else {
            // Augment stage: winner leaders start the flip walks; nodes
            // forward them.
            if round == mis_end {
                let me = ctx.id() as u32;
                let winner_keys: HashSet<Vec<u32>> = self
                    .known
                    .iter()
                    .filter_map(|f| match f {
                        Fact::Won { key, .. } => Some(key.clone()),
                        _ => None,
                    })
                    .collect();
                let my_winners: Vec<OwnPath> = self
                    .paths
                    .iter()
                    .filter(|p| winner_keys.contains(&p.key()) && p.nodes[0] == me)
                    .cloned()
                    .collect();
                debug_assert!(my_winners.len() <= 1, "winner paths are disjoint, sharing me");
                for w in my_winners {
                    self.flip_from(ctx, &w.nodes, &w.edges);
                }
            }
            for (nodes, edges) in flips {
                self.flip_from(ctx, &nodes, &edges);
            }
            if round >= p.total_rounds() {
                ctx.halt();
            }
        }
    }

    fn into_output(self) -> crate::bipartite::PhaseOutput {
        crate::bipartite::PhaseOutput {
            matched_edge: self.register,
            saw_path: self.saw_path,
            augmented: self.augmented,
            leader_paths: self.paths.len() as f64,
        }
    }
}

/// Configuration for [`generic_mcm`].
#[derive(Debug, Clone, Copy)]
pub struct GenericMcmConfig {
    /// Approximation parameter: phases run `ℓ = 1, 3, …, 2k−1`, giving a
    /// `(1−1/(k+1))`-MCM (Algorithm 1's guarantee with `k` phases).
    pub k: usize,
    /// Master seed.
    pub seed: u64,
    /// Luby iterations emulated per pass (`None` = `2⌈log₂(n+1)⌉ + 2`).
    pub mis_iterations: Option<usize>,
    /// Safety cap on passes per phase.
    pub max_passes_per_phase: usize,
}

impl Default for GenericMcmConfig {
    fn default() -> GenericMcmConfig {
        GenericMcmConfig { k: 3, seed: 0, mis_iterations: None, max_passes_per_phase: usize::MAX }
    }
}

/// Runs the LOCAL-model generic algorithm (Theorem 3.7) on an arbitrary
/// graph.
///
/// # Errors
/// Simulation or register-consistency failure.
///
/// # Example
/// ```
/// use dam_core::generic::{generic_mcm, GenericMcmConfig};
/// use dam_graph::{blossom, generators};
///
/// let g = generators::cycle(12);
/// let r = generic_mcm(&g, &GenericMcmConfig { k: 2, seed: 3, ..Default::default() }).unwrap();
/// assert!(3 * r.matching.size() >= 2 * blossom::maximum_matching_size(&g));
/// ```
pub fn generic_mcm(g: &Graph, config: &GenericMcmConfig) -> Result<AlgorithmReport, CoreError> {
    let n = g.node_count();
    let mis_iterations = config
        .mis_iterations
        .unwrap_or_else(|| 2 * (usize::BITS - n.max(1).leading_zeros()) as usize + 2);
    let mut net = Network::new(g, SimConfig::local().seed(config.seed));
    let mut registers: Vec<Option<EdgeId>> = vec![None; n];
    let mut passes = 0usize;
    let mut l = 1usize;
    while l < 2 * config.k {
        let params = GenericParams { l, mis_iterations };
        let mut phase_passes = 0usize;
        loop {
            let out = net.execute(
                |v, graph| GenericNode::new(params, graph, v, registers[v]),
                &ExecPlan::default(),
                None,
            )?;
            passes += 1;
            phase_passes += 1;
            let mut any = false;
            for (v, o) in out.outputs.iter().enumerate() {
                registers[v] = o.matched_edge;
                any |= o.saw_path;
            }
            matching_from_registers(g, &registers)?;
            if !any || phase_passes >= config.max_passes_per_phase {
                break;
            }
        }
        l += 2;
    }
    let matching = matching_from_registers(g, &registers)?;
    Ok(AlgorithmReport { matching, stats: net.totals(), iterations: passes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_graph::{blossom, generators};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_ratio(g: &Graph, k: usize, seed: u64) {
        let r = generic_mcm(g, &GenericMcmConfig { k, seed, ..Default::default() }).unwrap();
        r.matching.validate(g).unwrap();
        let opt = blossom::maximum_matching_size(g);
        // k phases exhaust paths up to 2k−1 ⇒ (1 − 1/(k+1)) by Lemma 3.3.
        assert!(
            (k + 1) * r.matching.size() >= k * opt,
            "{} < (1-1/{})·{opt}",
            r.matching.size(),
            k + 1
        );
    }

    #[test]
    fn works_on_general_graphs() {
        // The generic algorithm handles odd cycles and blossomy
        // structures without any bipartite reduction.
        assert_ratio(&generators::cycle(9), 2, 1);
        assert_ratio(&generators::flower(2), 2, 2);
        assert_ratio(&generators::complete(7), 2, 3);
    }

    #[test]
    fn ratio_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(111);
        for trial in 0..5 {
            let g = generators::gnp(16, 0.2, &mut rng);
            assert_ratio(&g, 2, trial);
        }
    }

    #[test]
    fn exhausts_single_edges_like_maximal_matching() {
        let mut rng = StdRng::seed_from_u64(112);
        let g = generators::gnp(18, 0.2, &mut rng);
        let r = generic_mcm(&g, &GenericMcmConfig { k: 1, seed: 0, ..Default::default() }).unwrap();
        assert!(dam_graph::maximal::is_maximal(&g, &r.matching));
    }

    #[test]
    fn long_paths_resolved_exactly() {
        // P6 components: k = 3 reaches the optimum.
        let g = generators::disjoint_paths(3, 5);
        let r = generic_mcm(&g, &GenericMcmConfig { k: 3, seed: 4, ..Default::default() }).unwrap();
        assert_eq!(r.matching.size(), blossom::maximum_matching_size(&g));
    }

    #[test]
    fn message_sizes_blow_up_with_density() {
        // Lemma 3.4: LOCAL gather messages carry subgraphs. On denser
        // graphs the maximum message is much wider.
        let mut rng = StdRng::seed_from_u64(113);
        let sparse = generators::gnp(24, 0.08, &mut rng);
        let dense = generators::gnp(24, 0.5, &mut rng);
        let cfg = GenericMcmConfig { k: 2, seed: 1, ..Default::default() };
        let r_sparse = generic_mcm(&sparse, &cfg).unwrap();
        let r_dense = generic_mcm(&dense, &cfg).unwrap();
        assert!(
            r_dense.stats.stats.max_message_bits > 2 * r_sparse.stats.stats.max_message_bits,
            "dense {} vs sparse {}",
            r_dense.stats.stats.max_message_bits,
            r_sparse.stats.stats.max_message_bits
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut rng = StdRng::seed_from_u64(114);
        let g = generators::gnp(14, 0.25, &mut rng);
        let cfg = GenericMcmConfig { k: 2, seed: 21, ..Default::default() };
        let a = generic_mcm(&g, &cfg).unwrap();
        let b = generic_mcm(&g, &cfg).unwrap();
        assert_eq!(a.matching.to_edge_vec(), b.matching.to_edge_vec());
    }
}
