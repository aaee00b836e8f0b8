//! Distributed `½`-approximate maximum-weight **b-matching** — the
//! capacitated generalization (§1's "c-matching" pointer,
//! Koufogiannakis & Young 2011 give a `½` in `O(log n)`; this module
//! reaches the same guarantee with the locally-heaviest-edge rule).
//!
//! Extends [`crate::weighted::local_max`]: a node with remaining
//! capacity points at its heaviest live candidate edge; mutually picked
//! edges join the `b`-matching and *consume one capacity unit at each
//! endpoint*; a node announces saturation when its capacity hits zero,
//! killing its remaining edges. The fixpoint is the greedy `b`-matching
//! of the `(weight, id)` order, hence a `½`-approximation (greedy over a
//! 2-extendible system), matching the sequential
//! [`dam_graph::bmatching::greedy_b_matching`] exactly — which is how
//! the tests check it.

use dam_congest::{BitSize, Context, ExecPlan, Network, Port, Protocol, SimConfig};
use dam_graph::bmatching::BMatching;
use dam_graph::{EdgeId, Graph};

use crate::error::CoreError;

/// Protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BPickMsg {
    /// "You are my heaviest remaining candidate."
    Pick,
    /// "My capacity is exhausted — drop our edges."
    Saturated,
}

impl BitSize for BPickMsg {
    fn bit_size(&self) -> usize {
        1
    }
}

/// Per-node state of the capacitated local-max protocol.
#[derive(Debug)]
pub struct BLocalMaxNode {
    weights: Vec<Option<f64>>,
    capacity: usize,
    alive: Vec<bool>,
    picked: Option<Port>,
    chosen: Vec<EdgeId>,
    announced_saturation: bool,
}

impl BLocalMaxNode {
    /// Fresh state over candidate weights with the given capacity.
    #[must_use]
    pub fn new(weights: Vec<Option<f64>>, capacity: usize) -> BLocalMaxNode {
        let degree = weights.len();
        BLocalMaxNode {
            weights,
            capacity,
            alive: vec![true; degree],
            picked: None,
            chosen: Vec::new(),
            announced_saturation: false,
        }
    }

    fn saturated(&self) -> bool {
        self.chosen.len() >= self.capacity
    }

    fn best_port(&self, ctx: &Context<'_, BPickMsg>) -> Option<Port> {
        let mut best: Option<(f64, EdgeId, Port)> = None;
        for (p, w) in self.weights.iter().enumerate() {
            if !self.alive[p] {
                continue;
            }
            if let Some(w) = *w {
                let e = ctx.edge(p);
                if best.is_none_or(|(bw, be, _)| (w, e) > (bw, be)) {
                    best = Some((w, e, p));
                }
            }
        }
        best.map(|(_, _, p)| p)
    }

    fn step(&mut self, ctx: &mut Context<'_, BPickMsg>, inbox: &[(Port, BPickMsg)]) {
        let mut picks: Vec<Port> = Vec::new();
        for &(port, msg) in inbox {
            match msg {
                BPickMsg::Saturated => self.alive[port] = false,
                BPickMsg::Pick => picks.push(port),
            }
        }
        if ctx.round() % 2 == 0 {
            if self.saturated() {
                if !self.announced_saturation {
                    self.announced_saturation = true;
                    for p in 0..self.alive.len() {
                        if self.alive[p] {
                            ctx.send(p, BPickMsg::Saturated);
                        }
                    }
                }
                ctx.halt();
                return;
            }
            match self.best_port(ctx) {
                None => ctx.halt(),
                Some(p) => {
                    self.picked = Some(p);
                    ctx.send(p, BPickMsg::Pick);
                }
            }
        } else if let Some(p) = self.picked.take() {
            if picks.contains(&p) {
                // Mutual pick: the edge joins; it leaves the candidate
                // set at both endpoints (each saw the pick).
                self.chosen.push(ctx.edge(p));
                self.alive[p] = false;
            }
        }
    }
}

impl Protocol for BLocalMaxNode {
    type Msg = BPickMsg;
    /// The edges this node selected (its side of the `b`-matching).
    type Output = Vec<EdgeId>;

    fn on_start(&mut self, ctx: &mut Context<'_, BPickMsg>) {
        self.step(ctx, &[]);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, BPickMsg>, inbox: &[(Port, BPickMsg)]) {
        self.step(ctx, inbox);
    }

    fn into_output(self) -> Vec<EdgeId> {
        self.chosen
    }
}

/// The result of a distributed `b`-matching run.
#[derive(Debug, Clone)]
pub struct BMatchingReport {
    /// The computed (validated) `b`-matching.
    pub b_matching: BMatching,
    /// Cost accounting.
    pub stats: dam_congest::RunStats,
}

/// Runs the distributed `½`-approximate maximum-weight `b`-matching.
///
/// # Errors
/// Simulation failure, endpoint disagreement, or capacity violation.
///
/// # Panics
/// Panics if `capacities.len() != g.node_count()`.
///
/// # Example
/// ```
/// use dam_core::weighted::b_local_max::b_local_max;
/// use dam_graph::generators;
///
/// let g = generators::star(5); // centre 0 with 4 leaves
/// let caps = vec![2, 1, 1, 1, 1];
/// let r = b_local_max(&g, &caps, 1).unwrap();
/// assert_eq!(r.b_matching.size(), 2); // centre serves two leaves
/// ```
pub fn b_local_max(
    g: &Graph,
    capacities: &[usize],
    seed: u64,
) -> Result<BMatchingReport, CoreError> {
    assert_eq!(capacities.len(), g.node_count(), "one capacity per node");
    let mut net = Network::new(g, SimConfig::congest_for(g.node_count(), 4).seed(seed));
    let out = net.execute(
        |v, graph| {
            let weights = graph.incident(v).map(|(_, _, e)| Some(graph.weight(e))).collect();
            BLocalMaxNode::new(weights, capacities[v])
        },
        &ExecPlan::default(),
        None,
    )?;
    // Cross-validate: each chosen edge must be chosen by both endpoints.
    let mut bm = BMatching::new(g, capacities.to_vec());
    for (v, chosen) in out.outputs.iter().enumerate() {
        for &e in chosen {
            let u = g.other_endpoint(e, v);
            if !out.outputs[u].contains(&e) {
                return Err(CoreError::Graph(dam_graph::GraphError::InconsistentMatching {
                    node: u,
                }));
            }
            if v < u {
                bm.add(g, e).map_err(CoreError::Graph)?;
            }
        }
    }
    bm.validate(g).map_err(CoreError::Graph)?;
    Ok(BMatchingReport { b_matching: bm, stats: out.stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_graph::bmatching::{brute_force_b_matching, greedy_b_matching, is_b_maximal};
    use dam_graph::generators;
    use dam_graph::weights::{randomize_weights, WeightDist};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn matches_sequential_greedy_exactly() {
        let mut rng = StdRng::seed_from_u64(61);
        for trial in 0..10 {
            let base = generators::gnp(18, 0.25, &mut rng);
            let g = randomize_weights(&base, WeightDist::Uniform { lo: 0.1, hi: 6.0 }, &mut rng);
            let caps: Vec<usize> = (0..g.node_count()).map(|_| rng.random_range(1..=3)).collect();
            let dist = b_local_max(&g, &caps, trial).unwrap();
            let seq = greedy_b_matching(&g, &caps);
            assert_eq!(
                dist.b_matching.edges().collect::<Vec<_>>(),
                seq.edges().collect::<Vec<_>>(),
                "trial {trial}"
            );
            assert!(is_b_maximal(&g, &dist.b_matching));
        }
    }

    #[test]
    fn half_approximation_vs_brute_force() {
        let mut rng = StdRng::seed_from_u64(62);
        for trial in 0..12 {
            let base = generators::gnp(8, 0.45, &mut rng);
            let g = randomize_weights(&base, WeightDist::Integer { max: 10 }, &mut rng);
            let caps: Vec<usize> = (0..g.node_count()).map(|_| rng.random_range(1..=2)).collect();
            let dist = b_local_max(&g, &caps, trial).unwrap();
            let opt = brute_force_b_matching(&g, &caps);
            assert!(
                dist.b_matching.weight(&g) >= 0.5 * opt.weight(&g) - 1e-9,
                "trial {trial}: {} vs {}",
                dist.b_matching.weight(&g),
                opt.weight(&g)
            );
        }
    }

    #[test]
    fn capacity_one_reduces_to_matching() {
        let mut rng = StdRng::seed_from_u64(63);
        let base = generators::gnp(16, 0.3, &mut rng);
        let g = randomize_weights(&base, WeightDist::Uniform { lo: 0.5, hi: 3.0 }, &mut rng);
        let caps = vec![1usize; g.node_count()];
        let bm = b_local_max(&g, &caps, 5).unwrap();
        let plain = crate::weighted::local_max::local_max_mwm(&g, 5).unwrap();
        assert_eq!(bm.b_matching.edges().collect::<Vec<_>>(), plain.matching.to_edge_vec());
    }

    #[test]
    fn zero_capacity_nodes_select_nothing() {
        let g = generators::complete(5);
        let caps = vec![0usize; 5];
        let r = b_local_max(&g, &caps, 1).unwrap();
        assert_eq!(r.b_matching.size(), 0);
    }

    #[test]
    fn messages_fit_congest() {
        let g = generators::complete(10);
        let r = b_local_max(&g, &[3; 10], 2).unwrap();
        assert_eq!(r.stats.violations, 0);
        assert_eq!(r.stats.max_message_bits, 1);
    }
}
