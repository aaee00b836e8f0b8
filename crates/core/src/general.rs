//! §3.3: `(1−1/k)`-MCM in **general** graphs (Algorithm 4,
//! Theorem 3.15).
//!
//! Each iteration every node colours itself red or blue with probability
//! ½. The bichromatic subgraph `Ĝ` — free nodes plus nodes whose matching
//! edge is bichromatic, connected by bichromatic edges — is bipartite
//! (red = `X`, blue = `Y`), so the §3.2 machinery finds a maximal set of
//! disjoint augmenting paths of length ≤ `2k−1` inside it
//! (`Aug(Ĝ, M, 2k−1)`). Any augmenting path w.r.t. `M∩Ê` in `Ĝ` is an
//! augmenting path w.r.t. `M` in `G` (Observation 3.11), and a length-`ℓ`
//! path survives the colouring with probability `2^{−ℓ}`
//! (Observation 3.12), so `2^{2k+1}(k+1)·ln k` iterations reach a
//! `(1−1/k)`-MCM w.h.p. (Lemma 3.14).
//!
//! The fixed iteration count is available via [`paper_iteration_bound`];
//! the default [`IterationPolicy::Adaptive`] stops early once iterations
//! stop making progress (convergence detection a deployment would
//! implement with an `O(Diameter)` converge-cast — every experiment
//! labels which policy produced its numbers).

use dam_congest::{BitSize, Context, ExecPlan, Network, Port, Protocol, SimConfig};
use dam_graph::{EdgeId, Graph, Side};
use rand::RngExt;

use crate::bipartite::{exhaust_length, PhaseSide};
use crate::error::CoreError;
use crate::report::{matching_from_registers, AlgorithmReport, IterationPolicy};

/// Messages of the two-round colouring exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColorMsg {
    /// "My coin is red."
    Color {
        /// Red (`X`) or blue (`Y`).
        red: bool,
    },
    /// "I belong to `V̂`" (free, or matched over a bichromatic edge).
    InVhat {
        /// Membership flag.
        member: bool,
    },
}

impl BitSize for ColorMsg {
    fn bit_size(&self) -> usize {
        2
    }
}

/// Output of the colouring exchange, per node.
#[derive(Debug, Clone)]
pub struct ColorOutput {
    /// `Some(X)` for red `V̂` members, `Some(Y)` for blue ones, `None`
    /// outside `V̂`.
    pub side: PhaseSide,
    /// Port mask of `Ê` (bichromatic edges between `V̂` members).
    pub live: Vec<bool>,
}

/// The 2-round colouring protocol (lines 3–4 of Algorithm 4).
#[derive(Debug)]
pub struct ColorNode {
    matched_port: Option<Port>,
    red: bool,
    neighbor_red: Vec<bool>,
    neighbor_vhat: Vec<bool>,
    in_vhat: bool,
}

impl ColorNode {
    /// Fresh state; `matched_port` is the node's current matching port.
    #[must_use]
    pub fn new(degree: usize, matched_port: Option<Port>) -> ColorNode {
        ColorNode {
            matched_port,
            red: false,
            neighbor_red: vec![false; degree],
            neighbor_vhat: vec![false; degree],
            in_vhat: false,
        }
    }
}

impl Protocol for ColorNode {
    type Msg = ColorMsg;
    type Output = ColorOutput;

    fn on_start(&mut self, ctx: &mut Context<'_, ColorMsg>) {
        self.red = ctx.rng().random_bool(0.5);
        ctx.broadcast(ColorMsg::Color { red: self.red });
    }

    fn on_round(&mut self, ctx: &mut Context<'_, ColorMsg>, inbox: &[(Port, ColorMsg)]) {
        match ctx.round() {
            1 => {
                for &(port, msg) in inbox {
                    if let ColorMsg::Color { red } = msg {
                        self.neighbor_red[port] = red;
                    }
                }
                self.in_vhat = match self.matched_port {
                    None => true,
                    Some(p) => self.neighbor_red[p] != self.red,
                };
                ctx.broadcast(ColorMsg::InVhat { member: self.in_vhat });
            }
            _ => {
                for &(port, msg) in inbox {
                    if let ColorMsg::InVhat { member } = msg {
                        self.neighbor_vhat[port] = member;
                    }
                }
                ctx.halt();
            }
        }
    }

    fn into_output(self) -> ColorOutput {
        let live = if self.in_vhat {
            (0..self.neighbor_red.len())
                .map(|p| self.neighbor_vhat[p] && self.neighbor_red[p] != self.red)
                .collect()
        } else {
            vec![false; self.neighbor_red.len()]
        };
        let side = self.in_vhat.then_some(if self.red { Side::X } else { Side::Y });
        ColorOutput { side, live }
    }
}

/// The paper's worst-case iteration count `⌈2^{2k+1}(k+1)·ln k⌉`
/// (Algorithm 4, line 2). Grows very fast: 67 for `k = 2`, 563 for
/// `k = 3`, 3550 for `k = 4`.
#[must_use]
pub fn paper_iteration_bound(k: usize) -> usize {
    assert!(k >= 2, "Algorithm 4 needs k >= 2");
    let k_f = k as f64;
    (2f64.powi(2 * k as i32 + 1) * (k_f + 1.0) * k_f.ln()).ceil().max(1.0) as usize
}

/// Configuration for [`general_mcm`].
#[derive(Debug, Clone, Copy)]
pub struct GeneralMcmConfig {
    /// Approximation parameter: the result is a `(1−1/k)`-MCM w.h.p.
    pub k: usize,
    /// Master seed.
    pub seed: u64,
    /// Outer-iteration policy (line 2 of Algorithm 4).
    pub policy: IterationPolicy,
    /// CONGEST budget: `congest_words · log₂ n` bits per message.
    pub congest_words: usize,
    /// Round-cost accounting.
    pub cost: dam_congest::CostModel,
}

impl Default for GeneralMcmConfig {
    fn default() -> GeneralMcmConfig {
        GeneralMcmConfig {
            k: 3,
            seed: 0,
            policy: IterationPolicy::Adaptive { patience: 12, cap: 100_000 },
            congest_words: 4,
            cost: dam_congest::CostModel::Unit,
        }
    }
}

impl GeneralMcmConfig {
    /// The faithful configuration: the paper's fixed iteration count.
    #[must_use]
    pub fn faithful(k: usize, seed: u64) -> GeneralMcmConfig {
        GeneralMcmConfig {
            k,
            seed,
            policy: IterationPolicy::Fixed(paper_iteration_bound(k)),
            ..GeneralMcmConfig::default()
        }
    }
}

/// Computes a `(1−1/k)`-approximate maximum-cardinality matching of an
/// arbitrary graph (Algorithm 4, Theorem 3.15).
///
/// # Errors
/// Simulation or register-consistency failure.
///
/// # Example
/// ```
/// use dam_core::general::{general_mcm, GeneralMcmConfig};
/// use dam_graph::generators;
///
/// let g = generators::cycle(30); // even ring: perfect matching = 15
/// let r = general_mcm(&g, &GeneralMcmConfig { k: 3, seed: 5, ..Default::default() }).unwrap();
/// assert!(r.matching.size() >= 10); // ≥ (1 - 1/3) · 15
/// ```
pub fn general_mcm(g: &Graph, config: &GeneralMcmConfig) -> Result<AlgorithmReport, CoreError> {
    assert!(config.k >= 1, "k must be positive");
    let n = g.node_count();
    let sim = SimConfig::congest_for(n, config.congest_words).seed(config.seed).cost(config.cost);
    let mut net = Network::new(g, sim);
    let mut registers: Vec<Option<EdgeId>> = vec![None; n];
    let mut iterations = 0usize;
    let mut fruitless = 0usize;
    let cap = config.policy.cap();
    while iterations < cap {
        iterations += 1;
        // Lines 3–4: colour and carve out Ĝ.
        let colors = net.execute(
            |v, graph| {
                let matched_port = registers[v]
                    .map(|e| graph.port_of_edge(v, e).expect("register points at incident edge"));
                ColorNode::new(graph.degree(v), matched_port)
            },
            &ExecPlan::default(),
            None,
        )?;
        let sides: Vec<PhaseSide> = colors.outputs.iter().map(|o| o.side).collect();
        let live: Vec<Vec<bool>> = colors.outputs.into_iter().map(|o| o.live).collect();
        // Line 5: Aug(Ĝ, M, 2k−1), shortest lengths first.
        let before = registers.iter().flatten().count();
        let mut l = 1;
        while l < 2 * config.k {
            exhaust_length(&mut net, g, &sides, &live, &mut registers, l, usize::MAX)?;
            l += 2;
        }
        let after = registers.iter().flatten().count();
        match config.policy {
            IterationPolicy::Fixed(_) => {}
            IterationPolicy::Adaptive { patience, .. } => {
                if after == before {
                    fruitless += 1;
                    if fruitless >= patience {
                        break;
                    }
                } else {
                    fruitless = 0;
                }
            }
        }
    }
    let matching = matching_from_registers(g, &registers)?;
    Ok(AlgorithmReport { matching, stats: net.totals(), iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_graph::{blossom, generators};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_ratio(g: &Graph, k: usize, seed: u64) {
        let r = general_mcm(g, &GeneralMcmConfig { k, seed, ..Default::default() }).unwrap();
        r.matching.validate(g).unwrap();
        let opt = blossom::maximum_matching_size(g);
        assert!(
            r.matching.size() as f64 >= (1.0 - 1.0 / k as f64) * opt as f64 - 1e-9,
            "{} < (1-1/{k})·{opt}",
            r.matching.size()
        );
    }

    #[test]
    fn iteration_bound_formula() {
        assert_eq!(paper_iteration_bound(2), 67);
        assert_eq!(paper_iteration_bound(3), 563);
        assert!(paper_iteration_bound(4) > 3000);
    }

    #[test]
    fn ratio_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(61);
        for trial in 0..6 {
            let g = generators::gnp(24, 0.15, &mut rng);
            assert_ratio(&g, 2, trial);
            assert_ratio(&g, 3, trial);
        }
    }

    #[test]
    fn handles_odd_structures() {
        assert_ratio(&generators::cycle(9), 3, 1);
        assert_ratio(&generators::flower(3), 3, 2);
        assert_ratio(&generators::complete(9), 2, 3);
    }

    #[test]
    fn even_ring_approximation() {
        // Footnote 1: exact needs Ω(n), but (1−1/k) is reachable fast.
        let g = generators::cycle(40);
        assert_ratio(&g, 4, 7);
    }

    #[test]
    fn colouring_produces_valid_bipartition() {
        let mut rng = StdRng::seed_from_u64(71);
        let g = generators::gnp(30, 0.2, &mut rng);
        let mut net = Network::new(&g, SimConfig::local().seed(3));
        let out = net
            .execute(|v, graph| ColorNode::new(graph.degree(v), None), &ExecPlan::default(), None)
            .unwrap();
        for v in g.nodes() {
            let o = &out.outputs[v];
            assert!(o.side.is_some(), "free nodes always join V̂");
            for (p, _, _) in g.incident(v) {
                if o.live[p] {
                    let u = g.port(v, p).0;
                    // Live edges are bichromatic and mutual.
                    assert_ne!(out.outputs[v].side, out.outputs[u].side);
                    let q = g.port_of_edge(u, g.port(v, p).1).unwrap();
                    assert!(out.outputs[u].live[q], "liveness must be symmetric");
                }
            }
        }
    }

    #[test]
    fn faithful_policy_matches_paper_bound() {
        let g = generators::path(6);
        let cfg = GeneralMcmConfig::faithful(2, 9);
        let r = general_mcm(&g, &cfg).unwrap();
        assert_eq!(r.iterations, paper_iteration_bound(2));
        assert_eq!(r.matching.size(), blossom::maximum_matching_size(&g));
    }

    #[test]
    fn deterministic_per_seed() {
        let mut rng = StdRng::seed_from_u64(81);
        let g = generators::gnp(18, 0.2, &mut rng);
        let cfg = GeneralMcmConfig { k: 2, seed: 13, ..Default::default() };
        let a = general_mcm(&g, &cfg).unwrap();
        let b = general_mcm(&g, &cfg).unwrap();
        assert_eq!(a.matching.to_edge_vec(), b.matching.to_edge_vec());
    }

    #[test]
    fn empty_graph() {
        let g = dam_graph::Graph::builder(3).build().unwrap();
        let r = general_mcm(&g, &GeneralMcmConfig::default()).unwrap();
        assert_eq!(r.matching.size(), 0);
    }
}
