//! The distributed auction algorithm for bipartite maximum-weight
//! matching (Bertsekas 1988).
//!
//! A natural companion to the paper's §1 job/server example: *bidders*
//! (the `X` side) bid for their most profitable *object* (`Y` side) at
//! current prices, raising the price by their profit margin plus `ε`;
//! objects always belong to their highest bidder. With ε-scaling this is
//! the classical price-based alternative to augmenting-path algorithms:
//! upon termination the assignment is within `n·ε` of the maximum weight
//! assignment (and exact for integer weights when `ε < 1/n`).
//!
//! The protocol here is the synchronous Jacobi-style auction: each round
//! every unassigned bidder bids, each object processes its bids and
//! answers its previous owner with an eviction notice. Messages carry a
//! price/bid (64-bit) — CONGEST-friendly. Round complexity is
//! pseudo-polynomial (`O(n·w_max/ε)` in the worst case), which is
//! exactly the trade-off against Theorem 3.10's machinery: better
//! weights per round on easy prices, no worst-case round guarantee —
//! measured, not hidden.
//!
//! Unlike true matching algorithms the auction may leave a bidder
//! unassigned only when it runs out of profitable objects, so the result
//! maximizes weight over assignments that leave no `ε`-profitable bid
//! unplayed.

use dam_congest::{BitSize, Context, ExecPlan, Network, Port, Protocol, SimConfig};
use dam_graph::{EdgeId, Graph, GraphError, Side};
use rand::RngExt;

use crate::error::CoreError;
use crate::report::{matching_from_registers, AlgorithmReport};

/// Protocol messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AuctionMsg {
    /// A bidder offers `price` for the object behind the port.
    Bid {
        /// Offered price.
        price: f64,
    },
    /// The object evicts its previous owner; `price` is the new price.
    Evicted {
        /// The price that outbid the owner.
        price: f64,
    },
    /// The object confirms the bidder as its new owner at `price`.
    Won {
        /// The price paid.
        price: f64,
    },
    /// The object announces its current price (so outbid or waiting
    /// bidders re-evaluate their profits).
    Price {
        /// Current asking price.
        price: f64,
    },
}

impl BitSize for AuctionMsg {
    fn bit_size(&self) -> usize {
        2 + 64
    }
}

/// Per-node state.
#[derive(Debug)]
enum Role {
    /// An `X`-side bidder.
    Bidder {
        /// Latest known price per port.
        prices: Vec<f64>,
        /// The object (port) currently holding our bid, if assigned.
        assigned: Option<Port>,
        /// Whether anything changed since the last bid (event-driven
        /// bidding: no change, no message).
        dirty: bool,
    },
    /// A `Y`-side object.
    Object {
        /// Current price.
        price: f64,
        /// Current owner (port), if any.
        owner: Option<Port>,
    },
}

/// The auction protocol node.
#[derive(Debug)]
pub struct AuctionNode {
    role: Role,
    eps: f64,
    deadline: usize,
    matched_edge: Option<EdgeId>,
}

impl AuctionNode {
    /// Builds the state for a node on side `side` with the given bid
    /// increment and round deadline.
    #[must_use]
    pub fn new(side: Side, degree: usize, eps: f64, deadline: usize) -> AuctionNode {
        let role = match side {
            Side::X => Role::Bidder { prices: vec![0.0; degree], assigned: None, dirty: true },
            Side::Y => Role::Object { price: 0.0, owner: None },
        };
        AuctionNode { role, eps, deadline, matched_edge: None }
    }

    /// The bidder's best action: bid on the port maximizing
    /// `w(e) − price`, at the price that makes the runner-up equally
    /// attractive, plus ε.
    fn place_bid(&mut self, ctx: &mut Context<'_, AuctionMsg>) {
        let eps = self.eps;
        let Role::Bidder { prices, assigned, dirty } = &mut self.role else {
            return;
        };
        if assigned.is_some() || !*dirty {
            return;
        }
        *dirty = false;
        let mut best: Option<(f64, Port)> = None;
        let mut second = f64::NEG_INFINITY;
        for (p, &price) in prices.iter().enumerate() {
            let profit = ctx.edge_weight(p) - price;
            match best {
                None => best = Some((profit, p)),
                Some((bp, _)) if profit > bp => {
                    second = bp;
                    best = Some((profit, p));
                }
                Some(_) => second = second.max(profit),
            }
        }
        if let Some((profit, port)) = best {
            if profit > 0.0 {
                let margin = if second.is_finite() { (profit - second).max(0.0) } else { profit };
                let bid = prices[port] + margin + eps;
                ctx.send(port, AuctionMsg::Bid { price: bid });
            }
            // Otherwise: nothing profitable at current prices. A later
            // Evicted/Price event sets `dirty` again.
        }
    }
}

impl Protocol for AuctionNode {
    type Msg = AuctionMsg;
    type Output = Option<EdgeId>;

    fn on_start(&mut self, ctx: &mut Context<'_, AuctionMsg>) {
        self.place_bid(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, AuctionMsg>, inbox: &[(Port, AuctionMsg)]) {
        let round = ctx.round();
        match &mut self.role {
            Role::Bidder { prices, assigned, dirty } => {
                for &(port, msg) in inbox {
                    match msg {
                        AuctionMsg::Won { price } => {
                            *assigned = Some(port);
                            prices[port] = price;
                            self.matched_edge = Some(ctx.edge(port));
                        }
                        AuctionMsg::Evicted { price } => {
                            prices[port] = prices[port].max(price);
                            if *assigned == Some(port) {
                                *assigned = None;
                                self.matched_edge = None;
                            }
                            *dirty = true;
                        }
                        AuctionMsg::Price { price } => {
                            if price > prices[port] {
                                prices[port] = price;
                                *dirty = true; // our bid lost or is stale
                            }
                        }
                        AuctionMsg::Bid { .. } => unreachable!("bidders never receive bids"),
                    }
                }
                self.place_bid(ctx);
            }
            Role::Object { price, owner } => {
                // Pick the best bid, random tie-break.
                let mut best: Option<(f64, Port)> = None;
                let mut ties = 0u32;
                for &(port, msg) in inbox {
                    if let AuctionMsg::Bid { price: bid } = msg {
                        match best {
                            None => {
                                best = Some((bid, port));
                                ties = 1;
                            }
                            Some((bp, _)) if bid > bp => {
                                best = Some((bid, port));
                                ties = 1;
                            }
                            Some((bp, _)) if (bid - bp).abs() < 1e-12 => {
                                ties += 1;
                                if ctx.rng().random_range(0..ties) == 0 {
                                    best = Some((bid, port));
                                }
                            }
                            Some(_) => {}
                        }
                    }
                }
                if let Some((bid, port)) = best {
                    if bid > *price {
                        let prev = *owner;
                        *price = bid;
                        *owner = Some(port);
                        self.matched_edge = Some(ctx.edge(port));
                        ctx.send(port, AuctionMsg::Won { price: bid });
                        if let Some(prev) = prev {
                            if prev != port {
                                ctx.send(prev, AuctionMsg::Evicted { price: bid });
                            }
                        }
                        // Tell everyone else the new price (losing
                        // bidders must re-bid or drop out).
                        for p in ctx.ports() {
                            if p != port && Some(p) != prev {
                                ctx.send(p, AuctionMsg::Price { price: bid });
                            }
                        }
                    }
                }
            }
        }
        if round >= self.deadline {
            ctx.halt();
        }
    }

    fn into_output(self) -> Option<EdgeId> {
        self.matched_edge
    }
}

/// Configuration for [`auction_mwm`].
#[derive(Debug, Clone, Copy)]
pub struct AuctionConfig {
    /// Bid increment ε (for integer weights, `ε < 1/n` makes the result
    /// exact).
    pub eps: f64,
    /// Master seed (object tie-breaks).
    pub seed: u64,
    /// Round deadline (`None` = `⌈n·w_max/ε⌉ + n`, the pseudo-polynomial
    /// worst case).
    pub deadline: Option<usize>,
}

impl Default for AuctionConfig {
    fn default() -> AuctionConfig {
        AuctionConfig { eps: 0.01, seed: 0, deadline: None }
    }
}

/// Runs the distributed auction on a bipartite graph (`X` = bidders,
/// `Y` = objects).
///
/// # Errors
/// [`GraphError::NotBipartite`] (wrapped) without a recorded
/// bipartition; simulation errors.
///
/// # Example
/// ```
/// use dam_core::auction::{auction_mwm, AuctionConfig};
/// use dam_graph::{generators, hungarian};
/// use dam_graph::weights::{randomize_weights, WeightDist};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let base = generators::complete_bipartite(5, 5);
/// let g = randomize_weights(&base, WeightDist::Integer { max: 9 }, &mut rng);
/// let r = auction_mwm(&g, &AuctionConfig { eps: 0.05, seed: 1, ..Default::default() }).unwrap();
/// let opt = hungarian::maximum_weight_bipartite(&g);
/// assert!(r.matching.weight(&g) >= opt - 5.0 * 0.05 - 1e-9);
/// ```
pub fn auction_mwm(g: &Graph, config: &AuctionConfig) -> Result<AlgorithmReport, CoreError> {
    let sides = g.bipartition().ok_or(CoreError::Graph(GraphError::NotBipartite))?.to_vec();
    let w_max = g.edge_ids().map(|e| g.weight(e)).fold(0.0f64, f64::max);
    let n = g.node_count().max(1);
    let deadline = config.deadline.unwrap_or_else(|| {
        ((n as f64 * w_max / config.eps.max(1e-9)).ceil() as usize + n).min(5_000_000)
    });
    let mut net = Network::new(
        g,
        SimConfig::congest_for(g.node_count(), 8)
            .seed(config.seed)
            .max_rounds(deadline + 8)
            .quiesce_after(2),
    );
    let out = net.execute(
        |v, graph| AuctionNode::new(sides[v], graph.degree(v), config.eps, deadline),
        &ExecPlan::default(),
        None,
    )?;
    let matching = matching_from_registers(g, &out.outputs)?;
    let iterations = usize::try_from(out.stats.rounds).unwrap_or(usize::MAX);
    Ok(AlgorithmReport { matching, stats: net.totals(), iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_graph::weights::{randomize_weights, WeightDist};
    use dam_graph::{generators, hungarian};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn near_optimal_on_random_bipartite() {
        let mut rng = StdRng::seed_from_u64(121);
        for trial in 0..8u64 {
            let base = generators::bipartite_gnp(8, 8, 0.5, &mut rng);
            let g = randomize_weights(&base, WeightDist::Integer { max: 12 }, &mut rng);
            let r =
                auction_mwm(&g, &AuctionConfig { eps: 0.02, seed: trial, ..Default::default() })
                    .unwrap();
            r.matching.validate(&g).unwrap();
            let opt = hungarian::maximum_weight_bipartite(&g);
            let slack = g.node_count() as f64 * 0.02;
            assert!(
                r.matching.weight(&g) >= opt - slack - 1e-9,
                "trial {trial}: auction {} vs hungarian {opt}",
                r.matching.weight(&g)
            );
        }
    }

    #[test]
    fn exact_on_integer_weights_with_small_eps() {
        let mut rng = StdRng::seed_from_u64(122);
        for trial in 0..5u64 {
            let base = generators::complete_bipartite(6, 6);
            let g = randomize_weights(&base, WeightDist::Integer { max: 8 }, &mut rng);
            let eps = 1.0 / (2.0 * g.node_count() as f64);
            let r =
                auction_mwm(&g, &AuctionConfig { eps, seed: trial, ..Default::default() }).unwrap();
            let opt = hungarian::maximum_weight_bipartite(&g);
            assert!(
                (r.matching.weight(&g) - opt).abs() < 1e-6,
                "trial {trial}: {} vs {opt}",
                r.matching.weight(&g)
            );
        }
    }

    #[test]
    fn handles_unbalanced_and_sparse() {
        let mut rng = StdRng::seed_from_u64(123);
        let base = generators::bipartite_gnp(4, 10, 0.4, &mut rng);
        let g = randomize_weights(&base, WeightDist::Uniform { lo: 0.5, hi: 3.0 }, &mut rng);
        let r =
            auction_mwm(&g, &AuctionConfig { eps: 0.05, seed: 1, ..Default::default() }).unwrap();
        r.matching.validate(&g).unwrap();
    }

    #[test]
    fn rejects_non_bipartite() {
        let g = generators::cycle(5);
        assert!(auction_mwm(&g, &AuctionConfig::default()).is_err());
    }

    #[test]
    fn empty_graph() {
        let mut g = dam_graph::Graph::builder(4).build().unwrap();
        g.compute_bipartition();
        let r = auction_mwm(&g, &AuctionConfig::default()).unwrap();
        assert_eq!(r.matching.size(), 0);
    }
}
