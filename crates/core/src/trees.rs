//! Exact maximum-cardinality matching on **trees**, distributed.
//!
//! The paper's related work singles trees out (Hoepman, Kutten & Lotker
//! 2006 get a `(½−ε)`-MCM in expected *constant* time there). Trees also
//! admit something stronger at `O(diameter)` cost: the classic bottom-up
//! greedy — *match every node with an unmatched child* — computes an
//! **exactly maximum** matching. This module implements it as a genuine
//! message-passing protocol in three converge/broadcast waves:
//!
//! 1. **Root election + layering**: flood the minimum id (each node
//!    adopts the first/best root claim it hears; its parent is the port
//!    the claim arrived on) — `O(diameter)` rounds.
//! 2. **Upward matching**: leaves report `unmatched-child = false`… each
//!    node, once all children reported, matches the smallest-port
//!    unmatched child (sends `MatchYou` down, `Matched/Settled` up).
//! 3. Nodes halt once their matching state is final.
//!
//! The exactness argument is the standard exchange argument: a leaf's
//! parent edge is contained in some maximum matching whenever the leaf
//! is unmatched, applied inductively up the tree.
//!
//! The protocol doubles as this crate's `O(diameter)`-algorithm example:
//! unlike everything else here its round count is *linear* in the
//! diameter, which the tests exhibit on paths.

use dam_congest::{BitSize, Context, ExecPlan, Network, Port, Protocol, SimConfig};
use dam_graph::{EdgeId, Graph};

use crate::error::CoreError;
use crate::report::{matching_from_registers, AlgorithmReport};

/// Protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeMsg {
    /// Root-election flood: "the best root id I know is `root`".
    Claim {
        /// Candidate root id.
        root: u64,
        /// Analytical width: `⌈log₂ n⌉`-bit id plus tag.
        bits: u32,
    },
    /// Child → parent: "my subtree is done; I am `unmatched`".
    Report {
        /// Whether the child is still free (available to its parent).
        unmatched: bool,
    },
    /// Parent → child: "you are matched to me".
    MatchYou,
    /// Parent → child: "you stay free" (the verdict that lets an
    /// unmatched-reporting child terminate).
    NoMatch,
}

impl BitSize for TreeMsg {
    fn bit_size(&self) -> usize {
        match self {
            TreeMsg::Claim { bits, .. } => *bits as usize,
            TreeMsg::Report { .. } => 3,
            TreeMsg::MatchYou | TreeMsg::NoMatch => 2,
        }
    }
}

/// Analytical width of a root claim: tag plus an `O(log n)`-bit id.
fn claim_bits(ctx: &Context<'_, TreeMsg>) -> u32 {
    2 + dam_congest::message::id_bits(ctx.network_size()) as u32
}

/// Phases of the per-node state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TreePhase {
    /// Electing the root / learning the parent.
    Elect,
    /// Waiting for child reports.
    Gather,
    /// Waiting for the parent's verdict.
    AwaitParent,
}

/// Per-node state.
#[derive(Debug)]
pub struct TreeNode {
    /// Rounds spent flooding root claims (≥ diameter; any upper bound on
    /// the diameter works — `n` always does).
    elect_rounds: usize,
    phase: TreePhase,
    best_root: u64,
    parent: Option<Port>,
    children_pending: usize,
    reported: Vec<bool>,
    unmatched_child: Option<Port>,
    matched_edge: Option<EdgeId>,
}

impl TreeNode {
    /// Fresh state; `elect_rounds` must be at least the tree diameter.
    #[must_use]
    pub fn new(degree: usize, elect_rounds: usize) -> TreeNode {
        TreeNode {
            elect_rounds,
            phase: TreePhase::Elect,
            best_root: u64::MAX,
            parent: None,
            children_pending: degree,
            reported: vec![false; degree],
            unmatched_child: None,
            matched_edge: None,
        }
    }

    /// Matches the preferred unmatched child, sends every child its
    /// verdict, reports upward, and moves on.
    fn settle(&mut self, ctx: &mut Context<'_, TreeMsg>) {
        if let Some(child) = self.unmatched_child {
            self.matched_edge = Some(ctx.edge(child));
        }
        for p in ctx.ports() {
            if Some(p) == self.parent {
                continue;
            }
            let verdict =
                if Some(p) == self.unmatched_child { TreeMsg::MatchYou } else { TreeMsg::NoMatch };
            ctx.send(p, verdict);
        }
        match self.parent {
            Some(p) => {
                ctx.send(p, TreeMsg::Report { unmatched: self.matched_edge.is_none() });
                self.phase = TreePhase::AwaitParent;
                if self.matched_edge.is_some() {
                    // Already matched: the parent cannot claim us; done.
                    ctx.halt();
                }
            }
            None => ctx.halt(), // the root is done
        }
    }
}

impl Protocol for TreeNode {
    type Msg = TreeMsg;
    type Output = Option<EdgeId>;

    fn on_start(&mut self, ctx: &mut Context<'_, TreeMsg>) {
        self.best_root = ctx.id() as u64;
        let bits = claim_bits(ctx);
        ctx.broadcast(TreeMsg::Claim { root: self.best_root, bits });
        if ctx.degree() == 0 {
            ctx.halt();
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, TreeMsg>, inbox: &[(Port, TreeMsg)]) {
        match self.phase {
            TreePhase::Elect => {
                let mut improved = false;
                for &(port, msg) in inbox {
                    if let TreeMsg::Claim { root, .. } = msg {
                        if root < self.best_root {
                            self.best_root = root;
                            self.parent = Some(port);
                            improved = true;
                        }
                    }
                }
                if improved {
                    let bits = claim_bits(ctx);
                    ctx.broadcast(TreeMsg::Claim { root: self.best_root, bits });
                }
                if ctx.round() >= self.elect_rounds {
                    // Parent known (or I am the root). Children = all
                    // other ports.
                    self.children_pending = ctx.degree() - usize::from(self.parent.is_some());
                    self.phase = TreePhase::Gather;
                    if self.children_pending == 0 {
                        self.settle(ctx);
                    }
                }
            }
            TreePhase::Gather => {
                for &(port, msg) in inbox {
                    if let TreeMsg::Report { unmatched } = msg {
                        debug_assert!(Some(port) != self.parent, "reports come from children");
                        if !self.reported[port] {
                            self.reported[port] = true;
                            self.children_pending -= 1;
                            if unmatched {
                                // Prefer the smallest port (determinism).
                                if self.unmatched_child.is_none_or(|c| port < c) {
                                    self.unmatched_child = Some(port);
                                }
                            }
                        }
                    }
                }
                if self.children_pending == 0 {
                    self.settle(ctx);
                }
            }
            TreePhase::AwaitParent => {
                // Wait for the parent's verdict (it may be many rounds
                // away: the parent settles only after all its children —
                // our siblings' subtrees included — have reported).
                for &(port, msg) in inbox {
                    match msg {
                        TreeMsg::MatchYou => {
                            debug_assert_eq!(Some(port), self.parent);
                            debug_assert!(self.matched_edge.is_none());
                            self.matched_edge = Some(ctx.edge(port));
                            ctx.halt();
                        }
                        TreeMsg::NoMatch => {
                            debug_assert_eq!(Some(port), self.parent);
                            ctx.halt();
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    fn into_output(self) -> Option<EdgeId> {
        self.matched_edge
    }
}

/// Computes an exactly maximum matching of a forest, distributively, in
/// `O(diameter)` rounds with `O(log n)`-bit messages.
///
/// # Errors
/// Simulation/assembly failure; forests only (a cycle makes the
/// election produce a non-tree parent structure and the run fails
/// validation or the round guard).
///
/// # Example
/// ```
/// use dam_core::trees::tree_mcm;
/// use dam_graph::generators;
///
/// let g = generators::path(9); // P9: maximum matching = 4
/// let r = tree_mcm(&g, 3).unwrap();
/// assert_eq!(r.matching.size(), 4);
/// ```
pub fn tree_mcm(g: &Graph, seed: u64) -> Result<AlgorithmReport, CoreError> {
    let n = g.node_count();
    let mut net = Network::new(g, SimConfig::congest_for(n, 4).seed(seed));
    let elect_rounds = n.max(1);
    let out = net.execute(
        |v, graph| TreeNode::new(graph.degree(v), elect_rounds),
        &ExecPlan::default(),
        None,
    )?;
    let matching = matching_from_registers(g, &out.outputs)?;
    Ok(AlgorithmReport { matching, stats: net.totals(), iterations: 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_graph::{blossom, generators};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(101);
        for trial in 0..15 {
            let g = generators::random_tree(50, &mut rng);
            let r = tree_mcm(&g, trial).unwrap();
            r.matching.validate(&g).unwrap();
            assert_eq!(
                r.matching.size(),
                blossom::maximum_matching_size(&g),
                "trial {trial}: tree matching not maximum"
            );
        }
    }

    #[test]
    fn exact_on_paths_and_stars() {
        for n in [2usize, 3, 4, 7, 12, 25] {
            let g = generators::path(n);
            let r = tree_mcm(&g, 1).unwrap();
            assert_eq!(r.matching.size(), n / 2);
        }
        let g = generators::star(9);
        let r = tree_mcm(&g, 1).unwrap();
        assert_eq!(r.matching.size(), 1);
    }

    #[test]
    fn works_on_forests_with_isolated_nodes() {
        let g = dam_graph::Graph::builder(7).edge(0, 1).edge(1, 2).edge(4, 5).build().unwrap();
        let r = tree_mcm(&g, 2).unwrap();
        assert_eq!(r.matching.size(), 2);
    }

    #[test]
    fn rounds_scale_with_diameter() {
        // Unlike the O(log n) algorithms, the tree protocol pays the
        // diameter: on a path, rounds grow linearly.
        let short = tree_mcm(&generators::path(16), 1).unwrap().stats.stats.rounds;
        let long = tree_mcm(&generators::path(256), 1).unwrap().stats.stats.rounds;
        assert!(long > 8 * short / 2, "rounds {short} -> {long} should scale with n");
    }

    #[test]
    fn congest_budget_respected() {
        let mut rng = StdRng::seed_from_u64(102);
        let g = generators::random_tree(200, &mut rng);
        let r = tree_mcm(&g, 3).unwrap();
        assert_eq!(r.stats.stats.violations, 0);
    }
}
