//! The engine: fault and churn plans, the [`Network`] and its one entry
//! point [`Network::execute`], and the sequential round loop (which,
//! with a virtual-time layer on top, is also the asynchronous backend).

use dam_graph::{BitSet, NodeId, Topology};

use crate::asynchrony::AsyncTiming;
use crate::error::SimError;
use crate::kernel::{Deliver, Kernel, Mailbox, Peers, Tally};
use crate::message::CorruptKind;
use crate::model::{Backend, CostModel, Model, SimConfig};
use crate::node::{Context, Port, Protocol};
use crate::rng;
use crate::stats::{Integrity, RunStats, TotalStats};
use crate::trace::{ChurnKind, FaultKind, Trace, TraceEvent};

/// Per-link fault parameters overriding the plan-wide probabilities on
/// one undirected edge (both directions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Loss probability on this link.
    pub loss: f64,
    /// Duplication probability on this link.
    pub dup: f64,
    /// Reordering (extra-delay) probability on this link.
    pub reorder: f64,
}

/// A round-windowed *squall*: a burst of extra message loss and/or
/// corruption overlaid on the plan-wide probabilities while
/// `from_round ≤ round ≤ until_round`. Within the window the effective
/// probability on every link is the **max** of the base and the squall
/// (overlapping squalls compose the same way); outside it the base
/// applies untouched, so a plan whose squalls never fire draws the
/// exact same fault pattern as one without them.
///
/// Squalls model *drifting* network weather — burst-then-quiet loss,
/// corruption storms — the regimes where a statically tuned transport
/// must lose on one end or the other and an adaptive one
/// ([`crate::transport::Resilient::with_policy`]) can track the drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Squall {
    /// First round of the window (inclusive).
    pub from_round: usize,
    /// Last round of the window (inclusive).
    pub until_round: usize,
    /// Loss probability floor inside the window.
    pub loss: f64,
    /// Corruption probability floor inside the window.
    pub corrupt: f64,
}

/// A round-windowed network partition: while `from_round ≤ round ≤
/// until_round`, every message crossing the boundary between `side` and
/// its complement is dropped. Traffic within either side is unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// First round of the partition window (inclusive).
    pub from_round: usize,
    /// Last round of the partition window (inclusive).
    pub until_round: usize,
    /// The nodes on one side of the cut.
    pub side: Vec<NodeId>,
}

/// Injected faults for a run (the paper assumes fault-freedom — §2's
/// footnote — so these exist to *measure* how load-bearing that
/// assumption is, and to exercise the recovery stack: the
/// [`crate::transport::Resilient`] wrapper and `dam-core`'s matching
/// repair).
///
/// Every injection is drawn from a dedicated RNG keyed on `(seed, run)`,
/// so runs are deterministic and replayable; each injection is also
/// recorded as a [`TraceEvent::Fault`] when tracing. An all-default plan
/// injects nothing: the run is exactly a clean one.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Crash-stop faults: `(node, round)` — the node executes rounds
    /// `< round` normally, then silently stops (no announcement, its
    /// pending messages are dropped). At most one entry per node.
    pub crashes: Vec<(NodeId, usize)>,
    /// Crash-*recover* faults: `(node, round)` — a previously crashed
    /// node reboots at `round` with wiped state (a fresh protocol
    /// instance runs its `on_start` as if it were round 0). Each entry
    /// must pair with a `crashes` entry at a strictly earlier round.
    pub recoveries: Vec<(NodeId, usize)>,
    /// Independent per-message loss probability (network-wide default).
    pub loss: f64,
    /// Independent per-message duplication probability: the duplicate
    /// copy arrives one round after the original.
    pub dup: f64,
    /// Independent per-message reordering probability: the message is
    /// delayed by 1–3 extra rounds instead of arriving next round.
    pub reorder: f64,
    /// Independent per-message *corruption* probability: the message is
    /// damaged in transit with a [`CorruptKind`] drawn from the same
    /// keyed fault stream. Damaged messages are re-decoded through
    /// [`crate::BitSize::corrupted`]; undecodable ones are dropped at delivery.
    /// Either way the event is counted in
    /// [`RunStats::corruptions`] and traced as
    /// [`FaultKind::Corrupt`].
    pub corrupt: f64,
    /// Byzantine *equivocators*: nodes whose every outgoing message is
    /// independently tampered per port (different neighbours observe
    /// mutually inconsistent traffic). Tampering draws come from
    /// [`rng::byz_rng`], so they are deterministic and engine-agnostic.
    /// At most one entry per node; counted in
    /// [`RunStats::equivocations`], traced as
    /// [`FaultKind::Equivocate`].
    pub equivocators: Vec<NodeId>,
    /// Byzantine *liars*: nodes that report a corrupted output register
    /// after the run. The engine treats outputs as opaque, so lying is
    /// applied by output-aware callers (`dam-core`'s certification
    /// pipeline derives the lie deterministically from the seed); the
    /// engine only validates the list (in-range, no duplicates) so a
    /// plan is checked in one place.
    pub liars: Vec<NodeId>,
    /// Per-link overrides of `loss`/`dup`/`reorder` (applied to both
    /// directions of the named edge). Corruption has no per-link
    /// override — it is network-wide.
    pub links: Vec<LinkFault>,
    /// Round-windowed partitions.
    pub partitions: Vec<Partition>,
    /// Round-windowed loss/corruption bursts overlaid on the base
    /// probabilities (effective = max of base and every active squall).
    pub squalls: Vec<Squall>,
}

impl FaultPlan {
    /// A plan that only crashes the given nodes.
    #[must_use]
    pub fn crashes(crashes: Vec<(NodeId, usize)>) -> FaultPlan {
        FaultPlan { crashes, ..FaultPlan::default() }
    }

    /// A plan that only loses messages with probability `loss`.
    #[must_use]
    pub fn lossy(loss: f64) -> FaultPlan {
        FaultPlan { loss, ..FaultPlan::default() }
    }

    /// Adds crash-recover entries (builder style).
    #[must_use]
    pub fn with_recoveries(mut self, recoveries: Vec<(NodeId, usize)>) -> FaultPlan {
        self.recoveries = recoveries;
        self
    }

    /// Sets the network-wide duplication probability (builder style).
    #[must_use]
    pub fn with_dup(mut self, dup: f64) -> FaultPlan {
        self.dup = dup;
        self
    }

    /// Sets the network-wide reordering probability (builder style).
    #[must_use]
    pub fn with_reorder(mut self, reorder: f64) -> FaultPlan {
        self.reorder = reorder;
        self
    }

    /// Sets the network-wide corruption probability (builder style).
    #[must_use]
    pub fn with_corrupt(mut self, corrupt: f64) -> FaultPlan {
        self.corrupt = corrupt;
        self
    }

    /// Marks nodes as Byzantine equivocators (builder style).
    #[must_use]
    pub fn with_equivocators(mut self, equivocators: Vec<NodeId>) -> FaultPlan {
        self.equivocators = equivocators;
        self
    }

    /// Marks nodes as register liars (builder style).
    #[must_use]
    pub fn with_liars(mut self, liars: Vec<NodeId>) -> FaultPlan {
        self.liars = liars;
        self
    }

    /// Adds a per-link override (builder style).
    #[must_use]
    pub fn with_link(mut self, link: LinkFault) -> FaultPlan {
        self.links.push(link);
        self
    }

    /// Adds a partition window (builder style).
    #[must_use]
    pub fn with_partition(mut self, partition: Partition) -> FaultPlan {
        self.partitions.push(partition);
        self
    }

    /// Adds a squall window (builder style).
    #[must_use]
    pub fn with_squall(mut self, squall: Squall) -> FaultPlan {
        self.squalls.push(squall);
        self
    }

    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.recoveries.is_empty()
            && self.loss == 0.0
            && self.dup == 0.0
            && self.reorder == 0.0
            && self.corrupt == 0.0
            && self.equivocators.is_empty()
            && self.liars.is_empty()
            && self.links.is_empty()
            && self.partitions.is_empty()
            && self.squalls.is_empty()
    }

    /// Checks the plan against `graph` before a run.
    ///
    /// # Errors
    /// [`SimError::InvalidFaultPlan`] if any probability is outside
    /// `[0, 1]` (or non-finite), a node id is out of range, a node is
    /// crashed or recovered twice, a recovery lacks a strictly earlier
    /// crash, an equivocator or liar id is out of range or listed
    /// twice, a link names a non-edge or a self-loop, or a partition
    /// window is inverted.
    ///
    /// Generic over [`Topology`], so implicit graphs validate without
    /// materializing; a `&Graph` coerces at the call site.
    pub fn validate(&self, graph: &dyn Topology) -> Result<(), SimError> {
        let n = graph.node_count();
        let invalid = |reason: String| Err(SimError::InvalidFaultPlan { reason });
        let check_prob = |p: f64, what: &str| -> Result<(), SimError> {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(SimError::InvalidFaultPlan {
                    reason: format!("{what} probability {p} outside [0, 1]"),
                });
            }
            Ok(())
        };
        check_prob(self.loss, "loss")?;
        check_prob(self.dup, "duplication")?;
        check_prob(self.reorder, "reordering")?;
        check_prob(self.corrupt, "corruption")?;

        for (what, list) in [("equivocator", &self.equivocators), ("liar", &self.liars)] {
            let mut seen = id_mask(list, n);
            for &v in list {
                if v >= n {
                    return invalid(format!(
                        "{what} list names node {v}, but the graph has {n} nodes"
                    ));
                }
                if seen[v] {
                    return invalid(format!("node {v} appears twice in the {what} list"));
                }
                seen.set(v, true);
            }
        }

        let mut crashed = id_mask(&self.crashes, n);
        for &(v, _) in &self.crashes {
            if v >= n {
                return invalid(format!("crash names node {v}, but the graph has {n} nodes"));
            }
            if crashed[v] {
                return invalid(format!("node {v} is crashed twice"));
            }
            crashed.set(v, true);
        }
        let mut crashes = self.crashes.clone();
        crashes.sort_unstable();
        let mut recovered = id_mask(&self.recoveries, n);
        for &(v, r) in &self.recoveries {
            if v >= n {
                return invalid(format!("recovery names node {v}, but the graph has {n} nodes"));
            }
            if recovered[v] {
                return invalid(format!("node {v} is recovered twice"));
            }
            recovered.set(v, true);
            match crashes.binary_search_by_key(&v, |&(u, _)| u) {
                Err(_) => {
                    return invalid(format!("node {v} recovers without ever crashing"));
                }
                Ok(i) if r <= crashes[i].1 => {
                    let cr = crashes[i].1;
                    return invalid(format!(
                        "node {v} recovers at round {r}, not after its crash at round {cr}"
                    ));
                }
                Ok(_) => {}
            }
        }
        for link in &self.links {
            check_prob(link.loss, "link loss")?;
            check_prob(link.dup, "link duplication")?;
            check_prob(link.reorder, "link reordering")?;
            if link.a >= n || link.b >= n {
                return invalid(format!(
                    "link ({}, {}) names a node outside the graph's {n} nodes",
                    link.a, link.b
                ));
            }
            if link.a == link.b {
                return invalid(format!("link ({}, {}) is a self-loop", link.a, link.b));
            }
            if !graph.incident(link.a).any(|(_, u, _)| u == link.b) {
                return invalid(format!("link ({}, {}) is not an edge", link.a, link.b));
            }
        }
        for part in &self.partitions {
            if part.from_round > part.until_round {
                return invalid(format!(
                    "partition window [{}, {}] is inverted",
                    part.from_round, part.until_round
                ));
            }
            if let Some(&v) = part.side.iter().find(|&&v| v >= n) {
                return invalid(format!(
                    "partition side names node {v}, but the graph has {n} nodes"
                ));
            }
        }
        for squall in &self.squalls {
            check_prob(squall.loss, "squall loss")?;
            check_prob(squall.corrupt, "squall corruption")?;
            if squall.from_round > squall.until_round {
                return invalid(format!(
                    "squall window [{}, {}] is inverted",
                    squall.from_round, squall.until_round
                ));
            }
        }
        Ok(())
    }
}

/// An all-zero mask over node ids `0..n` for the ids in `list`, or zero
/// bits when the list is empty, so a clean plan allocates nothing.
fn id_mask<T>(list: &[T], n: usize) -> BitSet {
    BitSet::new(if list.is_empty() { 0 } else { n })
}

/// One scheduled topology event of a [`ChurnPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// The round at whose start the event takes effect (must be ≥ 1;
    /// round 0 is `on_start` on the initial topology).
    pub round: usize,
    /// What changes.
    pub kind: ChurnKind,
}

/// Scheduled topology churn for a run: a dynamic graph expressed as
/// presence masks over an immutable *universe* graph.
///
/// The engine's [`dam_graph::Graph`] is immutable, so churn is modelled by
/// presence: `absent_nodes`/`absent_edges` name the parts of the
/// universe missing at round 0, and `events` toggles presence at
/// round boundaries — edges flap up and down, absent nodes [`join`]
/// with fresh state, present nodes [`leave`] permanently. Plans are
/// validated up front (like [`FaultPlan`]) and every applied event is
/// recorded as a [`TraceEvent::Churn`] when tracing and counted in
/// [`RunStats::churn_events`]. Messages sent across an absent edge or
/// towards an absent node are dropped at the sender and counted in
/// [`RunStats::churn_drops`]; in-flight deliveries complete.
///
/// [`join`]: ChurnKind::Join
/// [`leave`]: ChurnKind::Leave
#[derive(Debug, Clone, Default)]
pub struct ChurnPlan {
    /// Nodes absent from the initial topology (may [`ChurnKind::Join`]
    /// later).
    pub absent_nodes: Vec<NodeId>,
    /// Universe edges absent from the initial topology (may come up via
    /// [`ChurnKind::EdgeUp`]).
    pub absent_edges: Vec<usize>,
    /// Round-stamped topology events, applied in round order (plan order
    /// within a round).
    pub events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// A plan consisting only of scheduled events (full initial
    /// topology).
    #[must_use]
    pub fn events(events: Vec<ChurnEvent>) -> ChurnPlan {
        ChurnPlan { events, ..ChurnPlan::default() }
    }

    /// Marks nodes absent at round 0 (builder style).
    #[must_use]
    pub fn with_absent_nodes(mut self, nodes: Vec<NodeId>) -> ChurnPlan {
        self.absent_nodes = nodes;
        self
    }

    /// Marks universe edges absent at round 0 (builder style).
    #[must_use]
    pub fn with_absent_edges(mut self, edges: Vec<usize>) -> ChurnPlan {
        self.absent_edges = edges;
        self
    }

    /// Schedules one event (builder style).
    #[must_use]
    pub fn with_event(mut self, round: usize, kind: ChurnKind) -> ChurnPlan {
        self.events.push(ChurnEvent { round, kind });
        self
    }

    /// Whether the plan changes nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.absent_nodes.is_empty() && self.absent_edges.is_empty() && self.events.is_empty()
    }

    /// The round of the last scheduled event (0 if none).
    #[must_use]
    pub fn last_event_round(&self) -> usize {
        self.events.iter().map(|e| e.round).max().unwrap_or(0)
    }

    /// Events sorted by round, stably (plan order within a round) — the
    /// order in which the engine applies them.
    fn sorted_events(&self) -> Vec<ChurnEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.round);
        evs
    }

    /// Node/edge presence at round 0 as word-packed masks:
    /// `(node_present, edge_present)`.
    #[must_use]
    pub fn initial_presence_on(&self, topo: &dyn Topology) -> (BitSet, BitSet) {
        let mut node_present = BitSet::filled(topo.node_count(), true);
        for &v in &self.absent_nodes {
            node_present.set(v, false);
        }
        let mut edge_present = BitSet::filled(topo.edge_count(), true);
        for &e in &self.absent_edges {
            edge_present.set(e, false);
        }
        (node_present, edge_present)
    }

    /// Node/edge presence after every event has been applied — the
    /// topology a maintenance pass must be maximal on at the end.
    #[must_use]
    pub fn final_presence_on(&self, topo: &dyn Topology) -> (BitSet, BitSet) {
        let (mut node_present, mut edge_present) = self.initial_presence_on(topo);
        for ev in self.sorted_events() {
            match ev.kind {
                ChurnKind::EdgeUp { edge } => edge_present.set(edge, true),
                ChurnKind::EdgeDown { edge } => edge_present.set(edge, false),
                ChurnKind::Join { node } => node_present.set(node, true),
                ChurnKind::Leave { node } => node_present.set(node, false),
            }
        }
        (node_present, edge_present)
    }

    /// Checks the plan against `graph` before a run.
    ///
    /// # Errors
    /// [`SimError::InvalidChurnPlan`] if an id is out of range, a node
    /// or edge is marked absent twice, an event is scheduled at round 0,
    /// or the event sequence is inconsistent when replayed in order: a
    /// join of a present (or permanently left) node, a leave of an
    /// absent node, an edge-up of a present edge, or an edge-down of an
    /// absent edge.
    ///
    /// Generic over [`Topology`]; a `&Graph` coerces at the call site.
    pub fn validate(&self, graph: &dyn Topology) -> Result<(), SimError> {
        let n = graph.node_count();
        let m = graph.edge_count();
        let invalid = |reason: String| Err(SimError::InvalidChurnPlan { reason });
        if self.is_empty() {
            return Ok(());
        }
        let mut node_present = BitSet::filled(n, true);
        for &v in &self.absent_nodes {
            if v >= n {
                return invalid(format!("absent node {v}, but the graph has {n} nodes"));
            }
            if !node_present[v] {
                return invalid(format!("node {v} is marked absent twice"));
            }
            node_present.set(v, false);
        }
        let mut edge_present = BitSet::filled(m, true);
        for &e in &self.absent_edges {
            if e >= m {
                return invalid(format!("absent edge {e}, but the graph has {m} edges"));
            }
            if !edge_present[e] {
                return invalid(format!("edge {e} is marked absent twice"));
            }
            edge_present.set(e, false);
        }
        let mut left = BitSet::new(n);
        for ev in self.sorted_events() {
            if ev.round == 0 {
                return invalid(format!(
                    "event {:?} scheduled at round 0 (events start at round 1)",
                    ev.kind
                ));
            }
            match ev.kind {
                ChurnKind::EdgeUp { edge } => {
                    if edge >= m {
                        return invalid(format!("edge-up names edge {edge} of {m}"));
                    }
                    if edge_present[edge] {
                        return invalid(format!(
                            "edge {edge} comes up at round {} but is already present",
                            ev.round
                        ));
                    }
                    edge_present.set(edge, true);
                }
                ChurnKind::EdgeDown { edge } => {
                    if edge >= m {
                        return invalid(format!("edge-down names edge {edge} of {m}"));
                    }
                    if !edge_present[edge] {
                        return invalid(format!(
                            "edge {edge} goes down at round {} but is already absent",
                            ev.round
                        ));
                    }
                    edge_present.set(edge, false);
                }
                ChurnKind::Join { node } => {
                    if node >= n {
                        return invalid(format!("join names node {node} of {n}"));
                    }
                    if left[node] {
                        return invalid(format!(
                            "node {node} joins at round {} after leaving permanently",
                            ev.round
                        ));
                    }
                    if node_present[node] {
                        return invalid(format!(
                            "node {node} joins at round {} but is already present",
                            ev.round
                        ));
                    }
                    node_present.set(node, true);
                }
                ChurnKind::Leave { node } => {
                    if node >= n {
                        return invalid(format!("leave names node {node} of {n}"));
                    }
                    if !node_present[node] {
                        return invalid(format!(
                            "node {node} leaves at round {} but is not present",
                            ev.round
                        ));
                    }
                    node_present.set(node, false);
                    left.set(node, true);
                }
            }
        }
        Ok(())
    }

    /// Checks compatibility with a [`FaultPlan`] run alongside: churned
    /// nodes (absent, joining or leaving) must be disjoint from crashed
    /// or recovering nodes, since a recovery must not resurrect a node
    /// that left the topology.
    ///
    /// # Errors
    /// [`SimError::InvalidChurnPlan`] on overlap.
    pub fn validate_against(&self, faults: &FaultPlan) -> Result<(), SimError> {
        let mut churned: Vec<NodeId> = self.absent_nodes.clone();
        for ev in &self.events {
            match ev.kind {
                ChurnKind::Join { node } | ChurnKind::Leave { node } => churned.push(node),
                ChurnKind::EdgeUp { .. } | ChurnKind::EdgeDown { .. } => {}
            }
        }
        for &v in &churned {
            if faults.crashes.iter().any(|&(u, _)| u == v)
                || faults.recoveries.iter().any(|&(u, _)| u == v)
            {
                return Err(SimError::InvalidChurnPlan {
                    reason: format!("node {v} appears in both the churn and the fault plan"),
                });
            }
        }
        Ok(())
    }
}

/// Everything a run derives from its validated [`FaultPlan`] and
/// [`ChurnPlan`] before round 0.
///
/// Shared by the sequential engine and the sharded parallel executor
/// ([`crate::parallel`]) so both apply crash/recovery schedules, churn
/// presence and per-message fault draws from identical, immutable data —
/// the structural half of the bit-identical-execution guarantee.
///
/// The plan is sparse: its size follows the plan, not the graph. A
/// clean run's plan holds no heap memory at all. One with `k` links,
/// crashes or churned nodes holds `O(k)` entries, plus one bit per node
/// for each lookup gate in use (scheduled nodes, equivocators) and for
/// each partition side. [`RunPlan::heap_bytes`] counts it all.
pub(crate) struct RunPlan {
    /// No run may end before this round: the last recovery or topology
    /// event that could wake a halted network up again.
    pub(crate) last_wake: usize,
    /// Universe edges absent at round 0.
    absent_edges: Vec<usize>,
    /// Edge up/down events, sorted by round (plan order within one).
    pub(crate) edge_events: Vec<ChurnEvent>,
    /// The schedule of every node that is absent at round 0 or crashes,
    /// recovers, joins or leaves, sorted by node id.
    nodes: Vec<(NodeId, NodeSchedule)>,
    /// One bit per node, set exactly for the nodes in `nodes`, so that an
    /// unscheduled node costs a bit test and no search; zero bits when
    /// `nodes` is empty.
    scheduled: BitSet,
    /// Plan-wide `(loss, dup, reorder, corrupt)`.
    base: (f64, f64, f64, f64),
    /// `(loss, dup, reorder)` overriding the base on the port `(v, port)`,
    /// sorted by port; of a link listed twice the last entry wins.
    links: Vec<((NodeId, Port), LinkFx)>,
    /// Whether each node is a Byzantine equivocator (one bit per node);
    /// zero bits when there are none.
    equivocator: BitSet,
    /// `(from_round, until_round, side-membership)` per partition.
    partitions: Vec<(usize, usize, BitSet)>,
    /// Round-windowed loss/corruption overlays.
    squalls: Vec<Squall>,
    /// Whether duplication/reordering can occur (the mailbox FIFO gate).
    pub(crate) any_dup_or_reorder: bool,
}

/// A link's `(loss, dup, reorder)` on one of its ports.
type LinkFx = (f64, f64, f64);

/// The scheduled transitions of one node (see [`RunPlan::node_event`]).
#[derive(Debug, Clone, Copy, Default)]
struct NodeSchedule {
    /// Absent from the initial topology.
    absent: bool,
    crash: Option<usize>,
    recovery: Option<usize>,
    join: Option<usize>,
    leave: Option<usize>,
}

/// The fate of one message under [`RunPlan::message_fate`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct MsgFate {
    /// Dropped by the lossy channel (nothing else applies).
    pub(crate) lost: bool,
    /// A duplicate copy trails the original by one round.
    pub(crate) duplicated: bool,
    /// Extra delay rounds, if reordered (the original is not delivered).
    pub(crate) delayed: Option<usize>,
    /// The message is damaged in transit with this corruption shape.
    pub(crate) corrupt: Option<CorruptKind>,
}

/// A node's scheduled transition at the start of one round, as
/// [`RunPlan::node_event`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeEvent {
    /// Churn: the node leaves the topology permanently.
    Leave,
    /// Churn: an absent node joins with fresh state.
    Join,
    /// Fault: the node crash-stops.
    Crash,
    /// Fault: a crashed node reboots with wiped state.
    Recover,
}

impl RunPlan {
    /// Validates both plans against `graph` and derives the run-time
    /// schedules.
    pub(crate) fn build(
        graph: &dyn Topology,
        faults: &FaultPlan,
        churn: &ChurnPlan,
    ) -> Result<RunPlan, SimError> {
        faults.validate(graph)?;
        churn.validate(graph)?;
        churn.validate_against(faults)?;
        let n = graph.node_count();
        let last_recovery = faults.recoveries.iter().map(|&(_, r)| r).max().unwrap_or(0);
        let last_wake = last_recovery.max(churn.last_event_round());

        // Validation allows at most one crash, recovery, join and leave
        // per node, so each field below is written at most once.
        let mut ids: Vec<NodeId> = churn.absent_nodes.clone();
        ids.extend(faults.crashes.iter().chain(&faults.recoveries).map(|&(v, _)| v));
        ids.extend(churn.events.iter().filter_map(|ev| match ev.kind {
            ChurnKind::Join { node } | ChurnKind::Leave { node } => Some(node),
            ChurnKind::EdgeUp { .. } | ChurnKind::EdgeDown { .. } => None,
        }));
        ids.sort_unstable();
        ids.dedup();
        let mut nodes: Vec<(NodeId, NodeSchedule)> =
            ids.into_iter().map(|v| (v, NodeSchedule::default())).collect();
        fn entry(nodes: &mut [(NodeId, NodeSchedule)], v: NodeId) -> &mut NodeSchedule {
            let i = nodes.binary_search_by_key(&v, |&(u, _)| u).expect("scheduled node");
            &mut nodes[i].1
        }
        for &v in &churn.absent_nodes {
            entry(&mut nodes, v).absent = true;
        }
        for &(v, r) in &faults.crashes {
            entry(&mut nodes, v).crash = Some(r);
        }
        for &(v, r) in &faults.recoveries {
            entry(&mut nodes, v).recovery = Some(r);
        }
        let mut edge_events = Vec::new();
        for ev in churn.sorted_events() {
            match ev.kind {
                ChurnKind::Join { node } => entry(&mut nodes, node).join = Some(ev.round),
                ChurnKind::Leave { node } => entry(&mut nodes, node).leave = Some(ev.round),
                ChurnKind::EdgeUp { .. } | ChurnKind::EdgeDown { .. } => edge_events.push(ev),
            }
        }

        let mut links = Vec::new();
        for link in &faults.links {
            for (v, u) in [(link.a, link.b), (link.b, link.a)] {
                for (p, w, _) in graph.incident(v) {
                    if w == u {
                        links.push(((v, p), (link.loss, link.dup, link.reorder)));
                    }
                }
            }
        }
        // Last entry wins: reversed, a stable sort puts each port's
        // latest entry first, and `dedup` keeps the first.
        links.reverse();
        links.sort_by_key(|&(port, _)| port);
        links.dedup_by_key(|&mut (port, _)| port);
        // The base applies on every one of the 2m directed ports that
        // no link overrides.
        let any_dup_or_reorder = links.iter().any(|&(_, (_, d, r))| d > 0.0 || r > 0.0)
            || ((faults.dup > 0.0 || faults.reorder > 0.0) && links.len() < 2 * graph.edge_count());

        let mut scheduled = id_mask(&nodes, n);
        for &(v, _) in &nodes {
            scheduled.set(v, true);
        }
        let mut equivocator = id_mask(&faults.equivocators, n);
        for &v in &faults.equivocators {
            equivocator.set(v, true);
        }
        Ok(RunPlan {
            last_wake,
            absent_edges: churn.absent_edges.clone(),
            edge_events,
            nodes,
            scheduled,
            base: (faults.loss, faults.dup, faults.reorder, faults.corrupt),
            links,
            equivocator,
            partitions: faults
                .partitions
                .iter()
                .map(|p| {
                    let mut side = BitSet::new(n);
                    for &v in &p.side {
                        side.set(v, true);
                    }
                    (p.from_round, p.until_round, side)
                })
                .collect(),
            squalls: faults.squalls.clone(),
            any_dup_or_reorder,
        })
    }

    /// Bytes the plan holds on the heap. A clean plan holds none, on any
    /// graph.
    #[cfg_attr(not(test), allow(dead_code))] // a memory profile's input
    pub(crate) fn heap_bytes(&self) -> usize {
        fn vec<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        fn bits(b: &BitSet) -> usize {
            std::mem::size_of_val(b.words())
        }
        vec(&self.absent_edges)
            + vec(&self.edge_events)
            + vec(&self.nodes)
            + bits(&self.scheduled)
            + vec(&self.links)
            + bits(&self.equivocator)
            + vec(&self.partitions)
            + self.partitions.iter().map(|(_, _, side)| bits(side)).sum::<usize>()
            + vec(&self.squalls)
    }

    /// Node and edge presence at round 0, as fresh masks for an engine
    /// to mutate.
    pub(crate) fn initial_presence(&self, graph: &dyn Topology) -> (BitSet, BitSet) {
        let mut node_present = BitSet::filled(graph.node_count(), true);
        for &(v, s) in &self.nodes {
            if s.absent {
                node_present.set(v, false);
            }
        }
        let mut edge_present = BitSet::filled(graph.edge_count(), true);
        for &e in &self.absent_edges {
            edge_present.set(e, false);
        }
        (node_present, edge_present)
    }

    /// The schedule of node `v`, if it has one.
    #[inline]
    fn schedule(&self, v: NodeId) -> Option<&NodeSchedule> {
        if self.scheduled.is_empty() || !self.scheduled[v] {
            return None;
        }
        self.nodes.binary_search_by_key(&v, |&(u, _)| u).ok().map(|i| &self.nodes[i].1)
    }

    /// Whether node `v` is present at round 0.
    pub(crate) fn present_at_start(&self, v: NodeId) -> bool {
        self.schedule(v).is_none_or(|s| !s.absent)
    }

    /// Whether node `v` is a Byzantine equivocator.
    #[inline]
    pub(crate) fn equivocates(&self, v: NodeId) -> bool {
        !self.equivocator.is_empty() && self.equivocator[v]
    }

    /// Whether `v → u` crosses an active partition cut in `round`.
    pub(crate) fn partitioned(&self, round: usize, v: NodeId, u: NodeId) -> bool {
        self.partitions
            .iter()
            .any(|&(from, until, ref side)| round >= from && round <= until && side[v] != side[u])
    }

    /// `(loss, dup, reorder, corrupt)` on messages leaving `(v, port)`,
    /// before squalls.
    #[inline]
    fn fx(&self, v: NodeId, port: Port) -> (f64, f64, f64, f64) {
        if !self.links.is_empty() {
            if let Ok(i) = self.links.binary_search_by_key(&(v, port), |&(p, _)| p) {
                let (loss, dup, reorder) = self.links[i].1;
                return (loss, dup, reorder, self.base.3);
            }
        }
        self.base
    }

    /// The fate of the message leaving `(v, port)` in `round`.
    ///
    /// Drawn from a dedicated RNG keyed on the message coordinates
    /// (see [`rng::fault_rng`]), so the result is independent of flush
    /// order — any engine, sharded or sequential, sees the same fate for
    /// the same message. Draw order within a message mirrors the gates:
    /// loss first (a lost message draws nothing else), then duplication,
    /// then reordering (plus its delay), then corruption (decision plus
    /// kind). A plan with `corrupt = 0` therefore draws the exact same
    /// loss/dup/reorder pattern as before corruption existed.
    pub(crate) fn message_fate(
        &self,
        seed: u64,
        run: u64,
        round: usize,
        v: NodeId,
        port: Port,
    ) -> MsgFate {
        let (mut loss, dup, reorder, mut corrupt) = self.fx(v, port);
        // Squall overlay: a pure function of the round, so the effective
        // probabilities (and hence the keyed per-message draws) are
        // identical on every backend. A message outside every window
        // sees the base probabilities bit-for-bit.
        for s in &self.squalls {
            if round >= s.from_round && round <= s.until_round {
                loss = loss.max(s.loss);
                corrupt = corrupt.max(s.corrupt);
            }
        }
        if loss <= 0.0 && dup <= 0.0 && reorder <= 0.0 && corrupt <= 0.0 {
            return MsgFate::default();
        }
        use rand::RngExt;
        let mut rng = rng::fault_rng(seed, run, round, v, port);
        if loss > 0.0 && rng.random_bool(loss) {
            return MsgFate { lost: true, ..MsgFate::default() };
        }
        let duplicated = dup > 0.0 && rng.random_bool(dup);
        let delayed = if reorder > 0.0 && rng.random_bool(reorder) {
            Some(1 + rng.random_range(0..3usize))
        } else {
            None
        };
        let corrupt = if corrupt > 0.0 && rng.random_bool(corrupt) {
            Some(CorruptKind::draw(&mut rng))
        } else {
            None
        };
        MsgFate { lost: false, duplicated, delayed, corrupt }
    }

    /// Whether node `u` counts as present in `round` from the viewpoint
    /// of `observer`'s execution slot.
    ///
    /// The sequential engine mutates its presence array in node order
    /// within a round, so a same-round join/leave of `u` is visible to a
    /// sender `v` only when `u < v`. This reconstruction lets shards
    /// evaluate the identical predicate without sharing mutable state.
    pub(crate) fn present_seen(&self, u: NodeId, round: usize, observer: NodeId) -> bool {
        let Some(s) = self.schedule(u) else {
            return true;
        };
        let mut present = !s.absent;
        if let Some(jr) = s.join {
            if jr < round || (jr == round && u < observer) {
                present = true;
            }
        }
        if let Some(lr) = s.leave {
            if lr < round || (lr == round && u < observer) {
                present = false;
            }
        }
        present
    }

    /// The transition node `v` undergoes at the start of `round`, if any.
    ///
    /// A node has at most one of each kind, and validation keeps crashed
    /// nodes apart from churned ones and a recovery strictly after its
    /// crash, so the only possible tie is a join and a leave in the same
    /// round; the leave wins.
    #[inline]
    pub(crate) fn node_event(&self, v: NodeId, round: usize) -> Option<NodeEvent> {
        let s = self.schedule(v)?;
        let at = Some(round);
        if s.leave == at {
            Some(NodeEvent::Leave)
        } else if s.join == at {
            Some(NodeEvent::Join)
        } else if s.crash == at {
            Some(NodeEvent::Crash)
        } else if s.recovery == at {
            Some(NodeEvent::Recover)
        } else {
            None
        }
    }
}

/// The result of one protocol run.
#[derive(Debug, Clone)]
pub struct RunOutcome<O> {
    /// Per-node outputs, indexed by node id.
    pub outputs: Vec<O>,
    /// Statistics of this run.
    pub stats: RunStats,
    /// Per-node transport-session exports, indexed by node id — sampled
    /// once via [`Protocol::session`] after the last round, before the
    /// outputs were collected. `None` for protocols without a session
    /// (the plain engine's default). Checkpointing reads these to
    /// validate quiescence and record incarnation state; nothing in the
    /// engine consumes them.
    pub sessions: Vec<Option<crate::node::SessionState>>,
}

/// Everything a [`Network::execute`] run injects: a [`FaultPlan`] and a
/// [`ChurnPlan`]. The default plan injects nothing, which is a clean run.
#[derive(Debug, Clone, Default)]
pub struct ExecPlan {
    /// Injected faults.
    pub faults: FaultPlan,
    /// Scheduled topology churn.
    pub churn: ChurnPlan,
}

impl ExecPlan {
    /// A plan with both parts.
    #[must_use]
    pub fn new(faults: FaultPlan, churn: ChurnPlan) -> ExecPlan {
        ExecPlan { faults, churn }
    }
}

impl From<FaultPlan> for ExecPlan {
    fn from(faults: FaultPlan) -> ExecPlan {
        ExecPlan { faults, churn: ChurnPlan::default() }
    }
}

impl From<ChurnPlan> for ExecPlan {
    fn from(churn: ChurnPlan) -> ExecPlan {
        ExecPlan { faults: FaultPlan::default(), churn }
    }
}

/// A synchronous network over a graph topology.
///
/// One `Network` can execute many protocol runs (the *phases* of a larger
/// algorithm) through its one entry point, [`Network::execute`];
/// [`Network::totals`] accumulates their combined cost, which is the
/// quantity the paper's theorems bound.
pub struct Network<'g> {
    graph: &'g dyn Topology,
    config: SimConfig,
    run_counter: u64,
    totals: TotalStats,
    /// The port-translation table every backend delivers through.
    peers: Peers,
    /// Virtual-time accounting of the most recent asynchronous run
    /// ([`crate::Backend::Async`]); `None` before the first one.
    async_info: Option<crate::asynchrony::AsyncInfo>,
    /// Telemetry middleware: when set, every run streams one
    /// [`crate::telemetry::RoundSample`] per executed round into the
    /// sink. Sampling reads the already-final counters at the round
    /// boundary and writes nothing back, so attaching a sink cannot
    /// perturb a run (the differential suites assert this).
    sink: Option<crate::telemetry::SinkHandle>,
}

/// The sequential engine's network state: what its deliveries read and
/// write between node steps.
struct SeqNet<'a, M> {
    halted: BitSet,
    node_present: BitSet,
    edge_present: BitSet,
    mailbox: Mailbox<'a, M>,
    /// Messages put into the mailbox this round, for quiescence.
    delivered: usize,
    /// The asynchronous backend's virtual-time layer.
    timing: Option<AsyncTiming<'a>>,
}

impl<M> SeqNet<'_, M> {
    /// Empties `v`'s mailbox for `round` into `inbox`, or discards it;
    /// under a patience budget, frames that resolved late at `v` are
    /// dropped (the slot payload and every duplicated/reordered copy).
    fn drain(&mut self, v: NodeId, round: usize, inbox: Option<&mut Vec<(Port, M)>>) {
        let timing = &mut self.timing;
        self.mailbox.drain(v, round, inbox, |q, sent| {
            timing.as_mut().is_some_and(|tm| tm.drops(v, q, sent))
        });
    }
}

impl<M> Deliver<M> for SeqNet<'_, M> {
    fn open(&self, _round: usize, _v: NodeId, u: NodeId, e: usize) -> bool {
        self.edge_present[e] && self.node_present[u]
    }

    fn now(&mut self, round: usize, _v: NodeId, u: NodeId, q: Port, msg: M) {
        if !self.halted[u] {
            self.mailbox.put(round, u, q, msg);
            self.delivered += 1;
        }
    }

    fn later(&mut self, at: usize, round: usize, u: NodeId, q: Port, msg: M) {
        self.mailbox.later(at, round, u, q, msg);
    }

    fn begin_step(&mut self, v: NodeId) {
        if let Some(tm) = self.timing.as_mut() {
            tm.begin_step(v);
        }
    }

    fn note_frame(&mut self, port: Port) {
        if let Some(tm) = self.timing.as_mut() {
            tm.note_frame(port);
        }
    }

    fn end_step(&mut self, v: NodeId) {
        if let Some(tm) = self.timing.as_mut() {
            tm.end_step(v, &self.edge_present, &self.node_present);
        }
    }
}

/// One run's result, the trace events it collected, or its error.
pub(crate) type BackendResult<O> = Result<(RunOutcome<O>, Option<Vec<TraceEvent>>), SimError>;

impl<'g> Network<'g> {
    /// Creates a network over any [`Topology`] — a materialized CSR
    /// [`dam_graph::Graph`] or an implicit generator; `&Graph` coerces at
    /// the call site.
    #[must_use]
    pub fn new(graph: &'g dyn Topology, config: SimConfig) -> Network<'g> {
        Network {
            graph,
            config,
            run_counter: 0,
            totals: TotalStats::default(),
            peers: Peers::new(graph),
            async_info: None,
            sink: None,
        }
    }

    /// Attaches (or, with `None`, detaches) a per-round telemetry sink.
    /// Applies to every subsequent run on any backend.
    pub fn set_stats_sink(&mut self, sink: Option<crate::telemetry::SinkHandle>) {
        self.sink = sink;
    }

    /// The attached telemetry sink, if any (shared with the sharded
    /// executor).
    pub(crate) fn stats_sink(&self) -> Option<&crate::telemetry::SinkHandle> {
        self.sink.as_ref()
    }

    /// Streams one cumulative sample for the round that just completed.
    /// Read-only over the counters; a no-op without a sink.
    pub(crate) fn sample_round(
        &self,
        run: u64,
        round: usize,
        stats: &RunStats,
        integrity: &Integrity,
    ) {
        if let Some(sink) = &self.sink {
            sink.record(crate::telemetry::RoundSample {
                run,
                round: round as u64,
                messages: stats.messages,
                retransmissions: stats.retransmissions,
                heartbeats: stats.heartbeats,
                maintenance: stats.maintenance,
                churn_events: stats.churn_events,
                churn_drops: stats.churn_drops,
                suspected: integrity.suspected,
                rejected: integrity.rejected,
                quarantined: integrity.quarantined,
                outstanding: integrity.outstanding,
            });
        }
    }

    /// The underlying topology.
    #[must_use]
    pub fn graph(&self) -> &'g dyn Topology {
        self.graph
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// Cumulative statistics over all runs so far.
    #[must_use]
    pub fn totals(&self) -> TotalStats {
        self.totals
    }

    /// Resets the cumulative statistics (not the run counter, so
    /// randomness stays fresh).
    pub fn reset_totals(&mut self) {
        self.totals = TotalStats::default();
    }

    /// The `(neighbour, remote port)` pair behind `(node, port)`.
    #[must_use]
    pub fn peer(&self, node: NodeId, port: Port) -> (NodeId, Port) {
        self.peers.get(node, port)
    }

    /// The port-translation table (shared with the sharded executor).
    pub(crate) fn peers(&self) -> &Peers {
        &self.peers
    }

    /// Virtual-time accounting (makespan, synchronizer markers, timing
    /// drops) of the most recent successful [`crate::Backend::Async`]
    /// run; `None` if no asynchronous run has completed yet.
    #[must_use]
    pub fn async_info(&self) -> Option<crate::asynchrony::AsyncInfo> {
        self.async_info
    }

    /// Executes one protocol run: `make(v, graph)` builds node `v`'s
    /// state machine.
    ///
    /// `plan` injects faults and topology churn; its default is a clean
    /// run. With `trace` set, every send (with its width), halt, injected
    /// fault ([`TraceEvent::Fault`]) and applied topology event
    /// ([`TraceEvent::Churn`]) is appended to it; on an error the trace
    /// is left as it was.
    ///
    /// [`SimConfig::effective_backend`] picks the backend: the
    /// sequential reference engine, the sharded executor
    /// ([`crate::parallel`]) on `max(threads, 2)` workers, or the
    /// asynchronous backend ([`crate::asynchrony`]), which times the same
    /// rounds in virtual time under [`SimConfig::delay`]. All three
    /// deliver through one kernel and give bit-identical outputs,
    /// statistics, traces and errors. The two exceptions are the async
    /// backend's [`RunStats::markers`] and the frames it drops past a
    /// [`SimConfig::patience`] budget (see [`Network::async_info`]).
    ///
    /// Crashed nodes stop silently at their crash round; their output
    /// reflects the state at the crash (or at the end, if they
    /// recovered). Churn events apply at round boundaries in round order
    /// (plan order within a round): edges flap, absent nodes join with
    /// fresh state, present nodes leave permanently. The run does not
    /// end before the last scheduled recovery or topology event. All
    /// injections are deterministic in `(seed, run)`.
    ///
    /// # Errors
    /// [`SimError::InvalidFaultPlan`] or [`SimError::InvalidChurnPlan`]
    /// if the plan fails [`FaultPlan::validate`],
    /// [`ChurnPlan::validate`] or [`ChurnPlan::validate_against`];
    /// [`SimError::RoundLimitExceeded`] if the round guard fires
    /// (protocols without timeouts typically hit it when a neighbour
    /// crashes, which is itself the measurement);
    /// [`SimError::DuplicateSend`] on a double send.
    ///
    /// # Panics
    /// On an oversize message under [`crate::ViolationPolicy::Panic`], or if
    /// protocol code panics (a sharded worker's panic is resumed on the
    /// calling thread).
    pub fn execute<P, F>(
        &mut self,
        make: F,
        plan: &ExecPlan,
        trace: Option<&mut Trace>,
    ) -> Result<RunOutcome<P::Output>, SimError>
    where
        P: Protocol + Send,
        F: Fn(NodeId, &dyn Topology) -> P + Sync,
    {
        let run_plan = RunPlan::build(self.graph, &plan.faults, &plan.churn)?;
        let run_id = self.next_run_id();
        let traced = trace.is_some();
        // One worker (or a trivial graph): the sequential engine IS the
        // sharded semantics; no need to spin up a pool.
        let threads = self.config.threads.max(2).min(self.graph.node_count());
        let (outcome, events) = match self.config.effective_backend() {
            Backend::Sharded if threads > 1 => {
                self.run_sharded(&make, &run_plan, run_id, traced, threads)?
            }
            backend => {
                self.run_rounds(&make, &run_plan, run_id, traced, backend == Backend::Async)?
            }
        };
        self.totals.record(&outcome.stats);
        if let (Some(trace), Some(events)) = (trace, events) {
            trace.extend(events);
        }
        Ok(outcome)
    }

    /// Allocates the next run id (also advances the randomness stream).
    fn next_run_id(&mut self) -> u64 {
        let id = self.run_counter;
        self.run_counter += 1;
        id
    }

    /// The sequential engine. With `timed`, the asynchronous backend:
    /// the α-synchronizer contract makes message contents independent of
    /// timing, so it runs the *same* payload pipeline with a
    /// virtual-time layer on top that only tracks per-node completion
    /// times, counts the synchronizer's empty-round markers, and — under
    /// a patience budget — decides which frames arrive too late to be
    /// delivered.
    fn run_rounds<P, F>(
        &mut self,
        make: &F,
        plan: &RunPlan,
        run_id: u64,
        traced: bool,
        timed: bool,
    ) -> BackendResult<P::Output>
    where
        P: Protocol,
        F: Fn(NodeId, &dyn Topology) -> P,
    {
        let n = self.graph.node_count();
        let config = self.config;
        if timed {
            self.async_info = None;
        }
        let kernel = Kernel { graph: self.graph, config, plan, peers: &self.peers, run_id };
        let (node_present, edge_present) = plan.initial_presence(self.graph);
        let mut net: SeqNet<'_, P::Msg> = SeqNet {
            halted: BitSet::new(n),
            node_present,
            edge_present,
            mailbox: Mailbox::new(&self.peers.offsets, plan.any_dup_or_reorder),
            delivered: 0,
            timing: timed.then(|| {
                AsyncTiming::new(
                    self.graph,
                    &self.peers,
                    config.delay,
                    config.patience,
                    config.seed,
                    run_id,
                )
            }),
        };
        // All halted + `plan.last_wake` reached ⇒ nothing can wake up
        // again (neither a recovery nor a scheduled topology event).
        let last_wake = plan.last_wake;
        let mut edge_event_idx = 0usize;

        let mut protos: Vec<P> = (0..n).map(|v| make(v, self.graph)).collect();
        let mut rngs: Vec<_> = (0..n).map(|v| rng::node_rng(config.seed, run_id, v)).collect();
        let mut inbox: Vec<(Port, P::Msg)> = Vec::new();
        let mut outbox: Vec<(Port, P::Msg)> = Vec::new();
        let mut sent = vec![false; self.graph.max_degree()];
        let mut fault: Option<SimError> = None;
        let mut tally = Tally::new(traced);
        // Receiver-side integrity reports (Context::note_rejected /
        // note_quarantined), folded into the stats after the run so the
        // quiescence detector's frames() view is unaffected.
        let mut integrity = Integrity::default();

        // Round 0: on_start.
        let mut round = 0usize;
        for v in 0..n {
            if !net.node_present[v] {
                // Absent at round 0: silent until it joins (if ever).
                net.halted.set(v, true);
                continue;
            }
            // The word-packed mask cannot hand out `&mut bool`, so the
            // node's halt flag is copied out for the callback and written
            // back before anyone else can observe it.
            let mut halt_flag = net.halted[v];
            let mut ctx = Context {
                node: v,
                round,
                graph: self.graph,
                rng: &mut rngs[v],
                outbox: &mut outbox,
                sent: &mut sent,
                halted: &mut halt_flag,
                fault: &mut fault,
                integrity: &mut integrity,
            };
            protos[v].on_start(&mut ctx);
            net.halted.set(v, halt_flag);
            kernel.flush(v, round, &mut outbox, &mut sent, &mut tally, &mut net);
            if net.halted[v] {
                tally.record(TraceEvent::Halt { round, node: v });
            }
            if let Some(err) = fault.take() {
                return Err(err);
            }
        }
        tally.stats.rounds = tally.stats.rounds.saturating_add(1);
        tally.stats.charged_rounds =
            tally.stats.charged_rounds.saturating_add(self.charge(tally.round_max_bits));
        self.sample_round(run_id, round, &tally.stats, &integrity);

        let mut quiet_rounds = 0usize;
        let mut last_messages = tally.stats.frames();
        loop {
            if net.halted.all() && round >= last_wake {
                break;
            }
            if let Some(k) = config.quiescence {
                if tally.stats.frames() == last_messages
                    && net.delivered == 0
                    && net.mailbox.pending() == 0
                {
                    quiet_rounds += 1;
                    if quiet_rounds >= k && round >= last_wake {
                        break; // message-driven protocols are done
                    }
                } else {
                    quiet_rounds = 0;
                }
                last_messages = tally.stats.frames();
            }
            if round >= config.max_rounds {
                return Err(SimError::RoundLimitExceeded {
                    limit: config.max_rounds,
                    running: n - net.halted.count_ones(),
                });
            }
            round += 1;
            tally.round_max_bits = 0;
            net.delivered = 0;
            // Advance virtual time before this round's edge events: the
            // frames being timed were sent under the previous topology.
            if let Some(tm) = net.timing.as_mut() {
                tm.advance(round, &net.edge_present);
            }
            // Apply this round's edge events before anyone executes;
            // node events are applied at each node's slot below.
            while edge_event_idx < plan.edge_events.len()
                && plan.edge_events[edge_event_idx].round == round
            {
                let ev = plan.edge_events[edge_event_idx];
                edge_event_idx += 1;
                match ev.kind {
                    ChurnKind::EdgeUp { edge } => net.edge_present.set(edge, true),
                    ChurnKind::EdgeDown { edge } => net.edge_present.set(edge, false),
                    ChurnKind::Join { .. } | ChurnKind::Leave { .. } => unreachable!(),
                }
                tally.stats.churn_events = tally.stats.churn_events.saturating_add(1);
                tally.record(TraceEvent::Churn { round, kind: ev.kind });
            }
            for v in 0..n {
                // A join or a recovery boots a fresh instance; `boot` is
                // the salt of its randomness stream.
                let boot = match plan.node_event(v, round) {
                    Some(NodeEvent::Leave) => {
                        // Permanent leave: silent, like a crash that never
                        // recovers — but also absent from the topology, so
                        // no message can reach its ports again.
                        net.node_present.set(v, false);
                        net.halted.set(v, true);
                        net.drain(v, round, None);
                        tally.stats.churn_events = tally.stats.churn_events.saturating_add(1);
                        tally.record(TraceEvent::Churn {
                            round,
                            kind: ChurnKind::Leave { node: v },
                        });
                        continue;
                    }
                    Some(NodeEvent::Join) => {
                        // Join: fresh ports, empty registers, a randomness
                        // stream distinct from both boots and reboots.
                        net.node_present.set(v, true);
                        tally.stats.churn_events = tally.stats.churn_events.saturating_add(1);
                        tally
                            .record(TraceEvent::Churn { round, kind: ChurnKind::Join { node: v } });
                        Some(0x1099)
                    }
                    Some(NodeEvent::Crash) => {
                        if !net.halted[v] {
                            net.halted.set(v, true); // crash-stop: silent, mid-protocol
                            tally.record(TraceEvent::Fault {
                                round,
                                kind: FaultKind::Crash,
                                node: v,
                                peer: None,
                            });
                        }
                        None
                    }
                    Some(NodeEvent::Recover) => {
                        // Crash-recover: reboot with wiped state and a
                        // fresh randomness stream, then run on_start as a
                        // cold boot.
                        tally.record(TraceEvent::Fault {
                            round,
                            kind: FaultKind::Recover,
                            node: v,
                            peer: None,
                        });
                        Some(0xB007)
                    }
                    None => None,
                };
                if let Some(salt) = boot {
                    protos[v] = make(v, self.graph);
                    rngs[v] = rng::node_rng(config.seed ^ salt, run_id, v);
                    net.halted.set(v, false);
                    net.drain(v, round, None);
                    let mut halt_flag = false;
                    let mut ctx = Context {
                        node: v,
                        round,
                        graph: self.graph,
                        rng: &mut rngs[v],
                        outbox: &mut outbox,
                        sent: &mut sent,
                        halted: &mut halt_flag,
                        fault: &mut fault,
                        integrity: &mut integrity,
                    };
                    protos[v].on_start(&mut ctx);
                    net.halted.set(v, halt_flag);
                    kernel.flush(v, round, &mut outbox, &mut sent, &mut tally, &mut net);
                    if let Some(err) = fault.take() {
                        return Err(err);
                    }
                    continue;
                }
                if net.halted[v] {
                    net.drain(v, round, None);
                    continue;
                }
                net.drain(v, round, Some(&mut inbox));
                let mut halt_flag = false;
                let mut ctx = Context {
                    node: v,
                    round,
                    graph: self.graph,
                    rng: &mut rngs[v],
                    outbox: &mut outbox,
                    sent: &mut sent,
                    halted: &mut halt_flag,
                    fault: &mut fault,
                    integrity: &mut integrity,
                };
                protos[v].on_round(&mut ctx, &inbox);
                net.halted.set(v, halt_flag);
                inbox.clear();
                kernel.flush(v, round, &mut outbox, &mut sent, &mut tally, &mut net);
                if net.halted[v] {
                    tally.record(TraceEvent::Halt { round, node: v });
                }
                if let Some(err) = fault.take() {
                    return Err(err);
                }
            }
            tally.stats.rounds = tally.stats.rounds.saturating_add(1);
            tally.stats.charged_rounds =
                tally.stats.charged_rounds.saturating_add(self.charge(tally.round_max_bits));
            self.sample_round(run_id, round, &tally.stats, &integrity);
        }

        let mut stats = tally.stats;
        integrity.fold_into(&mut stats);
        if let Some(tm) = net.timing.take() {
            let info = tm.finish();
            stats.markers = info.markers;
            self.async_info = Some(info);
        }
        let sessions = protos.iter().map(Protocol::session).collect();
        let outputs = protos.into_iter().map(Protocol::into_output).collect();
        Ok((RunOutcome { outputs, stats, sessions }, tally.trace))
    }

    /// Charged cost of a round whose widest message had `max_bits` bits.
    pub(crate) fn charge(&self, max_bits: usize) -> u64 {
        match (self.config.cost, self.config.model) {
            (CostModel::Pipelined, Model::Congest { bits }) if max_bits > 0 => {
                max_bits.div_ceil(bits).max(1) as u64
            }
            _ => 1,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::ViolationPolicy;
    use dam_graph::generators;

    /// One run of `make` under `plan`, returned with its trace.
    pub(crate) fn traced<P, F>(
        net: &mut Network<'_>,
        make: F,
        plan: &ExecPlan,
    ) -> Result<(RunOutcome<P::Output>, Trace), SimError>
    where
        P: Protocol + Send,
        F: Fn(NodeId, &dyn Topology) -> P + Sync,
    {
        let mut trace = Trace::new();
        net.execute(make, plan, Some(&mut trace)).map(|out| (out, trace))
    }

    /// Token passing around a directed cycle for a fixed number of laps.
    struct RingToken {
        laps: usize,
        holder: bool,
        received: usize,
    }

    impl Protocol for RingToken {
        type Msg = u32;
        type Output = usize;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if self.holder {
                // Port 1 of node v on a cycle built by `generators::cycle`
                // leads to v+1 for interior construction order; just use
                // port 0 consistently — direction does not matter for the
                // test, we only count hops.
                ctx.send(0, 1);
            }
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u32>, inbox: &[(Port, u32)]) {
            for &(port, hops) in inbox {
                self.received += 1;
                if (hops as usize) < self.laps {
                    // Forward out the other port.
                    let out = if port == 0 { 1 } else { 0 };
                    ctx.send(out, hops + 1);
                }
            }
            if ctx.round() > self.laps {
                ctx.halt();
            }
        }

        fn into_output(self) -> usize {
            self.received
        }
    }

    #[test]
    fn token_travels_and_stats_add_up() {
        let g = generators::cycle(6);
        let mut net = Network::new(&g, SimConfig::local().seed(3));
        let out = net
            .execute(
                |v, _| RingToken { laps: 12, holder: v == 0, received: 0 },
                &ExecPlan::default(),
                None,
            )
            .unwrap();
        // 12 hops = 12 messages forwarded (1 initial + 11 forwards).
        assert_eq!(out.stats.messages, 12);
        assert_eq!(out.stats.total_bits, 12 * 32);
        assert_eq!(out.stats.max_message_bits, 32);
        assert_eq!(out.stats.violations, 0);
        let total_received: usize = out.outputs.iter().sum();
        assert_eq!(total_received, 12);
        assert_eq!(net.totals().runs, 1);
    }

    #[test]
    fn congest_violations_are_recorded() {
        struct Blaster;
        impl Protocol for Blaster {
            type Msg = Vec<u64>;
            type Output = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Vec<u64>>) {
                ctx.broadcast(vec![0u64; 10]); // 640 bits
            }
            fn on_round(&mut self, ctx: &mut Context<'_, Vec<u64>>, _: &[(Port, Vec<u64>)]) {
                ctx.halt();
            }
            fn into_output(self) {}
        }
        let g = generators::complete(4);
        let mut net = Network::new(&g, SimConfig::congest(64));
        let out = net.execute(|_, _| Blaster, &ExecPlan::default(), None).unwrap();
        assert_eq!(out.stats.violations, 12); // 4 nodes × 3 neighbours
        assert_eq!(out.stats.max_message_bits, 640);
    }

    #[test]
    #[should_panic(expected = "CONGEST violation")]
    fn congest_violations_can_panic() {
        struct Blaster;
        impl Protocol for Blaster {
            type Msg = Vec<u64>;
            type Output = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Vec<u64>>) {
                ctx.broadcast(vec![0u64; 10]);
            }
            fn on_round(&mut self, ctx: &mut Context<'_, Vec<u64>>, _: &[(Port, Vec<u64>)]) {
                ctx.halt();
            }
            fn into_output(self) {}
        }
        let g = generators::complete(3);
        let mut net = Network::new(&g, SimConfig::congest(64).violation(ViolationPolicy::Panic));
        let _ = net.execute(|_, _| Blaster, &ExecPlan::default(), None);
    }

    #[test]
    fn pipelined_cost_charges_wide_rounds() {
        struct WideOnce;
        impl Protocol for WideOnce {
            type Msg = Vec<u64>;
            type Output = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Vec<u64>>) {
                if ctx.id() == 0 {
                    ctx.send(0, vec![0u64; 4]); // 256 bits
                }
            }
            fn on_round(&mut self, ctx: &mut Context<'_, Vec<u64>>, _: &[(Port, Vec<u64>)]) {
                ctx.halt();
            }
            fn into_output(self) {}
        }
        let g = generators::path(3);
        let mut net = Network::new(&g, SimConfig::congest(64).cost(CostModel::Pipelined));
        let out = net.execute(|_, _| WideOnce, &ExecPlan::default(), None).unwrap();
        // Round 0 carried a 256-bit message over a 64-bit budget: 4
        // charged; round 1 is quiet: 1 charged.
        assert_eq!(out.stats.rounds, 2);
        assert_eq!(out.stats.charged_rounds, 5);
    }

    #[test]
    fn round_limit_guards_nontermination() {
        struct Forever;
        impl Protocol for Forever {
            type Msg = ();
            type Output = ();
            fn on_round(&mut self, _: &mut Context<'_, ()>, _: &[(Port, ())]) {}
            fn into_output(self) {}
        }
        let g = generators::path(2);
        let mut net = Network::new(&g, SimConfig::local().max_rounds(10));
        let err = net.execute(|_, _| Forever, &ExecPlan::default(), None).unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { limit: 10, running: 2 }));
    }

    #[test]
    fn duplicate_send_is_an_error() {
        struct Doubler;
        impl Protocol for Doubler {
            type Msg = u8;
            type Output = ();
            fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
                ctx.send(0, 1);
                ctx.send(0, 2);
            }
            fn on_round(&mut self, ctx: &mut Context<'_, u8>, _: &[(Port, u8)]) {
                ctx.halt();
            }
            fn into_output(self) {}
        }
        let g = generators::path(2);
        let mut net = Network::new(&g, SimConfig::local());
        let err = net.execute(|_, _| Doubler, &ExecPlan::default(), None).unwrap_err();
        assert!(matches!(err, SimError::DuplicateSend { node: 0, port: 0, round: 0 }));
    }

    #[test]
    fn determinism_across_identical_networks() {
        use rand::RngExt;
        struct Coins {
            flips: Vec<bool>,
        }
        impl Protocol for Coins {
            type Msg = ();
            type Output = Vec<bool>;
            fn on_round(&mut self, ctx: &mut Context<'_, ()>, _: &[(Port, ())]) {
                self.flips.push(ctx.rng().random_bool(0.5));
                if ctx.round() == 20 {
                    ctx.halt();
                }
            }
            fn into_output(self) -> Vec<bool> {
                self.flips
            }
        }
        let g = generators::gnp(10, 0.3, &mut rand::rngs::StdRng::seed_from_u64(1));
        let run = |seed| {
            let mut net = Network::new(&g, SimConfig::local().seed(seed));
            net.execute(|_, _| Coins { flips: Vec::new() }, &ExecPlan::default(), None)
                .unwrap()
                .outputs
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn traced_run_matches_stats() {
        let g = generators::cycle(6);
        let mut net = Network::new(&g, SimConfig::local().seed(3));
        let (out, trace) = traced(
            &mut net,
            |v, _| RingToken { laps: 12, holder: v == 0, received: 0 },
            &ExecPlan::default(),
        )
        .unwrap();
        let sends = trace.events().iter().filter(|e| matches!(e, TraceEvent::Send { .. })).count();
        assert_eq!(sends as u64, out.stats.messages);
        // Every node halts eventually, and the trace knows when.
        for v in g.nodes() {
            assert!(trace.halt_round(v).is_some(), "node {v} never halted in trace");
        }
        assert!(trace.summary().contains("round"));
    }

    /// Every node broadcasts its id each round for `rounds` rounds and
    /// counts what it hears — a traffic generator for fault tests.
    struct Chatter {
        rounds: usize,
        heard: usize,
    }

    impl Protocol for Chatter {
        type Msg = u64;
        type Output = usize;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.broadcast(ctx.id() as u64);
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[(Port, u64)]) {
            self.heard += inbox.len();
            if ctx.round() >= self.rounds {
                ctx.halt();
            } else {
                ctx.broadcast(ctx.id() as u64);
            }
        }

        fn into_output(self) -> usize {
            self.heard
        }
    }

    #[test]
    fn fault_plan_validation_rejects_bad_plans() {
        let g = generators::cycle(4);
        let reason = |p: &FaultPlan| match p.validate(&g) {
            Err(SimError::InvalidFaultPlan { reason }) => reason,
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        };
        assert!(reason(&FaultPlan::lossy(1.5)).contains("outside [0, 1]"));
        assert!(reason(&FaultPlan::lossy(-0.1)).contains("outside [0, 1]"));
        assert!(reason(&FaultPlan::lossy(f64::NAN)).contains("outside [0, 1]"));
        assert!(reason(&FaultPlan::default().with_dup(2.0)).contains("outside [0, 1]"));
        assert!(reason(&FaultPlan::default().with_corrupt(1.01)).contains("outside [0, 1]"));
        assert!(
            reason(&FaultPlan::default().with_corrupt(f64::INFINITY)).contains("outside [0, 1]")
        );
        assert!(reason(&FaultPlan::default().with_equivocators(vec![7])).contains("names node 7"));
        assert!(
            reason(&FaultPlan::default().with_equivocators(vec![1, 1])).contains("appears twice")
        );
        assert!(reason(&FaultPlan::default().with_liars(vec![4])).contains("names node 4"));
        assert!(reason(&FaultPlan::default().with_liars(vec![2, 0, 2])).contains("appears twice"));
        assert!(reason(&FaultPlan::crashes(vec![(1, 3), (1, 5)])).contains("crashed twice"));
        assert!(reason(&FaultPlan::crashes(vec![(9, 3)])).contains("names node 9"));
        assert!(reason(&FaultPlan::default().with_recoveries(vec![(2, 4)]))
            .contains("without ever crashing"));
        assert!(reason(&FaultPlan::crashes(vec![(2, 4)]).with_recoveries(vec![(2, 4)]))
            .contains("not after its crash"));
        assert!(reason(&FaultPlan::default().with_link(LinkFault {
            a: 0,
            b: 2, // cycle(4): 0-2 is not an edge
            loss: 0.5,
            dup: 0.0,
            reorder: 0.0,
        }))
        .contains("not an edge"));
        assert!(reason(&FaultPlan::default().with_partition(Partition {
            from_round: 5,
            until_round: 2,
            side: vec![0],
        }))
        .contains("inverted"));
        assert!(reason(&FaultPlan::default().with_squall(Squall {
            from_round: 0,
            until_round: 9,
            loss: 1.5,
            corrupt: 0.0,
        }))
        .contains("outside [0, 1]"));
        assert!(reason(&FaultPlan::default().with_squall(Squall {
            from_round: 0,
            until_round: 9,
            loss: 0.0,
            corrupt: f64::NAN,
        }))
        .contains("outside [0, 1]"));
        assert!(reason(&FaultPlan::default().with_squall(Squall {
            from_round: 7,
            until_round: 3,
            loss: 0.1,
            corrupt: 0.0,
        }))
        .contains("inverted"));
        // A valid compound plan passes.
        FaultPlan::crashes(vec![(0, 2)])
            .with_recoveries(vec![(0, 5)])
            .with_dup(0.1)
            .with_reorder(0.1)
            .with_corrupt(0.05)
            .with_equivocators(vec![1])
            .with_liars(vec![2, 3])
            .with_partition(Partition { from_round: 1, until_round: 3, side: vec![0, 1] })
            .with_squall(Squall { from_round: 2, until_round: 6, loss: 0.3, corrupt: 0.1 })
            .validate(&g)
            .unwrap();
        // And execute surfaces validation errors.
        let mut net = Network::new(&g, SimConfig::local());
        let err = net
            .execute(
                |_, _| Chatter { rounds: 3, heard: 0 },
                &ExecPlan::from(FaultPlan::lossy(7.0)),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidFaultPlan { .. }));
    }

    #[test]
    fn squall_injects_only_inside_its_window() {
        let g = generators::cycle(4);
        // Certain loss in rounds 2..=3, nothing outside.
        let plan = FaultPlan::default().with_squall(Squall {
            from_round: 2,
            until_round: 3,
            loss: 1.0,
            corrupt: 0.0,
        });
        let mut net = Network::new(&g, SimConfig::local().seed(9));
        let (_, trace) =
            traced(&mut net, |_, _| Chatter { rounds: 6, heard: 0 }, &ExecPlan::from(plan.clone()))
                .unwrap();
        let loss_rounds: Vec<usize> = trace
            .faults()
            .filter(|e| matches!(e, TraceEvent::Fault { kind: FaultKind::Loss, .. }))
            .map(TraceEvent::round)
            .collect();
        assert!(!loss_rounds.is_empty(), "squall injected nothing");
        assert!(
            loss_rounds.iter().all(|&r| (2..=3).contains(&r)),
            "loss outside the squall window: {loss_rounds:?}"
        );
    }

    #[test]
    fn dormant_squall_is_bit_identical_to_no_plan() {
        // A squall whose window the run never reaches must not change a
        // single draw: the overlaid probabilities stay zero outside it.
        let g = generators::cycle(4);
        let mut clean = Network::new(&g, SimConfig::local().seed(9));
        let base = clean
            .execute(|_, _| Chatter { rounds: 5, heard: 0 }, &ExecPlan::default(), None)
            .unwrap();
        let plan = FaultPlan::default().with_squall(Squall {
            from_round: 10_000,
            until_round: 10_001,
            loss: 1.0,
            corrupt: 1.0,
        });
        let mut net = Network::new(&g, SimConfig::local().seed(9));
        let out = net
            .execute(|_, _| Chatter { rounds: 5, heard: 0 }, &ExecPlan::from(plan.clone()), None)
            .unwrap();
        assert_eq!(out.outputs, base.outputs);
        assert_eq!(out.stats, base.stats);
    }

    #[test]
    fn squall_overlay_takes_max_of_base_and_window() {
        // Base corruption + a corruption squall: inside the window the
        // squall dominates; the base still applies outside.
        let g = generators::path(2);
        let plan = FaultPlan::default().with_corrupt(0.0).with_squall(Squall {
            from_round: 0,
            until_round: 2,
            loss: 0.0,
            corrupt: 1.0,
        });
        let mut net = Network::new(&g, SimConfig::local().seed(5));
        let (out, trace) =
            traced(&mut net, |_, _| Chatter { rounds: 5, heard: 0 }, &ExecPlan::from(plan.clone()))
                .unwrap();
        let corrupt_rounds: Vec<usize> = trace
            .faults()
            .filter(|e| matches!(e, TraceEvent::Fault { kind: FaultKind::Corrupt { .. }, .. }))
            .map(TraceEvent::round)
            .collect();
        assert!(out.stats.corruptions > 0, "storm corrupted nothing");
        assert!(corrupt_rounds.iter().all(|&r| r <= 2), "corruption past the window");
    }

    #[test]
    fn attached_sink_observes_without_perturbing() {
        use crate::telemetry::{RecordingSink, SinkHandle};
        use std::sync::Arc;
        let g = generators::cycle(4);
        let plan = FaultPlan::lossy(0.2);
        let mut bare = Network::new(&g, SimConfig::local().seed(3).max_rounds(5_000));
        let base = bare
            .execute(|_, _| Chatter { rounds: 5, heard: 0 }, &ExecPlan::from(plan.clone()), None)
            .unwrap();
        let sink = Arc::new(RecordingSink::new());
        let mut net = Network::new(&g, SimConfig::local().seed(3).max_rounds(5_000));
        net.set_stats_sink(Some(SinkHandle::from(Arc::clone(&sink))));
        let out = net
            .execute(|_, _| Chatter { rounds: 5, heard: 0 }, &ExecPlan::from(plan.clone()), None)
            .unwrap();
        // Observation changed nothing…
        assert_eq!(out.outputs, base.outputs);
        assert_eq!(out.stats, base.stats);
        // …and recorded one cumulative sample per executed round, ending
        // exactly on the run's final counters.
        let samples = sink.samples();
        assert_eq!(samples.len() as u64, out.stats.rounds);
        let final_sample = samples.last().unwrap();
        assert_eq!(final_sample.messages, out.stats.messages);
        assert_eq!(final_sample.round + 1, out.stats.rounds);
        assert!(samples.windows(2).all(|w| w[0].round + 1 == w[1].round), "round gap");
        assert!(
            samples.windows(2).all(|w| w[0].messages <= w[1].messages),
            "cumulative counters must be monotone"
        );
    }

    #[test]
    fn crash_recover_reboots_with_wiped_state() {
        // Node 0 crashes at round 2 and reboots at round 5: after the
        // reboot it chats again from scratch, so its neighbours hear
        // from it both before the crash and after the recovery.
        let g = generators::cycle(4);
        let plan = FaultPlan::crashes(vec![(0, 2)]).with_recoveries(vec![(0, 5)]);
        let mut net = Network::new(&g, SimConfig::local().seed(11));
        let (out, trace) =
            traced(&mut net, |_, _| Chatter { rounds: 8, heard: 0 }, &ExecPlan::from(plan.clone()))
                .unwrap();
        let crash = trace
            .faults()
            .find(|e| matches!(e, TraceEvent::Fault { kind: FaultKind::Crash, .. }))
            .expect("crash traced");
        let recover = trace
            .faults()
            .find(|e| matches!(e, TraceEvent::Fault { kind: FaultKind::Recover, .. }))
            .expect("recovery traced");
        assert_eq!(crash.round(), 2);
        assert_eq!(recover.round(), 5);
        // Node 0 sends in rounds 0..2 (pre-crash) and 5..=8 (post-boot).
        let send_rounds: Vec<usize> = trace.sends_of(0).map(TraceEvent::round).collect();
        assert!(send_rounds.iter().any(|&r| r < 2), "pre-crash sends missing");
        assert!(send_rounds.iter().any(|&r| r >= 5), "post-recovery sends missing");
        assert!(
            !send_rounds.iter().any(|&r| (2..5).contains(&r)),
            "node 0 sent while crashed: {send_rounds:?}"
        );
        // The rebooted node restarts its own round count from the boot,
        // so it halts later than the others but still halts.
        assert!(out.outputs.iter().all(|&h| h > 0));
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let g = generators::path(2);
        let plan = FaultPlan::default().with_dup(1.0);
        let mut net = Network::new(&g, SimConfig::local().seed(5));
        let (out, trace) =
            traced(&mut net, |_, _| Chatter { rounds: 4, heard: 0 }, &ExecPlan::from(plan.clone()))
                .unwrap();
        let dups = trace
            .faults()
            .filter(|e| matches!(e, TraceEvent::Fault { kind: FaultKind::Duplicate, .. }))
            .count();
        assert!(dups > 0, "no duplications traced");
        // With certain duplication every received message is doubled
        // (minus copies still in flight at halt time), so nodes hear
        // strictly more than the fault-free count.
        let mut clean = Network::new(&g, SimConfig::local().seed(5));
        let base = clean
            .execute(|_, _| Chatter { rounds: 4, heard: 0 }, &ExecPlan::default(), None)
            .unwrap();
        let heard: usize = out.outputs.iter().sum();
        let base_heard: usize = base.outputs.iter().sum();
        assert!(heard > base_heard, "duplicates not delivered ({heard} vs {base_heard})");
    }

    #[test]
    fn reordering_delays_delivery() {
        let g = generators::path(2);
        let plan = FaultPlan::default().with_reorder(1.0);
        let mut net = Network::new(&g, SimConfig::local().seed(6));
        let (out, trace) =
            traced(&mut net, |_, _| Chatter { rounds: 6, heard: 0 }, &ExecPlan::from(plan.clone()))
                .unwrap();
        let delays: Vec<usize> = trace
            .faults()
            .filter_map(|e| match e {
                TraceEvent::Fault { kind: FaultKind::Reorder { delay }, .. } => Some(*delay),
                _ => None,
            })
            .collect();
        assert!(!delays.is_empty(), "no reorderings traced");
        assert!(delays.iter().all(|&d| (1..=3).contains(&d)));
        // Delayed messages still arrive (those landing before the halt).
        assert!(out.outputs.iter().sum::<usize>() > 0);
    }

    #[test]
    fn partition_blocks_cross_traffic_only() {
        // cycle(4) split into {0,1} | {2,3} for rounds 0..=2: edges 1-2
        // and 3-0 are cut, edges 0-1 and 2-3 keep working.
        let g = generators::cycle(4);
        let plan = FaultPlan::default().with_partition(Partition {
            from_round: 0,
            until_round: 2,
            side: vec![0, 1],
        });
        let mut net = Network::new(&g, SimConfig::local().seed(9));
        let (_, trace) =
            traced(&mut net, |_, _| Chatter { rounds: 6, heard: 0 }, &ExecPlan::from(plan.clone()))
                .unwrap();
        let cut: Vec<(usize, NodeId, Option<NodeId>)> = trace
            .faults()
            .filter_map(|e| match e {
                TraceEvent::Fault { round, kind: FaultKind::Partition, node, peer } => {
                    Some((*round, *node, *peer))
                }
                _ => None,
            })
            .collect();
        assert!(!cut.is_empty(), "partition dropped nothing");
        let side = [true, true, false, false];
        for &(r, v, u) in &cut {
            assert!(r <= 2, "drop outside the window at round {r}");
            let u = u.expect("message fault has a peer");
            assert_ne!(side[v], side[u], "dropped a same-side message {v}->{u}");
        }
        // Rounds past the window are unaffected: no partition drops.
        assert!(cut.iter().all(|&(r, _, _)| r <= 2));
    }

    #[test]
    fn per_link_faults_hit_only_that_link() {
        let g = generators::path(3); // edges 0-1, 1-2
        let plan = FaultPlan::default().with_link(LinkFault {
            a: 0,
            b: 1,
            loss: 1.0,
            dup: 0.0,
            reorder: 0.0,
        });
        let mut net = Network::new(&g, SimConfig::local().seed(13));
        let (out, trace) =
            traced(&mut net, |_, _| Chatter { rounds: 4, heard: 0 }, &ExecPlan::from(plan.clone()))
                .unwrap();
        for e in trace.faults() {
            if let TraceEvent::Fault { kind: FaultKind::Loss, node, peer, .. } = e {
                let pair = (*node, peer.unwrap());
                assert!(pair == (0, 1) || pair == (1, 0), "loss on the wrong link: {pair:?}");
            }
        }
        // Node 0 hears nothing (its only link is dead both ways), node 2
        // still hears node 1 over the healthy link.
        assert_eq!(out.outputs[0], 0);
        assert!(out.outputs[2] > 0);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let g = generators::gnp(16, 0.3, &mut rand::rngs::StdRng::seed_from_u64(2));
        let plan = FaultPlan::lossy(0.2)
            .with_dup(0.1)
            .with_reorder(0.15)
            .with_partition(Partition { from_round: 2, until_round: 4, side: (0..8).collect() });
        let go = || {
            let mut net = Network::new(&g, SimConfig::local().seed(21));
            traced(&mut net, |_, _| Chatter { rounds: 10, heard: 0 }, &ExecPlan::from(plan.clone()))
                .unwrap()
        };
        let (out_a, trace_a) = go();
        let (out_b, trace_b) = go();
        assert_eq!(out_a.outputs, out_b.outputs);
        assert_eq!(out_a.stats, out_b.stats);
        assert_eq!(trace_a.events(), trace_b.events());
    }

    #[test]
    fn churn_plan_validation_rejects_bad_plans() {
        let g = generators::cycle(4); // edges 0: 0-1, 1: 1-2, 2: 2-3, 3: 3-0
        let reason = |p: &ChurnPlan| match p.validate(&g) {
            Err(SimError::InvalidChurnPlan { reason }) => reason,
            other => panic!("expected InvalidChurnPlan, got {other:?}"),
        };
        assert!(reason(&ChurnPlan::default().with_absent_nodes(vec![9])).contains("absent node 9"));
        assert!(reason(&ChurnPlan::default().with_absent_nodes(vec![1, 1])).contains("twice"));
        assert!(reason(&ChurnPlan::default().with_absent_edges(vec![7])).contains("absent edge 7"));
        assert!(reason(&ChurnPlan::default().with_event(0, ChurnKind::EdgeDown { edge: 0 }))
            .contains("round 0"));
        assert!(reason(&ChurnPlan::default().with_event(3, ChurnKind::EdgeUp { edge: 0 }))
            .contains("already present"));
        assert!(reason(
            &ChurnPlan::default()
                .with_absent_edges(vec![1])
                .with_event(3, ChurnKind::EdgeDown { edge: 1 })
        )
        .contains("already absent"));
        assert!(reason(&ChurnPlan::default().with_event(3, ChurnKind::Join { node: 2 }))
            .contains("already present"));
        assert!(reason(
            &ChurnPlan::default()
                .with_event(2, ChurnKind::Leave { node: 2 })
                .with_event(5, ChurnKind::Join { node: 2 })
        )
        .contains("after leaving permanently"));
        assert!(reason(
            &ChurnPlan::default()
                .with_absent_nodes(vec![3])
                .with_event(4, ChurnKind::Leave { node: 3 })
        )
        .contains("not present"));
        // A consistent flap sequence passes.
        ChurnPlan::default()
            .with_absent_nodes(vec![0])
            .with_event(2, ChurnKind::EdgeDown { edge: 1 })
            .with_event(4, ChurnKind::EdgeUp { edge: 1 })
            .with_event(3, ChurnKind::Join { node: 0 })
            .with_event(6, ChurnKind::Leave { node: 0 })
            .validate(&g)
            .unwrap();
        // Overlap with the fault plan is rejected.
        let churn = ChurnPlan::default().with_event(2, ChurnKind::Leave { node: 1 });
        let faults = FaultPlan::crashes(vec![(1, 3)]);
        assert!(matches!(churn.validate_against(&faults), Err(SimError::InvalidChurnPlan { .. })));
        let mut net = Network::new(&g, SimConfig::local());
        let err = net
            .execute(
                |_, _| Chatter { rounds: 5, heard: 0 },
                &ExecPlan::new(faults.clone(), churn.clone()),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidChurnPlan { .. }));
    }

    #[test]
    fn edge_down_stops_delivery_and_counts_drops() {
        // path(2): one edge. Cut it at round 2; every later broadcast is
        // swallowed at the sender and billed as a churn drop.
        let g = generators::path(2);
        let churn = ChurnPlan::default().with_event(2, ChurnKind::EdgeDown { edge: 0 });
        let mut net = Network::new(&g, SimConfig::local().seed(4));
        let (out, trace) = traced(
            &mut net,
            |_, _| Chatter { rounds: 6, heard: 0 },
            &ExecPlan::from(churn.clone()),
        )
        .unwrap();
        assert_eq!(out.stats.churn_events, 1);
        // Rounds 2..=5 each see both nodes broadcast into the cut edge,
        // plus the round-6 halt round: sends from rounds 0..2 deliver.
        assert!(out.stats.churn_drops > 0, "no drops counted");
        assert_eq!(
            out.stats.messages,
            out.stats.churn_drops + out.outputs.iter().map(|&h| h as u64).sum::<u64>(),
            "every protocol frame is either delivered or dropped"
        );
        let churns: Vec<&TraceEvent> = trace.churns().collect();
        assert_eq!(churns.len(), 1);
        assert!(matches!(
            churns[0],
            TraceEvent::Churn { round: 2, kind: ChurnKind::EdgeDown { edge: 0 } }
        ));
        // Edge back up: traffic resumes.
        let flap = ChurnPlan::default()
            .with_event(2, ChurnKind::EdgeDown { edge: 0 })
            .with_event(4, ChurnKind::EdgeUp { edge: 0 });
        let mut net2 = Network::new(&g, SimConfig::local().seed(4));
        let out2 = net2
            .execute(|_, _| Chatter { rounds: 6, heard: 0 }, &ExecPlan::from(flap.clone()), None)
            .unwrap();
        assert_eq!(out2.stats.churn_events, 2);
        assert!(
            out2.outputs.iter().sum::<usize>() > out.outputs.iter().sum::<usize>(),
            "restored edge should deliver again"
        );
    }

    #[test]
    fn leave_is_permanent_and_silent() {
        let g = generators::cycle(4);
        let churn = ChurnPlan::default().with_event(3, ChurnKind::Leave { node: 0 });
        let mut net = Network::new(&g, SimConfig::local().seed(8));
        let (out, trace) = traced(
            &mut net,
            |_, _| Chatter { rounds: 8, heard: 0 },
            &ExecPlan::from(churn.clone()),
        )
        .unwrap();
        // Node 0 sends before round 3 and never after.
        let send_rounds: Vec<usize> = trace.sends_of(0).map(TraceEvent::round).collect();
        assert!(send_rounds.iter().any(|&r| r < 3));
        assert!(send_rounds.iter().all(|&r| r < 3), "a left node sent: {send_rounds:?}");
        // Neighbours' sends towards it after the leave are churn drops.
        assert!(out.stats.churn_drops > 0);
        assert_eq!(out.stats.churn_events, 1);
    }

    #[test]
    fn join_boots_fresh_and_chats() {
        let g = generators::cycle(4);
        let churn = ChurnPlan::default()
            .with_absent_nodes(vec![2])
            .with_event(4, ChurnKind::Join { node: 2 });
        let mut net = Network::new(&g, SimConfig::local().seed(12));
        let (out, trace) = traced(
            &mut net,
            |_, _| Chatter { rounds: 9, heard: 0 },
            &ExecPlan::from(churn.clone()),
        )
        .unwrap();
        let send_rounds: Vec<usize> = trace.sends_of(2).map(TraceEvent::round).collect();
        assert!(send_rounds.iter().all(|&r| r >= 4), "absent node sent early: {send_rounds:?}");
        assert!(send_rounds.iter().any(|&r| r >= 4), "joined node never sent");
        assert!(out.outputs[2] > 0, "joined node heard nothing");
        // Sends towards the absent node before the join are dropped.
        assert!(out.stats.churn_drops > 0);
    }

    #[test]
    fn churned_runs_are_deterministic() {
        let g = generators::gnp(12, 0.3, &mut rand::rngs::StdRng::seed_from_u64(3));
        let churn = ChurnPlan::default()
            .with_event(2, ChurnKind::EdgeDown { edge: 0 })
            .with_event(5, ChurnKind::EdgeUp { edge: 0 })
            .with_event(3, ChurnKind::Leave { node: 1 });
        let faults = FaultPlan::lossy(0.1).with_dup(0.05);
        let go = || {
            let mut net = Network::new(&g, SimConfig::local().seed(31));
            traced(
                &mut net,
                |_, _| Chatter { rounds: 10, heard: 0 },
                &ExecPlan::new(faults.clone(), churn.clone()),
            )
            .unwrap()
        };
        let (out_a, trace_a) = go();
        let (out_b, trace_b) = go();
        assert_eq!(out_a.outputs, out_b.outputs);
        assert_eq!(out_a.stats, out_b.stats);
        assert_eq!(trace_a.events(), trace_b.events());
        assert_eq!(out_a.stats.churn_events, 3);
    }

    #[test]
    fn peer_mapping_is_involutive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let g = generators::gnp(20, 0.2, &mut rng);
        let net = Network::new(&g, SimConfig::local());
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                let (u, q) = net.peer(v, p);
                assert_eq!(net.peer(u, q), (v, p), "peer mapping broken at ({v},{p})");
                assert_eq!(g.port(v, p).1, g.port(u, q).1, "ports disagree on edge");
            }
        }
    }

    /// A random valid plan pair on `g`. Every plan mixes base
    /// probabilities, a link listed twice (the second time reversed, so
    /// the last entry must win in both directions), a link that zeroes
    /// the base dup/reorder, squalls, a partition, crashes with and
    /// without recovery, and joins and leaves (sometimes in one round).
    fn random_plans(g: &dam_graph::Graph, rng: &mut rand::rngs::StdRng) -> (FaultPlan, ChurnPlan) {
        use rand::seq::SliceRandom;
        use rand::RngExt;
        let n = g.node_count();
        let m = g.edge_count();
        let mut prob = |p: f64| {
            if rng.random_bool(p) {
                f64::from(rng.random_range(1..5u32)) / 10.0
            } else {
                0.0
            }
        };
        let mut faults = FaultPlan::lossy(prob(0.5))
            .with_dup(prob(0.6))
            .with_reorder(prob(0.6))
            .with_corrupt(prob(0.5));
        let link = |rng: &mut rand::rngs::StdRng, e: usize, zero: bool| {
            let (a, b) = g.endpoints(e);
            let p = |rng: &mut rand::rngs::StdRng| f64::from(rng.random_range(0..4u32)) / 4.0;
            let (loss, dup, reorder) =
                if zero { (p(rng), 0.0, 0.0) } else { (p(rng), p(rng), p(rng)) };
            LinkFault { a, b, loss, dup, reorder }
        };
        let twice = rng.random_range(0..m);
        faults.links.push(link(rng, twice, false));
        for _ in 0..rng.random_range(0..4) {
            let e = rng.random_range(0..m);
            faults.links.push(link(rng, e, false));
        }
        let again = link(rng, twice, false);
        faults.links.push(LinkFault { a: again.b, b: again.a, ..again });
        let zeroed = rng.random_range(0..m);
        faults.links.push(link(rng, zeroed, true));
        for _ in 0..rng.random_range(1..3) {
            let from = rng.random_range(0..12);
            faults.squalls.push(Squall {
                from_round: from,
                until_round: from + rng.random_range(0..6),
                loss: f64::from(rng.random_range(0..5u32)) / 4.0,
                corrupt: f64::from(rng.random_range(0..3u32)) / 4.0,
            });
        }
        let from = rng.random_range(0..10);
        let share = if rng.random_bool(0.1) { 0.0 } else { 0.4 };
        let side: Vec<NodeId> = (0..n).filter(|_| rng.random_bool(share)).collect();
        faults.partitions.push(Partition { from_round: from, until_round: from + 4, side });
        let mut nodes: Vec<NodeId> = (0..n).collect();
        nodes.shuffle(rng);
        let (crashed, rest) = nodes.split_at(3);
        for (i, &v) in crashed.iter().enumerate() {
            let r = rng.random_range(1..10);
            faults.crashes.push((v, r));
            if i > 0 {
                faults.recoveries.push((v, r + rng.random_range(1..8)));
            }
        }
        faults.equivocators = vec![rest[5]];
        let join = rng.random_range(1..12);
        let join_leave = rng.random_range(1..12);
        let churn = ChurnPlan::default()
            .with_absent_nodes(vec![rest[0], rest[1], rest[2]])
            .with_event(join, ChurnKind::Join { node: rest[0] })
            .with_event(join_leave, ChurnKind::Join { node: rest[1] })
            .with_event(join_leave + rng.random_range(0..3), ChurnKind::Leave { node: rest[1] })
            .with_event(rng.random_range(1..12), ChurnKind::Leave { node: rest[3] })
            .with_event(join, ChurnKind::Leave { node: rest[4] });
        (faults, churn)
    }

    #[test]
    fn run_plan_matches_a_dense_reference() {
        use rand::RngExt;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0AC1E);
        for trial in 0..40 {
            let g = generators::gnp(rng.random_range(10..18), 0.35, &mut rng);
            if g.edge_count() == 0 {
                continue;
            }
            let (faults, churn) = random_plans(&g, &mut rng);
            let plan = RunPlan::build(&g, &faults, &churn).expect("random plans are valid");
            let n = g.node_count();
            let rounds = 26;

            // Per-port probabilities, written densely in plan order.
            let base = (faults.loss, faults.dup, faults.reorder, faults.corrupt);
            let mut fx: Vec<Vec<(f64, f64, f64, f64)>> =
                (0..n).map(|v| vec![base; g.degree(v)]).collect();
            for l in &faults.links {
                for (v, u) in [(l.a, l.b), (l.b, l.a)] {
                    for (p, w, _) in g.incident(v) {
                        if w == u {
                            fx[v][p] = (l.loss, l.dup, l.reorder, faults.corrupt);
                        }
                    }
                }
            }
            let (seed, run) = (trial, 3 * trial + 1);
            for round in 0..rounds {
                for (v, ports) in fx.iter().enumerate() {
                    for (port, u, _) in g.incident(v) {
                        let (mut loss, dup, reorder, mut corrupt) = ports[port];
                        for s in faults
                            .squalls
                            .iter()
                            .filter(|s| (s.from_round..=s.until_round).contains(&round))
                        {
                            loss = loss.max(s.loss);
                            corrupt = corrupt.max(s.corrupt);
                        }
                        let mut want = MsgFate::default();
                        if loss > 0.0 || dup > 0.0 || reorder > 0.0 || corrupt > 0.0 {
                            let mut r = rng::fault_rng(seed, run, round, v, port);
                            if loss > 0.0 && r.random_bool(loss) {
                                want.lost = true;
                            } else {
                                want.duplicated = dup > 0.0 && r.random_bool(dup);
                                if reorder > 0.0 && r.random_bool(reorder) {
                                    want.delayed = Some(1 + r.random_range(0..3usize));
                                }
                                if corrupt > 0.0 && r.random_bool(corrupt) {
                                    want.corrupt = Some(CorruptKind::draw(&mut r));
                                }
                            }
                        }
                        let got = plan.message_fate(seed, run, round, v, port);
                        assert_eq!(got, want, "trial {trial}: fate of ({round}, {v}, {port})");
                        let cut = faults.partitions.iter().any(|p| {
                            (p.from_round..=p.until_round).contains(&round)
                                && p.side.contains(&v) != p.side.contains(&u)
                        });
                        assert_eq!(
                            plan.partitioned(round, v, u),
                            cut,
                            "trial {trial}: cut {v}->{u} at {round}"
                        );
                    }
                }
            }

            // Node schedules, written densely.
            let at = |list: &[(NodeId, usize)], v: NodeId| {
                list.iter().find(|&&(u, _)| u == v).map(|&(_, r)| r)
            };
            let churn_at = |v: NodeId, leave: bool| {
                churn.events.iter().find_map(|e| match e.kind {
                    ChurnKind::Leave { node } if leave && node == v => Some(e.round),
                    ChurnKind::Join { node } if !leave && node == v => Some(e.round),
                    _ => None,
                })
            };
            for round in 1..rounds {
                for v in 0..n {
                    let want = if churn_at(v, true) == Some(round) {
                        Some(NodeEvent::Leave)
                    } else if churn_at(v, false) == Some(round) {
                        Some(NodeEvent::Join)
                    } else if at(&faults.crashes, v) == Some(round) {
                        Some(NodeEvent::Crash)
                    } else if at(&faults.recoveries, v) == Some(round) {
                        Some(NodeEvent::Recover)
                    } else {
                        None
                    };
                    assert_eq!(
                        plan.node_event(v, round),
                        want,
                        "trial {trial}: event of {v} at {round}"
                    );
                }
            }

            // Presence, replayed the way the sequential engine sweeps a
            // round: node events apply in node order, so an observer sees
            // the new state of lower ids and the old state of the rest.
            let mut before: Vec<bool> = (0..n).map(|v| !churn.absent_nodes.contains(&v)).collect();
            for round in 0..rounds {
                let mut after = before.clone();
                for e in churn.sorted_events().iter().filter(|e| e.round == round) {
                    match e.kind {
                        ChurnKind::Join { node } => after[node] = true,
                        ChurnKind::Leave { node } => after[node] = false,
                        ChurnKind::EdgeUp { .. } | ChurnKind::EdgeDown { .. } => {}
                    }
                }
                for u in 0..n {
                    for observer in 0..n {
                        let want = if u < observer { after[u] } else { before[u] };
                        assert_eq!(
                            plan.present_seen(u, round, observer),
                            want,
                            "trial {trial}: presence of {u} to {observer} at {round}"
                        );
                    }
                }
                before = after;
            }
        }
    }

    #[test]
    fn run_plan_footprint_follows_the_plan_not_the_graph() {
        use dam_graph::ImplicitTopology;
        let small = ImplicitTopology::torus(100, 100).unwrap();
        let large = ImplicitTopology::torus(1000, 1000).unwrap();
        let bytes = |g: &dyn Topology, faults: &FaultPlan| {
            RunPlan::build(g, faults, &ChurnPlan::default()).unwrap().heap_bytes()
        };
        // The one-bit-per-node lookup gate of a plan that names nodes.
        let gate = |g: &dyn Topology| g.node_count().div_ceil(64) * 8;

        // A clean plan, and plan-wide probabilities, cost nothing.
        let probs = FaultPlan::lossy(0.1).with_dup(0.1).with_reorder(0.1).with_corrupt(0.1);
        for faults in [FaultPlan::default(), probs.clone()] {
            assert_eq!(bytes(&small, &faults), 0);
            assert_eq!(bytes(&large, &faults), 0);
        }

        // k links or crashes: O(k) entries, the same on either graph
        // (crashes add the gate).
        let links = |k: usize| {
            let mut faults = probs.clone();
            faults.links = (0..k)
                .map(|i| LinkFault { a: i, b: i + 1, loss: 0.5, dup: 0.0, reorder: 0.0 })
                .collect();
            faults
        };
        let crashes = |k: usize| FaultPlan::crashes((0..k).map(|v| (v, 3)).collect());
        let link_entry = std::mem::size_of::<((NodeId, Port), LinkFx)>();
        let node_entry = std::mem::size_of::<(NodeId, NodeSchedule)>();
        for k in [1, 8, 64] {
            let on_small = bytes(&small, &links(k));
            assert_eq!(on_small, bytes(&large, &links(k)), "{k} links");
            assert!(on_small <= 2 * (2 * k) * link_entry, "{k} links take {on_small} bytes");
            let on_small = bytes(&small, &crashes(k)) - gate(&small);
            assert_eq!(on_small, bytes(&large, &crashes(k)) - gate(&large), "{k} crashes");
            assert!(on_small <= 2 * k * node_entry, "{k} crashes take {on_small} bytes");
        }
    }

    #[test]
    fn mailbox_footprint_is_two_slots_per_arc() {
        use crate::kernel::Mailbox;
        use dam_graph::ImplicitTopology;
        use parking_lot::Mutex;
        type Fifo = Mutex<Vec<(usize, usize, u32)>>;
        for (w, h) in [(100, 100), (1000, 1000)] {
            let g = ImplicitTopology::torus(w, h).unwrap();
            let n = g.node_count();
            let mut offsets = vec![0];
            for v in 0..n {
                offsets.push(offsets[v] + g.degree(v));
            }
            let arcs = offsets[n];
            let plan = |faults: &FaultPlan| {
                RunPlan::build(&g, faults, &ChurnPlan::default()).unwrap().any_dup_or_reorder
            };
            // A clean run, and one that only loses or corrupts: two
            // generations of one slot per arc, two mail bits per node,
            // no FIFO.
            for faults in [FaultPlan::default(), FaultPlan::lossy(0.1).with_corrupt(0.1)] {
                let mailbox = Mailbox::<u32>::new(&offsets, plan(&faults));
                assert_eq!(mailbox.slot_count(), 2 * arcs, "torus:{w}x{h}");
                assert_eq!(mailbox.fifo_bytes(), 0, "torus:{w}x{h}");
                let slot = std::mem::size_of::<std::cell::Cell<Option<u32>>>();
                assert_eq!(mailbox.heap_bytes(), 2 * arcs * slot + 2 * n, "torus:{w}x{h}");
            }
            // A plan that can duplicate or reorder gets one FIFO per arc
            // and a queued-copy counter per node.
            for faults in
                [FaultPlan::default().with_dup(0.1), FaultPlan::default().with_reorder(0.1)]
            {
                let mailbox = Mailbox::<u32>::new(&offsets, plan(&faults));
                let fifos = arcs * std::mem::size_of::<Fifo>() + n * 4;
                assert_eq!(mailbox.fifo_bytes(), fifos, "torus:{w}x{h}");
            }
        }
    }

    #[test]
    fn mailbox_drains_port_ordered_slot_first_then_copies() {
        use crate::kernel::Mailbox;
        // Node 0 has three ports, node 1 one.
        let offsets = [0, 3, 4];
        let mailbox = Mailbox::<u32>::new(&offsets, true);
        // Sent in round 1: slot messages on ports 2 and 0 (in that
        // order), copies due at round 2 on port 2 and port 1, one due at
        // round 3 on port 0.
        mailbox.put(1, 0, 2, 20);
        mailbox.later(2, 0, 0, 2, 21);
        mailbox.put(1, 0, 0, 0);
        mailbox.later(2, 1, 0, 1, 11);
        mailbox.later(3, 1, 0, 0, 1);
        mailbox.later(2, 1, 0, 2, 22);
        let mut inbox = Vec::new();
        let mut seen = Vec::new();
        mailbox.drain(0, 2, Some(&mut inbox), |q, sent| {
            seen.push((q, sent));
            false
        });
        assert_eq!(inbox, [(0, 0), (1, 11), (2, 20), (2, 21), (2, 22)]);
        assert_eq!(seen, [(0, 1), (1, 1), (2, 1), (2, 0), (2, 1)]);
        assert_eq!(mailbox.pending(), 1);
        // A late message is dropped; a discarding drain still empties.
        inbox.clear();
        mailbox.put(2, 1, 0, 5);
        mailbox.drain(1, 3, Some(&mut inbox), |_, _| true);
        mailbox.drain(0, 3, None, |_, _| false);
        assert!(inbox.is_empty());
        assert_eq!(mailbox.pending(), 0);
        mailbox.drain(0, 4, Some(&mut inbox), |_, _| false);
        mailbox.drain(1, 4, Some(&mut inbox), |_, _| false);
        assert!(inbox.is_empty(), "drained generations are clean");
    }

    use rand::SeedableRng;
}
