//! The delivery kernel every backend runs after a node's step.
//!
//! [`Kernel::flush`] drains one node's outbox and decides each message's
//! fate: message accounting and the CONGEST check, the `Send` trace
//! event, the channel and partition gates, the keyed fault draw
//! ([`RunPlan::message_fate`]), Byzantine equivocation, channel
//! corruption, and dup/reorder scheduling. The sequential, sharded and
//! asynchronous backends all call it; they differ only in the few hooks
//! of [`Deliver`] (how presence is read, where a message is put, and the
//! asynchronous backend's virtual-time bookkeeping). Backend bit-identity
//! therefore follows from there being one kernel, and the differential
//! suites check the hooks.

use dam_graph::{NodeId, Topology};

use crate::engine::RunPlan;
use crate::message::{BitSize, CorruptKind, MsgClass};
use crate::model::{Model, SimConfig, ViolationPolicy};
use crate::node::Port;
use crate::rng;
use crate::stats::RunStats;
use crate::trace::{FaultKind, TraceEvent};

/// The port-translation table in CSR form: port `p` of node `v` is port
/// `q` of node `u`, where `(u, q) = entries[offsets[v] + p]`.
///
/// Built once per [`crate::Network`]; the sharded executor also uses
/// `offsets[u] + q` as the index of the message slot behind `(u, q)`.
pub(crate) struct Peers {
    /// `offsets[v]..offsets[v + 1]` are `v`'s entries (`n + 1` values).
    pub(crate) offsets: Vec<usize>,
    /// `(neighbour, remote port)` per directed edge.
    pub(crate) entries: Vec<(NodeId, Port)>,
}

impl Peers {
    pub(crate) fn new(graph: &dyn Topology) -> Peers {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        for v in 0..n {
            offsets.push(acc);
            acc += graph.degree(v);
        }
        offsets.push(acc);
        // Map each edge to its port at each endpoint, then link the two.
        let mut port_at = vec![(usize::MAX, usize::MAX); graph.edge_count()];
        for v in 0..n {
            for (p, _, e) in graph.incident(v) {
                let (a, _) = graph.endpoints(e);
                if v == a && port_at[e].0 == usize::MAX {
                    port_at[e].0 = p;
                } else {
                    port_at[e].1 = p;
                }
            }
        }
        let mut entries = Vec::with_capacity(acc);
        for v in 0..n {
            entries.extend(graph.incident(v).map(|(p, u, e)| {
                let (a, _) = graph.endpoints(e);
                let q = if v == a && port_at[e].0 == p { port_at[e].1 } else { port_at[e].0 };
                (u, q)
            }));
        }
        Peers { offsets, entries }
    }

    /// The `(neighbour, remote port)` pair behind `(v, port)`.
    pub(crate) fn get(&self, v: NodeId, port: Port) -> (NodeId, Port) {
        self.entries[self.offsets[v] + port]
    }
}

/// The backend side of a delivery: the few things the sequential,
/// sharded and asynchronous executors do differently.
pub(crate) trait Deliver<M> {
    /// Whether the channel `v → u` over edge `e` exists in `round`: the
    /// edge is up and `u` is present as `v`'s execution slot sees it.
    fn open(&self, round: usize, v: NodeId, u: NodeId, e: usize) -> bool;
    /// Delivers `msg`, sent by `v` in `round`, to port `q` of `u` for
    /// the next round (subject to the backend's receiver gate).
    fn now(&mut self, round: usize, v: NodeId, u: NodeId, q: Port, msg: M);
    /// Delivers a duplicated or reordered copy, sent in `round`, to port
    /// `q` of `u` at round `at`.
    fn later(&mut self, at: usize, round: usize, u: NodeId, q: Port, msg: M);
    /// Virtual-time hook: `v`'s flush starts.
    fn begin_step(&mut self, _v: NodeId) {}
    /// Virtual-time hook: a payload found a live channel on `port`.
    fn note_frame(&mut self, _port: Port) {}
    /// Virtual-time hook: `v`'s flush is done.
    fn end_step(&mut self, _v: NodeId) {}
}

/// What flushes accumulate: the run's counters, the widest message of
/// the current round, and the trace events (when tracing).
pub(crate) struct Tally {
    pub(crate) stats: RunStats,
    pub(crate) round_max_bits: usize,
    pub(crate) trace: Option<Vec<TraceEvent>>,
}

impl Tally {
    pub(crate) fn new(traced: bool) -> Tally {
        Tally { stats: RunStats::default(), round_max_bits: 0, trace: traced.then(Vec::new) }
    }

    /// Records `event` when tracing.
    #[inline]
    pub(crate) fn record(&mut self, event: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.push(event);
        }
    }
}

/// The fixed context of one run's deliveries.
pub(crate) struct Kernel<'a> {
    pub(crate) graph: &'a dyn Topology,
    pub(crate) config: SimConfig,
    pub(crate) plan: &'a RunPlan,
    pub(crate) peers: &'a Peers,
    pub(crate) run_id: u64,
}

impl Kernel<'_> {
    /// Delivers `v`'s outbox for `round` through `net`, recording
    /// statistics and applying the message-level fault model.
    pub(crate) fn flush<M: BitSize + Clone>(
        &self,
        v: NodeId,
        round: usize,
        outbox: &mut Vec<(Port, M)>,
        sent: &mut [bool],
        tally: &mut Tally,
        net: &mut impl Deliver<M>,
    ) {
        let (seed, run) = (self.config.seed, self.run_id);
        net.begin_step(v);
        for (port, msg) in outbox.drain(..) {
            sent[port] = false;
            let bits = msg.bit_size();
            let stats = &mut tally.stats;
            match msg.class() {
                MsgClass::Protocol => stats.messages = stats.messages.saturating_add(1),
                MsgClass::Retransmission => {
                    stats.retransmissions = stats.retransmissions.saturating_add(1);
                }
                MsgClass::Heartbeat => stats.heartbeats = stats.heartbeats.saturating_add(1),
                MsgClass::Maintenance => stats.maintenance = stats.maintenance.saturating_add(1),
            }
            stats.total_bits = stats.total_bits.saturating_add(bits as u64);
            stats.max_message_bits = stats.max_message_bits.max(bits);
            tally.round_max_bits = tally.round_max_bits.max(bits);
            let mut oversize = false;
            if let Model::Congest { bits: budget } = self.config.model {
                if bits > budget {
                    oversize = true;
                    match self.config.violation {
                        ViolationPolicy::Panic => panic!(
                            "CONGEST violation: node {v} sent {bits} bits over port {port} (budget {budget})"
                        ),
                        ViolationPolicy::Record => {
                            stats.violations = stats.violations.saturating_add(1);
                        }
                    }
                }
            }
            let (u, q) = self.peers.get(v, port);
            tally.record(TraceEvent::Send { round, from: v, port, to: u, bits, oversize });
            // An absent edge or receiver swallows the message at the
            // sender — no channel exists, so no fault draw either.
            let e = self.graph.port(v, port).1;
            if !net.open(round, v, u, e) {
                tally.stats.churn_drops = tally.stats.churn_drops.saturating_add(1);
                continue;
            }
            // The synchronizer frame on this port carries a payload, so
            // no marker is owed — whatever the channel does to the
            // payload downstream (loss, corruption, partition) happens
            // inside an already-sent frame.
            net.note_frame(port);
            let fault = |kind| TraceEvent::Fault { round, kind, node: v, peer: Some(u) };
            // An active partition cut swallows the message outright (no
            // randomness involved, so no fault draw here either).
            if self.plan.partitioned(round, v, u) {
                tally.record(fault(FaultKind::Partition));
                continue;
            }
            // Probabilistic faults, drawn from an RNG keyed on the
            // message coordinates: an all-zero plan draws nothing (so a
            // faulty run degrades to a clean one exactly) and the draws
            // are independent of flush order (so every backend
            // reproduces them bit-for-bit).
            let fate = self.plan.message_fate(seed, run, round, v, port);
            if fate.lost {
                tally.record(fault(FaultKind::Loss));
                continue;
            }
            // Byzantine equivocation: a listed sender tampers with every
            // outgoing copy, independently per port, before the channel
            // applies its own faults. Draws come from the dedicated
            // byz stream keyed on the message coordinates.
            let mut msg = msg;
            if self.plan.equivocator[v] {
                let mut brng = rng::byz_rng(seed, run, round, v, port);
                let kind = CorruptKind::draw(&mut brng);
                tally.stats.equivocations = tally.stats.equivocations.saturating_add(1);
                tally.record(fault(FaultKind::Equivocate { kind }));
                match msg.corrupted(kind, &mut brng) {
                    Some(m) => msg = m,
                    // Tampering destroyed decodability: the frame never
                    // reaches the receiver (counted and traced above).
                    None => continue,
                }
            }
            // Channel corruption drawn by the fault plan: the damaged
            // value replaces the original (duplicates carry the damage
            // too — the channel corrupted the frame, not one copy).
            if let Some(kind) = fate.corrupt {
                let mut crng = rng::corrupt_rng(seed, run, round, v, port);
                tally.stats.corruptions = tally.stats.corruptions.saturating_add(1);
                tally.record(fault(FaultKind::Corrupt { kind }));
                match msg.corrupted(kind, &mut crng) {
                    Some(m) => msg = m,
                    None => continue,
                }
            }
            if fate.duplicated {
                tally.record(fault(FaultKind::Duplicate));
                // The duplicate trails the original by one round.
                net.later(round + 2, round, u, q, msg.clone());
            }
            if let Some(delay) = fate.delayed {
                tally.record(fault(FaultKind::Reorder { delay }));
                net.later(round + 1 + delay, round, u, q, msg);
                continue;
            }
            net.now(round, v, u, q, msg);
        }
        net.end_step(v);
    }
}
