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

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

use dam_graph::{NodeId, Topology};
use parking_lot::Mutex;

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
/// Built once per [`crate::Network`]; the [`Mailbox`] also uses
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

/// A duplicated or reordered copy waiting in a slot's FIFO:
/// `(delivery round, send round, payload)`. The send round lets the
/// asynchronous backend drop every copy of a frame that arrived past its
/// patience deadline.
type Queued<M> = (usize, usize, M);

/// The message plane every backend delivers through: one slot per
/// directed edge, the CONGEST model's one message per edge, direction
/// and round.
///
/// Slot `offsets[u] + q` holds the message arriving at `u` over port
/// `q`. Two generations alternate by round parity: round `r` drains
/// generation `r % 2` and its sends fill generation `(r + 1) % 2`. A
/// per-node mail bit, set by every delivery, lets a node without mail
/// (a halted one, say) skip its slots with one load. Copies the fault
/// plan duplicates or reorders wait in per-slot FIFOs, which exist only
/// when the plan can produce them.
///
/// Single-threaded use needs nothing more. The sharded executor shares
/// one mailbox across workers: a slot has exactly one writer per round
/// (the unique sender behind its port) and is drained by its receiver's
/// worker only in the next round, after a barrier; the mail bits, FIFOs
/// and counters are atomics or locks.
pub(crate) struct Mailbox<'a, M> {
    offsets: &'a [usize],
    slots: [Box<[Cell<Option<M>>]>; 2],
    /// `mail[g][v]`: some slot of `v` in generation `g` is full.
    mail: [Box<[AtomicBool]>; 2],
    /// Per-slot FIFO of copies, in arrival order; empty unless the plan
    /// can duplicate or reorder.
    fifos: Box<[Mutex<Vec<Queued<M>>>]>,
    /// Copies waiting per node (empty with `fifos`).
    queued: Box<[AtomicU32]>,
    /// Copies waiting in all FIFOs.
    pending: AtomicUsize,
}

impl<'a, M> Mailbox<'a, M> {
    /// An empty mailbox over the port table `offsets` (`n + 1` prefix
    /// sums of the degrees); `copies` allocates the FIFOs.
    pub(crate) fn new(offsets: &'a [usize], copies: bool) -> Mailbox<'a, M> {
        let n = offsets.len() - 1;
        let len = offsets[n];
        let slots = || (0..len).map(|_| Cell::new(None)).collect();
        let mail = || (0..n).map(|_| AtomicBool::new(false)).collect();
        Mailbox {
            offsets,
            slots: [slots(), slots()],
            mail: [mail(), mail()],
            fifos: (0..if copies { len } else { 0 }).map(|_| Mutex::new(Vec::new())).collect(),
            queued: (0..if copies { n } else { 0 }).map(|_| AtomicU32::new(0)).collect(),
            pending: AtomicUsize::new(0),
        }
    }

    /// Puts `msg`, sent in `round`, into slot `(u, q)` for round
    /// `round + 1`.
    #[inline]
    pub(crate) fn put(&self, round: usize, u: NodeId, q: Port, msg: M) {
        let g = (round + 1) % 2;
        self.slots[g][self.offsets[u] + q].set(Some(msg));
        self.mail[g][u].store(true, Ordering::Relaxed);
    }

    /// Queues a copy of `msg`, sent in `round`, for port `q` of `u` at
    /// round `at`. Needs the FIFOs.
    pub(crate) fn later(&self, at: usize, round: usize, u: NodeId, q: Port, msg: M) {
        self.fifos[self.offsets[u] + q].lock().push((at, round, msg));
        self.queued[u].fetch_add(1, Ordering::Relaxed);
        self.pending.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies waiting for a later round.
    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// Whether a message sent in `round` waits in slot `(u, q)`.
    pub(crate) fn holds(&self, round: usize, u: NodeId, q: Port) -> bool {
        let slot = &self.slots[(round + 1) % 2][self.offsets[u] + q];
        let msg = slot.take();
        let full = msg.is_some();
        slot.set(msg);
        full
    }

    /// Empties `v`'s mailbox for `round` (≥ 1): the slot messages sent
    /// in `round - 1` and the copies due now. A message for which
    /// `late(port, send round)` holds is dropped. With `out`, the rest
    /// are appended as the port-ordered inbox: per port, the slot
    /// message first, then the due copies in arrival order. Every node
    /// must be drained every round, kept or not, so the generation is
    /// clean when its parity comes round again.
    #[inline]
    pub(crate) fn drain(
        &self,
        v: NodeId,
        round: usize,
        mut out: Option<&mut Vec<(Port, M)>>,
        mut late: impl FnMut(Port, usize) -> bool,
    ) {
        let g = round % 2;
        let slots = self.mail[g][v].load(Ordering::Relaxed);
        let copies = !self.queued.is_empty() && self.queued[v].load(Ordering::Relaxed) > 0;
        if !slots && !copies {
            return;
        }
        self.mail[g][v].store(false, Ordering::Relaxed);
        let base = self.offsets[v];
        for q in 0..self.offsets[v + 1] - base {
            if slots {
                if let Some(msg) = self.slots[g][base + q].take() {
                    if !late(q, round - 1) {
                        if let Some(inbox) = out.as_deref_mut() {
                            inbox.push((q, msg));
                        }
                    }
                }
            }
            if copies {
                let mut fifo = self.fifos[base + q].lock();
                let mut i = 0;
                while i < fifo.len() {
                    if fifo[i].0 != round {
                        i += 1;
                        continue;
                    }
                    let (_, sent, msg) = fifo.remove(i);
                    self.queued[v].fetch_sub(1, Ordering::Relaxed);
                    self.pending.fetch_sub(1, Ordering::Relaxed);
                    if !late(q, sent) {
                        if let Some(inbox) = out.as_deref_mut() {
                            inbox.push((q, msg));
                        }
                    }
                }
            }
        }
    }

    /// Slots held, both generations.
    #[cfg_attr(not(test), allow(dead_code))] // a memory profile's input
    pub(crate) fn slot_count(&self) -> usize {
        2 * self.slots[0].len()
    }

    /// Heap bytes of the FIFOs and their per-node counters (0 without
    /// copies).
    #[cfg_attr(not(test), allow(dead_code))] // a memory profile's input
    pub(crate) fn fifo_bytes(&self) -> usize {
        let entries: usize = self.fifos.iter().map(|f| f.lock().capacity()).sum();
        self.fifos.len() * std::mem::size_of::<Mutex<Vec<Queued<M>>>>()
            + entries * std::mem::size_of::<Queued<M>>()
            + self.queued.len() * std::mem::size_of::<AtomicU32>()
    }

    /// Heap bytes held: slots, mail bits and FIFOs.
    #[cfg_attr(not(test), allow(dead_code))] // a memory profile's input
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slot_count() * std::mem::size_of::<Cell<Option<M>>>()
            + 2 * self.mail[0].len() * std::mem::size_of::<AtomicBool>()
            + self.fifo_bytes()
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
            if self.plan.equivocates(v) {
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
