//! The sharded deterministic parallel executor.
//!
//! [`crate::Network::execute`] runs here under [`crate::Backend::Sharded`]
//! (or `threads > 1`): the same synchronous semantics as the sequential
//! engine across a fixed pool of worker threads, producing
//! **bit-identical** outputs, [`RunStats`] and trace streams. Both
//! engines deliver through the one delivery kernel (`kernel.rs`), so
//! only the slot/FIFO hooks here differ; the differential suite
//! (`tests/parallel_equiv.rs`) checks them.
//!
//! # Design
//!
//! * **Sharding.** Nodes are split into contiguous chunks, one per
//!   worker. Each worker owns its nodes' protocol state, RNGs and halted
//!   flags outright (`chunks_mut`), so per-round computation needs no
//!   locks at all.
//! * **Slot delivery.** Messages go through the one mailbox every
//!   backend uses (`kernel::Mailbox`): one slot per *directed* edge,
//!   double-buffered by round parity. The model allows at most one
//!   message per directed edge per round and each slot has exactly one
//!   writer (the unique peer of that port), so delivery is plain
//!   unsynchronized writes — workers never contend on a lock to deliver.
//!   Every node drains its mailbox every round (halted nodes too; a node
//!   without mail pays one load), so a generation is clean by the time
//!   its parity comes round again.
//! * **Determinism.** A node's behaviour depends only on its private RNG
//!   and its port-ordered inbox; fault injections are drawn from RNGs
//!   keyed on the message coordinates ([`crate::rng::fault_rng`]) and
//!   churn presence is evaluated through `RunPlan::present_seen`, so no
//!   observable quantity depends on thread scheduling.
//! * **Coordination.** Two barriers per round. Between them, worker 0
//!   exclusively runs the round-boundary logic the sequential engine runs
//!   between node sweeps: error collection, round accounting, the
//!   all-halted / quiescence / round-limit checks, and the application of
//!   scheduled edge-churn events.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

use dam_graph::{NodeId, Topology};
use parking_lot::Mutex;

use crate::engine::{BackendResult, Network, NodeEvent, RunOutcome, RunPlan};
use crate::error::SimError;
use crate::kernel::{Deliver, Kernel, Mailbox, Tally};
use crate::message::BitSize;
use crate::node::{Context, Port, Protocol};
use crate::rng;
use crate::stats::{Integrity, RunStats};
use crate::trace::{ChurnKind, FaultKind, TraceEvent};

/// The mailbox, shared by every worker. Its slots are written without
/// locks, so every slot access goes through an `unsafe` method whose
/// caller is that slot's only accessor for the phase.
struct SharedMailbox<'a, M>(Mailbox<'a, M>);

// SAFETY: slots are reached only through the `unsafe` methods below,
// whose callers guarantee that a slot is accessed by at most one thread
// at a time — the unique sender behind its port while a round's
// messages are flushed, the receiver's worker after the next round
// barrier, and worker 0 only between barriers. The round barriers
// establish the necessary happens-before edges. The mail bits, FIFOs
// and counters are atomics or locks, and the port table is read-only.
unsafe impl<M: Send> Sync for SharedMailbox<'_, M> {}

impl<M> SharedMailbox<'_, M> {
    /// [`Mailbox::put`].
    ///
    /// # Safety
    /// The caller is the unique sender behind `(u, q)` in `round`, and
    /// `u` is drained for `round + 1` only after the next barrier.
    unsafe fn put(&self, round: usize, u: NodeId, q: Port, msg: M) {
        self.0.put(round, u, q, msg);
    }

    /// [`Mailbox::drain`], keeping every message.
    ///
    /// # Safety
    /// The caller is `v`'s worker, running `round` (the senders of
    /// `round - 1` are barrier-separated from it).
    unsafe fn drain(&self, v: NodeId, round: usize, out: Option<&mut Vec<(Port, M)>>) {
        self.0.drain(v, round, out, |_, _| false);
    }

    /// [`Mailbox::holds`].
    ///
    /// # Safety
    /// The caller is worker 0 between the barriers, when no other
    /// thread touches the mailbox.
    unsafe fn holds(&self, round: usize, u: NodeId, q: Port) -> bool {
        self.0.holds(round, u, q)
    }

    /// [`Mailbox::later`]: FIFOs are locked, so any thread may queue.
    fn later(&self, at: usize, round: usize, u: NodeId, q: Port, msg: M) {
        self.0.later(at, round, u, q, msg);
    }

    /// [`Mailbox::pending`].
    fn pending(&self) -> usize {
        self.0.pending()
    }
}

/// Why a run stopped early: the first (round, node)-ordered incident, so
/// the parallel engine reports exactly the failure the sequential engine
/// would have hit first.
enum Incident {
    /// A protocol error (today always [`SimError::DuplicateSend`]) or an
    /// engine limit.
    Error(SimError),
    /// A panic out of protocol code (or an oversize message under
    /// [`ViolationPolicy::Panic`]); resumed on the caller's thread.
    Panic(Box<dyn std::any::Any + Send + 'static>),
}

/// Cumulative telemetry counters shared across workers, present only
/// when a [`crate::telemetry::StatsSink`] is attached. Workers publish
/// their per-round deltas before the first barrier; worker 0 reads the
/// totals between the barriers and streams one sample per round. The
/// counters are observation-only — nothing in the round pipeline reads
/// them back — so the sharded run's outputs/stats/trace stay
/// bit-identical with or without a sink.
struct TeleShared {
    messages: AtomicU64,
    retransmissions: AtomicU64,
    heartbeats: AtomicU64,
    maintenance: AtomicU64,
    churn_events: AtomicU64,
    churn_drops: AtomicU64,
    rejected: AtomicU64,
    quarantined: AtomicU64,
    suspected: AtomicU64,
    outstanding: AtomicU64,
}

/// One worker's view of its own cumulative counters at its last
/// publication — the subtrahend that turns cumulative locals into
/// per-round deltas.
#[derive(Clone, Copy, Default)]
struct TeleSnapshot {
    messages: u64,
    retransmissions: u64,
    heartbeats: u64,
    maintenance: u64,
    churn_events: u64,
    churn_drops: u64,
    rejected: u64,
    quarantined: u64,
    suspected: u64,
    outstanding: u64,
}

impl TeleSnapshot {
    fn of(stats: &RunStats, integrity: &Integrity) -> TeleSnapshot {
        TeleSnapshot {
            messages: stats.messages,
            retransmissions: stats.retransmissions,
            heartbeats: stats.heartbeats,
            maintenance: stats.maintenance,
            churn_events: stats.churn_events,
            churn_drops: stats.churn_drops,
            rejected: integrity.rejected,
            quarantined: integrity.quarantined,
            suspected: integrity.suspected,
            outstanding: integrity.outstanding,
        }
    }
}

impl TeleShared {
    fn new() -> TeleShared {
        TeleShared {
            messages: AtomicU64::new(0),
            retransmissions: AtomicU64::new(0),
            heartbeats: AtomicU64::new(0),
            maintenance: AtomicU64::new(0),
            churn_events: AtomicU64::new(0),
            churn_drops: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            suspected: AtomicU64::new(0),
            outstanding: AtomicU64::new(0),
        }
    }

    /// Adds the delta between `cur` and `prev` into the shared totals
    /// and advances `prev`. Local counters are monotone (saturating
    /// adds only), so plain subtraction is safe.
    fn publish(&self, cur: TeleSnapshot, prev: &mut TeleSnapshot) {
        self.messages.fetch_add(cur.messages - prev.messages, Ordering::SeqCst);
        self.retransmissions
            .fetch_add(cur.retransmissions - prev.retransmissions, Ordering::SeqCst);
        self.heartbeats.fetch_add(cur.heartbeats - prev.heartbeats, Ordering::SeqCst);
        self.maintenance.fetch_add(cur.maintenance - prev.maintenance, Ordering::SeqCst);
        self.churn_events.fetch_add(cur.churn_events - prev.churn_events, Ordering::SeqCst);
        self.churn_drops.fetch_add(cur.churn_drops - prev.churn_drops, Ordering::SeqCst);
        self.rejected.fetch_add(cur.rejected - prev.rejected, Ordering::SeqCst);
        self.quarantined.fetch_add(cur.quarantined - prev.quarantined, Ordering::SeqCst);
        self.suspected.fetch_add(cur.suspected - prev.suspected, Ordering::SeqCst);
        self.outstanding.fetch_add(cur.outstanding - prev.outstanding, Ordering::SeqCst);
        *prev = cur;
    }
}

/// State only worker 0 touches, between the two round barriers.
struct Coord {
    rounds: u64,
    charged: u64,
    churn_events: u64,
    quiet: usize,
    edge_event_idx: usize,
    failure: Option<Incident>,
    trace: Vec<TraceEvent>,
}

/// Immutable-or-synchronized state every worker sees.
struct Shared<'a, M> {
    /// The delivery context; slot `(u, q)` lives at
    /// `k.peers.offsets[u] + q`.
    k: Kernel<'a>,
    n: usize,
    mailbox: SharedMailbox<'a, M>,
    /// Edge presence under churn; written only by worker 0 between
    /// barriers, mirroring the sequential engine's round prologue.
    edge_present: Vec<AtomicBool>,
    /// Which nodes ended round 0 halted — feeds the coordinator's
    /// round-0 quiescence scan.
    halted_pub: Vec<AtomicBool>,
    /// Frames flushed this round, summed over workers.
    round_frames: AtomicU64,
    /// Widest message this round, for pipelined round charging.
    round_max_bits: AtomicUsize,
    /// Currently halted nodes (updated on every halt/unhalt transition).
    halted_count: AtomicUsize,
    /// Shared telemetry totals; `Some` only when a sink is attached.
    telemetry: Option<TeleShared>,
}

/// One shard's node state, owned outright by its worker.
///
/// Each worker gets its own contiguous allocations (protocol state,
/// RNGs, halted flags for its ascending node range `base..base + len`)
/// instead of a `chunks_mut` slice of one global vector — so shard
/// workers never share an allocation, never touch a neighbouring
/// shard's cache lines, and the arena can be built/dropped per shard.
/// Shards cover `0..n` contiguously in worker order, which keeps the
/// flattened output order equal to node order (bit-identity with the
/// sequential engine).
struct ShardArena<P> {
    /// First node id of this shard.
    base: NodeId,
    protos: Vec<P>,
    rngs: Vec<rand::rngs::StdRng>,
    halted: Vec<bool>,
}

/// A worker's private scratch state.
struct WorkerLocal<M> {
    tally: Tally,
    /// `tally.stats.frames()` at the end of the previous round.
    frames_seen: u64,
    outbox: Vec<(Port, M)>,
    sent: Vec<bool>,
    inbox: Vec<(Port, M)>,
    fault: Option<SimError>,
    integrity: Integrity,
    /// Counters as of this worker's last telemetry publication.
    tele_prev: TeleSnapshot,
}

impl<M: BitSize + Clone> WorkerLocal<M> {
    /// Delivers `v`'s outbox for `round` through the kernel into `slots`.
    fn flush(&mut self, v: NodeId, round: usize, slots: &mut Slots<'_, '_, M>) {
        let sh = slots.sh;
        sh.k.flush(v, round, &mut self.outbox, &mut self.sent, &mut self.tally, slots);
    }
}

/// The sharded side of the delivery kernel: presence is read from the
/// shared edge mask and [`RunPlan::present_seen`], messages go into the
/// shared mailbox.
struct Slots<'s, 'a, M> {
    sh: &'s Shared<'a, M>,
}

impl<M> Deliver<M> for Slots<'_, '_, M> {
    fn open(&self, round: usize, v: NodeId, u: NodeId, e: usize) -> bool {
        self.sh.edge_present[e].load(Ordering::Relaxed) && self.sh.k.plan.present_seen(u, round, v)
    }

    fn now(&mut self, round: usize, v: NodeId, u: NodeId, q: Port, msg: M) {
        // The sequential engine gates immediate delivery on the
        // receiver's halted flag *at the sender's flush moment*. That
        // snapshot differs from the receiver-side discard (drain) only
        // when the receiver un-halts mid-round — a crash recovery, the
        // one transition that flips halted back off. Senders swept
        // before the recovering node (`v < u`) saw the flag still up,
        // so their messages were dropped; recovery rounds are static
        // plan data, so the sweep replays exactly. (Joins are already
        // ordered by `present_seen` in `open`, and *halting*
        // transitions need no gate: the receiver discards on drain
        // either way.)
        if v < u && self.sh.k.plan.node_event(u, round) == Some(NodeEvent::Recover) {
            return;
        }
        // SAFETY: `v` is the unique sender over `(u, q)` and sends at
        // most one message per round (double sends fail earlier), so
        // this is the slot's only writer until `u` drains it next round.
        unsafe { self.sh.mailbox.put(round, u, q, msg) };
    }

    fn later(&mut self, at: usize, round: usize, u: NodeId, q: Port, msg: M) {
        self.sh.mailbox.later(at, round, u, q, msg);
    }
}

/// Interleaves per-round event buffers into `out` in the sequential
/// engine's order: for each round, worker 0's coordinator prologue
/// (edge-churn events) first, then each worker's events — workers own
/// contiguous ascending node ranges, so buffer order is node order.
fn merge_traces(buffers: &[Vec<TraceEvent>]) -> Vec<TraceEvent> {
    let total: usize = buffers.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut cursors = vec![0usize; buffers.len()];
    let mut merged = 0usize;
    let mut round = 0usize;
    while merged < total {
        for (b, buf) in buffers.iter().enumerate() {
            while cursors[b] < buf.len() && buf[cursors[b]].round() == round {
                out.push(buf[cursors[b]].clone());
                cursors[b] += 1;
                merged += 1;
            }
        }
        round += 1;
    }
    out
}

impl Network<'_> {
    /// The sharded executor behind [`Network::execute`]: one run of
    /// `make` on `threads` (at least 2, at most `n`) worker threads.
    pub(crate) fn run_sharded<P, F>(
        &self,
        make: &F,
        plan: &RunPlan,
        run_id: u64,
        traced: bool,
        threads: usize,
    ) -> BackendResult<P::Output>
    where
        P: Protocol + Send,
        F: Fn(NodeId, &dyn Topology) -> P + Sync,
    {
        let graph = self.graph();
        let config = self.config();
        let n = graph.node_count();
        let peers = self.peers();
        let sh = Shared {
            k: Kernel { graph, config, plan, peers, run_id },
            n,
            mailbox: SharedMailbox(Mailbox::new(&peers.offsets, plan.any_dup_or_reorder)),
            edge_present: plan.initial_presence(graph).1.iter().map(AtomicBool::new).collect(),
            halted_pub: (0..n).map(|_| AtomicBool::new(false)).collect(),
            round_frames: AtomicU64::new(0),
            round_max_bits: AtomicUsize::new(0),
            halted_count: AtomicUsize::new(0),
            telemetry: self.stats_sink().is_some().then(TeleShared::new),
        };

        let chunk = n.div_ceil(threads.min(n));
        let workers = n.div_ceil(chunk);
        // One arena per shard: contiguous per-shard allocations in
        // ascending node order, so flattening them back restores the
        // sequential engine's node-indexed vectors exactly.
        let mut arenas: Vec<ShardArena<P>> = (0..workers)
            .map(|t| {
                let base = t * chunk;
                let end = n.min(base + chunk);
                ShardArena {
                    base,
                    protos: (base..end).map(|v| make(v, graph)).collect(),
                    rngs: (base..end).map(|v| rng::node_rng(config.seed, run_id, v)).collect(),
                    halted: vec![false; end - base],
                }
            })
            .collect();
        let barrier = Barrier::new(workers);
        let done = AtomicBool::new(false);
        let coord = Mutex::new(Coord {
            rounds: 0,
            charged: 0,
            churn_events: 0,
            quiet: 0,
            edge_event_idx: 0,
            failure: None,
            trace: Vec::new(),
        });
        let incidents: Mutex<Vec<(NodeId, Incident)>> = Mutex::new(Vec::new());
        let net: &Network<'_> = self;

        let results = {
            let joined = crossbeam::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for (t, arena) in arenas.iter_mut().enumerate() {
                    let sh = &sh;
                    let barrier = &barrier;
                    let done = &done;
                    let coord = &coord;
                    let incidents = &incidents;
                    handles.push(scope.spawn(move |_| {
                        run_worker(t, arena, sh, barrier, done, coord, incidents, net, make, traced)
                    }));
                }
                let mut results = Vec::with_capacity(workers);
                for h in handles {
                    match h.join() {
                        Ok(r) => results.push(r),
                        Err(p) => std::panic::resume_unwind(p),
                    }
                }
                results
            });
            match joined {
                Ok(r) => r,
                Err(p) => std::panic::resume_unwind(p),
            }
        };

        let coord = coord.into_inner();
        match coord.failure {
            Some(Incident::Panic(p)) => std::panic::resume_unwind(p),
            Some(Incident::Error(e)) => return Err(e),
            None => {}
        }

        let mut stats = RunStats::default();
        for tally in &results {
            stats.absorb(&tally.stats);
        }
        stats.rounds = coord.rounds;
        stats.charged_rounds = coord.charged;
        stats.churn_events = stats.churn_events.saturating_add(coord.churn_events);
        let events = traced.then(|| {
            let mut buffers = Vec::with_capacity(results.len() + 1);
            buffers.push(coord.trace);
            buffers.extend(results.into_iter().map(|t| t.trace.unwrap_or_default()));
            merge_traces(&buffers)
        });
        let sessions = arenas.iter().flat_map(|a| a.protos.iter().map(Protocol::session)).collect();
        let outputs = arenas
            .into_iter()
            .flat_map(|a| a.protos.into_iter().map(Protocol::into_output))
            .collect();
        Ok((RunOutcome { outputs, stats, sessions }, events))
    }
}

/// One worker's whole run: computes its shard every round, then
/// synchronizes on the two round barriers (worker 0 coordinating in
/// between). Returns the worker's statistics partial and trace buffer.
#[allow(clippy::too_many_arguments)]
fn run_worker<'g, P, F>(
    t: usize,
    arena: &mut ShardArena<P>,
    sh: &Shared<'_, P::Msg>,
    barrier: &Barrier,
    done: &AtomicBool,
    coord: &Mutex<Coord>,
    incidents: &Mutex<Vec<(NodeId, Incident)>>,
    net: &Network<'g>,
    make: &F,
    traced: bool,
) -> Tally
where
    P: Protocol + Send,
    F: Fn(NodeId, &dyn Topology) -> P + Sync,
{
    let ShardArena { base, protos: protos_t, rngs: rngs_t, halted: halted_t } = arena;
    let base = *base;
    let mut local = WorkerLocal {
        tally: Tally::new(traced),
        frames_seen: 0,
        outbox: Vec::new(),
        sent: vec![false; sh.k.graph.max_degree()],
        inbox: Vec::new(),
        fault: None,
        integrity: Integrity::default(),
        tele_prev: TeleSnapshot::default(),
    };
    let mut round = 0usize;
    loop {
        let mut slots = Slots { sh };
        let drain = |v: NodeId, out: Option<&mut Vec<(Port, P::Msg)>>| {
            // SAFETY: this worker owns `v`; the senders of round
            // `round - 1` finished before the barrier that opened this
            // round.
            unsafe { sh.mailbox.drain(v, round, out) };
        };
        let mut aborted = false;
        for i in 0..protos_t.len() {
            let v = base + i;
            let event = if round == 0 { None } else { sh.k.plan.node_event(v, round) };
            if round == 0 {
                if !sh.k.plan.present_at_start(v) {
                    // Absent at round 0: silent until it joins (if ever).
                    halted_t[i] = true;
                    sh.halted_count.fetch_add(1, Ordering::SeqCst);
                    sh.halted_pub[v].store(true, Ordering::Relaxed);
                    continue;
                }
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut ctx = Context {
                        node: v,
                        round,
                        graph: sh.k.graph,
                        rng: &mut rngs_t[i],
                        outbox: &mut local.outbox,
                        sent: &mut local.sent,
                        halted: &mut halted_t[i],
                        fault: &mut local.fault,
                        integrity: &mut local.integrity,
                    };
                    protos_t[i].on_start(&mut ctx);
                    local.flush(v, round, &mut slots);
                    if halted_t[i] {
                        local.tally.record(TraceEvent::Halt { round, node: v });
                        sh.halted_count.fetch_add(1, Ordering::SeqCst);
                        sh.halted_pub[v].store(true, Ordering::Relaxed);
                    }
                }));
                aborted = report_incident(v, res, &mut local.fault, incidents);
            } else if event == Some(NodeEvent::Leave) {
                // Permanent leave: silent, like a crash that never
                // recovers — but also absent from the topology.
                drain(v, None);
                if !halted_t[i] {
                    sh.halted_count.fetch_add(1, Ordering::SeqCst);
                }
                halted_t[i] = true;
                local.tally.stats.churn_events = local.tally.stats.churn_events.saturating_add(1);
                local.tally.record(TraceEvent::Churn { round, kind: ChurnKind::Leave { node: v } });
            } else if event == Some(NodeEvent::Join) {
                drain(v, None);
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // Join: fresh ports, empty registers, a randomness
                    // stream distinct from both boots and reboots.
                    protos_t[i] = make(v, sh.k.graph);
                    rngs_t[i] = rng::node_rng(sh.k.config.seed ^ 0x1099, sh.k.run_id, v);
                    if halted_t[i] {
                        sh.halted_count.fetch_sub(1, Ordering::SeqCst);
                    }
                    halted_t[i] = false;
                    local.tally.stats.churn_events =
                        local.tally.stats.churn_events.saturating_add(1);
                    local
                        .tally
                        .record(TraceEvent::Churn { round, kind: ChurnKind::Join { node: v } });
                    let mut ctx = Context {
                        node: v,
                        round,
                        graph: sh.k.graph,
                        rng: &mut rngs_t[i],
                        outbox: &mut local.outbox,
                        sent: &mut local.sent,
                        halted: &mut halted_t[i],
                        fault: &mut local.fault,
                        integrity: &mut local.integrity,
                    };
                    protos_t[i].on_start(&mut ctx);
                    local.flush(v, round, &mut slots);
                    if halted_t[i] {
                        // Halted again straight out of on_start; the
                        // sequential join branch records no Halt event.
                        sh.halted_count.fetch_add(1, Ordering::SeqCst);
                    }
                }));
                aborted = report_incident(v, res, &mut local.fault, incidents);
            } else {
                if event == Some(NodeEvent::Crash) && !halted_t[i] {
                    halted_t[i] = true; // crash-stop: silent, mid-protocol
                    sh.halted_count.fetch_add(1, Ordering::SeqCst);
                    local.tally.record(TraceEvent::Fault {
                        round,
                        kind: FaultKind::Crash,
                        node: v,
                        peer: None,
                    });
                }
                if event == Some(NodeEvent::Recover) {
                    drain(v, None);
                    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        // Crash-recover: wiped state, fresh randomness,
                        // on_start as a cold boot.
                        protos_t[i] = make(v, sh.k.graph);
                        rngs_t[i] = rng::node_rng(sh.k.config.seed ^ 0xB007, sh.k.run_id, v);
                        if halted_t[i] {
                            sh.halted_count.fetch_sub(1, Ordering::SeqCst);
                        }
                        halted_t[i] = false;
                        local.tally.record(TraceEvent::Fault {
                            round,
                            kind: FaultKind::Recover,
                            node: v,
                            peer: None,
                        });
                        let mut ctx = Context {
                            node: v,
                            round,
                            graph: sh.k.graph,
                            rng: &mut rngs_t[i],
                            outbox: &mut local.outbox,
                            sent: &mut local.sent,
                            halted: &mut halted_t[i],
                            fault: &mut local.fault,
                            integrity: &mut local.integrity,
                        };
                        protos_t[i].on_start(&mut ctx);
                        local.flush(v, round, &mut slots);
                        if halted_t[i] {
                            sh.halted_count.fetch_add(1, Ordering::SeqCst);
                        }
                    }));
                    aborted = report_incident(v, res, &mut local.fault, incidents);
                } else if halted_t[i] {
                    drain(v, None);
                } else {
                    local.inbox.clear();
                    let mut inbox = std::mem::take(&mut local.inbox);
                    drain(v, Some(&mut inbox));
                    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut ctx = Context {
                            node: v,
                            round,
                            graph: sh.k.graph,
                            rng: &mut rngs_t[i],
                            outbox: &mut local.outbox,
                            sent: &mut local.sent,
                            halted: &mut halted_t[i],
                            fault: &mut local.fault,
                            integrity: &mut local.integrity,
                        };
                        protos_t[i].on_round(&mut ctx, &inbox);
                        local.flush(v, round, &mut slots);
                        if halted_t[i] {
                            local.tally.record(TraceEvent::Halt { round, node: v });
                            sh.halted_count.fetch_add(1, Ordering::SeqCst);
                        }
                    }));
                    inbox.clear();
                    local.inbox = inbox;
                    aborted = report_incident(v, res, &mut local.fault, incidents);
                }
            }
            if aborted {
                break; // the coordinator ends the run at this barrier
            }
        }
        let frames = local.tally.stats.frames();
        sh.round_frames.fetch_add(frames - local.frames_seen, Ordering::SeqCst);
        local.frames_seen = frames;
        sh.round_max_bits.fetch_max(local.tally.round_max_bits, Ordering::SeqCst);
        local.tally.round_max_bits = 0;
        if let Some(tele) = &sh.telemetry {
            let snapshot = TeleSnapshot::of(&local.tally.stats, &local.integrity);
            tele.publish(snapshot, &mut local.tele_prev);
        }
        barrier.wait();
        if t == 0 {
            coordinate(round, sh, coord, incidents, done, net, traced);
        }
        barrier.wait();
        if done.load(Ordering::SeqCst) {
            break;
        }
        round += 1;
    }
    // Integrity reports fold into the worker's stats partial; the sums
    // commute across workers, so the merged totals equal the sequential
    // engine's single-accumulator fold.
    local.integrity.fold_into(&mut local.tally.stats);
    local.tally
}

/// Files a per-node incident: a panic out of protocol code, or the
/// protocol error the node's context recorded. Returns whether the
/// worker should stop processing its shard this round.
fn report_incident(
    v: NodeId,
    res: Result<(), Box<dyn std::any::Any + Send + 'static>>,
    fault: &mut Option<SimError>,
    incidents: &Mutex<Vec<(NodeId, Incident)>>,
) -> bool {
    match res {
        Ok(()) => {
            if let Some(err) = fault.take() {
                incidents.lock().push((v, Incident::Error(err)));
                true
            } else {
                false
            }
        }
        Err(p) => {
            incidents.lock().push((v, Incident::Panic(p)));
            true
        }
    }
}

/// Worker 0's exclusive round-boundary window (between the two
/// barriers): reproduces the sequential engine's loop head — incident
/// collection, round accounting, the all-halted / quiescence /
/// round-limit checks — and applies the next round's edge-churn events.
#[allow(clippy::too_many_arguments)]
fn coordinate<M>(
    round: usize,
    sh: &Shared<'_, M>,
    coord: &Mutex<Coord>,
    incidents: &Mutex<Vec<(NodeId, Incident)>>,
    done: &AtomicBool,
    net: &Network<'_>,
    traced: bool,
) {
    let mut c = coord.lock();
    let mut inc = incidents.lock();
    if !inc.is_empty() {
        // The sequential engine stops at the first incident in node
        // order; with one incident per node and per-round collection,
        // that is the minimum node id of this (earliest) round.
        inc.sort_by_key(|&(v, _)| v);
        let (_, first) = inc.remove(0);
        c.failure = Some(first);
        done.store(true, Ordering::SeqCst);
        return;
    }
    drop(inc);
    c.rounds += 1;
    let rmb = sh.round_max_bits.swap(0, Ordering::SeqCst);
    c.charged = c.charged.saturating_add(net.charge(rmb));
    let frames = sh.round_frames.swap(0, Ordering::SeqCst);
    // Stream this round's cumulative sample before any end-of-run
    // decision: the sequential engine samples at the end of every
    // executed round, and checks the stop conditions only at the head of
    // the next one. Worker deltas happened-before via the first barrier;
    // edge-churn events live in `c.churn_events` and are counted here
    // *before* round r+1's events are applied below — exactly the
    // counter state the sequential engine samples after round r.
    if let Some(tele) = &sh.telemetry {
        let stats = RunStats {
            messages: tele.messages.load(Ordering::SeqCst),
            retransmissions: tele.retransmissions.load(Ordering::SeqCst),
            heartbeats: tele.heartbeats.load(Ordering::SeqCst),
            maintenance: tele.maintenance.load(Ordering::SeqCst),
            churn_events: tele.churn_events.load(Ordering::SeqCst).saturating_add(c.churn_events),
            churn_drops: tele.churn_drops.load(Ordering::SeqCst),
            ..RunStats::default()
        };
        let integrity = Integrity {
            rejected: tele.rejected.load(Ordering::SeqCst),
            quarantined: tele.quarantined.load(Ordering::SeqCst),
            suspected: tele.suspected.load(Ordering::SeqCst),
            outstanding: tele.outstanding.load(Ordering::SeqCst),
        };
        net.sample_round(sh.k.run_id, round, &stats, &integrity);
    }
    let hc = sh.halted_count.load(Ordering::SeqCst);
    if hc == sh.n && round >= sh.k.plan.last_wake {
        done.store(true, Ordering::SeqCst);
        return;
    }
    if let Some(k) = sh.k.config.quiescence {
        let quiet_now = if round == 0 {
            // The sequential loop head after round 0 trivially passes its
            // frames check (the baseline was just initialized), so the
            // binding condition is "nothing in flight": no pending
            // duplicates/reorders and no *delivered* slot. A slot written
            // to a node that halted during round 0 counts as delivered
            // only if the sender ran before the halt (sender id < node) —
            // exactly what the sequential halted-receiver gate saw.
            let mut next_empty = true;
            'scan: for u in 0..sh.n {
                let b = sh.k.peers.offsets[u];
                for q in 0..sh.k.graph.degree(u) {
                    // SAFETY: between the barriers no worker touches the
                    // mailbox; worker 0 is its sole accessor.
                    if unsafe { sh.mailbox.holds(round, u, q) } {
                        let (s, _) = sh.k.peers.entries[b + q];
                        if !sh.halted_pub[u].load(Ordering::Relaxed) || u > s {
                            next_empty = false;
                            break 'scan;
                        }
                    }
                }
            }
            next_empty && sh.mailbox.pending() == 0
        } else {
            frames == 0 && sh.mailbox.pending() == 0
        };
        if quiet_now {
            c.quiet += 1;
            if c.quiet >= k && round >= sh.k.plan.last_wake {
                done.store(true, Ordering::SeqCst); // message-driven protocols are done
                return;
            }
        } else {
            c.quiet = 0;
        }
    }
    if round >= sh.k.config.max_rounds {
        c.failure = Some(Incident::Error(SimError::RoundLimitExceeded {
            limit: sh.k.config.max_rounds,
            running: sh.n - hc,
        }));
        done.store(true, Ordering::SeqCst);
        return;
    }
    // Apply round r+1's edge events before anyone executes it — the
    // sequential engine's round prologue, hoisted into the barrier
    // window.
    while c.edge_event_idx < sh.k.plan.edge_events.len()
        && sh.k.plan.edge_events[c.edge_event_idx].round == round + 1
    {
        let ev = sh.k.plan.edge_events[c.edge_event_idx];
        c.edge_event_idx += 1;
        match ev.kind {
            ChurnKind::EdgeUp { edge } => sh.edge_present[edge].store(true, Ordering::Relaxed),
            ChurnKind::EdgeDown { edge } => sh.edge_present[edge].store(false, Ordering::Relaxed),
            ChurnKind::Join { .. } | ChurnKind::Leave { .. } => unreachable!(),
        }
        c.churn_events += 1;
        if traced {
            c.trace.push(TraceEvent::Churn { round: round + 1, kind: ev.kind });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::traced;
    use crate::engine::{ExecPlan, FaultPlan};
    use crate::model::SimConfig;
    use dam_graph::generators;
    use rand::{RngExt, SeedableRng};

    /// A protocol exercising randomness, message flow and variable halting:
    /// nodes gossip random values for `rounds` rounds and remember the sum.
    struct Gossip {
        acc: u64,
        rounds: usize,
    }

    impl Protocol for Gossip {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            let x: u64 = ctx.rng().random_range(0..1000);
            self.acc = x;
            ctx.broadcast(x);
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[(Port, u64)]) {
            for &(_, x) in inbox {
                self.acc = self.acc.wrapping_mul(31).wrapping_add(x);
            }
            if ctx.round() >= self.rounds + ctx.id() % 3 {
                ctx.halt();
            } else {
                ctx.broadcast(self.acc % 1000);
            }
        }

        fn into_output(self) -> u64 {
            self.acc
        }
    }

    #[test]
    fn parallel_sink_stream_matches_sequential() {
        use crate::engine::Squall;
        use crate::telemetry::{RecordingSink, SinkHandle};
        use std::sync::Arc;
        let mut seed_rng = rand::rngs::StdRng::seed_from_u64(77);
        let g = generators::gnp(40, 0.15, &mut seed_rng);
        let plan: ExecPlan = FaultPlan::lossy(0.1)
            .with_squall(Squall { from_round: 2, until_round: 5, loss: 0.4, corrupt: 0.0 })
            .into();
        let record = |threads: usize| {
            let sink = Arc::new(RecordingSink::new());
            let config = SimConfig::local().seed(3).max_rounds(5_000).threads(threads);
            let mut net = Network::new(&g, config);
            net.set_stats_sink(Some(SinkHandle::from(Arc::clone(&sink))));
            let out = net.execute(|_, _| Gossip { acc: 0, rounds: 6 }, &plan, None).unwrap();
            (out, sink.samples())
        };
        let (seq_out, seq_samples) = record(1);
        assert_eq!(seq_samples.len() as u64, seq_out.stats.rounds);
        for t in [2, 4, 7] {
            let (par_out, par_samples) = record(t);
            assert_eq!(par_out.outputs, seq_out.outputs);
            assert_eq!(par_out.stats, seq_out.stats);
            assert_eq!(par_samples, seq_samples, "telemetry stream diverges at {t} threads");
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let mut seed_rng = rand::rngs::StdRng::seed_from_u64(10);
        for trial in 0..5 {
            let g = generators::gnp(40, 0.15, &mut seed_rng);
            let run_seq = {
                let mut net = Network::new(&g, SimConfig::local().seed(trial));
                net.execute(|_, _| Gossip { acc: 0, rounds: 6 }, &ExecPlan::default(), None)
                    .unwrap()
            };
            for threads in [1, 2, 4, 7] {
                let mut net = Network::new(&g, SimConfig::local().seed(trial).threads(threads));
                let run_par =
                    net.execute(|_, _| Gossip { acc: 0, rounds: 6 }, &ExecPlan::default(), None);
                let run_par = run_par.unwrap();
                assert_eq!(run_seq.outputs, run_par.outputs, "trial {trial}, {threads} threads");
                assert_eq!(run_seq.stats, run_par.stats, "trial {trial}, {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_traces_match_sequential() {
        let mut seed_rng = rand::rngs::StdRng::seed_from_u64(77);
        let g = generators::gnp(24, 0.2, &mut seed_rng);
        let (seq, seq_trace) = {
            let mut net = Network::new(&g, SimConfig::congest(64).seed(5));
            traced(&mut net, |_, _| Gossip { acc: 0, rounds: 5 }, &ExecPlan::default()).unwrap()
        };
        let mut net = Network::new(&g, SimConfig::congest(64).seed(5).threads(4));
        let (par, par_trace) =
            traced(&mut net, |_, _| Gossip { acc: 0, rounds: 5 }, &ExecPlan::default()).unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.stats, par.stats);
        assert_eq!(seq_trace.events(), par_trace.events());
    }

    #[test]
    fn parallel_round_limit() {
        struct Forever;
        impl Protocol for Forever {
            type Msg = ();
            type Output = ();
            fn on_round(&mut self, _: &mut Context<'_, ()>, _: &[(Port, ())]) {}
            fn into_output(self) {}
        }
        let g = generators::path(6);
        let mut net = Network::new(&g, SimConfig::local().max_rounds(8).threads(3));
        let err = net.execute(|_, _| Forever, &ExecPlan::default(), None).unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { limit: 8, .. }));
    }

    #[test]
    fn parallel_duplicate_send_reports_first_node() {
        struct DoubleSend;
        impl Protocol for DoubleSend {
            type Msg = u8;
            type Output = ();
            fn on_round(&mut self, ctx: &mut Context<'_, u8>, _: &[(Port, u8)]) {
                if ctx.round() == 2 && ctx.id() >= 3 {
                    ctx.send(0, 1);
                    ctx.send(0, 2);
                }
            }
            fn into_output(self) {}
        }
        let g = generators::cycle(9);
        let seq_err = {
            let mut net = Network::new(&g, SimConfig::local());
            net.execute(|_, _| DoubleSend, &ExecPlan::default(), None).unwrap_err()
        };
        let mut net = Network::new(&g, SimConfig::local().threads(4));
        let par_err = net.execute(|_, _| DoubleSend, &ExecPlan::default(), None).unwrap_err();
        assert_eq!(format!("{seq_err:?}"), format!("{par_err:?}"));
        assert!(matches!(par_err, SimError::DuplicateSend { node: 3, port: 0, round: 2 }));
    }

    #[test]
    fn execute_dispatches_on_config_threads() {
        let g = generators::cycle(12);
        let seq = {
            let mut net = Network::new(&g, SimConfig::local().seed(2));
            net.execute(|_, _| Gossip { acc: 0, rounds: 4 }, &ExecPlan::default(), None).unwrap()
        };
        let mut net = Network::new(&g, SimConfig::local().seed(2).threads(3));
        let par =
            net.execute(|_, _| Gossip { acc: 0, rounds: 4 }, &ExecPlan::default(), None).unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.stats, par.stats);
    }

    #[test]
    fn parallel_quiescence_matches_sequential() {
        /// Message-driven: forwards until a hop budget is spent, never
        /// halts voluntarily — only quiescence can end the run.
        struct Relay;
        impl Protocol for Relay {
            type Msg = u32;
            type Output = ();
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if ctx.id() == 0 {
                    ctx.send(0, 6);
                }
            }
            fn on_round(&mut self, ctx: &mut Context<'_, u32>, inbox: &[(Port, u32)]) {
                for &(port, ttl) in inbox {
                    if ttl > 0 {
                        let out = if port == 0 { 1 } else { 0 };
                        ctx.send(out, ttl - 1);
                    }
                }
            }
            fn into_output(self) {}
        }
        let g = generators::cycle(8);
        let seq = {
            let mut net = Network::new(&g, SimConfig::local().quiesce_after(2));
            net.execute(|_, _| Relay, &ExecPlan::default(), None).unwrap()
        };
        let mut net = Network::new(&g, SimConfig::local().quiesce_after(2).threads(3));
        let par = net.execute(|_, _| Relay, &ExecPlan::default(), None).unwrap();
        assert_eq!(seq.stats, par.stats);
    }
}
