//! Differential suite: the sharded parallel engine must reproduce the
//! sequential engine **bit-identically** — outputs, statistics and trace
//! streams, event for event — for every algorithm, across seeds, across
//! fault and churn schedules, at every thread count.
//!
//! This is the proof obligation behind [`dam_congest::SimConfig::threads`]:
//! drivers may flip the knob without re-validating their algorithms.

use std::sync::Arc;

use dam_congest::{
    AdaptivePolicy, ChurnKind, ChurnPlan, Context, ExecPlan, FaultPlan, LinkFault, Network,
    Partition, Port, Protocol, RecordingSink, Resilient, RunOutcome, SimConfig, SimError,
    SinkHandle, Squall, Trace, TransportCfg,
};
use dam_core::israeli_itai::IiNode;
use dam_core::luby::LubyNode;
use dam_graph::{generators, Graph, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: u64 = 16;
const THREADS: [usize; 3] = [2, 4, 7];

/// E15-style hostile schedule: background message faults plus crash /
/// recovery, scaled to a ~40-node graph.
fn fault_plan() -> FaultPlan {
    FaultPlan {
        loss: 0.12,
        dup: 0.06,
        reorder: 0.1,
        crashes: vec![(3, 2), (11, 4)],
        recoveries: vec![(11, 9)],
        ..FaultPlan::default()
    }
}

/// E16-style churn schedule: absent joiner, a leaver, edge flaps — with
/// mild background loss riding along.
fn churn_plan() -> ChurnPlan {
    ChurnPlan::default()
        .with_absent_nodes(vec![7])
        .with_event(2, ChurnKind::EdgeDown { edge: 1 })
        .with_event(3, ChurnKind::Join { node: 7 })
        .with_event(5, ChurnKind::Leave { node: 9 })
        .with_event(6, ChurnKind::EdgeUp { edge: 1 })
}

/// Mild message faults that are valid alongside [`churn_plan`] (its
/// churned nodes must not appear in the fault plan).
fn churn_faults() -> FaultPlan {
    FaultPlan { loss: 0.08, dup: 0.04, reorder: 0.05, ..FaultPlan::default() }
}

/// Runs `make` on both engines under one `(faults, churn)` schedule and
/// asserts bit-identical results for every thread count in [`THREADS`]:
/// identical outputs, stats and trace streams on success, the identical
/// error when the schedule makes the protocol non-terminating (e.g. a
/// partner crash-stops and the round guard fires) — the error path is
/// part of the engine contract too.
fn assert_equivalent<P, F>(
    g: &Graph,
    config: SimConfig,
    faults: &FaultPlan,
    churn: &ChurnPlan,
    make: F,
) where
    P: Protocol + Send,
    P::Output: PartialEq + std::fmt::Debug,
    F: Fn(usize, &dyn Topology) -> P + Sync + Copy,
{
    let plan = ExecPlan::new(faults.clone(), churn.clone());
    let seq = traced(&mut Network::new(g, config), make, &plan);
    for threads in THREADS {
        let par = traced(&mut Network::new(g, config.threads(threads)), make, &plan);
        match (&seq, &par) {
            (Ok((so, st)), Ok((po, pt))) => {
                assert_eq!(so.outputs, po.outputs, "outputs diverge at {threads} threads");
                assert_eq!(so.stats, po.stats, "stats diverge at {threads} threads");
                assert_eq!(st.events(), pt.events(), "trace streams diverge at {threads} threads");
            }
            (Err(se), Err(pe)) => {
                assert_eq!(
                    format!("{se:?}"),
                    format!("{pe:?}"),
                    "errors diverge at {threads} threads"
                );
            }
            (s, p) => panic!(
                "termination diverges at {threads} threads: sequential {}, parallel {}",
                if s.is_ok() { "succeeded" } else { "failed" },
                if p.is_ok() { "succeeded" } else { "failed" },
            ),
        }
    }
}

/// One run of `make` under `plan`, returned with its trace.
fn traced<P, F>(
    net: &mut Network<'_>,
    make: F,
    plan: &ExecPlan,
) -> Result<(RunOutcome<P::Output>, Trace), SimError>
where
    P: Protocol + Send,
    F: Fn(usize, &dyn Topology) -> P + Sync,
{
    let mut trace = Trace::new();
    net.execute(make, plan, Some(&mut trace)).map(|out| (out, trace))
}

fn graph_for(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    generators::gnp(40, 0.15, &mut rng)
}

#[test]
fn israeli_itai_fault_free() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed);
        assert_equivalent(&g, cfg, &FaultPlan::default(), &ChurnPlan::default(), |v, graph| {
            IiNode::new(graph.degree(v))
        });
    }
}

/// Israeli–Itai assumes reliable channels (its handshake asserts that
/// every proposal is answered), so under message faults it rides the
/// resilient transport — exactly the E15 self-healing pipeline.
#[test]
fn israeli_itai_under_faults() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 8).seed(seed).max_rounds(2_000);
        assert_equivalent(&g, cfg, &fault_plan(), &ChurnPlan::default(), |v, graph| {
            Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
        });
    }
}

/// E17-style integrity schedule: message corruption plus Byzantine
/// equivocators layered on the background faults — the corruption and
/// tamper draws come from keyed per-(round, node, port) streams, so both
/// engines must replay them identically.
fn integrity_plan() -> FaultPlan {
    FaultPlan {
        loss: 0.08,
        dup: 0.04,
        reorder: 0.06,
        corrupt: 0.1,
        crashes: vec![(3, 2)],
        equivocators: vec![6, 17],
        liars: vec![9], // engine-validated; applied by output-aware callers
        ..FaultPlan::default()
    }
}

#[test]
fn israeli_itai_under_corruption_and_equivocation() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 8).seed(seed).max_rounds(2_000);
        assert_equivalent(&g, cfg, &integrity_plan(), &ChurnPlan::default(), |v, graph| {
            Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
        });
    }
}

#[test]
fn chatter_under_corruption_and_churn() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed).max_rounds(300);
        let faults = FaultPlan { corrupt: 0.15, equivocators: vec![3], ..churn_faults() };
        assert_equivalent(&g, cfg, &faults, &churn_plan(), |v, _g| Chatter {
            acc: 0,
            halt_round: 6 + v % 5,
        });
    }
}

/// Partition-plus-link-fault schedule: two round-windowed cuts,
/// per-link loss/dup/reorder overrides on three edges of `g`, and a
/// loss/corruption squall on top of mild background loss. These are
/// the per-message gates evaluated before (partition) and inside
/// (link overrides, squall overlay) the keyed fault draw.
fn partition_plan(g: &Graph) -> FaultPlan {
    let link = |e: usize, loss: f64, dup: f64, reorder: f64| {
        let (a, b) = g.endpoints(e);
        LinkFault { a, b, loss, dup, reorder }
    };
    FaultPlan {
        loss: 0.04,
        links: vec![link(0, 0.5, 0.0, 0.0), link(3, 0.1, 0.3, 0.0), link(5, 0.0, 0.1, 0.4)],
        partitions: vec![
            Partition { from_round: 2, until_round: 5, side: (0..20).collect() },
            Partition { from_round: 8, until_round: 9, side: (0..40).step_by(3).collect() },
        ],
        squalls: vec![Squall { from_round: 3, until_round: 6, loss: 0.3, corrupt: 0.05 }],
        ..FaultPlan::default()
    }
}

#[test]
fn israeli_itai_under_partition_and_link_faults() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 8).seed(seed).max_rounds(2_000);
        assert_equivalent(&g, cfg, &partition_plan(&g), &ChurnPlan::default(), |v, graph| {
            Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
        });
    }
}

#[test]
fn chatter_under_partition_link_faults_and_churn() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed).max_rounds(300);
        assert_equivalent(&g, cfg, &partition_plan(&g), &churn_plan(), |v, _g| Chatter {
            acc: 0,
            halt_round: 6 + v % 5,
        });
    }
}

#[test]
fn israeli_itai_under_churn() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 8).seed(seed).max_rounds(2_000);
        assert_equivalent(&g, cfg, &churn_faults(), &churn_plan(), |v, graph| {
            Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
        });
    }
}

#[test]
fn luby_mis_fault_free() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed);
        assert_equivalent(&g, cfg, &FaultPlan::default(), &ChurnPlan::default(), |v, graph| {
            LubyNode::new(graph.degree(v))
        });
    }
}

#[test]
fn luby_mis_under_faults() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed).max_rounds(400);
        assert_equivalent(&g, cfg, &fault_plan(), &ChurnPlan::default(), |v, graph| {
            LubyNode::new(graph.degree(v))
        });
    }
}

#[test]
fn luby_mis_under_churn() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed).max_rounds(400);
        assert_equivalent(&g, cfg, &churn_faults(), &churn_plan(), |v, graph| {
            LubyNode::new(graph.degree(v))
        });
    }
}

/// Driver-level equivalence: the full multi-phase bipartite Algorithm 2
/// produces the identical matching and identical cumulative statistics
/// whether its phases run sequentially or sharded.
#[test]
fn bipartite_mcm_driver_equivalence() {
    use dam_core::bipartite::{bipartite_mcm, BipartiteMcmConfig};
    let mut rng = StdRng::seed_from_u64(1234);
    for seed in 0..SEEDS {
        let g = generators::bipartite_gnp(18, 18, 0.2, &mut rng);
        for k in [2usize, 3] {
            let base = BipartiteMcmConfig { k, seed, ..Default::default() };
            let seq = bipartite_mcm(&g, &base).expect("sequential driver failed");
            let par = bipartite_mcm(&g, &BipartiteMcmConfig { threads: 4, ..base })
                .expect("parallel driver failed");
            assert_eq!(seq.matching, par.matching, "matching diverges (seed {seed}, k {k})");
            assert_eq!(seq.stats, par.stats, "stats diverge (seed {seed}, k {k})");
            assert_eq!(seq.iterations, par.iterations);
        }
    }
}

/// Driver-level equivalence for the weighted Algorithm 5 (gain rounds,
/// black-box δ-MWM, wrap application — three protocols per iteration).
#[test]
fn weighted_mwm_driver_equivalence() {
    use dam_core::weighted::{weighted_mwm, WeightedMwmConfig};
    use dam_graph::weights::{randomize_weights, WeightDist};
    let mut rng = StdRng::seed_from_u64(4321);
    for seed in 0..SEEDS {
        let base_g = generators::gnp(30, 0.15, &mut rng);
        let g = randomize_weights(&base_g, WeightDist::Uniform { lo: 0.1, hi: 10.0 }, &mut rng);
        let base = WeightedMwmConfig { eps: 0.1, seed, ..Default::default() };
        let seq = weighted_mwm(&g, &base).expect("sequential driver failed");
        let par = weighted_mwm(&g, &WeightedMwmConfig { threads: 4, ..base })
            .expect("parallel driver failed");
        assert_eq!(seq.matching, par.matching, "matching diverges (seed {seed})");
        assert_eq!(seq.stats, par.stats, "stats diverge (seed {seed})");
    }
}

/// A chatty protocol with staggered voluntary halts: stresses the
/// round-0 asymmetry, late joiners re-running `on_start`, and pending
/// FIFO ordering under a heavy combined fault + churn schedule.
struct Chatter {
    acc: u64,
    halt_round: usize,
}

impl Protocol for Chatter {
    type Msg = u64;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        self.acc = ctx.id() as u64;
        if ctx.id().is_multiple_of(4) {
            ctx.halt(); // halts during round 0: the hardest quiescence case
        } else {
            ctx.broadcast(self.acc);
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[(Port, u64)]) {
        for &(p, x) in inbox {
            self.acc = self.acc.wrapping_mul(37).wrapping_add(x ^ p as u64);
        }
        if ctx.round() >= self.halt_round {
            ctx.halt();
        } else {
            ctx.broadcast(self.acc & 0xFFFF);
        }
    }

    fn into_output(self) -> u64 {
        self.acc
    }
}

#[test]
fn chatter_under_heavy_combined_schedule() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed).max_rounds(200);
        let faults = FaultPlan {
            loss: 0.2,
            dup: 0.1,
            reorder: 0.15,
            crashes: vec![(2, 3), (5, 5)],
            recoveries: vec![(2, 8)],
            ..FaultPlan::default()
        };
        let churn = ChurnPlan::default()
            .with_absent_nodes(vec![12])
            .with_event(2, ChurnKind::EdgeDown { edge: 0 })
            .with_event(4, ChurnKind::Join { node: 12 })
            .with_event(6, ChurnKind::Leave { node: 17 })
            .with_event(7, ChurnKind::EdgeUp { edge: 0 });
        assert_equivalent(&g, cfg, &faults, &churn, |v, _g| Chatter {
            acc: 0,
            halt_round: 6 + v % 5,
        });
    }
}

/// Telemetry non-perturbation on the sharded engine: attaching a
/// recording sink leaves outputs, statistics and trace streams
/// bit-identical at every thread count, and the recorded series matches
/// the sequential engine's sample for sample (the coordinator merges
/// per-worker deltas into the same cumulative stream).
#[test]
fn sharded_sink_observes_without_perturbing() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 8).seed(seed).max_rounds(2_000);
        let make = |v: usize, graph: &dyn Topology| {
            Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
        };
        let (seq, seq_samples) = {
            let sink = Arc::new(RecordingSink::new());
            let mut net = Network::new(&g, cfg);
            net.set_stats_sink(Some(SinkHandle::from(Arc::clone(&sink))));
            let out = traced(&mut net, make, &ExecPlan::from(fault_plan()));
            (out, sink.samples())
        };
        if let Ok((so, _)) = &seq {
            assert_eq!(seq_samples.len() as u64, so.stats.rounds, "one sample per round");
        }
        for threads in THREADS {
            let plan = ExecPlan::from(fault_plan());
            let bare = traced(&mut Network::new(&g, cfg.threads(threads)), make, &plan);
            let sink = Arc::new(RecordingSink::new());
            let tapped = {
                let mut net = Network::new(&g, cfg.threads(threads));
                net.set_stats_sink(Some(SinkHandle::from(Arc::clone(&sink))));
                traced(&mut net, make, &plan)
            };
            match (&bare, &tapped) {
                (Ok((bo, bt)), Ok((to, tt))) => {
                    assert_eq!(bo.outputs, to.outputs, "sink perturbed outputs ({threads}t)");
                    assert_eq!(bo.stats, to.stats, "sink perturbed stats ({threads}t)");
                    assert_eq!(bt.events(), tt.events(), "sink perturbed trace ({threads}t)");
                }
                (Err(be), Err(te)) => {
                    assert_eq!(format!("{be:?}"), format!("{te:?}"), "sink perturbed the error");
                }
                _ => panic!("attaching a sink changed termination ({threads} threads)"),
            }
            // The recorded series is engine-independent either way: the
            // coordinator's merged stream must equal the sequential one.
            assert_eq!(
                seq_samples,
                sink.samples(),
                "sharded sample stream diverges from sequential ({threads} threads, seed {seed})"
            );
        }
    }
}

/// The adaptive transport on the sharded engine: escalation decisions
/// are node-local, so thread scheduling must not leak into them.
#[test]
fn adaptive_transport_parallel_equivalence() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 8).seed(seed).max_rounds(2_000);
        assert_equivalent(&g, cfg, &fault_plan(), &ChurnPlan::default(), |v, graph| {
            Resilient::with_policy(IiNode::new(graph.degree(v)), AdaptivePolicy::default())
        });
    }
}

/// Quiescence-terminated message-driven protocol under churn: exercises
/// the coordinator's round-0 delivered-slot scan and the `frames == 0`
/// fast path on every later round.
#[test]
fn quiescent_relay_equivalence() {
    struct Relay;
    impl Protocol for Relay {
        type Msg = u32;
        type Output = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.id().is_multiple_of(5) {
                ctx.broadcast(8);
            }
        }
        fn on_round(&mut self, ctx: &mut Context<'_, u32>, inbox: &[(Port, u32)]) {
            for &(p, ttl) in inbox {
                if ttl > 0 {
                    let next = (p + 1) % ctx.degree();
                    ctx.send(next, ttl - 1);
                }
            }
        }
        fn into_output(self) -> u32 {
            0
        }
    }
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::local().seed(seed).quiesce_after(2).max_rounds(500);
        assert_equivalent(&g, cfg, &churn_faults(), &churn_plan(), |_, _g| Relay);
    }
}
