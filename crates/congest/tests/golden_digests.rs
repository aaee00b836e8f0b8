//! Golden digests: committed fingerprints of what the sequential, async
//! and sharded backends produce — outputs, [`RunStats`], sessions, trace
//! streams, errors and the async backend's virtual-time accounting —
//! over a fixed matrix of protocols, topologies and plans.
//!
//! The differential suites (`parallel_equiv`, `async_equiv`) compare the
//! backends with each other. Backends that share one delivery data
//! structure would agree with each other even if that structure changed
//! the order or the set of delivered messages. These digests are the
//! independent reference: they were captured from an engine whose
//! sequential backend kept per-node inbox vectors and sorted them by
//! port, and any change in delivery order, fault draws, quiescence or
//! timing drops changes them.
//!
//! Every case runs on an irregular CSR graph, on an implicit torus and on
//! the torus's materialized CSR twin; the torus and its twin must give
//! the same digest. To regenerate after an *intended* change, run
//! `GOLDEN_PRINT=1 cargo test --release -p dam-congest --test
//! golden_digests -- --nocapture` and paste the printed table.

use dam_congest::{
    Backend, BitSize, ChurnKind, ChurnPlan, Context, CorruptKind, DelayModel, ExecPlan, FaultPlan,
    Network, Port, Protocol, Resilient, SimConfig, Trace, TransportCfg,
};
use dam_core::israeli_itai::IiNode;
use dam_graph::{generators, Graph, ImplicitTopology, Topology};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A gossip payload whose corruption is decodable, so corrupted and
/// equivocated copies reach receivers instead of vanishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Val(u64);

impl BitSize for Val {
    fn bit_size(&self) -> usize {
        16
    }

    fn corrupted(&self, kind: CorruptKind, rng: &mut StdRng) -> Option<Val> {
        match kind {
            CorruptKind::Truncate => None,
            _ => Some(Val(self.0 ^ rng.random_range(1..1u64 << 16))),
        }
    }
}

/// Order-sensitive gossip: every inbox is folded in arrival order, so
/// any change in the port order of an inbox (or in where duplicated and
/// reordered copies land in it) changes the output.
struct Gossip {
    acc: u64,
    rounds: usize,
}

impl Protocol for Gossip {
    type Msg = Val;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, Val>) {
        self.acc = ctx.rng().random_range(0..1000);
        ctx.broadcast(Val(self.acc));
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Val>, inbox: &[(Port, Val)]) {
        for &(port, Val(x)) in inbox {
            self.acc = self.acc.wrapping_mul(31).wrapping_add(x).wrapping_add(port as u64);
        }
        if ctx.round() >= self.rounds + ctx.id() % 3 {
            ctx.halt();
        } else {
            ctx.broadcast(Val(self.acc % 1000));
        }
    }

    fn into_output(self) -> u64 {
        self.acc
    }
}

/// Message-driven relay that never halts once running: only quiescence
/// ends it. Every fifth node halts in `on_start`, so some round-0 sends
/// meet a receiver that halted before them and some meet one that
/// halts after them — the two cases the quiescence detector tells
/// apart.
struct Relay {
    seen: u64,
}

impl Protocol for Relay {
    type Msg = u32;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        if ctx.id().is_multiple_of(5) {
            ctx.halt();
        }
        if ctx.id() % 7 == 1 && ctx.degree() > 0 {
            ctx.send(0, 5);
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u32>, inbox: &[(Port, u32)]) {
        for &(port, ttl) in inbox {
            self.seen = self.seen.wrapping_mul(7).wrapping_add(u64::from(ttl) + port as u64);
            if ttl > 0 {
                let out = (port + 1) % ctx.degree();
                ctx.send(out, ttl - 1);
            }
        }
    }

    fn into_output(self) -> u64 {
        self.seen
    }
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Runs `make` on `backend` and digests everything the run exposes.
fn digest<P, F>(topo: &dyn Topology, config: SimConfig, plan: &ExecPlan, make: F) -> u64
where
    P: Protocol + Send,
    P::Output: std::fmt::Debug,
    F: Fn(usize, &dyn Topology) -> P + Sync,
{
    let mut net = Network::new(topo, config);
    let mut trace = Trace::new();
    let text = match net.execute(make, plan, Some(&mut trace)) {
        Ok(out) => format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            out.outputs,
            out.stats,
            out.sessions,
            trace.events(),
            net.async_info()
        ),
        Err(e) => format!("error {e:?}"),
    };
    fnv1a(text.as_bytes())
}

/// The three topologies every case runs on: an irregular CSR graph, an
/// implicit torus and the torus's CSR twin.
fn topologies() -> (Graph, ImplicitTopology, Graph) {
    let mut rng = StdRng::seed_from_u64(0x601d);
    let gnp = generators::gnp(40, 0.15, &mut rng);
    let torus = ImplicitTopology::torus(8, 6).unwrap();
    let twin = torus.materialize();
    (gnp, torus, twin)
}

/// Loss, duplication, reordering, corruption and Byzantine equivocation.
fn fault_plan() -> ExecPlan {
    FaultPlan {
        loss: 0.08,
        dup: 0.1,
        reorder: 0.12,
        corrupt: 0.08,
        equivocators: vec![6, 17],
        ..FaultPlan::default()
    }
    .into()
}

/// Join, leave, crash and recover, with edge flaps and mild dup/reorder.
fn churn_plan() -> ExecPlan {
    let faults = FaultPlan {
        loss: 0.05,
        dup: 0.05,
        reorder: 0.05,
        crashes: vec![(3, 2), (11, 4)],
        recoveries: vec![(11, 7)],
        ..FaultPlan::default()
    };
    let churn = ChurnPlan::default()
        .with_absent_nodes(vec![7])
        .with_event(2, ChurnKind::EdgeDown { edge: 1 })
        .with_event(3, ChurnKind::Join { node: 7 })
        .with_event(5, ChurnKind::Leave { node: 9 })
        .with_event(6, ChurnKind::EdgeUp { edge: 1 });
    ExecPlan::new(faults, churn)
}

/// Dup/reorder copies for the patience layer to drop as well.
fn patience_plan() -> ExecPlan {
    FaultPlan { dup: 0.2, reorder: 0.2, ..FaultPlan::default() }.into()
}

/// Every case's digest as `(name, digest)`, in a fixed order: per
/// topology, each case on the sequential, async (unbounded patience) and
/// sharded backends, then the async-only patience cases.
fn cases() -> Vec<(String, u64)> {
    let (gnp, torus, twin) = topologies();
    let topos: [(&str, &dyn Topology); 3] = [("gnp", &gnp), ("torus", &torus), ("twin", &twin)];
    let clean = ExecPlan::default();
    let mut out = Vec::new();
    for (tname, topo) in topos {
        let n = topo.node_count();
        let base = SimConfig::congest_for(n, 8).seed(5).max_rounds(2_000);
        let gossip = |_: usize, _: &dyn Topology| Gossip { acc: 0, rounds: 7 };
        let ii = |v: usize, g: &dyn Topology| IiNode::new(g.degree(v));
        let resilient = |v: usize, g: &dyn Topology| {
            Resilient::new(IiNode::new(g.degree(v)), TransportCfg::default())
        };
        let backends: [(&str, SimConfig); 3] = [
            ("seq", base),
            ("async", base.backend(Backend::Async).delay(DelayModel::UniformRandom { max: 5 })),
            ("sharded", base.threads(3)),
        ];
        for (bname, cfg) in backends {
            let mut push = |case: &str, d: u64| out.push((format!("{tname}/{bname}/{case}"), d));
            push("clean-gossip", digest(topo, cfg, &clean, gossip));
            push("clean-ii", digest(topo, cfg, &clean, ii));
            push("faults-gossip", digest(topo, cfg, &fault_plan(), gossip));
            push("faults-ii", digest(topo, cfg, &fault_plan(), resilient));
            push("churn-gossip", digest(topo, cfg, &churn_plan(), gossip));
            push("churn-ii", digest(topo, cfg, &churn_plan(), resilient));
            for k in [1, 2] {
                let q = cfg.quiesce_after(k).max_rounds(60);
                push(
                    &format!("quiesce{k}-relay"),
                    digest(topo, q, &clean, |_, _| Relay { seen: 0 }),
                );
            }
        }
        let patient = base
            .backend(Backend::Async)
            .delay(DelayModel::Straggler { node: 4, slow: 9 })
            .patience(2);
        out.push((
            format!("{tname}/async/patience-clean-gossip"),
            digest(topo, patient, &clean, gossip),
        ));
        out.push((
            format!("{tname}/async/patience-dup-gossip"),
            digest(topo, patient, &patience_plan(), gossip),
        ));
        out.push((
            format!("{tname}/async/patience-dup-ii"),
            digest(topo, patient, &patience_plan(), resilient),
        ));
    }
    out
}

/// Digests captured before the sequential engine moved to the per-port
/// slot mailbox. The async backend digests its markers and virtual-time
/// info too, so its values differ from the sequential ones; sharded
/// values equal the sequential ones.
const GOLDEN: &[(&str, u64)] = &[
    ("gnp/seq/clean-gossip", 0x32d5b13553f81cdf),
    ("gnp/seq/clean-ii", 0xbd404c2212dfc3cb),
    ("gnp/seq/faults-gossip", 0xe23f6d7d84fe28a8),
    ("gnp/seq/faults-ii", 0x7748b58d657947a7),
    ("gnp/seq/churn-gossip", 0xfd0b94e83a0beaa5),
    ("gnp/seq/churn-ii", 0x0de343df93c59d5e),
    ("gnp/seq/quiesce1-relay", 0x0a8ed5ae0aa60b0f),
    ("gnp/seq/quiesce2-relay", 0x6e30d2e3fee880b9),
    ("gnp/async/clean-gossip", 0x03727f14de1e8ff6),
    ("gnp/async/clean-ii", 0x53b14916123fa7c6),
    ("gnp/async/faults-gossip", 0x1573240fe7b04287),
    ("gnp/async/faults-ii", 0x51dcd3176a98be7b),
    ("gnp/async/churn-gossip", 0xfc320799b8026d74),
    ("gnp/async/churn-ii", 0xc65f55b5420c7ca1),
    ("gnp/async/quiesce1-relay", 0xc613232538771112),
    ("gnp/async/quiesce2-relay", 0x3d11dac0a633395d),
    ("gnp/sharded/clean-gossip", 0x32d5b13553f81cdf),
    ("gnp/sharded/clean-ii", 0xbd404c2212dfc3cb),
    ("gnp/sharded/faults-gossip", 0xe23f6d7d84fe28a8),
    ("gnp/sharded/faults-ii", 0x7748b58d657947a7),
    ("gnp/sharded/churn-gossip", 0xfd0b94e83a0beaa5),
    ("gnp/sharded/churn-ii", 0x0de343df93c59d5e),
    ("gnp/sharded/quiesce1-relay", 0x0a8ed5ae0aa60b0f),
    ("gnp/sharded/quiesce2-relay", 0x6e30d2e3fee880b9),
    ("gnp/async/patience-clean-gossip", 0x6a4a01c48def32e3),
    ("gnp/async/patience-dup-gossip", 0xa335ab01f1471896),
    ("gnp/async/patience-dup-ii", 0x07476918eda3026f),
    ("torus/seq/clean-gossip", 0x76f3f71abca9c9ba),
    ("torus/seq/clean-ii", 0x8081148cbe708c68),
    ("torus/seq/faults-gossip", 0x48edf042da79d9c2),
    ("torus/seq/faults-ii", 0x059db9bc8c14d3d7),
    ("torus/seq/churn-gossip", 0x398991f131b462b9),
    ("torus/seq/churn-ii", 0x320ee2952e5fb1b6),
    ("torus/seq/quiesce1-relay", 0x8a847efdd7eedf08),
    ("torus/seq/quiesce2-relay", 0x8a7490e655c819da),
    ("torus/async/clean-gossip", 0xdedcdf5c593fd8d1),
    ("torus/async/clean-ii", 0xcb5b3d9223667c85),
    ("torus/async/faults-gossip", 0x517dc8f058d85881),
    ("torus/async/faults-ii", 0xb18ee26253cd6a37),
    ("torus/async/churn-gossip", 0x65f5d71d1c513d10),
    ("torus/async/churn-ii", 0x34e534d427988fca),
    ("torus/async/quiesce1-relay", 0xde9e5fadbd89ee17),
    ("torus/async/quiesce2-relay", 0xe2fb2ae45299f9ce),
    ("torus/sharded/clean-gossip", 0x76f3f71abca9c9ba),
    ("torus/sharded/clean-ii", 0x8081148cbe708c68),
    ("torus/sharded/faults-gossip", 0x48edf042da79d9c2),
    ("torus/sharded/faults-ii", 0x059db9bc8c14d3d7),
    ("torus/sharded/churn-gossip", 0x398991f131b462b9),
    ("torus/sharded/churn-ii", 0x320ee2952e5fb1b6),
    ("torus/sharded/quiesce1-relay", 0x8a847efdd7eedf08),
    ("torus/sharded/quiesce2-relay", 0x8a7490e655c819da),
    ("torus/async/patience-clean-gossip", 0xc39eb911f19ef4f9),
    ("torus/async/patience-dup-gossip", 0xeda02006167d84a3),
    ("torus/async/patience-dup-ii", 0xbb0d92de0a9d7a45),
    ("twin/seq/clean-gossip", 0x76f3f71abca9c9ba),
    ("twin/seq/clean-ii", 0x8081148cbe708c68),
    ("twin/seq/faults-gossip", 0x48edf042da79d9c2),
    ("twin/seq/faults-ii", 0x059db9bc8c14d3d7),
    ("twin/seq/churn-gossip", 0x398991f131b462b9),
    ("twin/seq/churn-ii", 0x320ee2952e5fb1b6),
    ("twin/seq/quiesce1-relay", 0x8a847efdd7eedf08),
    ("twin/seq/quiesce2-relay", 0x8a7490e655c819da),
    ("twin/async/clean-gossip", 0xdedcdf5c593fd8d1),
    ("twin/async/clean-ii", 0xcb5b3d9223667c85),
    ("twin/async/faults-gossip", 0x517dc8f058d85881),
    ("twin/async/faults-ii", 0xb18ee26253cd6a37),
    ("twin/async/churn-gossip", 0x65f5d71d1c513d10),
    ("twin/async/churn-ii", 0x34e534d427988fca),
    ("twin/async/quiesce1-relay", 0xde9e5fadbd89ee17),
    ("twin/async/quiesce2-relay", 0xe2fb2ae45299f9ce),
    ("twin/sharded/clean-gossip", 0x76f3f71abca9c9ba),
    ("twin/sharded/clean-ii", 0x8081148cbe708c68),
    ("twin/sharded/faults-gossip", 0x48edf042da79d9c2),
    ("twin/sharded/faults-ii", 0x059db9bc8c14d3d7),
    ("twin/sharded/churn-gossip", 0x398991f131b462b9),
    ("twin/sharded/churn-ii", 0x320ee2952e5fb1b6),
    ("twin/sharded/quiesce1-relay", 0x8a847efdd7eedf08),
    ("twin/sharded/quiesce2-relay", 0x8a7490e655c819da),
    ("twin/async/patience-clean-gossip", 0xc39eb911f19ef4f9),
    ("twin/async/patience-dup-gossip", 0xeda02006167d84a3),
    ("twin/async/patience-dup-ii", 0xbb0d92de0a9d7a45),
];

#[test]
fn backends_reproduce_the_golden_digests() {
    let got = cases();
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for (name, d) in &got {
            println!("    (\"{name}\", {d:#018x}),");
        }
    }
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    let diff: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("{}: got {:#018x}, want {:#018x} ({})", g.0, g.1, w.1, w.0))
        .collect();
    assert_eq!(got.len(), want.len(), "case list changed");
    assert!(diff.is_empty(), "digests changed:\n{}", diff.join("\n"));
}

#[test]
fn implicit_torus_and_its_twin_agree() {
    let got = cases();
    for (name, d) in got.iter().filter(|(n, _)| n.starts_with("torus/")) {
        let twin = format!("twin/{}", &name["torus/".len()..]);
        let td = got.iter().find(|(n, _)| *n == twin).expect("twin case exists").1;
        assert_eq!(*d, td, "{name} differs from its CSR twin");
    }
}

#[test]
fn sharded_digests_equal_sequential_ones() {
    let got = cases();
    for (name, d) in got.iter().filter(|(n, _)| n.contains("/sharded/")) {
        let seq = name.replace("/sharded/", "/seq/");
        let sd = got.iter().find(|(n, _)| *n == seq).expect("seq case exists").1;
        assert_eq!(*d, sd, "{name} differs from the sequential backend");
    }
}
