//! Maintenance-class message accounting.
//!
//! The maintenance runtime (see `dam-core`'s `maintain` module) repairs
//! a matching after topology churn. Its traffic is *upkeep*, not part of
//! the algorithm whose round/message complexity the paper bounds — so it
//! is billed separately, the same way the resilient transport separates
//! retransmissions and heartbeats from protocol messages.
//!
//! [`Maint`] wraps a message type and reclassifies its protocol frames
//! as [`MsgClass::Maintenance`] (retransmissions and heartbeats keep
//! their class, so a resilient transport running *inside* a maintenance
//! pass still bills its overhead honestly). [`AsMaintenance`] wraps a
//! whole [`Protocol`] so existing state machines can run as maintenance
//! passes unchanged.

use crate::message::{BitSize, MsgClass};
use crate::node::{Context, Port, Protocol};

/// A message reclassified as maintenance traffic.
///
/// Width is unchanged; only the accounting class moves: protocol frames
/// become [`MsgClass::Maintenance`], transport overhead classes are
/// preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Maint<M>(pub M);

impl<M: BitSize> BitSize for Maint<M> {
    fn bit_size(&self) -> usize {
        self.0.bit_size()
    }

    fn class(&self) -> MsgClass {
        match self.0.class() {
            MsgClass::Protocol => MsgClass::Maintenance,
            other => other,
        }
    }
}

/// Runs an inner [`Protocol`] with every frame it sends billed as
/// maintenance traffic (see [`Maint`]). Outputs, randomness and halting
/// behaviour are identical to running the inner protocol directly — only
/// the [`crate::RunStats`] accounting moves from `messages` to
/// `maintenance`.
#[derive(Debug)]
pub struct AsMaintenance<P: Protocol> {
    inner: P,
    buf: Vec<(Port, P::Msg)>,
}

impl<P: Protocol> AsMaintenance<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> AsMaintenance<P> {
        AsMaintenance { inner, buf: Vec::new() }
    }

    /// Drives one inner callback with a context whose outbox collects
    /// the inner message type, then re-wraps the sends. The `sent`
    /// flags, halt flag and fault slot are shared, so duplicate-send
    /// detection and halting work across the wrapper boundary.
    fn drive(
        &mut self,
        ctx: &mut Context<'_, Maint<P::Msg>>,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) {
        let AsMaintenance { inner, buf } = self;
        buf.clear();
        {
            let mut inner_ctx = Context {
                node: ctx.node,
                round: ctx.round,
                graph: ctx.graph,
                rng: &mut *ctx.rng,
                outbox: buf,
                sent: &mut *ctx.sent,
                halted: &mut *ctx.halted,
                fault: &mut *ctx.fault,
                integrity: &mut *ctx.integrity,
            };
            f(inner, &mut inner_ctx);
        }
        for (port, msg) in buf.drain(..) {
            // `sent[port]` was already marked by the inner send; push
            // directly instead of re-sending.
            ctx.outbox.push((port, Maint(msg)));
        }
    }
}

impl<P: Protocol> Protocol for AsMaintenance<P> {
    type Msg = Maint<P::Msg>;
    type Output = P::Output;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.drive(ctx, |p, c| p.on_start(c));
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>, inbox: &[(Port, Self::Msg)]) {
        let unwrapped: Vec<(Port, P::Msg)> = inbox.iter().map(|(p, m)| (*p, m.0.clone())).collect();
        self.drive(ctx, |p, c| p.on_round(c, &unwrapped));
    }

    fn on_peer_down(&mut self, ctx: &mut Context<'_, Self::Msg>, port: Port) {
        self.drive(ctx, |p, c| p.on_peer_down(c, port));
    }

    fn on_peer_up(&mut self, ctx: &mut Context<'_, Self::Msg>, port: Port) {
        self.drive(ctx, |p, c| p.on_peer_up(c, port));
    }

    fn into_output(self) -> Self::Output {
        self.inner.into_output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecPlan;
    use crate::engine::Network;
    use crate::model::SimConfig;
    use dam_graph::generators;

    /// Every node broadcasts once per round and counts what it hears.
    struct Gossip {
        rounds: usize,
        heard: usize,
    }

    impl Protocol for Gossip {
        type Msg = u32;
        type Output = usize;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.broadcast(ctx.id() as u32);
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u32>, inbox: &[(Port, u32)]) {
            self.heard += inbox.len();
            if ctx.round() >= self.rounds {
                ctx.halt();
            } else {
                ctx.broadcast(ctx.id() as u32);
            }
        }

        fn into_output(self) -> usize {
            self.heard
        }
    }

    #[test]
    fn maint_reclassifies_protocol_frames_only() {
        assert_eq!(Maint(7u32).bit_size(), 32);
        assert_eq!(Maint(7u32).class(), MsgClass::Maintenance);

        struct Retx;
        impl BitSize for Retx {
            fn bit_size(&self) -> usize {
                8
            }
            fn class(&self) -> MsgClass {
                MsgClass::Retransmission
            }
        }
        assert_eq!(Maint(Retx).class(), MsgClass::Retransmission);
    }

    #[test]
    fn wrapped_run_matches_plain_run_but_bills_maintenance() {
        let g = generators::cycle(6);
        let mut plain = Network::new(&g, SimConfig::local().seed(7));
        let base = plain
            .execute(|_, _| Gossip { rounds: 5, heard: 0 }, &ExecPlan::default(), None)
            .unwrap();
        let mut net = Network::new(&g, SimConfig::local().seed(7));
        let out = net
            .execute(
                |_, _| AsMaintenance::new(Gossip { rounds: 5, heard: 0 }),
                &ExecPlan::default(),
                None,
            )
            .unwrap();
        assert_eq!(out.outputs, base.outputs);
        assert_eq!(out.stats.rounds, base.stats.rounds);
        assert_eq!(out.stats.messages, 0, "protocol frames must be reclassified");
        assert_eq!(out.stats.maintenance, base.stats.messages);
        assert_eq!(out.stats.total_bits, base.stats.total_bits);
    }
}
