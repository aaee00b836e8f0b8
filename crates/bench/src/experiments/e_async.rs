//! E14: the α-synchronizer's price (footnote 2 made quantitative).

use dam_congest::{AsyncNetwork, DelayModel, ExecPlan, Network, SimConfig};
use dam_core::israeli_itai::IiNode;
use dam_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::ExpContext;
use crate::fit::mean;
use crate::table::{f2, Table};

/// E14 — running Israeli–Itai asynchronously: marker overhead and
/// makespan under increasingly hostile delay models, with the output
/// guaranteed identical to the synchronous run.
pub fn e14(ctx: &ExpContext) -> Vec<Table> {
    let n = ctx.size(200, 40);
    let seeds = ctx.size(4, 2) as u64;
    let mut t = Table::new(
        "alpha-synchronizer overhead (Israeli-Itai)",
        &["delay model", "sync rounds", "payload msgs", "marker msgs", "overhead x", "makespan"],
    );
    for (name, delays) in [
        ("unit", DelayModel::Unit),
        ("uniform<=5", DelayModel::UniformRandom { max: 5 }),
        ("uniform<=25", DelayModel::UniformRandom { max: 25 }),
        ("link-skew 9", DelayModel::LinkSkew { spread: 9 }),
    ] {
        let mut sync_rounds = Vec::new();
        let mut payload = Vec::new();
        let mut marker = Vec::new();
        let mut makespan = Vec::new();
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(9700 + seed);
            let g = generators::gnp(n, 6.0 / n as f64, &mut rng);
            let sync = Network::new(&g, SimConfig::local().seed(seed))
                .execute(|v, graph| IiNode::new(graph.degree(v)), &ExecPlan::default(), None)
                .expect("sync run");
            let (outputs, stats) = AsyncNetwork::new(&g, seed)
                .run_async(|v, graph| IiNode::new(graph.degree(v)), delays)
                .expect("async run");
            assert_eq!(outputs, sync.outputs, "equivalence is part of the experiment");
            sync_rounds.push(sync.stats.rounds as f64);
            payload.push(stats.payload_messages as f64);
            marker.push(stats.marker_messages as f64);
            makespan.push(stats.makespan as f64);
        }
        let overhead = (mean(&payload) + mean(&marker)) / mean(&payload).max(1.0);
        t.row(vec![
            name.to_string(),
            f2(mean(&sync_rounds)),
            f2(mean(&payload)),
            f2(mean(&marker)),
            f2(overhead),
            f2(mean(&makespan)),
        ]);
    }
    vec![t]
}
