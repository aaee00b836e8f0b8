//! Footnote 2, live: the same protocol on a synchronous network, an
//! asynchronous network, and an asynchronous network with adversarially
//! skewed links — same matching every time.
//!
//! ```text
//! cargo run --release --example asynchrony
//! ```

use dam::congest::{AsyncNetwork, DelayModel, Network, SimConfig};
use dam::core::israeli_itai::IiNode;
use dam::graph::generators;
use dam_congest::ExecPlan;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(12);
    let g = generators::gnp(100, 0.06, &mut rng);
    let seed = 4;

    println!("Israeli-Itai on G(100, 0.06), seed {seed}\n");

    // Synchronous reference.
    let sync = Network::new(&g, SimConfig::local().seed(seed)).execute(
        |v, graph| IiNode::new(graph.degree(v)),
        &ExecPlan::default(),
        None,
    )?;
    let matched = sync.outputs.iter().flatten().count() / 2;
    println!(
        "synchronous        : {matched} pairs, {} rounds, {} messages",
        sync.stats.rounds, sync.stats.messages
    );

    // The same protocol, unchanged, under asynchronous delivery with an
    // α-synchronizer shim.
    for (name, delays) in [
        ("async, unit delays", DelayModel::Unit),
        ("async, delay <= 20", DelayModel::UniformRandom { max: 20 }),
        ("async, skewed links", DelayModel::LinkSkew { spread: 13 }),
    ] {
        let (outputs, stats) = AsyncNetwork::new(&g, seed)
            .run_async(|v, graph| IiNode::new(graph.degree(v)), delays)?;
        assert_eq!(outputs, sync.outputs, "footnote 2 must hold");
        println!(
            "{name:<19}: identical matching; {} payload + {} marker msgs, makespan {}",
            stats.payload_messages, stats.marker_messages, stats.makespan
        );
    }

    println!("\nevery asynchronous run produced the *identical* matching —");
    println!("the paper's \"synchrony without loss of generality\" (footnote 2),");
    println!("paid for with the synchronizer's marker messages.");
    Ok(())
}
