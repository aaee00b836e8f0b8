//! The three workloads: inputs generated from the seed, the instance
//! the program is handed (built inside the timed set-up), the exact
//! reference, and the check every `run_mm` output must pass.

use std::path::{Path, PathBuf};

use dam_congest::{Backend, ChurnKind, ChurnPlan, DelayModel, FaultPlan, RunStats, SimConfig};
use dam_core::checkpoint::CheckpointCfg;
use dam_core::runtime::{Algorithm, IsraeliItai, RunReport, RuntimeConfig};
use dam_core::Bipartite;
use dam_graph::{blossom, generators, Graph, ImplicitTopology, NodeId, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::summary::Json;

/// One benchmark workload. The names are cited by later changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Israeli–Itai, bare pipeline, implicit `torus:1000x1000`,
    /// sequential backend.
    IiTorus,
    /// Israeli–Itai over the full stack on a seeded CSR random
    /// 4-regular graph, async backend.
    StackAsync,
    /// Bipartite `(1−1/k)` driver, k = 3, implicit `torus:320x320`,
    /// sharded backend with two workers.
    BipartiteSharded,
}

/// Spec of the `ii-torus-1m` instance.
pub const TORUS_1M: &str = "torus:1000x1000";
/// Spec of the `bipartite-sharded-100k` instance.
pub const TORUS_100K: &str = "torus:320x320";
/// Approximation parameter of the bipartite driver.
pub const BIPARTITE_K: usize = 3;
/// Node count and degree of the `stack-async-10k` graph.
pub const STACK_N: usize = 10_000;
const STACK_DEGREE: usize = 4;
/// Fault and churn intensities of `stack-async-10k`.
const STACK_LOSS: f64 = 0.02;
const STACK_DUP: f64 = 0.02;
const STACK_CORRUPT: f64 = 0.005;
const STACK_SKEW: u64 = 4;
const STACK_CRASHES: usize = 20;
const STACK_LIARS: usize = 10;
const STACK_FLAPS: usize = 60;
const STACK_FLAP_ROUNDS: usize = 10;
const STACK_LEAVES: usize = 40;
/// Round of the leave batch: later than the main run lasts, so the
/// nodes have settled and only the maintenance layer can re-match the
/// partners the batch frees. No edge stays down at the end: the
/// certification recheck ignores edge presence, so it flags a free node
/// whose only free neighbour sits across a downed edge.
const STACK_LATE_ROUND: usize = 200;
/// Round guard of every `stack-async-10k` phase, about 80 times the
/// longest: a phase that stops converging fails the call in seconds
/// instead of running for the default million rounds.
const STACK_MAX_ROUNDS: usize = 20_000;
/// Keeps the input stream apart from the simulator's own use of the seed.
const INPUT_DOMAIN: u64 = 0x5EED_1A7B_0000_0001;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::IiTorus, Workload::StackAsync, Workload::BipartiteSharded];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::IiTorus => "ii-torus-1m",
            Workload::StackAsync => "stack-async-10k",
            Workload::BipartiteSharded => "bipartite-sharded-100k",
        }
    }

    /// Instances one run cycles through, each from its own seed (see
    /// [`sub_seed`]). Rounds, and with them run time, vary from seed to
    /// seed; a run over several seeds varies less from run to run.
    #[must_use]
    pub fn instances(self) -> usize {
        match self {
            Workload::IiTorus => 6,
            Workload::StackAsync => 8,
            Workload::BipartiteSharded => 4,
        }
    }

    /// The workload named `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seed of instance `i` of a run with seed `seed`; instance 0 runs on
/// `seed` itself.
#[must_use]
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64 * 1_000_003)
}

/// Everything generated from the seed before any timing. The program
/// receives only what [`build`] makes of it.
pub struct Inputs {
    workload: Workload,
    seed: u64,
    /// Edge list of the CSR graph (`stack-async-10k` only).
    edges: Vec<(NodeId, NodeId)>,
    faults: FaultPlan,
    churn: ChurnPlan,
}

/// Generates the inputs of `workload` from `seed`.
#[must_use]
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let mut inputs = Inputs {
        workload,
        seed,
        edges: Vec::new(),
        faults: FaultPlan::default(),
        churn: ChurnPlan::default(),
    };
    if workload != Workload::StackAsync {
        return inputs;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ INPUT_DOMAIN);
    let g = generators::random_regular(STACK_N, STACK_DEGREE, &mut rng);
    inputs.edges = (0..g.edge_count()).map(|e| g.endpoints(e)).collect();
    // Disjoint node roles: crashed, lying, leaving.
    let mut nodes: Vec<NodeId> = (0..STACK_N).collect();
    nodes.shuffle(&mut rng);
    let (crashed, rest) = nodes.split_at(STACK_CRASHES);
    let (liars, rest) = rest.split_at(STACK_LIARS);
    let leavers = &rest[..STACK_LEAVES];
    inputs.faults = FaultPlan {
        crashes: crashed.iter().map(|&v| (v, rng.random_range(1..=30))).collect(),
        loss: STACK_LOSS,
        dup: STACK_DUP,
        corrupt: STACK_CORRUPT,
        liars: liars.to_vec(),
        ..FaultPlan::default()
    };
    // Edges flap down and up again while the main run is under way;
    // nodes leave in one late batch.
    let mut edges: Vec<usize> = (0..g.edge_count()).collect();
    edges.shuffle(&mut rng);
    let mut churn = ChurnPlan::default();
    for &edge in &edges[..STACK_FLAPS] {
        let down = rng.random_range(2..=20);
        churn = churn
            .with_event(down, ChurnKind::EdgeDown { edge })
            .with_event(down + STACK_FLAP_ROUNDS, ChurnKind::EdgeUp { edge });
    }
    for &node in leavers {
        churn = churn.with_event(STACK_LATE_ROUND, ChurnKind::Leave { node });
    }
    inputs.churn = churn;
    inputs
}

/// The topology handed to `run_mm`.
pub enum Topo {
    /// Adjacency computed on the fly.
    Implicit(ImplicitTopology),
    /// Stored CSR graph.
    Csr(Graph),
}

impl Topo {
    /// The topology as the runtime consumes it.
    #[must_use]
    pub fn get(&self) -> &dyn Topology {
        match self {
            Topo::Implicit(t) => t,
            Topo::Csr(g) => g,
        }
    }
}

/// What one `run_mm` call is given: topology, driver and configuration.
pub struct Instance {
    /// The workload this instance belongs to.
    pub workload: Workload,
    /// The input topology.
    pub topo: Topo,
    /// The matching driver.
    pub algo: Box<dyn Algorithm>,
    /// The pipeline configuration.
    pub cfg: RuntimeConfig,
}

impl Instance {
    /// The checkpoint directory, when the pipeline writes snapshots.
    #[must_use]
    pub fn checkpoint_dir(&self) -> Option<&Path> {
        self.cfg.checkpoint.as_ref().map(|c| c.dir.as_path())
    }

    /// Empties the checkpoint directory, so every call writes the same
    /// generations from a clean store.
    ///
    /// # Errors
    /// Filesystem errors removing the old snapshots.
    pub fn reset_checkpoints(&self) -> std::io::Result<()> {
        match self.checkpoint_dir() {
            Some(dir) if dir.exists() => std::fs::remove_dir_all(dir),
            _ => Ok(()),
        }
    }
}

/// Builds the topology alone: the spec parse or the CSR build.
///
/// # Panics
/// Panics on a malformed built-in spec or edge list: both are bugs here.
#[must_use]
pub fn build_topology(inputs: &Inputs) -> Topo {
    let spec = match inputs.workload {
        Workload::IiTorus => TORUS_1M,
        Workload::BipartiteSharded => TORUS_100K,
        Workload::StackAsync => {
            let mut b = Graph::builder(STACK_N);
            b.edges(inputs.edges.iter().copied());
            return Topo::Csr(b.build().expect("a random regular edge list is a valid graph"));
        }
    };
    Topo::Implicit(ImplicitTopology::parse(spec).expect("built-in specs parse"))
}

/// Builds the instance: topology, plans and configuration. This is the
/// set-up a user pays before the first call.
#[must_use]
pub fn build(inputs: &Inputs, checkpoint_dir: &Path) -> Instance {
    let topo = build_topology(inputs);
    let sim = SimConfig::local().seed(inputs.seed);
    let (algo, cfg): (Box<dyn Algorithm>, RuntimeConfig) = match inputs.workload {
        Workload::IiTorus => (Box::new(IsraeliItai), RuntimeConfig::new().sim(sim)),
        Workload::BipartiteSharded => (
            Box::new(Bipartite { k: BIPARTITE_K, ..Bipartite::default() }),
            RuntimeConfig::new().sim(sim.threads(2).backend(Backend::Sharded)),
        ),
        Workload::StackAsync => (
            Box::new(IsraeliItai),
            RuntimeConfig::new()
                .sim(sim.max_rounds(STACK_MAX_ROUNDS))
                .delay_model(DelayModel::LinkSkew { spread: STACK_SKEW })
                .tuned_for_async()
                .faults(inputs.faults.clone())
                .churn(inputs.churn.clone())
                .certify(true)
                .repair(true)
                .repair_faults(FaultPlan::default())
                .maintain(true)
                .checkpoint(CheckpointCfg::new(checkpoint_dir)),
        ),
    };
    Instance { workload: inputs.workload, topo, algo, cfg }
}

/// The trusted final topology and the exact maximum matching on it,
/// computed before any timing.
pub struct Reference {
    /// Final node presence: churn's final topology minus crashed nodes.
    pub node_present: Vec<bool>,
    /// Final edge presence (churn's final topology).
    pub edge_present: Vec<bool>,
    /// Size of a maximum matching of the trusted final graph.
    pub maximum: usize,
}

/// Computes the reference of `inst`: the closed form for an even torus
/// (it has a perfect matching), Edmonds' blossom algorithm otherwise.
#[must_use]
pub fn reference(inst: &Instance) -> Reference {
    let g = inst.topo.get();
    let (nodes, edges) = inst.cfg.churn.final_presence_on(g);
    let mut node_present = nodes.to_bools();
    for &(v, _) in &inst.cfg.faults.crashes {
        node_present[v] = false;
    }
    let edge_present = edges.to_bools();
    let maximum = match &inst.topo {
        Topo::Implicit(t) => {
            // A torus has a Hamiltonian cycle, so an even one has a
            // perfect matching.
            assert!(t.spec().starts_with("torus:") && g.node_count().is_multiple_of(2));
            g.node_count() / 2
        }
        Topo::Csr(graph) => {
            // A compact graph of the kept edges: `blossom` walks every
            // edge id, including those an `edge_subgraph` masks out.
            let mut b = Graph::builder(graph.node_count());
            b.edges((0..graph.edge_count()).map(|e| (e, graph.endpoints(e))).filter_map(
                |(e, (a, c))| {
                    (edge_present[e] && node_present[a] && node_present[c]).then_some((a, c))
                },
            ));
            blossom::maximum_matching_size(&b.build().expect("a subgraph of a valid graph"))
        }
    };
    Reference { node_present, edge_present, maximum }
}

/// Every stage's engine cost of a report, folded: main run, repair,
/// maintenance and both certification passes.
#[must_use]
pub fn total_stats(r: &RunReport) -> RunStats {
    let mut t = r.phase1;
    for s in [r.repair, r.maintain].into_iter().flatten() {
        t.absorb(&s);
    }
    for c in [&r.initial, &r.recheck].into_iter().flatten() {
        t.absorb(&c.stats);
    }
    t
}

/// Matched edges of `r` that are valid on the trusted final topology:
/// both endpoints present and agreeing, the edge present.
///
/// # Errors
/// The first register that breaks validity.
pub fn valid_size(g: &dyn Topology, r: &RunReport, refr: &Reference) -> Result<usize, String> {
    let n = g.node_count();
    if r.registers.len() != n {
        return Err(format!("{} registers for {n} nodes", r.registers.len()));
    }
    let mut matched = 0;
    for (v, reg) in r.registers.iter().enumerate() {
        let Some(e) = *reg else { continue };
        if e >= g.edge_count() {
            return Err(format!("node {v} claims edge {e} outside the graph"));
        }
        let (a, b) = g.endpoints(e);
        if a != v && b != v {
            return Err(format!("node {v} claims edge {e}, which is not incident"));
        }
        let u = if a == v { b } else { a };
        if r.registers[u] != Some(e) {
            return Err(format!("edge {e} is claimed by {v} but not by {u}"));
        }
        if !refr.node_present[v] || !refr.edge_present[e] {
            return Err(format!("edge {e} at node {v} is outside the trusted final graph"));
        }
        if v < u {
            matched += 1;
        }
    }
    if r.matching.size() != matched
        || r.matching.edges().any(|e| {
            let (a, b) = g.endpoints(e);
            r.registers[a] != Some(e) || r.registers[b] != Some(e)
        })
    {
        return Err(format!(
            "matching of size {} disagrees with the {matched} register pairs",
            r.matching.size()
        ));
    }
    Ok(matched)
}

/// Whether every present edge of the trusted final graph has a matched
/// endpoint.
#[must_use]
pub fn maximal(g: &dyn Topology, r: &RunReport, refr: &Reference) -> bool {
    (0..g.edge_count()).all(|e| {
        let (a, b) = g.endpoints(e);
        !(refr.edge_present[e] && refr.node_present[a] && refr.node_present[b])
            || r.registers[a].is_some()
            || r.registers[b].is_some()
    })
}

/// The size of the newest snapshot file in `dir`, 0 if none.
#[must_use]
pub fn snapshot_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut newest: Option<(PathBuf, u64)> = None;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "snap") {
            let len = entry.metadata().map_or(0, |m| m.len());
            if newest.as_ref().is_none_or(|(p, _)| path > *p) {
                newest = Some((path, len));
            }
        }
    }
    newest.map_or(0, |(_, len)| len)
}

/// Checks one report: validity on the trusted final topology, the
/// guarantees the workload's pipeline promises, and — on the full
/// stack — that every tail layer did work. Returns the matched size.
///
/// # Errors
/// What failed, in words.
pub fn check(inst: &Instance, r: &RunReport, refr: &Reference) -> Result<usize, String> {
    let g = inst.topo.get();
    let matched = valid_size(g, r, refr)?;
    match inst.workload {
        Workload::IiTorus => {
            if !maximal(g, r, refr) {
                return Err("Israeli–Itai matching is not maximal".into());
            }
        }
        Workload::BipartiteSharded => {
            let bound = 1.0 - 1.0 / BIPARTITE_K as f64;
            if (matched as f64) < bound * refr.maximum as f64 {
                return Err(format!("bipartite ratio {matched}/{} is below 1 - 1/k", refr.maximum));
            }
        }
        Workload::StackAsync => {
            if r.node_present != refr.node_present || r.edge_present != refr.edge_present {
                return Err("final presence differs from the plans' final topology".into());
            }
            if !maximal(g, r, refr) {
                return Err("maintained matching is not maximal on the final graph".into());
            }
            if !r.certified() {
                return Err("final registers are not certified".into());
            }
            let layers = [
                ("maintain.rounds", r.maintain.map_or(0, |s| s.rounds)),
                ("repair.rounds", r.repair.map_or(0, |s| s.rounds)),
                ("certify.flagged", r.initial.as_ref().map_or(0, |c| c.flagged.len() as u64)),
                ("checkpoint.bytes", inst.checkpoint_dir().map_or(0, snapshot_bytes)),
            ];
            if let Some((name, _)) = layers.iter().find(|(_, v)| *v == 0) {
                return Err(format!("{name} is 0: a tail layer did no work"));
            }
        }
    }
    Ok(matched)
}

/// The committed `torus:1000x1000` counters of experiment E22:
/// `(rounds, messages, matched)`.
///
/// # Errors
/// A missing or malformed artifact.
pub fn e22_torus_counters(path: &Path) -> Result<(u64, u64, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text)?;
    let rec = json
        .get("records")
        .and_then(Json::as_arr)
        .and_then(|rs| rs.iter().find(|r| r.get("spec").and_then(Json::as_str) == Some(TORUS_1M)))
        .ok_or(format!("{} has no {TORUS_1M} record", path.display()))?;
    let num = |k: &str| rec.get(k).and_then(Json::as_f64).ok_or(format!("record lacks {k}"));
    Ok((num("rounds")? as u64, num("messages")? as u64, num("matched")? as usize))
}
