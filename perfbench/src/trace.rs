//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into each layer's public entry points, plus forwarding wrappers that
//! let it see those calls without changing the program.
//!
//! * [`TracedAlgorithm`] forwards every [`Algorithm`] method (including
//!   `name`, so the repair and maintenance seed domains are unchanged)
//!   and records a span around `run` (the engine's main run), `resume`
//!   (the repair layer) and `encode_registers` (checkpoint encoding).
//! * [`CountingTopology`] forwards every [`Topology`] method and counts
//!   the calls. It forwards `as_graph` too, so maintenance takes the
//!   same CSR path; that call is also the mark where maintenance starts.
//! * [`RoundClock`] is a [`StatsSink`]: the gaps between its `record`
//!   calls are round durations, and its last sample per run carries the
//!   transport's window occupancy, which `RunStats` does not keep.
//!
//! Spans are kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dam_congest::{RoundSample, StatsSink};
use dam_core::checkpoint::SnapshotError;
use dam_core::runtime::{Algorithm, Exec, MainRun};
use dam_core::CoreError;
use dam_graph::{EdgeId, Graph, NodeId, Side, Topology};

use crate::mem;

/// One timed interval: what ran, when, under which parent, in which
/// traced `run_mm` call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer entry point (`run_mm`, `engine.main`, `repair`, ...).
    pub name: &'static str,
    /// Traced call this span belongs to.
    pub run: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    /// Seconds since the recorder's epoch (equal to `start` for marks).
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

/// In-memory span recorder. Spans nest by call order on the caller's
/// thread, which is the only thread that enters them: the benchmark is
/// one closed-loop caller.
pub struct Spans {
    epoch: Instant,
    log: Mutex<Log>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Spans {
        Spans { epoch: Instant::now(), log: Mutex::new(Log::default()) }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log.lock().expect("span log poisoned by a panicking caller")
    }

    /// Starts the spans of traced call `run`.
    pub fn set_run(&self, run: u64) {
        self.lock().run = run;
    }

    /// Opens a span; close it with [`Spans::exit`].
    pub fn enter(&self, name: &'static str) -> usize {
        let t = self.now();
        let mut log = self.lock();
        let id = log.spans.len();
        let (run, parent) = (log.run, log.open.last().copied());
        log.spans.push(Span { name, run, parent, start: t, end: t });
        log.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn exit(&self, id: usize) {
        let t = self.now();
        let mut log = self.lock();
        log.spans[id].end = t;
        while let Some(top) = log.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Records a zero-length span: an event inside the open span.
    pub fn mark(&self, name: &'static str) {
        let id = self.enter(name);
        self.exit(id);
    }

    /// Adds a span derived from two recorded instants.
    pub fn derived(&self, name: &'static str, parent: usize, start: f64, end: f64) {
        let mut log = self.lock();
        let run = log.spans[parent].run;
        log.spans.push(Span { name, run, parent: Some(parent), start, end });
    }

    /// A copy of the spans of traced call `run`, in start order.
    #[must_use]
    pub fn of_run(&self, run: u64) -> Vec<(usize, Span)> {
        let log = self.lock();
        let mut out: Vec<(usize, Span)> =
            log.spans.iter().cloned().enumerate().filter(|(_, s)| s.run == run).collect();
        out.sort_by(|a, b| a.1.start.total_cmp(&b.1.start));
        out
    }

    /// Every span as JSON lines: name, run id, parent, start and end.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let log = self.lock();
        let mut out = String::new();
        for (id, s) in log.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}}}",
                s.name, s.run, s.start, s.end
            );
        }
        out
    }
}

/// An [`Algorithm`] that forwards to `inner` and records spans.
pub struct TracedAlgorithm<'a> {
    inner: &'a dyn Algorithm,
    spans: &'a Spans,
    /// Peak resident memory of the process during the last main run
    /// (`VmHWM`, reset at the start of the span), in kB.
    pub main_peak_kb: AtomicU64,
    /// Matched edges the last repair added: pairs in the registers
    /// `resume` returned minus pairs in those it was handed.
    pub repair_added: AtomicU64,
}

impl<'a> TracedAlgorithm<'a> {
    /// A tracer around `inner` that records into `spans`.
    #[must_use]
    pub fn new(inner: &'a dyn Algorithm, spans: &'a Spans) -> TracedAlgorithm<'a> {
        TracedAlgorithm {
            inner,
            spans,
            main_peak_kb: AtomicU64::new(0),
            repair_added: AtomicU64::new(0),
        }
    }
}

/// Matched pairs in a register vector: edges claimed by exactly two
/// nodes.
fn pairs(registers: &[Option<EdgeId>]) -> u64 {
    let mut claims: Vec<EdgeId> = registers.iter().flatten().copied().collect();
    claims.sort_unstable();
    claims.windows(2).filter(|w| w[0] == w[1]).count() as u64
}

impl Algorithm for TracedAlgorithm<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, exec: &mut Exec<'_>) -> Result<MainRun, CoreError> {
        let _ = mem::reset_peak();
        let id = self.spans.enter("engine.main");
        let out = self.inner.run(exec);
        self.spans.exit(id);
        self.main_peak_kb.store(mem::peak_kb(), Ordering::Relaxed);
        out
    }

    fn resume(
        &self,
        exec: &mut Exec<'_>,
        registers: &[Option<EdgeId>],
    ) -> Result<MainRun, CoreError> {
        let id = self.spans.enter("repair");
        let out = self.inner.resume(exec, registers);
        self.spans.exit(id);
        if let Ok(run) = &out {
            let added = pairs(&run.registers).saturating_sub(pairs(registers));
            self.repair_added.store(added, Ordering::Relaxed);
        }
        out
    }

    fn encode_registers(&self, registers: &[Option<EdgeId>]) -> Vec<u8> {
        let id = self.spans.enter("checkpoint.encode");
        let out = self.inner.encode_registers(registers);
        self.spans.exit(id);
        out
    }

    fn decode_registers(
        &self,
        bytes: &[u8],
        n: usize,
    ) -> Result<Vec<Option<EdgeId>>, SnapshotError> {
        self.inner.decode_registers(bytes, n)
    }
}

/// Counter stripes: each thread adds to its own cache line, so engine
/// workers counting at once do not contend for one.
const STRIPES: usize = 16;

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

#[repr(align(64))]
#[derive(Default)]
struct Stripe(AtomicU64);

/// A [`Topology`] that forwards to `inner` and counts every call.
pub struct CountingTopology<'a> {
    inner: &'a dyn Topology,
    spans: &'a Spans,
    stripes: [Stripe; STRIPES],
}

impl<'a> CountingTopology<'a> {
    /// A counter over `inner` starting at zero; `as_graph` calls are
    /// marked in `spans`.
    #[must_use]
    pub fn new(inner: &'a dyn Topology, spans: &'a Spans) -> CountingTopology<'a> {
        CountingTopology { inner, spans, stripes: Default::default() }
    }

    /// Calls made through this wrapper so far.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.stripes.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    fn tick(&self) {
        // A statistic that publishes no other data.
        STRIPE.with(|&i| self.stripes[i].0.fetch_add(1, Ordering::Relaxed));
    }
}

impl Topology for CountingTopology<'_> {
    fn node_count(&self) -> usize {
        self.tick();
        self.inner.node_count()
    }

    fn edge_count(&self) -> usize {
        self.tick();
        self.inner.edge_count()
    }

    fn degree(&self, v: NodeId) -> usize {
        self.tick();
        self.inner.degree(v)
    }

    fn max_degree(&self) -> usize {
        self.tick();
        self.inner.max_degree()
    }

    fn port(&self, v: NodeId, p: usize) -> (NodeId, EdgeId) {
        self.tick();
        self.inner.port(v, p)
    }

    fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.tick();
        self.inner.endpoints(e)
    }

    fn weight(&self, e: EdgeId) -> f64 {
        self.tick();
        self.inner.weight(e)
    }

    fn is_weighted(&self) -> bool {
        self.tick();
        self.inner.is_weighted()
    }

    fn side_of(&self, v: NodeId) -> Option<Side> {
        self.tick();
        self.inner.side_of(v)
    }

    fn as_graph(&self) -> Option<&Graph> {
        self.tick();
        self.spans.mark("as_graph");
        self.inner.as_graph()
    }

    fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        self.tick();
        self.inner.other_endpoint(e, v)
    }

    fn neighbors<'b>(&'b self, v: NodeId) -> Box<dyn Iterator<Item = NodeId> + 'b> {
        self.tick();
        self.inner.neighbors(v)
    }

    fn incident<'b>(&'b self, v: NodeId) -> Box<dyn Iterator<Item = (usize, NodeId, EdgeId)> + 'b> {
        self.tick();
        self.inner.incident(v)
    }

    fn port_of_edge(&self, v: NodeId, e: EdgeId) -> Option<usize> {
        self.tick();
        self.inner.port_of_edge(v, e)
    }
}

/// A [`StatsSink`] that timestamps every end-of-round sample.
pub struct RoundClock {
    epoch: Instant,
    samples: Mutex<Vec<(f64, RoundSample)>>,
}

impl RoundClock {
    /// An empty clock.
    #[must_use]
    pub fn new() -> RoundClock {
        RoundClock { epoch: Instant::now(), samples: Mutex::new(Vec::new()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(f64, RoundSample)>> {
        self.samples.lock().expect("round clock poisoned by a panicking engine")
    }

    /// Durations of the rounds after the first of each engine run, in
    /// milliseconds: the gap between consecutive samples of one run.
    #[must_use]
    pub fn round_ms(&self) -> Vec<f64> {
        self.lock()
            .windows(2)
            .filter(|w| w[0].1.run == w[1].1.run)
            .map(|w| (w[1].0 - w[0].0) * 1e3)
            .collect()
    }

    /// Occupied transport window slots, summed over nodes and rounds of
    /// every engine run: the last cumulative sample of each run, added.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        let samples = self.lock();
        let last_of_run =
            |i: usize| samples.get(i + 1).is_none_or(|next| next.1.run != samples[i].1.run);
        (0..samples.len()).filter(|&i| last_of_run(i)).map(|i| samples[i].1.outstanding).sum()
    }
}

impl StatsSink for RoundClock {
    fn record(&self, sample: RoundSample) {
        let t = self.epoch.elapsed().as_secs_f64();
        self.lock().push((t, sample));
    }
}
