//! The repository benchmark: drives the public `dam_core::runtime::run_mm`
//! pipeline closed-loop — one caller, one call at a time — on one of
//! three workloads, checks every output, and prints the metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ii-torus-1m|stack-async-10k|bipartite-sharded-100k \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! A run builds a few instances from seeds derived from `--seed` and
//! calls them in turn, in whole passes, for at most `--seconds`.
//! With `--trace 0` it prints the end-to-end metrics: set-up time, the
//! median `run_mm` wall time, peak RSS, the modelled counters and the
//! approximation ratio. With `--trace 1` it alternates untraced and
//! traced calls of the same instance and prints the per-layer metrics,
//! measured from outside through forwarding wrappers (see `trace` and
//! `traced`).
//! The last stdout line is always the JSON result; spans of a traced
//! run are written to `.bench_out/`.
//!
//! Run it from the repository root: it builds the program from
//! `crates/` and reads `results/BENCH_e22.json` for the seed-22
//! cross-check. `perfbench/README.md` lists every metric and how it is
//! measured.

mod mem;
mod summary;
mod trace;
mod traced;
mod workloads;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dam_congest::RunStats;
use dam_core::runtime::{run_mm, Algorithm, RunReport, RuntimeConfig};
use dam_graph::{EdgeId, Topology};

use summary::{highest_tail, median, Metric, Outcome};
use trace::Spans;
use workloads::{Instance, Reference, Workload};

const USAGE: &str =
    "usage: perfbench --workload ii-torus-1m|stack-async-10k|bipartite-sharded-100k \
--seed N --seconds S --trace 0|1";

/// Where traces and the checkpoint store go, relative to the checkout.
const OUT_DIR: &str = ".bench_out";
/// The committed E22 artifact the seed-22 cross-check reads.
const E22_ARTIFACT: &str = "results/BENCH_e22.json";
/// The seed at which `ii-torus-1m` must reproduce E22's counters.
const E22_SEED: u64 = 22;
/// Set-up is timed in samples of at least [`SAMPLE_MIN`] each (builds
/// are batched to reach it), until [`SETUP_BUDGET`] has passed and at
/// least [`SETUP_SAMPLES`] samples exist; the median sample is reported.
const SETUP_BUDGET: Duration = Duration::from_millis(300);
const SETUP_SAMPLES: usize = 5;
const SAMPLE_MIN: Duration = Duration::from_millis(2);
/// Direct calls into a tail layer run this long (and at least five
/// times); the median is reported.
const DIRECT_BUDGET: Duration = Duration::from_millis(200);

/// Unit and direction of every metric, in print order: the end-to-end
/// metrics, then the per-layer ones. `BENCHMARK.json` lists the same.
const METRICS: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("rounds", "count", "lower"),
    ("messages", "count", "lower"),
    ("frames", "count", "lower"),
    ("bits", "bit", "lower"),
    ("ratio", "ratio", "higher"),
    ("ok_rate", "ratio", "higher"),
    ("topology.build_s", "s", "lower"),
    ("topology.lookups", "count", "lower"),
    ("topology.mb", "MB", "lower"),
    ("runtime.pre_s", "s", "lower"),
    ("engine.main_s", "s", "lower"),
    ("engine.round_ms_p50", "ms", "lower"),
    ("engine.round_ms_tail", "ms", "lower"),
    ("engine.round_tail_pct", "%", "higher"),
    ("engine.round_samples", "count", "higher"),
    ("engine.msgs_per_s", "1/s", "higher"),
    ("engine.main_mb", "MB", "lower"),
    ("asynchrony.markers", "count", "lower"),
    ("transport.frames_per_msg", "ratio", "lower"),
    ("transport.retransmissions", "count", "lower"),
    ("transport.heartbeats", "count", "lower"),
    ("transport.suspected", "count", "lower"),
    ("transport.rejected", "count", "lower"),
    ("transport.quarantined", "count", "lower"),
    ("transport.outstanding", "count", "lower"),
    ("driver.iterations", "count", "lower"),
    ("driver.phases", "count", "lower"),
    ("repair.s", "s", "lower"),
    ("repair.rounds", "count", "lower"),
    ("repair.touched", "count", "lower"),
    ("repair.added", "count", "higher"),
    ("certify.s", "s", "lower"),
    ("certify.flagged", "count", "lower"),
    ("certify.rounds", "count", "lower"),
    ("maintain.s", "s", "lower"),
    ("maintain.rounds", "count", "lower"),
    ("maintain.added", "count", "higher"),
    ("checkpoint.encode_s", "s", "lower"),
    ("checkpoint.boundary_s", "s", "lower"),
    ("checkpoint.write_s", "s", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.accounted", "ratio", "higher"),
];

/// How many end-to-end metrics lead [`METRICS`].
const END_TO_END: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad("workload"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Attempted and failed calls, and the first failure's reason.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: call {} failed: {e}", self.attempted);
                self.first_failure.get_or_insert(e);
                None
            }
        }
    }

    /// Marks the last attempted call failed: a check on its outputs,
    /// made after the call, did not hold.
    fn fail_last(&mut self, e: String) {
        self.failed = (self.failed + 1).min(self.attempted);
        eprintln!("perfbench: call {} failed: {e}", self.attempted);
        self.first_failure.get_or_insert(e);
    }

    fn outcome(&self, metrics: Vec<Metric>) -> Outcome {
        Outcome {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }

    fn ok_rate(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// The modelled outputs every call of one instance must repeat exactly.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    registers: u64,
    /// Main run, repair, maintenance and both certification passes.
    stages: [Option<RunStats>; 5],
    iterations: usize,
    phases: usize,
    added: usize,
    touched: usize,
    flagged: Option<Vec<usize>>,
    recheck: Option<(Vec<usize>, usize, usize)>,
}

/// FNV-1a over the registers: a fingerprint that, unlike a copy, does
/// not add to the peak the run measures.
fn registers_hash(regs: &[Option<EdgeId>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in regs {
        let x = r.map_or(u64::MAX, |e| e as u64);
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fingerprint(r: &RunReport) -> Fingerprint {
    Fingerprint {
        registers: registers_hash(&r.registers),
        stages: [
            Some(r.phase1),
            r.repair,
            r.maintain,
            r.initial.as_ref().map(|c| c.stats),
            r.recheck.as_ref().map(|c| c.stats),
        ],
        iterations: r.iterations,
        phases: r.totals.runs,
        added: r.added,
        touched: r.repair_touched,
        flagged: r.initial.as_ref().map(|c| c.flagged.clone()),
        recheck: r.recheck.as_ref().map(|c| (c.flagged.clone(), c.checked, c.matched)),
    }
}

/// The checks of one instance: its reference, the outputs of its first
/// call, which every later call must repeat, and E22's counters when
/// the instance is `ii-torus-1m` at seed 22.
struct Checks {
    refr: Reference,
    first: Option<Fingerprint>,
    e22: Option<Result<(u64, u64, usize), String>>,
}

impl Checks {
    fn check(&mut self, inst: &Instance, r: &RunReport) -> Result<usize, String> {
        let matched = workloads::check(inst, r, &self.refr)?;
        if let Some(e22) = &self.e22 {
            let want = e22.clone()?;
            let got = (r.phase1.rounds, r.phase1.messages, matched);
            if got != want {
                return Err(format!(
                    "E22 cross-check: (rounds, messages, matched) {got:?} != {want:?}"
                ));
            }
        }
        let fp = fingerprint(r);
        match &self.first {
            None => self.first = Some(fp),
            Some(first) if *first != fp => {
                return Err("outputs differ from the first call of this instance \
(every call, traced or not, must repeat them)"
                    .into());
            }
            Some(_) => {}
        }
        Ok(matched)
    }
}

/// One instance of a run and its checks.
struct Case {
    inst: Instance,
    checks: Checks,
}

impl Case {
    fn call_plain(&mut self) -> Result<(RunReport, usize, f64), String> {
        let inst = &self.inst;
        call(inst, &mut self.checks, &*inst.algo, inst.topo.get(), &inst.cfg, None)
    }
}

/// One `run_mm` call of `inst` through `algo`, `topo` and `cfg` (the
/// instance's own, or tracing wrappers around them), timed and checked.
/// Clearing the checkpoint store first keeps every call's work
/// identical; neither it nor the check is timed.
fn call(
    inst: &Instance,
    checks: &mut Checks,
    algo: &dyn Algorithm,
    topo: &dyn Topology,
    cfg: &RuntimeConfig,
    spans: Option<&Spans>,
) -> Result<(RunReport, usize, f64), String> {
    inst.reset_checkpoints().map_err(|e| format!("clearing the checkpoint store: {e}"))?;
    let root = spans.map(|s| s.enter("run_mm"));
    let t0 = Instant::now();
    let report = run_mm(algo, topo, cfg);
    let dt = t0.elapsed().as_secs_f64();
    if let (Some(s), Some(id)) = (spans, root) {
        s.exit(id);
    }
    let report = black_box(report).map_err(|e| format!("run_mm: {e}"))?;
    let matched = checks.check(inst, &report)?;
    Ok((report, matched, dt))
}

/// The instances of a run and the set-up time they took.
struct Bench {
    cases: Vec<Case>,
    setup_times: Vec<f64>,
}

/// Times `f` in samples of at least [`SAMPLE_MIN`], batching calls when
/// one is shorter, until `budget` has passed and `min` samples exist.
/// Returns the per-call time of every sample and the last result.
fn timed<T>(min: usize, budget: Duration, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let t0 = Instant::now();
    let mut batch = 1u32;
    let mut times = Vec::new();
    loop {
        let s = Instant::now();
        let mut out = black_box(f());
        for _ in 1..batch {
            out = black_box(f());
        }
        let dt = s.elapsed();
        if dt < SAMPLE_MIN && batch < 1 << 20 {
            batch *= 2;
            continue;
        }
        times.push(dt.as_secs_f64() / f64::from(batch));
        if times.len() >= min && t0.elapsed() >= budget {
            return (times, out);
        }
    }
}

fn prepare(args: &Args, ckpt: &Path) -> Bench {
    let inputs: Vec<_> = (0..args.workload.instances())
        .map(|i| workloads::generate(args.workload, workloads::sub_seed(args.seed, i)))
        .collect();
    let build_all = || inputs.iter().map(|i| workloads::build(i, ckpt)).collect::<Vec<_>>();
    let (setup_times, insts) = timed(SETUP_SAMPLES, SETUP_BUDGET, build_all);
    let cases = insts
        .into_iter()
        .map(|inst| {
            let refr = workloads::reference(&inst);
            let e22 = (inst.workload == Workload::IiTorus && inst.cfg.sim.seed == E22_SEED)
                .then(|| workloads::e22_torus_counters(Path::new(E22_ARTIFACT)));
            Case { inst, checks: Checks { refr, first: None, e22 } }
        })
        .collect();
    Bench { cases, setup_times }
}

/// Whether another pass, as long as the last one, ends within `seconds`
/// of `t0`: the measured span stays inside the run length.
fn fits(t0: Instant, last: Option<f64>, seconds: f64) -> bool {
    t0.elapsed().as_secs_f64() + last.unwrap_or(0.0) <= seconds
}

fn metric(name: &str, value: f64) -> Metric {
    let unit = METRICS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map_or_else(|| panic!("metric {name} is not listed"), |(_, u, _)| *u);
    Metric { name: name.to_string(), value, unit: unit.to_string() }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn tail_note(xs: &[f64], unit: &str) -> String {
    match highest_tail(xs) {
        Some((p, v)) => format!(", p{p} {v:.6} {unit}"),
        None => format!(", no tail percentile ({} samples; p75 needs 40)", xs.len()),
    }
}

/// The end-to-end run: one warm-up call, then whole passes over the
/// instances for at most `seconds`. Counters are means over instances.
fn untraced(args: &Args, ckpt: &Path) -> (Outcome, Vec<String>) {
    let mut b = prepare(args, ckpt);
    let mut tally = Tally::default();
    // Only counters outlive a call, so no report inflates the peak.
    let mut counters: Vec<Option<(RunStats, f64)>> = vec![None; b.cases.len()];
    let keep = |c: &Case, r: &RunReport, matched: usize| {
        (workloads::total_stats(r), matched as f64 / c.checks.refr.maximum.max(1) as f64)
    };
    if let Some((r, m, _)) = tally.record(b.cases[0].call_plain()) {
        counters[0] = Some(keep(&b.cases[0], &r, m));
    }
    let _ = mem::reset_peak();
    let mut times = Vec::new();
    let (t0, mut pass_s) = (Instant::now(), None);
    while fits(t0, pass_s, args.seconds) || (times.is_empty() && tally.failed == 0) {
        let pass = Instant::now();
        for (i, case) in b.cases.iter_mut().enumerate() {
            if let Some((r, m, dt)) = tally.record(case.call_plain()) {
                counters[i].get_or_insert_with(|| keep(case, &r, m));
                times.push(dt);
            }
        }
        pass_s = Some(pass.elapsed().as_secs_f64());
    }
    let peak_kb = mem::peak_kb();
    let got: Vec<&(RunStats, f64)> = counters.iter().flatten().collect();
    let avg =
        |f: fn(&RunStats) -> u64| mean(&got.iter().map(|(s, _)| f(s) as f64).collect::<Vec<_>>());
    let mut notes = vec![format!(
        "setup_s: median of {} samples; run_s: median of {} calls over {} instances{}; counters and ratio: mean over instances",
        b.setup_times.len(),
        times.len(),
        b.cases.len(),
        tail_note(&times, "s")
    )];
    notes.extend(tally.first_failure.iter().map(|e| format!("first failure: {e}")));
    let metrics = vec![
        metric("setup_s", median(&b.setup_times)),
        metric("run_s", if times.is_empty() { 0.0 } else { median(&times) }),
        metric("peak_rss_mb", mem::mb(peak_kb)),
        metric("rounds", avg(|s| s.rounds)),
        metric("messages", avg(|s| s.messages)),
        metric("frames", avg(RunStats::frames)),
        metric("bits", avg(|s| s.total_bits)),
        metric("ratio", mean(&got.iter().map(|(_, r)| *r).collect::<Vec<_>>())),
        metric("ok_rate", tally.ok_rate()),
    ];
    (tally.outcome(metrics), notes)
}

/// Processor count, CPU model, kernel and compiler of this run.
fn host() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split(':').nth(1)))
        .map_or("unknown", str::trim);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!("nproc {cpus}; CPU {model}; kernel {}; {}", kernel.trim(), env!("PERFBENCH_RUSTC"))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scratch = PathBuf::from(OUT_DIR).join(format!("ckpt-{}", std::process::id()));
    let (outcome, notes) =
        if args.trace { traced::traced(&args, &scratch) } else { untraced(&args, &scratch) };
    let _ = std::fs::remove_dir_all(&scratch);
    let expected = if args.trace { &METRICS[END_TO_END..] } else { &METRICS[..END_TO_END] };
    let complete = outcome.metrics.len() == expected.len()
        && outcome.metrics.iter().zip(expected).all(|(m, (n, _, _))| m.name == *n);
    println!(
        "perfbench {} seed {} ({} s, trace {}); {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host()
    );
    for m in &outcome.metrics {
        let better = METRICS.iter().find(|(n, _, _)| *n == m.name).map_or("", |(_, _, b)| *b);
        println!("  {:<26} {:>24} {:<6} ({better} is better)", m.name, m.value, m.unit);
    }
    for n in &notes {
        println!("  note: {n}");
    }
    if !complete {
        eprintln!("perfbench: no call succeeded, so the metrics are incomplete");
        std::process::exit(1);
    }
    let line = outcome.to_json();
    if let Err(e) = Outcome::parse(&line) {
        eprintln!("perfbench: the result line does not parse back: {e}");
        std::process::exit(1);
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use summary::Json;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload stack-async-10k --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::StackAsync, 7, 2.5, true));
        assert!(!args("--workload ii-torus-1m --seed 1 --seconds 1").unwrap().trace);
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload ii-torus-1m --seed -1 --seconds 1",
            "--workload ii-torus-1m --seed 1 --seconds 0",
            "--workload ii-torus-1m --seed 1 --seconds 1 --trace 2",
            "--workload ii-torus-1m --seed 1",
            "--workload ii-torus-1m --seed 1 --seconds 1 --extra 1",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "accepted {bad}");
        }
    }

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// workloads and metrics this benchmark prints, with the same units
    /// and directions.
    #[test]
    fn benchmark_json_lists_what_is_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let j = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            j.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect()
        };
        let printed = |ms: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            ms.iter().map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), printed(&METRICS[..END_TO_END]));
        assert_eq!(listed("per_layer"), printed(&METRICS[END_TO_END..]));
        let workloads = j.get("workloads").and_then(Json::as_arr).unwrap();
        let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
        assert!(workloads.iter().all(|w| field(w, "why").len() <= 200));
        for m in j.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
    }
}
