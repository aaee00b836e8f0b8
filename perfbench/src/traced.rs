//! The traced run: per-layer figures measured from outside, through
//! the forwarding wrappers of [`crate::trace`], plus direct calls into
//! the tail layers on a traced call's outputs.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use dam_congest::{RunStats, SinkHandle};
use dam_core::certify::certify_on;
use dam_core::checkpoint::{CheckpointStore, RestoreOutcome};
use dam_core::runtime::RunReport;
use dam_graph::BitSet;

use crate::summary::{highest_tail, median, Outcome};
use crate::trace::{CountingTopology, RoundClock, Spans, TracedAlgorithm};
use crate::workloads::{self, Workload};
use crate::{
    call, fits, mem, metric, prepare, timed, Args, Case, Tally, DIRECT_BUDGET, OUT_DIR,
    SETUP_BUDGET, SETUP_SAMPLES,
};

/// Per-layer figures of one traced call, read from its spans, the
/// round clock and the counting topology.
#[derive(Default)]
struct Layers {
    pre_s: f64,
    run_s: f64,
    main_s: f64,
    repair_s: f64,
    maintain_s: f64,
    encode_s: f64,
    boundary_s: f64,
    boundaries: usize,
    lookups: f64,
    main_mb: f64,
}

fn layers_of(spans: &Spans, run: u64) -> Layers {
    let all = spans.of_run(run);
    let total =
        |name: &str| all.iter().filter(|(_, s)| s.name == name).fold(0.0, |t, (_, s)| t + s.secs());
    let first = |name: &str| all.iter().find(|(_, s)| s.name == name).map(|(i, s)| (*i, s.start));
    let encodes: Vec<f64> =
        all.iter().filter(|(_, s)| s.name == "checkpoint.encode").map(|(_, s)| s.start).collect();
    // Maintenance is entered through `as_graph` and ends where the
    // snapshot of its boundary starts encoding.
    let maintain_s = all
        .iter()
        .rfind(|(_, s)| s.name == "as_graph")
        .and_then(|(_, mark)| {
            let end = encodes.iter().find(|&&t| t >= mark.start)?;
            spans.derived("maintain", first("run_mm")?.0, mark.start, *end);
            Some(end - mark.start)
        })
        .unwrap_or(0.0);
    // The boundary before maintenance is the one whose end is visible:
    // from its encoding to the maintenance mark.
    let boundary_s = all
        .iter()
        .rfind(|(_, s)| s.name == "as_graph")
        .and_then(|(_, mark)| {
            let start = encodes.iter().rev().find(|&&t| t <= mark.start)?;
            spans.derived("checkpoint.boundary", first("run_mm")?.0, *start, mark.start);
            Some(mark.start - start)
        })
        .unwrap_or(0.0);
    // Before the main run: trusted-domain masks and engine construction.
    let pre_s = match (first("run_mm"), first("engine.main")) {
        (Some((root, start)), Some((_, main))) => {
            spans.derived("runtime.pre", root, start, main);
            main - start
        }
        _ => 0.0,
    };
    Layers {
        pre_s,
        run_s: total("run_mm"),
        main_s: total("engine.main"),
        repair_s: total("repair"),
        maintain_s,
        encode_s: total("checkpoint.encode"),
        boundary_s,
        boundaries: encodes.len(),
        ..Layers::default()
    }
}

/// Tail-layer figures from direct calls on a traced call's outputs:
/// `[certify_s, load_s, write_s, bytes]`. The store still holds that
/// call's snapshots.
fn direct_calls(case: &Case, r: &RunReport) -> Result<[f64; 4], String> {
    let inst = &case.inst;
    let recheck = r.recheck.as_ref().ok_or("the stack run has no recheck certificate")?;
    let present = BitSet::from_bools(&case.checks.refr.node_present);
    let (t, cert) =
        timed(5, DIRECT_BUDGET, || certify_on(inst.topo.get(), &r.registers, &present, 0));
    let certify_s = median(&t);
    let cert = cert.map_err(|e| format!("certify_on: {e}"))?;
    let same = cert.verdicts == recheck.verdicts
        && cert.flagged == recheck.flagged
        && (cert.checked, cert.matched) == (recheck.checked, recheck.matched)
        && cert.detection_rounds == recheck.detection_rounds
        && cert.stats == recheck.stats;
    if !same {
        return Err("a direct certify_on call does not reproduce the report's recheck".into());
    }
    let dir = inst.checkpoint_dir().ok_or("the stack run has no checkpoint store")?;
    let bytes = workloads::snapshot_bytes(dir) as f64;
    let store = CheckpointStore::open(dir);
    let (t, loaded) = timed(5, DIRECT_BUDGET, || store.load(&*inst.algo));
    let load_s = median(&t);
    let loaded = loaded.map_err(|e| format!("checkpoint load: {e}"))?;
    if !matches!(loaded.outcome, RestoreOutcome::Clean { .. }) {
        return Err(format!("checkpoint load returned {:?}, not Clean", loaded.outcome));
    }
    let snap = loaded.snapshot.ok_or("a clean load carries a snapshot")?;
    if snap.registers != r.registers {
        return Err("the newest snapshot does not hold the final registers".into());
    }
    let copy = dir.with_extension("copy");
    let (t, written) = timed(5, DIRECT_BUDGET, || {
        let _ = std::fs::remove_dir_all(&copy);
        CheckpointStore::create(&copy).and_then(|s| s.write(&snap, &*inst.algo))
    });
    let _ = std::fs::remove_dir_all(&copy);
    written.map_err(|e| format!("checkpoint write: {e}"))?;
    Ok([certify_s, load_s, median(&t), bytes])
}

/// What a traced call leaves for the summary: its layer figures and
/// the counters the per-layer metrics report. Reports are not kept, so
/// they do not add to the memory the next calls measure.
struct TracedCall {
    layers: Layers,
    round_ms: Vec<f64>,
    msgs_per_s: f64,
    stats: RunStats,
    outstanding: u64,
    iterations: usize,
    phases: usize,
    repair_rounds: u64,
    repair_touched: usize,
    repair_added: u64,
    flagged: usize,
    cert_passes: usize,
    cert_rounds: u64,
    maintain_rounds: u64,
    maintain_added: u64,
}

/// One traced call of `case`: the same instance
/// through a traced driver, a counting topology and a round clock. Its
/// checks make its outputs equal the untraced calls'.
fn traced_call(
    case: &mut Case,
    spans: &Spans,
    run: u64,
) -> Result<(TracedCall, RunReport), String> {
    let clock = Arc::new(RoundClock::new());
    let inst = &case.inst;
    let cfg = inst.cfg.clone().stats_sink(SinkHandle::new(clock.clone()));
    let algo = TracedAlgorithm::new(&*inst.algo, spans);
    let counting = CountingTopology::new(inst.topo.get(), spans);
    spans.set_run(run);
    let (r, _, _) = call(inst, &mut case.checks, &algo, &counting, &cfg, Some(spans))?;
    let mut layers = layers_of(spans, run);
    layers.lookups = counting.lookups() as f64;
    layers.main_mb = mem::mb(algo.main_peak_kb.load(Ordering::Relaxed));
    let certs: Vec<_> = [&r.initial, &r.recheck].into_iter().flatten().collect();
    let repair_added = algo.repair_added.load(Ordering::Relaxed);
    let c = TracedCall {
        msgs_per_s: r.phase1.messages as f64 / layers.main_s,
        layers,
        round_ms: clock.round_ms(),
        stats: workloads::total_stats(&r),
        outstanding: clock.outstanding(),
        iterations: r.iterations,
        phases: r.totals.runs,
        repair_rounds: r.repair.map_or(0, |s| s.rounds),
        repair_touched: r.repair_touched,
        repair_added,
        flagged: r.initial.as_ref().map_or(0, |c| c.flagged.len()),
        cert_passes: certs.len(),
        cert_rounds: certs.iter().map(|c| c.detection_rounds).sum(),
        maintain_rounds: r.maintain.map_or(0, |s| s.rounds),
        maintain_added: (r.added as u64).saturating_sub(repair_added),
    };
    Ok((c, r))
}

/// The traced run: one warm-up call, then whole passes over the
/// instances — each an untraced and a traced call of the same instance
/// — for at most `seconds`, then direct calls into the tail layers.
/// Times are medians over traced calls; counters are those of the first
/// instance, whose seed is `--seed`.
pub fn traced(args: &Args, ckpt: &Path) -> (Outcome, Vec<String>) {
    let inputs = workloads::generate(args.workload, args.seed);
    let rss0 = mem::status_kb("VmRSS:");
    let one = workloads::build_topology(&inputs);
    let topo_mb = mem::mb(mem::status_kb("VmRSS:").saturating_sub(rss0));
    drop(one);
    let (t, _) = timed(SETUP_SAMPLES, SETUP_BUDGET, || workloads::build_topology(&inputs));
    let topo_build_s = median(&t);
    let mut b = prepare(args, ckpt);
    let mut tally = Tally::default();
    tally.record(b.cases[0].call_plain());
    let spans = Spans::new();
    let (mut plain, mut calls): (Vec<f64>, Vec<TracedCall>) = (Vec::new(), Vec::new());
    let mut last: Option<(usize, RunReport)> = None;
    let (t0, mut pass_s, mut run, mut passes) = (Instant::now(), None, 0, 0);
    while fits(t0, pass_s, args.seconds) || (calls.is_empty() && tally.failed == 0) {
        let pass = Instant::now();
        for (i, case) in b.cases.iter_mut().enumerate() {
            // Which side of the pair runs first alternates from instance
            // to instance and from pass to pass.
            let traced_first = (i + passes) % 2 == 1;
            for traced in [traced_first, !traced_first] {
                if traced {
                    run += 1;
                    if let Some((c, r)) = tally.record(traced_call(case, &spans, run)) {
                        // The stack's direct calls need the last report.
                        if args.workload == Workload::StackAsync {
                            last = Some((i, r));
                        }
                        calls.push(c);
                    }
                } else if let Some((_, _, dt)) = tally.record(case.call_plain()) {
                    plain.push(dt);
                }
            }
        }
        pass_s = Some(pass.elapsed().as_secs_f64());
        passes += 1;
    }
    // Every pass ends with the last instance, whose snapshots the store
    // still holds; both calls of an instance write the same ones.
    let direct = match &last {
        Some((i, r)) if i + 1 == b.cases.len() => {
            direct_calls(&b.cases[*i], r).map_err(|e| tally.fail_last(e)).ok()
        }
        Some(_) => {
            tally.fail_last("the last traced call is not of the last instance".into());
            None
        }
        None => None,
    };
    let mut notes = Vec::new();
    let trace_path = PathBuf::from(OUT_DIR).join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&trace_path, spans.to_jsonl()))
    {
        Ok(()) => notes.push(format!("spans written to {}", trace_path.display())),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }
    if calls.is_empty() {
        return (tally.outcome(Vec::new()), notes);
    }
    let [certify_s, load_s, write_s, ckpt_bytes] = direct.unwrap_or_default();
    let med =
        |f: fn(&Layers) -> f64| median(&calls.iter().map(|c| f(&c.layers)).collect::<Vec<_>>());
    let c = &calls[0];
    let stats = &c.stats;
    let (pre_s, main_s, repair_s, maintain_s) =
        (med(|l| l.pre_s), med(|l| l.main_s), med(|l| l.repair_s), med(|l| l.maintain_s));
    let traced_run_s = med(|l| l.run_s);
    let accounted = pre_s
        + main_s
        + repair_s
        + maintain_s
        + certify_s * c.cert_passes as f64
        + med(|l| l.boundary_s) * c.layers.boundaries as f64;
    let round_ms: Vec<f64> = calls.iter().flat_map(|c| c.round_ms.iter().copied()).collect();
    let (tail_pct, tail_ms) = highest_tail(&round_ms).unwrap_or((0, 0.0));
    notes.push(format!(
        "{} traced and {} untraced calls over {} instances; {} round gaps; \
trace.overhead base: untraced run_s {:.6} s",
        calls.len(),
        plain.len(),
        b.cases.len(),
        round_ms.len(),
        median(&plain)
    ));
    notes.extend(tally.first_failure.iter().map(|e| format!("first failure: {e}")));
    let count = |x: u64| x as f64;
    let metrics = vec![
        metric("topology.build_s", topo_build_s),
        metric("topology.lookups", med(|l| l.lookups)),
        metric("topology.mb", topo_mb),
        metric("runtime.pre_s", pre_s),
        metric("engine.main_s", main_s),
        metric("engine.round_ms_p50", if round_ms.is_empty() { 0.0 } else { median(&round_ms) }),
        metric("engine.round_ms_tail", tail_ms),
        metric("engine.round_tail_pct", f64::from(tail_pct)),
        metric("engine.round_samples", round_ms.len() as f64),
        metric(
            "engine.msgs_per_s",
            median(&calls.iter().map(|c| c.msgs_per_s).collect::<Vec<_>>()),
        ),
        metric("engine.main_mb", med(|l| l.main_mb)),
        metric("asynchrony.markers", count(stats.markers)),
        metric("transport.frames_per_msg", stats.frames() as f64 / stats.messages.max(1) as f64),
        metric("transport.retransmissions", count(stats.retransmissions)),
        metric("transport.heartbeats", count(stats.heartbeats)),
        metric("transport.suspected", count(stats.suspected)),
        metric("transport.rejected", count(stats.rejected)),
        metric("transport.quarantined", count(stats.quarantined)),
        metric("transport.outstanding", count(c.outstanding)),
        metric("driver.iterations", c.iterations as f64),
        metric("driver.phases", c.phases as f64),
        metric("repair.s", repair_s),
        metric("repair.rounds", count(c.repair_rounds)),
        metric("repair.touched", c.repair_touched as f64),
        metric("repair.added", count(c.repair_added)),
        metric("certify.s", certify_s),
        metric("certify.flagged", c.flagged as f64),
        metric("certify.rounds", count(c.cert_rounds)),
        metric("maintain.s", maintain_s),
        metric("maintain.rounds", count(c.maintain_rounds)),
        metric("maintain.added", count(c.maintain_added)),
        metric("checkpoint.encode_s", med(|l| l.encode_s)),
        metric("checkpoint.boundary_s", med(|l| l.boundary_s)),
        metric("checkpoint.write_s", write_s),
        metric("checkpoint.load_s", load_s),
        metric("checkpoint.bytes", ckpt_bytes),
        metric("trace.overhead", traced_run_s / median(&plain)),
        metric("trace.accounted", accounted / traced_run_s),
    ];
    (tally.outcome(metrics), notes)
}
