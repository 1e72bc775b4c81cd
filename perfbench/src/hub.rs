//! The `hub_churn` workload: one in-process `SessionHub` with two shards,
//! a per-run spill directory and a resident budget below the number of
//! live sessions, driven by one closed-loop client with a seeded
//! step/evict/evaluate mix. A session is closed after a fixed number of
//! steps and a fresh one opened in its place, so the per-step cost stays
//! stationary while most steps resume a spilled session.

use crate::report::Report;
use crate::stats::{mean, median, tail_at_most};
use crate::trace::Tracer;
use crate::{procfs, Args, ScratchDir};
use activedp::{Engine, ScenarioSpec, SessionConfig, StepOutcome};
use adp_data::{DatasetId, DatasetSpec, Scale};
use adp_serve::{SessionHub, SessionId};
use std::collections::HashSet;
use std::time::Instant;

const SHARDS: usize = 2;
const LIVE_SESSIONS: usize = 8;
const RESIDENT_BUDGET: usize = 3;
/// Steps after which a session is closed and replaced.
const LIFETIME_STEPS: usize = 30;
/// One cycle of the op mix: steps, evicts and evaluates 7:2:1. Each cycle
/// is shuffled by the run's seed, so every run issues the same number of
/// each op and only their order and targets vary.
const CYCLE: [Kind; 10] = [
    Kind::Step,
    Kind::Step,
    Kind::Step,
    Kind::Step,
    Kind::Step,
    Kind::Step,
    Kind::Step,
    Kind::Evict,
    Kind::Evict,
    Kind::Evaluate,
];
/// Mix operations per second of `--seconds`: the op count is fixed by the
/// flag, so a slower hub does the same work and takes longer.
const OPS_PER_SECOND: f64 = 80.0;
/// Ops per block. Each figure of the op loop is taken per block and the
/// median over blocks reported — the loop's wall as its block count times
/// the median block's wall, a latency percentile as the median of the
/// blocks' percentiles — so a burst of fsync stalls in a few blocks does
/// not move it. 200 ops hold about 140 steps, enough for a p90 with ten
/// samples beyond it.
const BLOCK_OPS: usize = 200;
/// Hub set-ups (hub start plus the initial sessions) timed per run: at
/// least `MIN_SETUPS`, and more, up to `MAX_SETUPS`, while they have taken
/// less than `SETUP_WINDOW_S` in all.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_WINDOW_S: f64 = 1.0;
/// Closed sessions replayed through a plain `Engine` to check the hub.
const CHECKED_SESSIONS: usize = 2;

fn dataset(seed: u64) -> DatasetSpec {
    DatasetSpec {
        id: DatasetId::Youtube,
        scale: Scale::Paper,
        seed,
    }
}

/// The scenario of the `n`-th session opened in a run with `seed`.
fn session_spec(seed: u64, n: u64) -> ScenarioSpec {
    ScenarioSpec {
        session: SessionConfig::paper_defaults(true, seed.wrapping_mul(1_000_003).wrapping_add(n)),
        ..ScenarioSpec::new(dataset(seed))
    }
}

/// The seeded op stream.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Step,
    Evict,
    Evaluate,
}

/// The seeded op stream: kinds from shuffled `CYCLE`s, targets uniform
/// over the live sessions.
struct Ops {
    rng: Lcg,
    cycle: [Kind; 10],
    at: usize,
}

impl Ops {
    fn new(seed: u64) -> Ops {
        Ops {
            rng: Lcg(seed ^ 0x5EED_C4A2_0000_0001),
            cycle: CYCLE,
            at: CYCLE.len(),
        }
    }

    /// The next op's kind and target slot among `live` sessions.
    fn next(&mut self, live: usize) -> (Kind, usize) {
        if self.at == self.cycle.len() {
            for i in (1..self.cycle.len()).rev() {
                let j = (self.rng.next() % (i as u64 + 1)) as usize;
                self.cycle.swap(i, j);
            }
            self.at = 0;
        }
        let kind = self.cycle[self.at];
        self.at += 1;
        (kind, (self.rng.next() % live as u64) as usize)
    }
}

struct Live {
    id: SessionId,
    n: u64,
    steps: Vec<StepOutcome>,
    /// `(iteration, test accuracy bits)` of every evaluation.
    evals: Vec<(usize, u64)>,
}

/// What the op loop measured.
#[derive(Default)]
struct Samples {
    step_ms: Vec<f64>,
    /// Steps whose session was resident, and steps that resumed it.
    warm_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    evict_ms: Vec<f64>,
    eval_ms: Vec<f64>,
    open_ms: Vec<f64>,
    accuracies: Vec<f64>,
    ops: usize,
    loop_s: f64,
    /// Wall time of every `BLOCK_OPS` consecutive ops, seconds.
    block_s: Vec<f64>,
    /// Sample counts at the end of each block.
    block_ends: Vec<BlockEnd>,
    /// Sessions closed after `LIFETIME_STEPS`, kept for the check.
    closed: Vec<Live>,
}

/// Lengths of the sample vectors when a block ended.
#[derive(Debug, Clone, Copy, Default)]
struct BlockEnd {
    steps: usize,
    cold: usize,
    evals: usize,
}

impl Samples {
    /// The loop's wall time as its block count times the median block's.
    fn robust_loop_s(&self) -> f64 {
        if self.block_s.is_empty() {
            return self.loop_s;
        }
        median(&self.block_s) * self.ops as f64 / BLOCK_OPS as f64
    }

    /// `stat` of each block's share of `samples` (whose length at each
    /// block's end `end` picks), medianed over blocks.
    fn per_block(
        &self,
        samples: &[f64],
        end: fn(&BlockEnd) -> usize,
        stat: impl Fn(&[f64]) -> f64,
    ) -> f64 {
        let mut start = 0;
        let mut per_block = Vec::with_capacity(self.block_ends.len());
        for stop in self.block_ends.iter().map(end) {
            if stop > start {
                per_block.push(stat(&samples[start..stop]));
            }
            start = stop;
        }
        if per_block.is_empty() {
            return stat(samples);
        }
        median(&per_block)
    }
}

fn open(
    hub: &SessionHub,
    seed: u64,
    n: u64,
    report: &mut Report,
    t: Option<&mut Tracer>,
) -> Option<(Live, f64)> {
    let spec = session_spec(seed, n);
    let start = Instant::now();
    let span = t.map(|t| (t.enter("hub.open"), t));
    let id = report.ledger.op("open", || hub.create_from_spec(spec));
    if let Some((s, t)) = span {
        t.exit(s);
    }
    let took = start.elapsed().as_secs_f64() * 1e3;
    id.map(|id| {
        (
            Live {
                id,
                n,
                steps: vec![],
                evals: vec![],
            },
            took,
        )
    })
}

fn start_hub(
    seed: u64,
    scratch: &ScratchDir,
    k: usize,
    report: &mut Report,
) -> Option<(SessionHub, Vec<Live>)> {
    let dir = scratch.path().join(format!("spill-{k}"));
    let hub = SessionHub::with_spill_dir(SHARDS, &dir);
    hub.set_memory_budget(Some(RESIDENT_BUDGET));
    let mut live = Vec::with_capacity(LIVE_SESSIONS);
    for n in 0..LIVE_SESSIONS as u64 {
        live.push(open(&hub, seed, n, report, None)?.0);
    }
    Some((hub, live))
}

/// Per-layer tallies of the traced run.
#[derive(Default)]
struct Tiering {
    resident: HashSet<SessionId>,
    cold: HashSet<SessionId>,
    evicted: usize,
    resumed: usize,
    spill_bytes: u64,
}

impl Tiering {
    /// Folds the hub's residency after an op into the tallies: sessions
    /// that left the resident set were spilled, ones that joined it from
    /// the cold set were resumed.
    fn observe(&mut self, hub: &SessionHub, t: &mut Tracer) {
        let bench = t.enter("bench");
        let now: HashSet<SessionId> = hub.resident_ids().into_iter().collect();
        let cold: HashSet<SessionId> = hub.cold_ids().into_iter().collect();
        for id in self.resident.difference(&now) {
            if cold.contains(id) {
                self.evicted += 1;
                let file = hub
                    .spill_dir()
                    .map(|d| d.join(format!("session-{}.adpsnap", id.raw())));
                if let Some(meta) = file.and_then(|f| std::fs::metadata(f).ok()) {
                    self.spill_bytes += meta.len();
                }
            }
        }
        self.resumed += now.intersection(&self.cold).count();
        self.resident = now;
        self.cold = cold;
        t.exit(bench);
    }
}

/// Runs the op loop; with a tracer, spans every hub call and tallies
/// tiering.
fn churn(
    hub: &SessionHub,
    mut live: Vec<Live>,
    seed: u64,
    n_ops: usize,
    report: &mut Report,
    mut trace: Option<(&mut Tracer, &mut Tiering)>,
) -> Samples {
    let mut s = Samples::default();
    let mut ops = Ops::new(seed);
    let mut next_n = LIVE_SESSIONS as u64;
    if let Some((t, tiering)) = trace.as_mut() {
        tiering.observe(hub, t);
    }
    let start = Instant::now();
    let mut block_start = Instant::now();
    for _ in 0..n_ops {
        let (kind, slot) = ops.next(live.len());
        let id = live[slot].id;
        // A step is warm when its session is resident just before it.
        let warm = (kind == Kind::Step).then(|| {
            let bench = trace.as_mut().map(|(t, _)| t.enter("bench"));
            let warm = hub.resident_ids().contains(&id);
            if let (Some((t, _)), Some(bench)) = (trace.as_mut(), bench) {
                t.exit(bench);
            }
            warm
        });
        let span = trace.as_mut().map(|(t, _)| {
            t.enter(match kind {
                Kind::Step => "hub.step",
                Kind::Evict => "hub.evict",
                Kind::Evaluate => "hub.evaluate",
            })
        });
        let op_start = Instant::now();
        let ok = match kind {
            Kind::Step => report.ledger.op("step", || hub.step(id)).map(|o| {
                live[slot].steps.push(o);
            }),
            Kind::Evict => report.ledger.op("evict", || hub.evict(id)).map(|_| ()),
            Kind::Evaluate => report.ledger.op("evaluate", || hub.evaluate(id)).map(|r| {
                let at = live[slot].steps.len();
                live[slot].evals.push((at, r.test_accuracy.to_bits()));
                s.accuracies.push(r.test_accuracy);
            }),
        };
        let took = op_start.elapsed().as_secs_f64() * 1e3;
        if let (Some((t, tiering)), Some(span)) = (trace.as_mut(), span) {
            t.exit(span);
            tiering.observe(hub, t);
        }
        match warm {
            Some(true) => s.warm_ms.push(took),
            Some(false) => s.cold_ms.push(took),
            None => {}
        }
        match kind {
            Kind::Step => s.step_ms.push(took),
            Kind::Evict => s.evict_ms.push(took),
            Kind::Evaluate => s.eval_ms.push(took),
        }
        s.ops += 1;
        if ok.is_none() {
            break;
        }
        if s.ops % BLOCK_OPS == 0 {
            s.block_s.push(block_start.elapsed().as_secs_f64());
            s.block_ends.push(BlockEnd {
                steps: s.step_ms.len(),
                cold: s.cold_ms.len(),
                evals: s.eval_ms.len(),
            });
            block_start = Instant::now();
        }
        if live[slot].steps.len() >= LIFETIME_STEPS {
            let span = trace.as_mut().map(|(t, _)| t.enter("hub.close"));
            let closed = report.ledger.op("close", || hub.close(id));
            if let (Some((t, _)), Some(span)) = (trace.as_mut(), span) {
                t.exit(span);
            }
            if closed.is_none() {
                break;
            }
            let t = trace.as_mut().map(|(t, _)| &mut **t);
            let Some((fresh, took)) = open(hub, seed, next_n, report, t) else {
                break;
            };
            s.open_ms.push(took);
            next_n += 1;
            s.closed.push(std::mem::replace(&mut live[slot], fresh));
            if let Some((t, tiering)) = trace.as_mut() {
                tiering.observe(hub, t);
            }
        }
    }
    s.loop_s = start.elapsed().as_secs_f64();
    s
}

/// Whether two steps chose the same query, got the same LF and left the
/// same LF count and selection.
fn same_step(a: &StepOutcome, b: &StepOutcome) -> bool {
    (a.query, &a.lf, a.n_lfs, a.n_selected) == (b.query, &b.lf, b.n_lfs, b.n_selected)
}

/// Replays closed sessions through a plain, never-evicted `Engine` and
/// checks the hub produced the same steps and accuracies.
fn check_closed(seed: u64, closed: &[Live], report: &mut Report) {
    let Some(data) = report
        .ledger
        .op("check", || dataset(seed).generate())
        .map(|d| d.into_shared())
    else {
        return;
    };
    for c in closed.iter().take(CHECKED_SESSIONS) {
        let spec = session_spec(seed, c.n);
        let Some(mut engine) = report
            .ledger
            .op("check", || Engine::from_spec_over(spec, data.clone()))
        else {
            return;
        };
        let mut evals = c.evals.iter().peekable();
        let mut check_evals = |engine: &Engine, at: usize, report: &mut Report| {
            while let Some(&&(when, bits)) = evals.peek() {
                if when != at {
                    break;
                }
                evals.next();
                if let Some(r) = report.ledger.op("check", || engine.evaluate_downstream()) {
                    report.check(r.test_accuracy.to_bits() == bits, || {
                        format!("hub session {} evaluated differently at step {at}", c.n)
                    });
                }
            }
        };
        check_evals(&engine, 0, report);
        for (i, hub_step) in c.steps.iter().enumerate() {
            let Some(step) = report.ledger.op("check", || engine.step()) else {
                return;
            };
            report.check(same_step(&step, hub_step), || {
                format!(
                    "hub session {} diverged from Engine::step at step {}",
                    c.n,
                    i + 1
                )
            });
            check_evals(&engine, i + 1, report);
        }
    }
    report.check(closed.len() >= CHECKED_SESSIONS, || {
        format!(
            "only {} session(s) closed; the check needs {CHECKED_SESSIONS}",
            closed.len()
        )
    });
}

pub fn run(args: &Args, scratch: &ScratchDir, report: &mut Report) {
    let n_ops = ((args.seconds * OPS_PER_SECOND).round() as usize).max(1);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut started = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_WINDOW_S)
    {
        let k = setup_s.len();
        drop(started.take()); // stop the previous hub before the next starts
        let t0 = Instant::now();
        let Some(hub) = start_hub(args.seed, scratch, k, report) else {
            return;
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        started = Some(hub);
    }
    let Some((hub, live)) = started else { return };

    if !args.trace {
        let s = churn(&hub, live, args.seed, n_ops, report, None);
        drop(hub);
        check_closed(args.seed, &s.closed, report);
        let step_p50 = s.per_block(&s.step_ms, |e| e.steps, median);
        // Steps are bimodal, warm (session resident) and cold (resumed from
        // its spill file). The pooled p90 samples the cold mode's upper
        // edge, which host bursts inflate (its spread across ten seeds
        // reached 0.35 even per block), so the tail figure is the cold
        // mode's median: the slow path every resumed step takes.
        let cold_p50 = s.per_block(&s.cold_ms, |e| e.cold, median);
        let eval_p50 = s.per_block(&s.eval_ms, |e| e.evals, median);
        report.note(format!(
            "{} ops ({} steps, {} evicts, {} evaluates, {} reopens) in {} blocks of {BLOCK_OPS}; \
             pooled step p50 {:.3} ms, p90 {:.3} ms; iter_p90 reports the cold steps' median",
            s.ops,
            s.step_ms.len(),
            s.evict_ms.len(),
            s.eval_ms.len(),
            s.open_ms.len(),
            s.block_s.len(),
            median(&s.step_ms),
            tail_at_most(&s.step_ms, 90.0).value,
        ));
        for (name, v) in [("warm", &s.warm_ms), ("cold", &s.cold_ms)] {
            report.note(format!(
                "{} {name} steps: p50 {:.3} ms, p90 {:.3} ms",
                v.len(),
                median(v),
                crate::stats::percentile(v, 90.0),
            ));
        }
        report.metric("setup_s", median(&setup_s), "s");
        let loop_s = s.robust_loop_s();
        report.metric("loop_s", loop_s, "s");
        report.metric("iter_p50_ms", step_p50, "ms");
        report.metric("iter_p90_ms", cold_p50, "ms");
        report.metric("eval_p50_ms", eval_p50, "ms");
        report.metric("test_accuracy", mean(&s.accuracies), "fraction");
        report.metric("hub_ops_per_s", s.ops as f64 / loop_s, "1/s");
        report.metric("hub_step_p50_ms", step_p50, "ms");
        return;
    }

    // Traced: the untraced op stream once more for the overhead and the
    // determinism check, generation timed on its own, then the same
    // stream on a fresh hub with a span around every hub call.
    let plain = churn(&hub, live, args.seed, n_ops, report, None);
    drop(hub);
    let t0 = Instant::now();
    let generated = report.ledger.op("setup", || dataset(args.seed).generate());
    let generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(generated);
    let Some((hub, live)) = start_hub(args.seed, scratch, setup_s.len(), report) else {
        return;
    };
    let mut t = Tracer::new();
    let mut tiering = Tiering::default();
    let sys_before = procfs::sys_cpu_s();
    let root = t.enter("loop");
    let s = churn(
        &hub,
        live,
        args.seed,
        n_ops,
        report,
        Some((&mut t, &mut tiering)),
    );
    t.exit(root);
    let sys_s = procfs::sys_cpu_s().zip(sys_before).map(|(a, b)| a - b);
    drop(hub);
    let same = s.closed.len() == plain.closed.len()
        && s.closed.iter().zip(&plain.closed).all(|(a, b)| {
            a.n == b.n
                && a.evals == b.evals
                && a.steps.len() == b.steps.len()
                && a.steps.iter().zip(&b.steps).all(|(x, y)| same_step(x, y))
        });
    report.check(same, || {
        "the traced op stream produced different sessions from the untraced one".into()
    });
    check_closed(args.seed, &s.closed, report);
    let traced_s = t.durations_ms("loop")[0] / 1e3;
    let bench_s = t
        .self_seconds_by_name()
        .get("bench")
        .copied()
        .unwrap_or(0.0);
    let overhead = traced_s / plain.loop_s - 1.0;
    report.note(format!(
        "untraced loop {:.3} s, traced loop {traced_s:.3} s (tracing overhead {:+.2}%, of \
         which benchmark-side residency checks {bench_s:.3} s); {} ops, {} warm and {} cold steps",
        plain.loop_s,
        overhead * 100.0,
        s.ops,
        s.warm_ms.len(),
        s.cold_ms.len()
    ));
    for name in [
        "hub.step",
        "hub.evict",
        "hub.evaluate",
        "hub.open",
        "hub.close",
    ] {
        report.note(format!(
            "share {name}: {:.1}% of the traced loop",
            t.self_ms(name) / 1e3 / traced_s * 100.0
        ));
    }
    if let Some(out) = &args.trace_out {
        crate::write_spans(out, &t, report);
    }
    let steps = (s.warm_ms.len() + s.cold_ms.len()).max(1) as f64;
    report.metric("data.generate_ms", generate_ms, "ms");
    report.metric("hub.step_warm_ms", median(&s.warm_ms), "ms");
    report.metric("hub.step_cold_ms", median(&s.cold_ms), "ms");
    // The step tail is read from the untraced op stream.
    let tail = tail_at_most(&plain.step_ms, 99.0);
    report.note(format!(
        "hub.step_p99_ms reads p{} of {} untraced steps",
        tail.percentile, tail.n
    ));
    report.metric("hub.step_p99_ms", tail.value, "ms");
    report.metric(
        "hub.cold_step_share",
        s.cold_ms.len() as f64 / steps,
        "ratio",
    );
    report.metric("hub.evict_ms", median(&t.durations_ms("hub.evict")), "ms");
    report.metric(
        "hub.evaluate_ms",
        median(&t.durations_ms("hub.evaluate")),
        "ms",
    );
    report.metric("hub.open_ms", median(&t.durations_ms("hub.open")), "ms");
    report.metric("hub.evicted", tiering.evicted as f64, "count");
    report.metric("hub.resumed", tiering.resumed as f64, "count");
    report.metric("persist.spill_bytes", tiering.spill_bytes as f64, "bytes");
    report.metric("hub.sys_cpu_s", sys_s.unwrap_or(f64::NAN), "s");
    report.metric("trace.overhead_pct", overhead * 100.0, "%");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_block_figures_are_medians_over_blocks() {
        let s = Samples {
            step_ms: vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0, 5.0, 6.0, 7.0, 99.0],
            block_ends: [3, 6, 9]
                .map(|steps| BlockEnd {
                    steps,
                    ..BlockEnd::default()
                })
                .to_vec(),
            ..Samples::default()
        };
        // Block medians 2, 20 and 6; the trailing partial block is left out.
        assert_eq!(s.per_block(&s.step_ms, |e| e.steps, median), 6.0);
        let none = Samples::default();
        assert_eq!(none.per_block(&[4.0, 8.0], |e| e.steps, median), 6.0);
    }

    #[test]
    fn every_cycle_issues_the_mix_exactly() {
        let mut ops = Ops::new(7);
        let mut counts = [0usize; 3];
        for _ in 0..10 * CYCLE.len() {
            let (kind, slot) = ops.next(LIVE_SESSIONS);
            assert!(slot < LIVE_SESSIONS);
            counts[kind as usize] += 1;
        }
        assert_eq!(counts, [70, 20, 10]);
    }
}
