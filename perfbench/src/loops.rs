//! The `census_loop` and `imdb_protocol` workloads: labelling sessions
//! stepped through `Engine::step` at paper scale, evaluated with
//! `Engine::evaluate_downstream` every `eval_every` iterations.
//!
//! The traced run replays the first session through the layers' public
//! calls — `SamplingStage::select`, `QueryingStage::query`,
//! `LabelPick::select`, `LabelModel::fit`, `predict_all_with`,
//! `LogisticRegression::fit`/`predict_proba_all`, then ConFusion and the
//! downstream classifier — with a span around each, and checks that the
//! replica reproduces the engine's trajectory, state and accuracies bit
//! for bit.

use crate::report::{Ledger, Report};
use crate::stats::{mean, median, tail_at_most};
use crate::trace::Tracer;
use crate::{procfs, Args};
use activedp::engine::{QueryingStage, SamplingStage};
use activedp::{
    aggregate, tune_threshold, ActiveDpError, Engine, LabelPick, LabelPickConfig, ScenarioSpec,
    SessionConfig, SessionState, StepOutcome,
};
use adp_classifier::{LogRegConfig, LogisticRegression, Targets};
use adp_data::{DatasetId, DatasetSpec, Scale, SharedDataset};
use adp_labelmodel::{make_model_with, predict_all_with, LabelModel, MIN_PARALLEL_PREDICT};
use adp_lf::{LabelFunction, LabelMatrix};
use adp_linalg::{parallel, Execution, Features};
use std::collections::HashSet;
use std::time::Instant;

/// One loop workload.
#[derive(Debug, Clone, Copy)]
pub struct LoopPlan {
    pub dataset: DatasetId,
    /// Iterations per session.
    pub iters: usize,
    /// Evaluate after every `eval_every`-th iteration.
    pub eval_every: usize,
    /// `--seconds` per session: a run of `--seconds s` does
    /// `round(s / seconds_per_session)` sessions (at least one), a count
    /// fixed by the flag so a slower program does the same work.
    pub seconds_per_session: f64,
    /// The central step latency reported as `iter_p50_ms`.
    pub step_center: fn(&[f64]) -> f64,
}

/// LabelPick-heavy: the paper's one-query-per-refit loop on Census, one
/// evaluation at the end of each session. Its step latencies are bimodal:
/// LabelPick's cost climbs from query 30 (`min_queries`) until the LF set
/// reaches its cap of 64, then levels off, and the median step sits on
/// that climb, jumping between the modes from one trajectory to the next
/// (its spread across ten seeds was 0.18–0.29). The mean step latency is
/// reported in its place.
pub const CENSUS_LOOP: LoopPlan = LoopPlan {
    dataset: DatasetId::Census,
    iters: 100,
    eval_every: 100,
    seconds_per_session: 8.5,
    step_center: mean,
};

/// Evaluation-heavy: IMDB under the paper's protocol, evaluated every ten
/// iterations.
pub const IMDB_PROTOCOL: LoopPlan = LoopPlan {
    dataset: DatasetId::Imdb,
    iters: 50,
    eval_every: 10,
    seconds_per_session: 4.2,
    step_center: median,
};

/// Set-ups (dataset generation + engine build) timed per run: every
/// session's own, then repeats of the first session's until there are at
/// least `MIN_SETUPS`, or more, up to `MAX_SETUPS`, while they have taken
/// less than `SETUP_WINDOW_S` in all — a fast set-up is still timed over
/// enough repetitions for a steady median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_WINDOW_S: f64 = 1.0;

/// The scenario of session `k` of a run with `seed`: the paper's
/// configuration over a split of its own, so a run's sessions average over
/// datasets as well as over sampler and oracle draws.
fn spec(plan: LoopPlan, seed: u64, k: u64) -> ScenarioSpec {
    let dataset = DatasetSpec {
        id: plan.dataset,
        scale: Scale::Paper,
        seed: seed ^ (k << 32),
    };
    ScenarioSpec::paper(dataset, seed.wrapping_mul(0x9E37_79B9).wrapping_add(k))
}

/// What a session did, compared field by field between engine and replica.
#[derive(Debug, Clone, PartialEq)]
struct StepRecord {
    query: Option<usize>,
    lf: Option<LabelFunction>,
    n_lfs: usize,
    n_selected: usize,
}

impl From<StepOutcome> for StepRecord {
    fn from(o: StepOutcome) -> StepRecord {
        StepRecord {
            query: o.query,
            lf: o.lf,
            n_lfs: o.n_lfs,
            n_selected: o.n_selected,
        }
    }
}

#[derive(Debug, Default)]
struct Trajectory {
    steps: Vec<StepRecord>,
    /// Test accuracy bits of every evaluation, in order.
    evals: Vec<u64>,
    state: Option<SessionState>,
}

/// One timed session.
#[derive(Debug, Default)]
struct SessionRun {
    traj: Trajectory,
    loop_s: f64,
    step_ms: Vec<f64>,
    eval_ms: Vec<f64>,
}

impl SessionRun {
    fn final_accuracy(&self) -> Option<f64> {
        self.traj.evals.last().map(|&bits| f64::from_bits(bits))
    }
}

/// Set-up timings of one run.
#[derive(Default)]
struct SetupTimes {
    generate_ms: Vec<f64>,
    build_ms: Vec<f64>,
    setup_s: Vec<f64>,
}

impl SetupTimes {
    /// Generates session `k`'s split and builds its engine, timing both.
    fn set_up(
        &mut self,
        plan: LoopPlan,
        seed: u64,
        k: u64,
        ledger: &mut Ledger,
    ) -> Option<(SharedDataset, Engine)> {
        let spec = spec(plan, seed, k);
        let t0 = Instant::now();
        let data = ledger
            .op("setup", || spec.dataset.generate())?
            .into_shared();
        let t1 = Instant::now();
        let engine = ledger.op("setup", || Engine::from_spec_over(spec, data.clone()))?;
        let t2 = Instant::now();
        self.generate_ms.push((t1 - t0).as_secs_f64() * 1e3);
        self.build_ms.push((t2 - t1).as_secs_f64() * 1e3);
        self.setup_s.push((t2 - t0).as_secs_f64());
        Some((data, engine))
    }

    /// Repeats session 0's set-up until the sample is large enough.
    fn top_up(&mut self, plan: LoopPlan, seed: u64, ledger: &mut Ledger) {
        while self.setup_s.len() < MIN_SETUPS
            || (self.setup_s.len() < MAX_SETUPS
                && self.setup_s.iter().sum::<f64>() < SETUP_WINDOW_S)
        {
            if self.set_up(plan, seed, 0, ledger).is_none() {
                return;
            }
        }
    }
}

fn run_engine(plan: LoopPlan, engine: &mut Engine, ledger: &mut Ledger) -> SessionRun {
    let mut run = SessionRun::default();
    let start = Instant::now();
    for i in 1..=plan.iters {
        let (outcome, took) = ledger.timed("step", || engine.step());
        run.step_ms.push(took.as_secs_f64() * 1e3);
        let Some(outcome) = outcome else { break };
        run.traj.steps.push(outcome.into());
        if i % plan.eval_every == 0 {
            let (report, took) = ledger.timed("evaluate", || engine.evaluate_downstream());
            run.eval_ms.push(took.as_secs_f64() * 1e3);
            let Some(report) = report else { break };
            run.traj.evals.push(report.test_accuracy.to_bits());
        }
    }
    run.loop_s = start.elapsed().as_secs_f64();
    run.traj.state = Some(engine.state().clone());
    run
}

/// Runs the workload and fills `report`.
pub fn run(plan: LoopPlan, args: &Args, report: &mut Report) {
    if args.trace {
        traced(plan, args, report);
    } else {
        untraced(plan, args, report);
    }
}

fn untraced(plan: LoopPlan, args: &Args, report: &mut Report) {
    let n_sessions = ((args.seconds / plan.seconds_per_session).round() as u64).max(1);
    let mut times = SetupTimes::default();
    let mut sessions: Vec<SessionRun> = Vec::new();
    for k in 0..n_sessions {
        let Some((data, mut engine)) = times.set_up(plan, args.seed, k, &mut report.ledger) else {
            return;
        };
        let run = run_engine(plan, &mut engine, &mut report.ledger);
        if k == 0 {
            // One session's footprint: later sessions only add allocator
            // churn from splits generated and dropped in the same process.
            let rss = procfs::peak_rss_mb().unwrap_or(f64::NAN);
            report.metric("peak_rss_mb", rss, "MiB");
        }
        drop((engine, data));
        let complete = run.traj.steps.len() == plan.iters;
        sessions.push(run);
        if !complete {
            return;
        }
    }
    times.top_up(plan, args.seed, &mut report.ledger);
    let step_ms: Vec<f64> = sessions.iter().flat_map(|s| s.step_ms.clone()).collect();
    let eval_ms: Vec<f64> = sessions.iter().flat_map(|s| s.eval_ms.clone()).collect();
    let loop_s: Vec<f64> = sessions.iter().map(|s| s.loop_s).collect();
    let accuracies: Vec<f64> = sessions.iter().filter_map(|s| s.final_accuracy()).collect();
    let ops = (step_ms.len() + eval_ms.len()) as f64;
    let p90 = tail_at_most(&step_ms, 90.0);
    report.note(format!(
        "{} session(s) of {} iterations; {} step samples (iter_p90 reads p{}); {} evaluation \
         samples",
        sessions.len(),
        plan.iters,
        step_ms.len(),
        p90.percentile,
        eval_ms.len()
    ));
    report.metric("setup_s", median(&times.setup_s), "s");
    report.metric("loop_s", median(&loop_s), "s");
    let center = (plan.step_center)(&step_ms);
    report.metric("iter_p50_ms", center, "ms");
    report.metric("iter_p90_ms", p90.value, "ms");
    report.metric("eval_p50_ms", median(&eval_ms), "ms");
    report.metric("test_accuracy", mean(&accuracies), "fraction");
    report.metric("hub_ops_per_s", ops / loop_s.iter().sum::<f64>(), "1/s");
    report.metric("hub_step_p50_ms", center, "ms");
}

fn traced(plan: LoopPlan, args: &Args, report: &mut Report) {
    let mut times = SetupTimes::default();
    let Some((data, mut engine)) = times.set_up(plan, args.seed, 0, &mut report.ledger) else {
        return;
    };
    let reference = run_engine(plan, &mut engine, &mut report.ledger);
    drop(engine);

    let mut t = Tracer::new();
    let sys_before = procfs::sys_cpu_s();
    let root = t.enter("loop");
    let spec0 = spec(plan, args.seed, 0);
    let mut replica = t.span("engine.build", || {
        Replica::build(spec0.session.clone(), data)
    });
    let mut replica_run = Trajectory::default();
    for i in 1..=plan.iters {
        let span = t.enter("loop.step");
        let step = report.ledger.op("step", || replica.step_traced(&mut t));
        t.exit(span);
        let Some(step) = step else { break };
        replica_run.steps.push(step);
        if i % plan.eval_every == 0 {
            let Some(acc) = report
                .ledger
                .op("evaluate", || replica.evaluate_traced(&mut t))
            else {
                break;
            };
            replica_run.evals.push(acc.to_bits());
        }
    }
    t.exit(root);
    let sys_s = procfs::sys_cpu_s().zip(sys_before).map(|(a, b)| a - b);
    let traced_s = t.durations_ms("loop")[0] / 1e3;
    replica_run.state = Some(replica.state.clone());

    report.check(replica_run.steps == reference.traj.steps, || {
        let at = replica_run
            .steps
            .iter()
            .zip(&reference.traj.steps)
            .position(|(a, b)| a != b)
            .unwrap_or(replica_run.steps.len().min(reference.traj.steps.len()));
        format!(
            "traced replica's trajectory diverges from Engine::step at iteration {}",
            at + 1
        )
    });
    report.check(replica_run.evals == reference.traj.evals, || {
        format!(
            "traced replica's test accuracies {:?} differ from the engine's {:?}",
            replica_run
                .evals
                .iter()
                .map(|&b| f64::from_bits(b))
                .collect::<Vec<_>>(),
            reference
                .traj
                .evals
                .iter()
                .map(|&b| f64::from_bits(b))
                .collect::<Vec<_>>()
        )
    });
    report.check(replica_run.state == reference.traj.state, || {
        "traced replica's final session state differs from the engine's".into()
    });

    let layers = [
        ("engine.build", "engine.build_ms"),
        ("sampling.select", "sampling.select_ms"),
        ("querying.query", "querying.query_ms"),
        ("labelpick.select", "labelpick.select_ms"),
        ("labelmodel.fit", "labelmodel.fit_ms"),
        ("labelmodel.predict", "labelmodel.predict_ms"),
        ("classifier.al_fit", "classifier.al_fit_ms"),
        ("classifier.al_predict", "classifier.al_predict_ms"),
        ("inference.aggregate", "inference.aggregate_ms"),
        ("inference.downstream", "inference.downstream_ms"),
    ];
    let by_name = t.self_seconds_by_name();
    let layer_s: f64 = layers
        .iter()
        .filter_map(|(span, _)| by_name.get(span))
        .sum();
    let bench_s = by_name.get("bench").copied().unwrap_or(0.0);
    let overhead = traced_s / reference.loop_s - 1.0;
    report.note(format!(
        "untraced loop {:.3} s, traced loop {:.3} s (tracing overhead {:+.2}%, of which \
         benchmark-side counting {:.3} s); layer self times cover {:.2}% of the traced loop, \
         {:.3} s unattributed",
        reference.loop_s,
        traced_s,
        overhead * 100.0,
        bench_s,
        layer_s / traced_s * 100.0,
        traced_s - layer_s - bench_s
    ));
    for (span, _) in &layers {
        let s = by_name.get(span).copied().unwrap_or(0.0);
        report.note(format!(
            "share {span}: {:.1}% of the traced loop ({:.1} ms)",
            s / traced_s * 100.0,
            s * 1e3
        ));
    }
    if let Some(out) = &args.trace_out {
        crate::write_spans(out, &t, report);
    }

    let (queries, lfs) = (
        replica.state.iteration as f64,
        replica.state.lfs.len() as f64,
    );
    drop(replica);
    times.top_up(plan, args.seed, &mut report.ledger);
    report.metric("data.generate_ms", median(&times.generate_ms), "ms");
    for (span, metric) in layers {
        let value = if span == "engine.build" {
            median(&times.build_ms)
        } else {
            by_name.get(span).copied().unwrap_or(0.0) * 1e3
        };
        report.metric(metric, value, "ms");
    }
    report.metric("querying.lf_yield", lfs / queries.max(1.0), "ratio");
    for name in [
        "labelpick.calls",
        "labelpick.lfs_in",
        "labelpick.selected",
        "labelmodel.predict_rows",
        "labelmodel.distinct_rows",
        "classifier.al_predict_rows",
        "inference.recomputed_rows",
    ] {
        report.metric(name, t.counter(name), "count");
    }
    report.metric("proc.sys_cpu_s", sys_s.unwrap_or(f64::NAN), "s");
    report.metric("trace.overhead_pct", overhead * 100.0, "%");
}

/// How many distinct vote patterns (rows) `matrix` holds.
pub fn distinct_rows(matrix: &LabelMatrix) -> usize {
    (0..matrix.n_instances())
        .map(|i| matrix.row(i))
        .collect::<HashSet<&[i8]>>()
        .len()
}

/// The engine's loop rebuilt from its stages' and layers' public parts.
struct Replica {
    data: SharedDataset,
    config: SessionConfig,
    state: SessionState,
    sampling: SamplingStage,
    querying: QueryingStage,
    labelpick: LabelPick,
    label_model: Box<dyn LabelModel>,
    al_model: LogisticRegression,
    class_balance: Vec<f64>,
}

/// `config`'s logistic-regression settings under the session's parallel
/// switch, as the engine applies it.
fn under_switch(logreg: LogRegConfig, parallel: bool) -> LogRegConfig {
    LogRegConfig {
        parallel: logreg.parallel && parallel,
        ..logreg
    }
}

impl Replica {
    fn build(config: SessionConfig, data: SharedDataset) -> Replica {
        let n_classes = data.train.n_classes;
        let labelpick = LabelPick::new(LabelPickConfig {
            parallel: config.labelpick.parallel && config.parallel,
            ..config.labelpick
        });
        Replica {
            state: SessionState::new(&data),
            sampling: SamplingStage::from_config(&config),
            querying: QueryingStage::new(&data, config.build_oracle()),
            labelpick,
            label_model: make_model_with(config.label_model, n_classes, config.parallel),
            al_model: LogisticRegression::new(
                n_classes,
                Features::ncols(&data.train.features),
                under_switch(config.al_logreg, config.parallel),
            ),
            class_balance: data.valid.class_balance(),
            config,
            data,
        }
    }

    fn step_traced(&mut self, t: &mut Tracer) -> Result<StepRecord, ActiveDpError> {
        self.state.iteration += 1;
        let (data, state) = (&self.data, &mut self.state);
        let (sampling, querying) = (&mut self.sampling, &mut self.querying);
        let query = t.span("sampling.select", || {
            sampling.select(data, querying.space(), state, None)
        });
        let Some(query) = query else {
            return Ok(self.record(None, None));
        };
        let hint = state.al_probs_train.as_ref().map(|probs| {
            1.0 - probs[query]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        });
        let (lf, _route) = t.span("querying.query", || {
            querying.query(data, state, query, hint)
        })?;
        if lf.is_some() {
            self.refit_traced(t)?;
        }
        Ok(self.record(Some(query), lf))
    }

    fn record(&self, query: Option<usize>, lf: Option<LabelFunction>) -> StepRecord {
        StepRecord {
            query,
            lf,
            n_lfs: self.state.lfs.len(),
            n_selected: self.state.selected.len(),
        }
    }

    fn refit_traced(&mut self, t: &mut Tracer) -> Result<(), ActiveDpError> {
        let (data, state) = (&self.data, &mut self.state);
        let n_classes = data.train.n_classes;
        let labelpick = &self.labelpick;
        let selected = t.span("labelpick.select", || {
            let query_matrix = state.query_votes_matrix(data)?;
            labelpick.select(
                &query_matrix,
                &state.pseudo_labels,
                &state.valid_matrix,
                &data.valid.labels,
                n_classes,
            )
        })?;
        t.count("labelpick.calls", 1.0);
        t.count("labelpick.lfs_in", state.lfs.len() as f64);
        t.count("labelpick.selected", selected.len() as f64);
        state.selected = selected;

        if state.selected.is_empty() {
            state.lm_probs_train = None;
        } else {
            let (model, balance) = (&mut self.label_model, &self.class_balance);
            let selected_train = t.span("labelmodel.fit", || {
                let m = state.train_matrix.select_columns(&state.selected)?;
                model.fit(&m, Some(balance))?;
                Ok::<_, ActiveDpError>(m)
            })?;
            let exec = if self.config.parallel {
                parallel::auto(selected_train.n_instances(), MIN_PARALLEL_PREDICT)
            } else {
                Execution::Serial
            };
            let probs = t.span("labelmodel.predict", || {
                predict_all_with(model.as_ref(), &selected_train, exec)
            });
            count_predict(t, &selected_train);
            state.lm_probs_train = Some(probs);
        }

        if state.query_indices.is_empty() {
            state.al_probs_train = None;
        } else {
            let al = &mut self.al_model;
            t.span("classifier.al_fit", || {
                al.fit(
                    &data.train.features,
                    &state.query_indices,
                    Targets::Hard(&state.pseudo_labels),
                    None,
                )
            })?;
            let probs = t.span("classifier.al_predict", || {
                al.predict_proba_all(&data.train.features)
            });
            t.count("classifier.al_predict_rows", probs.len() as f64);
            state.al_probs_train = Some(probs);
        }
        Ok(())
    }

    /// `TrainingStage::lm_probs_for`: one posterior per row of `matrix`
    /// over the selected columns, or the uniform prior.
    fn lm_probs_for(&self, matrix: &LabelMatrix) -> Vec<Vec<f64>> {
        let n_classes = self.data.train.n_classes;
        let uniform = vec![1.0 / n_classes as f64; n_classes];
        let selected = &self.state.selected;
        (0..matrix.n_instances())
            .map(|i| {
                if selected.is_empty() {
                    uniform.clone()
                } else {
                    let votes: Vec<i8> = selected.iter().map(|&j| matrix.get(i, j)).collect();
                    self.label_model.predict_proba(&votes)
                }
            })
            .collect()
    }

    /// `TrainingStage::al_probs_for`.
    fn al_probs_for(&self, features: &adp_data::FeatureSet) -> Vec<Vec<f64>> {
        let n_classes = self.data.train.n_classes;
        if self.state.query_indices.is_empty() {
            return vec![vec![1.0 / n_classes as f64; n_classes]; Features::nrows(features)];
        }
        self.al_model.predict_proba_all(features)
    }

    /// `Engine::evaluate_downstream` from public parts; returns the test
    /// accuracy.
    fn evaluate_traced(&self, t: &mut Tracer) -> Result<f64, ActiveDpError> {
        assert!(
            self.config.use_confusion,
            "the loop workloads run the paper's ConFusion configuration"
        );
        let (data, state) = (&self.data, &self.state);
        let n_train = data.train.len() as f64;
        let agg_span = t.enter("inference.aggregate");
        let lm_train = t.span("labelmodel.predict", || {
            self.lm_probs_for(&state.train_matrix)
        });
        let has_vote_train = state.has_vote_for(&state.train_matrix);
        let al_train = t.span("classifier.al_predict", || {
            self.al_probs_for(&data.train.features)
        });
        let al_valid = t.span("classifier.al_predict", || {
            self.al_probs_for(&data.valid.features)
        });
        let lm_valid = t.span("labelmodel.predict", || {
            self.lm_probs_for(&state.valid_matrix)
        });
        let has_vote_valid = state.has_vote_for(&state.valid_matrix);
        let tau = tune_threshold(&al_valid, &lm_valid, &has_vote_valid, &data.valid.labels);
        let labels = aggregate(&al_train, &lm_train, &has_vote_train, tau);
        t.exit(agg_span);

        if !state.selected.is_empty() {
            let bench = t.enter("bench");
            for matrix in [&state.train_matrix, &state.valid_matrix] {
                let selected = matrix.select_columns(&state.selected)?;
                count_predict(t, &selected);
            }
            t.exit(bench);
        }
        if !state.query_indices.is_empty() {
            let rows = (data.train.len() + data.valid.len()) as f64;
            t.count("classifier.al_predict_rows", rows);
        }
        // Train-pool rows recomputed although the last refit cached them.
        let cached = [
            state.lm_probs_train.is_some(),
            state.al_probs_train.is_some(),
        ];
        let recomputed = cached.iter().filter(|&&c| c).count() as f64 * n_train;
        t.count("inference.recomputed_rows", recomputed);

        t.span("inference.downstream", || {
            let rows: Vec<usize> = labels
                .iter()
                .enumerate()
                .filter_map(|(i, l)| l.is_some().then_some(i))
                .collect();
            let preds: Vec<usize> = if rows.is_empty() {
                vec![0; data.test.len()]
            } else {
                let targets: Vec<Vec<f64>> = rows
                    .iter()
                    .map(|&i| labels[i].clone().expect("row filtered as covered"))
                    .collect();
                let mut downstream = LogisticRegression::new(
                    data.train.n_classes,
                    Features::ncols(&data.train.features),
                    under_switch(self.config.downstream_logreg, self.config.parallel),
                );
                downstream.fit(&data.train.features, &rows, Targets::Soft(&targets), None)?;
                (0..data.test.len())
                    .map(|i| downstream.predict(&data.test.features, i))
                    .collect()
            };
            Ok(adp_classifier::accuracy(&preds, &data.test.labels))
        })
    }
}

/// Counts one label-model prediction pass over `matrix`: its rows and its
/// distinct vote patterns.
fn count_predict(t: &mut Tracer, matrix: &LabelMatrix) {
    let bench = t.enter("bench");
    let distinct = distinct_rows(matrix);
    t.exit(bench);
    t.count("labelmodel.predict_rows", matrix.n_instances() as f64);
    t.count("labelmodel.distinct_rows", distinct as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_rows_counts_vote_patterns() {
        let m = LabelMatrix::from_votes(&[
            vec![1, -1, 0],
            vec![1, -1, 0],
            vec![-1, -1, -1],
            vec![0, -1, 0],
            vec![-1, -1, -1],
        ])
        .unwrap();
        assert_eq!(distinct_rows(&m), 3);
        assert_eq!(distinct_rows(&LabelMatrix::empty(0)), 0);
        // No LF columns: every row is the same (empty) pattern.
        assert_eq!(distinct_rows(&LabelMatrix::empty(4)), 1);
    }

    #[test]
    fn replica_matches_engine_on_a_tiny_split() {
        let plan = LoopPlan {
            dataset: DatasetId::Youtube,
            iters: 12,
            eval_every: 4,
            seconds_per_session: 1.0,
            step_center: median,
        };
        let mut spec = spec(plan, 3, 0);
        spec.dataset.scale = Scale::Tiny;
        let data = spec.dataset.generate().unwrap().into_shared();
        let mut engine = Engine::from_spec_over(spec.clone(), data.clone()).unwrap();
        let mut ledger = Ledger::default();
        let reference = run_engine(plan, &mut engine, &mut ledger);

        let mut replica = Replica::build(spec.session, data);
        let mut t = Tracer::new();
        let mut evals = vec![];
        for i in 1..=plan.iters {
            let step = replica.step_traced(&mut t).unwrap();
            assert_eq!(step, reference.traj.steps[i - 1], "iteration {i}");
            if i % plan.eval_every == 0 {
                evals.push(replica.evaluate_traced(&mut t).unwrap().to_bits());
            }
        }
        assert_eq!(evals, reference.traj.evals);
        assert_eq!(Some(replica.state), reference.traj.state);
        assert_eq!(ledger.failed(), 0);
        assert!(t.counter("labelpick.calls") > 0.0);
        assert!(t.counter("labelmodel.distinct_rows") <= t.counter("labelmodel.predict_rows"));
    }
}
