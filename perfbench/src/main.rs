//! The repository's benchmark: three workloads over the ActiveDP system,
//! end-to-end metrics from an untraced run and a per-layer split from a
//! traced one. See `perfbench/README.md` for what each workload loads and
//! what each metric means.
//!
//! ```text
//! perfbench --workload <census_loop|imdb_protocol|hub_churn>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//!           [--work-dir <dir>]
//! ```
//!
//! Prints notes, then one JSON result line; exits 1 when a correctness
//! check fails or an operation fails, 2 on bad arguments.

mod hub;
mod loops;
mod procfs;
mod report;
mod stats;
mod sweep;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics every untraced run reports, with their units.
/// Failures are not a metric (a healthy run's fraction is exactly 0): the
/// result line's `attempted`/`failed` carry them, per phase in the notes.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("loop_s", "s"),
    ("iter_p50_ms", "ms"),
    ("iter_p90_ms", "ms"),
    ("eval_p50_ms", "ms"),
    ("test_accuracy", "fraction"),
    ("hub_ops_per_s", "1/s"),
    ("hub_step_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports, with their units. A layer
/// the traced run makes no call into on a workload reports 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("data.generate_ms", "ms"),
    ("engine.build_ms", "ms"),
    ("sampling.select_ms", "ms"),
    ("querying.query_ms", "ms"),
    ("querying.lf_yield", "ratio"),
    ("labelpick.select_ms", "ms"),
    ("labelpick.calls", "count"),
    ("labelpick.lfs_in", "count"),
    ("labelpick.selected", "count"),
    ("labelmodel.fit_ms", "ms"),
    ("labelmodel.predict_ms", "ms"),
    ("labelmodel.predict_rows", "count"),
    ("labelmodel.distinct_rows", "count"),
    ("classifier.al_fit_ms", "ms"),
    ("classifier.al_predict_ms", "ms"),
    ("classifier.al_predict_rows", "count"),
    ("inference.aggregate_ms", "ms"),
    ("inference.downstream_ms", "ms"),
    ("inference.recomputed_rows", "count"),
    ("hub.step_warm_ms", "ms"),
    ("hub.step_cold_ms", "ms"),
    ("hub.step_p99_ms", "ms"),
    ("hub.cold_step_share", "ratio"),
    ("hub.evict_ms", "ms"),
    ("hub.evaluate_ms", "ms"),
    ("hub.open_ms", "ms"),
    ("hub.evicted", "count"),
    ("hub.resumed", "count"),
    ("persist.spill_bytes", "bytes"),
    ("hub.sys_cpu_s", "s"),
    ("server.rtt_ms", "ms"),
    ("hub.run_cell_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.request_bytes", "bytes"),
    ("server.reply_bytes", "bytes"),
    ("proc.sys_cpu_s", "s"),
    ("coord.slices", "count"),
    ("coord.requeued", "count"),
    ("sweep.local_s", "s"),
    ("trace.overhead_pct", "%"),
];

const USAGE: &str = "usage: perfbench --workload <census_loop|imdb_protocol|hub_churn> \
                     --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>] [--work-dir <dir>]";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    /// Parent of the run's scratch directory.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut work_dir = PathBuf::from(".bench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
        work_dir,
    })
}

/// A directory private to this run (spill files and the like), removed
/// when the run ends.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(parent: &std::path::Path, workload: &str) -> std::io::Result<ScratchDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = parent.join(format!("{workload}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes the tracer's spans as JSON lines to `path`; a write failure
/// becomes a note, not a failed run.
pub fn write_spans(path: &std::path::Path, t: &trace::Tracer, report: &mut Report) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::File::create(path))
        .and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            t.write_jsonl(&mut out)?;
            std::io::Write::flush(&mut out)
        });
    match written {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("spans not written to {}: {e}", path.display())),
    }
}

/// Checks the run reported exactly `expected` (filling untouched per-layer
/// metrics with 0 on traced runs) and puts them in declaration order.
fn settle_metrics(report: &mut Report, expected: &[(&'static str, &'static str)], fill_zero: bool) {
    let mut ordered = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        let found: Vec<_> = report.metrics.iter().filter(|m| m.name == name).collect();
        match found.as_slice() {
            [m] => {
                assert_eq!(m.unit, unit, "{name} reported in the wrong unit");
                ordered.push((*m).clone());
            }
            [] if fill_zero => ordered.push(report::Metric {
                name,
                value: 0.0,
                unit,
            }),
            _ => {
                report.mismatches.push(format!(
                    "metric {name} reported {} times, expected once",
                    found.len()
                ));
            }
        }
    }
    if let Some(stray) = report
        .metrics
        .iter()
        .find(|m| !expected.iter().any(|&(n, _)| n == m.name))
    {
        panic!("metric {} is not declared", stray.name);
    }
    report.metrics = ordered;
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match ScratchDir::create(&args.work_dir, &args.workload) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!(
                "cannot create a scratch directory under {}: {e}",
                args.work_dir.display()
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.note(format!(
        "workload {} seed {} trace {}; {} worker thread(s) of {} available",
        args.workload,
        args.seed,
        args.trace as u8,
        adp_linalg::parallel::max_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    match args.workload.as_str() {
        "census_loop" => loops::run(loops::CENSUS_LOOP, &args, &mut report),
        "imdb_protocol" => loops::run(loops::IMDB_PROTOCOL, &args, &mut report),
        "hub_churn" => {
            hub::run(&args, &scratch, &mut report);
            if args.trace {
                sweep::trace_fleet(&args, &mut report);
            }
        }
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if args.trace {
        settle_metrics(&mut report, &PER_LAYER, true);
    } else {
        if !report.metrics.iter().any(|m| m.name == "peak_rss_mb") {
            let rss = procfs::peak_rss_mb().unwrap_or(f64::NAN);
            report.metric("peak_rss_mb", rss, "MiB");
        }
        settle_metrics(&mut report, &END_TO_END, false);
    }
    for line in &report.notes {
        println!("# {line}");
    }
    for line in report.ledger.lines() {
        println!("# {line}");
    }
    for m in &report.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    for mismatch in &report.mismatches {
        println!("# MISMATCH {mismatch}");
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric object in `section` of the JSON text,
    /// in order: the objects between the section's `[` and its `]`.
    fn declared(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let (name, rest) = entry.split_once('"').expect("name closes");
                let unit = rest
                    .split_once("\"unit\": \"")
                    .and_then(|(_, u)| u.split_once('"'))
                    .expect("unit present")
                    .0;
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn reported_metrics_match_the_benchmark_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&json, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn settling_fills_untouched_layers_and_flags_missing_metrics() {
        let mut traced = Report::default();
        traced.metric("trace.overhead_pct", 1.5, "%");
        settle_metrics(&mut traced, &PER_LAYER, true);
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert!(traced.mismatches.is_empty());
        assert_eq!(traced.metrics.last().unwrap().value, 1.5);

        let mut untraced = Report::default();
        untraced.metric("setup_s", 0.1, "s");
        settle_metrics(&mut untraced, &END_TO_END, false);
        assert_eq!(untraced.mismatches.len(), END_TO_END.len() - 1);
        assert!(!untraced.correct());
    }
}
