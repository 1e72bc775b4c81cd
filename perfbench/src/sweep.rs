//! The serving layer's figures, taken in the traced `hub_churn` run: two
//! in-process `adp-served` workers (`Server::bind_with_timeout` on
//! `127.0.0.1:0`) and `run_distributed` with the default `CoordOpts` over
//! {US, ADP} × {Triplet, DawidSkene} × k=4 on Youtube at paper scale,
//! budget 48. The fleet's merged rows are checked against `run_grid_jobs`
//! on the same grid.
//!
//! The sweep is not a workload of its own: its wall time is mostly system
//! CPU spent writing replies fragment by fragment onto loopback sockets,
//! and on a shared 2-CPU host that figure moved by up to 0.6 of its median
//! between runs of the same code (see `README.md`), more than any bound
//! may allow. Its layers are therefore measured here, without a bound.
//!
//! The coordinator's slices are replayed from outside: each slice goes
//! once through `Client::run_spec_batches` / `resume_spec_batches` (the
//! round trip) and once through `SessionHub::run_cell` (the same work
//! without the server), so their difference is the serving overhead.

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{procfs, Args};
use activedp::{CandidateStrategy, LabelModelKind, SamplerChoice, ScenarioSpec, SessionSnapshot};
use adp_data::{DatasetId, DriftSpec, Scale};
use adp_experiments::coord::{run_distributed, CoordOpts};
use adp_experiments::sweep::{run_grid_jobs, SweepGrid, SweepRow};
use adp_serve::{
    scenario_to_json, CellProgress, CellProgressReply, CellStart, Client, Json, Server, SessionHub,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Worker read timeout: explicit, so the environment cannot change it.
const READ_TIMEOUT: Duration = Duration::from_secs(120);
/// Cells whose slices are replayed: one per sampler and per label model,
/// half the grid, to keep the traced `hub_churn` run short.
const REPLAYED_CELLS: [u64; 2] = [0, 3];

fn grid(seed: u64) -> SweepGrid {
    SweepGrid {
        datasets: vec![DatasetId::Youtube],
        scale: Scale::Paper,
        data_seed: seed,
        samplers: vec![SamplerChoice::Uncertainty, SamplerChoice::Adp],
        label_models: vec![LabelModelKind::Triplet, LabelModelKind::DawidSkene],
        ks: vec![4],
        budget: 48,
        seeds: vec![seed],
        candidates: CandidateStrategy::Exact,
        oracles: vec![activedp::OracleKind::Simulated],
        drifts: vec![DriftSpec::None],
    }
}

struct Fleet {
    servers: Vec<Server>,
}

impl Fleet {
    fn start() -> std::io::Result<Fleet> {
        let servers = (0..WORKERS)
            .map(|_| {
                Server::bind_with_timeout(
                    "127.0.0.1:0",
                    Arc::new(SessionHub::in_memory(1)),
                    Some(READ_TIMEOUT),
                )
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Fleet { servers })
    }

    fn addrs(&self) -> Vec<String> {
        self.servers.iter().map(|s| s.addr().to_string()).collect()
    }
}

/// The deterministic columns of a row, compared across backends.
fn key(row: &SweepRow) -> (u64, usize, usize, u64, u64, u64, u64) {
    (
        row.cell,
        row.iterations,
        row.refits,
        row.test_accuracy.to_bits(),
        row.cheap_fraction.to_bits(),
        row.routed_cost.to_bits(),
        row.recovery.to_bits(),
    )
}

fn same_rows(a: &[SweepRow], b: &[SweepRow]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| key(x) == key(y))
}

/// Runs the grid through the fleet; returns its rows, wall seconds and
/// requeue count.
fn distributed(
    grid: &SweepGrid,
    fleet: &Fleet,
    report: &mut Report,
) -> Option<(Vec<SweepRow>, f64, usize)> {
    let start = Instant::now();
    let out = report.ledger.op("sweep", || {
        run_distributed(grid, &fleet.addrs(), &CoordOpts::default())
    })?;
    let wall = start.elapsed().as_secs_f64();
    for failure in &out.outcome.failures {
        report.ledger.op("cell", || {
            Err::<(), _>(format!("cell {} failed: {}", failure.cell, failure.error))
        });
    }
    Some((out.outcome.rows, wall, out.requeued))
}

fn local(grid: &SweepGrid, report: &mut Report) -> (Vec<SweepRow>, f64) {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let start = Instant::now();
    let out = run_grid_jobs(grid, jobs);
    let wall = start.elapsed().as_secs_f64();
    for failure in &out.failures {
        report.ledger.op("local", || {
            Err::<(), _>(format!("cell {} failed: {}", failure.cell, failure.error))
        });
    }
    (out.rows, wall)
}

/// Run-spec requests a grid costs under the default checkpoint cadence:
/// one slice per `checkpoint_batches` schedule batches of every cell.
fn slices_per_sweep(grid: &SweepGrid) -> usize {
    let cap = CoordOpts::default().checkpoint_batches.max(1) as usize;
    grid.cells()
        .iter()
        .map(|c| {
            c.spec
                .schedule
                .n_batches(c.spec.budget)
                .div_ceil(cap)
                .max(1)
        })
        .sum()
}

/// Runs the fleet sweep and the slice replay, reporting the serving-layer
/// per-layer metrics and writing the replay's spans beside `--trace-out`.
pub fn trace_fleet(args: &Args, report: &mut Report) {
    let Some(fleet) = report.ledger.op("fleet", Fleet::start) else {
        return;
    };
    traced(args, &grid(args.seed), fleet, report);
}

/// One slice through the client and through the hub, timed.
struct SliceTimes {
    rtt_ms: Vec<f64>,
    run_cell_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    request_bytes: Vec<f64>,
    reply_bytes: Vec<f64>,
}

/// The request line `Client::run_spec_batches` (no snapshot) or
/// `Client::resume_spec_batches` sends, rebuilt with the same public
/// `Json` constructors.
fn request_line(spec: &ScenarioSpec, snapshot: Option<&[u8]>, cap: u64) -> String {
    let from = match snapshot {
        None => ("spec", scenario_to_json(spec)),
        Some(bytes) => ("resume", Json::Str(adp_serve::hex::encode(bytes))),
    };
    let request = Json::obj([
        ("cmd", Json::Str("run_spec".into())),
        from,
        ("max_batches", Json::int(cap)),
    ]);
    format!("{request}\n")
}

/// The reply line that carried `reply`, rebuilt in the shape the server
/// documents for `run_spec` (`{"ok":true,"done":…,…}`).
fn reply_line(reply: &CellProgressReply) -> String {
    let json = match reply {
        CellProgressReply::Partial {
            iteration,
            wall_ms,
            snapshot,
        } => Json::obj([
            ("ok", Json::Bool(true)),
            ("done", Json::Bool(false)),
            ("iteration", Json::int(*iteration)),
            ("wall_ms", Json::Num(*wall_ms)),
            ("snapshot", Json::Str(adp_serve::hex::encode(snapshot))),
        ]),
        CellProgressReply::Done(row) => Json::obj([
            ("ok", Json::Bool(true)),
            ("done", Json::Bool(true)),
            ("iterations", Json::int(row.iterations)),
            ("refits", Json::int(row.refits)),
            ("test_accuracy", Json::Num(row.test_accuracy)),
            ("wall_ms", Json::Num(row.wall_ms)),
            ("cheap_fraction", Json::Num(row.cheap_fraction)),
            ("routed_cost", Json::Num(row.routed_cost)),
            ("recovery", Json::Num(row.recovery)),
        ]),
    };
    format!("{json}\n")
}

fn traced(args: &Args, grid: &SweepGrid, fleet: Fleet, report: &mut Report) {
    let (local_rows, local_s) = local(grid, report);
    let sys_before = procfs::sys_cpu_s();
    let Some((rows, sweep_s, requeued)) = distributed(grid, &fleet, report) else {
        return;
    };
    let sys_s = procfs::sys_cpu_s().zip(sys_before).map(|(a, b)| a - b);
    report.check(same_rows(&rows, &local_rows), || {
        "the fleet's merged rows differ from run_grid_jobs rows".into()
    });

    let cap = CoordOpts::default().checkpoint_batches;
    let addr = fleet.addrs()[0].clone();
    let Some(mut client) = report
        .ledger
        .op("connect", || Client::connect(addr.as_str()))
    else {
        return;
    };
    let hub = SessionHub::in_memory(1);
    let mut t = Tracer::new();
    let mut times = SliceTimes {
        rtt_ms: vec![],
        run_cell_ms: vec![],
        overhead_ms: vec![],
        request_bytes: vec![],
        reply_bytes: vec![],
    };
    let root = t.enter("loop");
    for cell in grid
        .cells()
        .into_iter()
        .filter(|c| REPLAYED_CELLS.contains(&c.id))
    {
        let mut wire: Option<Vec<u8>> = None;
        let mut direct: Option<Box<SessionSnapshot>> = None;
        loop {
            times
                .request_bytes
                .push(request_line(&cell.spec, wire.as_deref(), cap).len() as f64);
            let span = t.enter("server.rtt");
            let reply = report.ledger.op("slice", || match &wire {
                None => client.run_spec_batches(&cell.spec, cap),
                Some(snapshot) => client.resume_spec_batches(snapshot, cap),
            });
            t.exit(span);
            let rtt = *t.durations_ms("server.rtt").last().expect("span recorded");
            if let Some(reply) = &reply {
                times.reply_bytes.push(reply_line(reply).len() as f64);
            }
            let start = match direct.take() {
                None => CellStart::Spec(Box::new(cell.spec.clone())),
                Some(snapshot) => CellStart::Resume(snapshot),
            };
            let span = t.enter("hub.run_cell");
            let progress = report
                .ledger
                .op("slice", || hub.run_cell(start, Some(cap as usize)));
            t.exit(span);
            let run_cell = *t
                .durations_ms("hub.run_cell")
                .last()
                .expect("span recorded");
            times.rtt_ms.push(rtt);
            times.run_cell_ms.push(run_cell);
            times.overhead_ms.push(rtt - run_cell);
            match (reply, progress) {
                (
                    Some(CellProgressReply::Partial { snapshot, .. }),
                    Some(CellProgress::Partial { snapshot: s, .. }),
                ) => {
                    wire = Some(snapshot);
                    direct = Some(s);
                }
                (Some(CellProgressReply::Done(a)), Some(CellProgress::Done(b))) => {
                    let row = rows.iter().find(|r| r.cell == cell.id);
                    report.check(
                        a.test_accuracy.to_bits() == b.test_accuracy.to_bits()
                            && row.is_some_and(|r| {
                                r.test_accuracy.to_bits() == a.test_accuracy.to_bits()
                            }),
                        || format!("cell {}: replayed slices disagree with the fleet", cell.id),
                    );
                    break;
                }
                (Some(_), Some(_)) => {
                    report.check(false, || {
                        format!("cell {}: client and hub slices ended differently", cell.id)
                    });
                    break;
                }
                _ => break,
            }
        }
    }
    t.exit(root);
    drop(client);
    drop(fleet);
    let replay_s = t.durations_ms("loop")[0] / 1e3;
    let rtt_total: f64 = times.rtt_ms.iter().sum();
    let overhead_total: f64 = times.overhead_ms.iter().sum();
    report.note(format!(
        "fleet sweep {sweep_s:.3} s (system CPU {:.2} s), run_grid_jobs {local_s:.3} s; \
         {} replayed slices in {replay_s:.3} s: round trips {:.3} s, server overhead {:.3} s \
         ({:.1}% of round-trip time)",
        sys_s.unwrap_or(f64::NAN),
        times.rtt_ms.len(),
        rtt_total / 1e3,
        overhead_total / 1e3,
        overhead_total / rtt_total * 100.0
    ));
    if let Some(out) = &args.trace_out {
        crate::write_spans(&out.with_extension("fleet.jsonl"), &t, report);
    }
    report.metric("server.rtt_ms", median(&times.rtt_ms), "ms");
    report.metric("hub.run_cell_ms", median(&times.run_cell_ms), "ms");
    report.metric("server.overhead_ms", median(&times.overhead_ms), "ms");
    report.metric(
        "server.request_bytes",
        median(&times.request_bytes),
        "bytes",
    );
    report.metric("server.reply_bytes", median(&times.reply_bytes), "bytes");
    report.metric("proc.sys_cpu_s", sys_s.unwrap_or(f64::NAN), "s");
    report.metric("coord.slices", slices_per_sweep(grid) as f64, "count");
    report.metric("coord.requeued", requeued as f64, "count");
    report.metric("sweep.local_s", local_s, "s");
}
