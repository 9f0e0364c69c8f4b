//! The stack benchmark: three workloads, named end-to-end metrics, and a
//! traced per-layer ledger.
//!
//! ```text
//! stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! stackbench --smoke
//! stackbench --describe
//! ```
//!
//! * `spanner-saturated` — the simulator's queue and the Spanner handlers
//!   (see `spanner_saturated.rs`).
//! * `composed-durable-faults` — Spanner-RSS + Gryff-RSC on write-ahead
//!   logs under a fault script; storage and the composed checker (see
//!   `composed.rs`).
//! * `live-spanner-uds` — the live plane over Unix-domain sockets; router,
//!   mailboxes, scaled clock and wire codec (see `live.rs`).
//!
//! Every run is checked: histories must certify, the fault script must
//! fire, and repeated simulator runs of one seed must produce identical
//! histories. Any failure exits non-zero. With `--trace 0` the last line of
//! standard output is a JSON object with every end-to-end metric; with
//! `--trace 1` it carries every per-layer metric, the ledger of layer self
//! times is printed, and the spans are written as Chrome trace-event JSON
//! under `stackbench/out/`. `--smoke` runs each workload briefly in both
//! modes and checks that every metric named in `BENCHMARK.json` is emitted
//! with its unit. `--describe` prints the fixed settings of every
//! workload (sizes, flush policy, time scale, seeds) as JSON.

mod common;
mod composed;
mod live;
mod spanner_saturated;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use common::Outcome;
use regular_sweep::Json;
use trace::{json_string, Tracer};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] =
    ["spanner-saturated", "composed-durable-faults", "live-spanner-uds"];

/// End-to-end metrics: reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("certified_ops_per_s", "1/s"),
    ("capacity_ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("ro_p99_ms", "ms"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: reported by every workload with `--trace 1` (0 where
/// the workload does not exercise the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.run_s", "s"),
    ("sim.messages", "count"),
    ("sim.us_per_message", "us"),
    ("sim.marginal_us_per_message", "us"),
    ("sim.dropped", "count"),
    ("sim.duplicated", "count"),
    ("sim.expired", "count"),
    ("spanner.ro_slow_ratio", "ratio"),
    ("spanner.ro_blocked_ratio", "ratio"),
    ("spanner.messages_per_op", "count"),
    ("spanner.aborts", "count"),
    ("spanner.timeout_retries", "count"),
    ("librss.fences", "count"),
    ("librss.auto_fences", "count"),
    ("librss.handoffs", "count"),
    ("session.history_build_s", "s"),
    ("workloads.next_op_ns", "ns"),
    ("session.arrivals", "count"),
    ("session.shed", "count"),
    ("session.overload_arrival_share", "ratio"),
    ("storage.records", "count"),
    ("storage.syncs", "count"),
    ("storage.records_per_sync", "count"),
    ("storage.bytes_per_record", "bytes"),
    ("storage.checkpoints", "count"),
    ("storage.recoveries", "count"),
    ("storage.replayed", "count"),
    ("storage.torn_bytes", "bytes"),
    ("storage.overhead_s", "s"),
    ("checker.certify_s", "s"),
    ("checker.ops_per_s", "1/s"),
    ("checker.peak_window", "count"),
    ("checker.components", "count"),
    ("live.run_s", "s"),
    ("live.frames_per_op", "count"),
    ("live.wire_bytes_per_op", "bytes"),
    ("live.messages_per_op", "count"),
    ("live.cap_bound_ratio", "ratio"),
    ("live.overhead_p50_ms", "ms"),
    ("wire.overhead_p50_ms", "ms"),
    ("trace.layer_share", "ratio"),
    ("trace.bench_share", "ratio"),
];

/// Largest gap allowed between the sum of a run's program-layer spans and
/// its wall time, as a share of the wall time.
const LEDGER_TOLERANCE: f64 = 0.05;

/// The seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for checking that a claimed gain holds on
/// inputs it was not tuned on.
pub const HELD_OUT_SEED: u64 = 1009;

/// What the command line asks for.
enum Command {
    Measure(Options),
    Smoke,
    Describe,
}

/// Options of a measured invocation.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Wall seconds to keep repeating measured runs.
    pub seconds: f64,
    pub trace: bool,
    /// Measured runs to make even when `seconds` has passed.
    pub min_runs: usize,
    pub process_start: Instant,
}

fn parse_args(process_start: Instant) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => return Ok(Command::Smoke),
            "--describe" => return Ok(Command::Describe),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("bad --seconds {seconds}"));
    }
    Ok(Command::Measure(Options { workload, seed, seconds, trace, min_runs: 3, process_start }))
}

fn run_workload(opts: &Options, tracer: &mut Tracer) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "spanner-saturated" => spanner_saturated::run(opts, tracer),
        "composed-durable-faults" => composed::run(opts, tracer),
        "live-spanner-uds" => live::run(opts, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Orders `outcome`'s metrics by `table`. A per-layer metric the workload
/// did not set reads 0; a missing end-to-end metric, a name outside the
/// table, or a non-finite value is an error.
fn tabulate(
    outcome: &Outcome,
    table: &[(&'static str, &'static str)],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let required = std::ptr::eq(table, END_TO_END);
    if let Some((name, _)) =
        outcome.metrics.iter().find(|(n, _)| !table.iter().any(|(t, _)| t == n))
    {
        return Err(format!("metric {name} is not in the table"));
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let value = match outcome.metrics.iter().rev().find(|(n, _)| *n == name) {
                Some(&(_, v)) => v,
                None if required => return Err(format!("end-to-end metric {name} was not set")),
                None => 0.0,
            };
            if value.is_finite() {
                Ok((name, value, unit))
            } else {
                Err(format!("metric {name} is not finite ({value})"))
            }
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` (every attempted
/// operation when incorrect) and the metrics.
fn result_line(
    correct: bool,
    attempted: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let attempted = attempted.max(1);
    let failed = if correct { 0 } else { attempted };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted,
        body.join(", ")
    )
}

/// The benchmark's own work inside a run (summaries, the history digest,
/// dropping results). It is not a layer of the program: it is printed as
/// overhead and left out of the ledger's sum.
const BENCH_LAYER: &str = "bench";

/// What the ledger found across a traced invocation's runs.
struct LedgerShares {
    /// Smallest share of a run's wall time covered by the program's layers.
    layers: f64,
    /// Largest share of a run's wall time spent in the benchmark's own work.
    bench: f64,
}

/// Prints each traced run's layer self times and checks that the program's
/// layers (every layer but [`BENCH_LAYER`]) add up to the run's wall time
/// within [`LEDGER_TOLERANCE`].
fn ledger(tracer: &Tracer) -> Result<LedgerShares, String> {
    let mut shares: Option<LedgerShares> = None;
    for run in tracer.runs() {
        let root = tracer.root(run).expect("every run has a root span");
        let wall = root.secs();
        let layers = tracer.self_times(run);
        let of = |bench: bool| -> f64 {
            layers.iter().filter(|(l, _)| (*l == BENCH_LAYER) == bench).map(|(_, s)| s).sum()
        };
        let (sum, bench) = (of(false), of(true));
        let share = sum / wall;
        println!(
            "ledger run {run} ({}): wall {wall:.4} s, program layers {:.1}%, \
             benchmark overhead {:.1}%",
            root.name,
            share * 100.0,
            bench / wall * 100.0
        );
        for (layer, secs) in &layers {
            println!("  {layer:<10} self {secs:>9.4} s  {:>5.1}%", secs / wall * 100.0);
        }
        if (1.0 - share).abs() > LEDGER_TOLERANCE {
            return Err(format!(
                "ledger run {run}: program layer spans sum to {sum:.4} s of {wall:.4} s wall \
                 (outside {:.0}%)",
                LEDGER_TOLERANCE * 100.0
            ));
        }
        let bench = bench / wall;
        shares = Some(match shares {
            None => LedgerShares { layers: share, bench },
            Some(s) => LedgerShares { layers: s.layers.min(share), bench: s.bench.max(bench) },
        });
    }
    shares.ok_or_else(|| "the traced run recorded no spans".to_string())
}

/// Records the ledger's shares as the `trace.*` metrics.
fn set_ledger_metrics(outcome: &mut Outcome, tracer: &Tracer) -> Result<(), String> {
    let shares = ledger(tracer)?;
    outcome.set("trace.layer_share", shares.layers);
    outcome.set("trace.bench_share", shares.bench);
    Ok(())
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One measured invocation; prints the result line and returns whether it
/// was correct.
fn measure(opts: &Options) -> bool {
    let mut tracer = Tracer::new(opts.process_start, opts.trace);
    let outcome = run_workload(opts, &mut tracer);
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let tabulated = outcome.and_then(|mut outcome| {
        if opts.trace {
            set_ledger_metrics(&mut outcome, &tracer)?;
            let path = out_dir().join(format!("{}-seed{}.trace.json", opts.workload, opts.seed));
            tracer.write_chrome(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("trace written to {}", path.display());
        }
        Ok((outcome.attempted, tabulate(&outcome, table)?))
    });
    match tabulated {
        Ok((attempted, metrics)) => {
            for (name, value, unit) in &metrics {
                println!("{:<30} {value:>16.6} {unit}", format!("{}.{name}", opts.workload));
            }
            println!("{}", result_line(true, attempted, &metrics));
            true
        }
        Err(e) => {
            eprintln!("FAILED: {e}");
            println!("{}", result_line(false, 1, &[]));
            false
        }
    }
}

/// Names and units that `BENCHMARK.json` lists under `key`.
fn listed_metrics(bench: &Json, key: &str) -> Result<Vec<(String, String)>, String> {
    let list =
        bench.get(key).and_then(Json::as_arr).ok_or(format!("BENCHMARK.json lacks {key}"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
            match (field("name"), field("unit")) {
                (Some(n), Some(u)) => Ok((n, u)),
                _ => Err(format!("a {key} entry lacks a name or unit")),
            }
        })
        .collect()
}

/// Runs every workload briefly, traced and untraced, and checks that each
/// result line names every metric `BENCHMARK.json` lists, with its unit.
fn smoke(process_start: Instant) -> Result<(), String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bench = Json::parse(&text)?;
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = listed_metrics(&bench, key)?;
        let ours: Vec<(String, String)> =
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        if listed != ours {
            return Err(format!(
                "BENCHMARK.json {key} {listed:?} differs from the benchmark's {ours:?}"
            ));
        }
    }
    let names: Vec<String> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    if names != WORKLOADS {
        return Err(format!("BENCHMARK.json workloads {names:?} differ from {WORKLOADS:?}"));
    }
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = Options {
                workload: workload.to_string(),
                seed: DEFAULT_SEED,
                seconds: 0.0,
                trace,
                min_runs: 1,
                process_start,
            };
            let mut tracer = Tracer::new(Instant::now(), trace);
            let mut outcome = run_workload(&opts, &mut tracer)?;
            let table = if trace { PER_LAYER } else { END_TO_END };
            if trace {
                set_ledger_metrics(&mut outcome, &tracer)?;
            }
            let set: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
            let emitted = tabulate(&outcome, table)?;
            println!(
                "smoke {workload} trace {}: {} metrics emitted with units, {} set by the workload",
                u8::from(trace),
                emitted.len(),
                set.len()
            );
        }
    }
    Ok(())
}

/// The fixed settings of every workload.
fn describe() -> Json {
    let f = Json::f64;
    let u = Json::u64;
    Json::obj(vec![
        ("default_seed", u(DEFAULT_SEED)),
        ("held_out_seed", u(HELD_OUT_SEED)),
        (
            "spanner-saturated",
            Json::obj(vec![
                ("load_ms", u(spanner_saturated::LOAD_MS)),
                ("twin_load_ms", u(spanner_saturated::TWIN_LOAD_MS)),
                ("setup_probes_per_run", u(spanner_saturated::SETUP_PROBES_PER_RUN as u64)),
                ("shards", u(8)),
                ("lanes", u(4 * 32 * 8)),
                ("keys", u(1_000_000)),
                ("check_threads", u(1)),
            ]),
        ),
        (
            "composed-durable-faults",
            Json::obj(vec![
                ("apps", u(composed::APPS as u64)),
                ("load_secs", u(composed::LOAD_SECS)),
                ("fault_cycle_secs", u(composed::CYCLE_SECS)),
                ("setup_samples_per_run", u(composed::SETUP_SAMPLES_PER_RUN as u64)),
                ("group_commit_us", u(composed::GROUP_COMMIT_US)),
                ("segment_bytes", u(composed::SEGMENT_BYTES)),
                ("checkpoint_every_records", u(composed::CHECKPOINT_EVERY)),
                ("disk", Json::str("in-memory")),
                ("check_threads", u(1)),
            ]),
        ),
        (
            "live-spanner-uds",
            Json::obj(vec![
                ("time_scale", u(live::TIME_SCALE)),
                ("transport", Json::str("uds")),
                ("clients", u(live::CLIENTS as u64)),
                ("keys", u(live::KEYS)),
                ("max_in_flight_per_client", u(live::MAX_IN_FLIGHT as u64)),
                ("setup_probes_per_phase", u(live::SETUP_PROBES_PER_PHASE as u64)),
                ("steady_rate_per_client", f(live::STEADY_RATE)),
                ("steady_share_of_seconds", f(live::STEADY_SHARE)),
                ("steady_runs", u(live::STEADY_RUNS as u64)),
                ("overload_rate_per_client", f(live::OVERLOAD.rate_per_client)),
                ("overload_load_secs", u(live::OVERLOAD.load_secs)),
            ]),
        ),
    ])
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match parse_args(process_start) {
        Err(e) => {
            eprintln!("stackbench: {e}");
            ExitCode::from(2)
        }
        Ok(Command::Describe) => {
            println!("{}", describe().to_pretty());
            ExitCode::SUCCESS
        }
        Ok(Command::Smoke) => match smoke(process_start) {
            Ok(()) => {
                println!("smoke: every workload emits every named metric");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke FAILED: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(Command::Measure(opts)) => {
            if measure(&opts) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
