//! Sweep orchestration and the machine-readable report.
//!
//! [`run_sweep`] fans `scenarios × seeds` certified simulator runs across a
//! [`WorkStealingPool`], collects per-seed reports, writes failing runs as
//! replayable artifacts, and [`sweep_to_json`] aggregates everything into
//! the `BENCH_sweep.json` document CI consumes (schema documented in
//! `BENCHMARKS.md`).

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::pool::{PoolStats, WorkStealingPool};
use crate::scenario::{run_seed_with, Scenario, SeedReport, SeedRun};

/// What to sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Scenarios to run (each over the full seed corpus).
    pub scenarios: Vec<Scenario>,
    /// Number of seeds per scenario.
    pub seeds: u64,
    /// First seed; the corpus is `base_seed..base_seed + seeds`.
    pub base_seed: u64,
    /// Worker threads fanning the runs.
    pub threads: usize,
    /// Threads sharding each run's witness check. Keep at 1 when the pool
    /// already saturates the machine; raise for few-but-huge histories.
    pub check_threads: usize,
    /// Directory failing runs are dumped into.
    pub artifact_dir: PathBuf,
    /// Target operations per run: scales each scenario's simulated duration
    /// toward roughly this many history operations. `None` keeps the
    /// scenario defaults.
    pub ops: Option<u64>,
    /// Certify through the windowed streaming checker instead of the batch
    /// parallel checker (verdict-equivalent; reports the reorder buffer's
    /// peak depth).
    pub stream: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            scenarios: Scenario::ALL.to_vec(),
            seeds: 32,
            base_seed: 1,
            threads: 1,
            check_threads: 1,
            artifact_dir: PathBuf::from("sweep-artifacts"),
            ops: None,
            stream: false,
        }
    }
}

/// The outcome of one sweep.
pub struct SweepResult {
    /// Per-seed reports, in job order (scenarios interleaved).
    pub reports: Vec<SeedReport>,
    /// Paths of the failure artifacts written.
    pub artifact_paths: Vec<PathBuf>,
    /// Wall-clock milliseconds for the whole sweep.
    pub wall_ms: f64,
    /// Worker threads used.
    pub threads: usize,
    /// Pool balance counters.
    pub pool: PoolStats,
}

impl SweepResult {
    /// Number of runs that failed certification.
    pub fn failures(&self) -> usize {
        self.reports.iter().filter(|r| !r.certified).count()
    }
}

/// Runs the sweep described by `opts`.
///
/// Jobs are laid out scenario-interleaved (`s0 seed0, s1 seed0, …`) so the
/// pool's range-stealing balances dissimilar scenario costs; the report
/// order matches the job order.
pub fn run_sweep(opts: &SweepOptions) -> SweepResult {
    let started = std::time::Instant::now();
    let scenarios = &opts.scenarios;
    let jobs = scenarios.len() * opts.seeds as usize;
    let pool = WorkStealingPool::new(opts.threads);
    let (runs, pool_stats): (Vec<SeedRun>, PoolStats) = pool.run(jobs, |i| {
        let scenario = scenarios[i % scenarios.len()];
        let seed = opts.base_seed + (i / scenarios.len()) as u64;
        run_seed_with(scenario, seed, opts.check_threads, opts.ops, opts.stream)
    });
    let mut reports = Vec::with_capacity(runs.len());
    let mut artifact_paths = Vec::new();
    for run in runs {
        if let Some(artifact) = &run.artifact {
            match artifact.save(&opts.artifact_dir) {
                Ok(path) => artifact_paths.push(path),
                Err(e) => eprintln!(
                    "warning: failed to write artifact for {} seed {}: {e}",
                    run.report.scenario, run.report.seed
                ),
            }
        }
        reports.push(run.report);
    }
    SweepResult {
        reports,
        artifact_paths,
        wall_ms: started.elapsed().as_secs_f64() * 1_000.0,
        threads: pool.threads(),
        pool: pool_stats,
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Aggregates a sweep (plus optional thread-scaling measurements from
/// repeated sweeps) into the `BENCH_sweep.json` document.
pub fn sweep_to_json(result: &SweepResult, opts: &SweepOptions, scaling: &[(usize, f64)]) -> Json {
    let per_scenario = opts
        .scenarios
        .iter()
        .map(|s| {
            let rs: Vec<&SeedReport> =
                result.reports.iter().filter(|r| r.scenario == s.name()).collect();
            let passed = rs.iter().filter(|r| r.certified).count();
            (
                s.name().to_string(),
                Json::obj(vec![
                    ("runs", Json::u64(rs.len() as u64)),
                    ("certified", Json::u64(passed as u64)),
                    ("failed", Json::u64((rs.len() - passed) as u64)),
                    ("history_ops_total", Json::u64(rs.iter().map(|r| r.history_ops as u64).sum())),
                    (
                        "history_ops_min",
                        Json::u64(rs.iter().map(|r| r.history_ops as u64).min().unwrap_or(0)),
                    ),
                    ("messages_dropped_total", Json::u64(rs.iter().map(|r| r.dropped).sum())),
                    ("messages_duplicated_total", Json::u64(rs.iter().map(|r| r.duplicated).sum())),
                    ("messages_expired_total", Json::u64(rs.iter().map(|r| r.expired).sum())),
                    ("latency_p50_ms_mean", Json::f64(round2(mean(rs.iter().map(|r| r.p50_ms))))),
                    ("latency_p99_ms_mean", Json::f64(round2(mean(rs.iter().map(|r| r.p99_ms))))),
                    ("run_wall_ms_mean", Json::f64(round2(mean(rs.iter().map(|r| r.wall_ms))))),
                    ("certify_wall_ms_mean", Json::f64(round2(mean(rs.iter().map(|r| r.cert_ms))))),
                    (
                        "certify_ops_per_sec_mean",
                        Json::f64(round2(mean(
                            rs.iter()
                                .filter(|r| r.cert_ms > 0.0)
                                .map(|r| r.history_ops as f64 / (r.cert_ms / 1_000.0)),
                        ))),
                    ),
                    (
                        "wall_ops_per_sec_mean",
                        Json::f64(round2(mean(rs.iter().map(|r| r.wall_ops_per_sec)))),
                    ),
                    (
                        "components_max",
                        Json::u64(rs.iter().map(|r| r.components as u64).max().unwrap_or(0)),
                    ),
                    (
                        "peak_window_max",
                        Json::u64(rs.iter().map(|r| r.peak_window as u64).max().unwrap_or(0)),
                    ),
                    ("wal_records_total", Json::u64(rs.iter().map(|r| r.storage.records).sum())),
                    ("wal_syncs_total", Json::u64(rs.iter().map(|r| r.storage.syncs).sum())),
                    (
                        "wal_recoveries_total",
                        Json::u64(rs.iter().map(|r| r.storage.recoveries).sum()),
                    ),
                    ("wal_replayed_total", Json::u64(rs.iter().map(|r| r.storage.replayed).sum())),
                ]),
            )
        })
        .collect();
    let failures = result
        .reports
        .iter()
        .filter(|r| !r.certified)
        .map(|r| {
            Json::obj(vec![
                ("scenario", Json::str(r.scenario)),
                ("seed", Json::u64(r.seed)),
                (
                    "violation",
                    Json::str(r.violation.clone().unwrap_or_else(|| "unknown".to_string())),
                ),
            ])
        })
        .collect();
    let host_threads = std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1);
    let mut pairs = vec![
        ("schema", Json::str("regular-seq/conformance-sweep/v1")),
        ("seeds", Json::u64(opts.seeds)),
        ("base_seed", Json::u64(opts.base_seed)),
        ("threads", Json::u64(result.threads as u64)),
        // Scaling numbers are only meaningful relative to the cores the
        // generating host actually had (CI regenerates this file on every
        // push; a 1-core dev container cannot show parallel speedup).
        ("host_threads", Json::u64(host_threads)),
        ("check_threads", Json::u64(opts.check_threads as u64)),
        ("ops_target", opts.ops.map(Json::u64).unwrap_or(Json::Null)),
        ("stream", Json::Bool(opts.stream)),
        ("total_runs", Json::u64(result.reports.len() as u64)),
        ("total_failures", Json::u64(result.failures() as u64)),
        ("wall_clock_ms", Json::f64(round2(result.wall_ms))),
        ("pool_steals", Json::u64(result.pool.steals as u64)),
        ("scenarios", Json::Obj(per_scenario)),
        ("failures", Json::Arr(failures)),
    ];
    if !scaling.is_empty() {
        let entries = scaling
            .iter()
            .map(|(threads, wall_ms)| {
                Json::obj(vec![
                    ("threads", Json::u64(*threads as u64)),
                    ("wall_clock_ms", Json::f64(round2(*wall_ms))),
                ])
            })
            .collect();
        let speedup = match (scaling.first(), scaling.last()) {
            (Some((_, base)), Some((_, best))) if *best > 0.0 => round2(base / best),
            _ => 0.0,
        };
        pairs.push(("scaling", Json::Arr(entries)));
        pairs.push(("scaling_speedup", Json::f64(speedup)));
    }
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Writes `json` to `path` (pretty-printed, trailing newline).
pub fn write_json(path: &Path, json: &Json) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, json.to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_aggregates_and_emits_json() {
        // One seed of the two store scenarios on two threads; the composed
        // scenario has its own test in `scenario`.
        let opts = SweepOptions {
            scenarios: ["spanner-rss", "gryff-rsc"].map(|s| Scenario::parse(s).unwrap()).to_vec(),
            seeds: 1,
            base_seed: 7,
            threads: 2,
            check_threads: 1,
            artifact_dir: std::env::temp_dir().join("regular-sweep-report-test"),
            ops: None,
            stream: false,
        };
        let result = run_sweep(&opts);
        assert_eq!(result.reports.len(), 2);
        assert_eq!(result.failures(), 0, "seed 7 certifies: {:?}", result.reports);
        assert!(result.artifact_paths.is_empty());
        let json = sweep_to_json(&result, &opts, &[(1, 100.0), (4, 40.0)]);
        let text = json.to_pretty();
        let parsed = Json::parse(&text).expect("report parses");
        assert_eq!(parsed.get("total_runs").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("total_failures").and_then(Json::as_u64), Some(0));
        assert_eq!(parsed.get("scaling_speedup").and_then(Json::as_f64), Some(2.5));
        let spanner = parsed.get("scenarios").unwrap().get("spanner-rss").unwrap();
        assert_eq!(spanner.get("certified").and_then(Json::as_u64), Some(1));
        assert!(spanner.get("history_ops_min").and_then(Json::as_u64).unwrap() > 128);
        assert!(spanner.get("components_max").and_then(Json::as_u64).unwrap() >= 1);
        assert!(spanner.get("certify_ops_per_sec_mean").and_then(Json::as_f64).unwrap() > 0.0);
    }
}
