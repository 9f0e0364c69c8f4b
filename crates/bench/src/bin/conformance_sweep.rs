//! Parallel conformance sweep: certify fleets of seeded runs.
//!
//! Fans seeded runs of the chosen scenarios across a work-stealing thread
//! pool, certifies each history against its RSS/RSC witness model, and
//! writes the aggregate to `BENCH_sweep.json`. Seeds that fail certification
//! are dumped as replayable artifacts (see `--replay`).
//!
//! Usage:
//!
//! ```text
//! conformance_sweep [--seeds N] [--base-seed S] [--threads T]
//!                   [--check-threads C] [--scenarios all|live|NAME,...]
//!                   [--ops N] [--stream]
//!                   [--out BENCH_sweep.json] [--artifact-dir sweep-artifacts]
//!                   [--scaling 1,4]
//! conformance_sweep --replay <artifact.json>
//! ```
//!
//! Scenario names and their aliases are the rows of
//! `regular_sweep::SCENARIOS` (an unknown name prints the valid ones).
//! `all`, the default, is every simulator row (`Scenario::ALL`); `live` is
//! every live-plane row (`Scenario::LIVE`).
//!
//! `--scaling T1,T2,…` re-runs the whole sweep once per thread count and
//! records the wall-clock of each in the report's `scaling` section (the
//! `scaling_speedup` field is `wall(T1) / wall(Tlast)`). `--ops N` scales
//! each scenario's simulated duration toward roughly `N` operations per run;
//! `--stream` certifies through the windowed streaming checker instead of
//! the batch parallel checker. Exit status is non-zero when any seed fails
//! certification — the CI gate.
//!
//! The live rows run every node as an OS thread on scaled wall-clock time,
//! certified online through the streaming checker. The sweep runs them over
//! the in-process mpsc transport; the live plane itself also carries nodes
//! over Unix-domain sockets and TCP, up to fully separate OS processes —
//! `live_bench --net` exercises those backends (see `OPERATIONS.md`).
//! Live runs occupy real cores, so pair them with a small `--threads`.

use std::path::PathBuf;
use std::process::ExitCode;

use regular_sweep::{
    run_sweep, sweep_to_json, write_json, FailureArtifact, Scenario, SweepOptions, SCENARIOS,
};

struct Args {
    opts: SweepOptions,
    out: PathBuf,
    scaling: Vec<usize>,
    replay: Option<PathBuf>,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: conformance_sweep [--seeds N] [--base-seed S] [--threads T] \
         [--check-threads C] [--scenarios NAME,... (see --scenarios help)] [--ops N] \
         [--stream] [--out PATH] [--artifact-dir DIR] [--scaling T1,T2,...] | --replay FILE"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut opts = SweepOptions {
        threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        ..SweepOptions::default()
    };
    let mut out = PathBuf::from("BENCH_sweep.json");
    let mut scaling = Vec::new();
    let mut replay = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |flag: &str| args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match arg.as_str() {
            "--seeds" => {
                opts.seeds = value("--seeds").parse().unwrap_or_else(|_| usage("bad --seeds"))
            }
            "--base-seed" => {
                opts.base_seed =
                    value("--base-seed").parse().unwrap_or_else(|_| usage("bad --base-seed"))
            }
            "--threads" => {
                opts.threads = value("--threads").parse().unwrap_or_else(|_| usage("bad --threads"))
            }
            "--check-threads" => {
                opts.check_threads = value("--check-threads")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --check-threads"))
            }
            "--scenarios" => {
                let list = value("--scenarios");
                if list.trim().eq_ignore_ascii_case("all") {
                    opts.scenarios = Scenario::ALL.to_vec();
                } else if list.trim().eq_ignore_ascii_case("live") {
                    opts.scenarios = Scenario::LIVE.to_vec();
                } else {
                    opts.scenarios = list
                        .split(',')
                        .map(|s| {
                            Scenario::parse(s).unwrap_or_else(|| {
                                let valid: Vec<&str> =
                                    SCENARIOS.iter().map(|row| row.name).collect();
                                usage(&format!(
                                    "unknown scenario '{s}' (valid: {}, or 'all'/'live')",
                                    valid.join(", ")
                                ))
                            })
                        })
                        .collect();
                }
            }
            "--ops" => {
                let raw = value("--ops");
                match raw.trim().parse::<u64>() {
                    Ok(n) if (100..=1_000_000).contains(&n) => opts.ops = Some(n),
                    _ => usage(&format!(
                        "bad --ops '{raw}' (valid: a target operation count in 100..=1000000)"
                    )),
                }
            }
            "--stream" => opts.stream = true,
            "--out" => out = PathBuf::from(value("--out")),
            "--artifact-dir" => opts.artifact_dir = PathBuf::from(value("--artifact-dir")),
            "--scaling" => {
                scaling = value("--scaling")
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage("bad --scaling")))
                    .collect()
            }
            "--replay" => replay = Some(PathBuf::from(value("--replay"))),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if opts.scenarios.is_empty() {
        usage("no scenarios selected");
    }
    Args { opts, out, scaling, replay }
}

fn replay_artifact(path: &std::path::Path) -> ExitCode {
    let artifact = match FailureArtifact::load(path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("failed to load artifact: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {} seed {} ({} ops, model {:?})",
        artifact.scenario,
        artifact.seed,
        artifact.history.len(),
        artifact.model,
    );
    println!("recorded violation: {}", artifact.violation);
    println!("storage mode: {}", artifact.durability.as_deref().unwrap_or("in-memory"));
    if !artifact.deliveries.is_empty() {
        println!(
            "live delivery schedule: {} recorded deliveries (wall-clock run)",
            artifact.deliveries.len()
        );
    }
    if let Some(coverage) = &artifact.coverage {
        println!("coverage signature: {}", coverage.describe());
    }
    if artifact.schedule.is_some() {
        println!(
            "recorded hunt schedule: present (re-simulate the trigger with the \
             regular-hunt crate; this replay checks the evidence only)"
        );
    }
    // Large histories replay through the windowed streaming checker so the
    // checking state stays bounded by the reorder window; the verdict is
    // equivalent to the batch check.
    const STREAM_REPLAY_MIN_OPS: usize = 10_000;
    if artifact.history.len() >= STREAM_REPLAY_MIN_OPS {
        println!("replaying via the streaming checker ({} ops)", artifact.history.len());
        return match regular_sweep::certify_streaming(
            &artifact.history,
            &artifact.witness,
            artifact.model,
        ) {
            Ok(stats) => {
                println!(
                    "replay verdict: CERTIFIED — the recorded witness now passes \
                     (peak window {}, {} components)",
                    stats.peak_window, stats.components
                );
                ExitCode::SUCCESS
            }
            Err(v) => {
                println!("replay verdict: VIOLATION REPRODUCED — {v:?}");
                ExitCode::FAILURE
            }
        };
    }
    match artifact.replay() {
        Ok(()) => {
            println!("replay verdict: CERTIFIED — the recorded witness now passes");
            ExitCode::SUCCESS
        }
        Err(v) => {
            println!("replay verdict: VIOLATION REPRODUCED — {v:?}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let Args { mut opts, out, scaling, replay } = parse_args();
    if let Some(path) = replay {
        return replay_artifact(&path);
    }

    let scenario_names: Vec<&str> = opts.scenarios.iter().map(|s| s.name()).collect();
    println!(
        "== conformance sweep: {} seeds x [{}], {} worker thread(s), check sharded x{} ==",
        opts.seeds,
        scenario_names.join(", "),
        opts.threads,
        opts.check_threads,
    );
    if let Some(ops) = opts.ops {
        println!("   ops target: ~{ops} per run (scenario durations scaled)");
    }
    if opts.stream {
        println!("   certification: windowed streaming checker");
    }

    // Thread-scaling measurement: one full sweep per requested thread count
    // (identical seeds, so identical work), recording each wall clock. The
    // final (highest-parallelism) sweep provides the per-seed reports.
    let mut measured: Vec<(usize, f64)> = Vec::new();
    let thread_counts: Vec<usize> =
        if scaling.is_empty() { vec![opts.threads] } else { scaling.clone() };
    let mut last = None;
    for &threads in &thread_counts {
        opts.threads = threads;
        let result = run_sweep(&opts);
        println!(
            "   threads={threads}: {} runs in {:.0} ms ({} failures, {} steals)",
            result.reports.len(),
            result.wall_ms,
            result.failures(),
            result.pool.steals,
        );
        measured.push((threads, result.wall_ms));
        last = Some(result);
    }
    let result = last.expect("at least one sweep ran");
    let scaling_section = if measured.len() > 1 { measured.as_slice() } else { &[] };

    let report = sweep_to_json(&result, &opts, scaling_section);
    if let Err(e) = write_json(&out, &report) {
        eprintln!("failed to write {}: {e}", out.display());
        return ExitCode::from(2);
    }

    let certified = result.reports.len() - result.failures();
    println!("\n{}", report.to_pretty());
    println!(
        "certified {certified}/{} seeded runs; report written to {}",
        result.reports.len(),
        out.display()
    );
    if result.failures() > 0 {
        for path in &result.artifact_paths {
            eprintln!("violation artifact: {}", path.display());
        }
        eprintln!(
            "{} run(s) FAILED certification; replay with: conformance_sweep --replay <artifact>",
            result.failures()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
