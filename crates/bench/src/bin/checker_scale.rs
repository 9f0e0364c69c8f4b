//! Checker-scale profile: certification cost on 100k-op histories.
//!
//! Measures the certification paths on a synthetic history with known
//! component structure (see `regular_sweep::synthetic_history`):
//!
//! * `witness_full_100k` — the sequential batch certificate checker over the
//!   whole history, the baseline the streaming row is a ratio of.
//! * `streaming_100k` — the windowed streaming checker fed in
//!   completion-time order through a reorder buffer.
//! * `search_2k` — the exact search (`check`: plain search, saturation only
//!   as the fallback) *finding* a witness for a 2k-op history, far past the
//!   old 128-op exact frontier.
//!
//! The streaming row carries a `speedup` ratio against `witness_full_100k`
//! measured in the same process, which transfers across hosts the way
//! absolute milliseconds do not; `bench_gate --checker` gates that ratio
//! against `ci/checker_scale_reference.json`.
//!
//! Usage:
//!
//! ```text
//! checker_scale [--ops 100000] [--groups 8] [--search-ops 2000] \
//!               [--out BENCH_checker_scale.json]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use regular_core::checker::certificate::WitnessModel;
use regular_core::{check, check_witness, Model};
use regular_sweep::{certify_streaming, synthetic_history, write_json, Json};

/// Wall-clock milliseconds, median of `ROUNDS` interleaved runs per path.
///
/// The paths are measured round-robin (one run of each per round) rather
/// than back to back, so slow host phases (frequency scaling, a noisy
/// neighbour) hit every path about equally, and the median resists
/// outlier-fast and outlier-slow samples alike — the *ratios* the gate
/// consumes stay stable even when absolute times wobble.
fn time_all(paths: &mut [(&str, &mut dyn FnMut() -> bool)]) -> Vec<f64> {
    const ROUNDS: usize = 15;
    for (name, f) in paths.iter_mut() {
        assert!(f(), "{name} failed during warmup");
    }
    let mut samples = vec![Vec::with_capacity(ROUNDS); paths.len()];
    for _ in 0..ROUNDS {
        for (i, (name, f)) in paths.iter_mut().enumerate() {
            let started = Instant::now();
            assert!(f(), "{name} failed");
            samples[i].push(started.elapsed().as_secs_f64() * 1_000.0);
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        })
        .collect()
}

fn entry(name: &str, ops: usize, components: usize, millis: f64, speedup: Option<f64>) -> Json {
    let round2 = |v: f64| (v * 100.0).round() / 100.0;
    let ops_per_sec = if millis > 0.0 { (ops as f64 / (millis / 1_000.0)).round() } else { 0.0 };
    let mut pairs = vec![
        ("name".to_string(), Json::str(name)),
        ("ops".to_string(), Json::u64(ops as u64)),
        ("components".to_string(), Json::u64(components as u64)),
        ("millis".to_string(), Json::f64(round2(millis))),
        ("ops_per_sec".to_string(), Json::f64(ops_per_sec)),
    ];
    if let Some(s) = speedup {
        pairs.push(("speedup".to_string(), Json::f64(round2(s))));
    }
    Json::Obj(pairs)
}

fn main() -> ExitCode {
    let mut ops = 100_000usize;
    let mut groups = 8usize;
    let mut search_ops = 2_000usize;
    let mut out = PathBuf::from("BENCH_checker_scale.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().expect("flag needs a value");
        match arg.as_str() {
            "--ops" => ops = value().parse().expect("bad --ops"),
            "--groups" => groups = value().parse().expect("bad --groups"),
            "--search-ops" => search_ops = value().parse().expect("bad --search-ops"),
            "--out" => out = PathBuf::from(value()),
            other => {
                eprintln!("checker_scale: unknown argument '{other}'");
                eprintln!(
                    "usage: checker_scale [--ops N] [--groups G] [--search-ops N] [--out PATH]"
                );
                return ExitCode::from(2);
            }
        }
    }

    println!("== checker scale: {ops} ops in {groups} groups, search at {search_ops} ops ==");
    let (history, witness) = synthetic_history(ops, groups);
    let model = WitnessModel::Regular;

    let (search_history, _) = synthetic_history(search_ops, groups.min(4));

    let mut peak_window = 0usize;
    let mut full = || check_witness(&history, &witness, model).is_ok();
    let mut streaming = || match certify_streaming(&history, &witness, model) {
        Ok(stats) => {
            peak_window = stats.peak_window;
            true
        }
        Err(_) => false,
    };
    let mut search = || {
        check(&search_history, Model::RegularSequentialConsistency)
            .map(|o| o.satisfied)
            .unwrap_or(false)
    };
    let times = time_all(&mut [
        ("witness_full", &mut full),
        ("streaming", &mut streaming),
        ("search", &mut search),
    ]);
    let (full_ms, streaming_ms, search_ms) = (times[0], times[1], times[2]);
    println!("   witness_full   {full_ms:>9.2} ms");
    println!("   streaming      {streaming_ms:>9.2} ms ({:.2}x)", full_ms / streaming_ms);
    println!("   search         {search_ms:>9.2} ms ({search_ops} ops)");

    let report = Json::Obj(
        vec![
            ("schema".to_string(), Json::str("regular-seq/checker-scale/v1")),
            ("peak_window".to_string(), Json::u64(peak_window as u64)),
            (
                "entries".to_string(),
                Json::Arr(vec![
                    entry("witness_full_100k", ops, groups, full_ms, None),
                    entry(
                        "streaming_100k",
                        ops,
                        groups,
                        streaming_ms,
                        Some(full_ms / streaming_ms),
                    ),
                    entry("search_2k", search_ops, groups.min(4), search_ms, None),
                ]),
            ),
        ]
        .into_iter()
        .collect(),
    );
    if let Err(e) = write_json(&out, &report) {
        eprintln!("checker_scale: failed to write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!("checker-scale profile written to {}", out.display());
    ExitCode::SUCCESS
}
