//! CI regression gates over the session baselines and the engine hot path.
//!
//! **Session baselines.** Compares a freshly generated `BENCH_baseline.json`
//! (from `session_baseline`) against the checked-in reference
//! `ci/bench_baseline_reference.json` and fails (exit 1) when any non-WAN
//! configuration's throughput regressed by more than the threshold
//! (default 25%). WAN configurations are warn-only — their tail-latency
//! coupling makes small workload shifts look dramatic — and so are
//! *improvements* beyond the threshold, which print a reminder to refresh
//! the reference. Throughput here is simulated txn/s, deterministic for a
//! fixed seed, so a trip of this gate means the protocol's behaviour
//! changed, not that the runner was slow.
//!
//! **Engine hot path.** With `--engine` (a `BENCH_engine.json` from
//! `sim_profile`) and `--engine-reference`
//! (`ci/engine_hotpath_reference.json`), additionally gates the indexed
//! queue's speedup over the reference heap: a profile whose speedup fell
//! more than the threshold below the reference speedup fails. The *ratio*
//! is gated rather than raw wall-clock because both sides of the ratio run
//! on the same host in the same process — it transfers across machines the
//! way absolute milliseconds do not. Simulated observables (message count,
//! ops) are compared exactly and warn on drift, which means the committed
//! reference needs refreshing after an intentional behaviour change.
//!
//! **Checker scale.** With `--checker` (a `BENCH_checker_scale.json` from
//! `checker_scale`) and `--checker-reference`
//! (`ci/checker_scale_reference.json`), additionally gates the streaming
//! certification speedup over the full batch check — again a same-host
//! ratio, so it transfers across machines. Entries without a
//! speedup (the baselines) are compared on observables only; `ops` and
//! `components` drift warns that the reference needs refreshing.
//!
//! **Durable storage.** With `--storage` (a `BENCH_storage.json` from
//! `storage_profile`) and `--storage-reference`
//! (`ci/storage_reference.json`), additionally gates the IO axis of the
//! write-ahead log. The group-commit sync schedule runs on a simulated
//! clock, so `records`/`syncs` (and hence the mean batch per fsync) are
//! deterministic on both backends and gated as ratios; a failed recovery
//! verification always fails the gate; wall-clock append throughput is
//! warn-only.
//!
//! **Live plane.** With `--live` (a `BENCH_live.json` from `live_bench`)
//! and `--live-reference` (`ci/live_reference.json`), additionally checks
//! the live execution plane. Wall-clock throughput is genuinely
//! host-dependent (real threads, real sleeps), so all performance drift is
//! **warn-only**; the only failing condition is a live run that stopped
//! *certifying* — that is a correctness regression, not a slow host.
//!
//! Usage:
//!
//! ```text
//! bench_gate [--current BENCH_baseline.json] \
//!            [--reference ci/bench_baseline_reference.json] \
//!            [--engine BENCH_engine.json] \
//!            [--engine-reference ci/engine_hotpath_reference.json] \
//!            [--engine-only] \
//!            [--checker BENCH_checker_scale.json] \
//!            [--checker-reference ci/checker_scale_reference.json] \
//!            [--checker-only] \
//!            [--live BENCH_live.json] \
//!            [--live-reference ci/live_reference.json] \
//!            [--live-only] \
//!            [--storage BENCH_storage.json] \
//!            [--storage-reference ci/storage_reference.json] \
//!            [--storage-only] \
//!            [--threshold 0.25]
//! ```
//!
//! `--engine-only` (for jobs that only profiled the engine) skips the
//! session-baseline comparison; `--engine` is then required. `--checker-only`,
//! `--live-only`, and `--storage-only` do the same for jobs that only
//! profiled the checker, the live plane, or the storage layer.

use std::path::PathBuf;
use std::process::ExitCode;

use regular_sweep::Json;

struct Entry {
    name: String,
    wan: bool,
    throughput: f64,
}

fn load_entries(path: &PathBuf) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let schema = json.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "regular-seq/session-baseline/v1" {
        return Err(format!("{}: unexpected schema '{schema}'", path.display()));
    }
    json.get("configs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: missing configs", path.display()))?
        .iter()
        .map(|c| {
            Ok(Entry {
                name: c
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("config missing name")?
                    .to_string(),
                wan: c.get("wan").and_then(Json::as_bool).unwrap_or(false),
                throughput: c
                    .get("throughput")
                    .and_then(Json::as_f64)
                    .ok_or("config missing throughput")?,
            })
        })
        .collect()
}

struct EngineProfile {
    name: String,
    messages: u64,
    sim_ops: u64,
    speedup: f64,
}

fn load_engine_profiles(path: &PathBuf) -> Result<Vec<EngineProfile>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let schema = json.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "regular-seq/engine-hotpath/v1" {
        return Err(format!("{}: unexpected schema '{schema}'", path.display()));
    }
    json.get("profiles")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: missing profiles", path.display()))?
        .iter()
        .map(|p| {
            Ok(EngineProfile {
                name: p
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("profile missing name")?
                    .to_string(),
                messages: p.get("messages").and_then(Json::as_u64).ok_or("missing messages")?,
                sim_ops: p.get("sim_ops").and_then(Json::as_u64).ok_or("missing sim_ops")?,
                speedup: p.get("speedup").and_then(Json::as_f64).ok_or("missing speedup")?,
            })
        })
        .collect()
}

struct CheckerEntry {
    name: String,
    ops: u64,
    components: u64,
    speedup: Option<f64>,
}

fn load_checker_entries(path: &PathBuf) -> Result<Vec<CheckerEntry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let schema = json.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "regular-seq/checker-scale/v1" {
        return Err(format!("{}: unexpected schema '{schema}'", path.display()));
    }
    json.get("entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: missing entries", path.display()))?
        .iter()
        .map(|e| {
            Ok(CheckerEntry {
                name: e.get("name").and_then(Json::as_str).ok_or("entry missing name")?.to_string(),
                ops: e.get("ops").and_then(Json::as_u64).ok_or("entry missing ops")?,
                components: e
                    .get("components")
                    .and_then(Json::as_u64)
                    .ok_or("entry missing components")?,
                speedup: e.get("speedup").and_then(Json::as_f64),
            })
        })
        .collect()
}

struct LiveEntry {
    name: String,
    certified: bool,
    wall_ops_per_sec: f64,
}

fn load_live_entries(path: &PathBuf) -> Result<Vec<LiveEntry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let schema = json.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "regular-seq/live-bench/v1" {
        return Err(format!("{}: unexpected schema '{schema}'", path.display()));
    }
    json.get("entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: missing entries", path.display()))?
        .iter()
        .map(|e| {
            Ok(LiveEntry {
                name: e.get("name").and_then(Json::as_str).ok_or("entry missing name")?.to_string(),
                certified: e
                    .get("certified")
                    .and_then(Json::as_bool)
                    .ok_or("entry missing certified")?,
                wall_ops_per_sec: e
                    .get("wall_ops_per_sec")
                    .and_then(Json::as_f64)
                    .ok_or("entry missing wall_ops_per_sec")?,
            })
        })
        .collect()
}

struct StorageEntry {
    name: String,
    records: u64,
    syncs: u64,
    batch_mean: f64,
    append_ops_per_sec: f64,
    recovery_verified: bool,
}

fn load_storage_entries(path: &PathBuf) -> Result<Vec<StorageEntry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let schema = json.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "regular-seq/storage-profile/v1" {
        return Err(format!("{}: unexpected schema '{schema}'", path.display()));
    }
    json.get("entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: missing entries", path.display()))?
        .iter()
        .map(|e| {
            Ok(StorageEntry {
                name: e.get("name").and_then(Json::as_str).ok_or("entry missing name")?.to_string(),
                records: e.get("records").and_then(Json::as_u64).ok_or("entry missing records")?,
                syncs: e.get("syncs").and_then(Json::as_u64).ok_or("entry missing syncs")?,
                batch_mean: e
                    .get("batch_mean")
                    .and_then(Json::as_f64)
                    .ok_or("entry missing batch_mean")?,
                append_ops_per_sec: e
                    .get("append_ops_per_sec")
                    .and_then(Json::as_f64)
                    .ok_or("entry missing append_ops_per_sec")?,
                recovery_verified: e
                    .get("recovery_verified")
                    .and_then(Json::as_bool)
                    .ok_or("entry missing recovery_verified")?,
            })
        })
        .collect()
}

/// Gates the storage IO profile; returns true when something failed. The
/// group-commit batch ratio is deterministic (simulated-clock sync schedule)
/// and gated; recovery verification always gates; append wall throughput is
/// warn-only.
fn gate_storage(current: &PathBuf, reference: &PathBuf, threshold: f64) -> Result<bool, String> {
    let current_entries = load_storage_entries(current)?;
    let reference_entries = load_storage_entries(reference)?;
    println!(
        "== storage IO gate: {} vs {} (threshold {:.0}%) ==",
        current.display(),
        reference.display(),
        threshold * 100.0
    );
    let mut failed = false;
    for c in &current_entries {
        if !c.recovery_verified {
            eprintln!("FAIL  {}: WAL recovery verification failed", c.name);
            failed = true;
        }
    }
    for r in &reference_entries {
        let Some(c) = current_entries.iter().find(|c| c.name == r.name) else {
            eprintln!("FAIL  {}: missing from current storage profile", r.name);
            failed = true;
            continue;
        };
        let floor = r.batch_mean * (1.0 - threshold);
        let label = format!(
            "{:<12} ref batch {:>6.1}  now {:>6.1}  (floor {:>6.1})",
            r.name, r.batch_mean, c.batch_mean, floor
        );
        if c.batch_mean < floor {
            eprintln!("FAIL  {label}  (group commit stopped batching)");
            failed = true;
        } else {
            println!("ok    {label}");
        }
        if (c.records, c.syncs) != (r.records, r.syncs) {
            println!(
                "WARN  {}: deterministic observables drifted (records {} -> {}, \
                 syncs {} -> {}): refresh ci/storage_reference.json",
                r.name, r.records, c.records, r.syncs, c.syncs
            );
        }
        let delta = if r.append_ops_per_sec > 0.0 {
            (c.append_ops_per_sec - r.append_ops_per_sec) / r.append_ops_per_sec
        } else {
            0.0
        };
        if delta.abs() > threshold {
            println!(
                "WARN  {}: append throughput {:.0}/s vs ref {:.0}/s ({:+.1}%) \
                 (wall-clock, host-dependent)",
                r.name,
                c.append_ops_per_sec,
                r.append_ops_per_sec,
                delta * 100.0
            );
        }
    }
    for c in &current_entries {
        if !reference_entries.iter().any(|r| r.name == c.name) {
            println!(
                "WARN  {}: not in the reference (add it to ci/storage_reference.json \
                 or it is never gated)",
                c.name
            );
        }
    }
    Ok(failed)
}

/// Checks the live-plane profile; returns true when something failed. Only
/// a certification regression fails — wall-clock drift is warn-only because
/// live throughput depends on the host's cores and scheduler.
fn gate_live(current: &PathBuf, reference: &PathBuf, threshold: f64) -> Result<bool, String> {
    let current_entries = load_live_entries(current)?;
    let reference_entries = load_live_entries(reference)?;
    println!(
        "== live plane gate: {} vs {} (throughput warn-only, threshold {:.0}%) ==",
        current.display(),
        reference.display(),
        threshold * 100.0
    );
    let mut failed = false;
    for c in &current_entries {
        if !c.certified {
            eprintln!("FAIL  {}: live run no longer certifies", c.name);
            failed = true;
        }
    }
    for r in &reference_entries {
        let Some(c) = current_entries.iter().find(|c| c.name == r.name) else {
            println!("WARN  {}: missing from current live profile", r.name);
            continue;
        };
        let delta = if r.wall_ops_per_sec > 0.0 {
            (c.wall_ops_per_sec - r.wall_ops_per_sec) / r.wall_ops_per_sec
        } else {
            0.0
        };
        let label = format!(
            "{:<20} ref {:>8.0} op/s wall  now {:>8.0} op/s wall  {:>+7.1}%",
            r.name,
            r.wall_ops_per_sec,
            c.wall_ops_per_sec,
            delta * 100.0
        );
        if delta.abs() > threshold {
            println!("WARN  {label}  (wall-clock numbers are host-dependent)");
        } else {
            println!("ok    {label}");
        }
    }
    Ok(failed)
}

/// Gates the checker-scale certification speedups; returns true when
/// something failed.
fn gate_checker(current: &PathBuf, reference: &PathBuf, threshold: f64) -> Result<bool, String> {
    let current_entries = load_checker_entries(current)?;
    let reference_entries = load_checker_entries(reference)?;
    println!(
        "== checker scale gate: {} vs {} (threshold {:.0}%) ==",
        current.display(),
        reference.display(),
        threshold * 100.0
    );
    let mut failed = false;
    for r in &reference_entries {
        let Some(c) = current_entries.iter().find(|c| c.name == r.name) else {
            eprintln!("FAIL  {}: missing from current checker profile", r.name);
            failed = true;
            continue;
        };
        match (r.speedup, c.speedup) {
            (Some(ref_speedup), Some(cur_speedup)) => {
                let floor = ref_speedup * (1.0 - threshold);
                let label = format!(
                    "{:<26} ref {:>5.2}x  now {:>5.2}x  (floor {:>5.2}x)",
                    r.name, ref_speedup, cur_speedup, floor
                );
                if cur_speedup < floor {
                    eprintln!("FAIL  {label}");
                    failed = true;
                } else {
                    println!("ok    {label}");
                }
            }
            (Some(_), None) => {
                eprintln!("FAIL  {}: reference gates a speedup the current profile lacks", r.name);
                failed = true;
            }
            (None, _) => println!("ok    {:<26} (baseline row, not gated)", r.name),
        }
        if (c.ops, c.components) != (r.ops, r.components) {
            println!(
                "WARN  {}: observables drifted from the reference (ops {} -> {}, \
                 components {} -> {}): refresh ci/checker_scale_reference.json",
                r.name, r.ops, c.ops, r.components, c.components
            );
        }
    }
    for c in &current_entries {
        if !reference_entries.iter().any(|r| r.name == c.name) {
            println!(
                "WARN  {}: not in the reference (add it to ci/checker_scale_reference.json \
                 or its speedup is never gated)",
                c.name
            );
        }
    }
    Ok(failed)
}

/// Gates the engine-hotpath speedups; returns true when something failed.
fn gate_engine(current: &PathBuf, reference: &PathBuf, threshold: f64) -> Result<bool, String> {
    let current_profiles = load_engine_profiles(current)?;
    let reference_profiles = load_engine_profiles(reference)?;
    println!(
        "== engine hot-path gate: {} vs {} (threshold {:.0}%) ==",
        current.display(),
        reference.display(),
        threshold * 100.0
    );
    let mut failed = false;
    for r in &reference_profiles {
        let Some(c) = current_profiles.iter().find(|c| c.name == r.name) else {
            eprintln!("FAIL  {}: missing from current engine profile", r.name);
            failed = true;
            continue;
        };
        let floor = r.speedup * (1.0 - threshold);
        let label = format!(
            "{:<24} ref {:>5.2}x  now {:>5.2}x  (floor {:>5.2}x)",
            r.name, r.speedup, c.speedup, floor
        );
        if c.speedup < floor {
            eprintln!("FAIL  {label}");
            failed = true;
        } else {
            println!("ok    {label}");
        }
        if (c.messages, c.sim_ops) != (r.messages, r.sim_ops) {
            println!(
                "WARN  {}: simulated observables drifted from the reference \
                 (messages {} -> {}, ops {} -> {}): behaviour changed, refresh \
                 ci/engine_hotpath_reference.json",
                r.name, r.messages, c.messages, r.sim_ops, c.sim_ops
            );
        }
    }
    for c in &current_profiles {
        if !reference_profiles.iter().any(|r| r.name == c.name) {
            println!(
                "WARN  {}: not in the reference (add it to ci/engine_hotpath_reference.json \
                 or its speedup is never gated)",
                c.name
            );
        }
    }
    Ok(failed)
}

fn main() -> ExitCode {
    let mut current = PathBuf::from("BENCH_baseline.json");
    let mut reference = PathBuf::from("ci/bench_baseline_reference.json");
    let mut engine: Option<PathBuf> = None;
    let mut engine_reference = PathBuf::from("ci/engine_hotpath_reference.json");
    let mut engine_only = false;
    let mut checker: Option<PathBuf> = None;
    let mut checker_reference = PathBuf::from("ci/checker_scale_reference.json");
    let mut checker_only = false;
    let mut live: Option<PathBuf> = None;
    let mut live_reference = PathBuf::from("ci/live_reference.json");
    let mut live_only = false;
    let mut storage: Option<PathBuf> = None;
    let mut storage_reference = PathBuf::from("ci/storage_reference.json");
    let mut storage_only = false;
    let mut threshold = 0.25f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().expect("flag needs a value");
        match arg.as_str() {
            "--current" => current = PathBuf::from(value()),
            "--reference" => reference = PathBuf::from(value()),
            "--engine" => engine = Some(PathBuf::from(value())),
            "--engine-reference" => engine_reference = PathBuf::from(value()),
            "--engine-only" => engine_only = true,
            "--checker" => checker = Some(PathBuf::from(value())),
            "--checker-reference" => checker_reference = PathBuf::from(value()),
            "--checker-only" => checker_only = true,
            "--live" => live = Some(PathBuf::from(value())),
            "--live-reference" => live_reference = PathBuf::from(value()),
            "--live-only" => live_only = true,
            "--storage" => storage = Some(PathBuf::from(value())),
            "--storage-reference" => storage_reference = PathBuf::from(value()),
            "--storage-only" => storage_only = true,
            "--threshold" => threshold = value().parse().expect("bad --threshold"),
            other => {
                eprintln!("unknown argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    if engine_only && engine.is_none() {
        eprintln!("bench_gate: --engine-only requires --engine");
        return ExitCode::from(2);
    }
    if checker_only && checker.is_none() {
        eprintln!("bench_gate: --checker-only requires --checker");
        return ExitCode::from(2);
    }
    if live_only && live.is_none() {
        eprintln!("bench_gate: --live-only requires --live");
        return ExitCode::from(2);
    }
    if storage_only && storage.is_none() {
        eprintln!("bench_gate: --storage-only requires --storage");
        return ExitCode::from(2);
    }

    let mut engine_failed = false;
    if let Some(engine) = &engine {
        match gate_engine(engine, &engine_reference, threshold) {
            Ok(failed) => engine_failed = failed,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let mut checker_failed = false;
    if let Some(checker) = &checker {
        match gate_checker(checker, &checker_reference, threshold) {
            Ok(failed) => checker_failed = failed,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let mut live_failed = false;
    if let Some(live) = &live {
        match gate_live(live, &live_reference, threshold) {
            Ok(failed) => live_failed = failed,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let mut storage_failed = false;
    if let Some(storage) = &storage {
        match gate_storage(storage, &storage_reference, threshold) {
            Ok(failed) => storage_failed = failed,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if engine_only || checker_only || live_only || storage_only {
        if engine_failed {
            eprintln!("bench gate FAILED: engine hot-path speedup regressed beyond the threshold");
        }
        if checker_failed {
            eprintln!(
                "bench gate FAILED: checker-scale certification speedup regressed beyond \
                 the threshold"
            );
        }
        if live_failed {
            eprintln!("bench gate FAILED: a live-plane run no longer certifies");
        }
        if storage_failed {
            eprintln!("bench gate FAILED: the storage IO profile regressed");
        }
        if engine_failed || checker_failed || live_failed || storage_failed {
            return ExitCode::FAILURE;
        }
        println!("bench gate passed (profile gates only)");
        return ExitCode::SUCCESS;
    }

    let (current_entries, reference_entries) =
        match (load_entries(&current), load_entries(&reference)) {
            (Ok(c), Ok(r)) => (c, r),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench_gate: {e}");
                return ExitCode::from(2);
            }
        };

    println!(
        "== bench gate: {} vs {} (threshold {:.0}%) ==",
        current.display(),
        reference.display(),
        threshold * 100.0
    );
    let mut failed = false;
    for reference_entry in &reference_entries {
        let Some(current_entry) = current_entries.iter().find(|c| c.name == reference_entry.name)
        else {
            eprintln!("FAIL  {}: missing from current baseline", reference_entry.name);
            failed = true;
            continue;
        };
        let delta = if reference_entry.throughput > 0.0 {
            (current_entry.throughput - reference_entry.throughput) / reference_entry.throughput
        } else {
            0.0
        };
        let label = format!(
            "{:<34} ref {:>10.0}/s  now {:>10.0}/s  {:>+7.1}%",
            reference_entry.name,
            reference_entry.throughput,
            current_entry.throughput,
            delta * 100.0
        );
        if delta < -threshold {
            if reference_entry.wan {
                println!("WARN  {label}  (WAN config: warn-only)");
            } else {
                eprintln!("FAIL  {label}");
                failed = true;
            }
        } else if delta > threshold {
            println!("WARN  {label}  (large improvement: refresh the reference)");
        } else {
            println!("ok    {label}");
        }
    }
    for current_entry in &current_entries {
        if !reference_entries.iter().any(|r| r.name == current_entry.name) {
            println!(
                "WARN  {}: not in the reference (add it to ci/bench_baseline_reference.json)",
                current_entry.name
            );
        }
    }
    if failed || engine_failed || checker_failed || live_failed || storage_failed {
        if failed {
            eprintln!("bench gate FAILED: throughput regressed beyond the threshold");
        }
        if engine_failed {
            eprintln!("bench gate FAILED: engine hot-path speedup regressed beyond the threshold");
        }
        if checker_failed {
            eprintln!(
                "bench gate FAILED: checker-scale certification speedup regressed beyond \
                 the threshold"
            );
        }
        if live_failed {
            eprintln!("bench gate FAILED: a live-plane run no longer certifies");
        }
        if storage_failed {
            eprintln!("bench gate FAILED: the storage IO profile regressed");
        }
        return ExitCode::FAILURE;
    }
    println!("bench gate passed");
    ExitCode::SUCCESS
}
