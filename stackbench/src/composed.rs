//! `composed-durable-faults`: Spanner-RSS and Gryff-RSC in one simulation
//! (the public `run_composed` / `certify_composed` pair), driven by the
//! photo-sharing app with libRSS fences and cross-process causal handoffs,
//! every protocol node on a write-ahead log over in-memory disks, under a
//! fault script written here: a shard crash, a replica crash, a region
//! partition and a 2% drop/duplicate window, repeated every
//! [`CYCLE_SECS`] simulated seconds. The combined history is certified RSS.

use std::time::Instant;

use regular_core::ComponentSplit;
use regular_sim::fault::{FaultSchedule, LinkScope};
use regular_sim::net::Region;
use regular_sim::time::{SimDuration, SimTime};
use regular_storage::{Durability, StorageRegistry, StorageSummary, WalOptions};
use regular_sweep::composed::{
    certify_composed, run_composed, ComposedOutcome, ComposedRunConfig, ComposedWorkload,
    SPANNER_SERVICE,
};

use crate::common::{
    failed_attempts, history_digest, latencies, median, peak_rss_mb, pooled_rate, setup_estimate,
    Outcome, WARMUP_RUNS,
};
use crate::trace::Tracer;
use crate::Options;

/// Composed app nodes (each two closed-loop sessions, batch 2).
pub const APPS: usize = 2;
/// Simulated seconds of load in one measured run.
pub const LOAD_SECS: u64 = 300;
/// Length of one fault cycle in simulated seconds.
pub const CYCLE_SECS: u64 = 30;
/// Zero-load deployments built to measure set-up time before each measured
/// run, after one unmeasured build (see [`setup_estimate`]).
pub const SETUP_SAMPLES_PER_RUN: usize = 10;

/// Flush policy of every node's log: 200 µs group commit, 16 KiB
/// segments, a checkpoint every 256 records, torn tails seeded from the
/// run's seed.
pub const GROUP_COMMIT_US: u64 = 200;
pub const SEGMENT_BYTES: u64 = 16 * 1024;
pub const CHECKPOINT_EVERY: u64 = 256;

/// The fault script: each cycle crashes one Spanner shard (nodes 0..3) for
/// 3 s, one Gryff replica (nodes 3..8) for 3 s, partitions one region for
/// 2 s, and drops and duplicates 2% of all messages for 5 s. Victims rotate
/// with the seed and the cycle.
pub fn fault_script(seed: u64, load_secs: u64) -> FaultSchedule {
    let at = |s: u64| SimTime::from_secs(s);
    let mut schedule = FaultSchedule::new();
    for cycle in 0..load_secs / CYCLE_SECS {
        let base = cycle * CYCLE_SECS;
        let k = seed.wrapping_add(cycle);
        let shard = (k % 3) as usize;
        let replica = 3 + (k % 5) as usize;
        let region = Region(((k + 1) % 5) as usize);
        schedule = schedule
            .crash(shard, at(base + 5), at(base + 8))
            .crash(replica, at(base + 11), at(base + 14))
            .partition_region(region, at(base + 16), at(base + 18))
            .drop_window(LinkScope::All, at(base + 20), at(base + 25), 0.02)
            .duplicate_window(LinkScope::All, at(base + 20), at(base + 25), 0.02);
    }
    schedule
}

/// The run configuration; `durable` picks WAL-backed nodes (a fresh
/// in-memory disk registry per run) or the volatile twin.
fn config(seed: u64, load_secs: u64, durable: bool) -> ComposedRunConfig {
    let durability = if durable {
        Durability::Wal(
            WalOptions::mem(StorageRegistry::new())
                .with_group_commit_us(GROUP_COMMIT_US)
                .with_segment_bytes(SEGMENT_BYTES)
                .with_checkpoint_every(CHECKPOINT_EVERY)
                .with_torn_tail_seed(seed),
        )
    } else {
        Durability::InMemory
    };
    ComposedRunConfig {
        num_apps: APPS,
        ops_per_service: 1,
        batch: 2,
        duration_secs: load_secs,
        drain_secs: 12,
        workload: ComposedWorkload::PhotoApp,
        faults: fault_script(seed, load_secs),
        op_timeout: Some(SimDuration::from_millis(1_500)),
        handoff_every: Some(8),
        durability,
        ..ComposedRunConfig::default()
    }
}

/// The exact simulated observables of one run.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    /// History digest; 0 for the volatile twin, which is never compared.
    digest: u64,
    history_ops: usize,
    net: (u64, u64, u64, u64),
    storage: StorageSummary,
    fences: u64,
    handoffs: u64,
}

struct Run {
    fingerprint: Fingerprint,
    sim_s: f64,
    certify_s: f64,
    op_p50_ms: f64,
    op_p99_ms: f64,
    ro_p99_ms: f64,
    failed: u64,
    attempted: u64,
    auto_fences: u64,
    components: usize,
}

fn one_run(seed: u64, durable: bool, tracer: &mut Tracer) -> Result<Run, String> {
    let (outcome, sim_s) = tracer
        .time("sim", "sim.run_composed", || run_composed(seed, &config(seed, LOAD_SECS, durable)));
    let (certified, certify_s) =
        tracer.time("checker", "checker.certify_composed", || certify_composed(&outcome, 1));
    let certified = certified.map_err(|v| {
        format!("composed-durable-faults seed {seed} (durable {durable}): {}", v.reason)
    })?;
    let components = if tracer.enabled() {
        let (n, _) = tracer.time("checker", "checker.components", || {
            ComponentSplit::split(&certified.history).len()
        });
        n
    } else {
        0
    };
    let (run, _) = tracer.time("bench", "bench.summarize", || {
        // Only durable runs are compared by the determinism guard, so the
        // volatile twin skips the digest.
        let digest = durable.then(|| history_digest(&certified.history, &certified.witness));
        summarize(&outcome, &certified.history, digest, sim_s, certify_s, components)
    });
    tracer.time("bench", "bench.drop", || drop((outcome, certified)));
    Ok(run)
}

fn summarize(
    outcome: &ComposedOutcome,
    history: &regular_core::History,
    digest: Option<u64>,
    sim_s: f64,
    certify_s: f64,
    components: usize,
) -> Run {
    let records = || outcome.apps.iter().flat_map(|a| a.completed.iter());
    let lat = latencies(records().map(|(svc, r)| (*svc == SPANNER_SERVICE.0 as usize, r)));
    let (failed, attempted) = failed_attempts(records().map(|(_, r)| r));
    let n = outcome.net_stats;
    Run {
        fingerprint: Fingerprint {
            digest: digest.unwrap_or(0),
            history_ops: history.len(),
            net: (n.delivered, n.dropped, n.duplicated, n.expired),
            storage: outcome.storage,
            fences: outcome.fences(),
            handoffs: outcome.handoffs(),
        },
        sim_s,
        certify_s,
        op_p50_ms: lat.op_p50_ms,
        op_p99_ms: lat.op_p99_ms,
        ro_p99_ms: lat.ro_p99_ms,
        failed,
        attempted,
        auto_fences: outcome.auto_fences(),
        components,
    }
}

/// Wall times to build the whole durable deployment with no load:
/// `run_composed` with zero load and drain constructs the engine, every
/// node and its log, and returns where the first operation would issue.
fn setup_samples(seed: u64, tracer: &mut Tracer) -> Vec<f64> {
    (0..=SETUP_SAMPLES_PER_RUN)
        .map(|_| {
            tracer
                .time("sim", "sim.setup_zero_load", || {
                    let cfg = ComposedRunConfig { drain_secs: 0, ..config(seed, 0, true) };
                    drop(run_composed(seed, &cfg))
                })
                .1
        })
        .skip(1)
        .collect()
}

pub fn run(opts: &Options, tracer: &mut Tracer) -> Result<Outcome, String> {
    let seed = opts.seed;

    // Traced: the volatile twin first, so every durable run's WAL share can
    // be drawn inside its simulation span.
    let twin = if tracer.enabled() {
        let root =
            tracer.begin("run", &format!("composed-durable-faults seed {seed} volatile twin"));
        let twin = one_run(seed, false, tracer);
        tracer.end(root);
        Some(twin?)
    } else {
        None
    };

    let mut runs: Vec<Run> = Vec::new();
    let mut setups: Vec<Vec<f64>> = Vec::new();
    let measure_from = Instant::now();
    while runs.len() < opts.min_runs + WARMUP_RUNS
        || measure_from.elapsed().as_secs_f64() < opts.seconds
    {
        let root = tracer.begin("run", &format!("composed-durable-faults seed {seed}"));
        setups.push(setup_samples(seed, tracer));
        let r = one_run(seed, true, tracer);
        if let (Ok(r), Some(t)) = (&r, &twin) {
            tracer.derive("sim.run_composed", "storage", "storage.wal", r.sim_s - t.sim_s);
        }
        tracer.end(root);
        let r = r?;
        if let Some(first) = runs.first() {
            if first.fingerprint != r.fingerprint {
                return Err(format!(
                    "composed-durable-faults seed {seed}: determinism guard failed: \
                     run 0 {:?} vs run {} {:?}",
                    first.fingerprint,
                    runs.len(),
                    r.fingerprint
                ));
            }
        }
        runs.push(r);
    }
    let first = &runs[0];
    let f = &first.fingerprint;
    println!(
        "composed-durable-faults seed {seed}: {} runs, history digest {:016x}, {} ops, \
         {} delivered / {} dropped / {} duplicated / {} expired messages, \
         {} WAL records, {} recoveries: identical across runs",
        runs.len(),
        f.digest,
        f.history_ops,
        f.net.0,
        f.net.1,
        f.net.2,
        f.net.3,
        f.storage.records,
        f.storage.recoveries
    );
    if f.storage.recoveries < 1 || f.net.1 == 0 || f.net.2 == 0 {
        return Err(format!(
            "composed-durable-faults seed {seed}: the fault script did not fire \
             ({} recoveries, {} dropped, {} duplicated)",
            f.storage.recoveries, f.net.1, f.net.2
        ));
    }

    let mut out = Outcome {
        attempted: runs.iter().map(|r| r.fingerprint.history_ops as u64).sum(),
        metrics: Vec::new(),
    };
    let ops = f.history_ops as f64;
    let med = |g: fn(&Run) -> f64| median(&runs[WARMUP_RUNS..].iter().map(g).collect::<Vec<_>>());
    let throughput =
        pooled_rate(&runs, |r| r.fingerprint.history_ops as f64, |r| r.sim_s + r.certify_s);
    let Some(twin) = twin else {
        out.set("setup_s", setup_estimate(&setups));
        out.set("certified_ops_per_s", throughput);
        out.set("capacity_ops_per_s", throughput);
        out.set("op_p50_ms", first.op_p50_ms);
        out.set("op_p99_ms", first.op_p99_ms);
        out.set("ro_p99_ms", first.ro_p99_ms);
        out.set("success_ratio", 1.0 - first.failed as f64 / first.attempted.max(1) as f64);
        out.set("peak_rss_mb", peak_rss_mb());
        return Ok(out);
    };

    let sim_s = med(|r| r.sim_s);
    let certify_s = med(|r| r.certify_s);
    let overhead_s = sim_s - twin.sim_s;
    println!(
        "composed-durable-faults twin: durable {sim_s:.3} s, volatile {:.3} s, WAL {overhead_s:.3} s \
         ({:.1}% of the durable simulation)",
        twin.sim_s,
        overhead_s / sim_s * 100.0
    );
    let s = &f.storage;
    let msgs = f.net.0 as f64;
    out.set("sim.run_s", sim_s);
    out.set("sim.messages", msgs);
    out.set("sim.us_per_message", sim_s / msgs.max(1.0) * 1e6);
    out.set("sim.dropped", f.net.1 as f64);
    out.set("sim.duplicated", f.net.2 as f64);
    out.set("sim.expired", f.net.3 as f64);
    out.set("librss.fences", f.fences as f64);
    out.set("librss.auto_fences", first.auto_fences as f64);
    out.set("librss.handoffs", f.handoffs as f64);
    out.set("storage.records", s.records as f64);
    out.set("storage.syncs", s.syncs as f64);
    out.set("storage.records_per_sync", s.records as f64 / s.syncs.max(1) as f64);
    out.set("storage.bytes_per_record", s.bytes as f64 / s.records.max(1) as f64);
    out.set("storage.checkpoints", s.checkpoints as f64);
    out.set("storage.recoveries", s.recoveries as f64);
    out.set("storage.replayed", s.replayed as f64);
    out.set("storage.torn_bytes", s.torn_bytes as f64);
    out.set("storage.overhead_s", overhead_s);
    out.set("checker.certify_s", certify_s);
    out.set("checker.ops_per_s", ops / certify_s);
    out.set("checker.components", first.components as f64);
    Ok(out)
}
