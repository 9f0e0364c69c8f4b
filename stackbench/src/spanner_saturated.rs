//! `spanner-saturated`: the engine-profile Spanner-RSS configuration,
//! closed loop — a single-data-center cluster of 8 shards driven by 4
//! client nodes × 32 sessions × batch 8 (1,024 lanes), 50% read-only
//! transactions, uniform over 1M keys. Each run simulates, builds the
//! history (the witness is the protocol's timestamp order) and certifies
//! RSS on one thread.

use std::time::Instant;

use regular_core::checker::certificate::{check_witness, WitnessModel};
use regular_core::ComponentSplit;
use regular_session::{SessionConfig, SessionWorkload};
use regular_sim::net::LatencyMatrix;
use regular_sim::time::{SimDuration, SimTime};
use regular_spanner::prelude as spanner;

use crate::common::{
    failed_attempts, history_digest, latencies, median, peak_rss_mb, pooled_rate, secs_between,
    setup_estimate, Latencies, Outcome, TimedWorkload, WorkloadProbe, WARMUP_RUNS,
};
use crate::trace::Tracer;
use crate::Options;

/// Simulated milliseconds of load in one measured run.
pub const LOAD_MS: u64 = 1_000;
/// Simulated seconds a measured run drains in-flight operations.
const DRAIN_SECS: u64 = 5;
/// Simulated milliseconds of load of the longer twin of the traced run.
pub const TWIN_LOAD_MS: u64 = 2 * LOAD_MS;
/// Short runs made before each measured run only to measure set-up time
/// (see [`setup_estimate`]).
pub const SETUP_PROBES_PER_RUN: usize = 5;

/// The cluster of `regular_bench::runs::engine_profile_spanner`, with every
/// client's workload wrapped so the benchmark sees when the first operation
/// is issued (and, traced, how long generation takes).
fn cluster(
    seed: u64,
    stop_issuing_at: SimTime,
    drain: SimDuration,
    probe: &std::sync::Arc<WorkloadProbe>,
) -> spanner::ClusterSpec {
    let config = spanner::SpannerConfig::single_dc(spanner::Mode::SpannerRss, 8);
    let clients = (0..4)
        .map(|_| spanner::ClientSpec {
            region: 0,
            sessions: SessionConfig::closed_loop(32, SimDuration::ZERO).with_batch(8),
            workload: TimedWorkload::boxed(
                Box::new(spanner::UniformWorkload {
                    num_keys: 1_000_000,
                    ro_fraction: 0.5,
                    keys_per_txn: 3,
                }) as Box<dyn SessionWorkload>,
                probe,
            ),
        })
        .collect();
    spanner::ClusterSpec {
        config,
        net: LatencyMatrix::single_dc(),
        seed,
        clients,
        stop_issuing_at,
        drain,
        measure_from: SimTime::from_secs(0),
    }
}

/// The exact simulated observables of one run; repeated runs of a seed must
/// agree on all of them.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    digest: u64,
    history_ops: usize,
    messages: u64,
    net: (u64, u64, u64, u64),
    client: (u64, u64, u64, u64, u64),
    finished_at_us: u64,
}

/// One measured run.
struct Run {
    fingerprint: Fingerprint,
    sim_s: f64,
    history_s: f64,
    certify_s: f64,
    next_op: (u64, f64),
    latencies: Latencies,
    failed: u64,
    attempted: u64,
    ro_completed: u64,
    ro_waited_slow: u64,
    ro_blocked: u64,
    aborts: u64,
    timeout_retries: u64,
    /// Connected components of the history (traced runs only).
    components: usize,
}

impl Run {
    fn work_s(&self) -> f64 {
        self.sim_s + self.history_s + self.certify_s
    }
}

/// Simulates, builds the history, and certifies it.
fn one_run(seed: u64, load_ms: u64, tracer: &mut Tracer) -> Result<Run, String> {
    let probe = WorkloadProbe::new(tracer.enabled());
    let spec =
        cluster(seed, SimTime::from_millis(load_ms), SimDuration::from_secs(DRAIN_SECS), &probe);
    let (result, sim_s) = tracer.time("sim", "sim.run_cluster", || spanner::run_cluster(spec));
    let (calls, gen_s) = probe.next_op_time();
    tracer.derive("sim.run_cluster", "workloads", "workloads.next_op", gen_s);
    let ((history, witness), history_s) =
        tracer.time("session", "session.build_history", || spanner::build_history(&result));
    let (verdict, certify_s) = tracer.time("checker", "checker.check_witness", || {
        check_witness(&history, &witness, WitnessModel::Regular)
    });
    verdict.map_err(|v| format!("spanner-saturated seed {seed}: RSS violation: {v:?}"))?;
    let components = if tracer.enabled() {
        tracer.time("checker", "checker.components", || ComponentSplit::split(&history).len()).0
    } else {
        0
    };
    let ((fingerprint, lat, (failed, attempted)), _) =
        tracer.time("bench", "bench.summarize", || {
            let records = || result.completed.iter().flat_map(|(_, recs)| recs.iter());
            let s = result.client_stats;
            let n = result.net_stats;
            let fingerprint = Fingerprint {
                digest: history_digest(&history, &witness),
                history_ops: history.len(),
                messages: result.messages,
                net: (n.delivered, n.dropped, n.duplicated, n.expired),
                client: (
                    s.rw_completed,
                    s.ro_completed,
                    s.aborted_attempts,
                    s.ro_waited_slow,
                    s.timeout_retries,
                ),
                finished_at_us: result.finished_at.as_micros(),
            };
            (fingerprint, latencies(records().map(|r| (true, r))), failed_attempts(records()))
        });
    let s = result.client_stats;
    let run = Run {
        sim_s,
        history_s,
        certify_s,
        next_op: (calls, gen_s),
        latencies: lat,
        failed,
        attempted,
        ro_completed: s.ro_completed,
        ro_waited_slow: s.ro_waited_slow,
        ro_blocked: result.shard_stats.iter().map(|x| x.ro_blocked).sum(),
        aborts: s.aborted_attempts,
        timeout_retries: s.timeout_retries,
        components,
        fingerprint,
    };
    tracer.time("bench", "bench.drop", || drop((result, history, witness)));
    Ok(run)
}

/// Set-up times of [`SETUP_PROBES_PER_RUN`] runs that issue for one
/// simulated millisecond without drain: the wall time from building the
/// cluster to the first operation issued.
fn setup_probes(seed: u64, tracer: &mut Tracer) -> Vec<f64> {
    (0..SETUP_PROBES_PER_RUN)
        .map(|_| {
            let from = Instant::now();
            let probe = WorkloadProbe::new(false);
            let spec = cluster(seed, SimTime::from_millis(1), SimDuration::ZERO, &probe);
            let (result, _) =
                tracer.time("sim", "sim.run_cluster.setup_probe", || spanner::run_cluster(spec));
            tracer.time("bench", "bench.drop", || drop(result));
            secs_between(from, probe.first_op())
        })
        .collect()
}

pub fn run(opts: &Options, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut runs: Vec<Run> = Vec::new();
    let measure_from = Instant::now();
    let mut setups: Vec<Vec<f64>> = Vec::new();
    while runs.len() < opts.min_runs + WARMUP_RUNS
        || measure_from.elapsed().as_secs_f64() < opts.seconds
    {
        let root = tracer.begin("run", &format!("spanner-saturated seed {}", opts.seed));
        setups.push(setup_probes(opts.seed, tracer));
        let r = one_run(opts.seed, LOAD_MS, tracer);
        tracer.end(root);
        let r = r?;
        if let Some(first) = runs.first() {
            if first.fingerprint != r.fingerprint {
                return Err(format!(
                    "spanner-saturated seed {}: determinism guard failed: run 0 {:?} vs run {} {:?}",
                    opts.seed,
                    first.fingerprint,
                    runs.len(),
                    r.fingerprint
                ));
            }
        }
        runs.push(r);
    }
    let first = &runs[0];
    println!(
        "spanner-saturated seed {}: {} runs, history digest {:016x}, {} ops, {} messages, \
         finished at {} us: identical across runs",
        opts.seed,
        runs.len(),
        first.fingerprint.digest,
        first.fingerprint.history_ops,
        first.fingerprint.messages,
        first.fingerprint.finished_at_us
    );

    let mut out = Outcome {
        attempted: runs.iter().map(|r| r.fingerprint.history_ops as u64).sum(),
        metrics: Vec::new(),
    };
    let throughput = pooled_rate(&runs, |r| r.fingerprint.history_ops as f64, Run::work_s);
    if !tracer.enabled() {
        let lat = first.latencies;
        out.set("setup_s", setup_estimate(&setups));
        out.set("certified_ops_per_s", throughput);
        out.set("capacity_ops_per_s", throughput);
        out.set("op_p50_ms", lat.op_p50_ms);
        out.set("op_p99_ms", lat.op_p99_ms);
        out.set("ro_p99_ms", lat.ro_p99_ms);
        out.set("success_ratio", 1.0 - first.failed as f64 / first.attempted.max(1) as f64);
        out.set("peak_rss_mb", peak_rss_mb());
        return Ok(out);
    }

    // Traced: the same workload at twice the length gives the marginal cost
    // of a message late in a run.
    let root = tracer.begin("run", &format!("spanner-saturated seed {} twin x2", opts.seed));
    let twin = one_run(opts.seed, TWIN_LOAD_MS, tracer);
    tracer.end(root);
    let twin = twin?;
    let med = |f: fn(&Run) -> f64| median(&runs[WARMUP_RUNS..].iter().map(f).collect::<Vec<_>>());
    let sim_s = med(|r| r.sim_s);
    let msgs = first.fingerprint.messages as f64;
    let extra_msgs = twin.fingerprint.messages as f64 - msgs;
    let marginal = if extra_msgs > 0.0 { (twin.sim_s - sim_s) / extra_msgs * 1e6 } else { 0.0 };
    println!(
        "spanner-saturated twin: {LOAD_MS} ms of load: {msgs:.0} messages in {sim_s:.3} s; \
         {TWIN_LOAD_MS} ms of load: {} messages in {:.3} s",
        twin.fingerprint.messages, twin.sim_s
    );
    let (f, r) = (&first.fingerprint, first);
    let (calls, gen_s) = r.next_op;
    let certify_s = med(|r| r.certify_s);
    let op_count = f.history_ops.max(1) as f64;
    out.set("sim.run_s", sim_s);
    out.set("sim.messages", msgs);
    out.set("sim.us_per_message", sim_s / msgs.max(1.0) * 1e6);
    out.set("sim.marginal_us_per_message", marginal);
    out.set("sim.dropped", f.net.1 as f64);
    out.set("sim.duplicated", f.net.2 as f64);
    out.set("sim.expired", f.net.3 as f64);
    out.set("spanner.ro_slow_ratio", r.ro_waited_slow as f64 / r.ro_completed.max(1) as f64);
    out.set("spanner.ro_blocked_ratio", r.ro_blocked as f64 / r.ro_completed.max(1) as f64);
    out.set("spanner.messages_per_op", msgs / op_count);
    out.set("spanner.aborts", r.aborts as f64);
    out.set("spanner.timeout_retries", r.timeout_retries as f64);
    out.set("session.history_build_s", med(|r| r.history_s));
    out.set("workloads.next_op_ns", gen_s / calls.max(1) as f64 * 1e9);
    out.set("checker.certify_s", certify_s);
    out.set("checker.ops_per_s", op_count / certify_s);
    out.set("checker.components", r.components as f64);
    Ok(out)
}
