//! `live-spanner-uds`: the live plane over the Unix-domain-socket
//! transport at a fixed time scale — 3-shard WAN Spanner-RSS, two
//! open-loop Poisson client nodes over 500 contended keys, each phase's
//! history certified by the streaming checker. The `steady` phase offers a
//! fixed rate under the knee and gives the latencies (the median over
//! [`STEADY_RUNS`] runs); the `overload` phase offers a rate well past
//! capacity and gives `capacity_ops_per_s`. The
//! in-flight cap is sized so that it never binds (Little's law: a cap of
//! `c` ops per client bounds the rate at `c` ÷ mean latency), and the
//! overload phase must see more arrivals than completions. Both phases
//! print the arrival rate they achieved beside the nominal one: the
//! generator shares the cores with the plane, so under overload it falls
//! short of nominal, and what binds completions is the plane's share of
//! the CPU. `setup_s` comes from short closed-loop probe runs made before
//! each phase.

use std::time::Instant;

use regular_core::checker::certificate::WitnessModel;
use regular_live::{run_cluster_live, SpannerLiveResult, SpannerLiveSpec, TransportKind};
use regular_session::{CompletedRecord, SessionConfig, SessionWorkload};
use regular_sim::net::LatencyMatrix;
use regular_sim::time::{SimDuration, SimTime};
use regular_sim::NodeId;
use regular_spanner::prelude as spanner;
use regular_sweep::certify_streaming;

use crate::common::{
    failed_attempts, latencies, median, peak_rss_mb, secs_between, setup_estimate, Latencies,
    Outcome, TimedWorkload, WorkloadProbe,
};
use crate::trace::Tracer;
use crate::Options;

/// Simulated microseconds per wall microsecond.
pub const TIME_SCALE: u64 = 5;
/// Open-loop client nodes (the load-generating threads).
pub const CLIENTS: usize = 2;
/// Keys the clients contend on.
pub const KEYS: u64 = 500;
/// In-flight cap per client: far above what either phase keeps in flight.
pub const MAX_IN_FLIGHT: usize = 100_000;
/// Short runs made before each phase only to measure set-up time (see
/// [`setup_estimate`]).
pub const SETUP_PROBES_PER_PHASE: usize = 8;
/// Simulated milliseconds a set-up probe issues for, with no drain.
const SETUP_PROBE_MS: u64 = 20;
/// Closed-loop sessions per client in a set-up probe. They start at a
/// uniform jitter under 1 simulated ms, so the first operation issues
/// within a few wall microseconds of the clock's start.
const SETUP_PROBE_SESSIONS: usize = 64;
/// The overload phase must see at least this many arrivals per completion,
/// or it did not exceed capacity and its rate measures nothing.
const OVERLOAD_MARGIN: f64 = 1.2;

/// One phase: arrivals per simulated second per client, simulated seconds
/// of load, and simulated seconds to drain in-flight operations.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub name: &'static str,
    pub rate_per_client: f64,
    pub load_secs: u64,
    pub drain_secs: u64,
}

/// Arrivals per simulated second per client in the steady phase: about a
/// third of what the plane sustains at [`TIME_SCALE`] on two cores.
pub const STEADY_RATE: f64 = 100.0;
/// Share of `--seconds` the steady phase lasts, split into
/// [`STEADY_RUNS`] runs whose median latencies are reported, so that one
/// run stalled by its host does not set the figure.
pub const STEADY_SHARE: f64 = 0.6;
pub const STEADY_RUNS: usize = 3;
/// The overload phase: arrivals past what the plane sustains, for a fixed
/// 3 wall seconds (a backlog that keeps growing makes the achieved rate
/// depend on how long it grew, so the length does not follow `--seconds`).
pub const OVERLOAD: Phase =
    Phase { name: "overload", rate_per_client: 800.0, load_secs: 15, drain_secs: 2 };

/// One steady run for an invocation of `seconds` wall seconds (at least
/// one wall second of load).
pub fn steady(seconds: f64) -> Phase {
    let wall = (seconds * STEADY_SHARE / STEADY_RUNS as f64).max(1.0);
    Phase {
        name: "steady",
        rate_per_client: STEADY_RATE,
        load_secs: (wall * TIME_SCALE as f64).round() as u64,
        drain_secs: 2,
    }
}

fn clients(
    seed: u64,
    sessions: &SessionConfig,
    probe: &std::sync::Arc<WorkloadProbe>,
) -> Vec<spanner::ClientSpec> {
    (0..CLIENTS)
        .map(|i| spanner::ClientSpec {
            region: i % 3,
            sessions: sessions
                .clone()
                .with_workload_seed(seed.wrapping_mul(1_000_003).wrapping_add(i as u64)),
            workload: TimedWorkload::boxed(
                Box::new(spanner::UniformWorkload {
                    num_keys: KEYS,
                    ro_fraction: 0.5,
                    keys_per_txn: 2,
                }) as Box<dyn SessionWorkload>,
                probe,
            ),
        })
        .collect()
}

/// The deployment of a run whose clients follow `sessions` until
/// `stop_issuing_at`.
fn spec(
    seed: u64,
    sessions: SessionConfig,
    stop_issuing_at: SimTime,
    drain: SimDuration,
    transport: TransportKind,
    probe: &std::sync::Arc<WorkloadProbe>,
) -> SpannerLiveSpec {
    SpannerLiveSpec {
        config: spanner::SpannerConfig::wan(spanner::Mode::SpannerRss),
        net: LatencyMatrix::spanner_wan(),
        seed,
        clients: clients(seed, &sessions, probe),
        stop_issuing_at,
        drain,
        measure_from: SimTime::from_secs(0),
        time_scale: TIME_SCALE,
        record_deliveries: false,
        transport,
    }
}

/// The open-loop deployment of one phase.
fn phase_spec(
    seed: u64,
    phase: Phase,
    transport: TransportKind,
    probe: &std::sync::Arc<WorkloadProbe>,
) -> SpannerLiveSpec {
    spec(
        seed,
        SessionConfig::open_loop(phase.rate_per_client, MAX_IN_FLIGHT),
        SimTime::from_secs(phase.load_secs),
        SimDuration::from_secs(phase.drain_secs),
        transport,
        probe,
    )
}

/// Set-up times of [`SETUP_PROBES_PER_PHASE`] short closed-loop runs over
/// UDS, traced as one run: the wall time from the start of
/// `run_cluster_live` to the first operation issued. Closed-loop sessions
/// issue as soon as the clock starts, so no arrival time is subtracted.
fn setup_probes(seed: u64, tracer: &mut Tracer) -> Vec<f64> {
    let root = tracer.begin("run", &format!("live-spanner-uds seed {seed} setup probes"));
    let setups = (0..SETUP_PROBES_PER_PHASE)
        .map(|_| {
            let from = Instant::now();
            let probe = WorkloadProbe::new(false);
            let sessions = SessionConfig::closed_loop(SETUP_PROBE_SESSIONS, SimDuration::ZERO);
            let spec = spec(
                seed,
                sessions,
                SimTime::from_millis(SETUP_PROBE_MS),
                SimDuration::ZERO,
                TransportKind::Uds,
                &probe,
            );
            let (result, _) =
                tracer.time("live", "live.run_uds.setup_probe", || run_cluster_live(spec));
            tracer.time("bench", "bench.drop", || drop(result));
            secs_between(from, probe.first_op())
        })
        .collect();
    tracer.end(root);
    setups
}

/// One certified phase.
struct PhaseRun {
    run_s: f64,
    history_s: f64,
    certify_s: f64,
    history_ops: usize,
    latencies: Latencies,
    failed: u64,
    attempted: u64,
    arrivals: u64,
    shed: u64,
    peak_window: usize,
    components: usize,
    messages: u64,
    frames: u64,
    wire_bytes: u64,
    ro_completed: u64,
    ro_waited_slow: u64,
    ro_blocked: u64,
    aborts: u64,
    timeout_retries: u64,
    /// Arrivals per simulated second of load.
    arrivals_per_sim_s: f64,
    /// Completions per simulated second of load.
    achieved_per_sim_s: f64,
}

impl PhaseRun {
    fn certified_per_wall_s(&self) -> f64 {
        self.history_ops as f64 / (self.run_s + self.history_s + self.certify_s)
    }

    /// Little's-law ceiling of the in-flight cap, in ops per simulated
    /// second.
    fn cap_bound_per_sim_s(&self) -> f64 {
        (CLIENTS * MAX_IN_FLIGHT) as f64 / (self.latencies.op_mean_ms / 1_000.0).max(1e-9)
    }
}

fn certify(
    completed: &[(NodeId, Vec<CompletedRecord>)],
    what: &str,
    tracer: &mut Tracer,
) -> Result<(usize, f64, f64, usize, usize), String> {
    let ((history, witness), history_s) =
        tracer.time("session", "session.build_history", || spanner::build_history_from(completed));
    let (verdict, certify_s) = tracer.time("checker", "checker.certify_streaming", || {
        certify_streaming(&history, &witness, WitnessModel::Regular)
    });
    let stats = verdict.map_err(|v| format!("{what}: RSS violation (streaming): {v:?}"))?;
    let ops = history.len();
    tracer.time("bench", "bench.drop", || drop((history, witness)));
    Ok((ops, history_s, certify_s, stats.peak_window, stats.components))
}

fn live_phase(seed: u64, phase: Phase, tracer: &mut Tracer) -> Result<PhaseRun, String> {
    let probe = WorkloadProbe::new(false);
    let (result, run_s): (SpannerLiveResult, f64) =
        tracer.time("live", &format!("live.run_uds.{}", phase.name), || {
            run_cluster_live(phase_spec(seed, phase, TransportKind::Uds, &probe))
        });
    let what = format!("live-spanner-uds seed {seed} phase {}", phase.name);
    let (history_ops, history_s, certify_s, peak_window, components) =
        certify(&result.completed, &what, tracer)?;
    let (run, _) = tracer.time("bench", "bench.summarize", || summarize(phase, &result, run_s));
    tracer.time("bench", "bench.drop", || drop(result));
    Ok(PhaseRun { history_ops, history_s, certify_s, peak_window, components, ..run })
}

fn summarize(phase: Phase, result: &SpannerLiveResult, run_s: f64) -> PhaseRun {
    let records = || result.completed.iter().flat_map(|(_, r)| r.iter());
    let lat = latencies(records().map(|r| (true, r)));
    let (failed, attempted) = failed_attempts(records());
    let s = result.client_stats;
    let sess = result.session_stats;
    PhaseRun {
        run_s,
        history_s: 0.0,
        certify_s: 0.0,
        history_ops: 0,
        peak_window: 0,
        components: 0,
        latencies: lat,
        failed: failed + sess.shed,
        attempted: attempted + sess.shed,
        arrivals: sess.arrivals,
        shed: sess.shed,
        messages: result.net_stats.delivered,
        frames: result.wire.frames_tx + result.wire.frames_rx,
        wire_bytes: result.wire.bytes_tx + result.wire.bytes_rx,
        ro_completed: s.ro_completed,
        ro_waited_slow: s.ro_waited_slow,
        ro_blocked: result.shard_stats.iter().map(|x| x.ro_blocked).sum(),
        aborts: s.aborted_attempts,
        timeout_retries: s.timeout_retries,
        arrivals_per_sim_s: sess.arrivals as f64 / phase.load_secs as f64,
        achieved_per_sim_s: lat.samples as f64 / phase.load_secs as f64,
    }
}

/// Arrivals per simulated second the phase nominally offers.
fn nominal_per_sim_s(phase: &Phase) -> f64 {
    phase.rate_per_client * CLIENTS as f64
}

/// Prints what the phase offered, what arrived and what completed. The
/// clients' Poisson timers fire on the scaled wall clock and each arrival
/// schedules the next from when it fired, so a client thread short of CPU
/// generates fewer arrivals than nominal; the achieved arrival rate is
/// printed beside the nominal one.
fn print_phase(phase: &Phase, r: &PhaseRun) {
    println!(
        "live-spanner-uds {:<8}: offered {:.0} op/sim-s, arrived {:.0} op/sim-s ({:.0}% of \
         offered), achieved {:.0} op/sim-s, \
         cap-bound {:.0} op/sim-s (cap {} x {} clients / mean {:.1} ms), {} arrivals, {} shed, \
         {} ops certified in {:.3} s wall ({:.0} certified op/s), p50 {:.2} ms p99 {:.2} ms",
        phase.name,
        nominal_per_sim_s(phase),
        r.arrivals_per_sim_s,
        r.arrivals_per_sim_s / nominal_per_sim_s(phase) * 100.0,
        r.achieved_per_sim_s,
        r.cap_bound_per_sim_s(),
        MAX_IN_FLIGHT,
        CLIENTS,
        r.latencies.op_mean_ms,
        r.arrivals,
        r.shed,
        r.history_ops,
        r.run_s + r.history_s + r.certify_s,
        r.certified_per_wall_s(),
        r.latencies.op_p50_ms,
        r.latencies.op_p99_ms,
    );
}

/// The p50 of the steady phase's twin on the in-process mpsc transport
/// (traced runs).
fn mpsc_twin_p50(seed: u64, steady: Phase, tracer: &mut Tracer) -> f64 {
    let probe = WorkloadProbe::new(false);
    let (result, _) = tracer.time("live", "live.run_mpsc.steady", || {
        run_cluster_live(phase_spec(seed, steady, TransportKind::Mpsc, &probe))
    });
    let (lat, _) = tracer.time("bench", "bench.summarize", || {
        latencies(result.completed.iter().flat_map(|(_, r)| r.iter()).map(|r| (true, r)))
    });
    tracer.time("bench", "bench.drop", || drop(result));
    lat.op_p50_ms
}

/// The steady phase's simulator twin: same spec and seed on the
/// discrete-event engine. Returns `(p50, wall seconds, messages)`.
fn sim_twin(seed: u64, steady: Phase, tracer: &mut Tracer) -> (f64, f64, u64) {
    let probe = WorkloadProbe::new(false);
    let (result, secs) = tracer.time("sim", "sim.run_cluster.steady", || {
        let spec = phase_spec(seed, steady, TransportKind::Mpsc, &probe);
        spanner::run_cluster(spanner::ClusterSpec {
            config: spec.config,
            net: spec.net,
            seed: spec.seed,
            clients: spec.clients,
            stop_issuing_at: spec.stop_issuing_at,
            drain: spec.drain,
            measure_from: spec.measure_from,
        })
    });
    let (lat, _) = tracer.time("bench", "bench.summarize", || {
        latencies(result.completed.iter().flat_map(|(_, r)| r.iter()).map(|r| (true, r)))
    });
    let messages = result.messages;
    tracer.time("bench", "bench.drop", || drop(result));
    (lat.op_p50_ms, secs, messages)
}

pub fn run(opts: &Options, tracer: &mut Tracer) -> Result<Outcome, String> {
    let seed = opts.seed;
    let steady_phase = steady(opts.seconds);
    let run_phase = |phase: Phase, tracer: &mut Tracer| {
        let root = tracer.begin("run", &format!("live-spanner-uds seed {seed} {}", phase.name));
        let r = live_phase(seed, phase, tracer);
        tracer.end(root);
        let r = r?;
        print_phase(&phase, &r);
        if r.shed > 0 {
            return Err(format!(
                "live-spanner-uds seed {seed} phase {}: the in-flight cap bound ({} shed)",
                phase.name, r.shed
            ));
        }
        Ok(r)
    };
    let mut setups = Vec::new();
    let mut steady = Vec::with_capacity(STEADY_RUNS);
    for _ in 0..STEADY_RUNS {
        setups.push(setup_probes(seed, tracer));
        steady.push(run_phase(steady_phase, tracer)?);
    }
    setups.push(setup_probes(seed, tracer));
    let overload = run_phase(OVERLOAD, tracer)?;
    if overload.arrivals_per_sim_s < OVERLOAD_MARGIN * overload.achieved_per_sim_s {
        return Err(format!(
            "live-spanner-uds seed {seed}: the overload phase did not exceed capacity \
             ({:.0} arrivals vs {:.0} completions per simulated second)",
            overload.arrivals_per_sim_s, overload.achieved_per_sim_s
        ));
    }

    let mut out = Outcome {
        attempted: steady.iter().chain([&overload]).map(|r| r.history_ops as u64).sum(),
        metrics: Vec::new(),
    };
    let med = |f: fn(&PhaseRun) -> f64| median(&steady.iter().map(f).collect::<Vec<_>>());
    if !tracer.enabled() {
        let (failed, attempted) =
            steady.iter().fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
        out.set("setup_s", setup_estimate(&setups));
        out.set("certified_ops_per_s", med(PhaseRun::certified_per_wall_s));
        out.set("capacity_ops_per_s", overload.certified_per_wall_s());
        out.set("op_p50_ms", med(|r| r.latencies.op_p50_ms));
        out.set("op_p99_ms", med(|r| r.latencies.op_p99_ms));
        out.set("ro_p99_ms", med(|r| r.latencies.ro_p99_ms));
        out.set("success_ratio", 1.0 - failed as f64 / attempted.max(1) as f64);
        out.set("peak_rss_mb", peak_rss_mb());
        return Ok(out);
    }

    let root = tracer.begin("run", &format!("live-spanner-uds seed {seed} mpsc twin"));
    let mpsc_p50 = mpsc_twin_p50(seed, steady_phase, tracer);
    tracer.end(root);
    let root = tracer.begin("run", &format!("live-spanner-uds seed {seed} simulator twin"));
    let (sim_p50, sim_s, sim_messages) = sim_twin(seed, steady_phase, tracer);
    tracer.end(root);
    let uds_p50 = med(|r| r.latencies.op_p50_ms);
    println!(
        "live-spanner-uds steady p50: simulator {sim_p50:.3} ms, mpsc {mpsc_p50:.3} ms, \
         uds {uds_p50:.3} ms"
    );
    let r = &steady[0];
    let ops = r.history_ops.max(1) as f64;
    out.set("sim.run_s", sim_s);
    out.set("sim.messages", sim_messages as f64);
    out.set("sim.us_per_message", sim_s / (sim_messages.max(1)) as f64 * 1e6);
    out.set("spanner.ro_slow_ratio", r.ro_waited_slow as f64 / r.ro_completed.max(1) as f64);
    out.set("spanner.ro_blocked_ratio", r.ro_blocked as f64 / r.ro_completed.max(1) as f64);
    out.set("spanner.messages_per_op", r.messages as f64 / ops);
    out.set("spanner.aborts", r.aborts as f64);
    out.set("spanner.timeout_retries", r.timeout_retries as f64);
    out.set("session.history_build_s", r.history_s);
    let all = || steady.iter().chain([&overload]);
    out.set("session.arrivals", all().map(|r| r.arrivals as f64).sum());
    out.set("session.shed", all().map(|r| r.shed as f64).sum());
    out.set(
        "session.overload_arrival_share",
        overload.arrivals_per_sim_s / nominal_per_sim_s(&OVERLOAD),
    );
    out.set("checker.certify_s", r.certify_s);
    out.set("checker.ops_per_s", ops / r.certify_s);
    out.set("checker.peak_window", r.peak_window as f64);
    out.set("checker.components", r.components as f64);
    out.set("live.run_s", med(|r| r.run_s));
    out.set("live.frames_per_op", r.frames as f64 / ops);
    out.set("live.wire_bytes_per_op", r.wire_bytes as f64 / ops);
    out.set("live.messages_per_op", r.messages as f64 / ops);
    out.set("live.cap_bound_ratio", overload.achieved_per_sim_s / overload.cap_bound_per_sim_s());
    out.set("live.overhead_p50_ms", mpsc_p50 - sim_p50);
    out.set("wire.overhead_p50_ms", uds_p50 - mpsc_p50);
    Ok(out)
}
