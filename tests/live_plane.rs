//! Live execution plane integration tests: the protocol crates on real OS
//! threads and a scaled wall clock, certified with the same checkers as the
//! simulator.
//!
//! Three angles:
//!
//! * a differential check that a minimal zero-latency deployment certifies on
//!   both planes and makes comparable progress,
//! * the acceptance configuration — a 12-thread Spanner-RSS cluster driven
//!   past 30k operations and streaming-certified online,
//! * a faulted live run (crashes, partitions, drops on the wall clock) that
//!   still certifies.

use regular_seq::core::checker::certificate::WitnessModel;
use regular_seq::live::{run_cluster_live, SpannerLiveSpec, TransportKind};
use regular_seq::session::{SessionConfig, SessionWorkload};
use regular_seq::sim::{LatencyMatrix, SimDuration, SimTime};
use regular_seq::spanner::prelude::*;
use regular_seq::sweep::{certify_streaming, run_seed_with, Scenario};

fn uniform_clients(
    num_clients: usize,
    sessions_per_client: usize,
    num_keys: u64,
    seed: u64,
) -> Vec<ClientSpec> {
    (0..num_clients)
        .map(|i| ClientSpec {
            region: i % 3,
            sessions: SessionConfig::closed_loop(sessions_per_client, SimDuration::ZERO)
                .with_workload_seed(seed.wrapping_mul(1_000_003).wrapping_add(i as u64)),
            workload: Box::new(UniformWorkload { num_keys, ro_fraction: 0.5, keys_per_txn: 2 })
                as Box<dyn SessionWorkload>,
        })
        .collect()
}

/// The same minimal deployment — one client, one session, a zero-latency
/// single-region network — run through the event-queue simulator and the
/// live plane. Thread scheduling makes the live interleaving nondeterministic,
/// so the differential assertions are behavioural, not bitwise: both planes
/// must certify RSS, and the live run must make progress of the same order of
/// magnitude (its only added latency is real scheduling jitter mapped onto
/// the scaled clock).
#[test]
fn live_plane_matches_simulator_on_a_zero_latency_cluster() {
    let seed = 7;
    let stop = SimTime::from_secs(10);
    let drain = SimDuration::from_secs(5);
    let measure_from = SimTime::from_secs(1);
    // Three regions (the wan config spreads replicas over them), zero
    // latency and zero jitter between all of them.
    let zero = [0.0, 0.0, 0.0];
    let zero_net = || LatencyMatrix::from_rtt_ms(&[&zero, &zero, &zero], SimDuration::ZERO);

    let sim = run_cluster(ClusterSpec {
        config: SpannerConfig::wan(Mode::SpannerRss),
        net: zero_net(),
        seed,
        clients: uniform_clients(1, 1, 100, seed),
        stop_issuing_at: stop,
        drain,
        measure_from,
    });
    let (sim_history, sim_witness) = build_history(&sim);
    certify_streaming(&sim_history, &sim_witness, WitnessModel::Regular)
        .expect("simulator run must certify RSS");

    let live = run_cluster_live(SpannerLiveSpec {
        config: SpannerConfig::wan(Mode::SpannerRss),
        net: zero_net(),
        seed,
        clients: uniform_clients(1, 1, 100, seed),
        stop_issuing_at: stop,
        drain,
        measure_from,
        time_scale: 20,
        record_deliveries: true,
        transport: TransportKind::Mpsc,
    });
    let (live_history, live_witness) = build_history_from(&live.completed);
    certify_streaming(&live_history, &live_witness, WitnessModel::Regular)
        .expect("live run must certify RSS");

    assert!(
        sim_history.len() >= 50,
        "simulator baseline too small to compare ({} ops)",
        sim_history.len()
    );
    let ratio = live_history.len() as f64 / sim_history.len() as f64;
    assert!(
        (0.2..=5.0).contains(&ratio),
        "live plane progress diverges from the simulator: {} live vs {} sim ops",
        live_history.len(),
        sim_history.len()
    );

    // The recorded delivery schedule is the replay evidence (the seeded
    // determinism escape hatch): present, and in delivery order.
    assert!(!live.deliveries.is_empty(), "live run must record its delivery schedule");
    assert!(
        live.deliveries.windows(2).all(|w| w[0].seq < w[1].seq),
        "delivery records must be sequenced in delivery order"
    );
}

/// The acceptance configuration of the live plane: 3 shard threads, 8 client
/// threads, and the router (12 OS threads) driving well past 30k operations,
/// with the resulting history streaming-certified as RSS.
#[test]
fn live_spanner_stress_run_certifies_rss_online() {
    let seed = 11;
    let config = SpannerConfig::wan(Mode::SpannerRss);
    let num_shards = config.num_shards;
    let num_clients = 8;
    let result = run_cluster_live(SpannerLiveSpec {
        config,
        net: LatencyMatrix::spanner_wan(),
        seed,
        clients: uniform_clients(num_clients, 4, 500, seed),
        stop_issuing_at: SimTime::from_secs(280),
        drain: SimDuration::from_secs(8),
        measure_from: SimTime::from_secs(1),
        time_scale: 40,
        record_deliveries: false,
        transport: TransportKind::Mpsc,
    });

    let threads = num_shards + num_clients + 1;
    assert!(threads >= 8, "stress deployment must span at least 8 threads, got {threads}");

    let (history, witness) = build_history_from(&result.completed);
    assert!(
        history.len() >= 30_000,
        "stress run must complete at least 30k operations, got {}",
        history.len()
    );
    let stats = certify_streaming(&history, &witness, WitnessModel::Regular)
        .expect("live stress run must certify RSS through the streaming checker");
    assert!(stats.peak_window > 0, "streaming checker saw no concurrency window");
    assert!(result.wall_throughput > 0.0, "wall-clock throughput must be measured");
}

/// Crashes, partitions, drops, and duplicates injected on the wall clock
/// (the `live-spanner-faults` sweep scenario) must leave a certifiable
/// history: lost messages cost throughput and retries, never correctness.
#[test]
fn live_spanner_run_with_faults_still_certifies() {
    let run =
        run_seed_with(Scenario::parse("live-spanner-faults").unwrap(), 1, 2, Some(2_000), false);
    assert!(
        run.report.certified,
        "faulted live run must certify, got violation: {:?}",
        run.report.violation
    );
    assert!(run.artifact.is_none(), "certified run must not emit a failure artifact");
    assert!(
        run.report.dropped > 0,
        "fault schedule must actually drop messages (dropped = {})",
        run.report.dropped
    );
    assert!(
        run.report.dropped + run.report.expired + run.report.duplicated > 10,
        "fault plane barely engaged: dropped {} expired {} duplicated {}",
        run.report.dropped,
        run.report.expired,
        run.report.duplicated
    );
    assert!(run.report.history_ops > 500, "faulted run made too little progress");
}
