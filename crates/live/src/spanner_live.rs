//! Live-plane deployment of the Spanner-style protocol.
//!
//! Hosts the node list `regular_spanner::harness::run_cluster` runs — the
//! one [`build_spanner_nodes`] graph, shards first (ids `0..num_shards`),
//! then clients — but each node is an OS thread and time is the scaled
//! wall clock. The protocol crates are reused unmodified; only the
//! execution substrate changes.

use std::time::Duration;

use regular_session::{CompletedRecord, SessionStats};
use regular_sim::{LatencyMatrix, LatencyRecorder, MessageStats, NodeId, SimDuration, SimTime};
use regular_spanner::prelude::*;
use regular_spanner::shard::ShardStats;

use crate::exec::{run_live_transport, LiveConfig, LiveNode, LiveOutcome};
use crate::net::WireStats;
use crate::transport::{DeliveryRecord, TransportKind};

impl LiveNode<SpannerMsg> for SpannerNode {
    fn drain_completions(&mut self, out: &mut Vec<(usize, CompletedRecord)>) {
        if let SpannerNode::Client(c) = self {
            out.extend(c.completed.drain(..).map(|r| (0, r)));
        }
    }
}

/// Specification of a live cluster run (the live-plane analogue of
/// [`ClusterSpec`]).
pub struct SpannerLiveSpec {
    /// Protocol and topology configuration (including the fault schedule).
    pub config: SpannerConfig,
    /// Wide-area network model.
    pub net: LatencyMatrix,
    /// Random seed (derives per-thread RNG streams; live runs are *not*
    /// bit-deterministic — thread interleaving is real).
    pub seed: u64,
    /// Client nodes.
    pub clients: Vec<ClientSpec>,
    /// Clients stop issuing new transactions at this instant.
    pub stop_issuing_at: SimTime,
    /// Extra time to let in-flight transactions drain.
    pub drain: SimDuration,
    /// Measurements only cover completions at or after this instant.
    pub measure_from: SimTime,
    /// Simulated microseconds per wall microsecond.
    pub time_scale: u64,
    /// Record the transport's delivery log.
    pub record_deliveries: bool,
    /// Which transport carries the messages (mpsc, UDS, or TCP; see
    /// [`TransportKind`]).
    pub transport: TransportKind,
}

/// The outcome of a live cluster run.
pub struct SpannerLiveResult {
    /// Protocol variant that was run.
    pub mode: Mode,
    /// Read-write transaction latencies, in simulated time (comparable to
    /// simulator runs at any scale).
    pub rw_latencies: LatencyRecorder,
    /// Read-only transaction latencies (simulated time).
    pub ro_latencies: LatencyRecorder,
    /// Completed transactions per client node, in completion order.
    pub completed: Vec<(NodeId, Vec<CompletedRecord>)>,
    /// Throughput over the measurement window, in simulated txn/s.
    pub throughput: f64,
    /// Measured completions per wall-clock second.
    pub wall_throughput: f64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Aggregated client statistics.
    pub client_stats: ClientStats,
    /// Per-shard statistics.
    pub shard_stats: Vec<ShardStats>,
    /// Simulated time when the run stopped.
    pub finished_at: SimTime,
    /// Full message counters.
    pub net_stats: MessageStats,
    /// The transport's delivery log (empty unless recording was enabled).
    pub deliveries: Vec<DeliveryRecord>,
    /// Socket traffic counters (all zeros on the mpsc transport).
    pub wire: WireStats,
    /// Aggregated session-scheduler statistics across all clients
    /// (arrivals/shed matter for open-loop runs).
    pub session_stats: SessionStats,
}

/// Builds and runs a cluster on the live plane.
///
/// # Panics
///
/// Panics if the configuration is structurally invalid (see
/// [`SpannerConfig::validate`]).
pub fn run_cluster_live(spec: SpannerLiveSpec) -> SpannerLiveResult {
    let SpannerLiveSpec {
        config,
        net,
        seed,
        clients,
        stop_issuing_at,
        drain,
        measure_from,
        time_scale,
        record_deliveries,
        transport,
    } = spec;
    config.validate().expect("invalid Spanner configuration");

    // The simulator harness's node graph, so NodeIds line up across planes.
    let nodes = build_spanner_nodes(&config, &net, clients, stop_issuing_at);
    let shard_count = config.num_shards;
    let client_ids: Vec<NodeId> = (shard_count..nodes.len()).collect();

    let live_cfg = LiveConfig {
        seed,
        faults: config.faults.clone(),
        truetime_epsilon: config.truetime_epsilon,
        time_scale,
        stop_at: stop_issuing_at + drain,
        record_deliveries,
    };
    let outcome: LiveOutcome<SpannerNode> =
        run_live_transport(live_cfg, Box::new(net), nodes, transport);
    let LiveOutcome { nodes, completed, net_stats, deliveries, finished_at, wall, wire } = outcome;

    let mut rw = LatencyRecorder::new();
    let mut ro = LatencyRecorder::new();
    let mut client_stats = ClientStats::default();
    let mut per_client = Vec::new();
    let mut window_count = 0u64;
    let mut measured = 0u64;
    for (&id, recs) in client_ids.iter().zip(&completed[shard_count..]) {
        let recs: Vec<CompletedRecord> = recs.iter().map(|(_, r)| r.clone()).collect();
        for txn in &recs {
            if txn.finish >= measure_from && !txn.orphan && !txn.kind.is_fence() {
                let latency = txn.latency();
                if txn.kind.is_read_only() {
                    ro.record(latency);
                } else {
                    rw.record(latency);
                }
                measured += 1;
                if txn.finish < stop_issuing_at {
                    window_count += 1;
                }
            }
        }
        per_client.push((id, recs));
    }
    let mut shard_stats = Vec::new();
    let mut session_stats = SessionStats::default();
    for (i, node) in nodes.into_iter().enumerate() {
        match node {
            SpannerNode::Shard(s) => shard_stats.push(s.stats),
            SpannerNode::Client(c) => {
                let s = &c.service.stats;
                client_stats.rw_completed += s.rw_completed;
                client_stats.ro_completed += s.ro_completed;
                client_stats.fences += s.fences;
                client_stats.aborted_attempts += s.aborted_attempts;
                client_stats.ro_waited_slow += s.ro_waited_slow;
                client_stats.timeout_retries += s.timeout_retries;
                session_stats.merge(&c.stats);
                debug_assert!(i >= shard_count);
            }
        }
    }

    let window = stop_issuing_at.since(measure_from).as_micros();
    let throughput =
        if window > 0 { window_count as f64 * 1_000_000.0 / window as f64 } else { 0.0 };
    let wall_secs = wall.as_secs_f64();
    let wall_throughput = if wall_secs > 0.0 { measured as f64 / wall_secs } else { 0.0 };

    SpannerLiveResult {
        mode: config.mode,
        rw_latencies: rw,
        ro_latencies: ro,
        completed: per_client,
        throughput,
        wall_throughput,
        wall,
        client_stats,
        shard_stats,
        finished_at,
        net_stats,
        deliveries,
        wire,
        session_stats,
    }
}
