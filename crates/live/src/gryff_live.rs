//! Live-plane deployment of the Gryff-style protocol.
//!
//! Hosts the node list `regular_gryff::harness::run_gryff` runs — the one
//! [`build_gryff_nodes`] graph, replicas first (ids `0..num_replicas`),
//! then clients — on OS threads with the scaled wall clock. The protocol
//! crate runs unmodified.

use std::time::Duration;

use regular_core::OpKind;
use regular_gryff::prelude::*;
use regular_gryff::replica::ReplicaStats;
use regular_session::{CompletedRecord, SessionStats};
use regular_sim::{LatencyMatrix, LatencyRecorder, MessageStats, NodeId, SimDuration, SimTime};

use crate::exec::{run_live_transport, LiveConfig, LiveNode, LiveOutcome};
use crate::net::WireStats;
use crate::transport::{DeliveryRecord, TransportKind};

impl LiveNode<GryffMsg> for GryffNode {
    fn drain_completions(&mut self, out: &mut Vec<(usize, CompletedRecord)>) {
        if let GryffNode::Client(c) = self {
            out.extend(c.completed.drain(..).map(|r| (0, r)));
        }
    }
}

/// Specification of a live deployment run (the live-plane analogue of
/// [`GryffClusterSpec`]).
pub struct GryffLiveSpec {
    /// Protocol and topology configuration (including the fault schedule).
    pub config: GryffConfig,
    /// Network model.
    pub net: LatencyMatrix,
    /// Random seed.
    pub seed: u64,
    /// Client nodes.
    pub clients: Vec<GryffClientSpec>,
    /// Clients stop issuing new operations at this instant.
    pub stop_issuing_at: SimTime,
    /// Extra time to let in-flight operations drain.
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

/// The outcome of a live deployment run.
pub struct GryffLiveResult {
    /// Protocol variant that was run.
    pub mode: Mode,
    /// Read latencies (simulated time).
    pub read_latencies: LatencyRecorder,
    /// Write latencies (simulated time).
    pub write_latencies: LatencyRecorder,
    /// Read-modify-write latencies (simulated time).
    pub rmw_latencies: LatencyRecorder,
    /// Completed operations per client node, in completion order.
    pub completed: Vec<(NodeId, Vec<CompletedRecord>)>,
    /// Throughput over the measurement window, in simulated op/s.
    pub throughput: f64,
    /// Measured completions per wall-clock second.
    pub wall_throughput: f64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Aggregated client statistics.
    pub client_stats: GryffClientStats,
    /// Per-replica statistics.
    pub replica_stats: Vec<ReplicaStats>,
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

/// Builds and runs a deployment on the live plane.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn run_gryff_live(spec: GryffLiveSpec) -> GryffLiveResult {
    let GryffLiveSpec {
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
    config.validate().expect("invalid Gryff configuration");

    let nodes = build_gryff_nodes(&config, clients, stop_issuing_at);
    let replica_count = config.num_replicas;
    let client_ids: Vec<NodeId> = (replica_count..nodes.len()).collect();

    let live_cfg = LiveConfig {
        seed,
        faults: config.faults.clone(),
        truetime_epsilon: SimDuration::ZERO,
        time_scale,
        stop_at: stop_issuing_at + drain,
        record_deliveries,
    };
    let outcome: LiveOutcome<GryffNode> =
        run_live_transport(live_cfg, Box::new(net), nodes, transport);
    let LiveOutcome { nodes, completed, net_stats, deliveries, finished_at, wall, wire } = outcome;

    let mut read = LatencyRecorder::new();
    let mut write = LatencyRecorder::new();
    let mut rmw = LatencyRecorder::new();
    let mut client_stats = GryffClientStats::default();
    let mut per_client = Vec::new();
    let mut window_count = 0u64;
    let mut measured = 0u64;
    for (&id, recs) in client_ids.iter().zip(&completed[replica_count..]) {
        let recs: Vec<CompletedRecord> = recs.iter().map(|(_, r)| r.clone()).collect();
        for op in &recs {
            if op.finish >= measure_from {
                let latency = op.latency();
                match op.kind {
                    OpKind::Read { .. } => read.record(latency),
                    OpKind::Write { .. } => write.record(latency),
                    OpKind::Rmw { .. } => rmw.record(latency),
                    _ => {}
                }
                measured += 1;
                if op.finish < stop_issuing_at {
                    window_count += 1;
                }
            }
        }
        per_client.push((id, recs));
    }
    let mut replica_stats = Vec::new();
    let mut session_stats = SessionStats::default();
    for node in nodes {
        match node {
            GryffNode::Replica(r) => replica_stats.push(r.stats),
            GryffNode::Client(c) => {
                let s = &c.service.stats;
                client_stats.reads += s.reads;
                client_stats.slow_reads += s.slow_reads;
                client_stats.writes += s.writes;
                client_stats.rmws += s.rmws;
                client_stats.fences += s.fences;
                client_stats.deps_piggybacked += s.deps_piggybacked;
                client_stats.timeout_retries += s.timeout_retries;
                session_stats.merge(&c.stats);
            }
        }
    }

    let window = stop_issuing_at.since(measure_from).as_micros();
    let throughput =
        if window > 0 { window_count as f64 * 1_000_000.0 / window as f64 } else { 0.0 };
    let wall_secs = wall.as_secs_f64();
    let wall_throughput = if wall_secs > 0.0 { measured as f64 / wall_secs } else { 0.0 };

    GryffLiveResult {
        mode: config.mode,
        read_latencies: read,
        write_latencies: write,
        rmw_latencies: rmw,
        completed: per_client,
        throughput,
        wall_throughput,
        wall,
        client_stats,
        replica_stats,
        finished_at,
        net_stats,
        deliveries,
        wire,
        session_stats,
    }
}
