//! Sweepable scenarios: one seeded, certified simulator run per call.
//!
//! Each scenario builds a deterministic simulation from a seed (the engine
//! seed *and* the per-node workload RNG streams derive from it via
//! [`SessionConfig::with_workload_seed`]), runs it, assembles the recorded
//! history and serialization witness, and certifies the history against the
//! scenario's consistency model with the sharded certificate checker. A
//! failure yields a replayable [`FailureArtifact`].
//!
//! Run sizes are tuned so one seed takes on the order of a hundred
//! milliseconds: large enough that every history is far past the old 128-op
//! exact-search ceiling (thousands of operations), small enough that a
//! 32-seed × 3-scenario sweep finishes in CI minutes on one core.

use std::time::Instant;

use regular_core::checker::assemble::assemble_witness;
use regular_core::checker::certificate::{check_witness_parallel, WitnessModel};
use regular_core::history::HistoryIndex;
use regular_core::ComponentSplit;
use regular_gryff::prelude as gryff;
use regular_live::{
    run_cluster_live, run_gryff_live, DeliveryRecord, GryffLiveSpec, SpannerLiveSpec,
};
use regular_session::{CompletedRecord, SessionConfig, SessionWorkload};
use regular_sim::fault::{FaultSchedule, LinkScope};
use regular_sim::net::{LatencyMatrix, Region};
use regular_sim::time::{SimDuration, SimTime};
use regular_spanner::prelude as spanner;
use regular_storage::{Durability, StorageRegistry, StorageSummary, WalOptions};

use crate::artifact::{model_name, FailureArtifact};
use crate::composed::{
    certify_composed, run_composed, run_composed_live, ComposedRunConfig, ComposedWorkload,
};
use crate::stream::certify_streaming;

/// A sweepable scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Spanner-RSS over the three-region WAN topology; certified RSS.
    SpannerRss,
    /// Gryff-RSC over the five-region WAN topology; certified RSC.
    GryffRsc,
    /// The composed Spanner-RSS + Gryff-RSC deployment with libRSS fences;
    /// the combined history certified RSS.
    Composed,
    /// Spanner-RSS under a seed-driven fault script: a shard-leader crash,
    /// a region partition, and lossy/duplicating windows; still certified
    /// RSS.
    SpannerFaults,
    /// Gryff-RSC under a seed-driven fault script: a replica crash (losing
    /// an rmw coordinator), a region partition, and lossy windows; still
    /// certified RSC.
    GryffFaults,
    /// The composed deployment driven by the photo-sharing app with
    /// cross-process causal handoffs, under faults fired *during* service
    /// switches; the combined history still certified RSS.
    ComposedFaults,
    /// Spanner-RSS under asymmetric (one-way) link cuts: requests keep
    /// arriving while replies vanish, then the reverse direction fails —
    /// the grey-network failure mode; still certified RSS.
    SpannerOneWay,
    /// Spanner-RSS with short shard crashes timed to land inside commit-wait
    /// windows: prepared transactions lose their coordinator exactly between
    /// timestamp choice and decision release; still certified RSS.
    SpannerCommitCrash,
    /// The `spanner-faults` script with every shard running on a write-ahead
    /// log (`Durability::Wal`): crashes wipe all volatile state, recovery
    /// replays snapshot + log tail (seeded torn tails included), group
    /// commit batches fsyncs — and the history still certifies RSS.
    SpannerFaultsDurable,
    /// The `gryff-faults` script with every replica on a write-ahead log;
    /// still certified RSC.
    GryffFaultsDurable,
    /// The `composed-faults` script with both stores' nodes on write-ahead
    /// logs; the combined history still certified RSS.
    ComposedFaultsDurable,
    /// Spanner-RSS on the live execution plane (`regular-live`): every node
    /// an OS thread, time the scaled wall clock, completions certified RSS
    /// through the streaming checker. The sweep runs it over the in-process
    /// mpsc transport; the plane's socket backends (UDS/TCP, including
    /// multi-process deployments) are exercised by `live_bench --net`.
    /// Not bit-deterministic; the transport's delivery log rides along in
    /// failure artifacts.
    LiveSpannerRss,
    /// Gryff-RSC on the live execution plane; certified RSC.
    LiveGryffRsc,
    /// The composed two-store deployment with libRSS fences on the live
    /// execution plane; the combined history certified RSS.
    LiveComposed,
    /// Spanner-RSS on the live execution plane under the same seed-driven
    /// fault script as `spanner-faults`, the crash/partition windows
    /// reinterpreted on scaled wall-clock time; still certified RSS.
    LiveSpannerFaults,
}

impl Scenario {
    /// Every scenario, in sweep order.
    pub const ALL: [Scenario; 11] = [
        Scenario::SpannerRss,
        Scenario::GryffRsc,
        Scenario::Composed,
        Scenario::SpannerFaults,
        Scenario::GryffFaults,
        Scenario::ComposedFaults,
        Scenario::SpannerOneWay,
        Scenario::SpannerCommitCrash,
        Scenario::SpannerFaultsDurable,
        Scenario::GryffFaultsDurable,
        Scenario::ComposedFaultsDurable,
    ];

    /// The live-plane scenarios (not part of [`Scenario::ALL`]: live runs
    /// use real threads and scaled wall-clock time, so they are slower per
    /// seed and not bit-deterministic — sweeps opt into them explicitly).
    pub const LIVE: [Scenario; 4] = [
        Scenario::LiveSpannerRss,
        Scenario::LiveGryffRsc,
        Scenario::LiveComposed,
        Scenario::LiveSpannerFaults,
    ];

    /// True for scenarios that run on the live execution plane.
    pub fn is_live(&self) -> bool {
        matches!(
            self,
            Scenario::LiveSpannerRss
                | Scenario::LiveGryffRsc
                | Scenario::LiveComposed
                | Scenario::LiveSpannerFaults
        )
    }

    /// Stable scenario name (used in reports, artifacts, and CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::SpannerRss => "spanner-rss",
            Scenario::GryffRsc => "gryff-rsc",
            Scenario::Composed => "composed",
            Scenario::SpannerFaults => "spanner-faults",
            Scenario::GryffFaults => "gryff-faults",
            Scenario::ComposedFaults => "composed-faults",
            Scenario::SpannerOneWay => "spanner-oneway",
            Scenario::SpannerCommitCrash => "spanner-commit-crash",
            Scenario::SpannerFaultsDurable => "spanner-faults-durable",
            Scenario::GryffFaultsDurable => "gryff-faults-durable",
            Scenario::ComposedFaultsDurable => "composed-faults-durable",
            Scenario::LiveSpannerRss => "live-spanner-rss",
            Scenario::LiveGryffRsc => "live-gryff-rsc",
            Scenario::LiveComposed => "live-composed",
            Scenario::LiveSpannerFaults => "live-spanner-faults",
        }
    }

    /// Parses a scenario name (the inverse of [`Scenario::name`], with a few
    /// forgiving aliases).
    pub fn parse(name: &str) -> Option<Scenario> {
        match name.trim().to_ascii_lowercase().as_str() {
            "spanner-rss" | "spanner" | "rss" => Some(Scenario::SpannerRss),
            "gryff-rsc" | "gryff" | "rsc" => Some(Scenario::GryffRsc),
            "composed" | "multi-service" | "duo" => Some(Scenario::Composed),
            "spanner-faults" => Some(Scenario::SpannerFaults),
            "gryff-faults" => Some(Scenario::GryffFaults),
            "composed-faults" | "faults" | "chaos" => Some(Scenario::ComposedFaults),
            "spanner-oneway" | "oneway" | "grey" => Some(Scenario::SpannerOneWay),
            "spanner-commit-crash" | "commit-crash" => Some(Scenario::SpannerCommitCrash),
            "spanner-faults-durable" | "spanner-durable" => Some(Scenario::SpannerFaultsDurable),
            "gryff-faults-durable" | "gryff-durable" => Some(Scenario::GryffFaultsDurable),
            "composed-faults-durable" | "composed-durable" | "durable" => {
                Some(Scenario::ComposedFaultsDurable)
            }
            "live-spanner-rss" | "live-spanner" => Some(Scenario::LiveSpannerRss),
            "live-gryff-rsc" | "live-gryff" => Some(Scenario::LiveGryffRsc),
            "live-composed" => Some(Scenario::LiveComposed),
            "live-spanner-faults" | "live-faults" => Some(Scenario::LiveSpannerFaults),
            _ => None,
        }
    }

    /// The witness model this scenario is certified against.
    pub fn model(&self) -> WitnessModel {
        WitnessModel::Regular
    }

    /// True for the `*-durable` variants, which run every protocol node on a
    /// write-ahead log ([`Durability::Wal`]) instead of volatile state.
    pub fn is_durable(&self) -> bool {
        matches!(
            self,
            Scenario::SpannerFaultsDurable
                | Scenario::GryffFaultsDurable
                | Scenario::ComposedFaultsDurable
        )
    }

    /// The storage backing this scenario runs its protocol nodes on.
    fn durability(&self, seed: u64) -> Durability {
        if self.is_durable() {
            durable_wal(seed)
        } else {
            Durability::InMemory
        }
    }
}

/// The WAL configuration of the durable fault scenarios: deterministic
/// in-process devices, a group-commit window wide enough that fsyncs batch
/// under load, segments and checkpoints small enough that recovery exercises
/// snapshot-plus-log-tail replay within one sweep run, and torn tails seeded
/// from the sweep seed so partial-write recovery differs across the corpus.
fn durable_wal(seed: u64) -> Durability {
    Durability::Wal(
        WalOptions::mem(StorageRegistry::new())
            .with_group_commit_us(200)
            .with_segment_bytes(16 * 1024)
            .with_checkpoint_every(256)
            .with_torn_tail_seed(seed),
    )
}

/// Machine-readable outcome of one seeded run.
#[derive(Debug, Clone)]
pub struct SeedReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// The seed.
    pub seed: u64,
    /// True if the history certified.
    pub certified: bool,
    /// Violation description when certification failed.
    pub violation: Option<String>,
    /// Operations in the certified history.
    pub history_ops: usize,
    /// End-to-end operation latency p50 (milliseconds, simulated time).
    pub p50_ms: f64,
    /// End-to-end operation latency p99 (milliseconds, simulated time).
    pub p99_ms: f64,
    /// Wall-clock milliseconds for the full run (simulate + certify).
    pub wall_ms: f64,
    /// Wall-clock milliseconds of the certification step alone.
    pub cert_ms: f64,
    /// Messages dropped by the fault plane (verdicts, windows, cut links).
    pub dropped: u64,
    /// Extra message copies injected by duplicate windows.
    pub duplicated: u64,
    /// Messages that expired at a crashed node.
    pub expired: u64,
    /// Connected components of the certified history (shared keys,
    /// processes, messages), as found by `ComponentSplit` — a structural
    /// observable of the run; certification does not split on it.
    pub components: usize,
    /// High-water mark of the streaming reorder buffer; 0 on batch runs.
    pub peak_window: usize,
    /// Measured completions per wall-clock second on the live execution
    /// plane; 0 for simulator runs (their wall clock measures the host, not
    /// the system under test).
    pub wall_ops_per_sec: f64,
    /// Aggregated write-ahead-log counters across every protocol node (all
    /// zeroes outside the `*-durable` scenarios).
    pub storage: StorageSummary,
}

/// A seeded run: the report plus a replayable artifact when it failed.
pub struct SeedRun {
    /// The report.
    pub report: SeedReport,
    /// Present exactly when `report.certified` is false.
    pub artifact: Option<FailureArtifact>,
}

/// Simulated-latency percentiles (p50, p99) in milliseconds over the
/// non-orphan, non-fence completions.
fn latency_percentiles<'a>(records: impl Iterator<Item = &'a CompletedRecord>) -> (f64, f64) {
    let mut micros: Vec<u64> = records
        .filter(|r| !r.orphan && !r.kind.is_fence())
        .map(|r| r.latency().as_micros())
        .collect();
    if micros.is_empty() {
        return (0.0, 0.0);
    }
    micros.sort_unstable();
    let at = |q: f64| {
        let idx = ((micros.len() - 1) as f64 * q).round() as usize;
        micros[idx] as f64 / 1_000.0
    };
    (at(0.50), at(0.99))
}

/// The client-side operation timeout every fault scenario runs with.
const FAULT_OP_TIMEOUT: SimDuration = SimDuration::from_millis(1_500);

/// Per-message probability of the lossy windows in every fault scenario.
const FAULT_LOSS_P: f64 = 0.02;

/// The shared fault-script shape of every fault scenario: crash each listed
/// victim for its `[from, until)` window, partition one region, and run a
/// drop + duplicate window — all overlapping live client load.
fn fault_script(
    crashes: &[(usize, u64, u64)],
    cut_region: Region,
    cut: (u64, u64),
    lossy: (u64, u64),
) -> FaultSchedule {
    let mut schedule = FaultSchedule::new();
    for &(node, at, recover_at) in crashes {
        schedule = schedule.crash(node, SimTime::from_secs(at), SimTime::from_secs(recover_at));
    }
    schedule
        .partition_region(cut_region, SimTime::from_secs(cut.0), SimTime::from_secs(cut.1))
        .drop_window(
            LinkScope::All,
            SimTime::from_secs(lossy.0),
            SimTime::from_secs(lossy.1),
            FAULT_LOSS_P,
        )
        .duplicate_window(
            LinkScope::All,
            SimTime::from_secs(lossy.0),
            SimTime::from_secs(lossy.1),
            FAULT_LOSS_P,
        )
}

/// The seed-driven fault script of the `spanner-faults` scenario: the victim
/// shard and partitioned region rotate with the seed.
fn spanner_fault_schedule(seed: u64) -> FaultSchedule {
    let victim_shard = (seed % 3) as usize;
    let cut_region = Region(((seed + 1) % 3) as usize);
    fault_script(&[(victim_shard, 8, 12)], cut_region, (18, 21), (25, 32))
}

/// The seed-driven fault script of the `gryff-faults` scenario: the crashed
/// replica rotates with the seed (it coordinates rmws for keys equal to its
/// index mod 5).
fn gryff_fault_schedule(seed: u64) -> FaultSchedule {
    let victim_replica = (seed % 5) as usize;
    let cut_region = Region(((seed + 2) % 5) as usize);
    fault_script(&[(victim_replica, 8, 12)], cut_region, (18, 21), (25, 32))
}

/// The seed-driven script of the `spanner-oneway` scenario: two asymmetric
/// one-way cuts (first `a -> b`, later the reverse) plus a short two-way
/// lossy window, the victim pair rotating with the seed. One-way cuts are
/// the nastiest RSS stressor short of a crash: the receiver keeps serving
/// (and advancing its safe time) while every reply it sends evaporates, so
/// clients time out and retry transactions the shard already executed.
fn spanner_oneway_schedule(seed: u64) -> FaultSchedule {
    let a = Region((seed % 3) as usize);
    let b = Region(((seed + 1) % 3) as usize);
    FaultSchedule::new()
        .cut_link_oneway(a, b, SimTime::from_secs(8), SimTime::from_secs(12))
        .cut_link_oneway(b, a, SimTime::from_secs(18), SimTime::from_secs(21))
        .drop_window(LinkScope::All, SimTime::from_secs(25), SimTime::from_secs(29), FAULT_LOSS_P)
        .duplicate_window(
            LinkScope::All,
            SimTime::from_secs(25),
            SimTime::from_secs(29),
            FAULT_LOSS_P,
        )
}

/// The seed-driven script of the `spanner-commit-crash` scenario: three
/// short (400 ms) crashes of the victim shard. Under continuous load every
/// window lands on transactions that are mid commit-wait at that shard —
/// the coordinator has chosen `t_commit` and is waiting out TrueTime
/// uncertainty when it dies — so recovery must re-drive 2PC from the
/// decision log and deferred timers without ever releasing an outcome
/// early.
fn spanner_commit_crash_schedule(seed: u64) -> FaultSchedule {
    let victim = (seed % 3) as usize;
    let mut schedule = FaultSchedule::new();
    for start_s in [9u64, 19, 29] {
        let at = SimTime::from_millis(start_s * 1_000 + (seed % 7) * 50);
        let recover = SimTime::from_millis(start_s * 1_000 + (seed % 7) * 50 + 400);
        schedule = schedule.crash(victim, at, recover);
    }
    schedule
}

/// The `composed-faults` fault script. The photo app switches services on
/// *every* step, so each window fires during live libRSS service switches:
/// a Spanner shard crash (nodes 0..3), a Gryff replica crash (nodes 3..8),
/// a region partition, and lossy/duplicating windows.
fn composed_fault_schedule(seed: u64) -> FaultSchedule {
    let victim_shard = (seed % 3) as usize;
    let victim_replica = 3 + ((seed % 5) as usize);
    let cut_region = Region(((seed + 1) % 5) as usize);
    fault_script(&[(victim_shard, 5, 8), (victim_replica, 11, 14)], cut_region, (16, 18), (20, 25))
}

/// Approximate completed operations per simulated second of each scenario at
/// the sweep configuration (measured over seed sweeps); used to translate an
/// `--ops` target into a run duration.
fn ops_per_sim_sec(scenario: Scenario) -> f64 {
    match scenario {
        Scenario::SpannerRss => 57.0,
        Scenario::GryffRsc => 102.0,
        Scenario::Composed => 62.0,
        Scenario::SpannerFaults => 48.0,
        Scenario::GryffFaults => 97.0,
        Scenario::ComposedFaults => 30.0,
        Scenario::SpannerOneWay => 48.0,
        Scenario::SpannerCommitCrash => 54.0,
        // The WAL's group-commit window adds sub-millisecond latency, so the
        // durable variants track their volatile counterparts.
        Scenario::SpannerFaultsDurable => 48.0,
        Scenario::GryffFaultsDurable => 97.0,
        Scenario::ComposedFaultsDurable => 30.0,
        // The live plane runs the same configurations, so simulated-time op
        // rates carry over from the sim counterparts.
        Scenario::LiveSpannerRss => 57.0,
        Scenario::LiveGryffRsc => 102.0,
        Scenario::LiveComposed => 62.0,
        Scenario::LiveSpannerFaults => 48.0,
    }
}

/// Simulated microseconds per wall microsecond for the live sweep
/// scenarios: 40x compresses a 53-simulated-second Spanner run into ~1.3
/// wall seconds while keeping even the shortest WAN latency (a few hundred
/// simulated microseconds) well above the scheduler's wake-up jitter.
pub const LIVE_TIME_SCALE: u64 = 40;

/// The simulated seconds to issue load for: the scenario default, or the
/// duration expected to produce roughly `ops` operations when a target is
/// set. Clamped so fault scripts (which fire at fixed seconds) still get a
/// sane run, and so a typo cannot request a week of simulated time.
fn scaled_stop_secs(scenario: Scenario, ops: Option<u64>, default_secs: u64) -> u64 {
    match ops {
        None => default_secs,
        Some(target) => {
            let secs = (target as f64 / ops_per_sim_sec(scenario)).ceil() as u64;
            secs.clamp(5, 20_000)
        }
    }
}

/// Runs one seed of `scenario`, certifying the resulting history with the
/// witness check sharded across `check_threads` threads.
pub fn run_seed(scenario: Scenario, seed: u64, check_threads: usize) -> SeedRun {
    run_seed_with(scenario, seed, check_threads, None, false)
}

/// [`run_seed`] with scale knobs: `ops` scales the run duration to target
/// roughly that many operations, and `stream` certifies through the windowed
/// streaming checker (completion-order arrival, bounded reorder buffer)
/// instead of the batch parallel checker.
pub fn run_seed_with(
    scenario: Scenario,
    seed: u64,
    check_threads: usize,
    ops: Option<u64>,
    stream: bool,
) -> SeedRun {
    let started = Instant::now();
    // Live scenarios always certify through the streaming checker:
    // completions arrive in completion order (there is no global event queue
    // to replay), and the acceptance bar for the plane is *online*
    // certification.
    let stream = stream || scenario.is_live();
    let mut wall_ops_per_sec = 0.0;
    let mut deliveries: Vec<DeliveryRecord> = Vec::new();
    let mut storage = StorageSummary::default();
    let (history, witness, p50_ms, p99_ms, net, pre_violation) = match scenario {
        Scenario::SpannerRss
        | Scenario::SpannerFaults
        | Scenario::SpannerOneWay
        | Scenario::SpannerCommitCrash
        | Scenario::SpannerFaultsDurable => {
            let faults = match scenario {
                Scenario::SpannerFaults | Scenario::SpannerFaultsDurable => {
                    Some(spanner_fault_schedule(seed))
                }
                Scenario::SpannerOneWay => Some(spanner_oneway_schedule(seed)),
                Scenario::SpannerCommitCrash => Some(spanner_commit_crash_schedule(seed)),
                _ => None,
            };
            let result = run_spanner_seed(
                seed,
                faults,
                scenario.durability(seed),
                scaled_stop_secs(scenario, ops, 45),
            );
            storage = result.storage;
            let (p50, p99) =
                latency_percentiles(result.completed.iter().flat_map(|(_, recs)| recs.iter()));
            let (history, witness) = spanner::build_history(&result);
            (history, witness, p50, p99, result.net_stats, None)
        }
        Scenario::LiveSpannerRss | Scenario::LiveSpannerFaults => {
            let faults = match scenario {
                Scenario::LiveSpannerFaults => Some(spanner_fault_schedule(seed)),
                _ => None,
            };
            let result = run_spanner_live_seed(seed, faults, scaled_stop_secs(scenario, ops, 45));
            wall_ops_per_sec = result.wall_throughput;
            deliveries = result.deliveries;
            let (p50, p99) =
                latency_percentiles(result.completed.iter().flat_map(|(_, recs)| recs.iter()));
            let (history, witness) = spanner::build_history_from(&result.completed);
            (history, witness, p50, p99, result.net_stats, None)
        }
        Scenario::LiveGryffRsc => {
            let result = run_gryff_live_seed(seed, scaled_stop_secs(scenario, ops, 45));
            wall_ops_per_sec = result.wall_throughput;
            deliveries = result.deliveries;
            let (p50, p99) =
                latency_percentiles(result.completed.iter().flat_map(|(_, recs)| recs.iter()));
            let net = result.net_stats;
            let (history, edges) = gryff::build_history_from(&result.completed);
            match assemble_witness(&history, &edges, WitnessModel::Regular) {
                Ok(witness) => (history, witness, p50, p99, net, None),
                Err(e) => {
                    let reason = format!(
                        "carstamp/process-order constraints are cyclic ({} ops unordered)",
                        e.unordered
                    );
                    (history, Vec::new(), p50, p99, net, Some(reason))
                }
            }
        }
        Scenario::GryffRsc | Scenario::GryffFaults | Scenario::GryffFaultsDurable => {
            let faults = match scenario {
                Scenario::GryffFaults | Scenario::GryffFaultsDurable => {
                    Some(gryff_fault_schedule(seed))
                }
                _ => None,
            };
            let result = run_gryff_seed(
                seed,
                faults,
                scenario.durability(seed),
                scaled_stop_secs(scenario, ops, 45),
            );
            storage = result.storage;
            let (p50, p99) =
                latency_percentiles(result.completed.iter().flat_map(|(_, recs)| recs.iter()));
            let net = result.net_stats;
            let (history, edges) = gryff::build_history(&result);
            match assemble_witness(&history, &edges, WitnessModel::Regular) {
                Ok(witness) => (history, witness, p50, p99, net, None),
                Err(e) => {
                    let reason = format!(
                        "carstamp/process-order constraints are cyclic ({} ops unordered)",
                        e.unordered
                    );
                    (history, Vec::new(), p50, p99, net, Some(reason))
                }
            }
        }
        Scenario::Composed
        | Scenario::ComposedFaults
        | Scenario::ComposedFaultsDurable
        | Scenario::LiveComposed => {
            let duration_secs = scaled_stop_secs(scenario, ops, 30);
            let mut config = match scenario {
                Scenario::ComposedFaults | Scenario::ComposedFaultsDurable => {
                    composed_faults_seed_config(seed, duration_secs)
                }
                _ => composed_seed_config(duration_secs),
            };
            config.durability = scenario.durability(seed);
            let outcome = if scenario.is_live() {
                let live = run_composed_live(seed, &config, LIVE_TIME_SCALE, true);
                wall_ops_per_sec = live.wall_throughput;
                deliveries = live.deliveries;
                live.outcome
            } else {
                run_composed(seed, &config)
            };
            let (p50, p99) = latency_percentiles(
                outcome.apps.iter().flat_map(|a| a.completed.iter().map(|(_, r)| r)),
            );
            let net = outcome.net_stats;
            storage = outcome.storage;
            let cert_started = Instant::now();
            let (certified, violation, history_ops, components, peak_window, artifact) =
                match certify_composed(&outcome, check_threads) {
                    Ok(ok) => {
                        let components = ComponentSplit::split(&ok.history).len();
                        match stream_verdict(&ok.history, &ok.witness, scenario.model(), stream) {
                            Ok(peak) => (true, None, ok.history.len(), components, peak, None),
                            Err(reason) => (
                                false,
                                Some(reason.clone()),
                                ok.history.len(),
                                components,
                                0,
                                Some(FailureArtifact {
                                    scenario: scenario.name().to_string(),
                                    seed,
                                    model: scenario.model(),
                                    violation: reason,
                                    witness: ok.witness,
                                    history: ok.history,
                                    deliveries,
                                    durability: durability_tag(scenario),
                                    schedule: None,
                                    coverage: None,
                                }),
                            ),
                        }
                    }
                    Err(v) => (
                        false,
                        Some(v.reason.clone()),
                        v.history.len(),
                        ComponentSplit::split(&v.history).len(),
                        0,
                        Some(FailureArtifact {
                            scenario: scenario.name().to_string(),
                            seed,
                            model: scenario.model(),
                            violation: v.reason,
                            witness: v.witness,
                            history: v.history,
                            deliveries,
                            durability: durability_tag(scenario),
                            schedule: None,
                            coverage: None,
                        }),
                    ),
                };
            return SeedRun {
                report: SeedReport {
                    scenario: scenario.name(),
                    seed,
                    certified,
                    violation,
                    history_ops,
                    p50_ms: p50,
                    p99_ms: p99,
                    wall_ms: started.elapsed().as_secs_f64() * 1_000.0,
                    cert_ms: cert_started.elapsed().as_secs_f64() * 1_000.0,
                    dropped: net.dropped,
                    duplicated: net.duplicated,
                    expired: net.expired,
                    components,
                    peak_window,
                    wall_ops_per_sec,
                    storage,
                },
                artifact,
            };
        }
    };

    let cert_started = Instant::now();
    let components = ComponentSplit::split(&history).len();
    let verdict: Result<usize, String> = match pre_violation {
        Some(reason) => Err(reason),
        None if stream => stream_verdict(&history, &witness, scenario.model(), true),
        None => {
            let index = HistoryIndex::new(&history);
            check_witness_parallel(&history, &index, &witness, scenario.model(), check_threads)
                .map(|()| 0)
                .map_err(|v| format!("{} violation: {v:?}", model_name(scenario.model())))
        }
    };
    let cert_ms = cert_started.elapsed().as_secs_f64() * 1_000.0;
    let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
    let report = |certified: bool, violation: Option<String>, peak_window: usize| SeedReport {
        scenario: scenario.name(),
        seed,
        certified,
        violation,
        history_ops: history.len(),
        p50_ms,
        p99_ms,
        wall_ms,
        cert_ms,
        dropped: net.dropped,
        duplicated: net.duplicated,
        expired: net.expired,
        components,
        peak_window,
        wall_ops_per_sec,
        storage,
    };
    match verdict {
        Ok(peak_window) => SeedRun { report: report(true, None, peak_window), artifact: None },
        Err(reason) => SeedRun {
            report: report(false, Some(reason.clone()), 0),
            artifact: Some(FailureArtifact {
                scenario: scenario.name().to_string(),
                seed,
                model: scenario.model(),
                violation: reason,
                witness,
                history,
                deliveries,
                durability: durability_tag(scenario),
                schedule: None,
                coverage: None,
            }),
        },
    }
}

/// The durability tag a failure artifact carries: `Some("wal")` for the
/// durable scenarios, `None` (omitted from the JSON, keeping pre-storage
/// artifacts byte-identical) otherwise.
fn durability_tag(scenario: Scenario) -> Option<String> {
    scenario.is_durable().then(|| "wal".to_string())
}

/// The streaming leg of certification: when `stream` is set, runs the
/// windowed checker over the witness and returns the reorder buffer's peak
/// depth; otherwise a no-op. The verdict is equivalent to the batch check.
fn stream_verdict(
    history: &regular_core::History,
    witness: &[regular_core::OpId],
    model: WitnessModel,
    stream: bool,
) -> Result<usize, String> {
    if !stream {
        return Ok(0);
    }
    certify_streaming(history, witness, model)
        .map(|stats| stats.peak_window)
        .map_err(|v| format!("{} violation (streaming): {v:?}", model_name(model)))
}

/// Spanner-RSS sweep configuration: WAN topology, three client nodes with
/// two closed-loop sessions each, moderately contended uniform workload.
/// With a fault schedule, clients run with the standard operation timeout.
fn run_spanner_seed(
    seed: u64,
    faults: Option<FaultSchedule>,
    durability: Durability,
    stop_secs: u64,
) -> spanner::RunResult {
    let mut config =
        spanner::SpannerConfig::wan(spanner::Mode::SpannerRss).with_durability(durability);
    if let Some(faults) = faults {
        config = config.with_faults(faults, FAULT_OP_TIMEOUT);
    }
    let net = LatencyMatrix::spanner_wan();
    let clients = (0..3)
        .map(|i| spanner::ClientSpec {
            region: i % 3,
            sessions: SessionConfig::closed_loop(4, SimDuration::ZERO)
                .with_workload_seed(seed.wrapping_mul(1_000_003).wrapping_add(i as u64)),
            workload: Box::new(spanner::UniformWorkload {
                num_keys: 250,
                ro_fraction: 0.5,
                keys_per_txn: 2,
            }) as Box<dyn SessionWorkload>,
        })
        .collect();
    spanner::run_cluster(spanner::ClusterSpec {
        config,
        net,
        seed,
        clients,
        stop_issuing_at: SimTime::from_secs(stop_secs),
        drain: SimDuration::from_secs(8),
        measure_from: SimTime::from_secs(1),
    })
}

/// Gryff-RSC sweep configuration: five-region WAN, one client per region
/// with two closed-loop sessions, conflict-heavy YCSB mix. With a fault
/// schedule, clients run with the standard operation timeout.
fn run_gryff_seed(
    seed: u64,
    faults: Option<FaultSchedule>,
    durability: Durability,
    stop_secs: u64,
) -> gryff::GryffRunResult {
    let mut config = gryff::GryffConfig::wan(gryff::Mode::GryffRsc).with_durability(durability);
    if let Some(faults) = faults {
        config = config.with_faults(faults, FAULT_OP_TIMEOUT);
    }
    let net = LatencyMatrix::gryff_wan();
    let clients = (0..5)
        .map(|i| gryff::GryffClientSpec {
            region: i % 5,
            sessions: SessionConfig::closed_loop(3, SimDuration::ZERO)
                .with_workload_seed(seed.wrapping_mul(999_983).wrapping_add(i as u64)),
            workload: Box::new(gryff::ConflictWorkload::ycsb(
                0.5,
                0.25,
                seed.wrapping_add(i as u64),
            )) as Box<dyn SessionWorkload>,
        })
        .collect();
    gryff::run_gryff(gryff::GryffClusterSpec {
        config,
        net,
        seed,
        clients,
        stop_issuing_at: SimTime::from_secs(stop_secs),
        drain: SimDuration::from_secs(8),
        measure_from: SimTime::from_secs(1),
    })
}

/// The sweep configuration of [`run_spanner_seed`], deployed on the live
/// execution plane (same topology, workload, and per-client workload seeds;
/// real threads and the scaled wall clock instead of the event queue).
fn run_spanner_live_seed(
    seed: u64,
    faults: Option<FaultSchedule>,
    stop_secs: u64,
) -> regular_live::SpannerLiveResult {
    let mut config = spanner::SpannerConfig::wan(spanner::Mode::SpannerRss);
    if let Some(faults) = faults {
        config = config.with_faults(faults, FAULT_OP_TIMEOUT);
    }
    let net = LatencyMatrix::spanner_wan();
    let clients = (0..3)
        .map(|i| spanner::ClientSpec {
            region: i % 3,
            sessions: SessionConfig::closed_loop(4, SimDuration::ZERO)
                .with_workload_seed(seed.wrapping_mul(1_000_003).wrapping_add(i as u64)),
            workload: Box::new(spanner::UniformWorkload {
                num_keys: 250,
                ro_fraction: 0.5,
                keys_per_txn: 2,
            }) as Box<dyn SessionWorkload>,
        })
        .collect();
    run_cluster_live(SpannerLiveSpec {
        config,
        net,
        seed,
        clients,
        stop_issuing_at: SimTime::from_secs(stop_secs),
        drain: SimDuration::from_secs(8),
        measure_from: SimTime::from_secs(1),
        time_scale: LIVE_TIME_SCALE,
        record_deliveries: true,
        transport: regular_live::TransportKind::Mpsc,
    })
}

/// The sweep configuration of [`run_gryff_seed`] on the live execution
/// plane.
fn run_gryff_live_seed(seed: u64, stop_secs: u64) -> regular_live::GryffLiveResult {
    let config = gryff::GryffConfig::wan(gryff::Mode::GryffRsc);
    let net = LatencyMatrix::gryff_wan();
    let clients = (0..5)
        .map(|i| gryff::GryffClientSpec {
            region: i % 5,
            sessions: SessionConfig::closed_loop(3, SimDuration::ZERO)
                .with_workload_seed(seed.wrapping_mul(999_983).wrapping_add(i as u64)),
            workload: Box::new(gryff::ConflictWorkload::ycsb(
                0.5,
                0.25,
                seed.wrapping_add(i as u64),
            )) as Box<dyn SessionWorkload>,
        })
        .collect();
    run_gryff_live(GryffLiveSpec {
        config,
        net,
        seed,
        clients,
        stop_issuing_at: SimTime::from_secs(stop_secs),
        drain: SimDuration::from_secs(8),
        measure_from: SimTime::from_secs(1),
        time_scale: LIVE_TIME_SCALE,
        record_deliveries: true,
        transport: regular_live::TransportKind::Mpsc,
    })
}

/// Composed sweep configuration (smaller than the integration test's, to
/// keep per-seed cost down).
fn composed_seed_config(duration_secs: u64) -> ComposedRunConfig {
    ComposedRunConfig {
        num_apps: 3,
        ops_per_service: 3,
        batch: 2,
        duration_secs,
        drain_secs: 10,
        ..ComposedRunConfig::default()
    }
}

/// Composed-faults sweep configuration: the photo-sharing app (every step a
/// fenced service switch), periodic cross-process causal handoffs, and the
/// seed-driven fault script of [`composed_fault_schedule`].
fn composed_faults_seed_config(seed: u64, duration_secs: u64) -> ComposedRunConfig {
    ComposedRunConfig {
        num_apps: 3,
        ops_per_service: 1,
        batch: 2,
        duration_secs,
        drain_secs: 12,
        workload: ComposedWorkload::PhotoApp,
        faults: composed_fault_schedule(seed),
        op_timeout: Some(FAULT_OP_TIMEOUT),
        handoff_every: Some(8),
        ..ComposedRunConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_round_trip() {
        for s in Scenario::ALL.into_iter().chain(Scenario::LIVE) {
            assert_eq!(Scenario::parse(s.name()), Some(s));
        }
        assert_eq!(Scenario::parse("SPANNER"), Some(Scenario::SpannerRss));
        assert_eq!(Scenario::parse("chaos"), Some(Scenario::ComposedFaults));
        assert_eq!(Scenario::parse("nope"), None);
        assert!(Scenario::LIVE.iter().all(Scenario::is_live));
        assert!(!Scenario::ALL.iter().any(Scenario::is_live));
    }

    #[test]
    fn ops_target_scales_runs_and_streaming_certifies() {
        for &scenario in &[Scenario::SpannerRss, Scenario::ComposedFaults] {
            let run = run_seed_with(scenario, 7, 2, Some(600), true);
            assert!(
                run.report.certified,
                "{} seed 7 (ops target, streamed) must certify: {:?}",
                scenario.name(),
                run.report.violation
            );
            assert!(run.report.components >= 1);
            assert!(run.report.peak_window >= 1, "streaming reorder buffer was exercised");
            assert!(
                run.report.history_ops < 2_000,
                "{} duration scaled down toward the 600-op target ({} ops)",
                scenario.name(),
                run.report.history_ops
            );
        }
    }

    #[test]
    fn each_scenario_certifies_one_seed() {
        for scenario in Scenario::ALL {
            let run = run_seed(scenario, 42, 2);
            assert!(
                run.report.certified,
                "{} seed 42 must certify: {:?}",
                scenario.name(),
                run.report.violation
            );
            assert!(run.artifact.is_none());
            assert!(
                run.report.history_ops > 128,
                "{} histories exceed the old exact-search frontier ({} ops)",
                scenario.name(),
                run.report.history_ops
            );
            assert!(run.report.p99_ms >= run.report.p50_ms);
            match scenario {
                Scenario::SpannerFaults | Scenario::GryffFaults | Scenario::ComposedFaults => {
                    assert!(
                        run.report.dropped > 0
                            && run.report.duplicated > 0
                            && run.report.expired > 0,
                        "{} fault plane was active: {:?}/{:?}/{:?}",
                        scenario.name(),
                        run.report.dropped,
                        run.report.duplicated,
                        run.report.expired
                    );
                    assert!(
                        run.report.storage.is_empty(),
                        "{} runs volatile; no WAL traffic",
                        scenario.name()
                    );
                }
                Scenario::SpannerFaultsDurable
                | Scenario::GryffFaultsDurable
                | Scenario::ComposedFaultsDurable => {
                    assert!(
                        run.report.dropped > 0 && run.report.expired > 0,
                        "{} fault plane was active: {:?}/{:?}",
                        scenario.name(),
                        run.report.dropped,
                        run.report.expired
                    );
                    let s = run.report.storage;
                    assert!(s.records > 0 && s.bytes > 0, "{} logged mutations", scenario.name());
                    assert!(
                        s.syncs > 0 && s.syncs < s.records,
                        "{} group commit batched records per fsync ({} records, {} syncs)",
                        scenario.name(),
                        s.records,
                        s.syncs
                    );
                    assert!(
                        s.recoveries > 0 && s.replayed > 0,
                        "{} crash recovery replayed from the WAL ({} recoveries, {} replayed)",
                        scenario.name(),
                        s.recoveries,
                        s.replayed
                    );
                }
                Scenario::SpannerOneWay => {
                    assert!(
                        run.report.dropped > 0 && run.report.duplicated > 0,
                        "{} one-way cuts and the lossy window fired: {:?}/{:?}",
                        scenario.name(),
                        run.report.dropped,
                        run.report.duplicated
                    );
                    assert_eq!(run.report.expired, 0, "no node crashes in the one-way scenario");
                }
                Scenario::SpannerCommitCrash => {
                    assert!(
                        run.report.expired > 0,
                        "{} messages expired at the crashed shard: {:?}",
                        scenario.name(),
                        run.report.expired
                    );
                    assert_eq!(run.report.dropped, 0, "commit-crash cuts no links");
                }
                _ => {
                    assert_eq!(run.report.dropped, 0, "{} is fault-free", scenario.name());
                }
            }
        }
    }
}
