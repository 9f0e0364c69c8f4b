//! Sweepable scenarios: one seeded, certified run per call.
//!
//! A scenario is a row of [`SCENARIOS`]: a deployment (Spanner-RSS,
//! Gryff-RSC, or their libRSS composition), the plane that runs it (the
//! simulator or the live plane), an optional seed-driven fault script,
//! whether the protocol nodes sit on write-ahead logs, and the run's size.
//! Every row runs through the same code: the deployment's one node-graph
//! builder, hosted by the row's plane, then one verdict path that assembles
//! the recorded history and serialization witness, certifies the history
//! against the scenario's consistency model, and builds a replayable
//! [`FailureArtifact`] on failure. On the simulator the engine seed *and*
//! the per-node workload RNG streams derive from the seed (via
//! [`SessionConfig::with_workload_seed`]), so a run is reproducible.
//!
//! Run sizes are tuned so one seed takes on the order of a hundred
//! milliseconds: large enough that every history is far past the old 128-op
//! exact-search ceiling (thousands of operations), small enough that a
//! 32-seed × 3-scenario sweep finishes in CI minutes on one core.

use std::fmt;
use std::time::Instant;

use regular_core::checker::assemble::assemble_witness;
use regular_core::checker::certificate::{check_witness_parallel, WitnessModel};
use regular_core::history::{History, HistoryIndex};
use regular_core::{ComponentSplit, OpId};
use regular_gryff::prelude as gryff;
use regular_live::{
    run_cluster_live, run_gryff_live, DeliveryRecord, GryffLiveSpec, SpannerLiveSpec, TransportKind,
};
use regular_session::{CompletedRecord, SessionConfig, SessionWorkload};
use regular_sim::fault::{FaultSchedule, LinkScope};
use regular_sim::metrics::{LatencyRecorder, MessageStats};
use regular_sim::net::{LatencyMatrix, Region};
use regular_sim::time::{SimDuration, SimTime};
use regular_spanner::prelude as spanner;
use regular_storage::{Durability, StorageRegistry, StorageSummary, WalOptions};

use crate::artifact::{model_name, FailureArtifact};
use crate::composed::{
    composed_history, run_composed, run_composed_live, ComposedRunConfig, ComposedWorkload,
};
use crate::stream::certify_streaming;

/// The system a scenario deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// Spanner-RSS over the three-region WAN topology; certified RSS.
    Spanner,
    /// Gryff-RSC over the five-region WAN topology; certified RSC.
    Gryff,
    /// The composed Spanner-RSS + Gryff-RSC deployment with libRSS fences,
    /// driven by the given app; the combined history certified RSS.
    Composed(ComposedWorkload),
}

/// The execution plane a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// The deterministic discrete-event simulator.
    Sim,
    /// The live execution plane (`regular-live`): every node an OS thread,
    /// time the scaled wall clock ([`LIVE_TIME_SCALE`]), completions
    /// certified online through the streaming checker. Sweeps run it over
    /// the in-process mpsc transport; the plane's socket backends (UDS/TCP,
    /// including multi-process deployments) are exercised by
    /// `live_bench --net`. Not bit-deterministic; the transport's delivery
    /// log rides along in failure artifacts.
    Live,
}

/// One row of the scenario table.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// Stable name (used in reports, artifacts, and CLI flags).
    pub name: &'static str,
    /// Other names [`Scenario::parse`] accepts.
    pub aliases: &'static [&'static str],
    /// The system under test.
    pub deployment: Deployment,
    /// The plane that runs it.
    pub plane: Plane,
    /// The seed-driven fault script, if any. Clients of a faulty run get the
    /// standard operation timeout, so lanes whose requests are lost retry.
    pub faults: Option<fn(u64) -> FaultSchedule>,
    /// Every protocol node on a write-ahead log ([`Durability::Wal`]):
    /// crashes wipe all volatile state and recovery replays snapshot + log
    /// tail (seeded torn tails included) while group commit batches fsyncs.
    pub durable: bool,
    /// Approximate completed operations per simulated second at the sweep
    /// configuration (measured over seed sweeps); translates an `--ops`
    /// target into a run duration.
    pub ops_per_sim_sec: f64,
    /// Simulated seconds of load when no `--ops` target is set.
    pub default_secs: u64,
}

const SPANNER_RSS: ScenarioSpec = ScenarioSpec {
    name: "spanner-rss",
    aliases: &["spanner", "rss"],
    deployment: Deployment::Spanner,
    plane: Plane::Sim,
    faults: None,
    durable: false,
    ops_per_sim_sec: 57.0,
    default_secs: 45,
};

const GRYFF_RSC: ScenarioSpec = ScenarioSpec {
    name: "gryff-rsc",
    aliases: &["gryff", "rsc"],
    deployment: Deployment::Gryff,
    ops_per_sim_sec: 102.0,
    ..SPANNER_RSS
};

const COMPOSED: ScenarioSpec = ScenarioSpec {
    name: "composed",
    aliases: &["multi-service", "duo"],
    deployment: Deployment::Composed(ComposedWorkload::RoundRobin),
    ops_per_sim_sec: 62.0,
    default_secs: 30,
    ..SPANNER_RSS
};

const SPANNER_FAULTS: ScenarioSpec = ScenarioSpec {
    name: "spanner-faults",
    aliases: &[],
    faults: Some(spanner_fault_schedule),
    ops_per_sim_sec: 48.0,
    ..SPANNER_RSS
};

const GRYFF_FAULTS: ScenarioSpec = ScenarioSpec {
    name: "gryff-faults",
    aliases: &[],
    faults: Some(gryff_fault_schedule),
    ops_per_sim_sec: 97.0,
    ..GRYFF_RSC
};

/// The photo-sharing app with cross-process causal handoffs, under faults
/// fired *during* service switches.
const COMPOSED_FAULTS: ScenarioSpec = ScenarioSpec {
    name: "composed-faults",
    aliases: &["faults", "chaos"],
    deployment: Deployment::Composed(ComposedWorkload::PhotoApp),
    faults: Some(composed_fault_schedule),
    ops_per_sim_sec: 30.0,
    ..COMPOSED
};

/// Every row, in sweep order: the simulator rows first (they make up
/// [`Scenario::ALL`]), then the live rows ([`Scenario::LIVE`]). Live rows
/// share their simulator twins' configuration, so simulated-time op rates
/// carry over; the WAL's group-commit window adds only sub-millisecond
/// latency, so the durable rows track their volatile twins too.
pub const SCENARIOS: [ScenarioSpec; 15] = [
    SPANNER_RSS,
    GRYFF_RSC,
    COMPOSED,
    SPANNER_FAULTS,
    GRYFF_FAULTS,
    COMPOSED_FAULTS,
    // Asymmetric (one-way) link cuts: requests keep arriving while replies
    // vanish, then the reverse direction fails — the grey-network failure
    // mode.
    ScenarioSpec {
        name: "spanner-oneway",
        aliases: &["oneway", "grey"],
        faults: Some(spanner_oneway_schedule),
        ..SPANNER_FAULTS
    },
    // Short shard crashes timed to land inside commit-wait windows.
    ScenarioSpec {
        name: "spanner-commit-crash",
        aliases: &["commit-crash"],
        faults: Some(spanner_commit_crash_schedule),
        ops_per_sim_sec: 54.0,
        ..SPANNER_FAULTS
    },
    ScenarioSpec {
        name: "spanner-faults-durable",
        aliases: &["spanner-durable"],
        durable: true,
        ..SPANNER_FAULTS
    },
    ScenarioSpec {
        name: "gryff-faults-durable",
        aliases: &["gryff-durable"],
        durable: true,
        ..GRYFF_FAULTS
    },
    ScenarioSpec {
        name: "composed-faults-durable",
        aliases: &["composed-durable", "durable"],
        durable: true,
        ..COMPOSED_FAULTS
    },
    ScenarioSpec {
        name: "live-spanner-rss",
        aliases: &["live-spanner"],
        plane: Plane::Live,
        ..SPANNER_RSS
    },
    ScenarioSpec {
        name: "live-gryff-rsc",
        aliases: &["live-gryff"],
        plane: Plane::Live,
        ..GRYFF_RSC
    },
    ScenarioSpec { name: "live-composed", aliases: &[], plane: Plane::Live, ..COMPOSED },
    ScenarioSpec {
        name: "live-spanner-faults",
        aliases: &["live-faults"],
        plane: Plane::Live,
        ..SPANNER_FAULTS
    },
];

/// A sweepable scenario: a handle on one row of [`SCENARIOS`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Scenario(usize);

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Scenario {
    /// Every simulator scenario, in sweep order.
    pub const ALL: [Scenario; 11] = Scenario::on(Plane::Sim);

    /// The live-plane scenarios (not part of [`Scenario::ALL`]: live runs
    /// use real threads and scaled wall-clock time, so they are slower per
    /// seed and not bit-deterministic — sweeps opt into them explicitly).
    pub const LIVE: [Scenario; 4] = Scenario::on(Plane::Live);

    /// The rows on `plane`, in table order; `N` must be their count (a
    /// mismatch fails to compile).
    const fn on<const N: usize>(plane: Plane) -> [Scenario; N] {
        let mut out = [Scenario(0); N];
        let (mut row, mut n) = (0, 0);
        while row < SCENARIOS.len() {
            if SCENARIOS[row].plane as u8 == plane as u8 {
                out[n] = Scenario(row);
                n += 1;
            }
            row += 1;
        }
        assert!(n == N, "row count on the plane");
        out
    }

    /// This scenario's row.
    pub fn spec(&self) -> &'static ScenarioSpec {
        const TABLE: &[ScenarioSpec] = &SCENARIOS;
        &TABLE[self.0]
    }

    /// Stable scenario name (used in reports, artifacts, and CLI flags).
    pub fn name(&self) -> &'static str {
        self.spec().name
    }

    /// Parses a scenario name or alias, case-insensitively (the inverse of
    /// [`Scenario::name`]).
    pub fn parse(name: &str) -> Option<Scenario> {
        let name = name.trim().to_ascii_lowercase();
        SCENARIOS
            .iter()
            .position(|row| row.name == name || row.aliases.contains(&name.as_str()))
            .map(Scenario)
    }

    /// True for scenarios that run on the live execution plane.
    pub fn is_live(&self) -> bool {
        self.spec().plane == Plane::Live
    }

    /// The witness model this scenario is certified against.
    pub fn model(&self) -> WitnessModel {
        WitnessModel::Regular
    }
}

impl ScenarioSpec {
    /// The storage backing the row's protocol nodes. The durable rows use
    /// deterministic in-process devices, a group-commit window wide enough
    /// that fsyncs batch under load, segments and checkpoints small enough
    /// that recovery exercises snapshot-plus-log-tail replay within one
    /// sweep run, and torn tails seeded from the sweep seed so partial-write
    /// recovery differs across the corpus.
    fn durability(&self, seed: u64) -> Durability {
        if !self.durable {
            return Durability::InMemory;
        }
        Durability::Wal(
            WalOptions::mem(StorageRegistry::new())
                .with_group_commit_us(200)
                .with_segment_bytes(16 * 1024)
                .with_checkpoint_every(256)
                .with_torn_tail_seed(seed),
        )
    }

    /// The simulated seconds to issue load for: the row default, or the
    /// duration expected to produce roughly `ops` operations when a target
    /// is set. Clamped so fault scripts (which fire at fixed seconds) still
    /// get a sane run, and so a typo cannot request a week of simulated
    /// time.
    fn stop_secs(&self, ops: Option<u64>) -> u64 {
        match ops {
            None => self.default_secs,
            Some(target) => ((target as f64 / self.ops_per_sim_sec).ceil() as u64).clamp(5, 20_000),
        }
    }
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

/// Latency percentiles (p50, p99) in milliseconds, nearest-rank like every
/// other report ([`LatencyRecorder::percentile`]); zeroes when empty.
fn percentiles_ms(latencies: &mut LatencyRecorder) -> (f64, f64) {
    let mut at = |p: f64| latencies.percentile(p).map_or(0.0, |d| d.as_micros() as f64 / 1_000.0);
    (at(50.0), at(99.0))
}

/// Latencies of the non-orphan, non-fence completions.
fn op_latencies<'a>(records: impl Iterator<Item = &'a CompletedRecord>) -> LatencyRecorder {
    let mut latencies = LatencyRecorder::new();
    for r in records.filter(|r| !r.orphan && !r.kind.is_fence()) {
        latencies.record(r.latency());
    }
    latencies
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

/// Simulated microseconds per wall microsecond for the live sweep
/// scenarios: 40x compresses a 53-simulated-second Spanner run into ~1.3
/// wall seconds while keeping even the shortest WAN latency (a few hundred
/// simulated microseconds) well above the scheduler's wake-up jitter.
pub const LIVE_TIME_SCALE: u64 = 40;

/// Extra simulated time the store deployments drain in-flight operations.
const DRAIN: SimDuration = SimDuration::from_secs(8);

/// Latency and throughput measurements skip the first simulated second.
const MEASURE_FROM: SimTime = SimTime::from_secs(1);

/// What one deployment run hands the verdict path, whichever plane ran it.
struct RunOutput {
    history: History,
    /// The protocol's serialization witness, or why none could be assembled.
    witness: Result<Vec<OpId>, String>,
    /// Latencies of the history's completions (simulated time).
    latencies: LatencyRecorder,
    net: MessageStats,
    storage: StorageSummary,
    /// The live transport's delivery log; empty on the simulator.
    deliveries: Vec<DeliveryRecord>,
    /// Completions per wall-clock second on the live plane; 0 on the
    /// simulator.
    wall_ops_per_sec: f64,
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
    let spec = scenario.spec();
    let model = scenario.model();
    // Live scenarios always certify through the streaming checker:
    // completions arrive in completion order (there is no global event queue
    // to replay), and the acceptance bar for the plane is *online*
    // certification.
    let stream = stream || scenario.is_live();
    let stop_secs = spec.stop_secs(ops);
    let mut out = match spec.deployment {
        Deployment::Spanner => run_spanner(spec, seed, stop_secs),
        Deployment::Gryff => run_gryff(spec, seed, stop_secs),
        Deployment::Composed(workload) => run_composed_app(spec, workload, seed, stop_secs),
    };
    let (p50_ms, p99_ms) = percentiles_ms(&mut out.latencies);

    let cert_started = Instant::now();
    let components = ComponentSplit::split(&out.history).len();
    let verdict: Result<usize, String> = match &out.witness {
        Err(reason) => Err(reason.clone()),
        Ok(witness) if stream => certify_streaming(&out.history, witness, model)
            .map(|stats| stats.peak_window)
            .map_err(|v| format!("{} violation (streaming): {v:?}", model_name(model))),
        Ok(witness) => {
            let index = HistoryIndex::new(&out.history);
            check_witness_parallel(&out.history, &index, witness, model, check_threads)
                .map(|()| 0)
                .map_err(|v| format!("{} violation: {v:?}", model_name(model)))
        }
    };
    let report = SeedReport {
        scenario: spec.name,
        seed,
        certified: verdict.is_ok(),
        violation: verdict.as_ref().err().cloned(),
        history_ops: out.history.len(),
        p50_ms,
        p99_ms,
        wall_ms: started.elapsed().as_secs_f64() * 1_000.0,
        cert_ms: cert_started.elapsed().as_secs_f64() * 1_000.0,
        dropped: out.net.dropped,
        duplicated: out.net.duplicated,
        expired: out.net.expired,
        components,
        peak_window: verdict.as_ref().map_or(0, |&peak| peak),
        wall_ops_per_sec: out.wall_ops_per_sec,
        storage: out.storage,
    };
    let artifact = verdict.err().map(|violation| FailureArtifact {
        scenario: spec.name.to_string(),
        seed,
        model,
        violation,
        witness: out.witness.unwrap_or_default(),
        history: out.history,
        deliveries: out.deliveries,
        // Omitted from the JSON for volatile rows, keeping pre-storage
        // artifacts byte-identical.
        durability: spec.durable.then(|| "wal".to_string()),
        schedule: None,
        coverage: None,
    });
    SeedRun { report, artifact }
}

/// The Spanner-RSS sweep deployment on the row's plane: WAN topology, three
/// client nodes with four closed-loop sessions each, a moderately contended
/// uniform workload.
fn run_spanner(spec: &ScenarioSpec, seed: u64, stop_secs: u64) -> RunOutput {
    let mut config = spanner::SpannerConfig::wan(spanner::Mode::SpannerRss)
        .with_durability(spec.durability(seed));
    if let Some(faults) = spec.faults {
        config = config.with_faults(faults(seed), FAULT_OP_TIMEOUT);
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
    let stop_issuing_at = SimTime::from_secs(stop_secs);
    let (completed, net, storage, deliveries, wall_ops_per_sec) = match spec.plane {
        Plane::Sim => {
            let r = spanner::run_cluster(spanner::ClusterSpec {
                config,
                net,
                seed,
                clients,
                stop_issuing_at,
                drain: DRAIN,
                measure_from: MEASURE_FROM,
            });
            (r.completed, r.net_stats, r.storage, Vec::new(), 0.0)
        }
        Plane::Live => {
            let r = run_cluster_live(SpannerLiveSpec {
                config,
                net,
                seed,
                clients,
                stop_issuing_at,
                drain: DRAIN,
                measure_from: MEASURE_FROM,
                time_scale: LIVE_TIME_SCALE,
                record_deliveries: true,
                transport: TransportKind::Mpsc,
            });
            (r.completed, r.net_stats, StorageSummary::default(), r.deliveries, r.wall_throughput)
        }
    };
    let (history, witness) = spanner::build_history_from(&completed);
    RunOutput {
        history,
        witness: Ok(witness),
        latencies: op_latencies(completed.iter().flat_map(|(_, recs)| recs)),
        net,
        storage,
        deliveries,
        wall_ops_per_sec,
    }
}

/// The Gryff-RSC sweep deployment on the row's plane: five-region WAN, one
/// client per region with three closed-loop sessions, a conflict-heavy YCSB
/// mix. The witness is assembled from the carstamp chains and process order.
fn run_gryff(spec: &ScenarioSpec, seed: u64, stop_secs: u64) -> RunOutput {
    let mut config =
        gryff::GryffConfig::wan(gryff::Mode::GryffRsc).with_durability(spec.durability(seed));
    if let Some(faults) = spec.faults {
        config = config.with_faults(faults(seed), FAULT_OP_TIMEOUT);
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
    let stop_issuing_at = SimTime::from_secs(stop_secs);
    let (completed, net, storage, deliveries, wall_ops_per_sec) = match spec.plane {
        Plane::Sim => {
            let r = gryff::run_gryff(gryff::GryffClusterSpec {
                config,
                net,
                seed,
                clients,
                stop_issuing_at,
                drain: DRAIN,
                measure_from: MEASURE_FROM,
            });
            (r.completed, r.net_stats, r.storage, Vec::new(), 0.0)
        }
        Plane::Live => {
            let r = run_gryff_live(GryffLiveSpec {
                config,
                net,
                seed,
                clients,
                stop_issuing_at,
                drain: DRAIN,
                measure_from: MEASURE_FROM,
                time_scale: LIVE_TIME_SCALE,
                record_deliveries: true,
                transport: TransportKind::Mpsc,
            });
            (r.completed, r.net_stats, StorageSummary::default(), r.deliveries, r.wall_throughput)
        }
    };
    let (history, edges) = gryff::build_history_from(&completed);
    let witness = assemble_witness(&history, &edges, WitnessModel::Regular).map_err(|e| {
        format!("carstamp/process-order constraints are cyclic ({} ops unordered)", e.unordered)
    });
    RunOutput {
        history,
        witness,
        latencies: op_latencies(completed.iter().flat_map(|(_, recs)| recs)),
        net,
        storage,
        deliveries,
        wall_ops_per_sec,
    }
}

/// The composed sweep deployment on the row's plane (smaller than the
/// integration test's, to keep per-seed cost down). The photo-sharing app
/// switches services on every step and exports a cross-process causal
/// context every 8 completed batches.
fn run_composed_app(
    spec: &ScenarioSpec,
    workload: ComposedWorkload,
    seed: u64,
    duration_secs: u64,
) -> RunOutput {
    let photo = workload == ComposedWorkload::PhotoApp;
    let mut config = ComposedRunConfig {
        num_apps: 3,
        ops_per_service: if photo { 1 } else { 3 },
        batch: 2,
        duration_secs,
        drain_secs: if photo { 12 } else { 10 },
        workload,
        handoff_every: photo.then_some(8),
        durability: spec.durability(seed),
        ..ComposedRunConfig::default()
    };
    if let Some(faults) = spec.faults {
        config.faults = faults(seed);
        config.op_timeout = Some(FAULT_OP_TIMEOUT);
    }
    let (outcome, deliveries, wall_ops_per_sec) = match spec.plane {
        Plane::Sim => (run_composed(seed, &config), Vec::new(), 0.0),
        Plane::Live => {
            let live = run_composed_live(seed, &config, LIVE_TIME_SCALE, true);
            (live.outcome, live.deliveries, live.wall_throughput)
        }
    };
    let (history, witness) = composed_history(&outcome);
    RunOutput {
        history,
        witness,
        latencies: op_latencies(
            outcome.apps.iter().flat_map(|a| a.completed.iter().map(|(_, r)| r)),
        ),
        net: outcome.net_stats,
        storage: outcome.storage,
        deliveries,
        wall_ops_per_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(name: &str) -> Scenario {
        Scenario::parse(name).unwrap_or_else(|| panic!("no scenario named {name}"))
    }

    #[test]
    fn scenario_names_round_trip() {
        let mut seen = std::collections::HashSet::new();
        for (row, spec) in SCENARIOS.iter().enumerate() {
            for name in std::iter::once(&spec.name).chain(spec.aliases) {
                assert!(seen.insert(*name), "{name} names two rows");
                assert_eq!(Scenario::parse(name), Some(Scenario(row)), "{name}");
            }
            assert_eq!(Scenario(row).name(), spec.name);
        }
        assert_eq!(Scenario::parse(" SPANNER "), Some(named("spanner-rss")));
        assert_eq!(Scenario::parse("chaos"), Some(named("composed-faults")));
        assert_eq!(Scenario::parse("nope"), None);
        let names = |rows: &[Scenario]| rows.iter().map(|s| s.name()).collect::<Vec<_>>();
        assert_eq!(
            names(&Scenario::ALL),
            [
                "spanner-rss",
                "gryff-rsc",
                "composed",
                "spanner-faults",
                "gryff-faults",
                "composed-faults",
                "spanner-oneway",
                "spanner-commit-crash",
                "spanner-faults-durable",
                "gryff-faults-durable",
                "composed-faults-durable",
            ]
        );
        assert_eq!(
            names(&Scenario::LIVE),
            ["live-spanner-rss", "live-gryff-rsc", "live-composed", "live-spanner-faults"]
        );
        assert!(Scenario::LIVE.iter().all(Scenario::is_live));
        assert!(!Scenario::ALL.iter().any(Scenario::is_live));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut latencies = LatencyRecorder::new();
        for ms in [1, 2, 3, 4] {
            latencies.record(SimDuration::from_millis(ms));
        }
        assert_eq!(percentiles_ms(&mut latencies), (2.0, 4.0));
        assert_eq!(percentiles_ms(&mut LatencyRecorder::new()), (0.0, 0.0));
    }

    #[test]
    fn ops_target_scales_runs_and_streaming_certifies() {
        for scenario in [named("spanner-rss"), named("composed-faults")] {
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
            match scenario.name() {
                "spanner-faults" | "gryff-faults" | "composed-faults" => {
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
                "spanner-faults-durable" | "gryff-faults-durable" | "composed-faults-durable" => {
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
                "spanner-oneway" => {
                    assert!(
                        run.report.dropped > 0 && run.report.duplicated > 0,
                        "{} one-way cuts and the lossy window fired: {:?}/{:?}",
                        scenario.name(),
                        run.report.dropped,
                        run.report.duplicated
                    );
                    assert_eq!(run.report.expired, 0, "no node crashes in the one-way scenario");
                }
                "spanner-commit-crash" => {
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
