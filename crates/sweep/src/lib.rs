//! Parallel conformance sweeps.
//!
//! The paper's central artifact is a *checkable guarantee*: every
//! Spanner-RSS / Gryff-RSC execution must produce a history certifiable as
//! RSS / RSC. The protocol crates certify one run at a time; this crate
//! scales that to *fleets* of seeded runs, the way automated
//! consistency-violation detectors sweep many executions:
//!
//! * [`pool`] — a work-stealing thread pool (vendored `parking_lot` +
//!   `std::thread::scope`) fanning coarse jobs across cores.
//! * [`scenario`] — the scenario table ([`SCENARIOS`]) and seeded,
//!   certified runs of its rows: Spanner-RSS, Gryff-RSC, and the composed
//!   two-store deployment, on the simulator or the live plane, healthy or
//!   under a seed-driven fault script (crashes, partitions, drop/duplicate
//!   windows fired during libRSS service switches), volatile or on WALs;
//!   witness checks sharded via
//!   `regular_core::checker::certificate::check_witness_parallel`.
//! * [`composed`] — the multi-service deployment (extracted from the
//!   `multi_service` integration test) as a reusable scenario: round-robin
//!   or photo-sharing-app workloads, scripted faults, and cross-process
//!   `CausalContext` handoffs.
//! * [`stream`] — streaming certification: witnesses fed in completion
//!   order through `regular_core`'s windowed checker, plus the synthetic
//!   histories used by the scale benchmarks.
//! * [`report`] — sweep orchestration and the `BENCH_sweep.json` schema.
//! * [`artifact`] — replayable failing-history dumps for CI upload.
//! * [`json`] — the minimal JSON tree backing all of the above (the vendored
//!   `serde` is a derive-only stub).
//!
//! The `conformance_sweep` binary in `regular-bench` is the CLI front end;
//! CI runs it over ≥32 seeds per scenario (fault scenarios included) on
//! every push.

pub mod artifact;
pub mod composed;
pub mod json;
pub mod pool;
pub mod report;
pub mod scenario;
pub mod stream;

pub use artifact::FailureArtifact;
pub use json::Json;
pub use pool::{PoolStats, WorkStealingPool};
pub use report::{run_sweep, sweep_to_json, write_json, SweepOptions, SweepResult};
pub use scenario::{
    run_seed, run_seed_with, Deployment, Plane, Scenario, ScenarioSpec, SeedReport, SeedRun,
    LIVE_TIME_SCALE, SCENARIOS,
};
pub use stream::{certify_streaming, synthetic_history, StreamStats};
