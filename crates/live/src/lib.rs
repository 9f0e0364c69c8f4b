//! Live execution plane: the same protocol state machines the
//! discrete-event simulator drives, run on real OS threads.
//!
//! The simulator (`regular-sim`) validates the protocols and the RSS/RSC
//! checkers under deterministic schedules; this crate validates them under
//! *real* concurrency. Every node — Spanner shard or client, Gryff replica
//! or client — becomes one OS thread with a private mailbox, timer heap,
//! RNG stream, and TrueTime clock. A router thread plays the network: it
//! applies the same [`NetworkModel`](regular_sim::NetworkModel) base
//! verdicts and the same
//! [`FaultSchedule::verdict`](regular_sim::fault::FaultSchedule) fault
//! composition as the engine, with scripted crash windows turned into
//! `Crash`/`Recover` mailbox events, so the entire fault plane carries over
//! to wall-clock time unchanged.
//!
//! Time is *scaled wall time* ([`clock::LiveClock`]): protocol code keeps
//! reading `SimTime` microseconds, but they now advance with the monotonic
//! clock, compressed by a configurable factor so multi-minute fault scripts
//! finish in wall-clock seconds. Because the [`Context`](regular_sim::Context)
//! handed to handlers is assembled from [`ContextParts`](regular_sim::ContextParts),
//! the protocol crates run **unmodified** — the acceptance bar for the
//! whole plane.
//!
//! Completions stream out of node threads through a channel into the
//! caller, which can feed them to the streaming certifier online. Live runs
//! are *not* bit-deterministic (thread interleaving is real); the transport
//! records its delivery order so a failing run leaves replayable evidence.
//!
//! Messages travel over a chosen [`transport::TransportKind`]: in-process
//! mpsc channels, Unix-domain sockets, or TCP. The socket backends
//! ([`net`], framed by [`wire`]) carry the same router semantics across
//! process boundaries, so nodes can run as separate OS processes — see
//! `OPERATIONS.md` at the repository root for running such clusters.

pub mod clock;
pub mod exec;
pub mod gryff_live;
pub mod net;
pub mod spanner_live;
pub mod transport;
pub mod wire;

pub mod prelude {
    //! Everything a live harness needs.
    pub use crate::clock::LiveClock;
    pub use crate::exec::{run_live, run_live_transport, LiveConfig, LiveNode, LiveOutcome};
    pub use crate::gryff_live::{run_gryff_live, GryffLiveResult, GryffLiveSpec};
    pub use crate::net::{
        run_hub_multiproc, run_worker_multiproc, ListenAddr, Listener, MultiprocOutcome,
        SocketStream, WireStats,
    };
    pub use crate::spanner_live::{run_cluster_live, SpannerLiveResult, SpannerLiveSpec};
    pub use crate::transport::{DeliveryRecord, LiveEvent, Mailbox, Outgoing, TransportKind};
    pub use crate::wire::Wire;
    // The protocol crates' node-graph builders, which the live plane hosts
    // unchanged (multi-process workers rebuild them to agree on node ids).
    pub use regular_gryff::build_gryff_nodes;
    pub use regular_spanner::build_spanner_nodes;
}

pub use prelude::*;
