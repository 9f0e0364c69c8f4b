//! The live executor: one OS thread per protocol node, driven by a mailbox.
//!
//! Each node thread owns its [`Node`] state machine, a local timer heap, a
//! seeded RNG stream, and a TrueTime clock, and builds the same
//! [`Context`] the discrete-event engine builds (via
//! [`ContextParts`]) — so Spanner shards, Gryff replicas, and session
//! runners execute **unmodified** on real threads. The differences from the
//! simulator are exactly the ones the live plane exists to exercise: `now`
//! comes from the wall clock (scaled, see [`crate::clock::LiveClock`]),
//! handlers run concurrently across nodes, and handler CPU cost is real
//! instead of a configured service time.
//!
//! Crash semantics mirror the engine: a crashed node loses messages
//! (counted as expired), defers pending timers until recovery, and any
//! output produced by the `on_crash` hook itself is discarded.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use regular_session::CompletedRecord;
use regular_sim::engine::{Context, ContextParts, Node};
use regular_sim::fault::FaultSchedule;
use regular_sim::net::{NetworkModel, Region};
use regular_sim::{MessageStats, NodeId, SimDuration, SimTime, TrueTime};

use crate::clock::LiveClock;
use crate::net::{run_hub_conns, run_worker_conn, SocketStream, WireStats};
use crate::transport::{
    run_router, DeliveryRecord, LiveEvent, Mailbox, Outgoing, RouterReport, TransportKind,
};
use crate::wire::Wire;

/// A node that can run on the live plane.
///
/// The supertrait bound is the whole contract: any `Send` [`Node`] runs
/// unmodified. `drain_completions` is the bridge into the online recorder —
/// client nodes surface the operations their sessions completed since the
/// last handler; server nodes use the default no-op.
pub trait LiveNode<M>: Node<M> + Send {
    /// Appends `(stream, record)` pairs completed since the last call.
    ///
    /// `stream` distinguishes services on multi-service (composed) nodes;
    /// single-service nodes use 0.
    fn drain_completions(&mut self, _out: &mut Vec<(usize, CompletedRecord)>) {}
}

/// Configuration of a live run.
pub struct LiveConfig {
    /// Random seed; each node and the router derive disjoint RNG streams
    /// from it.
    pub seed: u64,
    /// Scripted fault plane, reinterpreted on the scaled wall clock.
    pub faults: FaultSchedule,
    /// TrueTime uncertainty bound ε for all nodes.
    pub truetime_epsilon: SimDuration,
    /// Simulated microseconds per wall microsecond (≥ 1).
    pub time_scale: u64,
    /// Hard stop: the run ends when the scaled clock reaches this instant.
    pub stop_at: SimTime,
    /// Record the delivery log (for failure artifacts / replay evidence).
    pub record_deliveries: bool,
}

/// What a live run produced.
pub struct LiveOutcome<N> {
    /// The node state machines, in id order, as they were at the end.
    pub nodes: Vec<N>,
    /// Completions per node in completion order (empty for server nodes),
    /// tagged with the originating service stream.
    pub completed: Vec<Vec<(usize, CompletedRecord)>>,
    /// Message counters with engine semantics (`delivered` excludes
    /// deliveries that expired at a crashed node).
    pub net_stats: MessageStats,
    /// The delivery log (empty unless recording was enabled).
    pub deliveries: Vec<DeliveryRecord>,
    /// Simulated time when the run stopped.
    pub finished_at: SimTime,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Socket traffic counters (all zeros on the mpsc transport).
    pub wire: WireStats,
}

/// What a node handler is being invoked for.
enum Invoke<M> {
    Start,
    Msg(NodeId, M),
    Timer(u64),
    Crash,
    Recover,
}

pub(crate) struct NodeResult<N> {
    pub(crate) node: N,
    pub(crate) expired: u64,
}

/// The per-node thread loop.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_node<M, N>(
    mut node: N,
    id: NodeId,
    clock: LiveClock,
    seed: u64,
    epsilon: SimDuration,
    mailbox: Receiver<LiveEvent<M>>,
    net_tx: Sender<Outgoing<M>>,
    rec_tx: Sender<(NodeId, usize, CompletedRecord)>,
) -> NodeResult<N>
where
    M: Send + 'static,
    N: LiveNode<M>,
{
    // Disjoint per-node stream from the run seed (golden-ratio mix).
    let mut rng = SmallRng::seed_from_u64(
        seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id as u64 + 1)),
    );
    let mut truetime = TrueTime::new(epsilon, seed);
    // (deadline, set-order, tag): same-instant timers fire in set order.
    let mut timers: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
    let mut timer_seq = 0u64;
    let mut crashed = false;
    let mut expired = 0u64;
    // Handler scratch, reused across events like the engine's.
    let mut outbox: Vec<(NodeId, SimDuration, M)> = Vec::new();
    let mut to_set: Vec<(SimDuration, u64)> = Vec::new();
    let mut comps: Vec<(usize, CompletedRecord)> = Vec::new();

    loop {
        // Fire a due timer, unless crashed (crashed nodes defer timers).
        let mut invoke = None;
        if !crashed {
            if let Some(&Reverse((at, _, tag))) = timers.peek() {
                if at <= clock.sim_now() {
                    timers.pop();
                    invoke = Some(Invoke::Timer(tag));
                }
            }
        }
        let invoke = match invoke {
            Some(i) => i,
            None => {
                // Sleep until the next timer deadline or the next mailbox
                // event, whichever comes first.
                let ev = if crashed {
                    // No timers can fire; only the mailbox can wake us.
                    match mailbox.recv() {
                        Ok(e) => e,
                        Err(_) => break,
                    }
                } else {
                    match timers.peek() {
                        Some(&Reverse((at, _, _))) => {
                            match mailbox.recv_timeout(clock.wall_until(at)) {
                                Ok(e) => e,
                                Err(RecvTimeoutError::Timeout) => continue,
                                Err(RecvTimeoutError::Disconnected) => break,
                            }
                        }
                        None => match mailbox.recv() {
                            Ok(e) => e,
                            Err(_) => break,
                        },
                    }
                };
                match ev {
                    LiveEvent::Stop => break,
                    LiveEvent::Start => Invoke::Start,
                    LiveEvent::Msg { from, msg } => {
                        if crashed {
                            // Engine semantics: deliveries to a crashed node
                            // are lost.
                            expired += 1;
                            continue;
                        }
                        Invoke::Msg(from, msg)
                    }
                    LiveEvent::Crash => {
                        if crashed {
                            continue;
                        }
                        crashed = true;
                        Invoke::Crash
                    }
                    LiveEvent::Recover => {
                        if !crashed {
                            continue;
                        }
                        crashed = false;
                        Invoke::Recover
                    }
                }
            }
        };

        let discard_output = matches!(invoke, Invoke::Crash);
        let now = clock.sim_now();
        {
            let mut ctx = Context::from_parts(ContextParts {
                now,
                node_id: id,
                rng: &mut rng,
                truetime: &mut truetime,
                outbox: &mut outbox,
                timers: &mut to_set,
            });
            match invoke {
                Invoke::Start => node.on_start(&mut ctx),
                Invoke::Msg(from, msg) => node.on_message(&mut ctx, from, msg),
                Invoke::Timer(tag) => node.on_timer(&mut ctx, tag),
                Invoke::Crash => node.on_crash(&mut ctx),
                Invoke::Recover => node.on_recover(&mut ctx),
            }
        }
        if discard_output {
            // Whatever on_crash tried to send or schedule died with the node.
            outbox.clear();
            to_set.clear();
            continue;
        }
        for (to, extra, msg) in outbox.drain(..) {
            let _ = net_tx.send(Outgoing { from: id, to, extra, msg });
        }
        for (delay, tag) in to_set.drain(..) {
            timer_seq += 1;
            timers.push(Reverse((now + delay, timer_seq, tag)));
        }
        node.drain_completions(&mut comps);
        for (stream, rec) in comps.drain(..) {
            let _ = rec_tx.send((id, stream, rec));
        }
    }
    NodeResult { node, expired }
}

/// Runs `nodes` (each with its region index) on one thread apiece until
/// `cfg.stop_at`, routing messages through the live transport.
///
/// Node ids are assigned by position, matching the discrete-event engine's
/// `add_node` order, so cluster assemblies translate one-to-one.
pub fn run_live<M, N>(
    cfg: LiveConfig,
    net: Box<dyn NetworkModel>,
    nodes: Vec<(N, usize)>,
) -> LiveOutcome<N>
where
    M: Clone + Send + 'static,
    N: LiveNode<M> + 'static,
{
    let start_wall = Instant::now();
    let num_nodes = nodes.len();
    let regions: Vec<Region> = nodes.iter().map(|&(_, r)| Region(r)).collect();

    let mut mailboxes: Vec<Sender<LiveEvent<M>>> = Vec::with_capacity(num_nodes);
    let mut inboxes: Vec<Receiver<LiveEvent<M>>> = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        let (tx, rx) = mpsc::channel();
        mailboxes.push(tx);
        inboxes.push(rx);
    }
    let (net_tx, net_rx) = mpsc::channel::<Outgoing<M>>();
    let (rec_tx, rec_rx) = mpsc::channel::<(NodeId, usize, CompletedRecord)>();

    let clock = LiveClock::start(cfg.time_scale);
    let router_stop = Arc::new(AtomicBool::new(false));

    let router = {
        let faults = cfg.faults.clone();
        let regions = regions.clone();
        let router_boxes: Vec<Arc<dyn Mailbox<M>>> =
            mailboxes.iter().map(|tx| Arc::new(tx.clone()) as Arc<dyn Mailbox<M>>).collect();
        let stop = Arc::clone(&router_stop);
        let seed = cfg.seed;
        let record = cfg.record_deliveries;
        std::thread::spawn(move || {
            run_router(clock, net, faults, regions, router_boxes, net_rx, seed, record, stop)
        })
    };

    let mut workers = Vec::with_capacity(num_nodes);
    for (id, ((node, _), inbox)) in nodes.into_iter().zip(inboxes).enumerate() {
        let net_tx = net_tx.clone();
        let rec_tx = rec_tx.clone();
        let seed = cfg.seed;
        let epsilon = cfg.truetime_epsilon;
        workers.push(std::thread::spawn(move || {
            run_node(node, id, clock, seed, epsilon, inbox, net_tx, rec_tx)
        }));
    }
    // The threads hold the only clones that matter; dropping ours lets the
    // channels disconnect when the run winds down.
    drop(net_tx);
    drop(rec_tx);

    for tx in &mailboxes {
        let _ = tx.send(LiveEvent::Start);
    }

    // Collect completions online until the hard stop.
    let mut completed: Vec<Vec<(usize, CompletedRecord)>> = vec![Vec::new(); num_nodes];
    loop {
        if clock.sim_now() >= cfg.stop_at {
            break;
        }
        let wait = clock.wall_until(cfg.stop_at).min(Duration::from_millis(50));
        match rec_rx.recv_timeout(wait) {
            Ok((id, stream, rec)) => completed[id].push((stream, rec)),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    let finished_at = clock.sim_now();

    for tx in &mailboxes {
        let _ = tx.send(LiveEvent::Stop);
    }
    router_stop.store(true, Ordering::Relaxed);
    drop(mailboxes);

    let mut out_nodes = Vec::with_capacity(num_nodes);
    let mut expired_total = 0u64;
    for w in workers {
        let r = w.join().expect("live node thread panicked");
        expired_total += r.expired;
        out_nodes.push(r.node);
    }
    // Node threads are gone; drain the stragglers they sent before exiting.
    while let Ok((id, stream, rec)) = rec_rx.recv() {
        completed[id].push((stream, rec));
    }
    let RouterReport { mut stats, deliveries } = router.join().expect("live router panicked");
    // The router counted every mailbox push as delivered; expired ones
    // never reached a live node.
    stats.delivered = stats.delivered.saturating_sub(expired_total);
    stats.expired = expired_total;

    LiveOutcome {
        nodes: out_nodes,
        completed,
        net_stats: stats,
        deliveries,
        finished_at,
        wall: start_wall.elapsed(),
        wire: WireStats::default(),
    }
}

/// [`run_live`] behind a chosen [`TransportKind`].
///
/// `Mpsc` is exactly `run_live`. The socket kinds run the same cluster with
/// every message crossing a real kernel socket: the node threads live in one
/// worker group connected to the router over an in-process socket pair
/// (`UnixStream::pair` or loopback TCP), exercising the full wire path —
/// encode, frame, syscall, decode — of a multi-process deployment while
/// still returning the final node states. For genuinely separate OS
/// processes, see [`crate::net::run_hub_multiproc`] /
/// [`crate::net::run_worker_multiproc`].
///
/// The extra `M: Wire` bound is what a socket demands: messages must
/// serialize.
///
/// # Panics
///
/// Panics if socket setup fails (an in-process pair failing means the host
/// is out of descriptors) or a node/router thread panics.
pub fn run_live_transport<M, N>(
    cfg: LiveConfig,
    net: Box<dyn NetworkModel>,
    nodes: Vec<(N, usize)>,
    transport: TransportKind,
) -> LiveOutcome<N>
where
    M: Wire + Clone + Send + 'static,
    N: LiveNode<M> + 'static,
{
    if matches!(transport, TransportKind::Mpsc) {
        return run_live(cfg, net, nodes);
    }
    let (hub_end, worker_end) = SocketStream::pair(transport).expect("live transport socket pair");
    let regions: Vec<Region> = nodes.iter().map(|&(_, r)| Region(r)).collect();
    let with_ids: Vec<(NodeId, N)> =
        nodes.into_iter().enumerate().map(|(id, (n, _))| (id, n)).collect();
    let (seed, epsilon) = (cfg.seed, cfg.truetime_epsilon);
    let worker =
        std::thread::spawn(move || run_worker_conn::<M, N>(worker_end, 0, with_ids, seed, epsilon));
    let hub =
        run_hub_conns::<M>(&cfg, net, regions, vec![hub_end]).expect("live transport hub failed");
    let w = worker
        .join()
        .expect("live transport worker panicked")
        .expect("live transport worker failed");
    let mut nodes_by_id = w.nodes;
    nodes_by_id.sort_by_key(|&(id, _)| id);
    LiveOutcome {
        nodes: nodes_by_id.into_iter().map(|(_, n)| n).collect(),
        completed: hub.completed,
        net_stats: hub.net_stats,
        deliveries: hub.deliveries,
        finished_at: hub.finished_at,
        wall: hub.wall,
        wire: hub.wire,
    }
}
