//! Socket transports: the live plane across process boundaries.
//!
//! The mpsc transport (PR 7) moves messages between threads of one process.
//! This module carries the same traffic over kernel sockets — Unix-domain
//! or TCP — so protocol nodes can run as separate OS processes while the
//! router keeps doing exactly what it does in-process: apply
//! [`NetworkModel`] latency and [`FaultSchedule`](regular_sim::fault::FaultSchedule)
//! verdicts on the scaled wall clock, and record
//! [`DeliveryRecord`]s for failure
//! artifacts.
//!
//! # Topology
//!
//! One **hub** process owns the router, the completion collector, and the
//! shared clock anchor. Each **worker** process hosts a subset of the node
//! threads. A worker's connection carries, framed by [`crate::wire`]:
//!
//! ```text
//!   worker → hub : Hello{worker, nodes}          (handshake)
//!   hub → worker : Welcome{epoch, scale}         (clock anchor)
//!   hub → worker : Event{to, Start/Msg/Crash/Recover/Stop}
//!   worker → hub : Out{from, to, extra, msg}     (sends, pre-verdict)
//!   worker → hub : Completion{node, stream, rec} (streams into certification)
//!   worker → hub : NodeDone{node, expired}       (per node, at exit)
//! ```
//!
//! Every message therefore crosses the kernel twice (sender → hub,
//! hub → receiver) and is encoded/decoded twice — the honest serialization
//! cost `live_bench --transport` measures against mpsc.
//!
//! The in-process entry point [`crate::exec::run_live_transport`] reuses
//! this exact machinery over a socket pair, so the differential tests pin
//! socket behaviour without spawning processes; the multi-process entry
//! points [`run_hub_multiproc`]/[`run_worker_multiproc`] are the same code
//! behind a listener.

use std::collections::HashMap;
use std::io::{self, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use regular_session::CompletedRecord;
use regular_sim::net::{NetworkModel, Region};
use regular_sim::{MessageStats, NodeId, SimDuration, SimTime};

use crate::clock::LiveClock;
use crate::exec::{run_node, LiveConfig, LiveNode};
use crate::transport::{run_router, DeliveryRecord, LiveEvent, Mailbox, Outgoing, TransportKind};
use crate::wire::{read_wire_frame, write_frame, Frame, Wire, WireEvent};

/// Byte/frame counters of one run's socket traffic, from the hub's
/// perspective (`tx` = hub → workers, `rx` = workers → hub). All zeros on
/// the mpsc transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames sent by the hub.
    pub frames_tx: u64,
    /// Payload + header bytes sent by the hub.
    pub bytes_tx: u64,
    /// Frames received by the hub.
    pub frames_rx: u64,
    /// Payload + header bytes received by the hub.
    pub bytes_rx: u64,
}

#[derive(Default)]
struct WireCounters {
    frames_tx: AtomicU64,
    bytes_tx: AtomicU64,
    frames_rx: AtomicU64,
    bytes_rx: AtomicU64,
}

impl WireCounters {
    fn count_tx(&self, payload_len: usize) {
        self.frames_tx.fetch_add(1, Ordering::Relaxed);
        self.bytes_tx.fetch_add(payload_len as u64 + 8, Ordering::Relaxed);
    }
    fn count_rx(&self, payload_len: usize) {
        self.frames_rx.fetch_add(1, Ordering::Relaxed);
        self.bytes_rx.fetch_add(payload_len as u64 + 8, Ordering::Relaxed);
    }
    fn snapshot(&self) -> WireStats {
        WireStats {
            frames_tx: self.frames_tx.load(Ordering::Relaxed),
            bytes_tx: self.bytes_tx.load(Ordering::Relaxed),
            frames_rx: self.frames_rx.load(Ordering::Relaxed),
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
        }
    }
}

// ----- streams, listeners, addresses -----

/// A connected stream of either socket family.
#[derive(Debug)]
pub enum SocketStream {
    /// Unix-domain stream socket.
    Uds(UnixStream),
    /// TCP stream (`TCP_NODELAY` set — router frames are latency-bound).
    Tcp(TcpStream),
}

impl SocketStream {
    /// Duplicates the handle (for the read/write thread split).
    pub fn try_clone(&self) -> io::Result<SocketStream> {
        Ok(match self {
            SocketStream::Uds(s) => SocketStream::Uds(s.try_clone()?),
            SocketStream::Tcp(s) => SocketStream::Tcp(s.try_clone()?),
        })
    }

    /// Shuts down the write half, delivering EOF to the peer's reader.
    pub fn shutdown_write(&self) {
        let _ = match self {
            SocketStream::Uds(s) => s.shutdown(std::net::Shutdown::Write),
            SocketStream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
        };
    }

    /// An in-process connected pair of the given kind — the transport the
    /// single-process socket modes run over ([`crate::exec::run_live_transport`]).
    ///
    /// `Mpsc` has no socket form and is rejected.
    pub fn pair(kind: TransportKind) -> io::Result<(SocketStream, SocketStream)> {
        match kind {
            TransportKind::Mpsc => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the mpsc transport has no socket pair",
            )),
            TransportKind::Uds => {
                let (a, b) = UnixStream::pair()?;
                Ok((SocketStream::Uds(a), SocketStream::Uds(b)))
            }
            TransportKind::Tcp => {
                let listener = TcpListener::bind(("127.0.0.1", 0))?;
                let addr = listener.local_addr()?;
                let client = TcpStream::connect(addr)?;
                let (server, _) = listener.accept()?;
                client.set_nodelay(true)?;
                server.set_nodelay(true)?;
                Ok((SocketStream::Tcp(server), SocketStream::Tcp(client)))
            }
        }
    }
}

impl Read for SocketStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            SocketStream::Uds(s) => s.read(buf),
            SocketStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for SocketStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            SocketStream::Uds(s) => s.write(buf),
            SocketStream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            SocketStream::Uds(s) => s.flush(),
            SocketStream::Tcp(s) => s.flush(),
        }
    }
}

/// Where a multi-process hub listens (and workers connect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// A Unix-domain socket path.
    Uds(PathBuf),
    /// A TCP `host:port` string.
    Tcp(String),
}

impl ListenAddr {
    /// Parses `uds:<path>` or `tcp:<host>:<port>`.
    pub fn parse(s: &str) -> Option<ListenAddr> {
        let s = s.trim();
        if let Some(path) = s.strip_prefix("uds:") {
            (!path.is_empty()).then(|| ListenAddr::Uds(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            addr.contains(':').then(|| ListenAddr::Tcp(addr.to_string()))
        } else {
            None
        }
    }

    /// The transport family of this address.
    pub fn kind(&self) -> TransportKind {
        match self {
            ListenAddr::Uds(_) => TransportKind::Uds,
            ListenAddr::Tcp(_) => TransportKind::Tcp,
        }
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Uds(p) => write!(f, "uds:{}", p.display()),
            ListenAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// A bound listener of either socket family.
pub enum Listener {
    /// Unix-domain listener.
    Uds(UnixListener),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds `addr`, removing a stale socket file first for UDS.
    pub fn bind(addr: &ListenAddr) -> io::Result<Listener> {
        match addr {
            ListenAddr::Uds(path) => {
                let _ = std::fs::remove_file(path);
                Ok(Listener::Uds(UnixListener::bind(path)?))
            }
            ListenAddr::Tcp(a) => Ok(Listener::Tcp(TcpListener::bind(a.as_str())?)),
        }
    }

    /// Accepts one worker connection.
    pub fn accept(&self) -> io::Result<SocketStream> {
        match self {
            Listener::Uds(l) => l.accept().map(|(s, _)| SocketStream::Uds(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                SocketStream::Tcp(s)
            }),
        }
    }
}

/// Connects to a hub, retrying while it finishes binding (workers and hub
/// race at process spawn).
pub fn connect(addr: &ListenAddr, timeout: Duration) -> io::Result<SocketStream> {
    let deadline = Instant::now() + timeout;
    loop {
        let attempt = match addr {
            ListenAddr::Uds(path) => UnixStream::connect(path).map(SocketStream::Uds),
            ListenAddr::Tcp(a) => TcpStream::connect(a.as_str()).map(|s| {
                let _ = s.set_nodelay(true);
                SocketStream::Tcp(s)
            }),
        };
        match attempt {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

// ----- the router's socket peer -----

/// The router-side mailbox of a node hosted in another process: events are
/// encoded as `Event` frames onto the owning connection's writer queue.
pub struct RemotePeer {
    node: u64,
    tx: Sender<Vec<u8>>,
}

impl<M: Wire + Send> Mailbox<M> for RemotePeer {
    fn deliver(&self, ev: LiveEvent<M>) -> bool {
        let ev = match ev {
            LiveEvent::Start => WireEvent::Start,
            LiveEvent::Msg { from, msg } => WireEvent::Msg { from: from as u64, msg },
            LiveEvent::Crash => WireEvent::Crash,
            LiveEvent::Recover => WireEvent::Recover,
            LiveEvent::Stop => WireEvent::Stop,
        };
        self.tx.send(Frame::Event { to: self.node, ev }.to_bytes()).is_ok()
    }
}

/// Writer loop: drains payload buffers from `rx` into framed writes,
/// flushing whenever the queue goes idle (group-commit shape: bursts share
/// one syscall). Exits when every sender is gone, then signals EOF.
fn write_loop(stream: SocketStream, rx: Receiver<Vec<u8>>, counters: Arc<WireCounters>) {
    let raw = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut w = BufWriter::new(raw);
    'outer: while let Ok(first) = rx.recv() {
        let mut payload = first;
        loop {
            if write_frame(&mut w, &payload).is_err() {
                break 'outer;
            }
            counters.count_tx(payload.len());
            match rx.try_recv() {
                Ok(next) => payload = next,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break 'outer,
            }
        }
        if w.flush().is_err() {
            break;
        }
    }
    let _ = w.flush();
    stream.shutdown_write();
}

/// What one run accumulated at the hub.
pub(crate) struct HubRun {
    pub completed: Vec<Vec<(usize, CompletedRecord)>>,
    pub net_stats: MessageStats,
    pub deliveries: Vec<DeliveryRecord>,
    pub finished_at: SimTime,
    pub wall: Duration,
    pub wire: WireStats,
}

/// The hub half of a socket run: handshakes the given connections, runs the
/// router over remote mailboxes, collects completions online, and settles
/// expired-delivery accounting from the workers' `NodeDone` reports.
///
/// `regions` covers **all** nodes (id-indexed); the workers' `Hello` frames
/// must partition exactly that id space.
pub(crate) fn run_hub_conns<M>(
    cfg: &LiveConfig,
    net: Box<dyn NetworkModel>,
    regions: Vec<Region>,
    conns: Vec<SocketStream>,
) -> io::Result<HubRun>
where
    M: Wire + Clone + Send + 'static,
{
    let start_wall = Instant::now();
    let num_nodes = regions.len();
    let counters = Arc::new(WireCounters::default());

    // Handshake: every worker declares its node set; together they must
    // cover each node exactly once.
    let mut conn_of_node: Vec<Option<usize>> = vec![None; num_nodes];
    let mut streams = Vec::with_capacity(conns.len());
    let mut scratch = Vec::new();
    for (ci, mut conn) in conns.into_iter().enumerate() {
        match read_wire_frame::<M>(&mut conn, &mut scratch)? {
            Frame::Hello { nodes, .. } => {
                for id in nodes {
                    let id = id as usize;
                    if id >= num_nodes || conn_of_node[id].is_some() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("worker hello claims node {id} twice or out of range"),
                        ));
                    }
                    conn_of_node[id] = Some(ci);
                }
            }
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected Hello as a connection's first frame",
                ))
            }
        }
        streams.push(conn);
    }
    if let Some(missing) = conn_of_node.iter().position(|c| c.is_none()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("no worker hosts node {missing}"),
        ));
    }
    let conn_of_node: Vec<usize> = conn_of_node.into_iter().map(|c| c.unwrap()).collect();

    // All workers are connected: anchor the clock and release them.
    let clock = LiveClock::start(cfg.time_scale);
    let welcome = Frame::<M>::Welcome {
        epoch_unix_nanos: clock.unix_anchor_nanos(),
        time_scale: clock.scale(),
    }
    .to_bytes();
    for conn in &mut streams {
        write_frame(conn, &welcome)?;
        conn.flush()?;
    }

    // Per-connection writer and reader threads.
    let (net_tx, net_rx) = mpsc::channel::<Outgoing<M>>();
    let (rec_tx, rec_rx) = mpsc::channel::<(NodeId, usize, CompletedRecord)>();
    let (done_tx, done_rx) = mpsc::channel::<(NodeId, u64)>();
    let mut writer_txs = Vec::with_capacity(streams.len());
    let mut io_threads = Vec::new();
    for stream in streams {
        let (wtx, wrx) = mpsc::channel::<Vec<u8>>();
        writer_txs.push(wtx);
        let wcounters = Arc::clone(&counters);
        let wstream = stream.try_clone()?;
        io_threads.push(std::thread::spawn(move || write_loop(wstream, wrx, wcounters)));
        let rcounters = Arc::clone(&counters);
        let (net_tx, rec_tx, done_tx) = (net_tx.clone(), rec_tx.clone(), done_tx.clone());
        io_threads.push(std::thread::spawn(move || {
            let mut stream = stream;
            let mut buf = Vec::new();
            while let Ok(frame) = read_wire_frame::<M>(&mut stream, &mut buf) {
                rcounters.count_rx(buf.len());
                match frame {
                    Frame::Out { from, to, extra_us, msg } => {
                        let _ = net_tx.send(Outgoing {
                            from: from as usize,
                            to: to as usize,
                            extra: SimDuration::from_micros(extra_us),
                            msg,
                        });
                    }
                    Frame::Completion { node, stream: svc, rec } => {
                        let _ = rec_tx.send((node as usize, svc as usize, rec));
                    }
                    Frame::NodeDone { node, expired } => {
                        let _ = done_tx.send((node as usize, expired));
                    }
                    // Handshake frames after the handshake are a protocol
                    // error; drop the connection by exiting the reader.
                    Frame::Hello { .. } | Frame::Welcome { .. } | Frame::Event { .. } => break,
                }
            }
        }));
    }
    drop(net_tx);
    drop(rec_tx);
    drop(done_tx);

    // Remote mailboxes, then the standard router + online collector.
    let mailboxes: Vec<Arc<dyn Mailbox<M>>> = (0..num_nodes)
        .map(|id| {
            Arc::new(RemotePeer { node: id as u64, tx: writer_txs[conn_of_node[id]].clone() })
                as Arc<dyn Mailbox<M>>
        })
        .collect();
    let router_stop = Arc::new(AtomicBool::new(false));
    let router = {
        let faults = cfg.faults.clone();
        let mailboxes = mailboxes.clone();
        let stop = Arc::clone(&router_stop);
        let (seed, record) = (cfg.seed, cfg.record_deliveries);
        std::thread::spawn(move || {
            run_router(clock, net, faults, regions, mailboxes, net_rx, seed, record, stop)
        })
    };
    for mb in &mailboxes {
        mb.deliver(LiveEvent::Start);
    }

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

    for mb in &mailboxes {
        mb.deliver(LiveEvent::Stop);
    }
    router_stop.store(true, Ordering::Relaxed);
    let report = router.join().expect("live router panicked");
    // Dropping every RemotePeer sender lets the writer threads drain, flush,
    // and shut the write halves down — which is what tells the workers the
    // hub is done once their own nodes have stopped.
    drop(mailboxes);
    drop(writer_txs);

    // Workers close their write halves after sending one NodeDone per node;
    // the reader threads then see EOF, disconnecting these channels.
    for (id, stream, rec) in rec_rx.iter() {
        completed[id].push((stream, rec));
    }
    let mut expired_total = 0u64;
    let mut done = 0usize;
    for (_, expired) in done_rx.iter() {
        expired_total += expired;
        done += 1;
    }
    if done != num_nodes {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("only {done}/{num_nodes} nodes reported NodeDone"),
        ));
    }
    for t in io_threads {
        let _ = t.join();
    }

    let mut stats = report.stats;
    stats.delivered = stats.delivered.saturating_sub(expired_total);
    stats.expired = expired_total;
    Ok(HubRun {
        completed,
        net_stats: stats,
        deliveries: report.deliveries,
        finished_at,
        wall: start_wall.elapsed(),
        wire: counters.snapshot(),
    })
}

/// What the worker half returns (useful in-process, discarded by worker
/// processes). Expired-delivery counts travel in `NodeDone` frames, so the
/// hub owns that accounting on every path.
pub(crate) struct WorkerRun<N> {
    pub nodes: Vec<(NodeId, N)>,
}

/// The worker half of a socket run: hosts `nodes` (with their global ids)
/// as one thread each, bridging their mailboxes and outboxes over `stream`.
pub(crate) fn run_worker_conn<M, N>(
    stream: SocketStream,
    worker: u64,
    nodes: Vec<(NodeId, N)>,
    seed: u64,
    epsilon: SimDuration,
) -> io::Result<WorkerRun<N>>
where
    M: Wire + Clone + Send + 'static,
    N: LiveNode<M> + 'static,
{
    // Handshake: declare our nodes, receive the shared clock anchor.
    let mut conn = stream;
    let hello =
        Frame::<M>::Hello { worker, nodes: nodes.iter().map(|&(id, _)| id as u64).collect() };
    write_frame(&mut conn, &hello.to_bytes())?;
    conn.flush()?;
    let mut scratch = Vec::new();
    let clock = match read_wire_frame::<M>(&mut conn, &mut scratch)? {
        Frame::Welcome { epoch_unix_nanos, time_scale } => {
            LiveClock::from_unix_anchor(epoch_unix_nanos, time_scale)
        }
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected Welcome as the handshake reply",
            ))
        }
    };

    // One writer thread serializes everything we send; a demux thread fans
    // incoming events out to the node mailboxes.
    let counters = Arc::new(WireCounters::default());
    let (writer_tx, writer_rx) = mpsc::channel::<Vec<u8>>();
    let writer = {
        let stream = conn.try_clone()?;
        let counters = Arc::clone(&counters);
        std::thread::spawn(move || write_loop(stream, writer_rx, counters))
    };

    let (net_tx, net_rx) = mpsc::channel::<Outgoing<M>>();
    let (rec_tx, rec_rx) = mpsc::channel::<(NodeId, usize, CompletedRecord)>();
    let mut mailbox_of: HashMap<u64, Sender<LiveEvent<M>>> = HashMap::new();
    let mut node_threads = Vec::with_capacity(nodes.len());
    for (id, node) in nodes {
        let (tx, rx) = mpsc::channel::<LiveEvent<M>>();
        mailbox_of.insert(id as u64, tx);
        let (net_tx, rec_tx) = (net_tx.clone(), rec_tx.clone());
        node_threads.push((
            id,
            std::thread::spawn(move || {
                run_node(node, id, clock, seed, epsilon, rx, net_tx, rec_tx)
            }),
        ));
    }
    drop(net_tx);
    drop(rec_tx);

    let demux = std::thread::spawn(move || {
        let mut conn = conn;
        let mut buf = Vec::new();
        while let Ok(frame) = read_wire_frame::<M>(&mut conn, &mut buf) {
            if let Frame::Event { to, ev } = frame {
                let Some(mb) = mailbox_of.get(&to) else { continue };
                let ev = match ev {
                    WireEvent::Start => LiveEvent::Start,
                    WireEvent::Msg { from, msg } => LiveEvent::Msg { from: from as usize, msg },
                    WireEvent::Crash => LiveEvent::Crash,
                    WireEvent::Recover => LiveEvent::Recover,
                    WireEvent::Stop => LiveEvent::Stop,
                };
                let _ = mb.send(ev);
            }
        }
        // EOF or error: dropping the senders unblocks any node still
        // waiting on its mailbox (the hub is gone).
    });

    // Uplink: forward sends and completions as frames until the node
    // threads drop their channel ends.
    let up_out = {
        let writer_tx = writer_tx.clone();
        std::thread::spawn(move || {
            for o in net_rx.iter() {
                let frame = Frame::Out {
                    from: o.from as u64,
                    to: o.to as u64,
                    extra_us: o.extra.as_micros(),
                    msg: o.msg,
                };
                if writer_tx.send(frame.to_bytes()).is_err() {
                    break;
                }
            }
        })
    };
    let up_rec = {
        let writer_tx = writer_tx.clone();
        std::thread::spawn(move || {
            for (id, stream, rec) in rec_rx.iter() {
                let frame = Frame::<M>::Completion { node: id as u64, stream: stream as u64, rec };
                if writer_tx.send(frame.to_bytes()).is_err() {
                    break;
                }
            }
        })
    };

    // Nodes exit on their Stop events; report each and wind down.
    let mut out_nodes = Vec::with_capacity(node_threads.len());
    let mut per_node_expired = Vec::with_capacity(node_threads.len());
    for (id, t) in node_threads {
        let r = t.join().expect("live node thread panicked");
        per_node_expired.push((id, r.expired));
        out_nodes.push((id, r.node));
    }
    let _ = up_out.join();
    let _ = up_rec.join();
    for (id, node_expired) in per_node_expired {
        let frame = Frame::<M>::NodeDone { node: id as u64, expired: node_expired };
        let _ = writer_tx.send(frame.to_bytes());
    }
    drop(writer_tx);
    let _ = writer.join();
    let _ = demux.join();
    Ok(WorkerRun { nodes: out_nodes })
}

// ----- multi-process entry points -----

/// What a multi-process run produced at the hub. Node state machines live
/// (and die) in the worker processes; certification needs only the
/// completion stream, which is collected here.
pub struct MultiprocOutcome {
    /// Completions per node in completion order, tagged with the service
    /// stream.
    pub completed: Vec<Vec<(usize, CompletedRecord)>>,
    /// Message counters with engine semantics.
    pub net_stats: MessageStats,
    /// The delivery log (empty unless recording was enabled).
    pub deliveries: Vec<DeliveryRecord>,
    /// Simulated time when the run stopped.
    pub finished_at: SimTime,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Socket traffic counters.
    pub wire: WireStats,
}

/// Runs the hub of a multi-process cluster: accepts `workers` connections
/// on `listener`, then routes and collects until `cfg.stop_at`.
///
/// `regions` is the full id-indexed region list (the same one the workers
/// derive from the shared scenario spec).
pub fn run_hub_multiproc<M>(
    cfg: &LiveConfig,
    net: Box<dyn NetworkModel>,
    regions: Vec<usize>,
    listener: Listener,
    workers: usize,
) -> io::Result<MultiprocOutcome>
where
    M: Wire + Clone + Send + 'static,
{
    let mut conns = Vec::with_capacity(workers);
    for _ in 0..workers {
        conns.push(listener.accept()?);
    }
    let regions = regions.into_iter().map(Region).collect();
    let run = run_hub_conns::<M>(cfg, net, regions, conns)?;
    Ok(MultiprocOutcome {
        completed: run.completed,
        net_stats: run.net_stats,
        deliveries: run.deliveries,
        finished_at: run.finished_at,
        wall: run.wall,
        wire: run.wire,
    })
}

/// Runs one worker process of a multi-process cluster.
///
/// `nodes` is the **full** deterministic node list of the scenario (every
/// worker builds it identically from the shared spec, so ids line up); this
/// worker keeps and hosts the ids with `id % num_workers == worker`.
pub fn run_worker_multiproc<M, N>(
    addr: &ListenAddr,
    worker: usize,
    num_workers: usize,
    nodes: Vec<(N, usize)>,
    seed: u64,
    epsilon: SimDuration,
) -> io::Result<()>
where
    M: Wire + Clone + Send + 'static,
    N: LiveNode<M> + 'static,
{
    assert!(num_workers > 0 && worker < num_workers, "worker index out of range");
    let mine: Vec<(NodeId, N)> = nodes
        .into_iter()
        .enumerate()
        .filter(|(id, _)| id % num_workers == worker)
        .map(|(id, (n, _region))| (id, n))
        .collect();
    let stream = connect(addr, Duration::from_secs(10))?;
    run_worker_conn::<M, N>(stream, worker as u64, mine, seed, epsilon)?;
    Ok(())
}
