//! Hand-rolled wire codec for the socket transports.
//!
//! The socket backends ([`crate::net`]) move protocol messages between OS
//! processes, so everything that crosses a connection is encoded here with
//! the same little-endian [`Enc`]/[`Dec`] helpers and the same
//! `[len u32][crc32 u32][payload]` frame shape as the write-ahead log
//! (`regular_storage::codec` / `regular_storage::wal`). The workspace's
//! vendored `serde` is derive-only, so — exactly like the WAL record
//! encodings — the codecs are written by hand: one [`Wire`] impl per
//! protocol message and per control frame, a tag byte per enum variant.
//!
//! Decoding never panics. A truncated buffer yields `None` from [`Wire`]
//! decoders; a torn or corrupted frame yields an `io::Error` from
//! [`read_frame`] (`UnexpectedEof` for a clean cut at a frame boundary or
//! inside one, `InvalidData` for a CRC mismatch or an absurd length). The
//! framing proptests in `crates/live/tests/wire_torn.rs` pin both
//! properties: every prefix of a valid stream decodes the intact frames and
//! then fails cleanly, and no mutation of the bytes is ever accepted with a
//! different payload.

use std::io::{self, Read, Write};

use regular_core::op::{OpKind, OpResult};
use regular_core::types::{Key, ServiceId, Value};
use regular_gryff::messages::{Dep, GryffMsg, OpRef};
use regular_gryff::Carstamp;
use regular_session::{CompletedRecord, WitnessHint};
use regular_sim::{SimDuration, SimTime};
use regular_spanner::messages::{PreparedInfo, SpannerMsg, TxnId};
pub use regular_storage::codec::{crc32, Dec, Enc};
use regular_storage::codec::{frame_header, parse_frame_header, FRAME_HEADER};

/// A value that can cross a socket connection.
///
/// Mirrors the WAL-record contract: `encode` appends to an [`Enc`],
/// `decode` reads back from a [`Dec`] and returns `None` on truncation or
/// an unknown tag, never panicking.
pub trait Wire: Sized {
    /// Appends this value's encoding.
    fn encode(&self, e: &mut Enc);
    /// Decodes one value, consuming exactly what `encode` produced.
    fn decode(d: &mut Dec<'_>) -> Option<Self>;

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.encode(&mut e);
        e.finish()
    }

    /// Decodes from a buffer, requiring it to be fully consumed.
    fn from_bytes(buf: &[u8]) -> Option<Self> {
        let mut d = Dec::new(buf);
        let v = Self::decode(&mut d)?;
        if d.is_empty() {
            Some(v)
        } else {
            None
        }
    }
}

// ----- primitives and containers -----

impl Wire for u64 {
    fn encode(&self, e: &mut Enc) {
        e.u64(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        d.u64()
    }
}

impl Wire for usize {
    fn encode(&self, e: &mut Enc) {
        e.usize(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        d.usize()
    }
}

impl Wire for bool {
    fn encode(&self, e: &mut Enc) {
        e.bool(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        d.bool()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, e: &mut Enc) {
        e.u32(self.len() as u32);
        for item in self {
            item.encode(e);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let len = d.u32()? as usize;
        // Each element consumes at least one byte, so a length beyond the
        // remaining buffer is garbage — reject it before allocating.
        if len > d.remaining() {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(d)?);
        }
        Some(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, e: &mut Enc) {
        match self {
            None => {
                e.bool(false);
            }
            Some(v) => {
                e.bool(true);
                v.encode(e);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        if d.bool()? {
            Some(Some(T::decode(d)?))
        } else {
            Some(None)
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, e: &mut Enc) {
        self.0.encode(e);
        self.1.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        Some((A::decode(d)?, B::decode(d)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, e: &mut Enc) {
        self.0.encode(e);
        self.1.encode(e);
        self.2.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        Some((A::decode(d)?, B::decode(d)?, C::decode(d)?))
    }
}

// ----- core vocabulary -----

impl Wire for Key {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.0);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        d.u64().map(Key)
    }
}

impl Wire for Value {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.0);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        d.u64().map(Value)
    }
}

impl Wire for ServiceId {
    fn encode(&self, e: &mut Enc) {
        e.u32(self.0);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        d.u32().map(ServiceId)
    }
}

impl Wire for SimTime {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.0);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        d.u64().map(SimTime)
    }
}

impl Wire for SimDuration {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.0);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        d.u64().map(SimDuration)
    }
}

impl Wire for OpKind {
    fn encode(&self, e: &mut Enc) {
        match self {
            OpKind::Read { key } => {
                e.u8(0);
                key.encode(e);
            }
            OpKind::Write { key, value } => {
                e.u8(1);
                key.encode(e);
                value.encode(e);
            }
            OpKind::Rmw { key, value } => {
                e.u8(2);
                key.encode(e);
                value.encode(e);
            }
            OpKind::RoTxn { keys } => {
                e.u8(3);
                keys.encode(e);
            }
            OpKind::RwTxn { read_keys, writes } => {
                e.u8(4);
                read_keys.encode(e);
                writes.encode(e);
            }
            OpKind::Enqueue { queue, value } => {
                e.u8(5);
                queue.encode(e);
                value.encode(e);
            }
            OpKind::Dequeue { queue } => {
                e.u8(6);
                queue.encode(e);
            }
            OpKind::Fence => {
                e.u8(7);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        Some(match d.u8()? {
            0 => OpKind::Read { key: Wire::decode(d)? },
            1 => OpKind::Write { key: Wire::decode(d)?, value: Wire::decode(d)? },
            2 => OpKind::Rmw { key: Wire::decode(d)?, value: Wire::decode(d)? },
            3 => OpKind::RoTxn { keys: Wire::decode(d)? },
            4 => OpKind::RwTxn { read_keys: Wire::decode(d)?, writes: Wire::decode(d)? },
            5 => OpKind::Enqueue { queue: Wire::decode(d)?, value: Wire::decode(d)? },
            6 => OpKind::Dequeue { queue: Wire::decode(d)? },
            7 => OpKind::Fence,
            _ => return None,
        })
    }
}

impl Wire for OpResult {
    fn encode(&self, e: &mut Enc) {
        match self {
            OpResult::Value(v) => {
                e.u8(0);
                v.encode(e);
            }
            OpResult::Values(vs) => {
                e.u8(1);
                vs.encode(e);
            }
            OpResult::Ack => {
                e.u8(2);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        Some(match d.u8()? {
            0 => OpResult::Value(Wire::decode(d)?),
            1 => OpResult::Values(Wire::decode(d)?),
            2 => OpResult::Ack,
            _ => return None,
        })
    }
}

impl Wire for WitnessHint {
    fn encode(&self, e: &mut Enc) {
        match self {
            WitnessHint::None => {
                e.u8(0);
            }
            WitnessHint::Timestamp { ts } => {
                e.u8(1);
                e.u64(*ts);
            }
            WitnessHint::Carstamp { count, writer, rmwc } => {
                e.u8(2);
                e.u64(*count).u64(*writer).u64(*rmwc);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        Some(match d.u8()? {
            0 => WitnessHint::None,
            1 => WitnessHint::Timestamp { ts: d.u64()? },
            2 => WitnessHint::Carstamp { count: d.u64()?, writer: d.u64()?, rmwc: d.u64()? },
            _ => return None,
        })
    }
}

impl Wire for CompletedRecord {
    fn encode(&self, e: &mut Enc) {
        self.service.encode(e);
        self.kind.encode(e);
        self.result.encode(e);
        self.invoke.encode(e);
        self.finish.encode(e);
        e.u64(self.session);
        e.u32(self.slot);
        e.u32(self.attempts);
        e.u8(self.rounds);
        e.bool(self.orphan);
        self.witness.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        Some(CompletedRecord {
            service: Wire::decode(d)?,
            kind: Wire::decode(d)?,
            result: Wire::decode(d)?,
            invoke: Wire::decode(d)?,
            finish: Wire::decode(d)?,
            session: d.u64()?,
            slot: d.u32()?,
            attempts: d.u32()?,
            rounds: d.u8()?,
            orphan: d.bool()?,
            witness: Wire::decode(d)?,
        })
    }
}

// ----- Spanner protocol messages -----

impl Wire for TxnId {
    fn encode(&self, e: &mut Enc) {
        e.usize(self.client).u64(self.seq);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        Some(TxnId { client: d.usize()?, seq: d.u64()? })
    }
}

impl Wire for PreparedInfo {
    fn encode(&self, e: &mut Enc) {
        self.txn.encode(e);
        e.u64(self.t_prepare);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        Some(PreparedInfo { txn: Wire::decode(d)?, t_prepare: d.u64()? })
    }
}

impl Wire for SpannerMsg {
    fn encode(&self, e: &mut Enc) {
        match self {
            SpannerMsg::ExecRead { txn, keys } => {
                e.u8(0);
                txn.encode(e);
                keys.encode(e);
            }
            SpannerMsg::ExecReadReply { txn, values } => {
                e.u8(1);
                txn.encode(e);
                values.encode(e);
            }
            SpannerMsg::CommitRequest { txn, writes_by_shard, t_ee } => {
                e.u8(2);
                txn.encode(e);
                writes_by_shard.encode(e);
                e.u64(*t_ee);
            }
            SpannerMsg::Prepare { txn, writes, t_ee, coordinator } => {
                e.u8(3);
                txn.encode(e);
                writes.encode(e);
                e.u64(*t_ee).usize(*coordinator);
            }
            SpannerMsg::PrepareOk { txn, shard, t_prepare } => {
                e.u8(4);
                txn.encode(e);
                e.usize(*shard).u64(*t_prepare);
            }
            SpannerMsg::CommitDecision { txn, commit, t_commit } => {
                e.u8(5);
                txn.encode(e);
                e.bool(*commit).u64(*t_commit);
            }
            SpannerMsg::StatusRequest { txn } => {
                e.u8(6);
                txn.encode(e);
            }
            SpannerMsg::CommitReply { txn, commit, t_commit } => {
                e.u8(7);
                txn.encode(e);
                e.bool(*commit).u64(*t_commit);
            }
            SpannerMsg::AbortRequest { txn } => {
                e.u8(8);
                txn.encode(e);
            }
            SpannerMsg::RoCommit { txn, keys, t_read, t_min } => {
                e.u8(9);
                txn.encode(e);
                keys.encode(e);
                e.u64(*t_read).u64(*t_min);
            }
            SpannerMsg::RoReply { txn, shard, values } => {
                e.u8(10);
                txn.encode(e);
                e.usize(*shard);
                values.encode(e);
            }
            SpannerMsg::RoFastReply { txn, shard, skipped, values } => {
                e.u8(11);
                txn.encode(e);
                e.usize(*shard);
                skipped.encode(e);
                values.encode(e);
            }
            SpannerMsg::RoSlowReply { txn, shard, resolved, committed, t_commit, values } => {
                e.u8(12);
                txn.encode(e);
                e.usize(*shard);
                resolved.encode(e);
                e.bool(*committed).u64(*t_commit);
                values.encode(e);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        Some(match d.u8()? {
            0 => SpannerMsg::ExecRead { txn: Wire::decode(d)?, keys: Wire::decode(d)? },
            1 => SpannerMsg::ExecReadReply { txn: Wire::decode(d)?, values: Wire::decode(d)? },
            2 => SpannerMsg::CommitRequest {
                txn: Wire::decode(d)?,
                writes_by_shard: Wire::decode(d)?,
                t_ee: d.u64()?,
            },
            3 => SpannerMsg::Prepare {
                txn: Wire::decode(d)?,
                writes: Wire::decode(d)?,
                t_ee: d.u64()?,
                coordinator: d.usize()?,
            },
            4 => SpannerMsg::PrepareOk {
                txn: Wire::decode(d)?,
                shard: d.usize()?,
                t_prepare: d.u64()?,
            },
            5 => SpannerMsg::CommitDecision {
                txn: Wire::decode(d)?,
                commit: d.bool()?,
                t_commit: d.u64()?,
            },
            6 => SpannerMsg::StatusRequest { txn: Wire::decode(d)? },
            7 => SpannerMsg::CommitReply {
                txn: Wire::decode(d)?,
                commit: d.bool()?,
                t_commit: d.u64()?,
            },
            8 => SpannerMsg::AbortRequest { txn: Wire::decode(d)? },
            9 => SpannerMsg::RoCommit {
                txn: Wire::decode(d)?,
                keys: Wire::decode(d)?,
                t_read: d.u64()?,
                t_min: d.u64()?,
            },
            10 => SpannerMsg::RoReply {
                txn: Wire::decode(d)?,
                shard: d.usize()?,
                values: Wire::decode(d)?,
            },
            11 => SpannerMsg::RoFastReply {
                txn: Wire::decode(d)?,
                shard: d.usize()?,
                skipped: Wire::decode(d)?,
                values: Wire::decode(d)?,
            },
            12 => SpannerMsg::RoSlowReply {
                txn: Wire::decode(d)?,
                shard: d.usize()?,
                resolved: Wire::decode(d)?,
                committed: d.bool()?,
                t_commit: d.u64()?,
                values: Wire::decode(d)?,
            },
            _ => return None,
        })
    }
}

// ----- Gryff protocol messages -----

impl Wire for OpRef {
    fn encode(&self, e: &mut Enc) {
        e.usize(self.node).u64(self.seq);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        Some(OpRef { node: d.usize()?, seq: d.u64()? })
    }
}

impl Wire for Carstamp {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.count).u64(self.writer).u64(self.rmwc);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        Some(Carstamp { count: d.u64()?, writer: d.u64()?, rmwc: d.u64()? })
    }
}

impl Wire for Dep {
    fn encode(&self, e: &mut Enc) {
        self.key.encode(e);
        self.value.encode(e);
        self.cs.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        Some(Dep { key: Wire::decode(d)?, value: Wire::decode(d)?, cs: Wire::decode(d)? })
    }
}

impl Wire for GryffMsg {
    fn encode(&self, e: &mut Enc) {
        // The tag is the message's coverage class: a stable small integer
        // already pinned by the protocol crate.
        e.u8(self.class() as u8);
        match self {
            GryffMsg::Read1 { op, key, dep } | GryffMsg::Write1 { op, key, dep } => {
                op.encode(e);
                key.encode(e);
                dep.encode(e);
            }
            GryffMsg::Read1Reply { op, value, cs } => {
                op.encode(e);
                value.encode(e);
                cs.encode(e);
            }
            GryffMsg::Write1Reply { op, cs } => {
                op.encode(e);
                cs.encode(e);
            }
            GryffMsg::Write2 { op, key, value, cs } => {
                op.encode(e);
                key.encode(e);
                value.encode(e);
                cs.encode(e);
            }
            GryffMsg::Write2Reply { op } => {
                op.encode(e);
            }
            GryffMsg::Rmw { op, key, new_value, dep } => {
                op.encode(e);
                key.encode(e);
                new_value.encode(e);
                dep.encode(e);
            }
            GryffMsg::RmwReply { op, old_value, cs } => {
                op.encode(e);
                old_value.encode(e);
                cs.encode(e);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        Some(match d.u8()? {
            0 => GryffMsg::Read1 {
                op: Wire::decode(d)?,
                key: Wire::decode(d)?,
                dep: Wire::decode(d)?,
            },
            1 => GryffMsg::Read1Reply {
                op: Wire::decode(d)?,
                value: Wire::decode(d)?,
                cs: Wire::decode(d)?,
            },
            2 => GryffMsg::Write1 {
                op: Wire::decode(d)?,
                key: Wire::decode(d)?,
                dep: Wire::decode(d)?,
            },
            3 => GryffMsg::Write1Reply { op: Wire::decode(d)?, cs: Wire::decode(d)? },
            4 => GryffMsg::Write2 {
                op: Wire::decode(d)?,
                key: Wire::decode(d)?,
                value: Wire::decode(d)?,
                cs: Wire::decode(d)?,
            },
            5 => GryffMsg::Write2Reply { op: Wire::decode(d)? },
            6 => GryffMsg::Rmw {
                op: Wire::decode(d)?,
                key: Wire::decode(d)?,
                new_value: Wire::decode(d)?,
                dep: Wire::decode(d)?,
            },
            7 => GryffMsg::RmwReply {
                op: Wire::decode(d)?,
                old_value: Wire::decode(d)?,
                cs: Wire::decode(d)?,
            },
            _ => return None,
        })
    }
}

// ----- control frames -----

/// One frame of the hub/worker control protocol.
///
/// Everything a socket connection ever carries is one of these, inside a
/// `[len][crc]` frame. `Hello`/`Welcome` form the handshake; `Event` flows
/// hub → worker (router deliveries and power events); `Out`, `Completion`,
/// and `NodeDone` flow worker → hub.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<M> {
    /// Worker → hub, first frame on a connection: which nodes this worker
    /// process hosts.
    Hello {
        /// Worker index (0-based).
        worker: u64,
        /// Node ids hosted by this worker.
        nodes: Vec<u64>,
    },
    /// Hub → worker handshake reply: the shared clock anchor. Every process
    /// reconstructs the same simulated-time epoch from the wall clock (see
    /// [`crate::clock::LiveClock::from_unix_anchor`]).
    Welcome {
        /// `SystemTime` of simulated time zero, as nanoseconds since the
        /// UNIX epoch.
        epoch_unix_nanos: u64,
        /// Simulated microseconds per wall microsecond.
        time_scale: u64,
    },
    /// Hub → worker: a mailbox event for one hosted node.
    Event {
        /// Destination node.
        to: u64,
        /// The event.
        ev: WireEvent<M>,
    },
    /// Worker → hub: a node sent a message; the router applies network and
    /// fault verdicts exactly as it does for in-process senders.
    Out {
        /// Sending node.
        from: u64,
        /// Destination node.
        to: u64,
        /// Extra delay on top of network latency (`Context::send_after`).
        extra_us: u64,
        /// The message.
        msg: M,
    },
    /// Worker → hub: a session completed an operation (streams into online
    /// certification at the hub).
    Completion {
        /// The node whose session completed.
        node: u64,
        /// Service stream on multi-service nodes (0 otherwise).
        stream: u64,
        /// The completion record.
        rec: CompletedRecord,
    },
    /// Worker → hub, once per hosted node after its thread exits: the
    /// node's expired-delivery count (messages that arrived while crashed).
    NodeDone {
        /// The node.
        node: u64,
        /// Deliveries that expired at this node.
        expired: u64,
    },
}

/// The mailbox event kinds that cross a connection (the wire form of
/// [`crate::transport::LiveEvent`]).
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent<M> {
    /// Run `on_start`.
    Start,
    /// A message delivery.
    Msg {
        /// Sending node.
        from: u64,
        /// The message.
        msg: M,
    },
    /// Scripted crash.
    Crash,
    /// Recovery from a scripted crash.
    Recover,
    /// End of run.
    Stop,
}

impl<M: Wire> Wire for WireEvent<M> {
    fn encode(&self, e: &mut Enc) {
        match self {
            WireEvent::Start => {
                e.u8(0);
            }
            WireEvent::Msg { from, msg } => {
                e.u8(1);
                e.u64(*from);
                msg.encode(e);
            }
            WireEvent::Crash => {
                e.u8(2);
            }
            WireEvent::Recover => {
                e.u8(3);
            }
            WireEvent::Stop => {
                e.u8(4);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        Some(match d.u8()? {
            0 => WireEvent::Start,
            1 => WireEvent::Msg { from: d.u64()?, msg: M::decode(d)? },
            2 => WireEvent::Crash,
            3 => WireEvent::Recover,
            4 => WireEvent::Stop,
            _ => return None,
        })
    }
}

impl<M: Wire> Wire for Frame<M> {
    fn encode(&self, e: &mut Enc) {
        match self {
            Frame::Hello { worker, nodes } => {
                e.u8(0);
                e.u64(*worker);
                nodes.encode(e);
            }
            Frame::Welcome { epoch_unix_nanos, time_scale } => {
                e.u8(1);
                e.u64(*epoch_unix_nanos).u64(*time_scale);
            }
            Frame::Event { to, ev } => {
                e.u8(2);
                e.u64(*to);
                ev.encode(e);
            }
            Frame::Out { from, to, extra_us, msg } => {
                e.u8(3);
                e.u64(*from).u64(*to).u64(*extra_us);
                msg.encode(e);
            }
            Frame::Completion { node, stream, rec } => {
                e.u8(4);
                e.u64(*node).u64(*stream);
                rec.encode(e);
            }
            Frame::NodeDone { node, expired } => {
                e.u8(5);
                e.u64(*node).u64(*expired);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        Some(match d.u8()? {
            0 => Frame::Hello { worker: d.u64()?, nodes: Wire::decode(d)? },
            1 => Frame::Welcome { epoch_unix_nanos: d.u64()?, time_scale: d.u64()? },
            2 => Frame::Event { to: d.u64()?, ev: Wire::decode(d)? },
            3 => {
                Frame::Out { from: d.u64()?, to: d.u64()?, extra_us: d.u64()?, msg: M::decode(d)? }
            }
            4 => Frame::Completion { node: d.u64()?, stream: d.u64()?, rec: Wire::decode(d)? },
            5 => Frame::NodeDone { node: d.u64()?, expired: d.u64()? },
            _ => return None,
        })
    }
}

// ----- frame IO -----

/// Upper bound on one frame's payload. Protocol messages are a few hundred
/// bytes; anything near this is a corrupted length prefix.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Writes one `[len u32][crc32 u32][payload]` frame (the WAL frame shape on
/// a byte stream). Does not flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    w.write_all(&frame_header(payload))?;
    w.write_all(payload)
}

/// Reads one frame's payload into `buf` (replacing its contents).
///
/// Errors: `UnexpectedEof` when the stream ends (at a frame boundary or
/// inside a frame — a torn read), `InvalidData` when the length prefix is
/// absurd or the CRC does not match (a corrupted frame).
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut header = [0u8; FRAME_HEADER];
    r.read_exact(&mut header)?;
    let (len, crc) = parse_frame_header(&header);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound"),
        ));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    if crc32(buf) != crc {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame CRC mismatch"));
    }
    Ok(())
}

/// Encodes `frame` and writes it as one wire frame. Does not flush.
pub fn write_wire_frame<M: Wire>(w: &mut impl Write, frame: &Frame<M>) -> io::Result<()> {
    write_frame(w, &frame.to_bytes())
}

/// Reads and decodes one wire frame, using `buf` as scratch.
pub fn read_wire_frame<M: Wire>(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<Frame<M>> {
    read_frame(r, buf)?;
    Frame::from_bytes(buf)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "undecodable frame payload"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).as_ref(), Some(&v), "round trip failed");
        // Every strict prefix must decode to None, never panic.
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            let _ = T::decode(&mut d);
        }
    }

    #[test]
    fn spanner_messages_round_trip() {
        round_trip(SpannerMsg::CommitRequest {
            txn: TxnId { client: 7, seq: 42 },
            writes_by_shard: vec![(0, vec![(Key(1), Value(2))]), (1, vec![])],
            t_ee: 12345,
        });
        round_trip(SpannerMsg::RoFastReply {
            txn: TxnId { client: 3, seq: 9 },
            shard: 2,
            skipped: vec![PreparedInfo { txn: TxnId { client: 1, seq: 1 }, t_prepare: 77 }],
            values: vec![(Key(5), 88, Value(6))],
        });
        round_trip(SpannerMsg::StatusRequest { txn: TxnId { client: 0, seq: 0 } });
    }

    #[test]
    fn gryff_messages_round_trip() {
        let cs = Carstamp { count: 4, writer: 2, rmwc: 1 };
        round_trip(GryffMsg::Read1 {
            op: OpRef { node: 5, seq: 6 },
            key: Key(7),
            dep: Some(Dep { key: Key(7), value: Value(8), cs }),
        });
        round_trip(GryffMsg::Write1 { op: OpRef { node: 1, seq: 2 }, key: Key(3), dep: None });
        round_trip(GryffMsg::RmwReply { op: OpRef { node: 9, seq: 10 }, old_value: Value(11), cs });
    }

    #[test]
    fn completion_and_control_frames_round_trip() {
        let rec = CompletedRecord {
            service: ServiceId(1),
            kind: OpKind::RwTxn { read_keys: vec![Key(1)], writes: vec![(Key(2), Value(3))] },
            result: OpResult::Values(vec![(Key(1), Value(9))]),
            invoke: SimTime::from_micros(10),
            finish: SimTime::from_micros(30),
            session: 4,
            slot: 1,
            attempts: 2,
            rounds: 3,
            orphan: false,
            witness: WitnessHint::Timestamp { ts: 25 },
        };
        round_trip(Frame::<SpannerMsg>::Completion { node: 3, stream: 0, rec });
        round_trip(Frame::<SpannerMsg>::Hello { worker: 1, nodes: vec![0, 2, 4] });
        round_trip(Frame::<SpannerMsg>::Welcome { epoch_unix_nanos: 1_700_000, time_scale: 40 });
        round_trip(Frame::Event {
            to: 2,
            ev: WireEvent::Msg {
                from: 1,
                msg: SpannerMsg::AbortRequest { txn: TxnId { client: 1, seq: 2 } },
            },
        });
        round_trip(Frame::<GryffMsg>::Event { to: 0, ev: WireEvent::Stop });
        round_trip(Frame::<GryffMsg>::NodeDone { node: 1, expired: 7 });
    }

    #[test]
    fn frame_io_round_trips_and_rejects_corruption() {
        let mut stream = Vec::new();
        let frames = [
            Frame::<SpannerMsg>::Hello { worker: 0, nodes: vec![1] },
            Frame::Event { to: 1, ev: WireEvent::Start },
        ];
        for f in &frames {
            write_wire_frame(&mut stream, f).unwrap();
        }
        let mut r = &stream[..];
        let mut buf = Vec::new();
        for f in &frames {
            assert_eq!(&read_wire_frame::<SpannerMsg>(&mut r, &mut buf).unwrap(), f);
        }
        assert_eq!(
            read_wire_frame::<SpannerMsg>(&mut r, &mut buf).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Flip one payload byte: CRC must reject it.
        let mut corrupt = stream.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        let mut r = &corrupt[..];
        assert!(read_wire_frame::<SpannerMsg>(&mut r, &mut buf).is_ok());
        assert_eq!(
            read_wire_frame::<SpannerMsg>(&mut r, &mut buf).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn hostile_lengths_are_rejected_without_allocation() {
        // A vector length prefix beyond the buffer is rejected.
        let mut e = Enc::new();
        e.u32(u32::MAX);
        assert_eq!(Vec::<u64>::from_bytes(&e.finish()), None);
        // A frame length prefix beyond the bound is InvalidData.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let mut r = &bytes[..];
        let mut buf = Vec::new();
        assert_eq!(read_frame(&mut r, &mut buf).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
