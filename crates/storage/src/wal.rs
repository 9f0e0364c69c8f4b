//! The write-ahead log: segmented frames, group commit, checkpoints, and a
//! torn-tail-tolerant recovery scan.
//!
//! ## On-device layout
//!
//! Log records live in append-only segments (`wal-NNNNNN.seg`), each a run of
//! frames: `[len: u32 LE][crc32(payload): u32 LE][payload]`. The page file
//! holds checkpoints: pages 0 and 1 are ping-ponged, crc-guarded *meta*
//! pages (the valid one with the highest epoch wins), and two snapshot areas
//! alternate starting at page 2 so a crash mid-checkpoint never damages the
//! previous checkpoint.
//!
//! ## Group commit
//!
//! [`Wal::append`] writes the frame to the device immediately but defers the
//! fsync: the log stays "dirty" until [`Wal::sync`], and
//! [`Wal::deadline_us`] reports when the oldest unsynced record's
//! `group_commit_us` window expires. The caller (the protocol node) holds
//! back outbound messages while [`Wal::wants_sync`] is true — see the crate
//! docs for why that makes torn tails harmless.
//!
//! ## Recovery
//!
//! The scan loads the best meta page, restores the snapshot it points at,
//! then replays frames from the recorded log position. It stops — without
//! panicking — at the first incomplete or checksum-failing frame, truncates
//! the torn bytes, and discards any later segments. Data appended after a
//! lost record is unreachable by construction *because* [`Wal::append`]
//! syncs before rotating segments: unsynced frames exist only in the final
//! segment, so a crash can tear the log's tail but never its middle, and the
//! replayed records are always an exact prefix of what was appended.

use crate::codec::{crc32, frame_header, parse_frame_header, FRAME_HEADER};
use crate::device::{DirDisk, NodeDisk};
use crate::pool::{BufferPool, PAGE_SIZE};
use crate::{Backing, WalOptions};

/// Upper bound on a single record; anything larger in a length field is
/// treated as corruption.
const MAX_RECORD: u32 = 16 * 1024 * 1024;
/// Pages reserved per snapshot area (16 MiB each).
const MAX_SNAPSHOT_PAGES: u64 = 4096;
const META_MAGIC: u32 = 0x5253_574C; // "RSWL"

/// Per-WAL counters; aggregated across nodes into
/// [`crate::StorageSummary`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    pub records: u64,
    pub bytes: u64,
    pub syncs: u64,
    pub checkpoints: u64,
    /// Checkpoints skipped because the snapshot outgrew its area.
    pub skipped_checkpoints: u64,
    pub recoveries: u64,
    pub replayed: u64,
    pub torn_bytes: u64,
}

/// What a recovery scan hands back to the protocol.
pub struct RecoveredLog {
    /// The last checkpoint's snapshot, if one was ever written.
    pub snapshot: Option<Vec<u8>>,
    /// Every intact record after the checkpoint position, in append order.
    pub records: Vec<Vec<u8>>,
}

impl RecoveredLog {
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.records.is_empty()
    }
}

struct Meta {
    epoch: u64,
    snap_len: u64,
    snap_crc: u32,
    wal_seg: u64,
    wal_off: u64,
}

struct ScanEnd {
    segment: u64,
    offset: u64,
    epoch: u64,
    torn_bytes: u64,
}

struct Dirty {
    first_segment: u64,
    since_us: u64,
}

pub struct Wal {
    disk: NodeDisk,
    pool: BufferPool,
    group_commit_us: u64,
    segment_bytes: u64,
    checkpoint_every: u64,
    torn_tail_seed: Option<u64>,
    cur_segment: u64,
    cur_len: u64,
    dirty: Option<Dirty>,
    records_since_checkpoint: u64,
    epoch: u64,
    stats: WalStats,
}

impl Wal {
    /// Open (or re-open) the log named `name` under `opts.backing`. The scan
    /// that runs here is the same one crash recovery uses, so re-opening an
    /// existing directory resumes where the last process left off.
    pub fn open(opts: &WalOptions, name: &str) -> (Wal, RecoveredLog) {
        let mut disk = match &opts.backing {
            Backing::Memory(registry) => NodeDisk::Mem(registry.disk(name)),
            Backing::Dir(dir) => {
                NodeDisk::Dir(DirDisk::open(dir.join(name)).expect("open WAL directory"))
            }
        };
        let (log, end) = scan(&mut disk, true);
        let mut wal = Wal {
            disk,
            pool: BufferPool::new(16),
            group_commit_us: opts.group_commit_us,
            segment_bytes: opts.segment_bytes.max(FRAME_HEADER as u64 + 1),
            checkpoint_every: opts.checkpoint_every,
            torn_tail_seed: opts.torn_tail_seed,
            cur_segment: end.segment,
            cur_len: end.offset,
            dirty: None,
            records_since_checkpoint: log.records.len() as u64,
            epoch: end.epoch,
            stats: WalStats::default(),
        };
        wal.disk.create_segment(wal.cur_segment);
        (wal, log)
    }

    pub fn stats(&self) -> WalStats {
        self.stats
    }

    pub fn group_commit_us(&self) -> u64 {
        self.group_commit_us
    }

    /// Append one record. The frame reaches the device now; its fsync is
    /// deferred to [`Wal::sync`].
    pub fn append(&mut self, payload: &[u8], now_us: u64) {
        assert!(payload.len() as u64 <= MAX_RECORD as u64, "record too large");
        let frame_len = FRAME_HEADER + payload.len();
        if self.cur_len > 0 && self.cur_len + frame_len as u64 > self.segment_bytes {
            // Sync before rotating so unsynced data only ever lives in the
            // final segment. Rotating with dirty frames behind would let a
            // crash truncate the *middle* of the log (the non-final segment
            // loses its unsynced tail at a clean frame boundary) while later
            // frames survive in the next segment's torn tail — and the
            // recovery scan would replay them, violating the prefix
            // invariant. An early fsync is always safe; it just shrinks the
            // group-commit batch at segment boundaries.
            self.sync();
            self.cur_segment += 1;
            self.cur_len = 0;
            self.disk.create_segment(self.cur_segment);
        }
        let mut frame = Vec::with_capacity(frame_len);
        frame.extend_from_slice(&frame_header(payload));
        frame.extend_from_slice(payload);
        self.disk.append_segment(self.cur_segment, &frame);
        self.cur_len += frame_len as u64;
        self.stats.records += 1;
        self.stats.bytes += frame_len as u64;
        self.records_since_checkpoint += 1;
        if self.dirty.is_none() {
            self.dirty = Some(Dirty { first_segment: self.cur_segment, since_us: now_us });
        }
    }

    /// Is there appended-but-unsynced data?
    pub fn wants_sync(&self) -> bool {
        self.dirty.is_some()
    }

    /// When the group-commit window of the oldest unsynced record expires.
    pub fn deadline_us(&self) -> Option<u64> {
        self.dirty.as_ref().map(|d| d.since_us + self.group_commit_us)
    }

    /// Fsync every segment with unsynced data — one group commit.
    pub fn sync(&mut self) {
        let Some(dirty) = self.dirty.take() else { return };
        for seg in dirty.first_segment..=self.cur_segment {
            self.disk.sync_segment(seg);
        }
        self.stats.syncs += 1;
    }

    pub fn checkpoint_due(&self) -> bool {
        self.checkpoint_every > 0 && self.records_since_checkpoint >= self.checkpoint_every
    }

    /// Write a checkpoint: sync the log, persist `snapshot` into the inactive
    /// snapshot area, flip the meta page, and prune fully covered segments.
    /// Returns false (and keeps counting) if the snapshot doesn't fit.
    pub fn checkpoint(&mut self, snapshot: &[u8]) -> bool {
        let pages = (snapshot.len() as u64).div_ceil(PAGE_SIZE as u64).max(1);
        if pages > MAX_SNAPSHOT_PAGES {
            self.stats.skipped_checkpoints += 1;
            // Back off so the size check doesn't rerun every turn.
            self.records_since_checkpoint = 0;
            return false;
        }
        // The snapshot reflects state that includes unsynced records; sync
        // first so the meta page never points past durable data... and more
        // importantly so the caller can release held-back messages.
        self.sync();
        let next_epoch = self.epoch + 1;
        let area_base = 2 + (next_epoch % 2) * MAX_SNAPSHOT_PAGES;
        for (i, chunk) in snapshot.chunks(PAGE_SIZE).enumerate() {
            self.pool.write(&mut self.disk, area_base + i as u64, chunk);
        }
        if snapshot.is_empty() {
            self.pool.write(&mut self.disk, area_base, &[]);
        }
        self.pool.flush(&mut self.disk);
        let meta = encode_meta(&Meta {
            epoch: next_epoch,
            snap_len: snapshot.len() as u64,
            snap_crc: crc32(snapshot),
            wal_seg: self.cur_segment,
            wal_off: self.cur_len,
        });
        self.pool.write(&mut self.disk, next_epoch % 2, &meta);
        self.pool.flush(&mut self.disk);
        self.epoch = next_epoch;
        // Everything before the current segment is covered by the snapshot.
        for seg in self.disk.segment_ids() {
            if seg < self.cur_segment {
                self.disk.delete_segment(seg);
            }
        }
        self.records_since_checkpoint = 0;
        self.stats.checkpoints += 1;
        true
    }

    /// The node crashed: apply device crash semantics (lost unsynced pages,
    /// torn log tail) and drop every volatile view of the device.
    pub fn on_crash(&mut self) {
        self.disk.crash(self.torn_tail_seed);
        self.pool.clear();
        self.dirty = None;
    }

    /// Rescan the device after a crash, repairing torn tails, and hand back
    /// snapshot + surviving records for the protocol to replay.
    pub fn recover(&mut self) -> RecoveredLog {
        self.pool.clear();
        let (log, end) = scan(&mut self.disk, true);
        self.cur_segment = end.segment;
        self.cur_len = end.offset;
        self.epoch = end.epoch;
        self.dirty = None;
        self.records_since_checkpoint = log.records.len() as u64;
        self.disk.create_segment(self.cur_segment);
        self.stats.recoveries += 1;
        self.stats.replayed += log.records.len() as u64;
        self.stats.torn_bytes += end.torn_bytes;
        log
    }

    /// Offline, read-only scan of a device (no repair, no stats) — what a
    /// differential test uses to replay a node's log after a run.
    pub fn read_log(disk: &mut NodeDisk) -> RecoveredLog {
        scan(disk, false).0
    }
}

fn encode_meta(meta: &Meta) -> Vec<u8> {
    let mut buf = Vec::with_capacity(44);
    buf.extend_from_slice(&META_MAGIC.to_le_bytes());
    buf.extend_from_slice(&meta.epoch.to_le_bytes());
    buf.extend_from_slice(&meta.snap_len.to_le_bytes());
    buf.extend_from_slice(&meta.snap_crc.to_le_bytes());
    buf.extend_from_slice(&meta.wal_seg.to_le_bytes());
    buf.extend_from_slice(&meta.wal_off.to_le_bytes());
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

fn decode_meta(page: &[u8]) -> Option<Meta> {
    if page.len() < 44 {
        return None;
    }
    let body = &page[..40];
    let stored_crc = u32::from_le_bytes(page[40..44].try_into().unwrap());
    if crc32(body) != stored_crc {
        return None;
    }
    let magic = u32::from_le_bytes(body[0..4].try_into().unwrap());
    if magic != META_MAGIC {
        return None;
    }
    Some(Meta {
        epoch: u64::from_le_bytes(body[4..12].try_into().unwrap()),
        snap_len: u64::from_le_bytes(body[12..20].try_into().unwrap()),
        snap_crc: u32::from_le_bytes(body[20..24].try_into().unwrap()),
        wal_seg: u64::from_le_bytes(body[24..32].try_into().unwrap()),
        wal_off: u64::from_le_bytes(body[32..40].try_into().unwrap()),
    })
}

fn read_best_meta(disk: &mut NodeDisk) -> Option<Meta> {
    let mut buf = vec![0u8; PAGE_SIZE];
    let mut best: Option<Meta> = None;
    for page in 0..2 {
        disk.read_page(page, &mut buf);
        if let Some(meta) = decode_meta(&buf) {
            if best.as_ref().is_none_or(|b| meta.epoch > b.epoch) {
                best = Some(meta);
            }
        }
    }
    best
}

fn read_snapshot(disk: &mut NodeDisk, meta: &Meta) -> Option<Vec<u8>> {
    let base = 2 + (meta.epoch % 2) * MAX_SNAPSHOT_PAGES;
    let pages = meta.snap_len.div_ceil(PAGE_SIZE as u64).max(1);
    if pages > MAX_SNAPSHOT_PAGES {
        return None;
    }
    let mut snap = Vec::with_capacity(meta.snap_len as usize);
    let mut buf = vec![0u8; PAGE_SIZE];
    for i in 0..pages {
        disk.read_page(base + i, &mut buf);
        snap.extend_from_slice(&buf);
    }
    snap.truncate(meta.snap_len as usize);
    if crc32(&snap) != meta.snap_crc {
        return None;
    }
    Some(snap)
}

/// The recovery scan. With `repair` set, torn tails are truncated away, dead
/// segments deleted, and surviving data marked durable.
fn scan(disk: &mut NodeDisk, repair: bool) -> (RecoveredLog, ScanEnd) {
    let meta = read_best_meta(disk);
    let (snapshot, mut start_seg, mut start_off, epoch) = match &meta {
        Some(m) => match read_snapshot(disk, m) {
            Some(snap) => (Some(snap), m.wal_seg, m.wal_off, m.epoch),
            // A valid meta with an unreadable snapshot means the device is
            // damaged beyond the crash model; recover what the raw log holds.
            None => (None, 0, 0, m.epoch),
        },
        None => (None, 0, 0, 0),
    };
    let ids = disk.segment_ids();
    if snapshot.is_none() {
        if let Some(&first) = ids.first() {
            start_seg = first.max(start_seg);
            start_off = if start_seg == ids[0] { start_off } else { 0 };
        }
    }
    let mut records = Vec::new();
    let mut torn_bytes = 0u64;
    let mut end_seg = start_seg;
    let mut end_off = start_off;
    let mut stopped = false;
    for &id in ids.iter().filter(|&&id| id >= start_seg) {
        if stopped {
            // Data after a torn frame is unreachable: count and drop it.
            torn_bytes += disk.segment_len(id);
            if repair {
                disk.delete_segment(id);
            }
            continue;
        }
        let data = disk.read_segment(id);
        let mut off = if id == start_seg { (start_off as usize).min(data.len()) } else { 0 };
        loop {
            if off + FRAME_HEADER > data.len() {
                if off < data.len() {
                    torn_bytes += (data.len() - off) as u64;
                    stopped = true;
                }
                break;
            }
            let (len, crc) = parse_frame_header(data[off..off + FRAME_HEADER].try_into().unwrap());
            let payload_end = off + FRAME_HEADER + len;
            if len > MAX_RECORD as usize || payload_end > data.len() {
                torn_bytes += (data.len() - off) as u64;
                stopped = true;
                break;
            }
            let payload = &data[off + FRAME_HEADER..payload_end];
            if crc32(payload) != crc {
                torn_bytes += (data.len() - off) as u64;
                stopped = true;
                break;
            }
            records.push(payload.to_vec());
            off = payload_end;
        }
        end_seg = id;
        end_off = off as u64;
        if stopped && repair {
            disk.truncate_segment(id, end_off);
        }
    }
    if repair {
        // Segments wholly covered by the snapshot (a crash can land between
        // the meta flush and pruning on a real filesystem) are dead weight.
        for &id in ids.iter().filter(|&&id| id < start_seg) {
            disk.delete_segment(id);
        }
        disk.mark_all_synced();
    }
    (
        RecoveredLog { snapshot, records },
        ScanEnd { segment: end_seg, offset: end_off, epoch, torn_bytes },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StorageRegistry, WalOptions};

    fn mem_opts(registry: &StorageRegistry) -> WalOptions {
        WalOptions::mem(registry.clone())
    }

    fn record(i: u64) -> Vec<u8> {
        // Variable-length payloads so frame boundaries land at odd offsets.
        let mut v = i.to_le_bytes().to_vec();
        v.extend(std::iter::repeat_n(i as u8, (i % 13) as usize));
        v
    }

    #[test]
    fn append_sync_reopen_round_trip() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry);
        let (mut wal, log) = Wal::open(&opts, "node");
        assert!(log.is_empty());
        for i in 0..50 {
            wal.append(&record(i), i);
        }
        wal.sync();
        let (_, log) = Wal::open(&opts, "node");
        assert!(log.snapshot.is_none());
        assert_eq!(log.records.len(), 50);
        for (i, rec) in log.records.iter().enumerate() {
            assert_eq!(rec, &record(i as u64));
        }
    }

    #[test]
    fn group_commit_window_and_deadline() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry).with_group_commit_us(500);
        let (mut wal, _) = Wal::open(&opts, "node");
        assert!(!wal.wants_sync());
        assert_eq!(wal.deadline_us(), None);
        wal.append(b"a", 1000);
        wal.append(b"b", 1200);
        assert!(wal.wants_sync());
        assert_eq!(wal.deadline_us(), Some(1500), "window anchored at the oldest append");
        wal.sync();
        assert!(!wal.wants_sync());
        assert_eq!(wal.stats().syncs, 1, "two appends shared one group commit");
    }

    #[test]
    fn crash_without_sync_loses_clean_tail() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry);
        let (mut wal, _) = Wal::open(&opts, "node");
        wal.append(&record(0), 0);
        wal.append(&record(1), 0);
        wal.sync();
        wal.append(&record(2), 0);
        wal.on_crash();
        let log = wal.recover();
        assert_eq!(log.records.len(), 2, "unsynced record vanished cleanly");
        assert_eq!(wal.stats().recoveries, 1);
        assert_eq!(wal.stats().replayed, 2);
        // The log keeps working after recovery.
        wal.append(&record(2), 0);
        wal.sync();
        let (_, log) = Wal::open(&opts, "node");
        assert_eq!(log.records.len(), 3);
    }

    #[test]
    fn torn_tails_recover_a_prefix_for_every_seed() {
        // Both large segments (no rotation) and 64-byte segments (the
        // unsynced run spans a rotation) must recover an exact prefix.
        for segment_bytes in [64 * 1024, 64] {
            for seed in 0..128 {
                let registry = StorageRegistry::new();
                let opts =
                    mem_opts(&registry).with_torn_tail_seed(seed).with_segment_bytes(segment_bytes);
                let (mut wal, _) = Wal::open(&opts, "node");
                for i in 0..5 {
                    wal.append(&record(i), 0);
                }
                wal.sync();
                for i in 5..12 {
                    wal.append(&record(i), 0);
                }
                wal.on_crash();
                let log = wal.recover();
                assert!(
                    log.records.len() >= 5,
                    "synced records must survive (seed {seed}, seg {segment_bytes})"
                );
                assert!(log.records.len() <= 12);
                for (i, rec) in log.records.iter().enumerate() {
                    assert_eq!(
                        rec,
                        &record(i as u64),
                        "recovered prefix must be intact (seed {seed}, seg {segment_bytes})"
                    );
                }
            }
        }
    }

    #[test]
    fn unsynced_rotation_crash_never_replays_past_a_lost_record() {
        // Regression: with 64-byte segments an unsynced run of appends spans
        // a segment rotation. Before append() synced at rotation, a crash
        // truncated the non-final segment to its frame-aligned synced prefix
        // — ending the scan cleanly — and then replayed parseable frames
        // from the next segment's torn tail (e.g. seed 24 recovered records
        // [0,1,2,8], silently dropping 3..=7). Recovery must always hand
        // back an exact, gap-free prefix of the append order.
        for seed in 0..128 {
            let registry = StorageRegistry::new();
            let opts = mem_opts(&registry).with_segment_bytes(64).with_torn_tail_seed(seed);
            let (mut wal, _) = Wal::open(&opts, "node");
            for i in 0..3 {
                wal.append(&record(i), 0);
            }
            wal.sync();
            for i in 3..9 {
                wal.append(&record(i), 0);
            }
            wal.on_crash();
            let log = wal.recover();
            assert!(log.records.len() >= 3, "synced records must survive (seed {seed})");
            assert!(log.records.len() <= 9);
            for (i, rec) in log.records.iter().enumerate() {
                assert_eq!(rec, &record(i as u64), "gap-free prefix required (seed {seed})");
            }
        }
    }

    #[test]
    fn truncating_the_final_record_at_every_byte_offset_recovers_a_prefix() {
        // Build a clean multi-record log image, then replay recovery against
        // every possible truncation point of the final frame (and, while
        // we're at it, every earlier offset too).
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry);
        let (mut wal, _) = Wal::open(&opts, "node");
        let mut boundaries = vec![0u64]; // frame-aligned offsets
        for i in 0..8 {
            wal.append(&record(i), 0);
            boundaries.push(wal.cur_len);
        }
        wal.sync();
        let image = registry.disk("node").read_segment(0);
        assert_eq!(*boundaries.last().unwrap() as usize, image.len());

        for cut in 0..=image.len() {
            let truncated = StorageRegistry::new();
            let disk = truncated.disk("victim");
            disk.create_segment(0);
            disk.append_segment(0, &image[..cut]);
            disk.sync_segment(0);
            let mut node_disk = NodeDisk::Mem(disk);
            let log = Wal::read_log(&mut node_disk);
            let expect = boundaries.iter().filter(|&&b| b > 0 && b as usize <= cut).count();
            assert_eq!(
                log.records.len(),
                expect,
                "cut at byte {cut}: expected the longest complete prefix"
            );
            for (i, rec) in log.records.iter().enumerate() {
                assert_eq!(rec, &record(i as u64));
            }
        }
    }

    #[test]
    fn corrupting_any_single_byte_never_panics_and_never_misreads() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry);
        let (mut wal, _) = Wal::open(&opts, "node");
        for i in 0..4 {
            wal.append(&record(i), 0);
        }
        wal.sync();
        let image = registry.disk("node").read_segment(0);
        for victim in 0..image.len() {
            let mut bytes = image.clone();
            bytes[victim] ^= 0x40;
            let reg = StorageRegistry::new();
            let disk = reg.disk("v");
            disk.create_segment(0);
            disk.append_segment(0, &bytes);
            disk.sync_segment(0);
            let mut node_disk = NodeDisk::Mem(disk);
            let log = Wal::read_log(&mut node_disk);
            // Every recovered record must be one of the originals, in order
            // — corruption may shorten the prefix, never fabricate data.
            // (A flipped length byte can alias a later frame boundary only
            // with a matching crc, which the checksum makes implausible.)
            assert!(log.records.len() <= 4);
            for (i, rec) in log.records.iter().enumerate() {
                assert_eq!(rec, &record(i as u64), "corrupt byte {victim}");
            }
        }
    }

    #[test]
    fn segment_rotation_and_multi_segment_recovery() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry).with_segment_bytes(64);
        let (mut wal, _) = Wal::open(&opts, "node");
        for i in 0..40 {
            wal.append(&record(i), 0);
        }
        wal.sync();
        assert!(registry.disk("node").segment_ids().len() > 1, "rotation happened");
        let (_, log) = Wal::open(&opts, "node");
        assert_eq!(log.records.len(), 40);
        for (i, rec) in log.records.iter().enumerate() {
            assert_eq!(rec, &record(i as u64));
        }
    }

    #[test]
    fn checkpoint_prunes_segments_and_recovery_resumes_from_snapshot() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry).with_segment_bytes(64).with_checkpoint_every(10);
        let (mut wal, _) = Wal::open(&opts, "node");
        for i in 0..10 {
            wal.append(&record(i), 0);
        }
        assert!(wal.checkpoint_due());
        let snapshot = b"state-after-ten".to_vec();
        assert!(wal.checkpoint(&snapshot));
        assert!(!wal.checkpoint_due());
        let segments_after = registry.disk("node").segment_ids();
        assert_eq!(segments_after.len(), 1, "older segments pruned");
        for i in 10..14 {
            wal.append(&record(i), 0);
        }
        wal.sync();
        wal.on_crash();
        let log = wal.recover();
        assert_eq!(log.snapshot.as_deref(), Some(&snapshot[..]));
        assert_eq!(log.records.len(), 4, "only the post-checkpoint tail replays");
        assert_eq!(log.records[0], record(10));
    }

    #[test]
    fn checkpoint_ping_pong_survives_repeated_cycles() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry).with_checkpoint_every(5);
        let (mut wal, _) = Wal::open(&opts, "node");
        for round in 0u64..6 {
            for i in 0..5 {
                wal.append(&record(round * 5 + i), 0);
            }
            let snap = format!("round-{round}").into_bytes();
            assert!(wal.checkpoint(&snap));
            wal.on_crash();
            let log = wal.recover();
            assert_eq!(log.snapshot, Some(format!("round-{round}").into_bytes()));
            assert!(log.records.is_empty());
        }
        assert_eq!(wal.stats().checkpoints, 6);
    }

    #[test]
    fn empty_and_fresh_devices_recover_to_empty() {
        let registry = StorageRegistry::new();
        let (mut wal, log) = Wal::open(&mem_opts(&registry), "fresh");
        assert!(log.is_empty());
        wal.on_crash();
        let log = wal.recover();
        assert!(log.is_empty());
    }

    #[test]
    fn oversized_snapshot_is_skipped_not_fatal() {
        let registry = StorageRegistry::new();
        let opts = mem_opts(&registry).with_checkpoint_every(1);
        let (mut wal, _) = Wal::open(&opts, "node");
        wal.append(&record(0), 0);
        let huge = vec![0u8; (MAX_SNAPSHOT_PAGES as usize + 1) * PAGE_SIZE];
        assert!(!wal.checkpoint(&huge));
        assert_eq!(wal.stats().skipped_checkpoints, 1);
        wal.sync();
        let (_, log) = Wal::open(&opts, "node");
        assert_eq!(log.records.len(), 1, "log intact after skipped checkpoint");
    }
}
