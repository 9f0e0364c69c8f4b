//! Helpers shared by the workloads: metric lists, latency summaries, the
//! history digest, peak memory, and the timing wrapper around a boxed
//! session workload.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rand::rngs::SmallRng;
use regular_core::{History, OpId};
use regular_session::{CompletedRecord, SessionOp, SessionWorkload};
use regular_sim::metrics::LatencyRecorder;
use regular_sim::time::SimDuration;

/// What one workload invocation produced. Metric units live in the tables
/// of `main.rs`; a workload sets values by name, and metrics it has no
/// counterpart for (WAL counters on a volatile run, say) report 0.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted across the measured runs.
    pub attempted: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Measured runs at the start of an invocation that are checked but left
/// out of its throughput: the first run also pays for the process faulting
/// in its heap.
pub const WARMUP_RUNS: usize = 1;

/// Throughput of the runs after the warm-up: all their operations over all
/// their seconds. On a shared host the speed moves between levels within an
/// invocation; the pooled rate weighs every level by the time spent in it,
/// where a median of per-run rates picks whichever level the middle run hit.
pub fn pooled_rate<'a, T: 'a>(
    runs: &'a [T],
    ops: impl Fn(&T) -> f64,
    secs: impl Fn(&T) -> f64,
) -> f64 {
    let measured = &runs[WARMUP_RUNS.min(runs.len().saturating_sub(1))..];
    measured.iter().map(&ops).sum::<f64>() / measured.iter().map(&secs).sum::<f64>()
}

/// Set-up time of an invocation from blocks of set-up samples taken at
/// intervals through it: the mean of the blocks' medians. The samples of a
/// block are taken back to back and agree closely, while between blocks
/// contention on the host moves the level by up to 2x; the median of each
/// block drops outliers, and the mean over blocks measures the invocation
/// as a whole rather than whichever level holds the middle sample.
pub fn setup_estimate(blocks: &[Vec<f64>]) -> f64 {
    blocks.iter().map(|b| median(b)).sum::<f64>() / blocks.len().max(1) as f64
}

/// Latency summary of a run's completions, in simulated milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Latencies {
    /// Non-fence, non-orphan completions the percentiles cover.
    pub samples: usize,
    pub op_p50_ms: f64,
    pub op_p99_ms: f64,
    /// Spanner read-only transactions only.
    pub ro_p99_ms: f64,
    pub op_mean_ms: f64,
}

/// Latency percentiles (the simulator's nearest-rank [`LatencyRecorder`])
/// over non-fence, non-orphan records; `is_spanner` picks the records whose
/// read-only transactions feed `ro_p99_ms`.
pub fn latencies<'a>(records: impl Iterator<Item = (bool, &'a CompletedRecord)>) -> Latencies {
    let mut all = LatencyRecorder::new();
    let mut ro = LatencyRecorder::new();
    for (is_spanner, r) in records {
        if r.orphan || r.kind.is_fence() {
            continue;
        }
        all.record(r.latency());
        if is_spanner && r.kind.is_read_only() {
            ro.record(r.latency());
        }
    }
    let ms = |d: Option<SimDuration>| d.map_or(0.0, SimDuration::as_millis_f64);
    Latencies {
        samples: all.len(),
        op_p50_ms: ms(all.percentile(50.0)),
        op_p99_ms: ms(all.percentile(99.0)),
        ro_p99_ms: ms(ro.percentile(99.0)),
        op_mean_ms: ms(all.mean()),
    }
}

/// Failed attempts of a run, from the records' own counters: retried
/// attempts (aborts and timeouts) plus orphaned completions. Returns
/// `(failed, attempted)`; shed arrivals are added by the caller.
pub fn failed_attempts<'a>(records: impl Iterator<Item = &'a CompletedRecord>) -> (u64, u64) {
    let (mut failed, mut attempted) = (0u64, 0u64);
    for r in records {
        if r.kind.is_fence() {
            continue;
        }
        let attempts = u64::from(r.attempts.max(1));
        attempted += attempts;
        failed += attempts - 1 + u64::from(r.orphan);
    }
    (failed, attempted)
}

/// FNV-1a, a stable hasher for the history digest.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of a certified history and its witness: every operation's
/// process, service, kind, invocation, response and result, then the
/// witness order. Equal digests mean byte-identical histories (for one
/// toolchain: `Hash` of the derived types feeds the hasher).
pub fn history_digest(history: &History, witness: &[OpId]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for op in history.ops() {
        op.process.hash(&mut h);
        op.service.hash(&mut h);
        op.kind.hash(&mut h);
        op.invoke.hash(&mut h);
        op.response.hash(&mut h);
        op.result.hash(&mut h);
    }
    for e in history.messages().iter().chain(history.external_communications()) {
        (e.from, e.sent_at, e.to, e.received_at).hash(&mut h);
    }
    witness.hash(&mut h);
    h.finish()
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Shared observations of a [`TimedWorkload`]: when the first operation of
/// the run was issued, and (when timing is on) the calls and nanoseconds
/// spent generating operations.
#[derive(Default)]
pub struct WorkloadProbe {
    first_op: OnceLock<Instant>,
    timed: bool,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl WorkloadProbe {
    pub fn new(timed: bool) -> Arc<Self> {
        Arc::new(WorkloadProbe { timed, ..WorkloadProbe::default() })
    }

    /// The instant the run's first operation was generated.
    pub fn first_op(&self) -> Option<Instant> {
        self.first_op.get().copied()
    }

    /// `(calls, total seconds)` spent in `next_op`, when timed.
    pub fn next_op_time(&self) -> (u64, f64) {
        (self.calls.load(Ordering::Relaxed), self.nanos.load(Ordering::Relaxed) as f64 / 1e9)
    }
}

/// Wraps a boxed [`SessionWorkload`]: records when the first operation is
/// issued and, when the probe is timed, how long each `next_op` call takes.
pub struct TimedWorkload {
    inner: Box<dyn SessionWorkload>,
    probe: Arc<WorkloadProbe>,
}

impl TimedWorkload {
    pub fn boxed(
        inner: Box<dyn SessionWorkload>,
        probe: &Arc<WorkloadProbe>,
    ) -> Box<dyn SessionWorkload> {
        Box::new(TimedWorkload { inner, probe: Arc::clone(probe) })
    }
}

impl SessionWorkload for TimedWorkload {
    fn next_op(&mut self, rng: &mut SmallRng) -> SessionOp {
        if self.probe.first_op.get().is_none() {
            let _ = self.probe.first_op.set(Instant::now());
        }
        if !self.probe.timed {
            return self.inner.next_op(rng);
        }
        let started = Instant::now();
        let op = self.inner.next_op(rng);
        let nanos = started.elapsed().as_nanos() as u64;
        self.probe.calls.fetch_add(1, Ordering::Relaxed);
        self.probe.nanos.fetch_add(nanos, Ordering::Relaxed);
        op
    }
}

/// Seconds from `from` to `to`, 0 when `to` is earlier or missing.
pub fn secs_between(from: Instant, to: Option<Instant>) -> f64 {
    to.map(|t| t.saturating_duration_since(from).as_secs_f64()).unwrap_or(0.0)
}
