//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Every call the benchmark makes into a layer's public API is wrapped in a
//! span carrying its layer, name, start, end, parent span and run id. Runs
//! are root spans (layer `run`); layer spans are their children. Work a
//! layer does *inside* another layer's call — workload generation inside the
//! simulator, the WAL inside a durable simulation — is added as a derived
//! child span whose duration was measured separately (an aggregate of timed
//! callbacks, or the wall-time difference against a twin run), so the
//! parent's self time excludes it. The benchmark's own work inside a run
//! (summaries, digests, dropping results) is spanned under layer `bench`,
//! which the ledger reports as overhead rather than as a program layer.
//!
//! Spans stay in memory and are written as Chrome trace-event JSON when the
//! benchmark ends; Perfetto and `chrome://tracing` open the file.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are microseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub run: u32,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// True for a derived span: its duration was measured elsewhere and it
    /// is drawn at its parent's start.
    pub derived: bool,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Records spans when enabled; always returns the measured durations, so
/// the untraced path times the same calls without keeping spans.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_run: u32,
}

/// Handle of an open span.
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer { epoch, enabled, spans: Vec::new(), stack: Vec::new(), next_run: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn us(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    fn current_run(&self) -> u32 {
        self.stack.first().map(|&i| self.spans[i].run).unwrap_or(self.next_run)
    }

    /// Opens a span nested under the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &str) -> Open {
        let started = Instant::now();
        if !self.enabled {
            return Open { index: None, started };
        }
        let run = if self.stack.is_empty() && layer == "run" {
            self.next_run += 1;
            self.next_run - 1
        } else {
            self.current_run()
        };
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            run,
            start_us: self.us(started),
            end_us: self.us(started),
            parent: self.stack.last().copied(),
            derived: false,
        });
        self.stack.push(index);
        Open { index: Some(index), started }
    }

    /// Closes `open` (which must be the innermost open span) and returns its
    /// duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let ended = Instant::now();
        if let Some(index) = open.index {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(index), "spans close innermost first");
            self.spans[index].end_us = self.us(ended);
        }
        ended.duration_since(open.started).as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(layer, name);
        let out = f();
        let secs = self.end(open);
        (out, secs)
    }

    /// Adds a derived child of the most recently closed span named `parent`
    /// in the current run, lasting `secs`.
    pub fn derive(&mut self, parent: &str, layer: &'static str, name: &str, secs: f64) {
        if !self.enabled {
            return;
        }
        let Some(p) = self.spans.iter().rposition(|s| s.name == parent) else {
            return;
        };
        let start = self.spans[p].start_us;
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            run: self.spans[p].run,
            start_us: start,
            end_us: start + secs.max(0.0) * 1e6,
            parent: Some(p),
            derived: true,
        });
    }

    /// Self time per layer in run `run` (seconds, layers in first-seen
    /// order): each span's duration minus its children's.
    pub fn self_times(&self, run: u32) -> Vec<(&'static str, f64)> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.run != run || s.layer == "run" {
                continue;
            }
            let own = s.secs() - child_secs[i];
            match out.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, t)) => *t += own,
                None => out.push((s.layer, own)),
            }
        }
        out
    }

    /// Root span of run `run`.
    pub fn root(&self, run: u32) -> Option<&Span> {
        self.spans.iter().find(|s| s.run == run && s.layer == "run")
    }

    /// Run ids recorded so far.
    pub fn runs(&self) -> Vec<u32> {
        self.spans.iter().filter(|s| s.layer == "run").map(|s| s.run).collect()
    }

    /// Writes the spans as Chrome trace-event JSON (complete `X` events;
    /// `pid` 1, `tid` = run id, `args` carry the layer, parent and whether
    /// the span is derived).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".to_string());
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"run\":{},\
                 \"derived\":{}}}}}",
                json_string(&s.name),
                s.layer,
                s.start_us,
                s.end_us - s.start_us,
                s.run,
                i,
                parent,
                s.run,
                s.derived
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_derived_spans() {
        let mut t = Tracer::new(Instant::now(), true);
        let run = t.begin("run", "r");
        let sim = t.begin("sim", "sim.run");
        std::thread::sleep(std::time::Duration::from_millis(4));
        t.end(sim);
        t.derive("sim.run", "storage", "storage.overhead", 0.001);
        let ((), _) = t
            .time("checker", "certify", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.end(run);
        let selfs = t.self_times(0);
        let sim_self = selfs.iter().find(|(l, _)| *l == "sim").unwrap().1;
        let storage = selfs.iter().find(|(l, _)| *l == "storage").unwrap().1;
        assert!((storage - 0.001).abs() < 1e-9);
        assert!(sim_self >= 0.0029, "sim self {sim_self}");
        assert_eq!(t.runs(), vec![0]);
        let root = t.root(0).unwrap();
        let sum: f64 = selfs.iter().map(|(_, s)| s).sum();
        assert!(sum <= root.secs() + 1e-9);
    }
}
