//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer's public function:
//! its name, start and end (nanos since the recorder's epoch), the span
//! that was open when it started, and the job it belongs to. Spans stay
//! in memory until the run ends, then [`Tracer::write_jsonl`] writes them
//! out. A disabled recorder runs the wrapped call and records nothing, so
//! the untraced run takes the same code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    job: Option<u64>,
}

/// Records nested spans around calls into the program's layers.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: Option<u64>,
}

impl Tracer {
    /// A recorder that records (`enabled`) or only runs the calls.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: None,
        }
    }

    /// Tags every span opened from now on with `job` (`None` clears it).
    pub fn set_job(&mut self, job: Option<u64>) {
        self.job = job;
    }

    /// Runs `f` inside a span called `name`. Spans opened by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Per span name: calls and summed self time. A span's self time is
    /// its duration minus the time its direct children cover.
    pub fn totals(&self) -> SpanTotals {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        SpanTotals(out)
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            );
            if let Some(p) = s.parent {
                let _ = write!(text, ",\"parent\":{p}");
            }
            if let Some(j) = s.job {
                let _ = write!(text, ",\"job\":{j}");
            }
            text.push_str("}\n");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Calls and summed self nanos per span name (see [`Tracer::totals`]).
#[derive(Debug, Default)]
pub struct SpanTotals(BTreeMap<&'static str, (u64, u64)>);

impl SpanTotals {
    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |&(n, _)| n)
    }

    /// Summed self time of the spans called `name`, in milliseconds.
    pub fn ms(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |&(_, ns)| ns as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = t.totals();
        assert_eq!(totals.calls("outer"), 1);
        assert_eq!(totals.calls("inner"), 1);
        assert!(totals.ms("inner") >= 2.0);
        assert!(totals.ms("outer") < totals.ms("inner"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert_eq!(t.totals().calls("x"), 0);
    }
}
