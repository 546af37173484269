//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! A span records one public call: its name (`layer.call`), start and
//! end on a monotonic clock, the span that was open when it began, and
//! the op it belongs to.  Spans stay in memory while the benchmark runs
//! and are written out once at the end.  A layer's self time is the time
//! its spans cover minus the part their child spans cover.
//!
//! A disabled tracer runs the traced closure and records nothing, so the
//! untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Op id given to spans recorded during set-up.
pub const SETUP_OP: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `core.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to ([`SETUP_OP`] during set-up).
    pub op: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the part of the name before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; a pass-through when disabled.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: SETUP_OP,
        }
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` gets the tracer back so
    /// that it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in nanoseconds per layer over the spans whose op passes
    /// `keep`.
    pub fn self_ns_by_layer(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            if keep(s.op) {
                *out.entry(s.layer()).or_default() += s.ns().saturating_sub(children);
            }
        }
        out
    }

    /// Total nanoseconds in spans named `name` whose op passes `keep`.
    pub fn total_ns(&self, name: &str, keep: impl Fn(u64) -> bool) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.op))
            .map(Span::ns)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let op = if s.op == SETUP_OP {
                "\"setup\"".to_string()
            } else {
                s.op.to_string()
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("core.run", |_| 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::enabled();
        t.set_op(0);
        t.span("bench.op", |t| {
            t.span("core.run", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let by_layer = t.self_ns_by_layer(|_| true);
        assert_eq!(by_layer["bench"] + by_layer["core"], spans[0].ns());
        assert!(by_layer["core"] >= 2_000_000);
    }
}
