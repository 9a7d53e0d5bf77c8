//! Spans recorded by the benchmark around every call it makes into a
//! layer. Held in memory, written out as NDJSON when the traced run ends.
//!
//! The program itself records nothing here: every span is opened and
//! closed by benchmark code, from outside the layer it names.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.scanner.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Measured repetition the span belongs to.
    pub rep: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` inside when the tracer is disabled.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder. A disabled tracer records nothing, so the
/// untraced run executes the same benchmark code minus the bookkeeping.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) spans.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Turns recording on or off (open spans must be closed first).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggle only between spans");
        self.enabled = enabled;
    }

    /// Sets the repetition number stamped on subsequent spans.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
        // Stamp last, so the bookkeeping above is outside the span.
        self.spans[idx].start_ns = self.now_ns();
        SpanId(Some(idx))
    }

    /// Closes a span.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order (a benchmark bug).
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost-first");
        self.spans[idx].end_ns = now;
    }

    /// A span's self time: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::dur_ns)
            .sum();
        self.spans[idx].dur_ns().saturating_sub(children)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_ndjson(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (idx, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{idx},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\
                 \"parent\":{parent},\"workload\":\"{workload}\",\"rep\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(idx),
                s.rep
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_rep(3);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let spans = &t.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].rep, 3);
        assert!(spans[0].dur_ns() >= spans[1].dur_ns());
        assert_eq!(t.self_ns(0), spans[0].dur_ns() - spans[1].dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        t.end(id);
        assert!(t.spans.is_empty());
    }
}
