//! In-memory spans around the benchmark's own calls into each layer.
//! A span records its request, the span that caused it, its name, its
//! start and end, and the allocations its thread made inside it. Spans
//! stay in memory while the benchmark runs and are written out as JSON
//! lines when it ends.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The request, pair or sample the span belongs to.
    pub request: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The layer call, e.g. `http.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer started.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Allocations the span's thread made inside it; for an opened
    /// span, the total of its children.
    pub allocs: u64,
}

impl Span {
    /// Duration in microseconds.
    #[must_use]
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder with no spans, timing from now.
    #[must_use]
    pub fn start() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span and returns what it returned.
    pub fn span<T>(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let allocs = alloc::allocations();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let allocs = alloc::allocations() - allocs;
        self.spans.push(Span { request, parent, name, start_ns, end_ns, allocs });
        out
    }

    /// Opens a span for later spans to name as their parent; returns its
    /// index for [`Tracer::close`].
    pub fn open(&mut self, request: u64, parent: Option<usize>, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { request, parent, name, start_ns, end_ns: start_ns, allocs: 0 });
        self.spans.len() - 1
    }

    /// Closes an opened span.
    pub fn close(&mut self, index: usize) {
        let end_ns = self.now_ns();
        let allocs = self.children(index).map(|span| span.allocs).sum();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.allocs = allocs;
    }

    /// The spans that span `index` caused.
    pub fn children(&self, index: usize) -> impl Iterator<Item = &Span> {
        self.spans[index + 1..].iter().filter(move |span| span.parent == Some(index))
    }

    /// The span at `index`.
    #[must_use]
    pub fn get(&self, index: usize) -> Span {
        self.spans[index]
    }

    /// The span recorded last.
    #[must_use]
    pub fn last(&self) -> Span {
        *self.spans.last().expect("a span was recorded")
    }

    /// The index the next span will get: marks where a section starts.
    #[must_use]
    pub fn next_index(&self) -> usize {
        self.spans.len()
    }

    /// Durations in microseconds of the spans named `name` in `range`.
    #[must_use]
    pub fn micros(&self, range: Range<usize>, name: &str) -> Vec<f64> {
        self.spans[range].iter().filter(|span| span.name == name).map(Span::micros).collect()
    }

    /// Allocation counts of the spans named `name` in `range`.
    #[must_use]
    pub fn allocs(&self, range: Range<usize>, name: &str) -> Vec<f64> {
        self.spans[range]
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.allocs as f64)
            .collect()
    }

    /// Writes every span to `path`, one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {index}, \"request\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}}}",
                span.request, span.name, span.start_ns, span.end_ns, span.allocs
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_opened_span_sums_its_childrens_allocations() {
        let mut tracer = Tracer::start();
        let root = tracer.open(7, None, "request");
        let text = tracer.span(7, Some(root), "stage", || String::from("allocates once"));
        tracer.span(7, None, "unrelated", || vec![0u8; 8]);
        tracer.close(root);
        assert_eq!(text, "allocates once");
        assert_eq!(tracer.get(root).allocs, 1, "only the child counts");
        assert_eq!(tracer.children(root).count(), 1);
        assert_eq!(tracer.micros(0..tracer.next_index(), "stage").len(), 1);
        assert_eq!(tracer.allocs(0..tracer.next_index(), "unrelated"), vec![1.0]);
        assert!(tracer.get(root).end_ns >= tracer.last().end_ns);
    }
}
