//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Each span keeps its name, start, end, parent and the request it
//! belongs to, plus the allocations its thread made inside it. Spans
//! stay in memory until the run ends and are then written out as JSON
//! lines. A disabled recorder reads no clock and stores nothing, so the
//! same replay code runs untraced to measure the tracing overhead.

use std::io::Write;
use std::time::Instant;

use crate::alloc::{self, AllocCount};

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `api.parse`.
    pub name: &'static str,
    /// The request (root span) this span belongs to.
    pub request: u32,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start and end, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Allocations made on the recording thread inside the span.
    pub allocs: AllocCount,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span, returned by [`Recorder::begin`].
#[must_use]
pub struct Open {
    index: usize,
    allocs: AllocCount,
}

/// An in-memory span recorder for one thread.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u32,
}

impl Recorder {
    /// A recorder; a disabled one records nothing.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            stack: Vec::with_capacity(16),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span as a child of the innermost open span. A span with
    /// no open parent starts a new request.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open {
                index: usize::MAX,
                allocs: AllocCount::default(),
            };
        }
        let parent = self.stack.last().copied();
        if parent.is_none() {
            self.request += 1;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent,
            start_ns: 0,
            end_ns: 0,
            allocs: AllocCount::default(),
        });
        self.stack.push(index);
        // Read the clock and counters last, so the recorder's own
        // bookkeeping stays outside the span.
        let allocs = alloc::snapshot();
        self.spans[index].start_ns = self.now_ns();
        Open { index, allocs }
    }

    /// Close a span opened by [`Self::begin`].
    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let allocs = alloc::snapshot().since(open.allocs);
        let span = &mut self.spans[open.index];
        span.end_ns = end_ns;
        span.allocs = allocs;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.index), "spans close innermost first");
    }

    /// Run `f` inside a leaf span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.clamp(reach, span.end_ns);
                let end = end.clamp(span.start_ns, span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.dur_ns() - covered
        })
        .collect()
}

/// Write spans as JSON lines: one object per span with its index,
/// request, parent (or `null`), name, start and end in nanoseconds,
/// self time, and allocation counts.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_jsonl(spans: &[Span], mut out: impl Write) -> std::io::Result<()> {
    let selfs = self_times_ns(spans);
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{i},\"request\":{},\"parent\":{parent},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\
             \"allocs\":{},\"alloc_bytes\":{}}}",
            s.request, s.name, s.start_ns, s.end_ns, s.allocs.allocs, s.allocs.bytes
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: "x",
            request: 1,
            parent,
            start_ns: start,
            end_ns: end,
            allocs: AllocCount::default(),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 50),  // overlaps the first child
            span(Some(2), 25, 35),  // grandchild: counts against span 2 only
            span(Some(0), 90, 120), // runs past its parent's end
        ];
        let selfs = self_times_ns(&spans);
        // Children of span 0 cover [10,50) and [90,100): 50 ns.
        assert_eq!(selfs[0], 50);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 30);
    }

    #[test]
    fn recorder_nests_requests_and_writes_lines() {
        let mut rec = Recorder::new(true);
        for _ in 0..2 {
            let root = rec.begin("request");
            rec.leaf("api.parse", || ());
            let mid = rec.begin("index.execute");
            rec.leaf("index.retrieval", || ());
            rec.end(mid);
            rec.end(root);
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].request, 2);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));

        let mut out = Vec::new();
        write_jsonl(spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        assert!(
            lines[0].starts_with("{\"span\":0,\"request\":1,\"parent\":null,\"name\":\"request\"")
        );
        assert!(lines[3].contains("\"parent\":2,\"name\":\"index.retrieval\""));
        assert!(lines.iter().all(|l| l.ends_with('}')));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let root = rec.begin("request");
        rec.leaf("api.parse", || ());
        rec.end(root);
        assert!(rec.spans().is_empty());
    }
}
