//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! A span has a name, a start and end offset from the run's epoch, the
//! request (trace id) it belongs to, and the span that caused it. Spans are
//! only recorded in a `--trace 1` run; an untraced run holds no tracer.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    /// Span id of the caller; 0 for a request's root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; `Tracer::end` closes and records it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    trace: u64,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of a new request.
    pub fn root(&self, name: &'static str) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open {
            trace: id,
            id,
            parent: 0,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Open a span caused by `parent`, in the same request.
    pub fn child(&self, parent: &Open, name: &'static str) -> Open {
        Open {
            trace: parent.trace,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.id,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Close `open`, record it and return its duration in nanoseconds.
    pub fn end(&self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        let span = Span {
            trace: open.trace,
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(span);
        end_ns - open.start_ns
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span lock").len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span lock");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                w,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_share_the_request_id_and_link_parents() {
        let t = Tracer::new();
        let root = t.root("query");
        let child = t.child(&root, "segment");
        t.end(child);
        t.end(root);
        let spans = t.spans.lock().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].trace, spans[1].trace);
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(spans[0].start_ns >= spans[1].start_ns);
        assert!(spans[0].end_ns <= spans[1].end_ns);
    }
}
