//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The product carries no instrumentation yet, so every span is taken from
//! outside: the benchmark timestamps a public call (or a socket event) and
//! records `{name, start_ns, end_ns, parent, frame}` here.  Spans stay in
//! memory during the run and are written as JSON lines when it ends.

use std::io::Write;
use std::path::Path;

/// One recorded interval.  Times are nanoseconds since the run's clock
/// origin; `parent` indexes the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `hub.publish`.
    pub name: &'static str,
    /// Start, nanoseconds since the clock origin.
    pub start_ns: u64,
    /// End, nanoseconds since the clock origin.
    pub end_ns: u64,
    /// Index of the causing span, `None` for a root.
    pub parent: Option<usize>,
    /// What the spans of one request share: the hub sequence of the frame
    /// (serving workloads) or the pass index (WAN workloads).
    pub frame: u64,
    /// The client connection a delivery-side span belongs to.
    pub conn: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store of one run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Record a span and return its index (usable as a `parent`).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part of its interval
    /// covered by its direct children.  Children may overlap each other
    /// (two connections receive one frame concurrently) and are clipped to
    /// the parent, so the covered part is the length of their union.
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let parent = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        parent.duration_ns() - covered
    }

    /// Write every span as one JSON object per line to the file `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_jsonl_to(&mut out)?;
        out.flush()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                Some(p) => write!(out, "{p}")?,
                None => write!(out, "null")?,
            }
            write!(out, ",\"frame\":{}", s.frame)?;
            if let Some(conn) = s.conn {
                write!(out, ",\"conn\":{conn}")?;
            }
            writeln!(out, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            frame: 1,
            conn: None,
        }
    }

    #[test]
    fn self_time_subtracts_back_to_back_children() {
        let mut t = Trace::default();
        let root = t.push(span("frame", 100, 200, None));
        t.push(span("hub.publish", 100, 140, Some(root)));
        t.push(span("http.wake", 140, 150, Some(root)));
        t.push(span("http.transfer", 160, 190, Some(root)));
        // 100 total - (40 + 10 + 30) covered = 20 (the 150..160 gap and
        // the 190..200 tail).
        assert_eq!(t.self_time_ns(root), 20);
    }

    #[test]
    fn self_time_counts_only_direct_children_of_nested_spans() {
        let mut t = Trace::default();
        let root = t.push(span("frame", 0, 100, None));
        let publish = t.push(span("hub.publish", 10, 60, Some(root)));
        t.push(span("hub.diff", 20, 30, Some(publish)));
        t.push(span("hub.rle", 30, 45, Some(publish)));
        // The grandchildren reduce the child's self time, not the root's.
        assert_eq!(t.self_time_ns(root), 50);
        assert_eq!(t.self_time_ns(publish), 25);
        // A leaf's self time is its duration.
        assert_eq!(t.self_time_ns(2), 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_unioned_and_clipped() {
        let mut t = Trace::default();
        let root = t.push(span("frame", 100, 200, None));
        // Two connections' transfers overlap: union is 120..170.
        t.push(span("http.transfer", 120, 160, Some(root)));
        t.push(span("http.transfer", 140, 170, Some(root)));
        // A child that starts before and one that ends after the parent.
        t.push(span("early", 50, 110, Some(root)));
        t.push(span("late", 190, 260, Some(root)));
        // Covered: 100..110, 120..170, 190..200 = 70.
        assert_eq!(t.self_time_ns(root), 30);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Trace::default();
        let root = t.push(span("frame", 1, 9, None));
        t.push(Span {
            conn: Some(1),
            ..span("client.decode", 5, 9, Some(root))
        });
        let mut bytes = Vec::new();
        t.write_jsonl_to(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["name"], "frame");
        assert!(first["parent"].is_null());
        let second: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second["parent"], 0);
        assert_eq!(second["conn"], 1);
        assert_eq!(second["end_ns"], 9);
    }
}
