//! In-memory spans around the benchmark's own calls into each layer,
//! written out when the run ends. Spans inside the program are a later
//! change; these are taken from outside, at the public entry points.

use std::time::Instant;

use crate::json::quote;

/// Spans kept per name; calls beyond it are still counted. Bounds the
/// trace file on the workloads whose operations take microseconds.
const SPANS_PER_NAME: u64 = 20_000;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// Parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u32,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    request_id: u64,
}

/// Span and count recorder; a disabled tracer records nothing and costs a
/// branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    counts: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            names: Vec::new(),
            counts: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn name_index(&mut self, name: &'static str) -> usize {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.counts.push(0);
                self.names.len() - 1
            }
        }
    }

    /// Record one call of `name` over `[start, end]` caused by `parent`,
    /// on behalf of `request_id`. Returns the span's id (`NO_PARENT` when
    /// it was counted but not kept).
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request_id: u64,
    ) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        let idx = self.name_index(name);
        self.counts[idx] += 1;
        if self.counts[idx] > SPANS_PER_NAME {
            return NO_PARENT;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: idx as u32,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Open a group span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.span(name, now, now, parent, 0)
    }

    /// Set the end of a group span to now.
    pub fn close(&mut self, id: SpanId) {
        let end = Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64;
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end;
        }
    }

    /// Calls recorded, kept or not.
    pub fn total_calls(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The trace as one JSON document: a name table, per-name call counts,
    /// and spans as `[name, start_ns, end_ns, parent, request_id]` rows
    /// (`parent` −1 for roots).
    pub fn to_json(&self, header_json: &str) -> String {
        let names: Vec<String> = self.names.iter().map(|n| quote(n)).collect();
        let counts: Vec<String> = self
            .names
            .iter()
            .zip(&self.counts)
            .map(|(n, c)| format!("{}: {c}", quote(n)))
            .collect();
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                };
                format!(
                    "[{},{},{},{},{}]",
                    s.name, s.start_ns, s.end_ns, parent, s.request_id
                )
            })
            .collect();
        format!(
            "{{\"header\": {header_json},\n \"span_fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request_id\"],\n \"names\": [{}],\n \"counts\": {{{}}},\n \"spans\": [\n{}\n]}}\n",
            names.join(", "),
            counts.join(", "),
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spans_nest_count_and_serialize() {
        let mut t = Tracer::new(true);
        let root = t.open("ladder", NO_PARENT);
        let a = Instant::now();
        let child = t.span("core.forward", a, Instant::now(), root, 7);
        t.close(root);
        assert_eq!((root, child), (0, 1));
        let doc = json::parse(&t.to_json("{}")).unwrap();
        let spans = doc.get("spans").unwrap().items();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].items()[3].as_f64(), Some(0.0));
        assert_eq!(spans[1].items()[4].as_f64(), Some(7.0));
        assert_eq!(
            doc.path(&["counts", "core.forward"]).unwrap().as_f64(),
            Some(1.0)
        );

        let mut off = Tracer::new(false);
        assert_eq!(off.open("x", NO_PARENT), NO_PARENT);
        assert_eq!(off.total_calls(), 0);
    }
}
