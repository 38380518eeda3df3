//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from outside the program, around the public call into
//! each layer. A *replayed* span is a child the benchmark obtained by timing
//! the same layer function on the same inputs right after the parent call
//! returned (the program has no spans of its own yet that the benchmark may
//! rely on); it carries its measured duration and is laid out inside its
//! parent's interval so that self time and trace viewers see it nested.
//! Spans stay in memory and are written out once, when the run ends.

use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<SpanId>,
    /// Pass number the span belongs to: spans of one pass share it.
    pub pass: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replayed: bool,
    /// Counts taken at the same boundary (rows, bytes, calls).
    pub counts: Vec<(&'static str, f64)>,
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Per parent: where the next replayed child starts.
    cursor: Vec<u64>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), cursor: Vec::new() }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span that was timed in place.
    pub fn record(&mut self, parent: Option<SpanId>, pass: u32, name: &str, start: Instant, end: Instant) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span { parent, pass, name: name.to_string(), start_ns, end_ns, replayed: false, counts: Vec::new() })
    }

    /// Opens a span whose end is not known yet (see [`Recorder::close`]).
    pub fn open(&mut self, parent: Option<SpanId>, pass: u32, name: &str, start: Instant) -> SpanId {
        self.record(parent, pass, name, start, start)
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    /// Records a replayed child of `parent` lasting `seconds`, placed after
    /// the parent's earlier replayed children and clipped to the parent.
    pub fn replay(&mut self, parent: SpanId, name: &str, seconds: f64) -> SpanId {
        let (p_end, pass) = (self.spans[parent].end_ns, self.spans[parent].pass);
        let start_ns = self.cursor[parent].min(p_end);
        let end_ns = (start_ns + (seconds * 1e9) as u64).min(p_end);
        self.cursor[parent] = end_ns;
        self.push(Span {
            parent: Some(parent),
            pass,
            name: name.to_string(),
            start_ns,
            end_ns,
            replayed: true,
            counts: Vec::new(),
        })
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.cursor.push(span.start_ns);
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn count(&mut self, id: SpanId, name: &'static str, value: f64) {
        self.spans[id].counts.push((name, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, descending, where a span's self time
    /// is its duration minus the part of its interval its children cover:
    /// where the wall time actually sits once children are subtracted.
    pub fn self_time_by_name(&self) -> Vec<(String, f64)> {
        let mut covered = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut by_name = std::collections::BTreeMap::<&str, u64>::new();
        for (s, children) in self.spans.iter().zip(covered) {
            *by_name.entry(&s.name).or_default() += self_time_ns(s.start_ns, s.end_ns, children);
        }
        let mut out: Vec<(String, f64)> = by_name.into_iter().map(|(n, ns)| (n.to_string(), ns as f64 / 1e9)).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// One JSON document: `{"spans":[{id,parent,pass,name,start_ns,end_ns,...}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"parent\":{parent},\"pass\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"replayed\":{}",
                s.pass,
                crate::report::json_string(&s.name),
                s.start_ns,
                s.end_ns,
                s.replayed
            ));
            if !s.counts.is_empty() {
                let counts: Vec<String> = s
                    .counts
                    .iter()
                    .map(|(k, v)| format!("{}:{}", crate::report::json_string(k), crate::report::json_number(*v)))
                    .collect();
                out.push_str(&format!(",\"counts\":{{{}}}", counts.join(",")));
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

/// `end - start` minus the length of the union of `children` clipped to
/// `[start, end]` — overlapping or out-of-range children are never counted
/// twice or beyond the parent.
pub fn self_time_ns(start: u64, end: u64, mut children: Vec<(u64, u64)>) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut frontier = start;
    for (s, e) in children {
        let (s, e) = (s.max(frontier), e.min(end));
        if e > s {
            covered += e - s;
            frontier = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time_ns(0, 100, vec![]), 100);
        assert_eq!(self_time_ns(0, 100, vec![(10, 30), (50, 60)]), 70);
        // Overlap counts once; children are clipped to the parent.
        assert_eq!(self_time_ns(0, 100, vec![(10, 40), (30, 60)]), 50);
        assert_eq!(self_time_ns(10, 100, vec![(0, 20), (90, 500)]), 70);
        assert_eq!(self_time_ns(0, 100, vec![(0, 100), (20, 30)]), 0);
        assert_eq!(self_time_ns(5, 5, vec![(0, 10)]), 0);
    }

    #[test]
    fn replayed_children_nest_inside_their_parent() {
        let mut rec = Recorder::new();
        let t0 = Instant::now();
        let parent = rec.record(None, 3, "request.add", t0, t0 + Duration::from_micros(100));
        let a = rec.replay(parent, "formats.xrq_parse", 30e-6);
        let b = rec.replay(parent, "interpreter.interpret", 50e-6);
        // A replay longer than what is left of the parent is clipped to it.
        let c = rec.replay(parent, "repository.put", 1.0);
        rec.count(c, "bytes", 12.0);
        let s = rec.spans();
        assert_eq!(s[a].end_ns, s[b].start_ns);
        assert_eq!(s[b].end_ns - s[b].start_ns, 50_000);
        assert_eq!(s[c].end_ns, s[parent].end_ns);
        assert!(s[a].replayed && s[a].pass == 3 && s[a].parent == Some(parent));
        let by_name = rec.self_time_by_name();
        assert_eq!(by_name[0], ("interpreter.interpret".to_string(), 50e-6));
        assert_eq!(by_name.last().unwrap(), &("request.add".to_string(), 0.0), "children cover the whole parent");
        let json = rec.to_json();
        assert!(json.contains("\"name\":\"request.add\"") && json.contains("\"counts\":{\"bytes\":12}"), "{json}");
        quarry_repository::Json::parse(&json).expect("the trace file is well-formed JSON");
    }
}
