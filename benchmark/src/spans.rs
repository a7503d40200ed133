//! Spans recorded by the benchmark around its calls into the program:
//! `workload` → `pass` → `run:<key>`. Kept in memory (the buffer is sized
//! up front, so recording never allocates between runs) and written out as
//! Chrome trace-event JSON when the benchmark ends.

use std::time::Instant;

use tmk_machines::Json;

/// One closed or still-open span. Times are nanoseconds since the
/// recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Currently open spans, innermost last.
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Names are built by the
    /// caller ahead of the timed region.
    pub fn enter(&mut self, name: String) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Seconds span `id` lasted.
    pub fn seconds(&self, id: SpanId) -> f64 {
        duration_ns(&self.spans[id.0]) as f64 / 1e9
    }

    /// Seconds of span `id` not covered by its child spans.
    pub fn self_seconds(&self, id: SpanId) -> f64 {
        self_ns(&self.spans, id.0) as f64 / 1e9
    }

    /// The Chrome trace-event document (`ph: "X"` complete events, one
    /// track), loadable in Perfetto.
    pub fn chrome_trace(&self) -> String {
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = Json::obj()
                    .set("id", i)
                    .set("self_us", self_ns(&self.spans, i) as f64 / 1e3);
                if let Some(p) = s.parent {
                    args = args.set("parent", p);
                }
                Json::obj()
                    .set("name", s.name.as_str())
                    .set("ph", "X")
                    .set("pid", 0usize)
                    .set("tid", 0usize)
                    .set("ts", s.start_ns as f64 / 1e3)
                    .set("dur", duration_ns(s) as f64 / 1e3)
                    .set("args", args)
            })
            .collect();
        Json::obj().set("traceEvents", events).render_pretty(1)
    }
}

fn duration_ns(s: &Span) -> u64 {
    s.end_ns - s.start_ns
}

/// A span's duration minus the part of it its direct children cover.
/// Children of one parent never overlap (spans close innermost first), so
/// the covered part is the sum of their durations.
fn self_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(duration_ns)
        .sum();
    duration_ns(&spans[id]) - children
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("workload", 0, 1000, None),
            span("pass", 100, 900, Some(0)),
            span("run:a", 100, 400, Some(1)),
            span("run:b", 450, 900, Some(1)),
        ];
        assert_eq!(
            self_ns(&spans, 0),
            200,
            "grandchildren are not subtracted twice"
        );
        assert_eq!(self_ns(&spans, 1), 50, "the gap between the two runs");
        assert_eq!(self_ns(&spans, 2), 300);
    }

    #[test]
    fn recorder_nests_and_links_parents() {
        let mut r = Recorder::new(4);
        let w = r.enter("workload".into());
        let p = r.enter("pass".into());
        let a = r.enter("run:a".into());
        r.exit(a);
        r.exit(p);
        r.exit(w);
        let s = &r.spans;
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(r.seconds(w) >= r.seconds(p));
        assert!(r.self_seconds(w) >= 0.0);
        let doc = Json::parse(&r.chrome_trace()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("name").and_then(Json::as_str), Some("run:a"));
        assert_eq!(
            events[2]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut r = Recorder::new(2);
        let outer = r.enter("outer".into());
        let _inner = r.enter("inner".into());
        r.exit(outer);
    }
}
