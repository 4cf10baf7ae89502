//! In-memory spans recorded by the harness around its calls into each
//! layer (choosing-metrics §4). Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval. Spans of one op share `op`; `parent` is the span
/// that was open when this one started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. When off, `open`/`close` are a branch and nothing else,
/// so the untraced run executes the same harness code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span (`None` while the tracer is off).
pub type SpanId = Option<u32>;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between trials (no span may be open).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "a span is still open");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children clipped to the parent, overlaps
/// between children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: (count, total duration ns, total self ns).
pub fn by_name(spans: &[Span], selfs: &[u64]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    out
}

/// Mean duration in µs of the spans called `name` (0 when none).
pub fn mean_us(by: &BTreeMap<&'static str, (u64, u64, u64)>, name: &str) -> f64 {
    by.get(name).map_or(0.0, |&(n, total, _)| total as f64 / n.max(1) as f64 / 1000.0)
}

/// Writes one JSON object per span: name, start, end, self time, parent
/// and op id.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span], selfs: &[u64]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, own) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
            s.id, parent, s.op, s.name, s.start_ns, s.end_ns, own
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 1, name: "s", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // op [0,100] with children [10,30], [20,50] (overlapping), and
        // [90,120] (runs past the parent: clipped to [90,100]).
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 90, 120),
            // grandchild of span 2 takes nothing from the root
            span(4, Some(2), 25, 45),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - (40 + 10));
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 30 - 20);
        assert_eq!(selfs[3], 30);
        assert_eq!(selfs[4], 20);
    }

    #[test]
    fn tracer_nests_and_links_parents() {
        let mut t = Tracer::new(true);
        let op = t.open("op", 7);
        let a = t.open("core.submit", 7);
        t.close(a);
        let b = t.open("core.wait", 7);
        t.close(b);
        t.close(op);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, Some(0), Some(0)));
        assert!(s.iter().all(|x| x.op == 7 && x.end_ns >= x.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let selfs = self_times(s);
        assert_eq!(selfs[0], s[0].duration_ns() - s[1].duration_ns() - s[2].duration_ns());
        let by = by_name(s, &selfs);
        assert_eq!(by["op"].0, 1);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("op", 1);
        assert_eq!(id, None);
        t.close(id);
        assert!(t.spans().is_empty());
    }
}
