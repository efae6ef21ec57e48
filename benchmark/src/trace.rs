//! Benchmark-side spans: one around each call into a layer's public
//! functions. Spans stay in memory and are written out as a Chrome trace
//! when the run ends. The benchmark is a single client thread, so the open
//! spans form a stack and each span's parent is the one below it.

use crate::quote;
use crate::stats::minimum;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-name totals; `self_s` is duration minus the children's share of it.
#[derive(Default)]
pub struct NameTotals {
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Tracer {
    /// Off in the untraced run: `span` then only calls its closure.
    pub on: bool,
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, workload: &'static str) -> Self {
        Tracer { on, workload, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span called `name`; nested calls become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// `span`, and the seconds it took (timed whether spans are on or not).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (f64, T) {
        let start = Instant::now();
        let out = self.span(name, f);
        (start.elapsed().as_secs_f64(), out)
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in seconds of every span called `name`, in call order.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
    }

    /// Shortest duration of the spans called `name`.
    ///
    /// # Panics
    /// Panics when the traced run never opened such a span — a metric
    /// without its span is a bug in the benchmark, not a slow layer.
    pub fn min_s(&self, name: &str) -> f64 {
        let seconds = self.seconds_of(name);
        assert!(!seconds.is_empty(), "no span named {name}");
        minimum(&seconds)
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                own[parent] = own[parent].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_s += span.seconds();
            t.self_s += own as f64 * 1e-9;
        }
        out
    }

    /// Writes the spans as Chrome-trace complete events (`ph: "X"`, times
    /// in microseconds); `args` carries the parent span's index, the
    /// workload id every span of the run shares, and the self time.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, (span, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"workload\":{},\"self_us\":{:.3}}}}}{}",
                quote(span.name),
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                quote(self.workload),
                own as f64 / 1e3,
                if id + 1 == self.spans.len() { "" } else { "," },
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_bench::jsonio::{parse, Json};

    #[test]
    fn nesting_gives_parents_and_self_time() {
        let mut tr = Tracer::new(true, "w");
        tr.span("outer", |tr| {
            tr.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            tr.span("inner", |_| ());
        });
        assert_eq!(tr.len(), 3);
        let totals = tr.totals();
        assert_eq!(totals["inner"].count, 2);
        assert!(totals["inner"].total_s >= 0.002);
        let outer = &totals["outer"];
        assert!((outer.total_s - outer.self_s - totals["inner"].total_s).abs() < 1e-9);

        let path = std::env::temp_dir().join(format!("apsp-trace-{}.json", std::process::id()));
        tr.write_chrome_trace(&path).unwrap();
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        let parent = |i: usize| events[i].get("args").and_then(|a| a.get("parent")).cloned();
        assert_eq!(parent(1), Some(Json::Num(0.0)));
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("inner"));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tr = Tracer::new(false, "w");
        assert_eq!(tr.span("x", |_| 5), 5);
        assert_eq!(tr.len(), 0);
    }
}
