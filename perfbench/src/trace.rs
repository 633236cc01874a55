//! In-memory span recorder for the traced run.
//!
//! A span is a named interval at a layer boundary, linked to the span that
//! caused it and tagged with the id of the cell (one benchmark × machine
//! measurement, or one fuzz input) it belongs to. Spans are kept in memory
//! and written out once, at the end of the run. Spans come from the
//! benchmark's own calls into each crate's public functions; nothing
//! inside the simulator is instrumented.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are seconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the causing span; 0 for a root.
    pub parent: u64,
    /// Cell the span belongs to (0 when it belongs to no single cell).
    pub cell: u64,
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// Start, seconds since the origin.
    pub start: f64,
    /// End, seconds since the origin.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans and counters from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id so its own spans can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        cell: u64,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        let end = self.now();
        self.record(Span {
            id,
            parent,
            cell,
            name,
            start,
            end,
        });
        out
    }

    /// Records an already-measured span (e.g. a queue wait), returning
    /// its id.
    pub fn record(&self, mut span: Span) -> u64 {
        if span.id == 0 {
            span.id = self.next.fetch_add(1, Ordering::Relaxed);
        }
        let id = span.id;
        if let Ok(mut s) = self.spans.lock() {
            s.push(span);
        }
        id
    }

    /// Adds `v` to the counter `name`.
    pub fn count(&self, name: &'static str, v: f64) {
        if let Ok(mut c) = self.counts.lock() {
            *c.entry(name).or_insert(0.0) += v;
        }
    }

    /// Current value of counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts
            .lock()
            .map(|c| c.get(name).copied().unwrap_or(0.0))
            .unwrap_or(0.0)
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().map_or(0, |s| s.len())
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().map(|s| s.clone()).unwrap_or_default()
    }

    /// Total duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .map(|s| {
                s.iter()
                    .filter(|x| x.name == name)
                    .map(Span::secs)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Summed self time of every span named `name`: each span's duration
    /// minus the part of its interval covered by its children.
    pub fn self_time(&self, name: &str) -> f64 {
        let spans = self.spans();
        let mut kids: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
        for c in &spans {
            kids.entry(c.parent).or_default().push((c.start, c.end));
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|p| {
                self_secs(
                    (p.start, p.end),
                    kids.get(&p.id).map_or(&[][..], Vec::as_slice),
                )
            })
            .sum()
    }

    /// Writes every span as tab-separated text after a `# `-prefixed
    /// header line.
    pub fn write_tsv(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut spans = self.spans();
        spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {header}")?;
        writeln!(out, "id\tparent\tcell\tname\tstart_us\tend_us")?;
        for s in &spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{:.3}\t{:.3}",
                s.id,
                s.parent,
                s.cell,
                s.name,
                s.start * 1e6,
                s.end * 1e6
            )?;
        }
        out.flush()
    }
}

/// Self time of a span over `parent` = (start, end): its duration minus
/// the measure of the union of its children's intervals, clipped to the
/// parent. Children may overlap (they run on several workers), so
/// overlapping coverage is counted once.
pub fn self_secs(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (ps, pe) = parent;
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (pe - ps - covered).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_interval() {
        // No children: the whole span.
        assert_eq!(self_secs((0.0, 10.0), &[]), 10.0);
        // Disjoint children.
        assert_eq!(self_secs((0.0, 10.0), &[(1.0, 2.0), (5.0, 7.0)]), 7.0);
        // Overlapping children (two workers) count once.
        assert_eq!(self_secs((0.0, 10.0), &[(1.0, 6.0), (2.0, 8.0)]), 3.0);
        // Nested / duplicated coverage.
        assert_eq!(
            self_secs((0.0, 10.0), &[(1.0, 9.0), (2.0, 3.0), (1.0, 9.0)]),
            2.0
        );
        // Children spilling past the parent are clipped to it.
        assert_eq!(self_secs((2.0, 6.0), &[(0.0, 3.0), (5.0, 9.0)]), 2.0);
        // Children entirely outside contribute nothing.
        assert_eq!(self_secs((2.0, 6.0), &[(7.0, 9.0), (0.0, 1.0)]), 4.0);
        // Full coverage leaves zero, never negative.
        assert_eq!(self_secs((0.0, 4.0), &[(0.0, 4.0), (-1.0, 5.0)]), 0.0);
    }

    #[test]
    fn tracer_links_children_and_sums_self_time() {
        let t = Tracer::new();
        let root = t.record(Span {
            id: 0,
            parent: 0,
            cell: 0,
            name: "dse.request",
            start: 0.0,
            end: 10.0,
        });
        for (s, e) in [(1.0, 4.0), (3.0, 5.0)] {
            t.record(Span {
                id: 0,
                parent: root,
                cell: 1,
                name: "core.run",
                start: s,
                end: e,
            });
        }
        assert_eq!(t.self_time("dse.request"), 6.0);
        assert_eq!(t.total("core.run"), 5.0);
        assert_eq!(t.durations("core.run").len(), 2);
        let nested = t.span("outer", 7, 0, |id| t.span("inner", 7, id, |_| 3));
        assert_eq!(nested, 3);
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "outer").map(|s| s.id);
        let inner = spans.iter().find(|s| s.name == "inner").map(|s| s.parent);
        assert_eq!(outer, inner);
        t.count("x", 2.0);
        t.count("x", 3.0);
        assert_eq!(t.counter("x"), 5.0);
        assert_eq!(t.counter("y"), 0.0);
    }
}
