//! In-memory spans recorded around calls into the program's layers, and
//! the arithmetic that turns them into self times and coverage.
//!
//! A span has a name, a start, an end, the span that caused it and a
//! group id shared by every span of one cell, job or sweep. Spans stay in
//! memory and are written once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `store.append`.
    pub name: &'static str,
    /// Cell, job or sweep the span belongs to.
    pub group: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; a disabled tracer only runs the wrapped closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::new(false)
    }

    /// True when spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id so that it can parent nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        group: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span {
                name,
                group,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span recorder poisoned")[id].end_ns = end_ns;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Length of the union of half-open intervals `[start, end)`.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.retain(|(s, e)| e > s);
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (ps, pe) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(ps, pe), s.end_ns.clamp(ps, pe)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.dur_ns().saturating_sub(union_ns(c)))
        .collect()
}

/// Total self time (ns) and span count per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// The root (parentless ancestor) of every span.
fn roots(spans: &[Span]) -> Vec<SpanId> {
    let mut root: Vec<SpanId> = (0..spans.len()).collect();
    for i in 0..spans.len() {
        // Parents are recorded before their children, so a parent's root
        // is already final when a child is visited.
        if let Some(p) = spans[i].parent.filter(|&p| p < i) {
            root[i] = root[p];
        }
    }
    root
}

/// Share of the time inside spans named `root_name` (summed over every
/// such root) that none of their descendant spans covers. `None` when no
/// such root has a non-zero duration.
pub fn unattributed_frac(spans: &[Span], root_name: &str) -> Option<f64> {
    let root_of = roots(spans);
    let mut covered: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let r = root_of[i];
        if r != i && spans[r].name == root_name {
            let (rs, re) = (spans[r].start_ns, spans[r].end_ns);
            covered
                .entry(r)
                .or_default()
                .push((s.start_ns.clamp(rs, re), s.end_ns.clamp(rs, re)));
        }
    }
    let mut total = 0u64;
    let mut attributed = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() && s.name == root_name {
            total += s.dur_ns();
            attributed += covered.remove(&i).map_or(0, union_ns);
        }
    }
    (total > 0).then(|| 1.0 - attributed as f64 / total as f64)
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Mean duration in milliseconds of the spans named `name`; 0 when there
/// are none.
pub fn mean_ms(spans: &[Span], name: &str) -> f64 {
    let d = durations_ms(spans, name);
    d.iter().sum::<f64>() / d.len().max(1) as f64
}

/// Writes the spans as JSON lines, once, at the end of a run.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.group, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            group: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_empty_intervals() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30), (7, 7)]), 25);
        assert_eq!(union_ns(vec![(20, 30), (0, 10), (10, 20)]), 30);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("sweep", None, 0, 100),
            span("sim", Some(0), 10, 40),
            // Overlaps the first child (another thread): counted once.
            span("sim", Some(0), 30, 50),
            // Outside the parent's interval: clipped away.
            span("store", Some(0), 90, 120),
            span("inner", Some(1), 10, 20),
        ];
        assert_eq!(self_ns(&spans), vec![100 - 40 - 10, 20, 20, 30, 10]);
        let by_name = self_by_name(&spans);
        assert_eq!(by_name["sim"], (40, 2));
        assert_eq!(by_name["sweep"], (50, 1));
    }

    #[test]
    fn unattributed_frac_counts_time_no_descendant_covers() {
        let spans = vec![
            span("sweep", None, 0, 100),
            span("gen", Some(0), 0, 30),
            span("sim", Some(0), 50, 80),
            // A grandchild inside a child adds nothing.
            span("inner", Some(2), 55, 60),
            span("sweep", None, 200, 300),
            span("sim", Some(4), 200, 300),
            // Another root name is ignored.
            span("setup", None, 400, 500),
        ];
        let f = unattributed_frac(&spans, "sweep").expect("roots present");
        assert!((f - 40.0 / 200.0).abs() < 1e-12);
        assert_eq!(unattributed_frac(&spans, "missing"), None);
    }

    #[test]
    fn tracer_records_nesting_only_when_enabled() {
        let t = Tracer::new(true);
        let v = t.span("outer", 7, None, |p| t.span("inner", 7, p, |_| 42));
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let off = Tracer::off();
        assert_eq!(off.span("x", 0, None, |p| p), None);
        assert!(off.spans().is_empty());
    }
}
