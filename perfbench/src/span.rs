//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into the
//! simulator's crates, kept in memory, and written out once the run
//! ends. A span's self time is its duration minus the time its child
//! spans cover; children open and close on the caller's thread inside
//! their parent, so they never overlap and their durations simply add.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index into the recorder's span list.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// `layer.operation`, e.g. `cloudmgr.submit`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, in nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus covered children), nanoseconds.
    pub self_ns: u64,
    /// Every duration, sorted ascending (for percentiles).
    pub durations_ns: Vec<u64>,
}

impl SpanStats {
    /// Nearest-rank percentile of the durations, in nanoseconds (0 when
    /// nothing was recorded).
    #[must_use]
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.durations_ns.is_empty() {
            return 0;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((p / 100.0) * self.durations_ns.len() as f64).ceil().max(1.0) as usize;
        self.durations_ns[rank.min(self.durations_ns.len()) - 1]
    }

    /// Summed duration in milliseconds.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

/// The recorder: closed spans plus the stack of open ones.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder; span starts count from now.
    #[must_use]
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span under the innermost open one. Close it with
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let now = Instant::now();
        let id = self.spans.len();
        let parent = self.open.last().map(|&(p, _)| p);
        #[allow(clippy::cast_possible_truncation)]
        let start_ns = (now - self.origin).as_nanos() as u64;
        self.spans.push(Span { id, parent, name, start_ns, dur_ns: 0 });
        self.open.push((id, now));
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn exit(&mut self) {
        let (id, start) = self.open.pop().expect("exit without a matching enter");
        #[allow(clippy::cast_possible_truncation)]
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.spans[id].dur_ns = dur_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Totals, self time and sorted durations per span name.
    #[must_use]
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.dur_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for span in &self.spans {
            let s = by_name.entry(span.name).or_default();
            s.count += 1;
            s.total_ns += span.dur_ns;
            s.self_ns += span.dur_ns.saturating_sub(covered[span.id]);
            s.durations_ns.push(span.dur_ns);
        }
        for s in by_name.values_mut() {
            s.durations_ns.sort_unstable();
        }
        by_name
    }

    /// The spans as NDJSON, one object per line.
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.id,
                parent,
                s.layer(),
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new();
        t.enter("orchestrator.tick");
        t.span("cloudmgr.submit", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.span("cloudmgr.submit", || ());
        t.exit();
        let stats = t.stats();
        let tick = &stats["orchestrator.tick"];
        let submit = &stats["cloudmgr.submit"];
        assert_eq!((tick.count, submit.count), (1, 2));
        assert_eq!(tick.self_ns, tick.total_ns - submit.total_ns);
        assert_eq!(submit.self_ns, submit.total_ns);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].layer(), "cloudmgr");
        assert!(submit.percentile_ns(99.0) >= 2_000_000);
        assert_eq!(t.to_ndjson().lines().count(), 3);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = SpanStats { durations_ns: (1..=100).collect(), ..SpanStats::default() };
        assert_eq!(s.percentile_ns(50.0), 50);
        assert_eq!(s.percentile_ns(99.0), 99);
        assert_eq!(SpanStats::default().percentile_ns(50.0), 0);
    }
}
