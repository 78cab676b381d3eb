//! In-memory spans for the traced run.
//!
//! A unit span wraps the same public call the timed run makes. Its
//! child spans come from the decomposition pass ([`crate::decompose`]),
//! which runs after the unit, so a child names its unit as parent
//! without lying inside the unit's interval; a unit's self time is its
//! duration minus the durations of its children. Spans stay in memory
//! and are written as JSON lines when the workload ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, unit: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            unit,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        unit: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, unit);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span measured elsewhere (a unit timed on another thread
    /// or between two completions), from instants on the same clock.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        unit: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            unit,
        });
        self.spans.len() - 1
    }

    /// Total duration of every span called `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        // Folded from +0.0: an empty f64 `sum` is -0.0.
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.ms())
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Total self time of every span called `name`: each one's duration
    /// minus its children's, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .fold(0.0, |acc, (i, s)| acc + s.ms() - child_ms[i])
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"unit\": {}}}",
                s.name, s.start_ns, s.end_ns, s.unit
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let base = t.origin;
        let at = |ms: u64| base + std::time::Duration::from_millis(ms);
        let unit = t.record("unit", None, 0, at(0), at(10));
        t.record("child", Some(unit), 0, at(20), at(23));
        t.record("child", Some(unit), 0, at(30), at(34));
        assert!((t.self_ms("unit") - 3.0).abs() < 1e-9);
        assert!((t.total_ms("child") - 7.0).abs() < 1e-9);
        assert_eq!(t.count("child"), 2);
    }
}
