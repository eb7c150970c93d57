//! In-memory spans recorded by the benchmark around its calls into the
//! system's public functions.
//!
//! A span has a name (`layer.stage`), a start and end on one monotonic
//! clock, an optional parent span and a request id. Spans stay in memory
//! until the run ends, when [`Tracer::write_jsonl`] writes them out. A
//! layer's self time is the sum over its spans of duration minus the
//! part of that interval the span's direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Span id: an index into the tracer's span list.
pub type SpanId = usize;

/// Layer name of the per-request root spans that define end-to-end time.
pub const ROOT_LAYER: &str = "request";

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

/// Records spans when enabled; every method is a no-op otherwise, so
/// untraced runs pay one branch per call site.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans.lock().expect("span list lock poisoned")[id].end_ns = end;
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Self time per span name, in nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            let covered = union_length(&mut children[i], s.start_ns, s.end_ns);
            *out.entry(s.name).or_insert(0) += duration.saturating_sub(covered);
        }
        out
    }

    /// Durations of spans named `name`, in nanoseconds, in record order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect()
    }

    /// `1 − Σ self time of every non-root layer ÷ Σ root duration`: the
    /// share of end-to-end time no recorded stage accounts for.
    pub fn unaccounted_share(&self) -> f64 {
        let by_name = self.self_time_by_name();
        let spans = self.spans.lock().expect("span list lock poisoned");
        let root_total: u64 = spans
            .iter()
            .filter(|s| layer_of(s.name) == ROOT_LAYER)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum();
        drop(spans);
        if root_total == 0 {
            return 0.0;
        }
        let staged: u64 = by_name
            .iter()
            .filter(|(name, _)| layer_of(name) != ROOT_LAYER)
            .map(|(_, ns)| *ns)
            .sum();
        1.0 - staged as f64 / root_total as f64
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_length(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_length_merges_overlaps_and_clips() {
        let mut v = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(union_length(&mut v, 1, 25), 2 + 7 + 5);
    }
}
