//! In-memory span recording for the traced run, and the self-time
//! arithmetic that attributes a top-level span's duration to its layers.
//!
//! Top-level spans bracket each `submit`/`drain` call into the service;
//! layer spans (graph apply, ADS maintenance, enumeration) are recorded by
//! the wrappers in [`crate::wrappers`] with the open top-level span as
//! their parent. Spans stay in memory and are written out at exit.

use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One `CsmService::submit` call (may drain inline when the queue is full).
    Submit,
    /// One `CsmService::drain` call.
    Drain,
    /// One mutating call into the data graph.
    Graph,
    /// One `CsmAlgorithm::update_ads` call.
    Ads,
    /// One `CsmAlgorithm::rebuild` call.
    Rebuild,
    /// Enumeration window of one (update, session): first candidate probe
    /// to last search end.
    Enum,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Submit => "submit",
            Layer::Drain => "drain",
            Layer::Graph => "graph",
            Layer::Ads => "ads",
            Layer::Rebuild => "ads.rebuild",
            Layer::Enum => "enum",
        }
    }
}

/// Marks a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What the span covers.
    pub layer: Layer,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing top-level span, or [`NO_PARENT`].
    pub parent: u32,
    /// Service update index the work belongs to.
    pub update: u64,
}

/// Collects spans from the service thread and the executor's workers.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    top: AtomicU32,
    update: AtomicU64,
    clock_ns: u64,
}

impl Default for Recorder {
    fn default() -> Recorder {
        let mut r = Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            top: AtomicU32::new(NO_PARENT),
            update: AtomicU64::new(0),
            clock_ns: 0,
        };
        let mut gaps: Vec<u64> = (0..255)
            .map(|_| {
                let t0 = r.now();
                r.now() - t0
            })
            .collect();
        gaps.sort_unstable();
        r.clock_ns = gaps[gaps.len() / 2];
        r
    }
}

impl Recorder {
    /// What an empty interval between two [`Recorder::now`] calls measures
    /// (median over a calibration burst): subtract it from intervals too
    /// short for it to be negligible.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, s: Span) -> u32 {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(s);
        (spans.len() - 1) as u32
    }

    /// Open a top-level span; layer spans recorded until [`Recorder::close`]
    /// take it as their parent.
    pub fn open(&self, layer: Layer, update: u64) -> u32 {
        let start = self.now();
        let idx = self.push(Span {
            layer,
            start,
            end: start,
            parent: NO_PARENT,
            update,
        });
        self.top.store(idx, Ordering::Relaxed);
        idx
    }

    /// Close the top-level span `idx`.
    pub fn close(&self, idx: u32) {
        let end = self.now();
        self.spans.lock().expect("span recorder poisoned")[idx as usize].end = end;
        self.top.store(NO_PARENT, Ordering::Relaxed);
    }

    /// Record a finished layer span under the open top-level span.
    pub fn record(&self, layer: Layer, start: u64, end: u64) {
        self.record_for(layer, start, end, self.update.load(Ordering::Relaxed));
    }

    /// As [`Recorder::record`], for an explicitly named update.
    pub fn record_for(&self, layer: Layer, start: u64, end: u64, update: u64) {
        self.push(Span {
            layer,
            start,
            end,
            parent: self.top.load(Ordering::Relaxed),
            update,
        });
    }

    /// Name the update whose work the service is about to do.
    pub fn set_update(&self, update: u64) {
        self.update.store(update, Ordering::Relaxed);
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span recorder poisoned"))
    }
}

/// The part of `[start, end)` not covered by the union of `children`
/// (each clipped to the parent interval first). Sorts `children`.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Per-layer time totals of a set of spans, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Σ duration of top-level (`submit`/`drain`) spans.
    pub top: u64,
    /// Σ graph-apply spans.
    pub graph: u64,
    /// Σ ADS-maintenance spans (rebuilds excluded).
    pub ads: u64,
    /// Σ ADS rebuild spans (set-up).
    pub rebuild: u64,
    /// Σ enumeration spans.
    pub enumeration: u64,
    /// Σ over top-level spans of duration minus covered children.
    pub self_time: u64,
}

/// Attribute top-level span time to layers. `external` is layer time
/// measured inside top-level spans but kept as a total instead of spans
/// (observer callbacks); it is subtracted from the self time.
pub fn totals(spans: &[Span], external: u64) -> Totals {
    let mut t = Totals::default();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        let d = s.end - s.start;
        match s.layer {
            Layer::Submit | Layer::Drain => t.top += d,
            Layer::Graph => t.graph += d,
            Layer::Ads => t.ads += d,
            Layer::Enum => t.enumeration += d,
            Layer::Rebuild => t.rebuild += d,
        }
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        if matches!(s.layer, Layer::Submit | Layer::Drain) {
            t.self_time += self_time(s.start, s.end, kids);
        }
    }
    t.self_time = t.self_time.saturating_sub(external);
    t
}

/// Write spans as tab-separated lines after a `#` header line.
pub fn write_tsv(w: &mut impl Write, header: &str, spans: &[Span]) -> std::io::Result<()> {
    writeln!(w, "# {header}")?;
    writeln!(w, "index\tname\tstart_ns\tend_ns\tparent\tupdate")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.layer.name(),
            s.start,
            s.end,
            s.update
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time(0, 100, &mut []), 100);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &mut [(10, 20), (50, 80)]), 60);
        // Overlapping children count once (10..40 covered).
        assert_eq!(self_time(0, 100, &mut [(20, 40), (10, 30)]), 70);
        // Nested child inside another.
        assert_eq!(self_time(0, 100, &mut [(10, 90), (20, 30)]), 20);
        // Children clipped to the parent interval.
        assert_eq!(self_time(50, 100, &mut [(0, 60), (90, 200)]), 30);
        // Fully covered parent.
        assert_eq!(self_time(0, 10, &mut [(0, 10)]), 0);
        // Children outside the parent do not count.
        assert_eq!(self_time(10, 20, &mut [(0, 5), (30, 40)]), 10);
    }

    #[test]
    fn totals_attribute_children_to_their_parent() {
        let span = |layer, start, end, parent| Span {
            layer,
            start,
            end,
            parent,
            update: 0,
        };
        let spans = [
            span(Layer::Drain, 0, 100, NO_PARENT),
            span(Layer::Graph, 10, 20, 0),
            span(Layer::Enum, 30, 60, 0),
            span(Layer::Ads, 25, 35, 0),
            span(Layer::Submit, 200, 210, NO_PARENT),
            span(Layer::Rebuild, 300, 400, NO_PARENT),
        ];
        let t = totals(&spans, 5);
        assert_eq!(t.top, 110);
        assert_eq!(t.graph, 10);
        assert_eq!(t.ads, 10);
        assert_eq!(t.enumeration, 30);
        assert_eq!(t.rebuild, 100);
        // Drain: 100 - (10 + 35) = 55; submit: 10; minus 5 external.
        assert_eq!(t.self_time, 60);
    }
}
