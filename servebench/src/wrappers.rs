//! Transparent timing wrappers around the two plug-in seams of the
//! service: the [`GraphShard`] it mutates and the [`CsmAlgorithm`] each
//! session hosts. Every call is forwarded unchanged; only the calls named
//! below are timed.

use crate::spans::{Layer, Recorder};
use csm_algos::AnyAlgorithm;
use csm_graph::{
    ELabel, EdgeUpdate, GraphShard, QVertexId, QueryGraph, ShardStats, Update, VLabel, VertexId,
};
use paracosm_core::kernel::{SearchCtx, SearchStats};
use paracosm_core::{AdsChange, CsmAlgorithm, Embedding, MatchSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A [`GraphShard`] that records a [`Layer::Graph`] span around every
/// mutating call and counts applied operations. Reads are forwarded
/// untimed.
pub struct TimedGraph<G> {
    inner: G,
    rec: Arc<Recorder>,
    ops: u64,
}

impl<G: GraphShard> TimedGraph<G> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: G, rec: Arc<Recorder>) -> TimedGraph<G> {
        TimedGraph { inner, rec, ops: 0 }
    }

    /// Graph operations applied so far (a batch counts each of its ops).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    fn timed<R>(&mut self, ops: u64, f: impl FnOnce(&mut G) -> R) -> R {
        let t0 = self.rec.now();
        let r = f(&mut self.inner);
        let t1 = self.rec.now();
        self.rec.record(Layer::Graph, t0, t1);
        self.ops += ops;
        r
    }
}

impl<G: GraphShard> GraphShard for TimedGraph<G> {
    fn label(&self, v: VertexId) -> VLabel {
        self.inner.label(v)
    }
    fn is_alive(&self, v: VertexId) -> bool {
        self.inner.is_alive(v)
    }
    fn degree(&self, v: VertexId) -> usize {
        self.inner.degree(v)
    }
    fn vertex_slots(&self) -> usize {
        self.inner.vertex_slots()
    }
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }
    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }
    fn max_edge_label(&self) -> u32 {
        self.inner.max_edge_label()
    }
    fn num_vertex_label_buckets(&self) -> usize {
        self.inner.num_vertex_label_buckets()
    }
    fn neighbors(&self, v: VertexId) -> &[(VertexId, ELabel)] {
        self.inner.neighbors(v)
    }
    fn neighbors_with(&self, v: VertexId, vl: VLabel, el: ELabel) -> &[(VertexId, ELabel)] {
        self.inner.neighbors_with(v, vl, el)
    }
    fn neighbors_with_vlabel(&self, v: VertexId, vl: VLabel) -> &[(VertexId, ELabel)] {
        self.inner.neighbors_with_vlabel(v, vl)
    }
    fn vertices_with_label(&self, label: VLabel) -> &[VertexId] {
        self.inner.vertices_with_label(label)
    }
    fn edge_label(&self, a: VertexId, b: VertexId) -> Option<ELabel> {
        self.inner.edge_label(a, b)
    }
    fn has_edge_with(&self, v: VertexId, n: VertexId, el: ELabel) -> bool {
        self.inner.has_edge_with(v, n, el)
    }
    fn neighbor_groups(&self, v: VertexId) -> impl Iterator<Item = (VLabel, ELabel, usize)> + '_ {
        self.inner.neighbor_groups(v)
    }
    fn count_neighbors_with(&self, v: VertexId, vl: VLabel, el: Option<ELabel>) -> usize {
        self.inner.count_neighbors_with(v, vl, el)
    }
    fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.inner.has_edge(a, b)
    }
    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.inner.vertices()
    }
    fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, ELabel)> + '_ {
        self.inner.edges()
    }
    fn neighbors_filtered(
        &self,
        v: VertexId,
        vl: VLabel,
        el: Option<ELabel>,
    ) -> impl Iterator<Item = VertexId> + '_ {
        self.inner.neighbors_filtered(v, vl, el)
    }
    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }
    fn shard_of(&self, v: VertexId) -> usize {
        self.inner.shard_of(v)
    }
    fn shard_stats(&self) -> Vec<ShardStats> {
        self.inner.shard_stats()
    }

    fn add_vertex(&mut self, label: VLabel) -> VertexId {
        self.timed(1, |g| g.add_vertex(label))
    }
    fn ensure_vertex(&mut self, id: VertexId, label: VLabel) {
        self.timed(1, |g| g.ensure_vertex(id, label))
    }
    fn delete_vertex(&mut self, id: VertexId, cascade: bool) -> csm_graph::Result<()> {
        self.timed(1, |g| g.delete_vertex(id, cascade))
    }
    fn insert_edge(&mut self, a: VertexId, b: VertexId, l: ELabel) -> csm_graph::Result<bool> {
        self.timed(1, |g| g.insert_edge(a, b, l))
    }
    fn remove_edge(&mut self, a: VertexId, b: VertexId) -> csm_graph::Result<Option<ELabel>> {
        self.timed(1, |g| g.remove_edge(a, b))
    }
    fn apply(&mut self, u: &Update) -> csm_graph::Result<bool> {
        self.timed(1, |g| g.apply(u))
    }
    fn apply_edge_batch(&mut self, ops: &[(EdgeUpdate, bool)], changed: &mut Vec<bool>) {
        self.timed(ops.len() as u64, |g| g.apply_edge_batch(ops, changed))
    }
}

/// Counters one session's [`TimedAlgo`] shares with its observer. The
/// search fields are written from executor workers, hence atomics; all
/// are statistics read after the executor's threads have joined, so
/// `Relaxed` suffices.
pub struct AlgoProbe {
    /// Start of the open enumeration window — the first candidate probe
    /// or search of the current (update, session) — `u64::MAX` when none.
    open: AtomicU64,
    /// Latest search end in the open window, 0 when no search ran.
    last: AtomicU64,
    /// Σ search time over all workers, whole pass.
    pub busy_ns: AtomicU64,
    /// `search` calls (executor tasks), whole pass.
    pub tasks: AtomicU64,
    /// `update_ads` calls.
    pub ads_calls: AtomicU64,
    /// `update_ads` calls that reported a change.
    pub ads_changed: AtomicU64,
}

impl AlgoProbe {
    /// A probe with no open window.
    pub fn new() -> AlgoProbe {
        AlgoProbe {
            open: AtomicU64::new(u64::MAX),
            last: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            ads_calls: AtomicU64::new(0),
            ads_changed: AtomicU64::new(0),
        }
    }

    /// Close the open window: `(start, last search end)` when a search
    /// ran in it. A window opened by classification probes alone (the
    /// update turned out safe) is discarded.
    pub fn take_window(&self) -> Option<(u64, u64)> {
        if self.open.load(Ordering::Relaxed) == u64::MAX {
            return None;
        }
        let open = self.open.swap(u64::MAX, Ordering::Relaxed);
        let last = self.last.swap(0, Ordering::Relaxed);
        (last != 0).then_some((open, last))
    }
}

/// A [`CsmAlgorithm`] that times `update_ads` and `rebuild` (as spans) and
/// enumeration (folded into the session's [`AlgoProbe`]). The enumeration
/// window of one (update, session) opens at the first candidate probe —
/// seeding and the executor's breadth-first split probe candidates before
/// any worker searches — and closes at the last search end, so it covers
/// the kernel and the inner executor.
pub struct TimedAlgo {
    inner: AnyAlgorithm,
    rec: Arc<Recorder>,
    probe: Arc<AlgoProbe>,
}

impl TimedAlgo {
    /// Wrap `inner`, recording into `rec` and `probe`.
    pub fn new(inner: AnyAlgorithm, rec: Arc<Recorder>, probe: Arc<AlgoProbe>) -> TimedAlgo {
        TimedAlgo { inner, rec, probe }
    }
}

impl<G: GraphShard> CsmAlgorithm<G> for TimedAlgo {
    fn name(&self) -> &'static str {
        CsmAlgorithm::<G>::name(&self.inner)
    }
    fn ignore_edge_labels(&self) -> bool {
        CsmAlgorithm::<G>::ignore_edge_labels(&self.inner)
    }
    fn rebuild(&mut self, g: &G, q: &QueryGraph) {
        let t0 = self.rec.now();
        self.inner.rebuild(g, q);
        let t1 = self.rec.now();
        self.rec.record(Layer::Rebuild, t0, t1);
    }
    fn update_ads(&mut self, g: &G, q: &QueryGraph, e: EdgeUpdate, is_insert: bool) -> AdsChange {
        let t0 = self.rec.now();
        let change = self.inner.update_ads(g, q, e, is_insert);
        let t1 = self.rec.now();
        self.rec.record(Layer::Ads, t0, t1);
        self.probe.ads_calls.fetch_add(1, Ordering::Relaxed);
        if change == AdsChange::Changed {
            self.probe.ads_changed.fetch_add(1, Ordering::Relaxed);
        }
        change
    }
    fn is_candidate(&self, g: &G, q: &QueryGraph, u: QVertexId, v: VertexId) -> bool {
        let open = &self.probe.open;
        if open.load(Ordering::Relaxed) == u64::MAX {
            let _ = open.compare_exchange(
                u64::MAX,
                self.rec.now(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
        self.inner.is_candidate(g, q, u, v)
    }
    fn search(
        &self,
        ctx: &SearchCtx<'_, G>,
        emb: &mut Embedding,
        depth: usize,
        sink: &mut dyn MatchSink,
        stats: &mut SearchStats,
    ) -> bool {
        let t0 = self.rec.now();
        let done = self.inner.search(ctx, emb, depth, sink, stats);
        let t1 = self.rec.now();
        let p = &self.probe;
        p.open.fetch_min(t0, Ordering::Relaxed);
        p.last.fetch_max(t1, Ordering::Relaxed);
        p.busy_ns.fetch_add(t1 - t0, Ordering::Relaxed);
        p.tasks.fetch_add(1, Ordering::Relaxed);
        done
    }
}
