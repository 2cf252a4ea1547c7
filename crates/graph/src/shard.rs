//! Sharded data graphs behind the [`GraphShard`] trait.
//!
//! The trait is the API seam between "something that answers the CSM
//! kernel's graph queries and accepts updates" and the concrete storage
//! behind it. Three implementations live here or in [`crate::graph`]:
//!
//! * [`DataGraph`] — the monolithic in-memory graph (the 1-shard case,
//!   unchanged semantics);
//! * [`MemShard`] — one shard's **partial view**: the adjacency of the
//!   vertices it *owns*, stored in an ordinary [`DataGraph`];
//! * [`ShardedGraph`] — the router: assigns every vertex to a shard via
//!   [`ShardConfig`], routes each edge update to the owning shard(s), and
//!   answers reads by delegating per-vertex queries to the owner while
//!   serving vertex metadata (labels, liveness, label buckets) centrally.
//!
//! ## Ownership rules and the half-edge invariant
//!
//! Every vertex has exactly one owner: `shard_index_for(v)`. A shard
//! stores the **full adjacency list of each vertex it owns** — including
//! edges whose other endpoint lives elsewhere. An undirected edge
//! `{a, b}` with label `l` therefore exists as two *half-edges*:
//!
//! > `(b, l) ∈ adj[a]` on `shard(a)`  **and**  `(a, l) ∈ adj[b]` on
//! > `shard(b)`.
//!
//! Both halves are present or both are absent — never one. An
//! intra-shard edge simply has both halves in the same shard. Because a
//! vertex's whole neighbor list lives with its owner, every
//! `neighbors_with` slice is a single contiguous, id-sorted borrow from
//! one shard, and the kernel's galloping multi-way intersection works
//! unchanged — the slices it intersects merely come from *different*
//! shards when the partial embedding straddles a partition boundary
//! (cross-shard candidate streaming).
//!
//! ## Why single-writer-per-shard needs no locks
//!
//! The batch applier routes each half-edge op to its owner shard's FIFO
//! run and hands every shard to exactly one applier job (disjoint `&mut`
//! borrows over the shard vector — no two writers ever share a shard,
//! so there is nothing to lock). Ops on the same edge reach both
//! endpoint owners in the same relative order (both halves carry the
//! batch sequence tag), and each half's `changed` verdict is a pure
//! function of prior ops on that edge plus the shared invariant — so
//! both owners decide identically without coordinating.

use crate::error::{GraphError, Result};
use crate::graph::{commit_verdicts, split_edge_batch, DataGraph, HalfOp, Tagged};
use crate::ids::{ELabel, VLabel, VertexId};
use crate::par;
use crate::update::{EdgeUpdate, Update};

/// The graph-access seam the matching kernel, classifier and service are
/// generic over. Implemented by [`DataGraph`] (monolithic), [`MemShard`]
/// (one shard's partial view) and [`ShardedGraph`] (the router).
///
/// Read methods mirror [`DataGraph`]'s inherent API one-for-one,
/// including the ordering contract: `neighbors_with` slices are id-sorted
/// within one `(vlabel, elabel)` group and therefore mergeable by
/// `crate::intersect`; `neighbors_with_vlabel` slices are not.
pub trait GraphShard: Send + Sync {
    /// Vertex label of `v` (meaningful only for alive vertices).
    fn label(&self, v: VertexId) -> VLabel;
    /// Is slot `v` an alive vertex?
    fn is_alive(&self, v: VertexId) -> bool;
    /// Degree of `v` (0 for dead/unknown vertices).
    fn degree(&self, v: VertexId) -> usize;
    /// Number of vertex slots ever allocated (alive + dead).
    fn vertex_slots(&self) -> usize;
    /// Number of alive vertices.
    fn num_vertices(&self) -> usize;
    /// Number of undirected edges.
    fn num_edges(&self) -> usize;
    /// Largest edge label value seen so far (0 if none).
    fn max_edge_label(&self) -> u32;
    /// Number of distinct vertex-label buckets allocated.
    fn num_vertex_label_buckets(&self) -> usize;
    /// Full neighbor list of `v`, sorted by `(L(neighbor), elabel, id)`.
    fn neighbors(&self, v: VertexId) -> &[(VertexId, ELabel)];
    /// Neighbors of `v` with vertex label `vl` over edge label `el`
    /// (contiguous, id-sorted — the mergeable slices).
    fn neighbors_with(&self, v: VertexId, vl: VLabel, el: ELabel) -> &[(VertexId, ELabel)];
    /// Neighbors of `v` with vertex label `vl` under any edge label
    /// (sorted by `(elabel, id)` — probe, don't merge).
    fn neighbors_with_vlabel(&self, v: VertexId, vl: VLabel) -> &[(VertexId, ELabel)];
    /// Alive vertices carrying `label` (unsorted, never dead).
    fn vertices_with_label(&self, label: VLabel) -> &[VertexId];
    /// Label of edge `{a, b}`, if present.
    fn edge_label(&self, a: VertexId, b: VertexId) -> Option<ELabel>;
    /// Does `{v, n}` exist with elabel exactly `el`?
    fn has_edge_with(&self, v: VertexId, n: VertexId, el: ELabel) -> bool;
    /// `v`'s adjacency partition as `(neighbor label, edge label, run
    /// length)` triples in key order — `O(#groups)`, the cardinality
    /// catalog's maintenance primitive
    /// ([`crate::catalog::CardinalityCatalog`]).
    fn neighbor_groups(&self, v: VertexId) -> impl Iterator<Item = (VLabel, ELabel, usize)> + '_;

    /// Count of neighbors of `v` with label `vl` (and elabel `el`, unless
    /// `None`).
    #[inline]
    fn count_neighbors_with(&self, v: VertexId, vl: VLabel, el: Option<ELabel>) -> usize {
        match el {
            Some(el) => self.neighbors_with(v, vl, el).len(),
            None => self.neighbors_with_vlabel(v, vl).len(),
        }
    }

    /// Does the undirected edge `{a, b}` exist?
    #[inline]
    fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.edge_label(a, b).is_some()
    }

    /// Iterator over all alive vertex ids.
    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertex_slots())
            .map(VertexId::from)
            .filter(move |&v| self.is_alive(v))
    }

    /// Iterator over all undirected edges `(a, b, label)` with `a < b`.
    fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, ELabel)> + '_ {
        self.vertices().flat_map(move |a| {
            self.neighbors(a)
                .iter()
                .copied()
                .filter(move |&(b, _)| a < b)
                .map(move |(b, l)| (a, b, l))
        })
    }

    /// Neighbors of `v` with vertex label `vl` and edge label `el`
    /// (`None` matches any edge label).
    fn neighbors_filtered(
        &self,
        v: VertexId,
        vl: VLabel,
        el: Option<ELabel>,
    ) -> impl Iterator<Item = VertexId> + '_ {
        let slice = match el {
            Some(e) => self.neighbors_with(v, vl, e),
            None => self.neighbors_with_vlabel(v, vl),
        };
        slice.iter().map(|&(n, _)| n)
    }

    // --- mutation: the `apply` side of the seam ---

    /// Append a fresh vertex with the given label, returning its id.
    fn add_vertex(&mut self, label: VLabel) -> VertexId;
    /// Ensure slot `id` exists and is alive with `label`.
    fn ensure_vertex(&mut self, id: VertexId, label: VLabel);
    /// Delete a vertex (cascading incident edge removal on request).
    fn delete_vertex(&mut self, id: VertexId, cascade: bool) -> Result<()>;
    /// Insert undirected edge `{a, b}`; `Ok(false)` if it already existed.
    fn insert_edge(&mut self, a: VertexId, b: VertexId, l: ELabel) -> Result<bool>;
    /// Remove undirected edge `{a, b}`, returning its label if it existed.
    fn remove_edge(&mut self, a: VertexId, b: VertexId) -> Result<Option<ELabel>>;

    /// Apply one stream update, returning whether the graph changed.
    fn apply(&mut self, u: &Update) -> Result<bool> {
        match *u {
            Update::InsertEdge(e) => self.insert_edge(e.src, e.dst, e.label),
            Update::DeleteEdge(e) => self.remove_edge(e.src, e.dst).map(|r| r.is_some()),
            Update::InsertVertex { id, label } => {
                let was = self.is_alive(id);
                self.ensure_vertex(id, label);
                Ok(!was)
            }
            Update::DeleteVertex { id } => self.delete_vertex(id, true).map(|_| true),
        }
    }

    /// Apply a FIFO batch of edge updates (`true` = insert), pushing one
    /// per-op `changed` flag. The reference semantics are the serial loop
    /// of `insert_edge(..).unwrap_or(false)` / `remove_edge(..)` calls — an
    /// op sees the graph produced by every op before it; invalid ops
    /// (self-loop, dead endpoint) come back `false`. [`DataGraph`] and
    /// [`MemShard`] apply the batch with
    /// [`DataGraph::apply_edge_batch_with`]; [`ShardedGraph`] with its
    /// multi-writer shard-applier pipeline. Both preserve these semantics
    /// bit-for-bit.
    fn apply_edge_batch(&mut self, ops: &[(EdgeUpdate, bool)], changed: &mut Vec<bool>);

    // --- shard topology / stats ---

    /// Number of shards behind this graph (1 for monolithic backends).
    fn num_shards(&self) -> usize {
        1
    }

    /// Index of the shard owning `v` (always 0 for monolithic backends).
    fn shard_of(&self, _v: VertexId) -> usize {
        0
    }

    /// Per-shard occupancy and applier counters, for telemetry.
    fn shard_stats(&self) -> Vec<ShardStats> {
        vec![ShardStats {
            shard: 0,
            owned_vertices: self.num_vertices(),
            half_edges: self.num_edges() * 2,
            applied_ops: 0,
        }]
    }
}

/// Per-shard occupancy and applier counters surfaced in `/metrics` and
/// the service report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Alive vertices owned by this shard.
    pub owned_vertices: usize,
    /// Half-edges stored (each undirected edge contributes one per
    /// endpoint owner).
    pub half_edges: usize,
    /// Total half-edge ops routed through this shard's applier.
    pub applied_ops: u64,
}

/// [`DataGraph`] is the trivial single-shard backend: every trait method
/// delegates to the inherent method of the same name.
impl GraphShard for DataGraph {
    #[inline]
    fn label(&self, v: VertexId) -> VLabel {
        DataGraph::label(self, v)
    }
    #[inline]
    fn is_alive(&self, v: VertexId) -> bool {
        DataGraph::is_alive(self, v)
    }
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        DataGraph::degree(self, v)
    }
    #[inline]
    fn vertex_slots(&self) -> usize {
        DataGraph::vertex_slots(self)
    }
    #[inline]
    fn num_vertices(&self) -> usize {
        DataGraph::num_vertices(self)
    }
    #[inline]
    fn num_edges(&self) -> usize {
        DataGraph::num_edges(self)
    }
    #[inline]
    fn max_edge_label(&self) -> u32 {
        DataGraph::max_edge_label(self)
    }
    #[inline]
    fn num_vertex_label_buckets(&self) -> usize {
        DataGraph::num_vertex_label_buckets(self)
    }
    #[inline]
    fn neighbors(&self, v: VertexId) -> &[(VertexId, ELabel)] {
        DataGraph::neighbors(self, v)
    }
    #[inline]
    fn neighbors_with(&self, v: VertexId, vl: VLabel, el: ELabel) -> &[(VertexId, ELabel)] {
        DataGraph::neighbors_with(self, v, vl, el)
    }
    #[inline]
    fn neighbors_with_vlabel(&self, v: VertexId, vl: VLabel) -> &[(VertexId, ELabel)] {
        DataGraph::neighbors_with_vlabel(self, v, vl)
    }
    #[inline]
    fn vertices_with_label(&self, label: VLabel) -> &[VertexId] {
        DataGraph::vertices_with_label(self, label)
    }
    #[inline]
    fn edge_label(&self, a: VertexId, b: VertexId) -> Option<ELabel> {
        DataGraph::edge_label(self, a, b)
    }
    #[inline]
    fn has_edge_with(&self, v: VertexId, n: VertexId, el: ELabel) -> bool {
        DataGraph::has_edge_with(self, v, n, el)
    }
    #[inline]
    fn neighbor_groups(&self, v: VertexId) -> impl Iterator<Item = (VLabel, ELabel, usize)> + '_ {
        DataGraph::neighbor_groups(self, v)
    }
    fn add_vertex(&mut self, label: VLabel) -> VertexId {
        DataGraph::add_vertex(self, label)
    }
    fn ensure_vertex(&mut self, id: VertexId, label: VLabel) {
        DataGraph::ensure_vertex(self, id, label)
    }
    fn delete_vertex(&mut self, id: VertexId, cascade: bool) -> Result<()> {
        DataGraph::delete_vertex(self, id, cascade)
    }
    fn insert_edge(&mut self, a: VertexId, b: VertexId, l: ELabel) -> Result<bool> {
        DataGraph::insert_edge(self, a, b, l)
    }
    fn remove_edge(&mut self, a: VertexId, b: VertexId) -> Result<Option<ELabel>> {
        DataGraph::remove_edge(self, a, b)
    }
    fn apply_edge_batch(&mut self, ops: &[(EdgeUpdate, bool)], changed: &mut Vec<bool>) {
        self.apply_edge_batch_with(ops, changed, 1)
    }
}

/// How vertex ids map to shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Partition {
    /// Multiplicative hash of the vertex id, modulo the shard count.
    /// Spreads consecutive ids — the default, robust to skewed id ranges.
    Hash,
    /// Explicit per-shard id ranges `[start, end)`, contiguous and
    /// ascending; ids at or beyond the last `end` route to the last
    /// shard. Useful when locality between neighboring ids matters.
    Range(Vec<(u32, u32)>),
}

/// Shard-count and partitioning policy for a [`ShardedGraph`].
///
/// Validated at construction ([`ShardConfig::validate`]); invalid configs
/// (zero shards, non-contiguous or overlapping ranges) surface as
/// [`GraphError::ShardConfig`] naming the offending field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards (must be ≥ 1).
    pub shards: usize,
    /// Vertex-to-shard assignment policy.
    pub partition: Partition,
}

impl ShardConfig {
    /// Hash-partitioned config with `shards` shards.
    pub fn hash(shards: usize) -> Self {
        ShardConfig {
            shards,
            partition: Partition::Hash,
        }
    }

    /// Range-partitioned config; one `[start, end)` span per shard.
    pub fn range(bounds: Vec<(u32, u32)>) -> Self {
        ShardConfig {
            shards: bounds.len(),
            partition: Partition::Range(bounds),
        }
    }

    /// Range-partitioned config splitting `0..max_id` evenly.
    pub fn range_even(shards: usize, max_id: u32) -> Self {
        let width = (max_id / shards.max(1) as u32).max(1);
        let bounds = (0..shards)
            .map(|i| {
                let start = i as u32 * width;
                let end = if i + 1 == shards {
                    u32::MAX
                } else {
                    (i as u32 + 1) * width
                };
                (start, end)
            })
            .collect();
        Self::range(bounds)
    }

    /// Check the config: at least one shard; for range partitioning, one
    /// span per shard, each non-empty, starting at 0, contiguous and
    /// ascending (which rules out overlaps and gaps).
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(GraphError::ShardConfig { field: "shards" });
        }
        if let Partition::Range(bounds) = &self.partition {
            if bounds.len() != self.shards {
                return Err(GraphError::ShardConfig { field: "ranges" });
            }
            let mut expect_start = 0u32;
            for &(start, end) in bounds {
                if start != expect_start || start >= end {
                    return Err(GraphError::ShardConfig { field: "ranges" });
                }
                expect_start = end;
            }
        }
        Ok(())
    }

    /// **The partitioner**: map a vertex id to its owning shard index.
    ///
    /// All shard-id arithmetic in the workspace lives in this one
    /// function — the `shard-routing-confined` analyzer rule keeps it
    /// that way. Everything else asks the router via
    /// [`GraphShard::shard_of`].
    #[inline]
    pub fn shard_index_for(&self, v: VertexId) -> usize {
        match &self.partition {
            Partition::Hash => {
                // Fibonacci multiplicative hash: consecutive ids land on
                // different shards, hub-adjacent id clusters spread out.
                let h = (v.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 32) as usize) % self.shards
            }
            Partition::Range(bounds) => bounds
                .partition_point(|&(_, end)| end <= v.0)
                .min(self.shards - 1),
        }
    }
}

/// One shard: the full adjacency of the vertices it owns, stored in a
/// [`DataGraph`], plus half-edge and applier accounting.
///
/// As a standalone [`GraphShard`] this is a **partial view** — queries
/// about vertices owned elsewhere return empty/dead answers. The
/// [`ShardedGraph`] router composes shards into a total view by serving
/// vertex metadata itself and delegating per-vertex adjacency queries to
/// owners.
#[derive(Clone, Debug, Default)]
pub struct MemShard {
    g: DataGraph,
    half_edges: usize,
    applied_ops: u64,
}

impl MemShard {
    /// An empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying partial-view graph (owned vertices' adjacency).
    pub fn graph(&self) -> &DataGraph {
        &self.g
    }

    /// Half-edges currently stored in this shard.
    pub fn half_edges(&self) -> usize {
        self.half_edges
    }

    /// Total half-edge ops routed through this shard's applier.
    pub fn applied_ops(&self) -> u64 {
        self.applied_ops
    }

    fn half_insert(&mut self, v: VertexId, n: VertexId, el: ELabel, nl: VLabel) -> bool {
        let did = self.g.half_insert(v, n, el, nl);
        self.half_edges += usize::from(did);
        self.applied_ops += 1;
        did
    }

    fn half_remove(&mut self, v: VertexId, n: VertexId, nl: VLabel) -> Option<ELabel> {
        let out = self.g.half_remove(v, n, nl);
        self.half_edges -= usize::from(out.is_some());
        self.applied_ops += 1;
        out
    }

    /// Apply one shard's FIFO half-op run with the graph's per-endpoint
    /// applier ([`DataGraph::apply_edge_batch_with`]'s back half) on this
    /// shard's single writer. Returns `(tag, changed)` per op.
    fn apply_half_run(&mut self, mut list: Vec<Tagged>) -> Vec<(u32, bool)> {
        self.applied_ops += list.len() as u64;
        let did = self.g.apply_half_ops(&mut list, 1);
        list.iter()
            .zip(did)
            .map(|(&(tag, _, op), did)| {
                if did {
                    match op {
                        HalfOp::Insert { .. } => self.half_edges += 1,
                        HalfOp::Remove { .. } => self.half_edges -= 1,
                    }
                }
                (tag, did)
            })
            .collect()
    }
}

impl GraphShard for MemShard {
    #[inline]
    fn label(&self, v: VertexId) -> VLabel {
        DataGraph::label(&self.g, v)
    }
    #[inline]
    fn is_alive(&self, v: VertexId) -> bool {
        self.g.is_alive(v)
    }
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.g.degree(v)
    }
    #[inline]
    fn vertex_slots(&self) -> usize {
        self.g.vertex_slots()
    }
    #[inline]
    fn num_vertices(&self) -> usize {
        self.g.num_vertices()
    }
    #[inline]
    fn num_edges(&self) -> usize {
        self.g.num_edges()
    }
    #[inline]
    fn max_edge_label(&self) -> u32 {
        self.g.max_edge_label()
    }
    #[inline]
    fn num_vertex_label_buckets(&self) -> usize {
        self.g.num_vertex_label_buckets()
    }
    #[inline]
    fn neighbors(&self, v: VertexId) -> &[(VertexId, ELabel)] {
        self.g.neighbors(v)
    }
    #[inline]
    fn neighbors_with(&self, v: VertexId, vl: VLabel, el: ELabel) -> &[(VertexId, ELabel)] {
        self.g.neighbors_with(v, vl, el)
    }
    #[inline]
    fn neighbors_with_vlabel(&self, v: VertexId, vl: VLabel) -> &[(VertexId, ELabel)] {
        self.g.neighbors_with_vlabel(v, vl)
    }
    #[inline]
    fn vertices_with_label(&self, label: VLabel) -> &[VertexId] {
        self.g.vertices_with_label(label)
    }
    #[inline]
    fn edge_label(&self, a: VertexId, b: VertexId) -> Option<ELabel> {
        self.g.edge_label(a, b)
    }
    #[inline]
    fn has_edge_with(&self, v: VertexId, n: VertexId, el: ELabel) -> bool {
        self.g.has_edge_with(v, n, el)
    }
    #[inline]
    fn neighbor_groups(&self, v: VertexId) -> impl Iterator<Item = (VLabel, ELabel, usize)> + '_ {
        self.g.neighbor_groups(v)
    }
    fn add_vertex(&mut self, label: VLabel) -> VertexId {
        self.g.add_vertex(label)
    }
    fn ensure_vertex(&mut self, id: VertexId, label: VLabel) {
        self.g.ensure_vertex(id, label)
    }
    fn delete_vertex(&mut self, id: VertexId, cascade: bool) -> Result<()> {
        self.g.delete_vertex(id, cascade)
    }
    fn insert_edge(&mut self, a: VertexId, b: VertexId, l: ELabel) -> Result<bool> {
        let did = self.g.insert_edge(a, b, l)?;
        self.half_edges += 2 * usize::from(did);
        Ok(did)
    }
    fn remove_edge(&mut self, a: VertexId, b: VertexId) -> Result<Option<ELabel>> {
        let out = self.g.remove_edge(a, b)?;
        self.half_edges -= 2 * usize::from(out.is_some());
        Ok(out)
    }
    fn apply_edge_batch(&mut self, ops: &[(EdgeUpdate, bool)], changed: &mut Vec<bool>) {
        let before = self.g.num_edges();
        self.g.apply_edge_batch_with(ops, changed, 1);
        self.half_edges = self.half_edges + 2 * self.g.num_edges() - 2 * before;
    }
    fn shard_stats(&self) -> Vec<ShardStats> {
        vec![ShardStats {
            shard: 0,
            owned_vertices: self.g.num_vertices(),
            half_edges: self.half_edges,
            applied_ops: self.applied_ops,
        }]
    }
}

/// Half-op runs below which the multi-writer pipeline falls back to the
/// serial reference path (spawn + routing overhead beats the merge win).
const MIN_SHARDED_BATCH: usize = 32;

/// The shard router: a total [`GraphShard`] view composed of `K`
/// [`MemShard`]s plus centrally-held vertex metadata.
///
/// See the module docs for the ownership rules and the half-edge
/// invariant. Vertex metadata (labels, liveness, per-label buckets) is
/// kept in the router so that `vertices_with_label` stays a borrowed
/// slice and edge routing can resolve endpoint labels without touching
/// any shard; shards hold adjacency only.
#[derive(Clone, Debug)]
pub struct ShardedGraph {
    cfg: ShardConfig,
    shards: Vec<MemShard>,
    labels: Vec<VLabel>,
    alive: Vec<bool>,
    by_label: Vec<Vec<VertexId>>,
    n_alive: usize,
    n_edges: usize,
    max_elabel: u32,
}

impl ShardedGraph {
    /// An empty sharded graph. Fails with [`GraphError::ShardConfig`] on
    /// an invalid config.
    pub fn new(cfg: ShardConfig) -> Result<Self> {
        cfg.validate()?;
        let shards = (0..cfg.shards).map(|_| MemShard::new()).collect();
        Ok(ShardedGraph {
            cfg,
            shards,
            labels: Vec::new(),
            alive: Vec::new(),
            by_label: Vec::new(),
            n_alive: 0,
            n_edges: 0,
            max_elabel: 0,
        })
    }

    /// The 1-shard case: behaviorally identical to a [`DataGraph`]
    /// (same per-op semantics; the multi-writer pipeline stays off
    /// because a single shard has nothing to overlap).
    pub fn single() -> Self {
        Self::new(ShardConfig::hash(1)).expect("1-shard hash config is valid")
    }

    /// Shard an existing monolithic graph: every alive vertex keeps its
    /// id and label; every edge is re-routed to its owners. Bulk-loads
    /// through the grouped batch applier (one adjacency rebuild per vertex
    /// instead of a per-edge `O(d)` splice), so resharding a dense graph
    /// is `O(E log E)` rather than `O(E·d)`.
    pub fn from_graph(cfg: ShardConfig, g: &DataGraph) -> Result<Self> {
        let mut sg = Self::new(cfg)?;
        for v in g.vertices() {
            GraphShard::ensure_vertex(&mut sg, v, DataGraph::label(g, v));
        }
        let ops: Vec<(EdgeUpdate, bool)> = g
            .edges()
            .map(|(a, b, l)| (EdgeUpdate::new(a, b, l), true))
            .collect();
        let mut changed = Vec::new();
        if sg.shards.len() == 1 {
            // A single shard owns every vertex, so its backing graph can
            // take the full-edge batch directly, on two workers.
            let shard = &mut sg.shards[0];
            shard.g.apply_edge_batch_with(&ops, &mut changed, 2);
            shard.half_edges = 2 * shard.g.num_edges();
            shard.applied_ops = 2 * ops.len() as u64;
            sg.n_edges = shard.g.num_edges();
            sg.max_elabel = shard.g.max_edge_label();
        } else {
            sg.apply_edge_batch_sharded(&ops, &mut changed);
        }
        debug_assert!(changed.iter().all(|&c| c), "source edges all apply");
        Ok(sg)
    }

    /// The partitioning policy in force.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// Borrow one shard's partial view (testing / forensics).
    pub fn shard(&self, i: usize) -> &MemShard {
        &self.shards[i]
    }

    fn bucket_mut(&mut self, label: VLabel) -> &mut Vec<VertexId> {
        if self.by_label.len() <= label.index() {
            self.by_label.resize_with(label.index() + 1, Vec::new);
        }
        &mut self.by_label[label.index()]
    }

    fn check_alive(&self, v: VertexId) -> Result<()> {
        if GraphShard::is_alive(self, v) {
            Ok(())
        } else {
            Err(GraphError::UnknownVertex(v))
        }
    }

    /// The multi-writer batch path: route half-ops to per-shard FIFO
    /// runs, apply every shard's run in a single-writer job over disjoint
    /// `&mut` shards, then merge the per-op `changed` flags (taken from
    /// each op's `src`-owner half) and do global accounting serially.
    fn apply_edge_batch_sharded(&mut self, ops: &[(EdgeUpdate, bool)], changed: &mut Vec<bool>) {
        let mut runs: Vec<Vec<Tagged>> = vec![Vec::new(); self.shards.len()];
        let label_of = |v: VertexId| GraphShard::is_alive(self, v).then(|| self.labels[v.index()]);
        for half in split_edge_batch(ops, label_of) {
            runs[self.cfg.shard_index_for(half.1)].push(half);
        }

        // One single-writer applier per shard; disjoint `&mut` borrows.
        let jobs: Vec<_> = self
            .shards
            .iter_mut()
            .zip(runs)
            .map(|(shard, run)| move || shard.apply_half_run(run))
            .collect();
        let results = par::run_jobs(jobs);

        // Src-half verdicts become the per-op flags; global accounting is
        // serial and exact.
        let verdicts = results.iter().flatten().copied();
        commit_verdicts(
            ops,
            verdicts,
            changed,
            &mut self.n_edges,
            &mut self.max_elabel,
        );
    }

    /// Structural invariant check for tests: meta/shard agreement, the
    /// half-edge invariant (both halves present with equal labels), and
    /// edge-count bookkeeping.
    pub fn check_invariants(&self) -> Result<()> {
        let mut half_total = 0usize;
        for (si, shard) in self.shards.iter().enumerate() {
            let mut local_halves = 0usize;
            for v in GraphShard::vertices(self) {
                if GraphShard::shard_of(self, v) != si {
                    continue;
                }
                if !shard.g.is_alive(v) {
                    return Err(GraphError::Io(format!(
                        "owned vertex {v:?} not alive in shard {si}"
                    )));
                }
                if DataGraph::label(&shard.g, v) != self.labels[v.index()] {
                    return Err(GraphError::Io(format!(
                        "label of {v:?} diverged in shard {si}"
                    )));
                }
                local_halves += shard.g.degree(v);
                for &(n, el) in shard.g.neighbors(v) {
                    if !GraphShard::is_alive(self, n) {
                        return Err(GraphError::Io(format!("edge {v:?}-{n:?} to dead vertex")));
                    }
                    let so = GraphShard::shard_of(self, n);
                    let mirror = self.shards[so].g.find_in_adj(n, v, self.labels[v.index()]);
                    if mirror != Some(el) {
                        return Err(GraphError::Io(format!(
                            "half-edge {v:?}-{n:?} has no mirror on shard {so}"
                        )));
                    }
                }
            }
            if local_halves != shard.half_edges {
                return Err(GraphError::Io(format!(
                    "shard {si} half-edge count {} != recorded {}",
                    local_halves, shard.half_edges
                )));
            }
            half_total += local_halves;
        }
        if half_total != self.n_edges * 2 {
            return Err(GraphError::Io(format!(
                "half-edge total {half_total} != 2 × {}",
                self.n_edges
            )));
        }
        let bucket_total: usize = self.by_label.iter().map(Vec::len).sum();
        if bucket_total != self.n_alive {
            return Err(GraphError::Io("label buckets out of sync".into()));
        }
        Ok(())
    }
}

impl GraphShard for ShardedGraph {
    #[inline]
    fn label(&self, v: VertexId) -> VLabel {
        debug_assert!(GraphShard::is_alive(self, v), "label() on dead vertex");
        self.labels[v.index()]
    }
    #[inline]
    fn is_alive(&self, v: VertexId) -> bool {
        self.alive.get(v.index()).copied().unwrap_or(false)
    }
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.shards[self.cfg.shard_index_for(v)].g.degree(v)
    }
    #[inline]
    fn vertex_slots(&self) -> usize {
        self.labels.len()
    }
    #[inline]
    fn num_vertices(&self) -> usize {
        self.n_alive
    }
    #[inline]
    fn num_edges(&self) -> usize {
        self.n_edges
    }
    #[inline]
    fn max_edge_label(&self) -> u32 {
        self.max_elabel
    }
    #[inline]
    fn num_vertex_label_buckets(&self) -> usize {
        self.by_label.len()
    }
    #[inline]
    fn neighbors(&self, v: VertexId) -> &[(VertexId, ELabel)] {
        self.shards[self.cfg.shard_index_for(v)].g.neighbors(v)
    }
    #[inline]
    fn neighbors_with(&self, v: VertexId, vl: VLabel, el: ELabel) -> &[(VertexId, ELabel)] {
        self.shards[self.cfg.shard_index_for(v)]
            .g
            .neighbors_with(v, vl, el)
    }
    #[inline]
    fn neighbors_with_vlabel(&self, v: VertexId, vl: VLabel) -> &[(VertexId, ELabel)] {
        self.shards[self.cfg.shard_index_for(v)]
            .g
            .neighbors_with_vlabel(v, vl)
    }
    #[inline]
    fn vertices_with_label(&self, label: VLabel) -> &[VertexId] {
        self.by_label
            .get(label.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
    fn edge_label(&self, a: VertexId, b: VertexId) -> Option<ELabel> {
        if !GraphShard::is_alive(self, a) || !GraphShard::is_alive(self, b) {
            return None;
        }
        // Probe the lower-degree endpoint's owner.
        let (v, n) = if GraphShard::degree(self, b) < GraphShard::degree(self, a) {
            (b, a)
        } else {
            (a, b)
        };
        self.shards[self.cfg.shard_index_for(v)]
            .g
            .find_in_adj(v, n, self.labels[n.index()])
    }
    fn has_edge_with(&self, v: VertexId, n: VertexId, el: ELabel) -> bool {
        let Some(&nl) = self.labels.get(n.index()) else {
            return false;
        };
        GraphShard::neighbors_with(self, v, nl, el)
            .binary_search_by_key(&n, |&(w, _)| w)
            .is_ok()
    }

    #[inline]
    fn neighbor_groups(&self, v: VertexId) -> impl Iterator<Item = (VLabel, ELabel, usize)> + '_ {
        self.shards[self.cfg.shard_index_for(v)]
            .g
            .neighbor_groups(v)
    }

    fn add_vertex(&mut self, label: VLabel) -> VertexId {
        let id = VertexId::from(self.labels.len());
        GraphShard::ensure_vertex(self, id, label);
        id
    }

    fn ensure_vertex(&mut self, id: VertexId, label: VLabel) {
        while self.labels.len() <= id.index() {
            self.labels.push(VLabel(0));
            self.alive.push(false);
        }
        if !self.alive[id.index()] {
            self.alive[id.index()] = true;
            self.labels[id.index()] = label;
            self.bucket_mut(label).push(id);
            self.n_alive += 1;
            let s = self.cfg.shard_index_for(id);
            self.shards[s].g.ensure_vertex(id, label);
        }
    }

    fn delete_vertex(&mut self, id: VertexId, cascade: bool) -> Result<()> {
        self.check_alive(id)?;
        let s = self.cfg.shard_index_for(id);
        let d = self.shards[s].g.degree(id);
        if d > 0 {
            if !cascade {
                return Err(GraphError::VertexNotIsolated(id, d));
            }
            let neighbors: Vec<VertexId> = self.shards[s]
                .g
                .neighbors(id)
                .iter()
                .map(|&(n, _)| n)
                .collect();
            for n in neighbors {
                GraphShard::remove_edge(self, id, n)?;
            }
        }
        self.shards[s].g.delete_vertex(id, false)?;
        self.alive[id.index()] = false;
        let label = self.labels[id.index()];
        let bucket = self.bucket_mut(label);
        let pos = bucket
            .iter()
            .position(|&v| v == id)
            .expect("alive vertex missing from its label bucket");
        bucket.swap_remove(pos);
        self.n_alive -= 1;
        Ok(())
    }

    fn insert_edge(&mut self, a: VertexId, b: VertexId, l: ELabel) -> Result<bool> {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        self.check_alive(a)?;
        self.check_alive(b)?;
        let (la, lb) = (self.labels[a.index()], self.labels[b.index()]);
        let sa = self.cfg.shard_index_for(a);
        if !self.shards[sa].half_insert(a, b, l, lb) {
            return Ok(false);
        }
        let sb = self.cfg.shard_index_for(b);
        let mirrored = self.shards[sb].half_insert(b, a, l, la);
        debug_assert!(mirrored, "half-edge invariant violated on insert");
        self.n_edges += 1;
        self.max_elabel = self.max_elabel.max(l.0);
        Ok(true)
    }

    fn remove_edge(&mut self, a: VertexId, b: VertexId) -> Result<Option<ELabel>> {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        self.check_alive(a)?;
        self.check_alive(b)?;
        let (la, lb) = (self.labels[a.index()], self.labels[b.index()]);
        let sa = self.cfg.shard_index_for(a);
        match self.shards[sa].half_remove(a, b, lb) {
            None => Ok(None),
            Some(label) => {
                let sb = self.cfg.shard_index_for(b);
                let mirrored = self.shards[sb].half_remove(b, a, la);
                debug_assert_eq!(
                    mirrored,
                    Some(label),
                    "half-edge invariant violated on remove"
                );
                self.n_edges -= 1;
                Ok(Some(label))
            }
        }
    }

    fn apply_edge_batch(&mut self, ops: &[(EdgeUpdate, bool)], changed: &mut Vec<bool>) {
        // A single shard has nothing to overlap: keep the serial in-place
        // path (this is also what makes `--shards 1` the status-quo
        // baseline in the ingest bench). Tiny batches likewise.
        if self.shards.len() == 1 || ops.len() < MIN_SHARDED_BATCH {
            for &(e, insert) in ops {
                let did = if insert {
                    GraphShard::insert_edge(self, e.src, e.dst, e.label).unwrap_or(false)
                } else {
                    GraphShard::remove_edge(self, e.src, e.dst)
                        .map(|r| r.is_some())
                        .unwrap_or(false)
                };
                changed.push(did);
            }
            return;
        }
        self.apply_edge_batch_sharded(ops, changed);
    }

    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of(&self, v: VertexId) -> usize {
        self.cfg.shard_index_for(v)
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardStats {
                shard: i,
                owned_vertices: s.g.num_vertices(),
                half_edges: s.half_edges,
                applied_ops: s.applied_ops,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_ops(n: usize, verts: u32, seed: u64) -> Vec<(EdgeUpdate, bool)> {
        // xorshift stream of inserts/deletes over a skewed endpoint pool:
        // half the ops touch the first 4 "hub" ids.
        let mut x = seed | 1;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n)
            .map(|_| {
                let r = step();
                let a = if r % 2 == 0 {
                    (r >> 8) as u32 % 4
                } else {
                    (r >> 8) as u32 % verts
                };
                let mut b = (step() >> 8) as u32 % verts;
                if b == a {
                    b = (b + 1) % verts;
                }
                let el = ELabel((r >> 3) as u32 % 3);
                let insert = r % 16 < 11;
                (EdgeUpdate::new(VertexId(a), VertexId(b), el), insert)
            })
            .collect()
    }

    fn build_pair(cfg: ShardConfig, verts: u32) -> (DataGraph, ShardedGraph) {
        let mut g = DataGraph::new();
        for i in 0..verts {
            g.add_vertex(VLabel(i % 5));
        }
        let sg = ShardedGraph::from_graph(cfg, &g).unwrap();
        (g, sg)
    }

    #[test]
    fn config_validation_rejects_bad_shapes() {
        assert_eq!(
            ShardConfig::hash(0).validate(),
            Err(GraphError::ShardConfig { field: "shards" })
        );
        // Overlapping ranges.
        assert_eq!(
            ShardConfig::range(vec![(0, 10), (5, 20)]).validate(),
            Err(GraphError::ShardConfig { field: "ranges" })
        );
        // Gap.
        assert_eq!(
            ShardConfig::range(vec![(0, 10), (12, 20)]).validate(),
            Err(GraphError::ShardConfig { field: "ranges" })
        );
        // Empty span.
        assert_eq!(
            ShardConfig::range(vec![(0, 0)]).validate(),
            Err(GraphError::ShardConfig { field: "ranges" })
        );
        // Not starting at 0.
        assert_eq!(
            ShardConfig::range(vec![(1, 10)]).validate(),
            Err(GraphError::ShardConfig { field: "ranges" })
        );
        assert!(ShardConfig::range(vec![(0, 10), (10, 20)])
            .validate()
            .is_ok());
        assert!(ShardConfig::hash(4).validate().is_ok());
        assert!(ShardConfig::range_even(3, 1000).validate().is_ok());
    }

    #[test]
    fn range_partitioner_routes_by_span() {
        let cfg = ShardConfig::range(vec![(0, 10), (10, 20), (20, 30)]);
        assert_eq!(cfg.shard_index_for(VertexId(0)), 0);
        assert_eq!(cfg.shard_index_for(VertexId(9)), 0);
        assert_eq!(cfg.shard_index_for(VertexId(10)), 1);
        assert_eq!(cfg.shard_index_for(VertexId(29)), 2);
        // Ids beyond the last span route to the last shard.
        assert_eq!(cfg.shard_index_for(VertexId(1_000_000)), 2);
    }

    #[test]
    fn hash_partitioner_spreads_ids() {
        let cfg = ShardConfig::hash(4);
        let mut seen = [0usize; 4];
        for i in 0..1000 {
            seen[cfg.shard_index_for(VertexId(i))] += 1;
        }
        for (s, &c) in seen.iter().enumerate() {
            assert!(c > 100, "shard {s} starved: {c}");
        }
    }

    #[test]
    fn sharded_matches_monolithic_per_op() {
        for cfg in [
            ShardConfig::hash(1),
            ShardConfig::hash(3),
            ShardConfig::range_even(4, 40),
        ] {
            let (mut g, mut sg) = build_pair(cfg, 40);
            for (i, &(e, insert)) in seeded_ops(600, 40, 7).iter().enumerate() {
                let (want, got) = if insert {
                    (
                        g.insert_edge(e.src, e.dst, e.label),
                        GraphShard::insert_edge(&mut sg, e.src, e.dst, e.label),
                    )
                } else {
                    (
                        g.remove_edge(e.src, e.dst).map(|r| r.is_some()),
                        GraphShard::remove_edge(&mut sg, e.src, e.dst).map(|r| r.is_some()),
                    )
                };
                assert_eq!(want, got, "op {i} diverged");
            }
            assert_eq!(g.num_edges(), GraphShard::num_edges(&sg));
            assert_eq!(g.max_edge_label(), GraphShard::max_edge_label(&sg));
            sg.check_invariants().unwrap();
            // Read-side agreement on every vertex and slice.
            for v in g.vertices() {
                assert_eq!(g.degree(v), GraphShard::degree(&sg, v));
                for vl in 0..5 {
                    for el in 0..3 {
                        assert_eq!(
                            g.neighbors_with(v, VLabel(vl), ELabel(el)),
                            GraphShard::neighbors_with(&sg, v, VLabel(vl), ELabel(el)),
                        );
                    }
                    assert_eq!(
                        g.neighbors_with_vlabel(v, VLabel(vl)),
                        GraphShard::neighbors_with_vlabel(&sg, v, VLabel(vl)),
                    );
                }
            }
            for (a, b, l) in g.edges() {
                assert_eq!(GraphShard::edge_label(&sg, a, b), Some(l));
            }
        }
    }

    #[test]
    fn batch_apply_matches_serial_flags() {
        for shards in [2usize, 4, 7] {
            let ops = seeded_ops(800, 60, 31 + shards as u64);
            let (mut g, mut sg) = build_pair(ShardConfig::hash(shards), 60);
            let mut want = Vec::new();
            GraphShard::apply_edge_batch(&mut g, &ops, &mut want);
            let mut got = Vec::new();
            GraphShard::apply_edge_batch(&mut sg, &ops, &mut got);
            assert_eq!(want, got);
            assert_eq!(g.num_edges(), GraphShard::num_edges(&sg));
            sg.check_invariants().unwrap();
            for v in g.vertices() {
                assert_eq!(g.neighbors(v), GraphShard::neighbors(&sg, v));
            }
        }
    }

    #[test]
    fn batch_apply_handles_same_edge_churn() {
        // insert → duplicate insert → delete → reinsert of one edge in a
        // single batch must produce the serial flag sequence.
        let (mut g, mut sg) = build_pair(ShardConfig::hash(2), 8);
        let e = EdgeUpdate::new(VertexId(0), VertexId(5), ELabel(1));
        let e2 = EdgeUpdate::new(VertexId(5), VertexId(0), ELabel(2));
        let mut ops = vec![(e, true), (e, true), (e2, false), (e2, true)];
        // Pad past MIN_SHARDED_BATCH so the parallel path engages.
        for i in 0..MIN_SHARDED_BATCH as u32 {
            ops.push((
                EdgeUpdate::new(VertexId(1 + (i % 3)), VertexId(6 + (i % 2)), ELabel(0)),
                true,
            ));
        }
        let mut want = Vec::new();
        GraphShard::apply_edge_batch(&mut g, &ops, &mut want);
        let mut got = Vec::new();
        GraphShard::apply_edge_batch(&mut sg, &ops, &mut got);
        assert_eq!(want, got);
        assert_eq!(&got[..4], &[true, false, true, true]);
        sg.check_invariants().unwrap();
    }

    #[test]
    fn vertex_lifecycle_routes_through_owner() {
        let mut sg = ShardedGraph::new(ShardConfig::hash(3)).unwrap();
        let a = GraphShard::add_vertex(&mut sg, VLabel(0));
        let b = GraphShard::add_vertex(&mut sg, VLabel(1));
        let c = GraphShard::add_vertex(&mut sg, VLabel(1));
        GraphShard::insert_edge(&mut sg, a, b, ELabel(0)).unwrap();
        GraphShard::insert_edge(&mut sg, a, c, ELabel(1)).unwrap();
        assert_eq!(GraphShard::vertices_with_label(&sg, VLabel(1)), &[b, c]);
        assert!(GraphShard::has_edge(&sg, b, a));
        assert!(GraphShard::has_edge_with(&sg, a, c, ELabel(1)));
        assert!(!GraphShard::has_edge_with(&sg, a, c, ELabel(0)));
        // Cascade delete removes mirrors on other shards.
        GraphShard::delete_vertex(&mut sg, a, true).unwrap();
        assert_eq!(GraphShard::num_edges(&sg), 0);
        assert!(!GraphShard::is_alive(&sg, a));
        assert_eq!(GraphShard::degree(&sg, b), 0);
        sg.check_invariants().unwrap();
        // Revive under a new label via the stream-apply seam.
        GraphShard::apply(
            &mut sg,
            &Update::InsertVertex {
                id: a,
                label: VLabel(7),
            },
        )
        .unwrap();
        assert_eq!(GraphShard::vertices_with_label(&sg, VLabel(7)), &[a]);
        sg.check_invariants().unwrap();
    }

    #[test]
    fn shard_stats_account_for_ownership() {
        let (_, mut sg) = build_pair(ShardConfig::hash(4), 32);
        let ops = seeded_ops(200, 32, 99);
        let mut flags = Vec::new();
        GraphShard::apply_edge_batch(&mut sg, &ops, &mut flags);
        let stats = GraphShard::shard_stats(&sg);
        assert_eq!(stats.len(), 4);
        let owned: usize = stats.iter().map(|s| s.owned_vertices).sum();
        assert_eq!(owned, GraphShard::num_vertices(&sg));
        let halves: usize = stats.iter().map(|s| s.half_edges).sum();
        assert_eq!(halves, GraphShard::num_edges(&sg) * 2);
        let routed: u64 = stats.iter().map(|s| s.applied_ops).sum();
        assert!(routed > 0);
    }

    #[test]
    fn single_is_a_plain_datagraph() {
        let mut sg = ShardedGraph::single();
        assert_eq!(GraphShard::num_shards(&sg), 1);
        let a = GraphShard::add_vertex(&mut sg, VLabel(0));
        let b = GraphShard::add_vertex(&mut sg, VLabel(0));
        assert_eq!(GraphShard::shard_of(&sg, a), 0);
        GraphShard::insert_edge(&mut sg, a, b, ELabel(3)).unwrap();
        assert_eq!(GraphShard::edge_label(&sg, a, b), Some(ELabel(3)));
        sg.check_invariants().unwrap();
    }
}
