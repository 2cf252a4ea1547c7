//! The [`GraphShard`] trait: the graph-access seam the matching kernel,
//! classifier and service are generic over.
//!
//! The trait separates "something that answers the CSM kernel's graph
//! queries and accepts updates" from the storage behind it. The workspace
//! implements it once, for the monolithic [`DataGraph`]; wrappers outside
//! the workspace (the served-pipeline benchmark's timing shim) implement
//! it by forwarding. The shard-topology methods (`num_shards`, `shard_of`,
//! `shard_stats`) keep their single-shard defaults for such wrappers.

use crate::error::Result;
use crate::graph::DataGraph;
use crate::ids::{ELabel, VLabel, VertexId};
use crate::update::{EdgeUpdate, Update};

/// The graph-access seam the matching kernel, classifier and service are
/// generic over. Implemented by [`DataGraph`].
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
    /// (self-loop, dead endpoint) come back `false`. [`DataGraph`] applies
    /// the batch with [`DataGraph::apply_edge_batch_with`] at width 1.
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

    /// Per-shard occupancy and applier counters.
    fn shard_stats(&self) -> Vec<ShardStats> {
        vec![ShardStats {
            shard: 0,
            owned_vertices: self.num_vertices(),
            half_edges: self.num_edges() * 2,
            applied_ops: 0,
        }]
    }
}

/// Per-shard occupancy and applier counters a [`GraphShard`] reports
/// through [`GraphShard::shard_stats`].
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
