//! The dynamic labeled data graph `G`.
//!
//! Design notes:
//!
//! * adjacency is **label-partitioned**: each vertex's neighbor list is a
//!   single `Vec<(VertexId, ELabel)>` sorted by `(L(neighbor), elabel,
//!   neighbor id)` plus a small per-vertex partition index mapping each
//!   distinct `(L(neighbor), elabel)` pair to its contiguous run. The
//!   enumeration kernel asks "neighbors of `v` with vertex label `X` over
//!   edge label `y`" — with this layout that is an `O(log #groups)` index
//!   probe returning a contiguous, id-sorted slice, with zero per-neighbor
//!   label branches. CSM spends > 90 % of its time in `Find_Matches`
//!   (paper Table 3), i.e. *reading* the graph, which justifies paying
//!   `O(d)` vector shifts on update;
//! * the search phase only ever holds `&DataGraph`, so multi-threaded
//!   enumeration is data-race-free by construction (no locks on the hot
//!   path);
//! * every batched edge write — the batch executor's safe updates
//!   (inter-update parallelism, paper §4.2), the service's batched drain,
//!   bulk loads — goes through one ordered applier,
//!   [`DataGraph::apply_edge_batch_with`]: it groups half-ops per endpoint
//!   once, hands each scoped-thread task a disjoint sub-slice of the
//!   adjacency table (disjoint `&mut` borrows, no locks, no unsafe), and
//!   applies each endpoint's FIFO run by per-op splicing (`k` shifts of
//!   about `len / 2` entries) or, for two or more ops against a list of
//!   at least 4096 entries, one in-place segment merge that moves each
//!   entry after the run's first edited slot once (`merge_pays`, from the
//!   cold-list measurement `merge_vs_splice_table` in DESIGN.md §3.14).
//!
//! **Ordering contract:** `neighbors(v)` is sorted by `(L(neighbor),
//! elabel, id)`, *not* globally by id. Within one `(vlabel, elabel)` group
//! the slice is strictly id-sorted — that is what makes galloping
//! multi-way intersections over [`DataGraph::neighbors_with`] slices
//! valid. A vlabel-range slice ([`DataGraph::neighbors_with_vlabel`])
//! spans several elabel groups and is therefore *not* id-sorted; callers
//! that ignore edge labels must probe, not merge.

use crate::error::{GraphError, Result};
use crate::ids::{ELabel, VLabel, VertexId};
use crate::par;
use crate::update::EdgeUpdate;

/// Packed partition key: vertex label in the high 32 bits, edge label in
/// the low 32. Lexicographic `u64` order == `(VLabel, ELabel)` order.
#[inline]
fn group_key(vl: VLabel, el: ELabel) -> u64 {
    ((vl.0 as u64) << 32) | el.0 as u64
}

/// One vertex's label-partitioned neighbor list.
///
/// `entries` is sorted by `(L(neighbor), elabel, neighbor id)`; `groups`
/// holds one `(packed key, start offset)` per distinct `(L(neighbor),
/// elabel)` pair present, sorted by key. A group's run ends where the
/// next group starts (or at `entries.len()` for the last).
///
/// Invariants (checked by [`DataGraph::check_invariants`]):
/// * `groups` keys strictly increase; starts strictly increase from 0;
/// * every entry's `(neighbor label, elabel)` equals its group's key;
/// * within a group, neighbor ids strictly increase;
/// * a neighbor id appears in at most one group (simple graph).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct AdjList {
    entries: Vec<(VertexId, ELabel)>,
    groups: Vec<(u64, u32)>,
}

impl AdjList {
    #[inline]
    fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    fn as_slice(&self) -> &[(VertexId, ELabel)] {
        &self.entries
    }

    /// End offset (exclusive) of group `gi`.
    #[inline]
    fn group_end(&self, gi: usize) -> usize {
        self.groups
            .get(gi + 1)
            .map_or(self.entries.len(), |&(_, s)| s as usize)
    }

    /// Group-index range `[lo, hi)` covering vertex label `vl`.
    #[inline]
    fn vlabel_bounds(&self, vl: VLabel) -> (usize, usize) {
        let lo = self
            .groups
            .partition_point(|&(k, _)| (k >> 32) < vl.0 as u64);
        let hi = self
            .groups
            .partition_point(|&(k, _)| (k >> 32) <= vl.0 as u64);
        (lo, hi)
    }

    /// The id-sorted run of neighbors with label `vl` over elabel `el`.
    #[inline]
    fn slice(&self, vl: VLabel, el: ELabel) -> &[(VertexId, ELabel)] {
        match self
            .groups
            .binary_search_by_key(&group_key(vl, el), |&(k, _)| k)
        {
            Ok(gi) => &self.entries[self.groups[gi].1 as usize..self.group_end(gi)],
            Err(_) => &[],
        }
    }

    /// All neighbors with label `vl`, any elabel (sorted by `(elabel, id)`).
    #[inline]
    fn slice_vlabel(&self, vl: VLabel) -> &[(VertexId, ELabel)] {
        let (lo, hi) = self.vlabel_bounds(vl);
        if lo == hi {
            return &[];
        }
        &self.entries[self.groups[lo].1 as usize..self.group_end(hi - 1)]
    }

    /// Elabel of the edge to neighbor `n` (whose label is `nl`), if present.
    fn find(&self, n: VertexId, nl: VLabel) -> Option<ELabel> {
        self.position(n, nl).map(|p| self.entries[p].1)
    }

    /// Slot of the entry for neighbor `n` (whose label is `nl`), if present:
    /// one binary search per elabel group of `nl`.
    fn position(&self, n: VertexId, nl: VLabel) -> Option<usize> {
        let (lo, hi) = self.vlabel_bounds(nl);
        (lo..hi).find_map(|gi| {
            let s = self.groups[gi].1 as usize;
            self.entries[s..self.group_end(gi)]
                .binary_search_by_key(&n, |&(v, _)| v)
                .ok()
                .map(|off| s + off)
        })
    }

    /// Slot before which neighbor `n` belongs in group `key`: its id-sorted
    /// place if the group exists, else where the group would start.
    fn slot(&self, key: u64, n: VertexId) -> usize {
        match self.groups.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(gi) => {
                let s = self.groups[gi].1 as usize;
                s + self.entries[s..self.group_end(gi)].partition_point(|&(v, _)| v < n)
            }
            Err(gi) => self.groups.get(gi).map_or(self.len(), |&(_, s)| s as usize),
        }
    }

    /// Insert neighbor `n` (label `nl`) over elabel `el`. Returns `false`
    /// if an edge to `n` already exists under *any* elabel (simple graph).
    fn insert(&mut self, n: VertexId, el: ELabel, nl: VLabel) -> bool {
        if self.position(n, nl).is_some() {
            return false;
        }
        let key = group_key(nl, el);
        let pos = self.slot(key, n);
        self.entries.insert(pos, (n, el));
        let gi = match self.groups.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(gi) => gi,
            Err(gi) => {
                self.groups.insert(gi, (key, pos as u32));
                gi
            }
        };
        for g in &mut self.groups[gi + 1..] {
            g.1 += 1;
        }
        true
    }

    /// Apply one endpoint's FIFO run of half-ops, pushing one `changed`
    /// flag per op. Each flag reflects the list state the ops before it
    /// produced — exactly what calling [`AdjList::insert`] /
    /// [`AdjList::remove`] per op gives. Runs that [`merge_pays`] for are
    /// merged in place in one pass; the rest splice op by op.
    fn apply_run(&mut self, run: &[Tagged], out: &mut Vec<bool>) {
        if merge_pays(run.len(), self.len()) {
            self.apply_merged(run, out);
        } else {
            self.apply_spliced(run, out);
        }
    }

    /// [`AdjList::apply_run`]'s per-op branch: one splice (a shift of the
    /// entries after the edited slot) per op.
    fn apply_spliced(&mut self, run: &[Tagged], out: &mut Vec<bool>) {
        for &(_, _, op) in run {
            out.push(match op {
                HalfOp::Insert { n, el, nl } => self.insert(n, el, nl),
                HalfOp::Remove { n, nl } => self.remove(n, nl).is_some(),
            });
        }
    }

    /// [`AdjList::apply_run`]'s merged branch: replay the run per touched
    /// neighbor, then apply the net edits in one in-place pass
    /// ([`AdjList::merge_in_place`]).
    fn apply_merged(&mut self, run: &[Tagged], out: &mut Vec<bool>) {
        // Op indices keyed by neighbor id: sorted, each neighbor's ops
        // form one FIFO chunk (run length < 2^31, see `split_edge_batch`).
        let mut order: Vec<u64> = run
            .iter()
            .enumerate()
            .map(|(i, &(_, _, op))| (u64::from(op.neighbor().0) << 32) | i as u64)
            .collect();
        order.sort_unstable();
        let base = out.len();
        out.resize(base + run.len(), false);

        // Per neighbor: one probe for its old slot, a replay of its ops
        // against that one entry, and its net edit addressed by old slot.
        // A neighbor's vertex label is stable for the whole batch (vertex
        // updates never share a batch with edge updates).
        let mut inserts: Vec<(usize, u64, VertexId, ELabel)> = Vec::new();
        let mut removes: Vec<(usize, u64)> = Vec::new();
        let index = |o: u64| (o & u64::from(u32::MAX)) as usize;
        for chunk in order.chunk_by(|x, y| x >> 32 == y >> 32) {
            let first = run[index(chunk[0])].2;
            let (n, nl) = (first.neighbor(), first.neighbor_label());
            let old = self.position(n, nl).map(|p| (p, self.entries[p].1));
            let mut cur = old.map(|o| o.1);
            for &o in chunk {
                let i = index(o);
                out[base + i] = match run[i].2 {
                    HalfOp::Insert { el, .. } => {
                        if cur.is_none() {
                            cur = Some(el);
                            true
                        } else {
                            false
                        }
                    }
                    HalfOp::Remove { .. } => cur.take().is_some(),
                };
            }
            if let Some((p, el0)) = old.filter(|&(_, el0)| cur != Some(el0)) {
                // Removed, or removed and re-inserted under another elabel.
                removes.push((p, group_key(nl, el0)));
            }
            if let Some(el) = cur.filter(|&el| old.map(|o| o.1) != Some(el)) {
                let key = group_key(nl, el);
                inserts.push((self.slot(key, n), key, n, el));
            }
        }
        if inserts.is_empty() && removes.is_empty() {
            return;
        }
        inserts.sort_unstable();
        removes.sort_unstable();
        self.merge_in_place(&inserts, &removes);
    }

    /// Apply net edits to the old list in place: drop the entries at
    /// `removes` (old slots with their group keys) and place `inserts`
    /// (`(old slot, key, id, elabel)`, each going before the old entry at
    /// its slot); both sorted, hence also by group key. Every untouched
    /// segment moves once by its running offset — inserts so far minus
    /// removes so far — so a run of `k` edits moves at most the entries
    /// after its first edited slot, and nothing past the last one when
    /// the run's net size change is zero. `groups` is rebuilt from per-key
    /// net counts in `O(#groups + k)`.
    fn merge_in_place(
        &mut self,
        inserts: &[(usize, u64, VertexId, ELabel)],
        removes: &[(usize, u64)],
    ) {
        let old_len = self.len();
        let new_len = old_len + inserts.len() - removes.len();

        // Per-key net counts over the old groups → the new partition index.
        let mut groups = Vec::with_capacity(self.groups.len() + inserts.len());
        let mut adds = inserts.iter().map(|i| i.1).peekable();
        let mut subs = removes.iter().map(|r| r.1).peekable();
        let (mut gi, mut start) = (0, 0u32);
        loop {
            let old = self.groups.get(gi).map(|g| g.0);
            let Some(key) = old.into_iter().chain(adds.peek().copied()).min() else {
                break;
            };
            let mut size = 0;
            if old == Some(key) {
                size = self.group_end(gi) - self.groups[gi].1 as usize;
                gi += 1;
            }
            while adds.next_if_eq(&key).is_some() {
                size += 1;
            }
            while subs.next_if_eq(&key).is_some() {
                size -= 1;
            }
            if size > 0 {
                groups.push((key, start));
                start += size as u32;
            }
        }
        debug_assert!(subs.peek().is_none(), "remove key missing from groups");

        // One walk over the edits in old-slot order (an insert before a
        // remove at the same slot): the segment moves `(from, to, shift)`
        // and the new slot of each insert.
        let mut moves: Vec<(usize, usize, isize)> =
            Vec::with_capacity(inserts.len() + removes.len() + 1);
        let mut holes: Vec<usize> = Vec::with_capacity(inserts.len());
        let (mut ii, mut ri, mut from, mut shift) = (0, 0, 0, 0isize);
        loop {
            let (at, is_insert) = match (inserts.get(ii), removes.get(ri)) {
                (Some(i), Some(r)) if i.0 <= r.0 => (i.0, true),
                (_, Some(r)) => (r.0, false),
                (Some(i), None) => (i.0, true),
                (None, None) => break,
            };
            if at > from && shift != 0 {
                moves.push((from, at, shift));
            }
            if is_insert {
                holes.push(at.wrapping_add_signed(shift));
                (ii, from, shift) = (ii + 1, at, shift + 1);
            } else {
                (ri, from, shift) = (ri + 1, at + 1, shift - 1);
            }
        }
        if old_len > from && shift != 0 {
            moves.push((from, old_len, shift));
        }

        // Left shifts front to back, then right shifts back to front: each
        // segment's destination is then free when it moves.
        if new_len > old_len {
            self.entries.resize(new_len, (VertexId(0), ELabel(0)));
        }
        for &(s, e, d) in moves.iter().filter(|m| m.2 < 0) {
            self.entries.copy_within(s..e, s.wrapping_add_signed(d));
        }
        for &(s, e, d) in moves.iter().rev().filter(|m| m.2 > 0) {
            self.entries.copy_within(s..e, s.wrapping_add_signed(d));
        }
        for (&h, &(_, _, n, el)) in holes.iter().zip(inserts) {
            self.entries[h] = (n, el);
        }
        self.entries.truncate(new_len);
        self.groups = groups;
    }

    /// Remove the edge to neighbor `n` (label `nl`), returning its elabel.
    fn remove(&mut self, n: VertexId, nl: VLabel) -> Option<ELabel> {
        let (lo, hi) = self.vlabel_bounds(nl);
        for gi in lo..hi {
            let s = self.groups[gi].1 as usize;
            let e = self.group_end(gi);
            if let Ok(off) = self.entries[s..e].binary_search_by_key(&n, |&(v, _)| v) {
                let (_, label) = self.entries.remove(s + off);
                if e - s == 1 {
                    self.groups.remove(gi);
                    for g in &mut self.groups[gi..] {
                        g.1 -= 1;
                    }
                } else {
                    for g in &mut self.groups[gi + 1..] {
                        g.1 -= 1;
                    }
                }
                return Some(label);
            }
        }
        None
    }
}

/// One endpoint-local half of an undirected edge operation. It carries the
/// neighbor's label so the partition index can be maintained without
/// consulting vertex metadata from inside an applier job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HalfOp {
    /// Add neighbor `n` (labeled `nl`) over edge label `el`.
    Insert {
        /// Neighbor vertex.
        n: VertexId,
        /// Edge label.
        el: ELabel,
        /// Neighbor's vertex label.
        nl: VLabel,
    },
    /// Drop the edge to neighbor `n` (labeled `nl`).
    Remove {
        /// Neighbor vertex.
        n: VertexId,
        /// Neighbor's vertex label.
        nl: VLabel,
    },
}

impl HalfOp {
    #[inline]
    fn neighbor(self) -> VertexId {
        match self {
            HalfOp::Insert { n, .. } | HalfOp::Remove { n, .. } => n,
        }
    }

    #[inline]
    fn neighbor_label(self) -> VLabel {
        match self {
            HalfOp::Insert { nl, .. } | HalfOp::Remove { nl, .. } => nl,
        }
    }
}

/// A half-op addressed to endpoint `v`: `(tag, v, op)`. The tag is
/// `op index << 1 | is_src_half` — monotone in batch order, so sorting by
/// `(v, tag)` keeps every endpoint's run FIFO, and `commit_verdicts`
/// knows which half's verdict to keep.
type Tagged = (u32, VertexId, HalfOp);

/// List length from which [`AdjList::apply_run`] merges a run of two or
/// more half-ops.
const MERGE_MIN_LEN: usize = 1 << 12;

/// Should a run of `k` half-ops against a list of `len` entries be merged
/// in place rather than spliced op by op? Splicing shifts about `len / 2`
/// entries per op, `k · len / 2` in all; the merge moves each entry after
/// the run's first edited slot once, about `len · k / (k + 1)`, but pays
/// a sort of the run and a probe per touched neighbor up front. Measured
/// on cold lists (`merge_vs_splice_table` below, DESIGN.md §3.14), the
/// merge loses below 4 k entries, breaks even at 4 k for `k ≤ 32` and
/// wins there for long runs, and wins at every `k ≥ 2` from 6 k on
/// (0.07–0.7× the splice time at 100 k). A single op always splices:
/// merging it moves as much and adds the bookkeeping.
#[inline]
fn merge_pays(k: usize, len: usize) -> bool {
    k >= 2 && len >= MERGE_MIN_LEN
}

/// The dynamic, labeled, undirected data graph `G = (V, E, L)`.
///
/// Vertices are dense `u32` ids. Deleted vertices leave a dead slot so that
/// ids in a pre-recorded update stream stay stable.
///
/// ```
/// use csm_graph::{DataGraph, VLabel, ELabel, VertexId};
/// let mut g = DataGraph::new();
/// let a = g.add_vertex(VLabel(0));
/// let b = g.add_vertex(VLabel(1));
/// g.insert_edge(a, b, ELabel(0)).unwrap();
/// assert!(g.has_edge(a, b));
/// assert_eq!(g.degree(a), 1);
/// assert_eq!(g.neighbors_with(a, VLabel(1), ELabel(0)), &[(b, ELabel(0))]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DataGraph {
    labels: Vec<VLabel>,
    alive: Vec<bool>,
    adj: Vec<AdjList>,
    /// Alive vertices grouped by label; order within a bucket is unspecified.
    by_label: Vec<Vec<VertexId>>,
    n_edges: usize,
    n_alive: usize,
    max_elabel: u32,
}

impl DataGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with vertex capacity reserved up front.
    pub fn with_capacity(vertices: usize) -> Self {
        DataGraph {
            labels: Vec::with_capacity(vertices),
            alive: Vec::with_capacity(vertices),
            adj: Vec::with_capacity(vertices),
            ..Self::default()
        }
    }

    /// Number of *alive* vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n_alive
    }

    /// Number of vertex slots ever allocated (alive + dead). Valid ids are
    /// `0..vertex_slots()`.
    #[inline]
    pub fn vertex_slots(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.n_edges
    }

    /// Largest edge label value seen so far (0 if none).
    #[inline]
    pub fn max_edge_label(&self) -> u32 {
        self.max_elabel
    }

    /// Number of distinct vertex-label buckets allocated (an upper bound on
    /// `|Σ_V|` actually in use).
    #[inline]
    pub fn num_vertex_label_buckets(&self) -> usize {
        self.by_label.len()
    }

    /// Append a fresh vertex with the given label, returning its id.
    pub fn add_vertex(&mut self, label: VLabel) -> VertexId {
        let id = VertexId::from(self.labels.len());
        self.labels.push(label);
        self.alive.push(true);
        self.adj.push(AdjList::default());
        self.bucket_mut(label).push(id);
        self.n_alive += 1;
        id
    }

    /// Ensure slot `id` exists and is alive with `label`, growing the slot
    /// table as needed. Used by the text loader, where vertex ids are
    /// explicit. Growing creates intermediate *dead* slots.
    ///
    /// Reviving a dead slot may change its label: that is safe for the
    /// partition index because dead vertices are always isolated
    /// ([`DataGraph::delete_vertex`] requires isolation or cascades), so no
    /// neighbor list holds an entry keyed by the stale label.
    pub fn ensure_vertex(&mut self, id: VertexId, label: VLabel) {
        while self.labels.len() <= id.index() {
            self.labels.push(VLabel(0));
            self.alive.push(false);
            self.adj.push(AdjList::default());
        }
        if !self.alive[id.index()] {
            debug_assert!(self.adj[id.index()].is_empty(), "dead slot with edges");
            self.alive[id.index()] = true;
            self.labels[id.index()] = label;
            self.bucket_mut(label).push(id);
            self.n_alive += 1;
        }
    }

    /// Delete a vertex. With `cascade = false` the vertex must be isolated;
    /// with `cascade = true` all incident edges are removed first (this is
    /// how vertex deletions in an update stream decompose into edge
    /// deletions, paper Def. 2.3).
    ///
    /// The dead slot is also removed from its `by_label` bucket, so
    /// [`DataGraph::vertices_with_label`] never yields dead vertices to
    /// depth-0 candidate scans.
    pub fn delete_vertex(&mut self, id: VertexId, cascade: bool) -> Result<()> {
        self.check_alive(id)?;
        let d = self.adj[id.index()].len();
        if d > 0 {
            if !cascade {
                return Err(GraphError::VertexNotIsolated(id, d));
            }
            let neighbors: Vec<VertexId> = self.adj[id.index()]
                .as_slice()
                .iter()
                .map(|&(v, _)| v)
                .collect();
            for v in neighbors {
                self.remove_edge(id, v)?;
            }
        }
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

    /// Insert the undirected edge `{a, b}` with label `l`.
    ///
    /// Returns `Ok(true)` if the edge was inserted, `Ok(false)` if an edge
    /// between `a` and `b` already existed (the insert is then a no-op —
    /// this matches the simple-graph model; streams replaying an existing
    /// edge are tolerated rather than corrupting adjacency).
    pub fn insert_edge(&mut self, a: VertexId, b: VertexId, l: ELabel) -> Result<bool> {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        self.check_alive(a)?;
        self.check_alive(b)?;
        let (la, lb) = (self.labels[a.index()], self.labels[b.index()]);
        if !self.adj[a.index()].insert(b, l, lb) {
            return Ok(false);
        }
        let inserted = self.adj[b.index()].insert(a, l, la);
        debug_assert!(inserted, "adjacency symmetric invariant violated");
        self.n_edges += 1;
        self.max_elabel = self.max_elabel.max(l.0);
        Ok(true)
    }

    /// Remove the undirected edge `{a, b}`, returning its label, or `None`
    /// if no such edge existed.
    pub fn remove_edge(&mut self, a: VertexId, b: VertexId) -> Result<Option<ELabel>> {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        self.check_alive(a)?;
        self.check_alive(b)?;
        let (la, lb) = (self.labels[a.index()], self.labels[b.index()]);
        match self.adj[a.index()].remove(b, lb) {
            None => Ok(None),
            Some(label) => {
                let removed = self.adj[b.index()].remove(a, la);
                debug_assert_eq!(
                    removed,
                    Some(label),
                    "adjacency symmetric invariant violated"
                );
                self.n_edges -= 1;
                Ok(Some(label))
            }
        }
    }

    /// Does the undirected edge `{a, b}` exist?
    #[inline]
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.edge_label(a, b).is_some()
    }

    /// Label of edge `{a, b}`, if present. `O(#groups + log d)` via the
    /// smaller endpoint's partition index.
    #[inline]
    pub fn edge_label(&self, a: VertexId, b: VertexId) -> Option<ELabel> {
        let (la, lb) = match (self.adj.get(a.index()), self.adj.get(b.index())) {
            (Some(la), Some(lb)) => (la, lb),
            _ => return None,
        };
        if !self.is_alive(a) || !self.is_alive(b) {
            return None;
        }
        // Probe the smaller endpoint list: both sides hold the edge.
        if lb.len() < la.len() {
            lb.find(a, self.labels[a.index()])
        } else {
            la.find(b, self.labels[b.index()])
        }
    }

    /// Does `{v, n}` exist with elabel exactly `el`? A targeted `O(log)`
    /// probe of one partition group — the kernel's backward-edge check.
    #[inline]
    pub fn has_edge_with(&self, v: VertexId, n: VertexId, el: ELabel) -> bool {
        let Some(list) = self.adj.get(v.index()) else {
            return false;
        };
        let Some(&nl) = self.labels.get(n.index()) else {
            return false;
        };
        list.slice(nl, el)
            .binary_search_by_key(&n, |&(w, _)| w)
            .is_ok()
    }

    /// Neighbor list of `v` (empty for dead/unknown vertices), sorted by
    /// `(L(neighbor), elabel, id)` — see the module-level ordering contract.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, ELabel)] {
        self.adj
            .get(v.index())
            .map(AdjList::as_slice)
            .unwrap_or(&[])
    }

    /// Neighbors of `v` with vertex label `vl` over edge label `el`, as a
    /// contiguous slice sorted by neighbor id. `O(log #groups)`.
    ///
    /// Id-sortedness makes these slices directly mergeable: the kernel's
    /// multi-way galloping intersection operates on them.
    #[inline]
    pub fn neighbors_with(&self, v: VertexId, vl: VLabel, el: ELabel) -> &[(VertexId, ELabel)] {
        self.adj.get(v.index()).map_or(&[][..], |l| l.slice(vl, el))
    }

    /// Neighbors of `v` with vertex label `vl` under *any* edge label, as a
    /// contiguous slice sorted by `(elabel, id)`. **Not** id-sorted across
    /// elabel groups — callers ignoring edge labels (CaLiG mode) must probe
    /// rather than merge.
    #[inline]
    pub fn neighbors_with_vlabel(&self, v: VertexId, vl: VLabel) -> &[(VertexId, ELabel)] {
        self.adj
            .get(v.index())
            .map_or(&[][..], |l| l.slice_vlabel(vl))
    }

    /// Count of neighbors of `v` with label `vl` (and elabel `el`, unless
    /// `None`). `O(log #groups)` — the NLF filter's building block.
    #[inline]
    pub fn count_neighbors_with(&self, v: VertexId, vl: VLabel, el: Option<ELabel>) -> usize {
        match el {
            Some(el) => self.neighbors_with(v, vl, el).len(),
            None => self.neighbors_with_vlabel(v, vl).len(),
        }
    }

    /// Degree of `v` (0 for dead/unknown vertices).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj.get(v.index()).map_or(0, AdjList::len)
    }

    /// `v`'s partition index as `(neighbor label, edge label, run length)`
    /// triples, in key order. `O(#groups)` — read straight off the
    /// adjacency partition, no per-neighbor work. This is the catalog
    /// maintenance primitive: one vertex's entire contribution to the
    /// label-triple and two-path counts is a fold over these groups
    /// ([`crate::catalog::CardinalityCatalog`]).
    pub fn neighbor_groups(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (VLabel, ELabel, usize)> + '_ {
        let list = self.adj.get(v.index());
        let n_groups = list.map_or(0, |l| l.groups.len());
        (0..n_groups).filter_map(move |gi| {
            let l = list?;
            let (key, s) = l.groups[gi];
            let e = l.group_end(gi);
            Some((
                VLabel((key >> 32) as u32),
                ELabel(key as u32),
                e - s as usize,
            ))
        })
    }

    /// Vertex label of `v`. Panics in debug builds on dead vertices.
    #[inline]
    pub fn label(&self, v: VertexId) -> VLabel {
        debug_assert!(self.is_alive(v), "label() on dead vertex {v:?}");
        self.labels[v.index()]
    }

    /// Is slot `v` an alive vertex?
    #[inline]
    pub fn is_alive(&self, v: VertexId) -> bool {
        self.alive.get(v.index()).copied().unwrap_or(false)
    }

    /// Iterator over all alive vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(i, _)| VertexId::from(i))
    }

    /// Alive vertices carrying `label` (unsorted). Buckets are maintained
    /// eagerly on vertex deletion, so the slice never contains dead slots.
    #[inline]
    pub fn vertices_with_label(&self, label: VLabel) -> &[VertexId] {
        self.by_label
            .get(label.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterator over all undirected edges `(a, b, label)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, ELabel)> + '_ {
        self.adj.iter().enumerate().flat_map(move |(i, list)| {
            let a = VertexId::from(i);
            list.as_slice()
                .iter()
                .filter(move |&&(b, _)| a < b)
                .map(move |&(b, l)| (a, b, l))
        })
    }

    /// Neighbors of `v` whose vertex label is `vl` and connecting edge label
    /// is `el` (`el = None` matches any edge label — CaLiG mode). `O(log)`
    /// partition lookup plus a branch-free slice walk.
    pub fn neighbors_filtered(
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

    /// Apply an ordered batch of edge updates (`true` = insert), pushing
    /// one `changed` flag per op, over at most `nthreads` workers.
    ///
    /// The flags, [`DataGraph::num_edges`] and [`DataGraph::max_edge_label`]
    /// equal applying each op in turn with `insert_edge` / `remove_edge`:
    /// an op sees every op before it, duplicates and re-inserts under a new
    /// label included, and invalid ops (self-loop, dead endpoint) come back
    /// `false`. This is the batch executor's bulk apply for safe updates
    /// (paper §4.2) and DataGraph's [`crate::GraphShard::apply_edge_batch`]
    /// at width 1.
    ///
    /// Each op becomes two tagged half-ops, grouped per endpoint once; each
    /// endpoint's FIFO run goes through one per-list routine that splices
    /// op by op or, on a long list, merges the whole run in one pass.
    /// Endpoint runs are split over scoped-thread jobs, each owning a
    /// disjoint sub-slice of the adjacency table — no locks, no unsafe.
    pub fn apply_edge_batch_with(
        &mut self,
        ops: &[(EdgeUpdate, bool)],
        changed: &mut Vec<bool>,
        nthreads: usize,
    ) {
        let mut half = self.split_edge_batch(ops);
        let did = self.apply_half_ops(&mut half, nthreads);
        self.commit_verdicts(ops, &half, &did, changed);
    }

    /// Split an ordered edge batch (`true` = insert) into [`Tagged`]
    /// half-ops, one per endpoint of each valid op, in batch order. Invalid
    /// ops (self-loop, dead or unknown endpoint) emit nothing, so their
    /// flag stays `false` — what `insert_edge(..).unwrap_or(false)` gives.
    fn split_edge_batch(&self, ops: &[(EdgeUpdate, bool)]) -> Vec<Tagged> {
        assert!(ops.len() < 1 << 31, "edge batch too long for u32 tags");
        let label_of = |v: VertexId| self.is_alive(v).then(|| self.labels[v.index()]);
        let mut half = Vec::with_capacity(2 * ops.len());
        for (i, &(e, insert)) in ops.iter().enumerate() {
            let (a, b) = (e.src, e.dst);
            let (Some(la), Some(lb)) = (label_of(a), label_of(b)) else {
                continue;
            };
            if a == b {
                continue;
            }
            let tag = (i as u32) << 1;
            let (to_b, to_a) = if insert {
                let el = e.label;
                (
                    HalfOp::Insert { n: b, el, nl: lb },
                    HalfOp::Insert { n: a, el, nl: la },
                )
            } else {
                (
                    HalfOp::Remove { n: b, nl: lb },
                    HalfOp::Remove { n: a, nl: la },
                )
            };
            half.push((tag | 1, a, to_b));
            half.push((tag, b, to_a));
        }
        half
    }

    /// Fold the half-op verdicts `did` (aligned with `half`) into one
    /// `changed` flag per op of `ops` (appended to `changed`) and into the
    /// edge accounting: `n_edges` moves once per applied op and
    /// `max_elabel` takes applied inserts only — both exactly as applying
    /// each op in turn would leave them. The flag is the src half's
    /// verdict; the dst half must agree.
    fn commit_verdicts(
        &mut self,
        ops: &[(EdgeUpdate, bool)],
        half: &[Tagged],
        did: &[bool],
        changed: &mut Vec<bool>,
    ) {
        let base = changed.len();
        changed.resize(base + ops.len(), false);
        let flags = &mut changed[base..];
        let verdicts = || half.iter().zip(did).map(|(&(tag, _, _), &d)| (tag, d));
        for (tag, d) in verdicts() {
            if tag & 1 == 1 {
                flags[(tag >> 1) as usize] = d;
            }
        }
        #[cfg(debug_assertions)]
        for (tag, d) in verdicts() {
            debug_assert!(
                tag & 1 == 1 || flags[(tag >> 1) as usize] == d,
                "half-edge verdicts diverged"
            );
        }
        for (&(e, insert), &d) in ops.iter().zip(flags.iter()) {
            if d {
                if insert {
                    self.n_edges += 1;
                    self.max_elabel = self.max_elabel.max(e.label.0);
                } else {
                    self.n_edges -= 1;
                }
            }
        }
    }

    /// Apply tagged half-ops to their endpoints' lists, returning one
    /// `changed` flag per op of `ops` as sorted on return (by endpoint,
    /// then tag). Every endpoint must be alive. Vertex and edge counts are
    /// the caller's to keep.
    fn apply_half_ops(&mut self, ops: &mut [Tagged], nthreads: usize) -> Vec<bool> {
        ops.sort_unstable_by_key(|&(tag, v, _)| (v, tag));
        let runs: Vec<&[Tagged]> = ops.chunk_by(|x, y| x.1 == y.1).collect();
        if runs.is_empty() {
            return Vec::new();
        }
        // Below ~128 half-ops spawning costs more than it saves.
        let nthreads = nthreads.max(1).min(runs.len()).min(ops.len().div_ceil(128));

        // Disjoint mutable access: chunk the run list contiguously, then
        // carve `adj` into per-chunk sub-slices at the chunk boundaries.
        // Runs within a chunk touch only indices inside its sub-slice.
        // Spawning is delegated to `par::run_jobs` (the linter confines
        // raw thread::scope to par.rs/inner.rs).
        let chunk_size = runs.len().div_ceil(nthreads);
        let mut jobs = Vec::with_capacity(nthreads);
        let mut rest: &mut [AdjList] = self.adj.as_mut_slice();
        let mut offset = 0usize;
        for chunk in runs.chunks(chunk_size) {
            let first = chunk[0][0].1.index();
            let last = chunk[chunk.len() - 1][0].1.index();
            let tail = std::mem::take(&mut rest);
            let (_skip, tail) = tail.split_at_mut(first - offset);
            let (mine, tail) = tail.split_at_mut(last - first + 1);
            rest = tail;
            offset = last + 1;
            jobs.push(move || {
                let mut out = Vec::new();
                for run in chunk {
                    mine[run[0].1.index() - first].apply_run(run, &mut out);
                }
                out
            });
        }
        par::run_jobs(jobs).concat()
    }

    #[inline]
    fn check_alive(&self, v: VertexId) -> Result<()> {
        if self.is_alive(v) {
            Ok(())
        } else {
            Err(GraphError::UnknownVertex(v))
        }
    }

    fn bucket_mut(&mut self, label: VLabel) -> &mut Vec<VertexId> {
        if self.by_label.len() <= label.index() {
            self.by_label.resize_with(label.index() + 1, Vec::new);
        }
        &mut self.by_label[label.index()]
    }

    /// Debug-only structural invariant check: partition-index integrity,
    /// adjacency symmetry, consistent edge counts, and label-bucket
    /// hygiene (alive-only, label-consistent, duplicate-free). Used by
    /// property tests.
    pub fn check_invariants(&self) -> Result<()> {
        let mut dir_edges = 0usize;
        for (i, list) in self.adj.iter().enumerate() {
            let a = VertexId::from(i);
            if !self.alive[i] && !list.is_empty() {
                return Err(GraphError::VertexNotIsolated(a, list.len()));
            }
            // Partition index: keys strictly increasing, starts strictly
            // increasing from 0, all in range, no empty groups.
            for w in list.groups.windows(2) {
                if w[0].0 >= w[1].0 {
                    return Err(GraphError::Io(format!("group keys of {a:?} not sorted")));
                }
                if w[0].1 >= w[1].1 {
                    return Err(GraphError::Io(format!(
                        "group starts of {a:?} not increasing"
                    )));
                }
            }
            match list.groups.first() {
                Some(&(_, s)) if s != 0 => {
                    return Err(GraphError::Io(format!("first group of {a:?} not at 0")));
                }
                None if !list.entries.is_empty() => {
                    return Err(GraphError::Io(format!("entries of {a:?} with no groups")));
                }
                _ => {}
            }
            if let Some(&(_, s)) = list.groups.last() {
                if (s as usize) >= list.entries.len() {
                    return Err(GraphError::Io(format!("empty trailing group on {a:?}")));
                }
            }
            // Entries agree with their group key; ids strictly increase
            // within a group; no neighbor appears twice overall.
            let mut seen: Vec<VertexId> = Vec::with_capacity(list.len());
            for gi in 0..list.groups.len() {
                let (key, s) = list.groups[gi];
                let e = list.group_end(gi);
                let (gvl, gel) = (VLabel((key >> 32) as u32), ELabel(key as u32));
                let run = &list.entries[s as usize..e];
                for w in run.windows(2) {
                    if w[0].0 >= w[1].0 {
                        return Err(GraphError::Io(format!(
                            "group {gvl:?}/{gel:?} of {a:?} not id-sorted"
                        )));
                    }
                }
                for &(b, l) in run {
                    if l != gel {
                        return Err(GraphError::Io(format!(
                            "entry {a:?}->{b:?} elabel {l:?} in group {gel:?}"
                        )));
                    }
                    if !self.is_alive(b) {
                        return Err(GraphError::Io(format!("edge {a:?}-{b:?} to dead vertex")));
                    }
                    if self.labels[b.index()] != gvl {
                        return Err(GraphError::Io(format!(
                            "entry {a:?}->{b:?} labeled {:?} in group {gvl:?}",
                            self.labels[b.index()]
                        )));
                    }
                    seen.push(b);
                }
            }
            seen.sort_unstable();
            if seen.windows(2).any(|w| w[0] == w[1]) {
                return Err(GraphError::Io(format!("duplicate neighbor in {a:?}")));
            }
            // Symmetry.
            for &(b, l) in list.as_slice() {
                let back = self
                    .adj
                    .get(b.index())
                    .and_then(|lb| lb.find(a, self.labels[a.index()]));
                if back != Some(l) {
                    return Err(GraphError::Io(format!("edge {a:?}-{b:?} not symmetric")));
                }
            }
            dir_edges += list.len();
        }
        if dir_edges != self.n_edges * 2 {
            return Err(GraphError::Io(format!(
                "edge count mismatch: counted {dir_edges} directed, recorded {}",
                self.n_edges
            )));
        }
        // Label buckets: total matches the alive count, and every member is
        // an alive vertex filed under its own label, exactly once.
        let bucket_total: usize = self.by_label.iter().map(Vec::len).sum();
        if bucket_total != self.n_alive {
            return Err(GraphError::Io("label buckets out of sync".into()));
        }
        for (li, bucket) in self.by_label.iter().enumerate() {
            let mut members = bucket.clone();
            members.sort_unstable();
            if members.windows(2).any(|w| w[0] == w[1]) {
                return Err(GraphError::Io(format!("duplicate vertex in bucket {li}")));
            }
            for &v in bucket {
                if !self.is_alive(v) {
                    return Err(GraphError::Io(format!("dead vertex {v:?} in bucket {li}")));
                }
                if self.labels[v.index()].index() != li {
                    return Err(GraphError::Io(format!("vertex {v:?} in wrong bucket {li}")));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labeled_path(n: usize) -> (DataGraph, Vec<VertexId>) {
        let mut g = DataGraph::new();
        let vs: Vec<_> = (0..n).map(|i| g.add_vertex(VLabel(i as u32 % 3))).collect();
        for w in vs.windows(2) {
            g.insert_edge(w[0], w[1], ELabel(0)).unwrap();
        }
        (g, vs)
    }

    #[test]
    fn insert_and_query_edges() {
        let (g, vs) = labeled_path(4);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(vs[0], vs[1]));
        assert!(g.has_edge(vs[1], vs[0]));
        assert!(!g.has_edge(vs[0], vs[2]));
        assert_eq!(g.degree(vs[1]), 2);
        g.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let (mut g, vs) = labeled_path(2);
        assert!(!g.insert_edge(vs[0], vs[1], ELabel(5)).unwrap());
        assert_eq!(g.num_edges(), 1);
        // Original label preserved.
        assert_eq!(g.edge_label(vs[0], vs[1]), Some(ELabel(0)));
    }

    #[test]
    fn self_loop_rejected() {
        let (mut g, vs) = labeled_path(1);
        assert_eq!(
            g.insert_edge(vs[0], vs[0], ELabel(0)),
            Err(GraphError::SelfLoop(vs[0]))
        );
    }

    #[test]
    fn remove_edge_roundtrip() {
        let (mut g, vs) = labeled_path(3);
        assert_eq!(g.remove_edge(vs[0], vs[1]).unwrap(), Some(ELabel(0)));
        assert_eq!(g.remove_edge(vs[0], vs[1]).unwrap(), None);
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(vs[0], vs[1]));
        g.check_invariants().unwrap();
    }

    #[test]
    fn edge_label_lookup() {
        let mut g = DataGraph::new();
        let a = g.add_vertex(VLabel(0));
        let b = g.add_vertex(VLabel(0));
        g.insert_edge(a, b, ELabel(7)).unwrap();
        assert_eq!(g.edge_label(a, b), Some(ELabel(7)));
        assert_eq!(g.edge_label(b, a), Some(ELabel(7)));
        assert_eq!(g.max_edge_label(), 7);
    }

    #[test]
    fn label_buckets_track_vertices() {
        let mut g = DataGraph::new();
        let a = g.add_vertex(VLabel(2));
        let b = g.add_vertex(VLabel(2));
        let c = g.add_vertex(VLabel(1));
        assert_eq!(g.vertices_with_label(VLabel(2)), &[a, b]);
        assert_eq!(g.vertices_with_label(VLabel(1)), &[c]);
        assert!(g.vertices_with_label(VLabel(9)).is_empty());
        g.check_invariants().unwrap();
    }

    #[test]
    fn delete_vertex_requires_isolation_unless_cascade() {
        let (mut g, vs) = labeled_path(3);
        assert!(matches!(
            g.delete_vertex(vs[1], false),
            Err(GraphError::VertexNotIsolated(_, 2))
        ));
        g.delete_vertex(vs[1], true).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert!(!g.is_alive(vs[1]));
        assert_eq!(g.num_vertices(), 2);
        g.check_invariants().unwrap();
    }

    /// Regression test: label buckets must never retain dead slots — a dead
    /// vertex surviving in `by_label` would leak into depth-0 candidate
    /// scans via `vertices_with_label` and fabricate matches.
    #[test]
    fn deleted_vertices_leave_label_buckets() {
        let mut g = DataGraph::new();
        let a = g.add_vertex(VLabel(1));
        let b = g.add_vertex(VLabel(1));
        let c = g.add_vertex(VLabel(1));
        g.insert_edge(a, b, ELabel(0)).unwrap();
        g.insert_edge(b, c, ELabel(0)).unwrap();

        g.delete_vertex(b, true).unwrap();
        assert_eq!(g.vertices_with_label(VLabel(1)).len(), 2);
        assert!(g
            .vertices_with_label(VLabel(1))
            .iter()
            .all(|&v| g.is_alive(v)));
        g.check_invariants().unwrap();

        // Revive the slot under a *different* label: it must appear in the
        // new bucket only, and never twice.
        g.ensure_vertex(b, VLabel(7));
        assert_eq!(g.vertices_with_label(VLabel(7)), &[b]);
        assert_eq!(g.vertices_with_label(VLabel(1)).len(), 2);
        g.check_invariants().unwrap();

        // Delete again from the new bucket; repeated churn stays clean.
        g.delete_vertex(b, false).unwrap();
        assert!(g.vertices_with_label(VLabel(7)).is_empty());
        for &v in g.vertices_with_label(VLabel(1)) {
            assert!(g.is_alive(v));
        }
        g.check_invariants().unwrap();
    }

    #[test]
    fn ensure_vertex_grows_with_dead_slots() {
        let mut g = DataGraph::new();
        g.ensure_vertex(VertexId(5), VLabel(1));
        assert_eq!(g.vertex_slots(), 6);
        assert_eq!(g.num_vertices(), 1);
        assert!(g.is_alive(VertexId(5)));
        assert!(!g.is_alive(VertexId(0)));
        // Re-ensuring is a no-op.
        g.ensure_vertex(VertexId(5), VLabel(2));
        assert_eq!(g.label(VertexId(5)), VLabel(1));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let (g, _) = labeled_path(5);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for (a, b, _) in edges {
            assert!(a < b);
        }
    }

    #[test]
    fn neighbors_filtered_respects_both_labels() {
        let mut g = DataGraph::new();
        let c = g.add_vertex(VLabel(0));
        let x = g.add_vertex(VLabel(1));
        let y = g.add_vertex(VLabel(1));
        let z = g.add_vertex(VLabel(2));
        g.insert_edge(c, x, ELabel(0)).unwrap();
        g.insert_edge(c, y, ELabel(1)).unwrap();
        g.insert_edge(c, z, ELabel(0)).unwrap();
        let hits: Vec<_> = g
            .neighbors_filtered(c, VLabel(1), Some(ELabel(0)))
            .collect();
        assert_eq!(hits, vec![x]);
        let any_elabel: Vec<_> = g.neighbors_filtered(c, VLabel(1), None).collect();
        assert_eq!(any_elabel, vec![x, y]);
    }

    #[test]
    fn neighbors_with_returns_exact_sorted_slices() {
        let mut g = DataGraph::new();
        let c = g.add_vertex(VLabel(0));
        // Neighbors across two vlabels and two elabels, inserted out of
        // order to exercise partition maintenance.
        let n_1_0a = g.add_vertex(VLabel(1));
        let n_1_0b = g.add_vertex(VLabel(1));
        let n_1_1 = g.add_vertex(VLabel(1));
        let n_2_0 = g.add_vertex(VLabel(2));
        g.insert_edge(c, n_2_0, ELabel(0)).unwrap();
        g.insert_edge(c, n_1_1, ELabel(1)).unwrap();
        g.insert_edge(c, n_1_0b, ELabel(0)).unwrap();
        g.insert_edge(c, n_1_0a, ELabel(0)).unwrap();

        assert_eq!(
            g.neighbors_with(c, VLabel(1), ELabel(0)),
            &[(n_1_0a, ELabel(0)), (n_1_0b, ELabel(0))]
        );
        assert_eq!(
            g.neighbors_with(c, VLabel(1), ELabel(1)),
            &[(n_1_1, ELabel(1))]
        );
        assert_eq!(
            g.neighbors_with(c, VLabel(2), ELabel(0)),
            &[(n_2_0, ELabel(0))]
        );
        assert!(g.neighbors_with(c, VLabel(2), ELabel(1)).is_empty());
        assert!(g.neighbors_with(c, VLabel(9), ELabel(0)).is_empty());

        let all_l1 = g.neighbors_with_vlabel(c, VLabel(1));
        assert_eq!(
            all_l1,
            &[(n_1_0a, ELabel(0)), (n_1_0b, ELabel(0)), (n_1_1, ELabel(1))]
        );
        assert_eq!(g.count_neighbors_with(c, VLabel(1), None), 3);
        assert_eq!(g.count_neighbors_with(c, VLabel(1), Some(ELabel(0))), 2);

        // The full list concatenates the groups in key order.
        assert_eq!(g.neighbors(c).len(), 4);
        assert!(g.has_edge_with(c, n_1_1, ELabel(1)));
        assert!(!g.has_edge_with(c, n_1_1, ELabel(0)));
        g.check_invariants().unwrap();

        // Removal keeps partitions tight (empty groups vanish).
        g.remove_edge(c, n_1_1).unwrap();
        assert!(g.neighbors_with(c, VLabel(1), ELabel(1)).is_empty());
        assert_eq!(g.count_neighbors_with(c, VLabel(1), None), 2);
        g.check_invariants().unwrap();
    }

    fn insert_ops(edges: &[(VertexId, VertexId, ELabel)]) -> Vec<(EdgeUpdate, bool)> {
        edges
            .iter()
            .map(|&(a, b, l)| (EdgeUpdate::new(a, b, l), true))
            .collect()
    }

    #[test]
    fn batch_insert_with_hot_vertex_matches_sequential() {
        let mut seq = DataGraph::new();
        let mut par = DataGraph::new();
        for i in 0..200 {
            seq.add_vertex(VLabel(i % 4));
            par.add_vertex(VLabel(i % 4));
        }
        let mut edges = Vec::new();
        for i in 0..199u32 {
            edges.push((VertexId(i), VertexId(i + 1), ELabel(i % 3)));
        }
        // A star: one endpoint run long enough for the merged rebuild.
        for i in 2..150u32 {
            edges.push((VertexId(0), VertexId(i), ELabel(1)));
        }
        for &(a, b, l) in &edges {
            seq.insert_edge(a, b, l).unwrap();
        }
        let mut changed = Vec::new();
        par.apply_edge_batch_with(&insert_ops(&edges), &mut changed, 2);
        assert!(changed.iter().all(|&c| c));
        assert_eq!(par.num_edges(), seq.num_edges());
        for &(a, b, l) in &edges {
            assert_eq!(par.edge_label(a, b), Some(l));
        }
        par.check_invariants().unwrap();
    }

    /// The hub runs of `parallel_apply_props` straddle the rule: on the
    /// 4096-long hubs a single op splices and a run of 510 merges.
    #[test]
    fn merge_rule_straddles_the_property_hubs() {
        assert!(!merge_pays(1, 4096));
        assert!(merge_pays(510, 4096));
        assert!(!merge_pays(1, 1 << 20));
        assert!(merge_pays(2, 1 << 15));
        assert!(!merge_pays(1 << 16, MERGE_MIN_LEN - 1));
        assert!(merge_pays(2, MERGE_MIN_LEN));
    }

    /// Leaves of [`hub_fixture`]'s hub.
    const HUB_LEAVES: u32 = 4200;

    /// Named vertices of [`hub_fixture`].
    struct HubIds {
        /// Unconnected leaf that sorts first in the hub's first group.
        first: VertexId,
        /// Unconnected leaf that sorts last in the hub's last group.
        last: VertexId,
        /// The three neighbors of the hub's elabel-7 group.
        small: [VertexId; 3],
        /// Isolated vertices labeled 0: before every hub group.
        low: [VertexId; 2],
        /// Isolated vertices labeled 9: after every hub group.
        high: [VertexId; 2],
    }

    /// Vertex 0 is a hub adjacent to leaves `1..=HUB_LEAVES` — leaf `i`
    /// labeled `1 + i % 3` over elabel `(i / 3) % 2`, six groups — except
    /// `first` and `last`, plus a three-entry elabel-7 group in the middle
    /// of its list. Its degree is above [`MERGE_MIN_LEN`].
    fn hub_fixture() -> (DataGraph, HubIds) {
        let key = |i: u32| (1 + i % 3, (i / 3) % 2);
        let first = (1..=HUB_LEAVES).find(|&i| key(i) == (1, 0)).unwrap();
        let last = (1..=HUB_LEAVES).rev().find(|&i| key(i) == (3, 1)).unwrap();
        let mut g = DataGraph::new();
        g.add_vertex(VLabel(0));
        for i in 1..=HUB_LEAVES {
            g.add_vertex(VLabel(key(i).0));
        }
        for i in (1..=HUB_LEAVES).filter(|&i| i != first && i != last) {
            g.insert_edge(VertexId(0), VertexId(i), ELabel(key(i).1))
                .unwrap();
        }
        let mut add = |l: u32| g.add_vertex(VLabel(l));
        let (low, high) = ([add(0), add(0)], [add(9), add(9)]);
        let small = [add(2), add(2), add(2)];
        for v in small {
            g.insert_edge(VertexId(0), v, ELabel(7)).unwrap();
        }
        assert!(g.degree(VertexId(0)) >= MERGE_MIN_LEN);
        let (first, last) = (VertexId(first), VertexId(last));
        (
            g,
            HubIds {
                first,
                last,
                small,
                low,
                high,
            },
        )
    }

    /// Apply `ops` — `(neighbor, elabel, insert)`, each naming the hub of
    /// [`hub_fixture`] — as one batch and op by op. The hub's run must take
    /// the merge, and the two graphs must agree exactly: flags, every
    /// adjacency list and partition index, counters, invariants. Returns
    /// the hub's list before and after, and whether the merge kept its
    /// entry buffer.
    fn merge_matches_replay(
        g0: &DataGraph,
        ops: &[(VertexId, ELabel, bool)],
    ) -> (AdjList, AdjList, bool) {
        let hub = VertexId(0);
        let batch: Vec<(EdgeUpdate, bool)> = ops
            .iter()
            .map(|&(n, el, ins)| (EdgeUpdate::new(hub, n, el), ins))
            .collect();
        assert!(merge_pays(batch.len(), g0.degree(hub)));
        let mut seq = g0.clone();
        let want: Vec<bool> = batch
            .iter()
            .map(|&(e, ins)| {
                if ins {
                    seq.insert_edge(e.src, e.dst, e.label).unwrap()
                } else {
                    seq.remove_edge(e.src, e.dst).unwrap().is_some()
                }
            })
            .collect();
        let mut g = g0.clone();
        g.adj[0].entries.reserve(ops.len());
        let buffer = g.adj[0].entries.as_ptr();
        let mut got = Vec::new();
        g.apply_edge_batch_with(&batch, &mut got, 1);
        assert_eq!(got, want);
        assert!(g.adj == seq.adj, "adjacency differs from per-op replay");
        assert_eq!(g.num_edges(), seq.num_edges());
        assert_eq!(g.max_edge_label(), seq.max_edge_label());
        g.check_invariants().unwrap();
        let kept = g.adj[0].entries.as_ptr() == buffer;
        (g0.adj[0].clone(), g.adj[0].clone(), kept)
    }

    #[test]
    fn merge_empties_a_group() {
        let (g, ids) = hub_fixture();
        let ops: Vec<_> = ids.small.iter().map(|&v| (v, ELabel(7), false)).collect();
        let (before, after, _) = merge_matches_replay(&g, &ops);
        assert_eq!(after.groups.len(), before.groups.len() - 1);
        assert_eq!(after.slice(VLabel(2), ELabel(7)), &[]);
    }

    #[test]
    fn merge_creates_groups_before_the_first_and_after_the_last() {
        let (g, ids) = hub_fixture();
        let ops = [
            (ids.high[1], ELabel(0), true),
            (ids.low[0], ELabel(3), true),
            (ids.high[0], ELabel(0), true),
            (ids.low[1], ELabel(0), true),
        ];
        let (before, after, _) = merge_matches_replay(&g, &ops);
        assert_eq!(after.groups.len(), before.groups.len() + 3);
        assert_eq!(
            after.entries[..2],
            [(ids.low[1], ELabel(0)), (ids.low[0], ELabel(3))]
        );
        assert_eq!(
            after.slice(VLabel(9), ELabel(0)),
            &[(ids.high[0], ELabel(0)), (ids.high[1], ELabel(0))]
        );
    }

    #[test]
    fn merge_relabels_a_neighbor() {
        let (g, _) = hub_fixture();
        // Leaf 3 sits in group (1, 1), leaf 5 in (3, 1).
        let (a, b) = (VertexId(3), VertexId(5));
        let ops = [
            (a, ELabel(1), false),
            (b, ELabel(1), false),
            (a, ELabel(0), true),
            (b, ELabel(4), true),
        ];
        let (before, after, _) = merge_matches_replay(&g, &ops);
        assert_eq!(after.find(a, VLabel(1)), Some(ELabel(0)));
        assert_eq!(after.find(b, VLabel(3)), Some(ELabel(4)));
        assert_eq!(after.groups.len(), before.groups.len() + 1);
    }

    #[test]
    fn merge_inserts_at_slot_zero_and_at_the_end() {
        let (g, ids) = hub_fixture();
        let ops = [(ids.last, ELabel(1), true), (ids.first, ELabel(0), true)];
        let (before, after, _) = merge_matches_replay(&g, &ops);
        assert_eq!(after.entries[0], (ids.first, ELabel(0)));
        assert_eq!(after.entries.last(), Some(&(ids.last, ELabel(1))));
        assert_eq!(after.entries[1..before.len() + 1], before.entries[..]);
    }

    #[test]
    fn merge_net_zero_run_leaves_the_tail_in_place() {
        let (g, ids) = hub_fixture();
        // Insert at slot 0, remove the entry at slot 5: nothing after it moves.
        let (v5, el5) = g.adj[0].entries[5];
        let ops = [(v5, el5, false), (ids.first, ELabel(0), true)];
        let (before, after, kept) = merge_matches_replay(&g, &ops);
        assert!(kept, "a net-zero merge reallocated the list");
        assert_eq!(after.len(), before.len());
        assert_eq!(after.entries[6..], before.entries[6..]);
        assert_eq!(after.entries[1..6], before.entries[..5]);
    }

    #[test]
    fn merge_applies_an_all_remove_run() {
        let (g, _) = hub_fixture();
        let ops: Vec<_> = g.adj[0]
            .entries
            .iter()
            .step_by(97)
            .map(|&(v, el)| (v, el, false))
            .collect();
        let (before, after, kept) = merge_matches_replay(&g, &ops);
        assert!(kept);
        assert_eq!(after.len(), before.len() - ops.len());
    }

    #[test]
    fn merge_insert_then_remove_is_a_no_op() {
        let (g, ids) = hub_fixture();
        let ops = [
            (ids.low[0], ELabel(2), true),
            (ids.low[0], ELabel(2), false),
        ];
        let (before, after, kept) = merge_matches_replay(&g, &ops);
        assert!(kept);
        assert_eq!(after, before);
    }

    /// A sorted list of `len` neighbors with even ids `0, 2, …`: neighbor
    /// `n` is labeled `n % 3` over elabel `(n / 2) % 2`, six groups in all.
    fn even_list(len: u32) -> AdjList {
        let run: Vec<Tagged> = (0..len)
            .map(|i| {
                (
                    i,
                    VertexId(0),
                    HalfOp::Insert {
                        n: VertexId(2 * i),
                        el: ELabel(i % 2),
                        nl: VLabel(2 * i % 3),
                    },
                )
            })
            .collect();
        let mut list = AdjList::default();
        list.apply_merged(&run, &mut Vec::new());
        list
    }

    /// Splice-vs-merge micro-measurement behind [`merge_pays`]: prints
    /// merge ÷ splice time for one run of `k` half-ops against a list of
    /// `len` entries, half inserts of absent neighbors and half removes of
    /// present ones at uniformly random slots. Each cell applies one run
    /// to each of enough freshly cloned lists to fill 32 MiB (at least
    /// 8), so lists start cold, each with room for `k` more entries; best
    /// of 7 per arm. Run with
    /// `cargo test --release -p csm-graph --lib merge_vs_splice -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing measurement; prints the merge ÷ splice table"]
    fn merge_vs_splice_table() {
        use std::time::{Duration, Instant};
        const LENS: [u32; 7] = [1_000, 2_000, 4_000, 6_000, 10_000, 30_000, 100_000];
        const KS: [usize; 7] = [2, 3, 4, 8, 16, 32, 256];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |m: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u32 % m
        };
        println!(
            "| list length | {} |",
            KS.map(|k| format!("k = {k}")).join(" | ")
        );
        println!("|---:|{}", "---:|".repeat(KS.len()));
        for len in LENS {
            let base = even_list(len);
            let copies = ((32 << 20) / (8 * len as usize)).clamp(8, 4096);
            let mut cells = Vec::new();
            for k in KS {
                let runs: Vec<Vec<Tagged>> = (0..copies)
                    .map(|_| {
                        (0..k as u32)
                            .map(|t| {
                                let n = 2 * next(len);
                                let op = if next(2) == 0 {
                                    HalfOp::Insert {
                                        n: VertexId(n + 1),
                                        el: ELabel(next(2)),
                                        nl: VLabel((n + 1) % 3),
                                    }
                                } else {
                                    HalfOp::Remove {
                                        n: VertexId(n),
                                        nl: VLabel(n % 3),
                                    }
                                };
                                (t, VertexId(0), op)
                            })
                            .collect()
                    })
                    .collect();
                let time = |merge: bool| {
                    let mut best = Duration::MAX;
                    for _ in 0..7 {
                        let mut lists = vec![base.clone(); copies];
                        for list in &mut lists {
                            list.entries.reserve(k);
                        }
                        let mut out = Vec::with_capacity(k);
                        let t0 = Instant::now();
                        for (list, run) in lists.iter_mut().zip(&runs) {
                            out.clear();
                            if merge {
                                list.apply_merged(run, &mut out);
                            } else {
                                list.apply_spliced(run, &mut out);
                            }
                        }
                        best = best.min(t0.elapsed());
                        std::hint::black_box(&lists);
                    }
                    best.as_secs_f64()
                };
                let (splice, merge) = (time(false), time(true));
                cells.push(format!("{:.2}", merge / splice));
            }
            println!("| {len} | {} |", cells.join(" | "));
        }
    }

    /// Regression: a bulk insert of 64+ edges once took `max_edge_label`
    /// from every edge in the batch, skipped ones included.
    #[test]
    fn batch_max_edge_label_counts_applied_inserts_only() {
        let mut g = DataGraph::new();
        for i in 0..80 {
            g.add_vertex(VLabel(i % 3));
        }
        let mut edges: Vec<_> = (0..64u32)
            .map(|i| (VertexId(i), VertexId(i + 1), ELabel(i % 4)))
            .collect();
        edges.push((VertexId(70), VertexId(70), ELabel(1000)));
        let mut seq = g.clone();
        for &(a, b, l) in &edges {
            let _ = seq.insert_edge(a, b, l);
        }
        let mut changed = Vec::new();
        g.apply_edge_batch_with(&insert_ops(&edges), &mut changed, 2);
        assert_eq!(changed.iter().filter(|&&c| c).count(), 64);
        assert_eq!(g.max_edge_label(), seq.max_edge_label());
        assert_eq!(g.max_edge_label(), 3);
    }
}
