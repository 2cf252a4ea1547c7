//! Live cardinality catalog: incremental label-topology statistics that
//! price query edges without scanning the graph.
//!
//! The profiler plane ranks query edges by *observed* enumeration cost;
//! the catalog supplies the *expected* side of that comparison. Two
//! families of counts are maintained:
//!
//! * **label triples** — for every `(source vlabel, elabel, target
//!   vlabel)`, the number of directed half-edges realizing it. Divided by
//!   the source-label vertex count this is the average fan-out a
//!   candidate slice will have at a depth with one backward edge;
//! * **two-paths** — for every `((vlabel, elabel), center vlabel,
//!   (vlabel, elabel))` arm pair, the number of length-2 paths whose
//!   middle vertex carries the center label. Divided by the arm-label
//!   vertex counts this estimates the intersection width at a depth with
//!   two backward edges.
//!
//! ## Maintenance protocol
//!
//! Every count is a **sum of per-vertex contributions**: a vertex `v`
//! contributes its adjacency partition groups to the triple counts
//! (directed, source side) and its group pairs to the two-path counts
//! (center side). The update protocol is therefore subtract-then-add:
//!
//! 1. [`CardinalityCatalog::begin_touch`] every vertex whose adjacency
//!    the update will change — both endpoints for an edge op, `v ∪ N(v)`
//!    for a cascading vertex delete — *before* mutating the graph;
//! 2. apply the graph mutation (single op or a whole batch);
//! 3. [`CardinalityCatalog::commit_touch`] every still-alive touched
//!    vertex *after*.
//!
//! Because contributions are per-vertex and the touch set is a set, the
//! protocol is order-independent and exact under batched
//! application: subtract all, apply in any order, add all. The catalog
//! never reads edge state mid-batch. Cost per touched vertex is
//! `O(#groups²)` (group pairs), independent of degree — the partition
//! index is the unit of work, not the neighbor list.
//!
//! The analyzer's `profile-hot-path` rule confines `begin_touch` /
//! `commit_touch` call sites to this module and the service apply path:
//! the enumeration kernel must never pay catalog maintenance.

use crate::ids::{ELabel, VLabel, VertexId};
use crate::shard::GraphShard;
use std::collections::HashMap;

/// Directed triple key: `(source vlabel, elabel, target vlabel)`.
type TripleKey = (u32, u32, u32);

/// Two-path key: `(arm-a vlabel, arm-a elabel, center vlabel, arm-b
/// vlabel, arm-b elabel)` with the arms in canonical (sorted) order.
type PathKey = (u32, u32, u32, u32, u32);

#[inline]
fn canonical_path_key(a: (VLabel, ELabel), center: VLabel, b: (VLabel, ELabel)) -> PathKey {
    let ka = (a.0 .0, a.1 .0);
    let kb = (b.0 .0, b.1 .0);
    let (lo, hi) = if ka <= kb { (ka, kb) } else { (kb, ka) };
    (lo.0, lo.1, center.0, hi.0, hi.1)
}

/// Add `delta` to `map[key]`, dropping the entry when it returns to zero
/// so that two catalogs with equal counts compare equal regardless of
/// their mutation history.
#[inline]
fn bump<K: std::hash::Hash + Eq + Copy>(map: &mut HashMap<K, i64>, key: K, delta: i64) {
    let slot = map.entry(key).or_insert(0);
    *slot += delta;
    if *slot == 0 {
        map.remove(&key);
    }
}

/// Incremental per-label cardinality statistics over one data graph. See
/// the module docs for the counted families and the touch protocol.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CardinalityCatalog {
    /// Alive vertices per vertex label (indexed by label value).
    vertices: Vec<i64>,
    /// Directed half-edge counts per `(src vlabel, elabel, tgt vlabel)`.
    triples: HashMap<TripleKey, i64>,
    /// Length-2 path counts per canonical arm pair and center label.
    two_paths: HashMap<PathKey, i64>,
}

impl CardinalityCatalog {
    /// An empty catalog (matches an empty graph).
    pub fn new() -> Self {
        Self::default()
    }

    /// Alive vertices carrying `vl`.
    #[inline]
    pub fn vertex_count(&self, vl: VLabel) -> i64 {
        self.vertices.get(vl.index()).copied().unwrap_or(0)
    }

    /// Directed half-edges `src → tgt` over `el` (each undirected edge
    /// contributes one per direction, so a same-label edge counts twice
    /// under its own key).
    #[inline]
    pub fn triple_count(&self, src: VLabel, el: ELabel, tgt: VLabel) -> i64 {
        self.triples
            .get(&(src.0, el.0, tgt.0))
            .copied()
            .unwrap_or(0)
    }

    /// Length-2 paths with the given arms and center label (arm order
    /// irrelevant).
    #[inline]
    pub fn two_path_count(&self, a: (VLabel, ELabel), center: VLabel, b: (VLabel, ELabel)) -> i64 {
        self.two_paths
            .get(&canonical_path_key(a, center, b))
            .copied()
            .unwrap_or(0)
    }

    /// Number of distinct triple keys tracked.
    pub fn num_triples(&self) -> usize {
        self.triples.len()
    }

    /// Number of distinct two-path keys tracked.
    pub fn num_two_paths(&self) -> usize {
        self.two_paths.len()
    }

    /// Record a vertex coming alive with label `vl` (insert or revive).
    pub fn vertex_added(&mut self, vl: VLabel) {
        if self.vertices.len() <= vl.index() {
            self.vertices.resize(vl.index() + 1, 0);
        }
        self.vertices[vl.index()] += 1;
    }

    /// Record a vertex with label `vl` dying. Its adjacency contribution
    /// must already have been retired via [`CardinalityCatalog::begin_touch`].
    pub fn vertex_removed(&mut self, vl: VLabel) {
        if let Some(slot) = self.vertices.get_mut(vl.index()) {
            *slot -= 1;
        }
    }

    /// Retire `v`'s current contribution before its adjacency changes.
    /// `v` must be alive in `g` with its pre-update neighbor list.
    pub fn begin_touch<G: GraphShard>(&mut self, g: &G, v: VertexId) {
        self.fold_contribution(g, v, -1);
    }

    /// Re-admit `v`'s contribution after its adjacency changed. Skip for
    /// vertices the update killed.
    pub fn commit_touch<G: GraphShard>(&mut self, g: &G, v: VertexId) {
        self.fold_contribution(g, v, 1);
    }

    /// Fold `sign ×` the per-vertex contribution of `v` into the counts:
    /// one directed triple per partition group (source side), one
    /// two-path term per unordered group pair (center side).
    fn fold_contribution<G: GraphShard>(&mut self, g: &G, v: VertexId, sign: i64) {
        if !g.is_alive(v) {
            return;
        }
        let vl = g.label(v);
        // Group walk is O(#groups); collect so the pair loop below does
        // not re-walk the partition index per pair.
        let groups: Vec<(VLabel, ELabel, i64)> = g
            .neighbor_groups(v)
            .map(|(nl, el, n)| (nl, el, n as i64))
            .collect();
        for &(nl, el, n) in &groups {
            bump(&mut self.triples, (vl.0, el.0, nl.0), sign * n);
        }
        for (i, &(la, ea, na)) in groups.iter().enumerate() {
            // Same group: choose-2 within the run.
            bump(
                &mut self.two_paths,
                canonical_path_key((la, ea), vl, (la, ea)),
                sign * (na * (na - 1) / 2),
            );
            for &(lb, eb, nb) in &groups[i + 1..] {
                bump(
                    &mut self.two_paths,
                    canonical_path_key((la, ea), vl, (lb, eb)),
                    sign * na * nb,
                );
            }
        }
    }

    /// Recount everything from scratch — the differential-testing oracle
    /// and the cold-start path when a catalog attaches to a non-empty
    /// graph.
    pub fn rebuild<G: GraphShard>(&mut self, g: &G) {
        self.vertices.clear();
        self.triples.clear();
        self.two_paths.clear();
        for v in g.vertices() {
            self.vertex_added(g.label(v));
            self.commit_touch(g, v);
        }
    }

    /// Expected extensions per kernel invocation at a depth whose mapped
    /// backward neighbors carry labels `arms` (source vlabel, elabel) and
    /// whose target vertex label is `target`:
    ///
    /// * no backward edge → the target-label vertex count (depth-0 scan);
    /// * one arm → average directed fan-out, `triples / |V_src|`;
    /// * two or more arms → two-path density over the first two arms,
    ///   `two_paths / (|V_a| · |V_b|)` — additional arms only narrow the
    ///   intersection further, so this is a (cheap) upper estimate.
    pub fn estimate_extension(&self, arms: &[(VLabel, ELabel)], target: VLabel) -> f64 {
        match arms {
            [] => self.vertex_count(target) as f64,
            [(sl, el)] => {
                let src = self.vertex_count(*sl).max(1) as f64;
                self.triple_count(*sl, *el, target) as f64 / src
            }
            [a, b, ..] => {
                let na = self.vertex_count(a.0).max(1) as f64;
                let nb = self.vertex_count(b.0).max(1) as f64;
                let paths = self.two_path_count(*a, target, *b) as f64;
                if a == b {
                    // Canonical storage folded the ordered pair into a
                    // choose-2 count; unfold for the ordered estimate.
                    2.0 * paths / (na * nb)
                } else {
                    paths / (na * nb)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DataGraph;

    fn star() -> (DataGraph, VertexId) {
        // Center labeled 0; three leaves labeled 1 over elabel 0, two
        // leaves labeled 2 over elabel 1.
        let mut g = DataGraph::new();
        let c = g.add_vertex(VLabel(0));
        for _ in 0..3 {
            let v = g.add_vertex(VLabel(1));
            g.insert_edge(c, v, ELabel(0)).unwrap();
        }
        for _ in 0..2 {
            let v = g.add_vertex(VLabel(2));
            g.insert_edge(c, v, ELabel(1)).unwrap();
        }
        (g, c)
    }

    #[test]
    fn rebuild_counts_star_exactly() {
        let (g, _) = star();
        let mut cat = CardinalityCatalog::new();
        cat.rebuild(&g);
        assert_eq!(cat.vertex_count(VLabel(0)), 1);
        assert_eq!(cat.vertex_count(VLabel(1)), 3);
        assert_eq!(cat.vertex_count(VLabel(2)), 2);
        // Directed: center → leaves and leaves → center.
        assert_eq!(cat.triple_count(VLabel(0), ELabel(0), VLabel(1)), 3);
        assert_eq!(cat.triple_count(VLabel(1), ELabel(0), VLabel(0)), 3);
        assert_eq!(cat.triple_count(VLabel(0), ELabel(1), VLabel(2)), 2);
        assert_eq!(cat.triple_count(VLabel(0), ELabel(0), VLabel(2)), 0);
        // Two-paths centered at the hub: C(3,2)=3 same-arm, 3×2=6 mixed,
        // C(2,2)=1 for the label-2 pair.
        let arm1 = (VLabel(1), ELabel(0));
        let arm2 = (VLabel(2), ELabel(1));
        assert_eq!(cat.two_path_count(arm1, VLabel(0), arm1), 3);
        assert_eq!(cat.two_path_count(arm1, VLabel(0), arm2), 6);
        assert_eq!(cat.two_path_count(arm2, VLabel(0), arm1), 6);
        assert_eq!(cat.two_path_count(arm2, VLabel(0), arm2), 1);
    }

    #[test]
    fn touch_protocol_tracks_edge_ops() {
        let (mut g, c) = star();
        let mut cat = CardinalityCatalog::new();
        cat.rebuild(&g);

        let extra = g.add_vertex(VLabel(1));
        cat.vertex_added(VLabel(1));
        cat.begin_touch(&g, c);
        cat.begin_touch(&g, extra);
        g.insert_edge(c, extra, ELabel(0)).unwrap();
        cat.commit_touch(&g, c);
        cat.commit_touch(&g, extra);

        let mut oracle = CardinalityCatalog::new();
        oracle.rebuild(&g);
        assert_eq!(cat, oracle);

        cat.begin_touch(&g, c);
        cat.begin_touch(&g, extra);
        g.remove_edge(c, extra).unwrap();
        cat.commit_touch(&g, c);
        cat.commit_touch(&g, extra);
        oracle.rebuild(&g);
        assert_eq!(cat, oracle);
    }

    #[test]
    fn cascade_delete_touches_neighborhood() {
        let (mut g, c) = star();
        let mut cat = CardinalityCatalog::new();
        cat.rebuild(&g);

        let nbrs: Vec<VertexId> = g.neighbors(c).iter().map(|&(n, _)| n).collect();
        cat.begin_touch(&g, c);
        for &n in &nbrs {
            cat.begin_touch(&g, n);
        }
        g.delete_vertex(c, true).unwrap();
        cat.vertex_removed(VLabel(0));
        for &n in &nbrs {
            cat.commit_touch(&g, n);
        }

        let mut oracle = CardinalityCatalog::new();
        oracle.rebuild(&g);
        assert_eq!(cat, oracle);
        assert_eq!(cat.num_triples(), 0);
        assert_eq!(cat.num_two_paths(), 0);
    }

    #[test]
    fn estimates_match_star_shape() {
        let (g, _) = star();
        let mut cat = CardinalityCatalog::new();
        cat.rebuild(&g);
        // Depth 0 on label 1: three candidates.
        assert_eq!(cat.estimate_extension(&[], VLabel(1)), 3.0);
        // One arm from the (unique) center: fan-out 3 to label 1.
        assert_eq!(
            cat.estimate_extension(&[(VLabel(0), ELabel(0))], VLabel(1)),
            3.0
        );
        // Leaf → center: each label-1 leaf has exactly one center.
        assert_eq!(
            cat.estimate_extension(&[(VLabel(1), ELabel(0))], VLabel(0)),
            1.0
        );
        // Two distinct arms meeting at the center: 6 paths / (3 × 2).
        assert_eq!(
            cat.estimate_extension(&[(VLabel(1), ELabel(0)), (VLabel(2), ELabel(1))], VLabel(0)),
            1.0
        );
        // Equal arms: ordered pairs = 2 × C(3,2) = 6 over 3 × 3 sources.
        let e =
            cat.estimate_extension(&[(VLabel(1), ELabel(0)), (VLabel(1), ELabel(0))], VLabel(0));
        assert!((e - 6.0 / 9.0).abs() < 1e-12, "{e}");
    }
}
