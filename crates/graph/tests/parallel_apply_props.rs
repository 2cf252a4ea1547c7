//! Property tests: the ordered edge-batch applier
//! (`DataGraph::apply_edge_batch_with`) must be observationally identical
//! to applying each op in turn, at every worker width.

use csm_graph::{DataGraph, ELabel, EdgeUpdate, VLabel, VertexId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A raw generated op: `(src, dst, elabel, kind)`. Kinds: 0 insert,
/// 1 delete, 2 churn (insert → delete → re-insert under another label),
/// 3 duplicate insert.
type RawOp = (u32, u32, u32, u32);

/// `n` vertex slots labeled `i % 5`. Every seventh slot is a gap that is
/// never ensured (a dead slot), and every eleventh vertex is deleted with
/// its edges after the base edges land (a dead slot that once had edges).
fn build(n: u32, base: &[(u32, u32, u32)]) -> DataGraph {
    let mut g = DataGraph::new();
    for i in (0..n).filter(|i| i % 7 != 3) {
        g.ensure_vertex(VertexId(i), VLabel(i % 5));
    }
    for &(a, b, l) in base {
        let _ = g.insert_edge(VertexId(a % n), VertexId(b % n), ELabel(l));
    }
    for i in (0..n).filter(|i| i % 11 == 5 && i % 7 != 3) {
        g.delete_vertex(VertexId(i), true).unwrap();
    }
    g
}

/// Expand raw ops into an ordered batch. Endpoints range a little past
/// the slot table, so some ops name unknown vertices; small id ranges make
/// self-loops and repeated pairs common.
fn expand(n: u32, raw: &[RawOp]) -> Vec<(EdgeUpdate, bool)> {
    let mut ops = Vec::new();
    for &(a, b, l, kind) in raw {
        let (a, b) = (VertexId(a % (n + 3)), VertexId(b % (n + 3)));
        let e = EdgeUpdate::new(a, b, ELabel(l));
        match kind {
            0 => ops.push((e, true)),
            1 => ops.push((e, false)),
            2 => ops.extend([
                (e, true),
                (EdgeUpdate::new(b, a, ELabel(l)), false),
                (EdgeUpdate::new(a, b, ELabel(l + 1)), true),
            ]),
            _ => ops.extend([(e, true), (e, true)]),
        }
    }
    ops
}

/// Per-op reference: the flags `insert_edge` / `remove_edge` give.
fn replay(g: &mut DataGraph, ops: &[(EdgeUpdate, bool)]) -> Vec<bool> {
    ops.iter()
        .map(|&(e, insert)| {
            if insert {
                g.insert_edge(e.src, e.dst, e.label).unwrap_or(false)
            } else {
                g.remove_edge(e.src, e.dst).is_ok_and(|r| r.is_some())
            }
        })
        .collect()
}

fn sorted_edges(g: &DataGraph) -> Vec<(VertexId, VertexId, ELabel)> {
    let mut e: Vec<_> = g.edges().collect();
    e.sort_unstable();
    e
}

/// Apply `ops` to `g0` at widths 1, 2 and 4; every run must match the
/// per-op replay exactly.
fn check_against_replay(g0: &DataGraph, ops: &[(EdgeUpdate, bool)]) -> Result<(), TestCaseError> {
    let mut seq = g0.clone();
    let want = replay(&mut seq, ops);
    let want_edges = sorted_edges(&seq);

    for width in [1, 2, 4] {
        let mut g = g0.clone();
        let mut got = Vec::new();
        g.apply_edge_batch_with(ops, &mut got, width);
        prop_assert_eq!(&got, &want, "flags at width {}", width);
        prop_assert_eq!(sorted_edges(&g), want_edges.clone());
        prop_assert_eq!(g.num_edges(), seq.num_edges());
        prop_assert_eq!(g.max_edge_label(), seq.max_edge_label());
        g.check_invariants().unwrap();
    }

    Ok(())
}

/// List length of both hubs in [`hub_runs_straddle_the_merge_threshold`].
const HUB_DEGREE: u32 = 4096;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Mixed ordered batches — inserts, deletes, same-pair churn,
    /// duplicates, self-loops, dead and unknown endpoints — over a small
    /// graph with gapped and deleted vertex slots. The old insert-only
    /// and delete-only cases are kinds 0 and 1 of this input.
    #[test]
    fn batch_apply_equals_per_op_replay(
        n in 24u32..90,
        base in proptest::collection::vec((0u32..90, 0u32..90, 0u32..4), 0..200),
        raw in proptest::collection::vec((0u32..93, 0u32..93, 0u32..4, 0u32..4), 0..160),
    ) {
        let g0 = build(n, &base);
        check_against_replay(&g0, &expand(n, &raw))?;
    }

    /// Two hubs hold [`HUB_DEGREE`] neighbors each. One receives a run of
    /// one valid op, the other 510: with a 4096-long list those straddle
    /// the splice/merge rule, so one hub splices in place and the other
    /// takes the in-place merge, inside one batch. Random small-graph ops
    /// that avoid the hubs are interleaved.
    #[test]
    fn hub_runs_straddle_the_merge_threshold(
        seed in any::<u64>(),
        raw in proptest::collection::vec((0u32..60, 0u32..60, 0u32..4, 0u32..4), 0..120),
    ) {
        let leaves = 2 + HUB_DEGREE;
        let fresh = leaves + 600;
        let mut g0 = DataGraph::new();
        for i in 0..fresh {
            g0.ensure_vertex(VertexId(i), VLabel(if i < leaves { 1 } else { i % 5 }));
        }
        for hub in 0..2 {
            for leaf in 2..leaves {
                g0.insert_edge(VertexId(hub), VertexId(leaf), ELabel(hub)).unwrap();
            }
        }

        let mut x = seed | 1;
        let mut next = move |m: u32| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as u32 % m
        };
        let mut hub_ops = Vec::new();
        for (hub, k) in [(0u32, 1usize), (1, 510)] {
            let h = VertexId(hub);
            let mut run = Vec::new();
            while run.len() < k {
                // Each op names the hub and a live non-hub vertex, so every
                // one lands in the hub's run.
                let other = VertexId(2 + next(fresh - 2));
                let l = ELabel(next(4));
                match next(4) {
                    0 | 1 => run.push((EdgeUpdate::new(h, other, l), true)),
                    2 => run.push((EdgeUpdate::new(other, h, l), false)),
                    _ => run.extend([
                        (EdgeUpdate::new(h, other, l), true),
                        (EdgeUpdate::new(other, h, l), false),
                        (EdgeUpdate::new(h, other, ELabel(l.0 + 1)), true),
                    ]),
                }
            }
            run.truncate(k);
            hub_ops.push(run);
        }

        // Interleave both hub runs with small-graph ops on the fresh ids.
        let small: Vec<_> = expand(600, &raw)
            .into_iter()
            .map(|(e, ins)| {
                let shift = |v: VertexId| VertexId(v.0 + leaves);
                (EdgeUpdate::new(shift(e.src), shift(e.dst), e.label), ins)
            })
            .collect();
        let mut streams = [hub_ops[0].iter(), hub_ops[1].iter(), small.iter()];
        let mut ops = Vec::new();
        while ops.len() < 511 + small.len() {
            if let Some(&op) = streams[next(3) as usize].next() {
                ops.push(op);
            }
        }
        check_against_replay(&g0, &ops)?;
    }

    /// Mixed interleavings of single-edge ops keep every public counter
    /// consistent with a reference recomputation.
    #[test]
    fn counters_stay_consistent(
        n in 4u32..40,
        ops in proptest::collection::vec((0u32..40, 0u32..40, any::<bool>()), 0..120),
    ) {
        let mut g = DataGraph::new();
        for i in 0..n {
            g.add_vertex(VLabel(i % 3));
        }
        for (a, b, ins) in ops {
            let (a, b) = (VertexId(a % n), VertexId(b % n));
            if a == b { continue; }
            if ins {
                let _ = g.insert_edge(a, b, ELabel(0));
            } else {
                let _ = g.remove_edge(a, b);
            }
        }
        let recount = g.edges().count();
        prop_assert_eq!(recount, g.num_edges());
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }
}
