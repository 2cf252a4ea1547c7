//! `shards` — the multi-writer ingest benchmark: shard count × partitioner
//! × workload skew, measuring the batched single-writer-per-shard apply
//! pipeline (DESIGN.md §3.14) against the 1-shard serial baseline.
//!
//! Each cell builds a `ShardedGraph` from the same monolithic base graph,
//! pushes the same edge-only update stream through a session-free
//! `CsmService` (pure ingest: every update is vacuously label-safe, so the
//! whole stream commits through `apply_edge_batch`), and reports the
//! best-of-reps wall clock. The `speedup` column is the same workload's
//! 1-shard time over the cell's time. The 1-shard `ShardedGraph` keeps a
//! serial per-op branch (`insert_edge`/`remove_edge` per update), which is
//! the status quo here, so this is the update-apply throughput win of the
//! batched per-shard appliers over per-op splicing. `DataGraph` itself
//! applies batches with the same grouped applier as the shards.
//!
//! Correctness is asserted **in-cell** before any timing is recorded:
//! a two-session run over the cell's sharded graph must produce
//! per-session ΔM totals, service counters, and a final edge set
//! bit-identical to the monolithic `DataGraph` reference; the pure-ingest
//! run must land on the same counters and edge count; and the sharded
//! graph must pass `check_invariants` after absorbing the whole stream.
//!
//! Workloads:
//! * `dense` — hub-heavy: 8 hubs pre-loaded with [`HUB_DEGREE`] neighbors absorb
//!   ~85 % of the stream's anchor endpoints, so a serial per-op apply
//!   pays an `O(d)` splice per update while the grouped per-shard merge
//!   rebuilds each hot adjacency once per batch (the regime the pipeline
//!   is built for);
//! * `spread` — uniform endpoints over the whole vertex set: few ops per
//!   (vertex, batch), the pipeline's worst case.

use crate::report::{fmt_dur, fmt_speedup, Artifact, ShardCell, ShardsArtifact, Table};
use crate::runner::ExpOptions;
use csm_algos::AlgoKind;
use csm_graph::{
    DataGraph, ELabel, EdgeUpdate, GraphShard, QueryGraph, ShardConfig, ShardedGraph, Update,
    VLabel, VertexId,
};
use csm_service::{Backpressure, CsmService, ServiceConfig, ServiceReport, SessionSpec};
use paracosm_core::{NoopObserver, ParaCosmConfig};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Repetitions per cell; fastest wins.
const REPS: usize = 5;

/// Shard counts swept (1 is the serial baseline).
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Vertices in the base graph.
const NV: u32 = 80_000;

/// Hub vertices (ids `0..HUBS`) for the dense workload.
const HUBS: u64 = 8;

/// Pre-loaded neighbors per hub in the dense base graph.
const HUB_DEGREE: usize = 60_000;

/// Updates the ΔM-parity leg replays (sessions enumerate, so it runs a
/// prefix of the stream; the timed leg ingests the whole stream).
const PARITY_OPS: usize = 300;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Base graph: 6 vertex labels, 3 edge labels, bulk-loaded. Dense mode
/// pre-loads each hub with [`HUB_DEGREE`] neighbors so hub adjacency is
/// already long when the stream lands.
fn base_graph(seed: u64, dense: bool) -> DataGraph {
    let mut g = DataGraph::new();
    let mut rng = Lcg(seed);
    for i in 0..NV {
        g.add_vertex(VLabel(i % 6));
    }
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let mut batch: Vec<(EdgeUpdate, bool)> = Vec::new();
    let mut push = |seen: &mut HashSet<(u32, u32)>, a: u32, b: u32| {
        if a != b && seen.insert((a.min(b), a.max(b))) {
            let e = EdgeUpdate::new(VertexId(a), VertexId(b), ELabel((a + b) % 3));
            batch.push((e, true));
            true
        } else {
            false
        }
    };
    if dense {
        for h in 0..HUBS as u32 {
            let mut added = 0;
            while added < HUB_DEGREE {
                let n = rng.below(NV as u64) as u32;
                added += usize::from(push(&mut seen, h, n));
            }
        }
    }
    let background = if dense { 3000 } else { 8000 };
    let mut added = 0;
    while added < background {
        let (a, b) = (rng.below(NV as u64) as u32, rng.below(NV as u64) as u32);
        added += usize::from(push(&mut seen, a, b));
    }
    let mut changed = Vec::with_capacity(batch.len());
    g.apply_edge_batch_with(&batch, &mut changed, 2);
    assert!(
        changed.iter().all(|&c| c),
        "base batch is valid by construction"
    );
    g
}

/// Edge-only stream over distinct pairs: ~85 % inserts of new edges,
/// ~15 % deletes of base edges; the anchor endpoint is hub-weighted when
/// `dense`, the other endpoint uniform. Distinct pairs keep every
/// delete's stored label resolvable pre-run, so a session-free service
/// batches the entire stream (DESIGN.md §3.14).
fn ingest_stream(g: &DataGraph, seed: u64, len: usize, dense: bool) -> Vec<Update> {
    let mut rng = Lcg(seed ^ 0xA5A5_5A5A_1234_5678);
    let mut touched: HashSet<(u32, u32)> = HashSet::new();
    let base_edges: Vec<(VertexId, VertexId)> = g.edges().map(|(a, b, _)| (a, b)).collect();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        if rng.below(100) < 85 {
            let a = if dense && rng.below(100) < 85 {
                rng.below(HUBS) as u32
            } else {
                rng.below(NV as u64) as u32
            };
            let b = rng.below(NV as u64) as u32;
            let key = (a.min(b), a.max(b));
            if a == b || g.has_edge(VertexId(a), VertexId(b)) || !touched.insert(key) {
                continue;
            }
            out.push(Update::InsertEdge(EdgeUpdate::new(
                VertexId(a),
                VertexId(b),
                ELabel(rng.below(3) as u32),
            )));
        } else {
            let (a, b) = base_edges[rng.below(base_edges.len() as u64) as usize];
            if !touched.insert((a.0.min(b.0), a.0.max(b.0))) {
                continue;
            }
            out.push(Update::DeleteEdge(EdgeUpdate::new(a, b, ELabel(0))));
        }
    }
    out
}

/// Cheap standing queries for the ΔM-parity leg: a single-edge pattern
/// and a wedge, label-restricted so per-update enumeration stays small
/// even on the dense hubs.
fn parity_queries() -> Vec<QueryGraph> {
    let mut edge = QueryGraph::new();
    let a = edge.add_vertex(VLabel(0));
    let b = edge.add_vertex(VLabel(1));
    edge.add_edge(a, b, ELabel(1)).expect("valid query edge");
    let mut wedge = QueryGraph::new();
    let u = wedge.add_vertex(VLabel(2));
    let v = wedge.add_vertex(VLabel(3));
    let w = wedge.add_vertex(VLabel(4));
    wedge.add_edge(u, v, ELabel(0)).expect("valid query edge");
    wedge.add_edge(v, w, ELabel(2)).expect("valid query edge");
    vec![edge, wedge]
}

fn service_config(queue: usize) -> ServiceConfig {
    ServiceConfig {
        queue_capacity: queue,
        policy: Backpressure::Block,
        shared_index: false,
        flight_capacity: 1024,
    }
}

/// Pure-ingest run (no sessions): submit + drain, timed.
fn timed_ingest<G: GraphShard>(g: G, stream: &[Update]) -> (Duration, ServiceReport, u64, u64) {
    let mut svc = CsmService::new(g, service_config(stream.len() + 1)).expect("valid config");
    let t0 = Instant::now();
    for &u in stream {
        svc.submit(u).expect("well-formed stream");
    }
    svc.drain().expect("well-formed stream");
    let elapsed = t0.elapsed();
    let edges = svc.graph().num_edges() as u64;
    let report = svc.shutdown().expect("clean shutdown");
    let applied = report.shards.iter().map(|s| s.applied_ops).sum();
    (elapsed, report, edges, applied)
}

/// Two-session ΔM run over a stream prefix; returns the per-session
/// totals, service counters, and final sorted edge set.
#[allow(clippy::type_complexity)]
fn parity_run<G: GraphShard>(
    g: G,
    stream: &[Update],
    queries: &[QueryGraph],
) -> (Vec<(u64, u64)>, (u64, u64, u64), Vec<(u32, u32, u32)>) {
    let mut svc = CsmService::new(g, service_config(stream.len() + 1)).expect("valid config");
    for (i, q) in queries.iter().enumerate() {
        let algo = Box::new(AlgoKind::GraphFlow.build(svc.graph(), q));
        let spec =
            SessionSpec::new(q.clone(), ParaCosmConfig::sequential()).with_label(format!("p{i}"));
        svc.add_session(spec, algo, Box::new(NoopObserver))
            .expect("valid session");
    }
    for &u in stream {
        svc.submit(u).expect("well-formed stream");
    }
    svc.drain().expect("well-formed stream");
    let mut edges: Vec<(u32, u32, u32)> = svc
        .graph()
        .edges()
        .map(|(a, b, l)| (a.0, b.0, l.0))
        .collect();
    edges.sort_unstable();
    let report = svc.shutdown().expect("clean shutdown");
    let totals = report
        .sessions
        .iter()
        .map(|s| (s.stats.positives, s.stats.negatives))
        .collect();
    (
        totals,
        (report.processed, report.noops, report.invalid),
        edges,
    )
}

/// The multi-writer ingest sweep (see the module docs for methodology).
pub fn shards(opts: &ExpOptions) -> Table {
    let stream_len = if opts.stream_cap > 0 {
        opts.stream_cap
    } else {
        4000
    };

    let mut t = Table::new(
        "shards: multi-writer ingest, batched shard appliers vs 1-shard serial",
        &[
            "workload",
            "parts",
            "shards",
            "apply",
            "speedup",
            "applied",
            "processed",
            "edges",
        ],
    );
    t.note(format!(
        "pure-ingest drain over |V|={NV} (dense: {HUBS} hubs, ~{HUB_DEGREE} base degree, \
         ~85% anchor share); stream {stream_len} edge ops; best of {REPS} reps (1 warmup); \
         \u{394}M parity vs monolithic asserted in-cell ({PARITY_OPS}-op prefix, 2 sessions)"
    ));

    let queries = parity_queries();
    let mut worst_noise = 0.0f64;
    let mut cells: Vec<ShardCell> = Vec::new();
    for dense in [true, false] {
        let workload = if dense { "dense" } else { "spread" };
        let g = base_graph(opts.seed, dense);
        let stream = ingest_stream(&g, opts.seed, stream_len, dense);
        let parity_stream = &stream[..PARITY_OPS.min(stream.len())];

        // The monolithic reference both legs are checked against.
        let reference = parity_run(g.clone(), parity_stream, &queries);
        let (_, ref_ingest, ref_edges, _) = timed_ingest(g.clone(), &stream);

        let mut baseline_ns: Option<u64> = None;
        for &n in &SHARD_COUNTS {
            for partitioner in ["hash", "range"] {
                // 1-shard hash and range partition identically; keep one
                // baseline cell instead of a duplicate row.
                if n == 1 && partitioner == "range" {
                    continue;
                }
                let cfg = if partitioner == "range" {
                    ShardConfig::range_even(n, NV)
                } else {
                    ShardConfig::hash(n)
                };
                let sg0 = ShardedGraph::from_graph(cfg, &g).expect("valid shard config");

                // In-cell correctness oracle, before any timing: ΔM and
                // final state vs the monolithic reference, plus the
                // half-edge invariant after the full stream.
                let parity = parity_run(sg0.clone(), parity_stream, &queries);
                assert_eq!(
                    parity, reference,
                    "sharded \u{394}M diverged from monolithic ({workload}, {partitioner}, {n})"
                );
                let (_, ingest_report, edges_final, _) = timed_ingest(sg0.clone(), &stream);
                assert_eq!(
                    (ingest_report.processed, ingest_report.noops, edges_final),
                    (ref_ingest.processed, ref_ingest.noops, ref_edges),
                    "sharded ingest diverged from monolithic ({workload}, {partitioner}, {n})"
                );
                let mut full = sg0.clone();
                let mut changed = Vec::new();
                let ops: Vec<(EdgeUpdate, bool)> = stream
                    .iter()
                    .map(|u| match *u {
                        Update::InsertEdge(e) => (e, true),
                        Update::DeleteEdge(e) => (e, false),
                        _ => unreachable!("ingest stream is edge-only"),
                    })
                    .collect();
                full.apply_edge_batch(&ops, &mut changed);
                full.check_invariants().expect("half-edge invariant holds");

                // The timed leg, after one untimed warmup rep.
                let _ = timed_ingest(sg0.clone(), &stream);
                let mut best: Option<(Duration, u64, u64)> = None;
                let mut times: Vec<Duration> = Vec::new();
                for _ in 0..REPS {
                    let (dt, report, _, applied) = timed_ingest(sg0.clone(), &stream);
                    times.push(dt);
                    if best.as_ref().is_none_or(|b| dt < b.0) {
                        best = Some((dt, report.processed, applied));
                    }
                }
                let (dt, processed, applied) = best.expect("REPS >= 1");
                let lo = times.iter().min().copied().unwrap_or_default();
                let hi = times.iter().max().copied().unwrap_or_default();
                let cell_noise = if lo.is_zero() {
                    0.0
                } else {
                    (hi - lo).as_secs_f64() / lo.as_secs_f64() * 100.0
                };
                worst_noise = worst_noise.max(cell_noise);
                let apply_ns = dt.as_nanos() as u64;
                if n == 1 {
                    baseline_ns = Some(apply_ns);
                }
                let speedup =
                    baseline_ns.expect("1-shard cell runs first") as f64 / apply_ns.max(1) as f64;
                cells.push(ShardCell {
                    workload: workload.to_string(),
                    partitioner: partitioner.to_string(),
                    shards: n,
                    apply_ns,
                    speedup,
                    noise_pct: cell_noise,
                    applied_ops: applied,
                    processed,
                    edges_final,
                });
                t.row(vec![
                    workload.to_string(),
                    partitioner.to_string(),
                    n.to_string(),
                    fmt_dur(dt),
                    fmt_speedup(speedup),
                    applied.to_string(),
                    processed.to_string(),
                    edges_final.to_string(),
                ]);
            }
        }
    }
    t.note(format!(
        "noise floor: worst per-cell spread (max-min)/min across reps = {worst_noise:.1}%"
    ));
    t.artifact = Some(Artifact::Shards(ShardsArtifact {
        seed: opts.seed,
        stream_len,
        reps: REPS,
        noise_pct: worst_noise,
        cells,
    }));
    t
}
