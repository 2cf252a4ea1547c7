//! `ingest` — the batched-drain benchmark: one `CsmService::drain()` per
//! update (per-op) against one `drain()` for the whole stream (batched),
//! on a hub-heavy and a uniform workload (DESIGN.md §3.14).
//!
//! Each cell pushes the same edge-only update stream through a
//! session-free `CsmService` over a clone of the same base graph (pure
//! ingest: every update is vacuously label-safe). The per-op arm drains
//! after every submit, so every run holds one update and takes the serial
//! `insert_edge`/`remove_edge` path; the batched arm submits the whole
//! stream and drains once, so it commits through one
//! `apply_edge_batch` call. Arms are interleaved rep by rep; each reports
//! its best-of-reps wall clock, and `speedup` is the workload's per-op time
//! over the cell's.
//!
//! Correctness is asserted **in-cell** before any timing is recorded:
//! a two-session run must produce per-session ΔM totals, service counters
//! and a final edge set bit-identical under both drains; the pure-ingest
//! runs must land on the same counters and edge set; and the batched
//! graph must pass `check_invariants` after absorbing the whole stream.
//!
//! Workloads:
//! * `dense` — hub-heavy: 8 hubs pre-loaded with [`HUB_DEGREE`] neighbors absorb
//!   ~85 % of the stream's anchor endpoints, so a serial per-op apply
//!   pays an `O(d)` splice per update while the batch applier rebuilds
//!   each hot adjacency once per batch (the regime batching is built for);
//! * `spread` — uniform endpoints over the whole vertex set: few ops per
//!   (vertex, batch), batching's worst case.

use crate::report::{fmt_dur, fmt_speedup, Artifact, IngestArtifact, IngestCell, Table};
use crate::runner::ExpOptions;
use csm_algos::AlgoKind;
use csm_graph::{DataGraph, ELabel, EdgeUpdate, QueryGraph, Update, VLabel, VertexId};
use csm_service::{Backpressure, CsmService, ServiceConfig, SessionSpec};
use paracosm_core::{NoopObserver, ParaCosmConfig};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Repetitions per cell; fastest wins.
const REPS: usize = 5;

/// The drain arms, per-op first (it is every workload's baseline).
const ARMS: [&str; 2] = ["per-op", "batched"];

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
/// batches the entire stream in one run (DESIGN.md §3.14).
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

fn service(g: DataGraph, stream_len: usize) -> CsmService {
    let cfg = ServiceConfig {
        queue_capacity: stream_len + 1,
        policy: Backpressure::Block,
        shared_index: false,
        flight_capacity: 1024,
    };
    CsmService::new(g, cfg).expect("valid config")
}

/// Submit `stream` and drain it: after every update (`per_op`) or once.
fn feed(svc: &mut CsmService, stream: &[Update], per_op: bool) {
    for &u in stream {
        svc.submit(u).expect("well-formed stream");
        if per_op {
            svc.drain().expect("well-formed stream");
        }
    }
    svc.drain().expect("well-formed stream");
}

fn sorted_edges(g: &DataGraph) -> Vec<(u32, u32, u32)> {
    let mut edges: Vec<_> = g.edges().map(|(a, b, l)| (a.0, b.0, l.0)).collect();
    edges.sort_unstable();
    edges
}

/// Pure-ingest run (no sessions), timed. Returns the wall clock, the
/// `(processed, noops)` counters and the final graph.
fn timed_ingest(
    g: DataGraph,
    stream: &[Update],
    per_op: bool,
) -> (Duration, (u64, u64), DataGraph) {
    let mut svc = service(g, stream.len());
    let t0 = Instant::now();
    feed(&mut svc, stream, per_op);
    let elapsed = t0.elapsed();
    let g = svc.graph().clone();
    let report = svc.shutdown().expect("clean shutdown");
    (elapsed, (report.processed, report.noops), g)
}

/// Two-session ΔM run over a stream prefix; returns the per-session
/// totals, service counters, and final sorted edge set.
#[allow(clippy::type_complexity)]
fn parity_run(
    g: DataGraph,
    stream: &[Update],
    queries: &[QueryGraph],
    per_op: bool,
) -> (Vec<(u64, u64)>, (u64, u64, u64), Vec<(u32, u32, u32)>) {
    let mut svc = service(g, stream.len());
    for (i, q) in queries.iter().enumerate() {
        let algo = Box::new(AlgoKind::GraphFlow.build(svc.graph(), q));
        let spec =
            SessionSpec::new(q.clone(), ParaCosmConfig::sequential()).with_label(format!("p{i}"));
        svc.add_session(spec, algo, Box::new(NoopObserver))
            .expect("valid session");
    }
    feed(&mut svc, stream, per_op);
    let edges = sorted_edges(svc.graph());
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

/// The batched-drain ingest sweep (see the module docs for methodology).
pub fn ingest(opts: &ExpOptions) -> Table {
    let stream_len = if opts.stream_cap > 0 {
        opts.stream_cap
    } else {
        4000
    };

    let mut t = Table::new(
        "ingest: pure-ingest drain, batched vs per-op",
        &[
            "workload",
            "arm",
            "apply",
            "speedup",
            "processed",
            "noops",
            "edges",
        ],
    );
    t.note(format!(
        "pure-ingest drain over |V|={NV} (dense: {HUBS} hubs, ~{HUB_DEGREE} base degree, \
         ~85% anchor share); stream {stream_len} edge ops; arms interleaved, best of {REPS} \
         reps (1 warmup); \u{394}M parity per-op vs batched asserted in-cell \
         ({PARITY_OPS}-op prefix, 2 sessions)"
    ));

    let queries = parity_queries();
    let mut worst_noise = 0.0f64;
    let mut cells: Vec<IngestCell> = Vec::new();
    for dense in [true, false] {
        let workload = if dense { "dense" } else { "spread" };
        let g = base_graph(opts.seed, dense);
        let stream = ingest_stream(&g, opts.seed, stream_len, dense);
        let parity_stream = &stream[..PARITY_OPS.min(stream.len())];

        // In-cell correctness oracle, before any timing: ΔM, counters and
        // final state agree across the drains, and the batched graph
        // holds its invariants after the full stream.
        assert_eq!(
            parity_run(g.clone(), parity_stream, &queries, false),
            parity_run(g.clone(), parity_stream, &queries, true),
            "batched \u{394}M diverged from per-op ({workload})"
        );
        let (_, per_op_counts, per_op_g) = timed_ingest(g.clone(), &stream, true);
        let (_, batched_counts, batched_g) = timed_ingest(g.clone(), &stream, false);
        assert_eq!(
            (batched_counts, sorted_edges(&batched_g)),
            (per_op_counts, sorted_edges(&per_op_g)),
            "batched ingest diverged from per-op ({workload})"
        );
        batched_g
            .check_invariants()
            .expect("graph invariants hold after the batched drain");
        let edges_final = batched_g.num_edges() as u64;

        // The timed legs: one untimed warmup each, then interleaved reps.
        let mut times: [Vec<Duration>; 2] = [Vec::new(), Vec::new()];
        for rep in 0..=REPS {
            for (arm, per_op) in [true, false].into_iter().enumerate() {
                let (dt, counts, _) = timed_ingest(g.clone(), &stream, per_op);
                assert_eq!(counts, per_op_counts, "counters drifted ({workload})");
                if rep > 0 {
                    times[arm].push(dt);
                }
            }
        }
        let mut baseline_ns: Option<u64> = None;
        for (arm, times) in ARMS.iter().zip(&times) {
            let lo = times.iter().min().copied().unwrap_or_default();
            let hi = times.iter().max().copied().unwrap_or_default();
            let cell_noise = if lo.is_zero() {
                0.0
            } else {
                (hi - lo).as_secs_f64() / lo.as_secs_f64() * 100.0
            };
            worst_noise = worst_noise.max(cell_noise);
            let apply_ns = lo.as_nanos() as u64;
            let base = *baseline_ns.get_or_insert(apply_ns);
            let speedup = base as f64 / apply_ns.max(1) as f64;
            let (processed, noops) = per_op_counts;
            cells.push(IngestCell {
                workload: workload.to_string(),
                arm: arm.to_string(),
                apply_ns,
                speedup,
                noise_pct: cell_noise,
                processed,
                noops,
                edges_final,
            });
            t.row(vec![
                workload.to_string(),
                arm.to_string(),
                fmt_dur(lo),
                fmt_speedup(speedup),
                processed.to_string(),
                noops.to_string(),
                edges_final.to_string(),
            ]);
        }
    }
    t.note(format!(
        "noise floor: worst per-cell spread (max-min)/min across reps = {worst_noise:.1}%"
    ));
    t.artifact = Some(Artifact::Ingest(IngestArtifact {
        seed: opts.seed,
        stream_len,
        reps: REPS,
        noise_pct: worst_noise,
        cells,
    }));
    t
}
