//! Batched-drain differential: a [`CsmService`] that drains a whole
//! admitted stream at once — label-safe edge runs through one
//! `apply_edge_batch` call, everything else serially — must report
//! per-update ΔM **bit-identical** to two references:
//!
//! * the same service fed one update per `drain()`, so every run holds a
//!   single update and takes the serial path;
//! * per session, a standalone sequential [`ParaCosm`] fed the same
//!   stream one update at a time (an update it rejects — a dead endpoint
//!   or a self-loop — is the service's invalid no-op).
//!
//! Streams are seeded and skewed (hub-heavy edge churn plus occasional
//! vertex inserts/deletes), and sessions are chosen so some updates are
//! label-safe for every session (batchable runs) while others force the
//! serial path mid-run — both paths and the boundary between them are
//! exercised in every cell.

use paracosm::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The per-update facts that must agree bit-for-bit across drains
/// (latency and span ids are timing/identity, not semantics).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Obs {
    index: u64,
    verdict: Option<Classified>,
    noop: bool,
    positives: u64,
    negatives: u64,
    skipped: bool,
}

#[derive(Clone, Default)]
struct Recorder(Arc<Mutex<Vec<Obs>>>);

impl StreamObserver for Recorder {
    fn on_update(&mut self, o: &UpdateObservation) {
        self.0.lock().unwrap().push(Obs {
            index: o.index,
            verdict: o.verdict,
            noop: o.noop,
            positives: o.positives,
            negatives: o.negatives,
            skipped: o.skipped,
        });
    }
}

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

const NV: u32 = 60;

fn base_graph(seed: u64) -> DataGraph {
    let mut g = DataGraph::new();
    let mut rng = Lcg(seed);
    for i in 0..NV {
        g.add_vertex(VLabel(i % 3));
    }
    for _ in 0..120 {
        let (a, b) = (rng.below(NV as u64) as u32, rng.below(NV as u64) as u32);
        if a != b {
            let _ = g.insert_edge(VertexId(a), VertexId(b), ELabel((a + b) % 2));
        }
    }
    g
}

/// A skewed update stream: most edge churn lands on a small hub set, a
/// sprinkling of vertex inserts/deletes breaks batchable runs, and edge
/// labels split between the session-relevant label 0 and the
/// label-safe-everywhere label 1.
fn skewed_stream(seed: u64, len: usize) -> Vec<Update> {
    let mut rng = Lcg(seed ^ 0x9E3779B97F4A7C15);
    let mut out = Vec::with_capacity(len);
    let mut next_vid = NV;
    for _ in 0..len {
        let roll = rng.below(100);
        let hubs = 8;
        let pick = |rng: &mut Lcg| {
            if rng.below(4) < 3 {
                rng.below(hubs) as u32
            } else {
                rng.below(NV as u64) as u32
            }
        };
        let a = pick(&mut rng);
        let b = pick(&mut rng);
        let e = EdgeUpdate::new(VertexId(a), VertexId(b), ELabel((rng.below(2)) as u32));
        out.push(match roll {
            0..=54 => Update::InsertEdge(e),
            55..=89 => Update::DeleteEdge(e),
            90..=95 => {
                next_vid += 1;
                Update::InsertVertex {
                    id: VertexId(next_vid),
                    label: VLabel(next_vid % 3),
                }
            }
            _ => Update::DeleteVertex {
                id: VertexId(rng.below(NV as u64) as u32),
            },
        });
    }
    out
}

fn triangle_query() -> QueryGraph {
    let mut q = QueryGraph::new();
    let u: Vec<_> = (0..3).map(|i| q.add_vertex(VLabel(i % 3))).collect();
    q.add_edge(u[0], u[1], ELabel(0)).unwrap();
    q.add_edge(u[1], u[2], ELabel(0)).unwrap();
    q.add_edge(u[0], u[2], ELabel(0)).unwrap();
    q
}

fn wedge_query() -> QueryGraph {
    let mut q = QueryGraph::new();
    let a = q.add_vertex(VLabel(0));
    let b = q.add_vertex(VLabel(1));
    let c = q.add_vertex(VLabel(2));
    q.add_edge(a, b, ELabel(0)).unwrap();
    q.add_edge(b, c, ELabel(0)).unwrap();
    q
}

/// What one service run leaves behind.
#[derive(Debug, PartialEq)]
struct Served {
    /// Per-session observation logs.
    logs: Vec<Vec<Obs>>,
    /// Final `(processed, noops, invalid)`.
    counts: (u64, u64, u64),
    /// Sorted final edge set.
    edges: Vec<(u32, u32, u32)>,
}

/// Run the multi-session service over `g` with one Symbi session per
/// query, draining after every update (`per_op`) or once at the end.
/// Also returns the `arg` of every Apply flight record, in order: the
/// op count of an edge apply, 0 for a vertex apply.
fn run_service(
    g: DataGraph,
    stream: &[Update],
    queries: &[QueryGraph],
    shared_index: bool,
    budget: Option<Duration>,
    per_op: bool,
) -> (Served, Vec<u64>) {
    let mut svc = CsmService::new(
        g,
        ServiceConfig {
            shared_index,
            flight_capacity: 1 << 14,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let mut logs = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let rec = Recorder::default();
        logs.push(Arc::clone(&rec.0));
        let algo = Box::new(AlgoKind::Symbi.build(svc.graph(), q));
        let mut spec =
            SessionSpec::new(q.clone(), ParaCosmConfig::sequential()).with_label(format!("s{qi}"));
        if let Some(b) = budget {
            spec = spec.with_budget(b);
        }
        svc.add_session(spec, algo, Box::new(rec)).unwrap();
    }
    for &u in stream {
        svc.submit(u).unwrap();
        if per_op {
            svc.drain().unwrap();
        }
    }
    svc.drain().unwrap();
    let edges: Vec<(u32, u32, u32)> = {
        let mut es: Vec<_> = svc
            .graph()
            .edges()
            .map(|(a, b, l)| (a.0, b.0, l.0))
            .collect();
        es.sort_unstable();
        es
    };
    let snap = svc.flight().snapshot();
    assert!(snap.dropped.iter().all(|&d| d == 0), "flight rings wrapped");
    let applies = snap.shards[0]
        .iter()
        .filter(|e| e.stage == FlightStage::Apply && e.begin)
        .map(|e| e.arg)
        .collect();
    let report = svc.shutdown().unwrap();
    let logs = logs.iter().map(|l| l.lock().unwrap().clone()).collect();
    let served = Served {
        logs,
        counts: (report.processed, report.noops, report.invalid),
        edges,
    };
    (served, applies)
}

/// Per-update `(positives, negatives)` of a standalone sequential engine
/// for `q` over `stream`; updates it rejects report `(0, 0)`.
fn standalone(g: &DataGraph, stream: &[Update], q: &QueryGraph) -> Vec<(u64, u64)> {
    let mut solo = ParaCosm::new(
        g.clone(),
        q.clone(),
        AlgoKind::Symbi.build(g, q),
        ParaCosmConfig::sequential(),
    );
    stream
        .iter()
        .map(|&u| match solo.process_update(u) {
            Ok(out) => (out.positives, out.negatives),
            Err(_) => (0, 0),
        })
        .collect()
}

/// The batched drain against both references; returns the batched run's
/// apply sizes.
fn check_against_references(
    g: &DataGraph,
    stream: &[Update],
    queries: &[QueryGraph],
    shared_index: bool,
    budget: Option<Duration>,
) -> Vec<u64> {
    let (batched, applies) = run_service(g.clone(), stream, queries, shared_index, budget, false);
    let (per_op, per_op_applies) =
        run_service(g.clone(), stream, queries, shared_index, budget, true);
    assert!(
        per_op_applies.iter().all(|&n| n <= 1),
        "a one-update drain must take the serial path"
    );
    assert_eq!(batched.counts, per_op.counts, "service counters diverged");
    assert_eq!(batched.edges, per_op.edges, "final graphs diverged");
    for (s, (log, q)) in batched.logs.iter().zip(queries).enumerate() {
        assert_eq!(
            log, &per_op.logs[s],
            "session {s}: per-update \u{394}M diverged from the per-op drain"
        );
        let served: Vec<(u64, u64)> = log.iter().map(|o| (o.positives, o.negatives)).collect();
        assert_eq!(
            served,
            standalone(g, stream, q),
            "session {s}: per-update \u{394}M diverged from standalone ParaCosm"
        );
    }
    applies
}

fn differential_cell(seed: u64, shared_index: bool) {
    let stream = skewed_stream(seed, 400);
    let applies = check_against_references(
        &base_graph(seed),
        &stream,
        &[triangle_query(), wedge_query()],
        shared_index,
        None,
    );
    assert!(
        applies.iter().any(|&n| n > 1),
        "seed {seed}: no run was batched"
    );
}

#[test]
fn batched_drain_matches_references_seeds_1_and_42() {
    for seed in [1, 42] {
        differential_cell(seed, true);
    }
}

#[test]
fn batched_drain_matches_references_seed_7() {
    differential_cell(7, true);
}

#[test]
fn batched_drain_matches_references_index_off() {
    differential_cell(11, false);
}

/// Pure-ingest batching (no sessions): every edge update is vacuously
/// label-safe, so whole runs flow through `apply_edge_batch` — the final
/// graph and counters must still match the per-op drain exactly.
#[test]
fn batched_pure_ingest_batches_whole_stream() {
    let stream = skewed_stream(99, 600);
    let (batched, applies) = run_service(base_graph(99), &stream, &[], true, None, false);
    let (per_op, _) = run_service(base_graph(99), &stream, &[], true, None, true);
    assert_eq!(batched, per_op);
    assert!(applies.iter().any(|&n| n > 1), "no run was batched");
}

/// The degradation ladder must behave identically under the batched
/// drain: a budgeted session over a hot stream sees the same enumeration
/// sequence in both drains and in a standalone run.
#[test]
fn batched_ladder_parity_with_budget() {
    let stream = skewed_stream(5, 300);
    check_against_references(
        &base_graph(5),
        &stream,
        &[triangle_query()],
        true,
        Some(Duration::from_secs(3600)),
    );
}

/// Runs close where the drain docs say they do: at an update some session
/// is not label-safe for, and at a deletion of a pair the run already
/// touched; a run left holding one update takes the serial path.
#[test]
fn runs_close_at_unsafe_updates_and_touched_deletes() {
    // Six vertices labelled 0,1,2,0,1,2; the triangle query needs
    // label-0 edges, so label-1 edges are label-safe for it.
    let mut g = DataGraph::new();
    let v: Vec<_> = (0..6).map(|i| g.add_vertex(VLabel(i % 3))).collect();
    g.insert_edge(v[0], v[1], ELabel(0)).unwrap();
    g.insert_edge(v[1], v[2], ELabel(0)).unwrap();
    let ins =
        |a: usize, b: usize, l: u32| Update::InsertEdge(EdgeUpdate::new(v[a], v[b], ELabel(l)));
    let del = |a: usize, b: usize| Update::DeleteEdge(EdgeUpdate::new(v[a], v[b], ELabel(0)));
    let stream = [
        ins(3, 4, 1),
        ins(4, 5, 1),
        ins(0, 2, 0), // closes the run: not label-safe, and creates matches
        ins(3, 5, 1),
        ins(0, 4, 1),
        del(3, 5), // closes the run: the pair was touched by it
        ins(1, 3, 1),
        del(0, 2), // closes a one-update run: serial, then itself serial
    ];
    for shared_index in [true, false] {
        let applies =
            check_against_references(&g, &stream, &[triangle_query()], shared_index, None);
        assert_eq!(applies, [2, 1, 2, 1, 1, 1], "index on: {shared_index}");
    }
    let (served, _) = run_service(g, &stream, &[triangle_query()], true, None, false);
    let found: Vec<(u64, u64)> = served.logs[0]
        .iter()
        .map(|o| (o.positives, o.negatives))
        .collect();
    assert_eq!(found[2], (1, 0), "the closing insert creates a triangle");
    assert_eq!(found[7], (0, 1), "and its deletion removes it");
}
