//! Workload generators. Every input the service sees — initial graph,
//! standing queries and update stream — is a pure function of the seed,
//! and generation is linear in the stream length (edge membership is kept
//! in hash sets and position maps, never rescanned).

use csm_algos::AlgoKind;
use csm_datagen::{generate_queries, split_stream, DatasetKind, Scale, StreamConfig};
use csm_graph::{DataGraph, ELabel, EdgeUpdate, QVertexId, QueryGraph, Update, VLabel, VertexId};
use std::collections::{HashMap, HashSet};

/// Workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 3] = ["amazon-paper", "tenants-churn", "hub-ingest"];

/// One standing query to register.
#[derive(Debug)]
pub struct SessionDef {
    /// The query pattern.
    pub query: QueryGraph,
    /// Which of the paper's five algorithms hosts it.
    pub algo: AlgoKind,
    /// Inner-executor threads (1 = sequential session).
    pub threads: usize,
}

/// A generated workload: everything the service receives.
#[derive(Debug)]
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// The initial data graph.
    pub graph: DataGraph,
    /// Sessions in registration order.
    pub sessions: Vec<SessionDef>,
    /// The update stream.
    pub stream: Vec<Update>,
    /// Offered rate of the paced pass, in updates per second.
    pub paced_rate: f64,
    /// Updates (a stream prefix) the paced pass offers.
    pub paced_len: usize,
}

/// SplitMix64: small, fast and fully specified, so the same seed yields
/// byte-identical inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next() >> 32) * n as u64) >> 32) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Build workload `name` from `seed`; `nproc` sizes the parallel
/// sessions of `amazon-paper`. `None` for an unknown name.
pub fn build(name: &str, seed: u64, nproc: usize) -> Option<Workload> {
    match name {
        "amazon-paper" => Some(amazon_paper(seed, nproc)),
        "tenants-churn" => Some(tenants_churn(seed)),
        "hub-ingest" => Some(hub_ingest(seed)),
        _ => None,
    }
}

// ------------------------------------------------------------ amazon-paper

/// Size of the `amazon-paper` random-walk queries.
const AMAZON_QUERY_SIZE: usize = 6;
/// Query-extraction seed of `amazon-paper` (the repository's paper-cell
/// default for size-6 queries).
const AMAZON_QUERY_SEED: u64 = 0xC0FFEE ^ 6;
/// Paced-pass rate of `amazon-paper` (about a quarter of its saturated rate).
const AMAZON_RATE: f64 = 400.0;
/// Stream prefix the `amazon-paper` paced pass offers.
const AMAZON_PACED: usize = 3_000;

/// The Amazon stand-in at `Scale::M` with the paper's §5.1 stream: a 10 %
/// edge sample replayed as insertions, one size-6 random-walk query per
/// paper algorithm, each on the parallel inner executor. As in the paper,
/// the dataset and its queries are fixed; the seed draws the stream
/// sample (and with it the initial graph, which is the dataset minus the
/// sample).
fn amazon_paper(seed: u64, nproc: usize) -> Workload {
    let full = DatasetKind::Amazon.generate(Scale::M);
    let queries = generate_queries(
        &full,
        AMAZON_QUERY_SIZE,
        AlgoKind::ALL.len(),
        AMAZON_QUERY_SEED,
    );
    assert_eq!(
        queries.len(),
        AlgoKind::ALL.len(),
        "amazon graph yields queries"
    );
    let (graph, stream) = split_stream(
        &full,
        &StreamConfig {
            insert_fraction: 0.10,
            delete_fraction: 0.0,
            seed: Rng::new(seed, 3).next(),
        },
    );
    let sessions = queries
        .into_iter()
        .zip(AlgoKind::ALL)
        .map(|(query, algo)| SessionDef {
            query,
            algo,
            threads: nproc,
        })
        .collect();
    Workload {
        name: "amazon-paper",
        graph,
        sessions,
        stream: stream.updates().to_vec(),
        paced_rate: AMAZON_RATE,
        paced_len: AMAZON_PACED,
    }
}

// ----------------------------------------------------------- tenants-churn

const TENANT_VERTICES: usize = 20_000;
const TENANT_VLABELS: usize = 12;
const TENANT_ELABELS: usize = 4;
const TENANT_EDGES: usize = 100_000;
const TENANT_QUERIES: usize = 32;
const TENANT_SESSIONS: usize = 64;
const TENANT_QUERY_SIZE: usize = 8;
const TENANT_STREAM: usize = 50_000;
/// Paced-pass rate of `tenants-churn` (about a quarter of its saturated rate).
const TENANT_RATE: f64 = 20_000.0;
/// Stream prefix the `tenants-churn` paced pass offers.
const TENANT_PACED: usize = 25_000;

/// Multi-tenant serving: 64 sequential sessions over 32 distinct queries
/// (each registered twice), algorithms round-robin over the five, and a
/// stationary half-insert / half-delete stream.
fn tenants_churn(seed: u64) -> Workload {
    let mut rng = Rng::new(seed, 10);
    let labels: Vec<u32> = (0..TENANT_VERTICES)
        .map(|_| rng.below(TENANT_VLABELS) as u32)
        .collect();
    let mut edges = EdgeSet::default();
    while edges.len() < TENANT_EDGES {
        let (a, b) = (rng.below(TENANT_VERTICES), rng.below(TENANT_VERTICES));
        edges.insert(a as u32, b as u32, rng.below(TENANT_ELABELS) as u32);
    }
    let adj = adjacency(TENANT_VERTICES, edges.list.iter().copied());
    let queries = distinct_queries(&adj, &labels, TENANT_QUERY_SIZE, TENANT_QUERIES, &mut rng);
    let graph = graph_from(&labels, edges.list.iter().copied());

    let mut stream = Vec::with_capacity(TENANT_STREAM);
    // Each step first fixes its kind, then redraws endpoints until the
    // step applies, so the insert/delete mix is exactly the drawn one.
    for _ in 0..TENANT_STREAM {
        if rng.chance(0.5) {
            let l = rng.below(TENANT_ELABELS) as u32;
            let (a, b) = loop {
                let (a, b) = (rng.below(TENANT_VERTICES), rng.below(TENANT_VERTICES));
                if edges.insert(a as u32, b as u32, l) {
                    break (a as u32, b as u32);
                }
            };
            stream.push(insert(a, b, l));
        } else {
            let (a, b, l) = edges.remove_at(rng.below(edges.len()));
            stream.push(delete(a, b, l));
        }
    }
    let sessions = (0..TENANT_SESSIONS)
        .map(|i| SessionDef {
            query: queries[i % TENANT_QUERIES].clone(),
            algo: AlgoKind::ALL[i % AlgoKind::ALL.len()],
            threads: 1,
        })
        .collect();
    Workload {
        name: "tenants-churn",
        graph,
        sessions,
        stream,
        paced_rate: TENANT_RATE,
        paced_len: TENANT_PACED,
    }
}

// -------------------------------------------------------------- hub-ingest

const HUB_VERTICES: usize = 120_000;
/// Hubs are vertices `0..HUBS`.
pub const HUBS: usize = 8;
/// Initial neighbours per hub.
pub const HUB_DEGREE: usize = 100_000;
const HUB_BACKGROUND_EDGES: usize = 60_000;
/// Background vertex labels are `0..HUB_VLABELS`; hubs carry `HUB_VLABELS`.
const HUB_VLABELS: usize = 8;
const HUB_SESSIONS: usize = 8;
const HUB_QUERY_SIZE: usize = 6;
const HUB_STREAM: usize = 50_000;
/// Share of inserts (and of deletes) that touch a hub.
const HUB_SHARE: f64 = 0.85;
/// Paced-pass rate of `hub-ingest` (about a quarter of its saturated rate).
const HUB_RATE: f64 = 12_000.0;
/// Stream prefix the `hub-ingest` paced pass offers.
const HUB_PACED: usize = 25_000;

/// Ingest into long adjacency lists: 8 hubs of ~100 k neighbours with a
/// hub-only label, background edges elsewhere, 85 % of updates anchored
/// on a hub, and sequential sessions whose queries come from the hub-free
/// subgraph (so hub updates are label-safe for every session).
fn hub_ingest(seed: u64) -> Workload {
    let mut rng = Rng::new(seed, 20);
    let labels: Vec<u32> = (0..HUB_VERTICES)
        .map(|v| {
            if v < HUBS {
                HUB_VLABELS as u32
            } else {
                rng.below(HUB_VLABELS) as u32
            }
        })
        .collect();
    let mut background = EdgeSet::default();
    while background.len() < HUB_BACKGROUND_EDGES {
        let (a, b) = (non_hub(&mut rng), non_hub(&mut rng));
        background.insert(a, b, 0);
    }
    // Each hub's neighbours: a partial Fisher–Yates sample of non-hubs.
    let mut pool: Vec<u32> = (HUBS as u32..HUB_VERTICES as u32).collect();
    let mut hubs: Vec<HubAdj> = (0..HUBS)
        .map(|_| {
            for i in 0..HUB_DEGREE {
                let j = i + rng.below(pool.len() - i);
                pool.swap(i, j);
            }
            HubAdj::new(&pool[..HUB_DEGREE])
        })
        .collect();
    let adj = adjacency(HUB_VERTICES, background.list.iter().copied());
    let queries = distinct_queries(&adj, &labels, HUB_QUERY_SIZE, HUB_SESSIONS, &mut rng);

    let mut graph = graph_from(&labels, background.list.iter().copied());
    for (h, hub) in hubs.iter().enumerate() {
        // Inserting in adjacency order (label, id) appends to the hub's
        // sorted list, so building is linear in the hub degree.
        let mut nbrs = hub.list.clone();
        nbrs.sort_unstable_by_key(|&v| (labels[v as usize], v));
        for v in nbrs {
            graph
                .insert_edge(VertexId(h as u32), VertexId(v), ELabel(0))
                .expect("hub edge endpoints are alive");
        }
    }

    let mut stream = Vec::with_capacity(HUB_STREAM);
    // As for `tenants-churn`: fix the step's kind, then redraw endpoints
    // until it applies, so hubs gain and lose neighbours equally often.
    for _ in 0..HUB_STREAM {
        let on_hub = rng.chance(HUB_SHARE);
        if rng.chance(0.5) {
            if on_hub {
                let h = rng.below(HUBS);
                let v = loop {
                    let v = non_hub(&mut rng);
                    if hubs[h].insert(v) {
                        break v;
                    }
                };
                stream.push(insert(h as u32, v, 0));
            } else {
                let (a, b) = loop {
                    let (a, b) = (non_hub(&mut rng), non_hub(&mut rng));
                    if background.insert(a, b, 0) {
                        break (a, b);
                    }
                };
                stream.push(insert(a, b, 0));
            }
        } else if on_hub {
            let h = rng.below(HUBS);
            let i = rng.below(hubs[h].list.len());
            let v = hubs[h].remove_at(i);
            stream.push(delete(h as u32, v, 0));
        } else {
            let (a, b, l) = background.remove_at(rng.below(background.len()));
            stream.push(delete(a, b, l));
        }
    }
    let sessions = queries
        .into_iter()
        .enumerate()
        .map(|(i, query)| SessionDef {
            query,
            algo: AlgoKind::ALL[i % AlgoKind::ALL.len()],
            threads: 1,
        })
        .collect();
    Workload {
        name: "hub-ingest",
        graph,
        sessions,
        stream,
        paced_rate: HUB_RATE,
        paced_len: HUB_PACED,
    }
}

// ----------------------------------------------------------------- helpers

/// A uniformly drawn non-hub vertex of `hub-ingest`.
fn non_hub(rng: &mut Rng) -> u32 {
    (HUBS + rng.below(HUB_VERTICES - HUBS)) as u32
}

fn insert(a: u32, b: u32, l: u32) -> Update {
    Update::InsertEdge(EdgeUpdate::new(VertexId(a), VertexId(b), ELabel(l)))
}

fn delete(a: u32, b: u32, l: u32) -> Update {
    Update::DeleteEdge(EdgeUpdate::new(VertexId(a), VertexId(b), ELabel(l)))
}

/// Present undirected edges with O(1) insert, membership and removal of
/// the edge at a uniformly drawn position.
#[derive(Default)]
struct EdgeSet {
    list: Vec<(u32, u32, u32)>,
    pos: HashMap<(u32, u32), usize>,
}

impl EdgeSet {
    fn len(&self) -> usize {
        self.list.len()
    }

    /// Add `{a, b}` unless it is a self-loop or already present.
    fn insert(&mut self, a: u32, b: u32, l: u32) -> bool {
        let key = (a.min(b), a.max(b));
        if a == b || self.pos.contains_key(&key) {
            return false;
        }
        self.pos.insert(key, self.list.len());
        self.list.push((a, b, l));
        true
    }

    fn remove_at(&mut self, i: usize) -> (u32, u32, u32) {
        let e = self.list.swap_remove(i);
        self.pos.remove(&(e.0.min(e.1), e.0.max(e.1)));
        if let Some(&(a, b, _)) = self.list.get(i) {
            self.pos.insert((a.min(b), a.max(b)), i);
        }
        e
    }
}

/// One hub's neighbour set with O(1) membership and random removal.
struct HubAdj {
    list: Vec<u32>,
    pos: Vec<u32>,
}

impl HubAdj {
    const ABSENT: u32 = u32::MAX;

    fn new(nbrs: &[u32]) -> HubAdj {
        let mut pos = vec![Self::ABSENT; HUB_VERTICES];
        for (i, &v) in nbrs.iter().enumerate() {
            pos[v as usize] = i as u32;
        }
        HubAdj {
            list: nbrs.to_vec(),
            pos,
        }
    }

    fn insert(&mut self, v: u32) -> bool {
        if self.pos[v as usize] != Self::ABSENT {
            return false;
        }
        self.pos[v as usize] = self.list.len() as u32;
        self.list.push(v);
        true
    }

    fn remove_at(&mut self, i: usize) -> u32 {
        let v = self.list.swap_remove(i);
        self.pos[v as usize] = Self::ABSENT;
        if let Some(&w) = self.list.get(i) {
            self.pos[w as usize] = i as u32;
        }
        v
    }
}

/// Undirected adjacency lists `(neighbour, edge label)` of an edge list.
fn adjacency(n: usize, edges: impl Iterator<Item = (u32, u32, u32)>) -> Vec<Vec<(u32, u32)>> {
    let mut adj = vec![Vec::new(); n];
    for (a, b, l) in edges {
        adj[a as usize].push((b, l));
        adj[b as usize].push((a, l));
    }
    adj
}

fn graph_from(labels: &[u32], edges: impl Iterator<Item = (u32, u32, u32)>) -> DataGraph {
    let mut g = DataGraph::with_capacity(labels.len());
    for &l in labels {
        g.add_vertex(VLabel(l));
    }
    for (a, b, l) in edges {
        g.insert_edge(VertexId(a), VertexId(b), ELabel(l))
            .expect("generated edge endpoints are alive");
    }
    g
}

/// `count` pairwise-distinct connected queries of `size` vertices, each the
/// induced subgraph of a random walk (paper §5.1 extraction).
fn distinct_queries(
    adj: &[Vec<(u32, u32)>],
    labels: &[u32],
    size: usize,
    count: usize,
    rng: &mut Rng,
) -> Vec<QueryGraph> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0;
    while out.len() < count {
        attempts += 1;
        assert!(
            attempts < count * 10_000,
            "graph too sparse for {size}-vertex walks"
        );
        let Some(walk) = random_walk(adj, size, rng) else {
            continue;
        };
        let mut q = QueryGraph::new();
        for &v in &walk {
            q.add_vertex(VLabel(labels[v as usize]));
        }
        let mut sig: Vec<u32> = walk.iter().map(|&v| labels[v as usize]).collect();
        for (i, &a) in walk.iter().enumerate() {
            for (j, &b) in walk.iter().enumerate().skip(i + 1) {
                if let Some(&(_, l)) = adj[a as usize].iter().find(|&&(n, _)| n == b) {
                    q.add_edge(QVertexId::from(i), QVertexId::from(j), ELabel(l))
                        .expect("fresh query edge");
                    sig.extend([i as u32, j as u32, l]);
                }
            }
        }
        if seen.insert(sig) {
            out.push(q);
        }
    }
    out
}

/// The distinct vertices of one random walk from a random non-isolated
/// start, or `None` when the walk does not reach `size` vertices in time.
fn random_walk(adj: &[Vec<(u32, u32)>], size: usize, rng: &mut Rng) -> Option<Vec<u32>> {
    let start = rng.below(adj.len());
    if adj[start].is_empty() {
        return None;
    }
    let mut walk = vec![start as u32];
    let mut cur = start;
    for _ in 0..size * 60 {
        if walk.len() == size {
            return Some(walk);
        }
        let (next, _) = adj[cur][rng.below(adj[cur].len())];
        if !walk.contains(&next) {
            walk.push(next);
        }
        cur = next as usize;
    }
    (walk.len() == size).then_some(walk)
}

/// Canonical byte encoding of a workload's inputs (graph, queries with
/// their algorithm and threads, stream): equal bytes ⇔ equal inputs.
#[cfg(test)]
pub fn encode(w: &Workload) -> Vec<u8> {
    let mut out = Vec::new();
    let mut put = |x: u32| out.extend_from_slice(&x.to_le_bytes());
    put(w.graph.vertex_slots() as u32);
    for v in w.graph.vertices() {
        put(v.0);
        put(w.graph.label(v).0);
    }
    for (a, b, l) in w.graph.edges() {
        put(a.0);
        put(b.0);
        put(l.0);
    }
    for s in &w.sessions {
        put(s.algo as u32);
        put(s.threads as u32);
        for u in s.query.vertices() {
            put(s.query.label(u).0);
        }
        for e in s.query.edges() {
            put(e.u.0 as u32);
            put(e.v.0 as u32);
            put(e.label.0);
        }
    }
    for u in &w.stream {
        let (tag, e) = match u {
            Update::InsertEdge(e) => (1, e),
            Update::DeleteEdge(e) => (2, e),
            _ => unreachable!("generators emit edge updates only"),
        };
        put(tag);
        put(e.src.0);
        put(e.dst.0);
        put(e.label.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for name in NAMES {
            let a = encode(&build(name, 7, 2).unwrap());
            let b = encode(&build(name, 7, 2).unwrap());
            assert!(a == b, "{name}: seed 7 reproduced different inputs");
            let c = encode(&build(name, 8, 2).unwrap());
            assert!(a != c, "{name}: seeds 7 and 8 gave the same inputs");
        }
    }

    #[test]
    fn streams_are_valid_against_their_graph() {
        for name in NAMES {
            let w = build(name, 3, 2).unwrap();
            let mut g = w.graph.clone();
            for u in &w.stream {
                match *u {
                    Update::InsertEdge(e) => {
                        assert!(
                            g.insert_edge(e.src, e.dst, e.label).unwrap(),
                            "{name}: dup insert"
                        )
                    }
                    Update::DeleteEdge(e) => {
                        assert_eq!(
                            g.remove_edge(e.src, e.dst).unwrap(),
                            Some(e.label),
                            "{name}"
                        )
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    /// Hub degrees stay within ±2 % of their initial 100 k over the whole
    /// stream: inserts and deletes pick hubs with the same probability.
    #[test]
    fn hub_degrees_stay_in_band() {
        for seed in [1, 2] {
            let w = build("hub-ingest", seed, 2).unwrap();
            let mut deg: Vec<i64> = (0..HUBS)
                .map(|h| w.graph.degree(VertexId(h as u32)) as i64)
                .collect();
            let band = (HUB_DEGREE as f64 * 0.02) as i64;
            for d in &deg {
                assert_eq!(*d, HUB_DEGREE as i64);
            }
            for u in &w.stream {
                let (e, step) = match u {
                    Update::InsertEdge(e) => (e, 1),
                    Update::DeleteEdge(e) => (e, -1),
                    _ => unreachable!(),
                };
                for v in [e.src, e.dst] {
                    if v.index() < HUBS {
                        deg[v.index()] += step;
                        let drift = (deg[v.index()] - HUB_DEGREE as i64).abs();
                        assert!(drift <= band, "seed {seed}: hub {v:?} drifted by {drift}");
                    }
                }
            }
        }
    }

    #[test]
    fn hub_queries_avoid_the_hub_label() {
        let w = build("hub-ingest", 5, 2).unwrap();
        for s in &w.sessions {
            for u in s.query.vertices() {
                assert!(s.query.label(u).0 < HUB_VLABELS as u32);
            }
        }
    }

    #[test]
    fn tenant_queries_are_registered_twice() {
        let w = build("tenants-churn", 5, 2).unwrap();
        assert_eq!(w.sessions.len(), 2 * TENANT_QUERIES);
        for i in 0..TENANT_QUERIES {
            let (a, b) = (&w.sessions[i].query, &w.sessions[i + TENANT_QUERIES].query);
            assert_eq!(a.edges(), b.edges());
            assert_eq!(a.num_vertices(), TENANT_QUERY_SIZE);
        }
    }
}
