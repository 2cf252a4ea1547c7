//! One pass = a fresh service set up over the workload's initial graph and
//! sessions, the whole stream pushed through it (saturated or paced), and
//! a shutdown. Everything goes through `csm-service`'s public API; the
//! traced variant swaps in the wrappers of [`crate::wrappers`].

use crate::spans::{Layer, Recorder, Span};
use crate::workloads::{SessionDef, Workload};
use crate::wrappers::{AlgoProbe, TimedAlgo, TimedGraph};
use csm_algos::{AlgoKind, AnyAlgorithm, CaLiG, GraphFlow, NewSP, Symbi, TurboFlux};
use csm_graph::{GraphShard, Update};
use csm_service::{Backpressure, CsmService, ServiceConfig, ServiceReport, SessionSpec};
use paracosm_core::{CsmAlgorithm, ParaCosm, ParaCosmConfig, StreamObserver, UpdateObservation};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How the stream is offered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Offer {
    /// As fast as the admission queue takes it.
    Saturated,
    /// Open loop at the workload's fixed rate, over its paced prefix.
    Paced,
}

impl Offer {
    /// How many stream updates (a prefix) the pass offers.
    pub fn len(self, w: &Workload) -> usize {
        match self {
            Offer::Saturated => w.stream.len(),
            Offer::Paced => w.paced_len.min(w.stream.len()),
        }
    }
}

/// Everything one pass measured.
pub struct PassResult {
    /// `CsmService::new` plus every `add_session`.
    pub setup: Duration,
    /// Per-session (positives, negatives) as delivered to the observers.
    pub counts: Vec<[u64; 2]>,
    /// Updates offered.
    pub offered: u64,
    /// Rejected + shed + enumeration-skipped + timed-out.
    pub failed: u64,
    /// First submit to the last session's delivery of the last update.
    pub elapsed_ns: u64,
    /// Per update: due time to the last session's delivery (paced only).
    pub latency_ns: Vec<u64>,
    /// Per update: how late the pacer submitted it (paced only).
    pub late_ns: Vec<u64>,
    /// Per update: due time to the start of the `drain` that processed it
    /// (paced only).
    pub wait_ns: Vec<u64>,
    /// Largest admission-queue depth seen before a `drain` (paced only).
    pub depth_max: usize,
    /// Per update: last minus first session delivery (traced only).
    pub spread_ns: Vec<u64>,
    /// Final service report.
    pub report: ServiceReport,
    /// Traced passes only.
    pub trace: Option<TraceResult>,
}

impl PassResult {
    /// Saturated throughput in updates per second.
    pub fn throughput(&self) -> f64 {
        self.offered as f64 / (self.elapsed_ns as f64 * 1e-9)
    }
}

/// What the wrappers and observers of a traced pass collected.
pub struct TraceResult {
    /// Every span of the pass, setup included.
    pub spans: Vec<Span>,
    /// Σ time spent inside delivery observers (sampled estimate).
    pub fanout_ns: u64,
    /// Graph operations applied.
    pub graph_ops: u64,
    /// One probe per session.
    pub probes: Vec<Arc<AlgoProbe>>,
}

/// The session configuration for `threads` inner-executor workers.
fn config(threads: usize) -> ParaCosmConfig {
    if threads > 1 {
        ParaCosmConfig::parallel(threads)
    } else {
        ParaCosmConfig::sequential()
    }
}

/// A fresh instance of `kind` whose ADS is built at registration.
fn unbuilt(kind: AlgoKind) -> AnyAlgorithm {
    match kind {
        AlgoKind::GraphFlow => AnyAlgorithm::GraphFlow(GraphFlow::new()),
        AlgoKind::TurboFlux => AnyAlgorithm::TurboFlux(TurboFlux::new()),
        AlgoKind::Symbi => AnyAlgorithm::Symbi(Symbi::new()),
        AlgoKind::CaLiG => AnyAlgorithm::CaLiG(CaLiG::new()),
        AlgoKind::NewSP => AnyAlgorithm::NewSP(NewSP::new()),
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        policy: Backpressure::Block,
        ..ServiceConfig::default()
    }
}

/// Delivery log shared by one pass's observers.
struct Log {
    epoch: Instant,
    counts: Vec<[u64; 2]>,
    skipped: u64,
    first: Vec<u64>,
    last: Vec<u64>,
    fanout_ns: u64,
}

/// Per-session ΔM observer. Only the last-registered session stamps
/// delivery times (it is the last to receive each update); in traced
/// passes the first session stamps too, and every observer closes its
/// session's enumeration window.
struct Delivery {
    log: Rc<RefCell<Log>>,
    pos: usize,
    first: bool,
    last: bool,
    trace: Option<(Arc<Recorder>, Arc<AlgoProbe>)>,
}

/// Traced observers time their own calls on every `FANOUT_SAMPLE`-th
/// update and scale up, so timing the fan-out does not dominate it.
const FANOUT_SAMPLE: u64 = 16;

impl StreamObserver for Delivery {
    fn on_update(&mut self, obs: &UpdateObservation) {
        let t0 = match &self.trace {
            Some((rec, _)) if obs.index.is_multiple_of(FANOUT_SAMPLE) => Some(rec.now()),
            _ => None,
        };
        let mut log = self.log.borrow_mut();
        let c = &mut log.counts[self.pos];
        c[0] += obs.positives;
        c[1] += obs.negatives;
        log.skipped += u64::from(obs.skipped);
        if self.first || self.last {
            let now = log.epoch.elapsed().as_nanos() as u64;
            let i = obs.index as usize;
            if self.first {
                log.first[i] = now;
            }
            if self.last {
                log.last[i] = now;
            }
        }
        let Some((rec, probe)) = &self.trace else {
            return;
        };
        if let Some((s, e)) = probe.take_window() {
            rec.record_for(Layer::Enum, s, e, obs.index);
        }
        if self.last {
            rec.set_update(obs.index + 1);
        }
        if let Some(t0) = t0 {
            let dt = (rec.now() - t0).saturating_sub(rec.clock_ns());
            log.fanout_ns += dt * FANOUT_SAMPLE;
        }
    }
}

/// Kills the process when a pass outlives its wall-clock cap, naming the
/// workload, instead of letting the benchmark hang.
pub struct Cap {
    done: Option<mpsc::Sender<()>>,
    watchdog: Option<thread::JoinHandle<()>>,
}

impl Cap {
    /// Arm a cap of `limit` for pass `what` of `workload`.
    pub fn arm(workload: &str, what: &str, limit: Duration) -> Cap {
        let (done, rx) = mpsc::channel::<()>();
        let msg = format!(
            "servebench: workload {workload}: {what} pass exceeded its {} s cap",
            limit.as_secs()
        );
        let watchdog = thread::spawn(move || {
            if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(limit) {
                eprintln!("{msg}");
                std::process::exit(3);
            }
        });
        Cap {
            done: Some(done),
            watchdog: Some(watchdog),
        }
    }
}

impl Drop for Cap {
    fn drop(&mut self) {
        drop(self.done.take());
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
    }
}

/// Register every session of `w` on a fresh service over `g`; returns the
/// service and the set-up time.
fn set_up<G: GraphShard>(
    g: G,
    sessions: &[SessionDef],
    threads: Option<usize>,
    mut algo: impl FnMut(usize, AnyAlgorithm) -> Box<dyn CsmAlgorithm<G>>,
    mut observer: impl FnMut(usize) -> Box<dyn StreamObserver>,
) -> (CsmService<G>, Duration) {
    let t0 = Instant::now();
    let mut svc = CsmService::new(g, service_config()).expect("service config is valid");
    for (i, s) in sessions.iter().enumerate() {
        let spec = SessionSpec::new(s.query.clone(), config(threads.unwrap_or(s.threads)));
        svc.add_session(spec, algo(i, unbuilt(s.algo)), observer(i))
            .expect("session spec is valid");
    }
    (svc, t0.elapsed())
}

/// Set up once and throw the service away: a set-up time sample.
pub fn setup_only(w: &Workload) -> Duration {
    let g = w.graph.clone();
    let (svc, setup) = set_up(
        g,
        &w.sessions,
        None,
        |_, a| Box::new(a),
        |_| Box::new(paracosm_core::NoopObserver),
    );
    drop(svc);
    setup
}

/// Build the per-session observers of one pass.
fn observers(
    log: &Rc<RefCell<Log>>,
    sessions: usize,
    trace: Option<(Arc<Recorder>, Vec<Arc<AlgoProbe>>)>,
) -> impl FnMut(usize) -> Box<dyn StreamObserver> {
    let log = Rc::clone(log);
    move |i| {
        Box::new(Delivery {
            log: Rc::clone(&log),
            pos: i,
            first: i == 0 && trace.is_some(),
            last: i + 1 == sessions,
            trace: trace
                .as_ref()
                .map(|(rec, probes)| (Arc::clone(rec), Arc::clone(&probes[i]))),
        })
    }
}

/// Run one pass of `w`. `threads` overrides every session's worker count;
/// `traced` swaps in the timing wrappers and records spans.
pub fn run(w: &Workload, offer: Offer, threads: Option<usize>, traced: bool) -> PassResult {
    let stream = &w.stream[..offer.len(w)];
    let n = stream.len();
    let sessions = w.sessions.len();
    let log = Rc::new(RefCell::new(Log {
        epoch: Instant::now(),
        counts: vec![[0; 2]; sessions],
        skipped: 0,
        first: vec![0; if traced { n } else { 0 }],
        last: vec![0; n],
        fanout_ns: 0,
    }));
    let (setup, driven, report, trace) = if traced {
        let rec = Arc::new(Recorder::default());
        let probes: Vec<Arc<AlgoProbe>> =
            (0..sessions).map(|_| Arc::new(AlgoProbe::new())).collect();
        let (mut svc, setup) = set_up(
            TimedGraph::new(w.graph.clone(), Arc::clone(&rec)),
            &w.sessions,
            threads,
            |i, a| Box::new(TimedAlgo::new(a, Arc::clone(&rec), Arc::clone(&probes[i]))),
            observers(&log, sessions, Some((Arc::clone(&rec), probes.clone()))),
        );
        let driven = drive(&mut svc, stream, offer, w.paced_rate, Some(&rec), &log);
        let graph_ops = svc.graph().ops();
        let report = svc.shutdown().expect("clean shutdown");
        let trace = TraceResult {
            spans: rec.take(),
            fanout_ns: log.borrow().fanout_ns,
            graph_ops,
            probes,
        };
        (setup, driven, report, Some(trace))
    } else {
        let (mut svc, setup) = set_up(
            w.graph.clone(),
            &w.sessions,
            threads,
            |_, a| Box::new(a),
            observers(&log, sessions, None),
        );
        let driven = drive(&mut svc, stream, offer, w.paced_rate, None, &log);
        let report = svc.shutdown().expect("clean shutdown");
        (setup, driven, report, None)
    };
    let log = log.borrow();
    let timed_out = report.sessions.iter().filter(|s| s.stats.timed_out).count() as u64;
    PassResult {
        setup,
        counts: log.counts.clone(),
        offered: n as u64,
        failed: report.rejected + report.shed + log.skipped + timed_out,
        elapsed_ns: log.last[n - 1] - driven.start_ns,
        latency_ns: driven
            .due_ns
            .iter()
            .zip(&log.last)
            .map(|(due, last)| last - due)
            .collect(),
        late_ns: driven.late_ns,
        wait_ns: driven.wait_ns,
        depth_max: driven.depth_max,
        spread_ns: log
            .last
            .iter()
            .zip(&log.first)
            .map(|(last, first)| last - first)
            .collect(),
        report,
        trace,
    }
}

/// What driving the stream recorded, in ns since the pass epoch.
struct Driven {
    /// Time of the first submit.
    start_ns: u64,
    /// Per update due time (paced only).
    due_ns: Vec<u64>,
    late_ns: Vec<u64>,
    wait_ns: Vec<u64>,
    depth_max: usize,
}

/// Push the stream through `svc`, saturated or paced.
fn drive<G: GraphShard>(
    svc: &mut CsmService<G>,
    stream: &[Update],
    offer: Offer,
    rate: f64,
    rec: Option<&Arc<Recorder>>,
    log: &Rc<RefCell<Log>>,
) -> Driven {
    let epoch = log.borrow().epoch;
    let now = || epoch.elapsed().as_nanos() as u64;
    let submit = |svc: &mut CsmService<G>, i: usize| {
        let top = rec.map(|r| r.open(Layer::Submit, i as u64));
        svc.submit(stream[i]).expect("well-formed update");
        if let (Some(r), Some(top)) = (rec, top) {
            r.close(top);
        }
    };
    let drain = |svc: &mut CsmService<G>, next: usize| {
        let top = rec.map(|r| r.open(Layer::Drain, next as u64));
        svc.drain().expect("well-formed stream");
        if let (Some(r), Some(top)) = (rec, top) {
            r.close(top);
        }
    };
    let n = stream.len();
    let mut d = Driven {
        start_ns: now(),
        due_ns: Vec::new(),
        late_ns: Vec::new(),
        wait_ns: Vec::new(),
        depth_max: 0,
    };
    if offer == Offer::Saturated {
        for i in 0..n {
            submit(svc, i);
        }
        drain(svc, n);
        return d;
    }
    let period = 1e9 / rate;
    d.due_ns = (0..n)
        .map(|i| d.start_ns + (i as f64 * period) as u64)
        .collect();
    d.late_ns.reserve(n);
    d.wait_ns.reserve(n);
    let mut next = 0;
    while next < n {
        let t = now();
        if t < d.due_ns[next] {
            wait_until(epoch, d.due_ns[next]);
            continue;
        }
        let first = next;
        while next < n && d.due_ns[next] <= t {
            submit(svc, next);
            d.late_ns.push(t - d.due_ns[next]);
            next += 1;
        }
        d.depth_max = d.depth_max.max(svc.queue().len());
        let drain_start = now();
        d.wait_ns
            .extend(d.due_ns[first..next].iter().map(|&due| drain_start - due));
        drain(svc, next);
    }
    d
}

/// Sleep most of the way to `due` (ns since `epoch`), then spin.
fn wait_until(epoch: Instant, due: u64) {
    const SPIN_NS: u64 = 150_000;
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        if now >= due {
            return;
        }
        if due - now > SPIN_NS {
            thread::sleep(Duration::from_nanos(due - now - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The correctness reference: per session, (positives, negatives) of a
/// standalone sequential `ParaCosm` replay of its query over the stream,
/// without the service or its shared index — over the whole stream and
/// over the paced prefix.
pub struct Reference {
    /// After the whole stream.
    pub full: Vec<[u64; 2]>,
    /// After the paced prefix.
    pub paced: Vec<[u64; 2]>,
}

impl Reference {
    /// Replay every session of `w`.
    pub fn replay(w: &Workload) -> Reference {
        let cut = Offer::Paced.len(w);
        let (full, paced) = w
            .sessions
            .iter()
            .map(|s| {
                let mut p = ParaCosm::new(
                    w.graph.clone(),
                    s.query.clone(),
                    unbuilt(s.algo),
                    ParaCosmConfig::sequential(),
                );
                let mut at_cut = [0; 2];
                let mut total = [0; 2];
                for (i, &u) in w.stream.iter().enumerate() {
                    if i == cut {
                        at_cut = total;
                    }
                    let out = p.process_update(u).expect("well-formed update");
                    total[0] += out.positives;
                    total[1] += out.negatives;
                }
                if cut == w.stream.len() {
                    at_cut = total;
                }
                (total, at_cut)
            })
            .unzip();
        Reference { full, paced }
    }

    /// The counts a pass offering `offer` must reproduce.
    pub fn counts(&self, offer: Offer) -> &[[u64; 2]] {
        match offer {
            Offer::Saturated => &self.full,
            Offer::Paced => &self.paced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Rng;
    use csm_graph::{DataGraph, ELabel, EdgeUpdate, QueryGraph, VLabel, VertexId};

    /// A small mixed workload: triangles and paths over a dense random
    /// graph, inserts and deletes, two threads on one session.
    fn small() -> Workload {
        let mut rng = Rng::new(11, 0);
        let mut graph = DataGraph::new();
        for _ in 0..60 {
            graph.add_vertex(VLabel(rng.below(2) as u32));
        }
        let mut present = Vec::new();
        while present.len() < 240 {
            let (a, b) = (rng.below(60) as u32, rng.below(60) as u32);
            if a != b
                && graph
                    .insert_edge(VertexId(a), VertexId(b), ELabel(0))
                    .unwrap()
            {
                present.push((a, b));
            }
        }
        let mut stream = Vec::new();
        let mut shadow = graph.clone();
        while stream.len() < 300 {
            if rng.chance(0.5) {
                let (a, b) = (rng.below(60) as u32, rng.below(60) as u32);
                if a != b
                    && shadow
                        .insert_edge(VertexId(a), VertexId(b), ELabel(0))
                        .unwrap()
                {
                    present.push((a, b));
                    let e = EdgeUpdate::new(VertexId(a), VertexId(b), ELabel(0));
                    stream.push(Update::InsertEdge(e));
                }
            } else {
                let (a, b) = present.swap_remove(rng.below(present.len()));
                shadow.remove_edge(VertexId(a), VertexId(b)).unwrap();
                let e = EdgeUpdate::new(VertexId(a), VertexId(b), ELabel(0));
                stream.push(Update::DeleteEdge(e));
            }
        }
        let triangle = {
            let mut q = QueryGraph::new();
            let u: Vec<_> = (0..3).map(|i| q.add_vertex(VLabel(i % 2))).collect();
            q.add_edge(u[0], u[1], ELabel(0)).unwrap();
            q.add_edge(u[1], u[2], ELabel(0)).unwrap();
            q.add_edge(u[0], u[2], ELabel(0)).unwrap();
            q
        };
        let path = {
            let mut q = QueryGraph::new();
            let u: Vec<_> = (0..4).map(|_| q.add_vertex(VLabel(0))).collect();
            for i in 0..3 {
                q.add_edge(u[i], u[i + 1], ELabel(0)).unwrap();
            }
            q
        };
        let sessions = AlgoKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &algo)| SessionDef {
                query: if i % 2 == 0 {
                    triangle.clone()
                } else {
                    path.clone()
                },
                algo,
                threads: if i == 0 { 2 } else { 1 },
            })
            .collect();
        Workload {
            name: "small",
            graph,
            sessions,
            stream,
            paced_rate: 50_000.0,
            paced_len: 200,
        }
    }

    /// Per-update ΔM of every session, recorded by a plain observer.
    type PerUpdate = Rc<RefCell<Vec<Vec<(u64, u64, u64)>>>>;

    struct Record(PerUpdate, usize);

    impl StreamObserver for Record {
        fn on_update(&mut self, o: &UpdateObservation) {
            self.0.borrow_mut()[self.1].push((o.index, o.positives, o.negatives));
        }
    }

    fn report_counters(r: &ServiceReport) -> Vec<u64> {
        let mut v = vec![
            r.admitted,
            r.processed,
            r.shed,
            r.rejected,
            r.noops,
            r.invalid,
        ];
        for s in &r.sessions {
            let c = &s.stats.classifier;
            v.extend([
                s.stats.positives,
                s.stats.negatives,
                s.stats.updates,
                c.total,
                c.safe_label,
                c.safe_degree,
                c.safe_ads,
                c.unsafe_count,
                c.noops,
            ]);
        }
        v
    }

    #[test]
    fn wrappers_are_transparent() {
        let w = small();
        let n = w.sessions.len();
        let plain: PerUpdate = Rc::new(RefCell::new(vec![Vec::new(); n]));
        let (mut svc, _) = set_up(
            w.graph.clone(),
            &w.sessions,
            None,
            |_, a| Box::new(a),
            |i| Box::new(Record(Rc::clone(&plain), i)),
        );
        for &u in &w.stream {
            svc.submit(u).unwrap();
        }
        svc.drain().unwrap();
        let plain_edges: Vec<_> = svc.graph().edges().collect();
        let plain_report = svc.shutdown().unwrap();

        let rec = Arc::new(Recorder::default());
        let probe = Arc::new(AlgoProbe::new());
        let wrapped: PerUpdate = Rc::new(RefCell::new(vec![Vec::new(); n]));
        let (mut svc, _) = set_up(
            TimedGraph::new(w.graph.clone(), Arc::clone(&rec)),
            &w.sessions,
            None,
            |_, a| Box::new(TimedAlgo::new(a, Arc::clone(&rec), Arc::clone(&probe))),
            |i| Box::new(Record(Rc::clone(&wrapped), i)),
        );
        for &u in &w.stream {
            svc.submit(u).unwrap();
        }
        svc.drain().unwrap();
        let wrapped_edges: Vec<_> = svc.graph().edges().collect();
        assert_eq!(svc.graph().ops(), w.stream.len() as u64);
        let wrapped_report = svc.shutdown().unwrap();

        assert_eq!(*plain.borrow(), *wrapped.borrow(), "per-update ΔM differs");
        assert!(plain
            .borrow()
            .iter()
            .any(|s| s.iter().any(|&(_, p, m)| p + m > 0)));
        assert_eq!(plain_edges, wrapped_edges, "final edge sets differ");
        assert_eq!(
            report_counters(&plain_report),
            report_counters(&wrapped_report)
        );
        assert!(probe.tasks.load(std::sync::atomic::Ordering::Relaxed) > 0);
    }

    #[test]
    fn passes_match_the_reference_replay() {
        let w = small();
        let want = Reference::replay(&w);
        assert!(want.full.iter().any(|c| c[0] > 0) && want.full.iter().any(|c| c[1] > 0));
        assert_ne!(want.full, want.paced);
        for traced in [false, true] {
            for offer in [Offer::Saturated, Offer::Paced] {
                let r = run(&w, offer, None, traced);
                assert_eq!(
                    r.counts,
                    want.counts(offer),
                    "traced={traced} offer={offer:?}"
                );
                assert_eq!(r.offered as usize, offer.len(&w));
                assert_eq!(r.failed, 0);
                assert_eq!(r.trace.is_some(), traced);
            }
        }
    }
}
