//! Served-pipeline benchmark of `csm-service`: drives `CsmService` through
//! its public API on one generated workload and prints, as the last line
//! of standard output, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! See README.md in this directory for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload amazon-paper --seed 1 --seconds 10 --trace 0
//! ```

mod passes;
mod spans;
mod workloads;
mod wrappers;

use passes::{Cap, Offer, PassResult, Reference};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Workload;

/// Wall-clock cap of one pass (set-up, stream and shutdown).
const PASS_CAP: Duration = Duration::from_secs(60);
/// Set-up samples taken per run at the least.
const MIN_SETUPS: usize = 9;
/// Where traced runs write their spans, relative to the working directory.
const SPAN_DIR: &str = "servebench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: servebench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok(),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `v`, which it sorts.
fn percentile(v: &mut [u64], p: f64) -> u64 {
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run one capped pass and book it in `run` (its counts are held to the
/// reference once the run is over).
fn pass(
    w: &Workload,
    run: &mut Run,
    what: &'static str,
    offer: Offer,
    threads: Option<usize>,
    traced: bool,
) -> PassResult {
    let r = {
        let _cap = Cap::arm(w.name, what, PASS_CAP);
        passes::run(w, offer, threads, traced)
    };
    run.setups.push(r.setup.as_secs_f64());
    run.attempted += r.offered;
    run.failed += r.failed;
    run.checks.push((what, offer, r.counts.clone()));
    r
}

/// The untraced run: alternate saturated and paced passes until `seconds`
/// have been measured. Each metric is the median over the run's passes
/// (of the pass's throughput, or of the pass's latency percentile), so
/// one pass disturbed by the host does not decide the run.
fn untraced(w: &Workload, seconds: u64) -> Run {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut run = Run::default();
    let (mut throughput, mut p50, mut p99, mut late99) = (vec![], vec![], vec![], vec![]);
    let us = |ns: u64| ns as f64 / 1e3;
    loop {
        let s = pass(w, &mut run, "saturated", Offer::Saturated, None, false);
        throughput.push(s.throughput());
        let mut p = pass(w, &mut run, "paced", Offer::Paced, None, false);
        p50.push(us(percentile(&mut p.latency_ns, 50.0)));
        p99.push(us(percentile(&mut p.latency_ns, 99.0)));
        late99.push(us(percentile(&mut p.late_ns, 99.0)));
        eprintln!(
            "servebench: saturated {:.1} ups; paced p50 {:.1} us, p99 {:.1} us, pacer late p99 {:.1} us",
            s.throughput(),
            p50[p50.len() - 1],
            p99[p99.len() - 1],
            late99[late99.len() - 1],
        );
        if Instant::now() >= deadline {
            break;
        }
    }
    while run.setups.len() < MIN_SETUPS {
        run.setups.push(passes::setup_only(w).as_secs_f64());
    }
    // The p99 is reported but not a gated metric: on a shared host its
    // run-to-run spread follows host stalls (see README.md).
    eprintln!(
        "servebench: {} saturated passes of {} updates, {} paced passes of {} updates \
         at {} updates/s; medians over passes: latency p99 {:.1} us, pacer late p99 {:.1} us",
        throughput.len(),
        w.stream.len(),
        p50.len(),
        Offer::Paced.len(w),
        w.paced_rate,
        median(&mut p99),
        median(&mut late99),
    );
    run.metrics = vec![
        metric("throughput_ups", median(&mut throughput), "1/s"),
        metric("latency_p50_us", median(&mut p50), "us"),
        metric("setup_s", median(&mut run.setups), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    run
}

/// The traced run: untraced and traced saturated passes alternate until
/// `seconds` have been measured (for the tracing overhead), one pass with
/// the other inner-executor width (for `inner.speedup`), one traced paced
/// pass (for the queue and fan-out spread) and one untraced paced pass
/// (for the end-to-end p99 kept in the ledger). Each layer metric of the
/// saturated passes is the median over the traced passes; the spans of
/// the last traced saturated pass and of the paced pass are written out.
fn traced(w: &Workload, seconds: u64, nproc: usize) -> Run {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut run = Run::default();
    let base_threads = w.sessions.iter().map(|s| s.threads).max().unwrap_or(1);
    // inner.speedup = parallel(nproc) sessions over sequential sessions;
    // the workload's own passes provide one side, this pass the other.
    let other_threads = if base_threads > 1 { 1 } else { nproc };
    let other = pass(
        w,
        &mut run,
        "inner-width",
        Offer::Saturated,
        Some(other_threads),
        false,
    );
    let (mut plain, mut tputs, mut samples) = (vec![], vec![], vec![]);
    let last = loop {
        let p = pass(w, &mut run, "saturated", Offer::Saturated, None, false);
        plain.push(p.throughput());
        let t = pass(
            w,
            &mut run,
            "traced saturated",
            Offer::Saturated,
            None,
            true,
        );
        tputs.push(t.throughput());
        samples.push(layer_metrics(w, &t, base_threads));
        if Instant::now() >= deadline {
            break t;
        }
    };
    let paced = pass(w, &mut run, "traced paced", Offer::Paced, None, true);
    let mut untraced_paced = pass(w, &mut run, "paced", Offer::Paced, None, false);

    let base = median(&mut plain);
    let speedup = if base_threads > 1 {
        base / other.throughput()
    } else {
        other.throughput() / base
    };
    run.metrics = paced_metrics(&paced);
    run.metrics.push(metric(
        "e2e.latency_us_p99",
        percentile(&mut untraced_paced.latency_ns, 99.0) as f64 / 1e3,
        "us",
    ));
    run.metrics.extend((0..samples[0].len()).map(|j| {
        let mut v: Vec<f64> = samples.iter().map(|m| m[j].value).collect();
        metric(samples[0][j].name, median(&mut v), samples[0][j].unit)
    }));
    run.metrics.extend([
        metric("inner.speedup", speedup, "x"),
        metric(
            "trace.overhead_frac",
            1.0 - median(&mut tputs) / base,
            "frac",
        ),
    ]);
    run.spans = [last, paced]
        .into_iter()
        .flat_map(|t| t.trace.expect("traced pass").spans)
        .collect();
    run
}

/// Queue and fan-out-spread metrics of the traced paced pass `p`.
fn paced_metrics(p: &PassResult) -> Vec<Metric> {
    let us = |ns: u64| ns as f64 * 1e-3;
    let (mut wait, mut late) = (p.wait_ns.clone(), p.late_ns.clone());
    let mut spread = p.spread_ns.clone();
    vec![
        metric("queue.wait_us_p50", us(percentile(&mut wait, 50.0)), "us"),
        metric("queue.wait_us_p99", us(percentile(&mut wait, 99.0)), "us"),
        metric("queue.depth_max", p.depth_max as f64, "count"),
        metric(
            "queue.gen_late_us_p99",
            us(percentile(&mut late, 99.0)),
            "us",
        ),
        metric(
            "fanout.spread_us_p99",
            us(percentile(&mut spread, 99.0)),
            "us",
        ),
    ]
}

/// Per-layer metrics of one traced saturated pass `t`.
fn layer_metrics(w: &Workload, t: &PassResult, threads: usize) -> Vec<Metric> {
    use std::sync::atomic::Ordering::Relaxed;
    let tr = t.trace.as_ref().expect("traced pass");
    let totals = spans::totals(&tr.spans, tr.fanout_ns);
    let sum =
        |f: &dyn Fn(&wrappers::AlgoProbe) -> u64| -> u64 { tr.probes.iter().map(|p| f(p)).sum() };
    let ads_calls = sum(&|p| p.ads_calls.load(Relaxed));
    let ads_changed = sum(&|p| p.ads_changed.load(Relaxed));
    let busy_ns = sum(&|p| p.busy_ns.load(Relaxed));
    let tasks = sum(&|p| p.tasks.load(Relaxed));
    let matches: u64 = t.counts.iter().map(|c| c[0] + c[1]).sum();
    let mut cls = paracosm_core::ClassifierStats::default();
    for s in &t.report.sessions {
        let c = &s.stats.classifier;
        cls.total += c.total;
        cls.safe_label += c.safe_label;
        cls.safe_degree += c.safe_degree;
        cls.safe_ads += c.safe_ads;
        cls.unsafe_count += c.unsafe_count;
    }
    let frac = |x: u64, base: u64| {
        if base == 0 {
            0.0
        } else {
            x as f64 / base as f64
        }
    };
    let shared = t.report.shared.unwrap_or_default();
    let pairs = (w.stream.len() * w.sessions.len()) as u64;
    let drain = totals.top;
    let s = |ns: u64| ns as f64 * 1e-9;
    vec![
        metric("graph.apply_ops", tr.graph_ops as f64, "count"),
        metric("graph.apply_s", s(totals.graph), "s"),
        metric(
            "graph.apply_ns_per_op",
            frac(totals.graph, tr.graph_ops),
            "ns",
        ),
        metric("graph.share", frac(totals.graph, drain), "frac"),
        metric("ads.calls", ads_calls as f64, "count"),
        metric("ads.ns_per_call", frac(totals.ads, ads_calls), "ns"),
        metric("ads.changed_frac", frac(ads_changed, ads_calls), "frac"),
        metric("ads.rebuild_s", s(totals.rebuild), "s"),
        metric("ads.share", frac(totals.ads, drain), "frac"),
        metric("enum.tasks", tasks as f64, "count"),
        metric("enum.busy_s", s(busy_ns), "s"),
        metric("enum.wall_s", s(totals.enumeration), "s"),
        metric("enum.matches", matches as f64, "count"),
        metric("enum.ns_per_match", frac(busy_ns, matches), "ns"),
        metric("enum.share", frac(totals.enumeration, drain), "frac"),
        metric(
            "inner.busy_frac",
            frac(busy_ns, threads as u64 * totals.enumeration),
            "frac",
        ),
        metric(
            "inter.label_safe_frac",
            frac(cls.safe_label, cls.total),
            "frac",
        ),
        metric(
            "inter.degree_safe_frac",
            frac(cls.safe_degree, cls.total),
            "frac",
        ),
        metric("inter.ads_safe_frac", frac(cls.safe_ads, cls.total), "frac"),
        metric(
            "inter.unsafe_frac",
            frac(cls.unsafe_count, cls.total),
            "frac",
        ),
        metric(
            "shared.hit_frac",
            frac(shared.hits, shared.hits + shared.misses),
            "frac",
        ),
        metric("shared.subpatterns", shared.subpatterns as f64, "count"),
        metric("fanout.share", frac(tr.fanout_ns, drain), "frac"),
        metric("service.drain_s", s(drain), "s"),
        metric("service.self_s", s(totals.self_time), "s"),
        metric(
            "service.self_ns_per_pair",
            frac(totals.self_time, pairs),
            "ns",
        ),
        metric("service.self_share", frac(totals.self_time, drain), "frac"),
    ]
}

/// What one invocation accumulated.
#[derive(Default)]
struct Run {
    metrics: Vec<Metric>,
    setups: Vec<f64>,
    attempted: u64,
    failed: u64,
    spans: Vec<spans::Span>,
    /// Per pass: its name, how it offered the stream, and the
    /// per-session (positives, negatives) it delivered.
    checks: Vec<(&'static str, Offer, Vec<[u64; 2]>)>,
}

impl Run {
    /// The correctness gate: every pass must reproduce the reference.
    fn verify(&self, w: &Workload, reference: &Reference) -> Result<(), String> {
        for (what, offer, counts) in &self.checks {
            let want = reference.counts(*offer);
            if let Some(i) = (0..want.len()).find(|&i| counts[i] != want[i]) {
                return Err(format!(
                    "correctness gate failed: workload {} {what} pass, session {i}: \
                     (positives, negatives) = {:?}, standalone replay gives {:?}",
                    w.name, counts[i], want[i]
                ));
            }
        }
        Ok(())
    }
}

fn write_spans(path: &str, header: &str, spans: &[spans::Span]) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(SPAN_DIR)?;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    spans::write_tsv(&mut f, header, spans)?;
    f.flush()
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fingerprint = format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{}\" profile={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("SERVEBENCH_RUSTC"),
        env!("SERVEBENCH_PROFILE"),
    );
    println!("# servebench {fingerprint}");
    let t0 = Instant::now();
    let Some(w) = workloads::build(&args.workload, args.seed, nproc) else {
        return usage();
    };

    eprintln!(
        "servebench: generated {} ({} vertices, {} edges, {} sessions, {} updates) in {:.2} s",
        w.name,
        w.graph.num_vertices(),
        w.graph.num_edges(),
        w.sessions.len(),
        w.stream.len(),
        t0.elapsed().as_secs_f64()
    );
    // Measure first, so the untimed replay's allocations do not set the
    // peak RSS, then hold every pass to the replay.
    let run = if args.trace {
        traced(&w, args.seconds, nproc)
    } else {
        untraced(&w, args.seconds)
    };
    let t0 = Instant::now();
    let reference = {
        let _cap = Cap::arm(w.name, "reference replay", PASS_CAP);
        Reference::replay(&w)
    };
    eprintln!(
        "servebench: reference replay in {:.2} s",
        t0.elapsed().as_secs_f64()
    );
    if let Err(msg) = run.verify(&w, &reference) {
        eprintln!("servebench: {msg} [{fingerprint}]");
        return ExitCode::FAILURE;
    }
    if args.trace {
        let path = format!("{SPAN_DIR}/spans-{}-{}.tsv", w.name, args.seed);
        match write_spans(&path, &fingerprint, &run.spans) {
            Ok(()) => eprintln!("servebench: {} spans written to {path}", run.spans.len()),
            Err(e) => eprintln!("servebench: could not write {path}: {e}"),
        }
    }
    for m in &run.metrics {
        println!("# {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
