//! DistScroll benchmark.
//!
//! ```text
//! perfbench --workload <suite|session|fleet_steady|fleet_churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! perfbench --list-metrics
//! ```
//!
//! Run from the repository root (the suite check reads `results/`).
//! Human-readable tables go to standard output first; the last line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end metrics of [`E2E`]; with
//! `--trace 1` they are the per-layer metrics of [`per_layer`] (a layer
//! the workload does not exercise reads 0). See README.md for what each
//! workload and metric means.

mod fleet;
mod layers;
mod session;
mod stats;
mod suite;
mod trace;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use distscroll_eval::experiments::{self, Effort, ALL_IDS};
use distscroll_hw::arq::LinkQuality;
use stats::{median, peak_rss_mb, percentile};
use trace::Tracer;

/// End-to-end metrics: (name, unit). Every workload reports all of them.
const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Devices in the fleet cohort. At 10 000 devices the session tables
/// outgrow the caches a shared VM's other tenants also use, and round
/// times drifted with them (±9 % between interleaved runs vs ±6 % here).
const FLEET_DEVICES: u64 = 4_000;
/// `process_round` fan-out for the fleet workloads. One worker: with a
/// second worker, a round of a few milliseconds waits on the helper
/// thread's wake-up, which on a shared 2-vCPU VM made round tails
/// bimodal (p95 spread 0.42 of the median over ten seeds). The worker
/// pool is measured under fan-out by the `suite` workload.
const FLEET_JOBS: usize = 1;
/// Fleet set-ups timed after each pass. Set-ups spread over the whole
/// run see the host's slow and fast periods alike, as the passes do.
const FLEET_SETUPS_PER_PASS: usize = 3;

/// Per-layer metrics: (name, unit, better).
fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| v.push((name, unit, better));
    for span in [
        "core.device.run_for_ms",
        "core.device.click_select",
        "core.device.click_back",
        "core.device.poll_events",
        "core.device.poll_telemetry",
        "host.session.ingest",
        "core.device.host_send",
    ] {
        add(format!("{span}.busy_ns"), "ns", "lower");
        add(format!("{span}.count"), "count", "higher");
    }
    add(
        "host.telemetry.push_bytes_with.self_ns".into(),
        "ns",
        "lower",
    );
    add(
        "host.telemetry.push_bytes_with.count".into(),
        "count",
        "higher",
    );
    for (c, better) in [
        ("sent", "lower"),
        ("retransmitted", "lower"),
        ("acked", "higher"),
        ("expired", "lower"),
    ] {
        add(format!("hw.arq.tx.{c}"), "count", better);
    }
    add("hw.arq.tx.useful_ratio".into(), "ratio", "higher");
    for (c, better) in [
        ("delivered", "higher"),
        ("duplicates", "lower"),
        ("out_of_order", "lower"),
    ] {
        add(format!("hw.arq.rx.{c}"), "count", better);
    }
    for layer in layers::LAYERS {
        add(format!("{layer}.ns_per_op"), "ns", "lower");
        add(format!("{layer}.mad_ns"), "ns", "lower");
        add(format!("{layer}.modelled_ns"), "ns", "lower");
    }
    for side in ["device", "host"] {
        add(format!("session.{side}.modelled_ns"), "ns", "lower");
        add(format!("session.{side}.unexplained_ns"), "ns", "lower");
    }
    for span in [
        "ingest.loadgen.for_round",
        "ingest.offer",
        "ingest.process_round",
    ] {
        add(format!("{span}.busy_ns"), "ns", "lower");
        add(format!("{span}.count"), "count", "higher");
    }
    for (c, better) in [
        ("frames_in", "higher"),
        ("records", "higher"),
        ("crc_failures", "lower"),
        ("evicted", "lower"),
        ("resyncs", "lower"),
        ("sessions_opened", "lower"),
        ("peak_sessions", "lower"),
        ("shed_batches", "lower"),
        ("divergence", "lower"),
    ] {
        add(format!("ingest.{c}"), "count", better);
    }
    add("ingest.resyncs_per_batch".into(), "ratio", "lower");
    add("ingest.records_per_frame".into(), "ratio", "higher");
    for (c, better) in [
        ("jobs_submitted", "higher"),
        ("tasks_executed", "higher"),
        ("inline_claims", "lower"),
        ("helper_steals", "higher"),
        ("peak_live", "higher"),
    ] {
        add(format!("par.{c}"), "count", better);
    }
    for id in ALL_IDS {
        add(format!("eval.{id}.wall_s"), "s", "lower");
    }
    for (c, better) in [
        ("sent", "lower"),
        ("retransmitted", "lower"),
        ("acked", "higher"),
        ("expired", "lower"),
        ("shed_state", "lower"),
        ("delivered", "higher"),
        ("duplicates", "lower"),
        ("out_of_order", "lower"),
    ] {
        add(
            format!("host.telemetry.link_quality_totals.{c}"),
            "count",
            better,
        );
    }
    for (c, unit, better) in [
        ("wall_ns", "ns", "lower"),
        ("span_self_ns", "ns", "lower"),
        ("coverage", "ratio", "higher"),
        ("unexplained_ns", "ns", "lower"),
        ("untraced_wall_ns", "ns", "lower"),
        ("overhead_ns", "ns", "lower"),
        ("overhead_frac", "ratio", "lower"),
    ] {
        add(format!("trace.{c}"), unit, better);
    }
    v
}

/// What a run prints as its last line.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

impl Report {
    fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
        }
    }

    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Renders the result line with the metrics of `catalogue`, in its
    /// order.
    fn json(&self, catalogue: &[(String, &str)]) -> String {
        let mut correct = self.failed == 0;
        for name in self.metrics.keys() {
            assert!(
                catalogue.iter().any(|(n, _)| n == name),
                "metric {name} is not in the catalogue"
            );
        }
        let fields: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let mut v = self.metrics.get(name).copied().unwrap_or(0.0);
                if !v.is_finite() {
                    correct = false;
                    v = 0.0;
                }
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <suite|session|fleet_steady|fleet_churn> \
         --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test\n       \
         perfbench --list-metrics"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage())),
            "--seconds" => {
                seconds = Some(value().parse::<f64>().unwrap_or_else(|_| usage()));
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                });
            }
            "--self-test" => std::process::exit(self_test()),
            "--list-metrics" => {
                list_metrics();
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) if seconds > 0.0 => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

fn main() {
    let args = parse_args();
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (jobs {jobs})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = match (args.workload.as_str(), args.trace) {
        ("suite", false) => suite_run(&args, jobs),
        ("suite", true) => suite_traced(&args, jobs),
        ("session", false) => session_run(&args),
        ("session", true) => session_traced(&args),
        ("fleet_steady", trace) => fleet_run(&args, FLEET_JOBS, false, trace),
        ("fleet_churn", trace) => fleet_run(&args, FLEET_JOBS, true, trace),
        _ => usage(),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let catalogue: Vec<(String, &str)> = if args.trace {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        E2E.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    println!(
        "checks: {} failed of {} attempted (failed_frac {})",
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    println!("{}", report.json(&catalogue));
}

/// Prints the metric lists in the form BENCHMARK.json declares them.
fn list_metrics() {
    let e2e: Vec<String> = E2E
        .iter()
        .map(|(n, u)| format!("{{\"name\": \"{n}\", \"unit\": \"{u}\"}}"))
        .collect();
    let layer: Vec<String> = per_layer()
        .iter()
        .map(|(n, u, b)| format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}"))
        .collect();
    println!(
        "{{\"end_to_end\": [{}], \"per_layer\": [{}]}}",
        e2e.join(", "),
        layer.join(", ")
    );
}

/// Runs `f`, pushes its wall seconds onto `secs` and returns its result.
fn timed<T>(secs: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = f();
    secs.push(t0.elapsed().as_secs_f64());
    v
}

/// Prints a reconciliation of span self time against traced wall time,
/// and the tracing overhead, into `r`.
fn reconcile(r: &mut Report, tracer: &Tracer, traced_wall_s: f64, untraced_wall_s: f64) {
    let wall_ns = traced_wall_s * 1e9;
    let self_ns = tracer.self_total_ns() as f64;
    println!(
        "\nspan                                      count        busy ms        self ms   share"
    );
    for s in tracer.stats() {
        println!(
            "{:<40} {:>7} {:>14.3} {:>14.3} {:>6.1}%",
            s.name,
            s.count,
            s.busy_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            100.0 * s.self_ns as f64 / wall_ns
        );
    }
    println!(
        "spans account for {:.1}% of traced wall ({:.3} of {:.3} s); unexplained {:.3} s",
        100.0 * self_ns / wall_ns,
        self_ns / 1e9,
        traced_wall_s,
        (wall_ns - self_ns) / 1e9
    );
    println!(
        "tracing overhead: traced {:.3} s - untraced {:.3} s = {:.3} s ({:+.2}%)",
        traced_wall_s,
        untraced_wall_s,
        traced_wall_s - untraced_wall_s,
        100.0 * (traced_wall_s / untraced_wall_s - 1.0)
    );
    r.set("trace.wall_ns", wall_ns);
    r.set("trace.span_self_ns", self_ns);
    r.set("trace.coverage", self_ns / wall_ns);
    r.set("trace.unexplained_ns", wall_ns - self_ns);
    r.set("trace.untraced_wall_ns", untraced_wall_s * 1e9);
    r.set("trace.overhead_ns", (traced_wall_s - untraced_wall_s) * 1e9);
    r.set("trace.overhead_frac", traced_wall_s / untraced_wall_s - 1.0);
}

// ---------------------------------------------------------------- suite

/// The digests every pass must reproduce: `results/` at the pinned
/// seed; elsewhere a serial (`--jobs 1`) pass at the same seed.
fn suite_reference(seed: u64, refs: &[(String, u64)]) -> Vec<u64> {
    if seed == suite::PINNED_SEED {
        refs.iter().map(|(_, d)| *d).collect()
    } else {
        suite::pass(Effort::Full, seed, 1).digests
    }
}

/// Set-up: read the checked-in reports, then one quick-effort pass so
/// the worker pool is spawned and caches are warm.
fn suite_setup(seed: u64, jobs: usize) -> Result<Vec<(String, u64)>, String> {
    let refs = suite::reference_reports();
    suite::pass(Effort::Quick, seed, jobs);
    refs
}

fn suite_run(args: &Args, jobs: usize) -> Result<Report, String> {
    // The set-up is timed once before the first pass and again after
    // every pass, so its median covers the same host periods as theirs.
    let mut setups = Vec::new();
    let refs = timed(&mut setups, || suite_setup(args.seed, jobs))?;
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        passes.push(suite::pass(Effort::Full, args.seed, jobs));
        timed(&mut setups, || suite_setup(args.seed, jobs))?;
    }
    let reference = suite_reference(args.seed, &refs);
    let mut r = Report::new();
    r.attempted = (passes.len() * ALL_IDS.len()) as u64;
    r.failed = passes
        .iter()
        .map(|p| suite::mismatches(&p.digests, &reference))
        .sum();
    let mut walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let mut slowest: Vec<f64> = passes.iter().map(|p| p.slowest_s).collect();
    let mut rates: Vec<f64> = walls.iter().map(|w| ALL_IDS.len() as f64 / w).collect();
    println!(
        "suite: {} passes of {} experiments at full effort, --jobs {jobs}, {} set-ups; reference: {}",
        passes.len(),
        ALL_IDS.len(),
        setups.len(),
        if args.seed == suite::PINNED_SEED {
            "results/"
        } else {
            "serial pass at this seed"
        }
    );
    for (i, p) in passes.iter().enumerate() {
        println!("  pass {i}: {:.3} s", p.wall_s);
    }
    r.set("setup_s", median(&mut setups));
    r.set("op_p50_ms", median(&mut walls) * 1e3);
    r.set("op_tail_ms", median(&mut slowest) * 1e3);
    r.set("rate_per_s", median(&mut rates));
    r.set("peak_rss_mb", peak_rss_mb());
    Ok(r)
}

fn suite_traced(args: &Args, jobs: usize) -> Result<Report, String> {
    let refs = suite_setup(args.seed, jobs)?;
    let mut r = Report::new();

    // Rounds over the 17 experiments at --jobs 1 until the time is up.
    // Each experiment runs twice per round, untraced and inside its span,
    // in alternating order so drift in host speed falls on both sides
    // alike. The spans' sum reconciles against serial wall time.
    experiments::set_jobs(1);
    let mut tracer = Tracer::on();
    let ids: Vec<_> = ALL_IDS
        .iter()
        .map(|id| (*id, tracer.register(format!("eval.{id}"), None)))
        .collect();
    let run = |id: &str| {
        experiments::run_id(id, Effort::Full, args.seed)
            .map(|rep| suite::digest(&rep))
            .ok_or_else(|| format!("unknown experiment {id}"))
    };
    let mut reference =
        (args.seed == suite::PINNED_SEED).then(|| suite_reference(args.seed, &refs));
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut lq = LinkQuality::default();
    let mut rounds = 0u64;
    let t_start = Instant::now();
    while rounds == 0 || t_start.elapsed().as_secs_f64() < args.seconds {
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for (i, (id, span)) in ids.iter().enumerate() {
            for traced_turn in [i % 2 == 1, i % 2 == 0] {
                let t0 = Instant::now();
                if traced_turn {
                    let before = distscroll_host::telemetry::link_quality_totals();
                    traced.push(tracer.span(*span, || run(id))?);
                    let after = distscroll_host::telemetry::link_quality_totals();
                    traced_s += t0.elapsed().as_secs_f64();
                    lq.merge(&delta(&after, &before));
                } else {
                    untraced.push(run(id)?);
                    untraced_s += t0.elapsed().as_secs_f64();
                }
            }
        }
        // Away from the pinned seed, the first serial round is the truth
        // every later run must reproduce.
        let want = reference.get_or_insert_with(|| untraced.clone());
        r.failed += suite::mismatches(&untraced, want) + suite::mismatches(&traced, want);
        rounds += 1;
    }
    let reference = reference.unwrap_or_default();
    for (id, span) in &ids {
        let st = tracer.stat(*span);
        r.set(
            format!("eval.{id}.wall_s"),
            st.busy_ns as f64 / 1e9 / st.count.max(1) as f64,
        );
    }
    // Per serial pass: every round does the same work.
    for (name, v) in lq_fields(&lq) {
        r.set(
            format!("host.telemetry.link_quality_totals.{name}"),
            v as f64 / rounds as f64,
        );
    }

    // Executor counters of one pass at --jobs nproc.
    distscroll_par::reset_pool_stats();
    let parallel = suite::pass(Effort::Full, args.seed, jobs);
    let ps = distscroll_par::pool_stats();
    r.failed += suite::mismatches(&parallel.digests, &reference);
    r.attempted = (2 * rounds + 1) * ALL_IDS.len() as u64;
    set_pool(&mut r, &ps);
    println!(
        "suite traced: {rounds} serial rounds, untraced {:.3} s, traced {:.3} s; \
         one --jobs {jobs} pass {:.3} s; executor: {ps}",
        untraced_s, traced_s, parallel.wall_s
    );
    reconcile(&mut r, &tracer, traced_s, untraced_s);
    Ok(r)
}

fn set_pool(r: &mut Report, ps: &distscroll_par::PoolStats) {
    r.set("par.jobs_submitted", ps.jobs_submitted as f64);
    r.set("par.tasks_executed", ps.tasks_executed as f64);
    r.set("par.inline_claims", ps.inline_claims as f64);
    r.set("par.helper_steals", ps.helper_steals as f64);
    r.set("par.peak_live", ps.peak_live as f64);
}

/// Folds one stage's executor counters into `into`.
fn add_pool(into: &mut distscroll_par::PoolStats, s: &distscroll_par::PoolStats) {
    // Spawned workers live on; the count is not reset between stages.
    into.workers_spawned = into.workers_spawned.max(s.workers_spawned);
    into.jobs_submitted += s.jobs_submitted;
    into.tasks_executed += s.tasks_executed;
    into.inline_claims += s.inline_claims;
    into.helper_steals += s.helper_steals;
    into.peak_live = into.peak_live.max(s.peak_live);
}

fn lq_fields(q: &LinkQuality) -> [(&'static str, u64); 8] {
    [
        ("sent", q.sent),
        ("retransmitted", q.retransmitted),
        ("acked", q.acked),
        ("expired", q.expired),
        ("shed_state", q.shed_state),
        ("delivered", q.delivered),
        ("duplicates", q.duplicates),
        ("out_of_order", q.out_of_order),
    ]
}

fn delta(after: &LinkQuality, before: &LinkQuality) -> LinkQuality {
    LinkQuality {
        sent: after.sent - before.sent,
        retransmitted: after.retransmitted - before.retransmitted,
        acked: after.acked - before.acked,
        expired: after.expired - before.expired,
        shed_state: after.shed_state - before.shed_state,
        delivered: after.delivered - before.delivered,
        duplicates: after.duplicates - before.duplicates,
        out_of_order: after.out_of_order - before.out_of_order,
    }
}

// -------------------------------------------------------------- session

/// Adds one session's checks into `r`.
fn session_check(r: &mut Report, s: &session::SessionResult) {
    r.attempted += s.expected.len() as u64;
    r.failed += s.event_failures + s.records_bad;
}

fn session_run(args: &Args) -> Result<Report, String> {
    let mut tracer = Tracer::off();
    let spans = session::Spans::register(&mut tracer);
    let mut r = Report::new();
    // 10 ns bins up to 1 ms: an epoch takes a few to a few tens of µs.
    let mut epoch_ns = stats::Histogram::new(10, 100_000);
    // Set-up is building a session's device, decoder and log.
    let mut setups = Vec::new();
    let (mut sim_s, mut host_s) = (0.0, 0.0);
    let t0 = Instant::now();
    let mut k = 0u64;
    while k < 2 || t0.elapsed().as_secs_f64() < args.seconds {
        let script = session::Script::new(args.seed, k);
        let parts = timed(&mut setups, || script.build());
        let s = session::run_session(
            &script,
            parts,
            &mut tracer,
            &spans,
            Some(&mut epoch_ns),
            None,
        );
        session_check(&mut r, &s);
        sim_s += s.sim_s;
        host_s += s.host_s;
        k += 1;
    }
    println!(
        "session: {k} sessions, {} epochs, {} device events checked",
        epoch_ns.count(),
        r.attempted
    );
    r.set("setup_s", median(&mut setups));
    r.set("op_p50_ms", epoch_ns.percentile(50.0) / 1e6);
    r.set("op_tail_ms", epoch_ns.percentile(99.0) / 1e6);
    // Over clean and lossy sessions together.
    r.set("rate_per_s", sim_s / host_s);
    r.set("peak_rss_mb", peak_rss_mb());
    Ok(r)
}

fn session_traced(args: &Args) -> Result<Report, String> {
    let mut r = Report::new();
    let mut off = Tracer::off();
    let off_spans = session::Spans::register(&mut off);

    let mut tracer = Tracer::on();
    let spans = session::Spans::register(&mut tracer);
    let mut capture = session::Capture::default();
    let mut sum = session::SessionResult::default();
    // Radio traffic by link kind: [clean, lossy] x (device frames, host
    // frames, host bytes).
    let mut by_link = [(0u64, 0u64, 0u64); 2];
    let mut clean_tx = LinkQuality::default();
    // Each session runs twice, untraced and traced, in alternating order,
    // so drift in host speed falls on both sides alike.
    let t0 = Instant::now();
    let mut untraced_s = 0.0;
    let mut k = 0u64;
    while k < 2 || t0.elapsed().as_secs_f64() < args.seconds {
        let script = session::Script::new(args.seed, k);
        let capture = (k == 0).then_some(&mut capture);
        let mut untraced =
            || session::run_session(&script, script.build(), &mut off, &off_spans, None, None);
        let u = if k.is_multiple_of(2) {
            Some(untraced())
        } else {
            None
        };
        let s = session::run_session(&script, script.build(), &mut tracer, &spans, None, capture);
        let u = u.unwrap_or_else(untraced);
        session_check(&mut r, &u);
        untraced_s += u.host_s;
        session_check(&mut r, &s);
        sum.sim_s += s.sim_s;
        sum.host_s += s.host_s;
        sum.tx.merge(&s.tx);
        if !script.lossy {
            clean_tx.merge(&s.tx);
        }
        sum.rx.merge(&s.rx);
        sum.records_ok += s.records_ok;
        sum.records_bad += s.records_bad;
        sum.device_frames += s.device_frames;
        sum.host_frames += s.host_frames;
        sum.host_frames_ok += s.host_frames_ok;
        let link = &mut by_link[usize::from(script.lossy)];
        link.0 += s.device_frames;
        link.1 += s.host_frames;
        link.2 += s.host_bytes;
        k += 1;
    }
    println!(
        "session traced: {k} sessions, each run untraced and traced, {:.1} simulated s traced",
        sum.sim_s
    );

    for (name, id) in [
        ("core.device.run_for_ms", spans.run_for_ms),
        ("core.device.click_select", spans.click_select),
        ("core.device.click_back", spans.click_back),
        ("core.device.poll_events", spans.poll_events),
        ("core.device.poll_telemetry", spans.poll_telemetry),
        ("host.session.ingest", spans.ingest),
        ("core.device.host_send", spans.host_send),
    ] {
        let st = tracer.stat(id);
        r.set(format!("{name}.busy_ns"), st.busy_ns as f64);
        r.set(format!("{name}.count"), st.count as f64);
    }
    let push = tracer.stat(spans.push_bytes_with);
    r.set(
        "host.telemetry.push_bytes_with.self_ns",
        push.self_ns as f64,
    );
    r.set("host.telemetry.push_bytes_with.count", push.count as f64);

    let (tx, rx) = (&sum.tx, &sum.rx);
    r.set("hw.arq.tx.sent", tx.sent as f64);
    r.set("hw.arq.tx.retransmitted", tx.retransmitted as f64);
    r.set("hw.arq.tx.acked", tx.acked as f64);
    r.set("hw.arq.tx.expired", tx.expired as f64);
    r.set(
        "hw.arq.tx.useful_ratio",
        tx.acked as f64 / tx.sent.max(1) as f64,
    );
    r.set("hw.arq.rx.delivered", rx.delivered as f64);
    r.set("hw.arq.rx.duplicates", rx.duplicates as f64);
    r.set("hw.arq.rx.out_of_order", rx.out_of_order as f64);
    println!(
        "arq: tx sent {} (retransmitted {}, acked {} = {:.1}% useful, expired {}); \
         rx delivered {}, duplicates {}, out of order {}",
        tx.sent,
        tx.retransmitted,
        tx.acked,
        100.0 * tx.acked as f64 / tx.sent.max(1) as f64,
        tx.expired,
        rx.delivered,
        rx.duplicates,
        rx.out_of_order
    );
    println!(
        "arq, clean link only: {} of {} frames sent ({:.1}%) are retransmissions",
        clean_tx.retransmitted,
        clean_tx.sent,
        100.0 * clean_tx.retransmitted as f64 / clean_tx.sent.max(1) as f64
    );

    // Device-internal layers in isolation, on this run's inputs.
    let map = session::Script::new(args.seed, 0)
        .build()
        .0
        .firmware()
        .island_map()
        .clone();
    let iso = layers::isolate(&capture, &map, args.seed);
    let [clean, lossy] = by_link;
    let tick_s = 0.010;
    let ticks = sum.sim_s / tick_s;
    let ack_frame_bytes = (distscroll_hw::arq::ACK_LEN + 5) as f64;
    // Ops each layer performs in the traced sessions, split into the part
    // inside the device's run (device) and the part on the host (host).
    let ops: [(f64, f64); 13] = [
        (
            sum.sim_s / distscroll_sensors::gp2d120::SAMPLE_PERIOD_S,
            0.0,
        ),
        (ticks, 0.0),
        (ticks, 0.0),
        (0.0, 0.0),
        (ticks, 0.0),
        (sum.device_frames as f64, sum.host_frames as f64),
        (clean.0 as f64, clean.1 as f64),
        (lossy.0 as f64, lossy.1 as f64),
        // No session link flips bits: every host byte decodes as clean.
        (
            sum.host_frames as f64 * ack_frame_bytes,
            (clean.2 + lossy.2) as f64,
        ),
        (0.0, 0.0),
        (0.0, sum.host_frames_ok as f64),
        (0.0, (sum.records_ok + sum.records_bad) as f64),
        (0.0, k as f64),
    ];
    let (mut dev_model, mut host_model) = (0.0, 0.0);
    println!("\nlayer (isolated)                     ns/op      MAD   batch   device ops     host ops   modelled ms");
    for ((name, m), (dev_ops, host_ops)) in layers::LAYERS.iter().zip(&iso).zip(ops) {
        let modelled = m.ns_per_op * (dev_ops + host_ops);
        dev_model += m.ns_per_op * dev_ops;
        // Decoders are built before a session's epochs, outside the host
        // spans this model is compared with.
        if *name != "host.telemetry.stream_decoder_new" {
            host_model += m.ns_per_op * host_ops;
        }
        println!(
            "{name:<34} {:>8.2} {:>8.2} {:>7} {:>12.0} {:>12.0} {:>13.3}",
            m.ns_per_op,
            m.mad_ns,
            m.batch,
            dev_ops,
            host_ops,
            modelled / 1e6
        );
        r.set(format!("{name}.ns_per_op"), m.ns_per_op);
        r.set(format!("{name}.mad_ns"), m.mad_ns);
        r.set(format!("{name}.modelled_ns"), modelled);
    }
    let device_busy = [spans.run_for_ms, spans.click_select, spans.click_back]
        .iter()
        .map(|&id| tracer.stat(id).busy_ns as f64)
        .sum::<f64>();
    let host_busy = push.self_ns as f64 + tracer.stat(spans.host_send).busy_ns as f64;
    println!(
        "device: modelled {:.3} ms of {:.3} ms in run_for_ms + clicks; unexplained {:.3} ms \
         (scheduler, display/I2C, power, firmware glue)",
        dev_model / 1e6,
        device_busy / 1e6,
        (device_busy - dev_model) / 1e6
    );
    println!(
        "host: modelled {:.3} ms of {:.3} ms in push_bytes_with (self) + host_send; unexplained {:.3} ms",
        host_model / 1e6,
        host_busy / 1e6,
        (host_busy - host_model) / 1e6
    );
    r.set("session.device.modelled_ns", dev_model);
    r.set("session.device.unexplained_ns", device_busy - dev_model);
    r.set("session.host.modelled_ns", host_model);
    r.set("session.host.unexplained_ns", host_busy - host_model);

    reconcile(&mut r, &tracer, sum.host_s, untraced_s);
    Ok(r)
}

// ---------------------------------------------------------------- fleet

fn fleet_run(args: &Args, jobs: usize, churn: bool, traced: bool) -> Result<Report, String> {
    let mut setups = Vec::new();
    let fleet = timed(&mut setups, || {
        fleet::setup(args.seed, FLEET_DEVICES, churn)
    });
    let mut off = Tracer::off();
    let off_spans = fleet::Spans::register(&mut off);
    let mut r = Report::new();
    let mut first: Option<distscroll_ingest::IngestStats> = None;
    let check =
        |r: &mut Report, first: &mut Option<distscroll_ingest::IngestStats>, p: &fleet::Pass| {
            r.attempted += p.offers;
            r.failed += fleet::failures(&p.stats);
            if !churn {
                r.failed += fleet::divergence(&p.stats, fleet.expected);
            }
            // Every replay of the same cohort must close the same books.
            match first {
                None => *first = Some(p.stats.clone()),
                Some(f) if *f != p.stats => r.failed += 1,
                Some(_) => {}
            }
        };

    // Traced runs alternate untraced and traced passes, in alternating
    // order, so drift in host speed falls on both sides alike.
    let mut tracer = Tracer::on();
    let spans = fleet::Spans::register(&mut tracer);
    let mut pool = distscroll_par::PoolStats::default();
    let t0 = Instant::now();
    let mut passes = 0u64;
    let mut round_ms = Vec::new();
    // Delivered records per second of round time, one rate per pass.
    let mut rates = Vec::new();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    while passes == 0 || t0.elapsed().as_secs_f64() < args.seconds {
        let turns = if !traced {
            [Some(false), None]
        } else if passes.is_multiple_of(2) {
            [Some(false), Some(true)]
        } else {
            [Some(true), Some(false)]
        };
        for with_trace in turns.into_iter().flatten() {
            let t = Instant::now();
            let p = if with_trace {
                // Executor counters around the traced passes only.
                distscroll_par::reset_pool_stats();
                let p = fleet::pass(&fleet, jobs, &mut tracer, &spans);
                add_pool(&mut pool, &distscroll_par::pool_stats());
                p
            } else {
                fleet::pass(&fleet, jobs, &mut off, &off_spans)
            };
            let wall = t.elapsed().as_secs_f64();
            check(&mut r, &mut first, &p);
            if with_trace {
                traced_s += wall;
            } else {
                untraced_s += wall;
                let busy_s = p.round_ms.iter().sum::<f64>() / 1e3;
                rates.push(p.stats.totals.records as f64 / busy_s);
                round_ms.extend_from_slice(&p.round_ms);
            }
        }
        if !traced {
            for _ in 0..FLEET_SETUPS_PER_PASS {
                black_box(timed(&mut setups, || {
                    fleet::setup(args.seed, FLEET_DEVICES, churn)
                }));
            }
        }
        passes += 1;
    }
    let totals = first.clone().expect("at least one pass").totals;
    let diverged = totals.records.abs_diff(fleet.expected);
    println!(
        "{}: {} devices x {} rounds, {passes} passes{}, --jobs {jobs}, session capacity {} per shard",
        if churn { "fleet_churn" } else { "fleet_steady" },
        fleet.load.devices,
        fleet.load.rounds(),
        if traced { " untraced + as many traced" } else { "" },
        fleet.cfg.session_capacity
    );
    println!(
        "  records {} of {} expected (divergence {}, {:.4} of expected); evicted {}, resyncs {}, shed {}",
        totals.records,
        fleet.expected,
        diverged,
        diverged as f64 / fleet.expected.max(1) as f64,
        totals.evicted,
        totals.resyncs,
        totals.shed_batches
    );

    if !traced {
        r.set("setup_s", median(&mut setups));
        r.set("op_p50_ms", percentile(&mut round_ms, 50.0));
        // The upper quartile: on a shared VM, round times above it track
        // the host's slow periods rather than the service (see README).
        r.set("op_tail_ms", percentile(&mut round_ms, 75.0));
        r.set("rate_per_s", median(&mut rates));
        r.set("peak_rss_mb", peak_rss_mb());
        return Ok(r);
    }

    set_pool(&mut r, &pool);
    for (name, id) in [
        ("ingest.loadgen.for_round", spans.for_round),
        ("ingest.offer", spans.offer),
        ("ingest.process_round", spans.process_round),
    ] {
        let st = tracer.stat(id);
        r.set(format!("{name}.busy_ns"), st.busy_ns as f64);
        r.set(format!("{name}.count"), st.count as f64);
    }
    // The books of one pass (every pass closes identical books).
    for (name, v) in [
        ("frames_in", totals.frames_in),
        ("records", totals.records),
        ("crc_failures", totals.crc_failures),
        ("evicted", totals.evicted),
        ("resyncs", totals.resyncs),
        ("sessions_opened", totals.sessions_opened),
        ("peak_sessions", totals.peak_sessions),
        ("shed_batches", totals.shed_batches),
        ("divergence", diverged),
    ] {
        r.set(format!("ingest.{name}"), v as f64);
    }
    r.set(
        "ingest.resyncs_per_batch",
        totals.resyncs as f64 / totals.batches_in.max(1) as f64,
    );
    r.set(
        "ingest.records_per_frame",
        totals.records as f64 / totals.frames_in.max(1) as f64,
    );
    println!("  executor over {passes} traced passes: {pool}");
    reconcile(&mut r, &tracer, traced_s, untraced_s);
    Ok(r)
}

// ------------------------------------------------------------ self-test

/// Shows that each output check can fail: a report with one byte
/// flipped, and a session stream with one record dropped. Returns the
/// process exit code.
fn self_test() -> i32 {
    let mut ok = true;

    // Figure 4 rendered at the pinned seed matches results/f4.txt; with
    // one byte flipped it does not.
    match suite::reference_reports() {
        Ok(refs) => {
            let (id, (path, digest)) = (ALL_IDS[0], &refs[0]);
            let rendered = experiments::run_id(id, Effort::Full, suite::PINNED_SEED)
                .map(|r| r.render().into_bytes())
                .unwrap_or_default();
            let mut flipped = rendered.clone();
            if let Some(b) = flipped.get_mut(rendered.len() / 2) {
                *b ^= 0x20;
            }
            let intact = suite::mismatches(&[stats::fnv1a(&rendered)], &[*digest]);
            let broken = suite::mismatches(&[stats::fnv1a(&flipped)], &[*digest]);
            let caught = intact == 0 && broken == 1;
            println!(
                "self-test: {id} report with one byte flipped vs {path} ({broken} mismatch, \
                 {intact} intact): {}",
                verdict(caught)
            );
            ok &= caught;
        }
        Err(e) => {
            println!("self-test: {e}");
            ok = false;
        }
    }

    // A session's host log with one event record dropped; the same log
    // intact passes.
    let script = session::Script::new(suite::PINNED_SEED, 0);
    let mut off = Tracer::off();
    let spans = session::Spans::register(&mut off);
    let s = session::run_session(&script, script.build(), &mut off, &spans, None, None);
    let intact = session::event_failures(&s.expected, &s.got, s.in_flight);
    let mut dropped = s.got.clone();
    if !dropped.is_empty() {
        dropped.remove(dropped.len() / 2);
    }
    let broken = session::event_failures(&s.expected, &dropped, s.in_flight);
    let caught = intact == 0 && broken > 0;
    println!(
        "self-test: one of {} event records dropped from a session log ({broken} failures, \
         {intact} intact): {}",
        s.got.len(),
        verdict(caught)
    );
    ok &= caught;
    if ok {
        0
    } else {
        1
    }
}

fn verdict(caught: bool) -> &'static str {
    if caught {
        "check fails as it must"
    } else {
        "CHECK DID NOT FAIL"
    }
}
