//! One benchmark run: set up, measure for the requested time, check the
//! outputs, and collect the end-to-end or the per-layer metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use obskit::{MetricsSnapshot, Registry};
use rrl::ClusterReport;

use crate::alloc;
use crate::spans::{self, LayerTime, ReplayCounts, Tracer};
use crate::speed;
use crate::workload::{self, RunOutput, Setup, Size, Workload};

/// Run calls every measurement makes, however short `seconds` is.
const MIN_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Host seconds to keep repeating the run call.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Benchmark or smoke size.
    pub size: Size,
    /// Set-ups made; `setup_s` is their median.
    pub setups: usize,
    /// Where a traced run writes its spans and metrics snapshot.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How it was measured (clock and statistic).
    pub how: String,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Checks that failed.
    pub failures: Vec<String>,
    /// Jobs submitted over all measured run calls.
    pub attempted: u64,
    /// Jobs that did not complete cleanly.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (the decomposition of a traced run).
    pub lines: Vec<String>,
    /// Per-job digest every run call agreed on.
    pub digest: u64,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Run calls, their checks and their digests.
struct Reps {
    failures: Vec<String>,
    digest: Option<u64>,
    attempted: u64,
    failed: u64,
}

impl Reps {
    fn new() -> Self {
        Self {
            failures: Vec::new(),
            digest: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Check one run call and fold it in; `what` names the kind of call
    /// for a digest mismatch.
    fn record(&mut self, setup: &Setup, out: &RunOutput, what: &str) {
        workload::check_run(setup, out, &mut self.failures);
        let digest = workload::digest(&out.report);
        match self.digest {
            None => self.digest = Some(digest),
            Some(first) if first != digest => {
                let msg = format!("per-job digest of a {what} run call differs from the first");
                if !self.failures.contains(&msg) {
                    self.failures.push(msg);
                }
            }
            Some(_) => {}
        }
        self.attempted += setup.trace.len() as u64;
        self.failed += workload::failed_jobs(setup, &out.report) as u64;
    }

    fn outcome(self, metrics: Vec<Metric>, lines: Vec<String>) -> Outcome {
        let mut failures = self.failures;
        if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
            failures.push(format!("metric {} is not finite", m.name));
        }
        let metrics = metrics
            .into_iter()
            .map(|m| Metric {
                value: if m.value.is_finite() { m.value } else { 0.0 },
                ..m
            })
            .collect();
        Outcome {
            correct: failures.is_empty(),
            failures,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            lines,
            digest: self.digest.unwrap_or(0),
        }
    }
}

/// One run call between two reference passes: the output and the call's
/// seconds at nominal host speed.
fn timed_run(setup: &Setup, recorder: Option<&Registry>) -> Result<(RunOutput, f64), String> {
    speed::adjusted(|| {
        workload::run_once(setup, recorder).map(|out| {
            let seconds = out.host_s;
            (out, seconds)
        })
    })
}

/// Set up `opts.setups` times and run the measurement.
pub fn execute(opts: &Options) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(opts.setups.max(1));
    let mut setup = None;
    for _ in 0..opts.setups.max(1) {
        // Drop the previous set-up first, so set-ups do not stack up.
        drop(setup.take());
        let (fresh, seconds) = speed::adjusted(|| {
            workload::setup(opts.workload, opts.size, opts.seed).map(|s| {
                let seconds = s.seconds;
                (s, seconds)
            })
        })?;
        setup_s.push(seconds);
        setup = Some(fresh);
    }
    let setup = setup.expect("at least one set-up");
    if opts.trace {
        per_layer(opts, &setup)
    } else {
        end_to_end(opts, &setup, median(&setup_s))
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str, how: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        how: how.into(),
    }
}

/// The untraced run: repeat the run call for `opts.seconds` and report
/// the end-to-end metrics.
fn end_to_end(opts: &Options, setup: &Setup, setup_s: f64) -> Result<Outcome, String> {
    let jobs = setup.trace.len() as f64;
    let mut reps = Reps::new();
    let mut host = Vec::new();
    let mut raw = Vec::new();
    let mut simulated = None;
    let start = Instant::now();
    while host.len() < MIN_REPS || start.elapsed().as_secs_f64() < opts.seconds {
        let (out, adjusted) = timed_run(setup, None)?;
        reps.record(setup, &out, "repeated");
        host.push(adjusted);
        raw.push(out.host_s);
        // Every call computes the same simulated figures (the digest
        // check holds them to it), so keep the first call's and drop
        // each report before the next call starts.
        if simulated.is_none() {
            let report = &out.report;
            let summary = report.service.as_ref().ok_or("no service summary")?;
            simulated = Some((
                report.aggregate,
                summary.latency_s.p99,
                workload::failed_jobs(setup, report) as f64,
            ));
        }
    }
    let (aggregate, p99, per_run_failed) = simulated.expect("at least one run call");
    let n = host.len();
    let metrics = vec![
        metric(
            "jobs_per_s",
            jobs / median(&host),
            "1/s",
            format!(
                "host clock at nominal speed; jobs / median run call over {n} calls of {jobs} jobs \
                 (unadjusted: {:.1})",
                jobs / median(&raw)
            ),
        ),
        metric(
            "setup_s",
            setup_s,
            "s",
            format!(
                "host clock at nominal speed; median of {} set-ups (training, tuning, fill, trace)",
                opts.setups
            ),
        ),
        metric(
            "peak_rss_mb",
            alloc::peak_rss_mb().unwrap_or(0.0),
            "MB",
            "host; VmHWM of this process after set-up and every run call",
        ),
        metric(
            "job_energy_saving_pct",
            aggregate.job_energy_pct,
            "%",
            "simulated; aggregate job-energy saving vs the default run",
        ),
        metric(
            "cpu_energy_saving_pct",
            aggregate.cpu_energy_pct,
            "%",
            "simulated; aggregate CPU-energy saving vs the default run",
        ),
        metric(
            "sim_latency_p99_s",
            p99,
            "s",
            "simulated; p99 job latency, arrival to finish",
        ),
        metric(
            "completed_frac",
            (jobs - per_run_failed) / jobs,
            "ratio",
            "jobs completed cleanly / jobs submitted",
        ),
    ];
    Ok(reps.outcome(metrics, Vec::new()))
}

/// What one traced measurement gathered for the metrics.
struct Traced<'a> {
    setup: &'a Setup,
    report: &'a ClusterReport,
    out: &'a RunOutput,
    snapshot: &'a MetricsSnapshot,
    layers: &'a BTreeMap<&'static str, LayerTime>,
    counts: ReplayCounts,
    /// Median untraced run call at nominal host speed.
    host_plain: f64,
    /// Median recorded run call at nominal host speed.
    host_recorded: f64,
    heap_peak: u64,
}

/// The traced run: alternate untraced and recorded run calls for
/// `opts.seconds`, replay the layer calls into spans, and report the
/// per-layer metrics with the decomposition.
fn per_layer(opts: &Options, setup: &Setup) -> Result<Outcome, String> {
    let mut reps = Reps::new();
    let (mut plain, mut recorded) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.len() < MIN_REPS || start.elapsed().as_secs_f64() < opts.seconds {
        let (out, adjusted) = timed_run(setup, None)?;
        reps.record(setup, &out, "untraced");
        plain.push(adjusted);
        let registry = Registry::new();
        let (out, adjusted) = timed_run(setup, Some(&registry))?;
        reps.record(setup, &out, "recorded");
        recorded.push(adjusted);
    }

    let (heap_out, heap_peak) = alloc::peak_growth(|| workload::run_once(setup, None));
    reps.record(setup, &heap_out?, "heap-counted");

    // The run the replay follows, recorded for its boundary counts.
    let registry = Registry::new();
    let out = workload::run_once(setup, Some(&registry))?;
    reps.record(setup, &out, "recorded");
    let snapshot = registry.snapshot();
    let jobs_done = snapshot.counter_sum("service.jobs_done");
    if jobs_done != setup.trace.len() as u64 {
        reps.failures.push(format!(
            "recorder counted {jobs_done} finished jobs of {}",
            setup.trace.len()
        ));
    }

    let report = &out.report;
    let mut tracer = Tracer::new();
    // The replay's spans are rescaled to nominal host speed, like the run
    // calls they decompose.
    let before = speed::reference_s();
    let counts = spans::replay(setup, &out, &mut tracer)?;
    let scale = speed::NOMINAL_S / (0.5 * (before + speed::reference_s()));
    if counts.mismatches > 0 {
        reps.failures.push(format!(
            "replay reproduced {} of {} compared jobs",
            counts.compared - counts.mismatches,
            counts.compared
        ));
    }
    let layers: BTreeMap<&'static str, LayerTime> = tracer
        .layers()
        .into_iter()
        .map(|(name, l)| {
            let at_nominal = |ns: u64| (ns as f64 * scale) as u64;
            let total_ns = at_nominal(l.total_ns);
            let self_ns = at_nominal(l.self_ns);
            (
                name,
                LayerTime {
                    total_ns,
                    self_ns,
                    ..l
                },
            )
        })
        .collect();
    let traced = Traced {
        setup,
        report,
        out: &out,
        snapshot: &snapshot,
        layers: &layers,
        counts,
        host_plain: median(&plain),
        host_recorded: median(&recorded),
        heap_peak,
    };
    let (metrics, lines) = layer_metrics(&traced);

    let dir = &opts.out_dir;
    let name = setup.workload.name();
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let spans_path = dir.join(format!("spans-{name}.json"));
    std::fs::write(&spans_path, tracer.to_json())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let metrics_path = dir.join(format!("registry-{name}.json"));
    std::fs::write(&metrics_path, snapshot.to_json())
        .map_err(|e| format!("{}: {e}", metrics_path.display()))?;
    Ok(reps.outcome(metrics, lines))
}

/// Per-job microseconds of a job-level span's self time.
fn per_job_us(t: &Traced<'_>, name: &str) -> f64 {
    let layer = t.layers.get(name).copied().unwrap_or_default();
    layer.self_ns as f64 / t.counts.jobs.max(1) as f64 / 1e3
}

fn per_call(t: &Traced<'_>, name: &str) -> f64 {
    t.layers.get(name).map_or(0.0, LayerTime::self_per_call_ns)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics(t: &Traced<'_>) -> (Vec<Metric>, Vec<String>) {
    let setup = t.setup;
    let report = t.report;
    let jobs = setup.trace.len() as f64;
    let replayed = t.counts.jobs.max(1) as f64;
    let summary = report.service.clone().unwrap_or_default();
    let replication = summary.replication.unwrap_or_default();
    let online = report.online_summary();
    let explored: u64 = report
        .jobs
        .iter()
        .filter_map(|j| j.accounting.online)
        .map(|o| u64::from(o.explored_iterations))
        .sum();
    // Calibrations that converged and published, out of all started
    // (monitors re-publishing after drift are not calibrations).
    let calibrations_published = report
        .jobs
        .iter()
        .filter(|j| {
            j.published_version.is_some()
                && j.accounting
                    .online
                    .is_some_and(|o| o.explored_iterations > 0)
        })
        .count();
    let net = t.out.net.as_ref();
    let frames_per_job = net.map_or(0.0, |n| n.frames_sent as f64 / jobs);

    let host_us = t.host_plain / jobs * 1e6;
    let events_per_job = summary.events as f64 / jobs;
    let dispatch = t.layers.get("simkit.dispatch").copied().unwrap_or_default();
    let dispatch_ns = ratio(dispatch.total_ns as f64, summary.events as f64);
    let frame_ns = per_call(t, "rrl.net.frame");
    // Gossip rounds cost their replayed self time each, as many per job
    // as the run drove.
    let round_ns = per_call(t, "rrl.net.gossip_round");
    let rounds_per_job = replication.gossip_rounds as f64 / jobs;
    let engine_ns = per_call(t, "simnode.run_region");
    let predict_ns = per_call(t, "enermodel.predict");
    let explorations = t.layers.get("ptf.exploration").map_or(0, |l| l.calls);
    let region_events_per_job = t.counts.region_events as f64 / replayed;
    let baseline_visits_per_job = t.counts.baseline_visits as f64 / replayed;

    // Rows that add up to the run call's host time per job.
    let rows: Vec<(&str, f64, f64, f64)> = vec![
        (
            "simkit.dispatch",
            dispatch_ns / 1e3,
            events_per_job,
            dispatch_ns * events_per_job / 1e3,
        ),
        row(t, "rrl.repository.serve"),
        row(t, "rrl.session.tuned"),
        row(t, "rrl.online.calibrate"),
        row(t, "ptf.exploration"),
        row(t, "rrl.session.baseline"),
        row(t, "rrl.repository.publish"),
        (
            "rrl.net.gossip_round",
            round_ns / 1e3,
            rounds_per_job,
            round_ns * rounds_per_job / 1e3,
        ),
    ];
    let explained: f64 = rows.iter().map(|r| r.3).sum();
    let remainder = host_us - explained;
    let pct = |us: f64| ratio(100.0 * us, host_us);

    let mut lines = vec![
        format!(
            "decomposition of {} (seed-generated trace of {} jobs; {} replayed):",
            setup.workload.name(),
            jobs,
            t.counts.jobs
        ),
        format!(
            "  {:<28} {:>12} {:>12} {:>12} {:>8}",
            "layer (self time)", "us/call", "calls/job", "us/job", "% e2e"
        ),
    ];
    for (name, us_call, calls, us_job) in &rows {
        lines.push(format!(
            "  {name:<28} {us_call:>12.3} {calls:>12.3} {us_job:>12.3} {:>8.1}",
            pct(*us_job)
        ));
    }
    let engine_us = engine_ns / 1e3;
    let engine_visits = region_events_per_job / 2.0 + baseline_visits_per_job;
    let predict_calls = explorations as f64 * t.counts.predicts_per_exploration as f64 / replayed;
    for (name, us_call, calls) in [
        ("  of which simnode.run_region", engine_us, engine_visits),
        (
            "  of which enermodel.predict",
            predict_ns / 1e3,
            predict_calls,
        ),
    ] {
        lines.push(format!(
            "  {name:<28} {us_call:>12.3} {calls:>12.3} {:>12.3} {:>8.1}",
            us_call * calls,
            pct(us_call * calls)
        ));
    }
    lines.push(format!(
        "  {:<28} {:>12} {:>12} {:>12.3} {:>8.1}",
        "remainder (unexplained)",
        "",
        "",
        remainder,
        pct(remainder)
    ));
    lines.push(format!(
        "  {:<28} {:>12} {:>12} {:>12.3} {:>8.1}",
        "end to end (run call)", "", "", host_us, 100.0
    ));
    let format_us = t
        .layers
        .get("rrl.cluster.format_report")
        .map_or(0.0, |l| l.total_ns as f64 / jobs / 1e3);
    lines.push(format!(
        "  after the run call: rrl.cluster.format_report {format_us:.3} us/job"
    ));
    if setup.replicated() {
        lines.push(format!(
            "  gossip replay: {} rounds over the run's publications (run: {} rounds)",
            t.counts.gossip_rounds, replication.gossip_rounds
        ));
    }

    let parked =
        t.snapshot.counter_sum("service.parked") + t.snapshot.counter_sum("service.repair_parked");
    let tune_ms = if setup.tune_s.is_empty() {
        0.0
    } else {
        1e3 * setup.tune_s.iter().sum::<f64>() / setup.tune_s.len() as f64
    };
    let applied = replication.applied + replication.superseded;
    let metrics = vec![
        metric(
            "rrl.session.baseline_us",
            per_call(t, "rrl.session.baseline") / 1e3,
            "us",
            "replayed RuntimeSession::static_run, per job",
        ),
        metric(
            "rrl.session.tuned_us",
            per_call(t, "rrl.session.tuned") / 1e3,
            "us",
            "replayed serving session (plain or monitor), per job",
        ),
        metric(
            "rrl.session.region_events_per_job",
            region_events_per_job,
            "count",
            "region enter+exit events per replayed job",
        ),
        metric(
            "simnode.run_region_ns",
            engine_ns,
            "ns",
            "replayed ExecutionEngine::run_region, per region visit",
        ),
        metric(
            "rrl.repository.serve_ns",
            per_call(t, "rrl.repository.serve"),
            "ns",
            "replayed repository serve, per job",
        ),
        metric(
            "rrl.repository.hit_ratio",
            report.repository.hit_rate(),
            "ratio",
            "run: hits / lookups",
        ),
        metric(
            "rrl.repository.publish_us",
            per_call(t, "rrl.repository.publish") / 1e3,
            "us",
            "replayed publish_online, per publication",
        ),
        metric(
            "rrl.repository.publications",
            report.repository.publications as f64,
            "count",
            "run: publications",
        ),
        metric(
            "simkit.events_per_job",
            events_per_job,
            "count",
            "run: kernel events / jobs",
        ),
        metric(
            "simkit.dispatch_ns",
            dispatch_ns,
            "ns",
            "replayed Kernel::run over the run's event count, per event",
        ),
        metric(
            "rrl.service.parked_per_job",
            parked as f64 / jobs,
            "count",
            "recorder: parked jobs / jobs",
        ),
        metric(
            "rrl.service.host_us_per_job",
            host_us,
            "us",
            "host clock at nominal speed; median untraced run call / jobs",
        ),
        metric(
            "rrl.service.remainder_pct",
            pct(remainder),
            "%",
            "end-to-end time per job the layers do not explain",
        ),
        metric(
            "rrl.cluster.format_report_us_per_job",
            format_us,
            "us",
            "replayed ClusterReport::format_report / jobs",
        ),
        metric(
            "rrl.cluster.rss_kb_per_job",
            t.heap_peak as f64 / 1024.0 / jobs,
            "KB",
            "peak heap growth of one run call / jobs",
        ),
        metric(
            "rrl.online.calibrate_us",
            per_call(t, "rrl.online.calibrate") / 1e3,
            "us",
            "replayed calibration session self time, per calibration",
        ),
        metric(
            "rrl.online.calibrations",
            online.calibrations as f64,
            "count",
            "run: calibrations",
        ),
        metric(
            "rrl.online.publish_ratio",
            ratio(calibrations_published as f64, online.calibrations as f64),
            "ratio",
            "run: calibrations that published / calibrations",
        ),
        metric(
            "rrl.online.explored_iterations",
            explored as f64,
            "count",
            "run: phase iterations spent exploring",
        ),
        metric(
            "ptf.engine_runs",
            explorations as f64,
            "count",
            "replayed SearchStrategy::exploration calls",
        ),
        metric(
            "ptf.exploration_us",
            per_call(t, "ptf.exploration") / 1e3,
            "us",
            "replayed exploration call",
        ),
        metric(
            "enermodel.predict_ns",
            predict_ns,
            "ns",
            "replayed EnergyModel::predict_enorm",
        ),
        metric(
            "rrl.net.frame_roundtrip_ns",
            frame_ns,
            "ns",
            "replayed frame encode+decode of a publication",
        ),
        metric(
            "rrl.net.gossip_round_us",
            round_ns / 1e3,
            "us",
            "replayed gossip round (every replica pumps, then delivery)",
        ),
        metric(
            "rrl.net.frames_per_job",
            frames_per_job,
            "count",
            "run: transport frames sent / jobs",
        ),
        metric(
            "rrl.net.gossip_rounds",
            replication.gossip_rounds as f64,
            "count",
            "run: gossip rounds",
        ),
        metric(
            "rrl.net.superseded_ratio",
            ratio(replication.superseded as f64, applied as f64),
            "ratio",
            "run: stale / received remote entries",
        ),
        metric(
            "rrl.net.repair_release_ratio",
            ratio(
                replication.repair_released as f64,
                replication.repair_pulls as f64,
            ),
            "ratio",
            "run: jobs released / read-repair pulls",
        ),
        metric(
            "rrl.net.converge_ms",
            net.map_or(0.0, |n| n.converge_ms),
            "ms",
            "host clock; batch converge after the run",
        ),
        metric(
            "enermodel.train_s",
            setup.train_s,
            "s",
            "host clock; energy-model training in set-up",
        ),
        metric(
            "ptf.tune_app_ms",
            tune_ms,
            "ms",
            "host clock; mean design-time tuning per application",
        ),
        metric(
            "obskit.overhead_pct",
            ratio(100.0 * (t.host_recorded - t.host_plain), t.host_plain),
            "%",
            "recorded vs untraced median run call",
        ),
    ];
    (metrics, lines)
}

/// A decomposition row from a job-level span: (name, us per call,
/// calls per job, us per job).
fn row(t: &Traced<'_>, name: &'static str) -> (&'static str, f64, f64, f64) {
    let layer = t.layers.get(name).copied().unwrap_or_default();
    let replayed = t.counts.jobs.max(1) as f64;
    (
        name,
        layer.self_per_call_ns() / 1e3,
        layer.calls as f64 / replayed,
        per_job_us(t, name),
    )
}
