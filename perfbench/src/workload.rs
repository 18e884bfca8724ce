//! The three workloads: set-up, one run of the service through its
//! public entry points, the per-job digest and the correctness checks.

use std::time::Instant;

use kernels::{BenchmarkSpec, Fnv1a};
use obskit::Registry;
use ptf::{Advice, EnergyModel, ModelBasedNeighbourhood, TuningSession};
use rrl::{
    ClusterReport, ClusterScheduler, FaultInjector, GossipConfig, JobArrival, OnlineConfig,
    OnlineTuning, ReplicaChurnEvent, ReplicaConfig, ReplicaSet, ServiceConfig,
    TuningModelRepository,
};
use simnode::{Cluster, Node, SystemConfig};

use crate::gen;

/// Calibration fallback served on repository misses.
pub fn fallback() -> SystemConfig {
    SystemConfig::new(24, 2400, 1700)
}

/// Seed of the simulated fleet (part of the system, not of the input).
const CLUSTER_SEED: u64 = 0xC1A5_7E55;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Resubmissions of every bundled application to a warm repository:
    /// the paper's production path, where every job is a hit.
    WarmApps,
    /// A high-volume trace of one-region, one-iteration jobs that all
    /// hit one stored model.
    SmallJobs,
    /// Distinct cold workloads arriving at a gossiping 4-replica set
    /// with replica crash/restart, tuned online.
    ColdReplicated,
}

/// How big a run is: the full benchmark, or the smoke size the tests
/// use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's own size.
    Full,
    /// A few dozen jobs: every check and layer, in seconds.
    Smoke,
}

/// The fixed shape of a workload's trace and fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Jobs per trace (one run call serves all of them).
    pub jobs: usize,
    /// Nodes in the fleet.
    pub nodes: u32,
    /// Concurrent sessions per node before arrivals queue.
    pub slots: usize,
    /// Mean gap between arrivals, virtual seconds.
    pub mean_gap_s: f64,
    /// Replicas serving the models (0 = one plain repository).
    pub replicas: u32,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::WarmApps,
        Workload::SmallJobs,
        Workload::ColdReplicated,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmApps => "warm_apps",
            Workload::SmallJobs => "small_jobs",
            Workload::ColdReplicated => "cold_replicated",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Trace and fleet shape. Every load is below saturation.
    pub fn shape(self, size: Size) -> Shape {
        let smoke = size == Size::Smoke;
        match self {
            // Bundled applications run ~11 s of virtual time at the
            // default configuration: 128 slots at ~57 % load, enough for
            // the p99 latency to carry some queue wait rather than only
            // the longest application's run time. 100 rounds of the
            // 19-application deck.
            Workload::WarmApps => Shape {
                jobs: if smoke { 57 } else { 1_900 },
                nodes: 64,
                slots: 2,
                mean_gap_s: 0.15,
                replicas: 0,
            },
            // The small job runs ~0.44 s: 64 single-slot nodes at ~86 %
            // load, so node queues form and the p99 latency carries the
            // queue wait the arrival jitter causes.
            Workload::SmallJobs => Shape {
                jobs: if smoke { 400 } else { 50_000 },
                nodes: 64,
                slots: 1,
                mean_gap_s: 0.008,
                replicas: 0,
            },
            // Scaled runs average ~50 s: 32 slots at about a quarter
            // load, which keeps the jobs parked behind a long
            // calibration few enough for a steady p99. 5 rounds of the
            // 76-workload deck (19 applications x 4 scales): every
            // workload calibrates once and is hit 4 times, in calls
            // short enough to repeat ~10 times a run.
            Workload::ColdReplicated => Shape {
                jobs: if smoke { 152 } else { 380 },
                nodes: 16,
                slots: 2,
                mean_gap_s: 6.0,
                replicas: 4,
            },
        }
    }
}

/// Everything a run needs, built before the clock starts.
pub struct Setup {
    /// The workload this set-up serves.
    pub workload: Workload,
    /// Its trace and fleet shape.
    pub shape: Shape,
    /// The trained energy model (the online tuner's predictor).
    pub model: EnergyModel,
    /// Design-time advice published into every fresh repository.
    pub advices: Vec<Advice>,
    /// The generated job trace.
    pub trace: Vec<JobArrival>,
    /// The generated replica crash/restart schedule.
    pub churn: Vec<ReplicaChurnEvent>,
    /// Host seconds of energy-model training.
    pub train_s: f64,
    /// Host seconds of each design-time tuning session.
    pub tune_s: Vec<f64>,
    /// Host seconds of the whole set-up.
    pub seconds: f64,
}

/// Build a workload's inputs: train the energy model, tune the
/// workload's applications at design time, fill a repository and
/// generate the trace.
pub fn setup(workload: Workload, size: Size, seed: u64) -> Result<Setup, String> {
    let start = Instant::now();
    let design_node = Node::exact(0);
    let clock = Instant::now();
    let model = EnergyModel::train_paper(&kernels::training_set(), &design_node);
    let train_s = clock.elapsed().as_secs_f64();

    let apps = kernels::all_benchmarks();
    let tuned: Vec<BenchmarkSpec> = match workload {
        Workload::WarmApps => apps.clone(),
        Workload::SmallJobs => vec![gen::small_job()],
        Workload::ColdReplicated => Vec::new(),
    };
    let mut advices = Vec::with_capacity(tuned.len());
    let mut tune_s = Vec::with_capacity(tuned.len());
    for bench in &tuned {
        let clock = Instant::now();
        let advice = TuningSession::builder(&design_node)
            .with_model(&model)
            .run(bench)
            .map_err(|e| format!("design-time tuning of {}: {e}", bench.name))?;
        tune_s.push(clock.elapsed().as_secs_f64());
        advices.push(advice);
    }

    let shape = workload.shape(size);
    let trace = gen::trace(workload, seed, &shape, &apps);
    let churn = match workload {
        Workload::ColdReplicated => {
            let span_s = trace.last().map_or(0.0, |a| a.arrival_s);
            gen::replica_churn(seed, shape.replicas, span_s)
        }
        _ => Vec::new(),
    };
    let mut setup = Setup {
        workload,
        shape,
        model,
        advices,
        trace,
        churn,
        train_s,
        tune_s,
        seconds: 0.0,
    };
    std::hint::black_box(setup.repository());
    setup.seconds = start.elapsed().as_secs_f64();
    Ok(setup)
}

impl Setup {
    /// A fresh repository holding every design-time model.
    pub fn repository(&self) -> TuningModelRepository {
        let mut repo = TuningModelRepository::new().with_fallback(fallback());
        for advice in &self.advices {
            repo.publish(advice);
        }
        repo
    }

    /// A fresh, empty replica set.
    pub fn replica_set(&self) -> ReplicaSet<'static> {
        ReplicaSet::new(
            self.shape.replicas,
            ReplicaConfig {
                fallback: Some(fallback()),
                ..ReplicaConfig::default()
            },
        )
    }

    /// The service knobs of this workload.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            slots_per_node: self.shape.slots,
        }
    }

    /// A fresh simulated fleet. Nodes carry state a run advances (the
    /// counter-noise generator, the programmed frequencies), so every
    /// run call gets its own fleet, as a rerun of the same inputs must.
    pub fn cluster(&self) -> Cluster {
        Cluster::new(self.shape.nodes, CLUSTER_SEED)
    }

    /// Whether this workload serves from a replica set.
    pub fn replicated(&self) -> bool {
        self.shape.replicas > 0
    }
}

/// The replica crash/restart schedule as a fault injector.
struct ChurnPlan<'s>(&'s [ReplicaChurnEvent]);

impl FaultInjector for ChurnPlan<'_> {
    fn replica_churn(&self) -> Vec<ReplicaChurnEvent> {
        self.0.to_vec()
    }
}

/// What the replica set looked like after a replicated run.
#[derive(Debug, Clone)]
pub struct NetAfter {
    /// Frames the simulated transport carried during the run.
    pub frames_sent: u64,
    /// Host milliseconds of the batch `ReplicaSet::converge` after the
    /// run.
    pub converge_ms: f64,
    /// The batch converge applied nothing and changed no model map.
    pub converge_noop: bool,
}

/// One run call and what it returned.
pub struct RunOutput {
    /// The service's report.
    pub report: ClusterReport,
    /// Host seconds of the run call alone.
    pub host_s: f64,
    /// Replica-set state after a replicated run.
    pub net: Option<NetAfter>,
}

/// Serve the whole trace once through `ClusterScheduler::run_service`
/// (or `run_service_replicated`), timing only that call. With a
/// `recorder` the scheduler records into it.
pub fn run_once(setup: &Setup, recorder: Option<&Registry>) -> Result<RunOutput, String> {
    let trace = setup.trace.clone();
    let cluster = setup.cluster();
    let config = setup.service_config();
    let err = |e: rrl::RuntimeError| format!("{} run: {e}", setup.workload.name());
    if !setup.replicated() {
        let mut repo = setup.repository();
        let mut sched = ClusterScheduler::new(&cluster).map_err(err)?;
        if let Some(recorder) = recorder {
            sched = sched.with_recorder(recorder);
        }
        let clock = Instant::now();
        let report = sched.run_service(trace, &mut repo, &config).map_err(err)?;
        let host_s = clock.elapsed().as_secs_f64();
        return Ok(RunOutput {
            report,
            host_s,
            net: None,
        });
    }

    let strategy = ModelBasedNeighbourhood::paper();
    let online = OnlineTuning {
        strategy: &strategy,
        energy_model: Some(&setup.model),
        config: OnlineConfig::default(),
    };
    let plan = ChurnPlan(&setup.churn);
    let mut set = setup.replica_set();
    let mut sched = ClusterScheduler::new(&cluster)
        .map_err(err)?
        .with_online(online)
        .with_faults(&plan);
    if let Some(recorder) = recorder {
        sched = sched.with_recorder(recorder);
    }
    let clock = Instant::now();
    let report = sched
        .run_service_replicated(trace, &mut set, &GossipConfig::default(), &config)
        .map_err(err)?;
    let host_s = clock.elapsed().as_secs_f64();

    let frames_sent = set.transport_stats().sent;
    let maps = |set: &ReplicaSet<'_>| -> Vec<_> {
        (0..set.len() as u32)
            .map(|id| set.replica(id).map(|r| r.model_map()).ok())
            .collect()
    };
    let (maps_before, totals_before) = (maps(&set), set.replication_totals());
    let clock = Instant::now();
    let converged = set.converge();
    let converge_ms = clock.elapsed().as_secs_f64() * 1e3;
    let converge_noop =
        converged.is_ok() && set.replication_totals() == totals_before && maps(&set) == maps_before;
    Ok(RunOutput {
        report,
        host_s,
        net: Some(NetAfter {
            frames_sent,
            converge_ms,
            converge_noop,
        }),
    })
}

/// A digest of every job's accounting, baseline, savings, model source
/// and publication, in report order. Two runs of the same inputs must
/// agree on it bit for bit, recorded or not.
pub fn digest(report: &ClusterReport) -> u64 {
    let mut hash = Fnv1a::new();
    for job in &report.jobs {
        let line = format!(
            "{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}\n",
            job.job,
            job.node_id,
            job.accounting,
            job.default,
            job.savings,
            job.published_version,
            job.rejection,
            job.aborted_at,
            job.drift,
        );
        hash = hash.update(line.as_bytes());
    }
    hash.update(format!("{:?}", report.aggregate).as_bytes())
        .finish()
}

/// Jobs that did not complete cleanly: missing from the report,
/// capability-rejected, or truncated by a fault.
pub fn failed_jobs(setup: &Setup, report: &ClusterReport) -> usize {
    let missing = setup.trace.len().saturating_sub(report.jobs.len());
    let degraded = report
        .jobs
        .iter()
        .filter(|j| j.rejection.is_some() || j.aborted_at.is_some())
        .count();
    missing + degraded
}

/// Check one run's outputs; every violated property is appended to
/// `failures`.
pub fn check_run(setup: &Setup, out: &RunOutput, failures: &mut Vec<String>) {
    let report = &out.report;
    let mut fail = |what: String| {
        if !failures.contains(&what) {
            failures.push(what);
        }
    };
    if report.jobs.len() != setup.trace.len() {
        fail(format!(
            "{} of {} submitted jobs accounted",
            report.jobs.len(),
            setup.trace.len()
        ));
    }
    let in_order = report
        .jobs
        .iter()
        .zip(&setup.trace)
        .all(|(job, arrival)| job.job == arrival.name && job.accounting.job == arrival.name);
    if !in_order {
        fail("jobs not accounted in submission order".into());
    }
    match &report.service {
        None => fail("service run without a service summary".into()),
        Some(summary) => {
            if !(summary.quiesced && summary.monotone) {
                fail(format!(
                    "event core: quiesced {} monotone {}",
                    summary.quiesced, summary.monotone
                ));
            }
            if !(summary.latency_s.p99 > 0.0 && summary.latency_s.p99.is_finite()) {
                fail(format!("p99 latency {}", summary.latency_s.p99));
            }
            if setup.replicated() {
                match summary.replication {
                    Some(r) if r.converged && r.net_idle => {}
                    other => fail(format!("replicated run did not settle: {other:?}")),
                }
            }
        }
    }
    if let Some(net) = &out.net {
        if !net.converge_noop {
            fail("batch converge after the run was not a no-op".into());
        }
    }
    let aggregate = report.aggregate;
    if !(aggregate.job_energy_pct.is_finite() && aggregate.cpu_energy_pct.is_finite()) {
        fail(format!("non-finite aggregate savings {aggregate:?}"));
    }
}
