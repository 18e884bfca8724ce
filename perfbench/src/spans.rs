//! In-memory spans, and the replay that fills them.
//!
//! The traced run cannot time layers inside the service loop without
//! changing the program, so it replays — from this file — the calls the
//! loop makes into each layer's public functions, on the workload's own
//! trace and in the roles the real run assigned (which jobs hit, which
//! calibrated, on which node). Each call is timed inside a span (name,
//! start, end, parent span, job id). A layer's self time is its span's
//! duration minus the child spans it covers.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::Mutex;
use std::time::Instant;

use kernels::BenchmarkSpec;
use ptf::{
    ExplorationInputs, ExplorationPlan, ModelBasedNeighbourhood, SearchStrategy, TuningError,
};
use rrl::net::{self, Message, NetError, ReplicaSet, ReplicatedModel, Stamp};
use rrl::{
    ModelPublication, ModelSource, OnlineConfig, OnlineTuner, RegionExit, RuntimeError,
    RuntimeSession, TuningModelRepository,
};
use simkit::{EventSink, Kernel, Process, Time};
use simnode::{ExecutionEngine, FreqDomain, Node, SystemConfig};

use crate::workload::{fallback, RunOutput, Setup, Workload};

/// Jobs of the trace the replay covers (from the front).
pub const REPLAY_JOBS: usize = 4_000;

/// Jobs whose region visits are replayed through the execution engine.
const ENGINE_JOBS: usize = 256;

/// Calibrations whose energy-model sweep is replayed call by call.
const PREDICT_CALIBRATIONS: usize = 16;

/// Gossip rounds after which a replayed publication counts as stuck.
const MAX_SETTLE_ROUNDS: u64 = 1_000;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer function the span times.
    pub name: &'static str,
    /// Trace index of the job the call served, if any.
    pub job: Option<u32>,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Calls, total and self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans recorded.
    pub calls: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed durations minus covered children, ns.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per call, ns (0 without calls).
    pub fn self_per_call_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: Option<u32>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        self.spans[idx as usize].start_ns = self.now_ns();
        let out = f(self);
        self.spans[idx as usize].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Record a span timed elsewhere on this tracer's clock, as a child
    /// of the innermost open span.
    fn adopt(&mut self, name: &'static str, job: Option<u32>, start_ns: u64, end_ns: u64) {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Calls, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let total = span.end_ns - span.start_ns;
            let layer = out.entry(span.name).or_default();
            layer.calls += 1;
            layer.total_ns += total;
            layer.self_ns += total.saturating_sub(covered);
        }
        out
    }

    /// The spans as a JSON document, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 16);
        out.push_str("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}{}\n",
                s.name,
                opt(s.job),
                opt(s.parent),
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// The paper's search strategy, with every exploration call timed on a
/// tracer clock — the boundary between the online tuner and `ptf`.
#[derive(Debug)]
struct TimedStrategy {
    inner: ModelBasedNeighbourhood,
    epoch: Instant,
    calls: Mutex<Vec<(u64, u64)>>,
}

impl SearchStrategy for TimedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn exploration(&self, inputs: &ExplorationInputs<'_>) -> Result<ExplorationPlan, TuningError> {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let plan = self.inner.exploration(inputs);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.calls
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((start, end));
        plan
    }
}

/// What the replay counted besides span times.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// Jobs replayed.
    pub jobs: usize,
    /// Region enter/exit events of the replayed tuned sessions.
    pub region_events: u64,
    /// Region visits of the replayed baselines.
    pub baseline_visits: u64,
    /// Energy-model predictions in one exploration call.
    pub predicts_per_exploration: u64,
    /// Gossip rounds the replay drove.
    pub gossip_rounds: u64,
    /// Replayed accountings that differ from the run's report.
    pub mismatches: usize,
    /// Jobs whose replayed accounting was compared with the run's.
    pub compared: usize,
}

/// One region visit a session made: which region, in which phase
/// iteration, under which configuration.
struct Visit {
    job: u32,
    region: usize,
    iteration: u32,
    config: SystemConfig,
}

/// Drive a session the way the service loop does: every region's
/// enter/exit pair (`event`) in program order, then the phase boundary
/// (`phase`), until the iterations run out. Each visit's region,
/// iteration and configuration is appended to `visits`.
fn drive<S>(
    session: &mut S,
    bench: &BenchmarkSpec,
    iteration: impl Fn(&S) -> u32,
    mut event: impl FnMut(&mut S, &str) -> Result<RegionExit, RuntimeError>,
    mut phase: impl FnMut(&mut S) -> Result<(), RuntimeError>,
    visits: &mut Vec<(usize, u32, SystemConfig)>,
) -> Result<(), RuntimeError> {
    while iteration(session) < bench.phase_iterations {
        let iter = iteration(session);
        for (idx, region) in bench.regions.iter().enumerate() {
            let exit = event(session, &region.name)?;
            visits.push((idx, iter, exit.config));
        }
        phase(session)?;
    }
    Ok(())
}

fn drive_plain(
    session: &mut RuntimeSession<'_>,
    bench: &BenchmarkSpec,
    visits: &mut Vec<(usize, u32, SystemConfig)>,
) -> Result<(), RuntimeError> {
    drive(
        session,
        bench,
        RuntimeSession::phase_iteration,
        |s, name| {
            s.region_enter(name)?;
            s.region_exit(name)
        },
        |s| s.phase_complete().map(|_| ()),
        visits,
    )
}

fn drive_online(
    tuner: &mut OnlineTuner<'_>,
    bench: &BenchmarkSpec,
    visits: &mut Vec<(usize, u32, SystemConfig)>,
) -> Result<(), RuntimeError> {
    drive(
        tuner,
        bench,
        OnlineTuner::phase_iteration,
        |t, name| {
            t.region_enter(name)?;
            t.region_exit(name)
        },
        // An abandoned calibration keeps running as a degraded static
        // job, exactly as the scheduler lets it.
        |t| match t.phase_complete() {
            Ok(_) | Err(RuntimeError::ExplorationBudget { .. } | RuntimeError::Planning(_)) => {
                Ok(())
            }
            Err(other) => Err(other),
        },
        visits,
    )
}

/// The platform default clamped to what `node` runs: the baseline every
/// job's savings are measured against.
fn node_default(node: &Node) -> SystemConfig {
    let default = SystemConfig::taurus_default();
    default.with_threads(default.threads.min(node.topology().max_threads()))
}

/// A process that does nothing with its events: what is left of a
/// kernel run is pop, clock advance and dispatch.
struct Idle;

impl Process<()> for Idle {
    type Error = Infallible;

    fn handle(&mut self, _: Time, _: (), _: &mut dyn EventSink<()>) -> Result<(), Infallible> {
        Ok(())
    }
}

/// Drive gossip rounds, each timed in a span, until `set` settles;
/// returns the rounds driven.
fn settle(
    set: &mut ReplicaSet<'_>,
    tracer: &mut Tracer,
    job: Option<u32>,
) -> Result<u64, NetError> {
    let replicas = set.len() as u32;
    let mut rounds = 0;
    while !set.quiesced() && rounds < MAX_SETTLE_ROUNDS {
        tracer.span("rrl.net.gossip_round", job, |_| {
            for id in 0..replicas {
                set.pump_replica(id)?;
            }
            set.deliver_round()
        })?;
        rounds += 1;
    }
    Ok(rounds)
}

/// Replay the layer calls behind `out` (one run of `setup`'s trace)
/// into `tracer`.
pub fn replay(setup: &Setup, out: &RunOutput, tracer: &mut Tracer) -> Result<ReplayCounts, String> {
    let report = &out.report;
    let events = report.service.as_ref().map_or(0, |s| s.events);
    let err = |e: RuntimeError| format!("replay: {e}");
    let mut counts = ReplayCounts::default();
    let mut repo = match setup.workload {
        Workload::ColdReplicated => TuningModelRepository::new().with_fallback(fallback()),
        _ => setup.repository(),
    };
    let strategy = TimedStrategy {
        inner: ModelBasedNeighbourhood::paper(),
        epoch: tracer.epoch,
        calls: Mutex::new(Vec::new()),
    };
    let online = OnlineConfig::default();
    // A fresh fleet, like the run's own.
    let cluster = setup.cluster();
    let node_of = |id: u32| {
        cluster
            .iter()
            .find(|n| n.id() == id)
            .expect("reported node is in the fleet")
    };
    let mut engine_visits: Vec<Visit> = Vec::new();
    let mut calibrated: Vec<(usize, u32)> = Vec::new();
    let mut published: Vec<(usize, ModelPublication)> = Vec::new();

    for (i, (arrival, outcome)) in setup
        .trace
        .iter()
        .zip(&report.jobs)
        .take(REPLAY_JOBS)
        .enumerate()
    {
        let job = Some(i as u32);
        let bench = &arrival.bench;
        let node = node_of(outcome.node_id);
        let calibrating = outcome
            .accounting
            .online
            .is_some_and(|o| o.explored_iterations > 0);
        let mut visits = Vec::new();
        let (tuned, baseline) = tracer.span("job", job, |t| -> Result<_, String> {
            let tuned = if setup.workload != Workload::ColdReplicated {
                let served = t.span("rrl.repository.serve", job, |_| repo.serve(bench));
                let served = served.map_err(err)?;
                t.span("rrl.session.tuned", job, |_| {
                    let mut s = RuntimeSession::start(&arrival.name, bench, node, served)?;
                    drive_plain(&mut s, bench, &mut visits)?;
                    s.finish()
                })
                .map_err(err)?
            } else {
                let stored = t.span("rrl.repository.serve", job, |_| repo.serve_stored(bench));
                let stored = stored.map_err(err)?;
                if calibrating {
                    calibrated.push((i, outcome.node_id));
                    let outcome = t.span("rrl.online.calibrate", job, |t| {
                        let run = (|| {
                            let mut tuner = OnlineTuner::calibrate(
                                &arrival.name,
                                bench,
                                node,
                                &strategy,
                                Some(&setup.model),
                                online,
                            )?;
                            drive_online(&mut tuner, bench, &mut visits)?;
                            tuner.finish()
                        })();
                        let calls = std::mem::take(
                            &mut *strategy.calls.lock().unwrap_or_else(|e| e.into_inner()),
                        );
                        for (start, end) in calls {
                            t.adopt("ptf.exploration", job, start, end);
                        }
                        run
                    });
                    let outcome = outcome.map_err(err)?;
                    if let Some(publication) = outcome.publication {
                        let entry = ReplicatedModel {
                            application: bench.name.clone(),
                            fingerprint: bench.fingerprint(),
                            model_json: publication.model.to_json(),
                            expected: publication.expected.clone(),
                            stamp: Stamp {
                                version: 1,
                                publisher: 0,
                            },
                        };
                        t.span("rrl.repository.publish", job, |_| {
                            repo.publish_online(
                                bench,
                                &publication.model,
                                publication.expected.clone(),
                            )
                        });
                        published.push((i, publication));
                        let frame = Message::PushModels {
                            entries: vec![entry],
                        };
                        let decoded = t.span("rrl.net.frame", job, |_| {
                            net::decode(&net::encode(&frame)).map(|(m, _)| m)
                        });
                        if decoded.as_ref().ok() != Some(&frame) {
                            return Err("replay: publication frame did not round-trip".into());
                        }
                    }
                    outcome.accounting
                } else {
                    // Serve what the run served where the replay can: the
                    // fallback, or a stored model for a run hit.
                    let served = match stored {
                        Some(served) if outcome.accounting.source != ModelSource::Fallback => {
                            served
                        }
                        _ => repo.serve_fallback(bench).map_err(err)?,
                    };
                    let monitor = outcome.accounting.online.is_some()
                        && served.source != ModelSource::Fallback;
                    t.span("rrl.session.tuned", job, |_| {
                        if monitor {
                            let mut tuner =
                                OnlineTuner::monitor(&arrival.name, bench, node, served, online)?;
                            drive_online(&mut tuner, bench, &mut visits)?;
                            tuner.finish().map(|o| o.accounting)
                        } else {
                            let mut s = RuntimeSession::start(&arrival.name, bench, node, served)?;
                            drive_plain(&mut s, bench, &mut visits)?;
                            s.finish()
                        }
                    })
                    .map_err(err)?
                }
            };
            let baseline = t
                .span("rrl.session.baseline", job, |_| {
                    RuntimeSession::static_run(&arrival.name, bench, node, node_default(node))
                })
                .map_err(err)?;
            Ok((tuned, baseline))
        })?;

        counts.jobs += 1;
        counts.region_events += 2 * visits.len() as u64;
        counts.baseline_visits += u64::from(bench.phase_iterations) * bench.regions.len() as u64;
        // A plain session is a pure function of its job, node and served
        // model, so its replay must reproduce the run wherever the replay
        // serves the same model: every job of a single repository, and
        // fallback serves of a replica set (which stored entry a replica
        // held depends on gossip timing the replay skips). Online
        // sessions are not compared: what a calibration measures depends
        // on the node's counter noise, which the run's interleaving of
        // jobs advanced in another order.
        let same_model = !setup.replicated() || outcome.accounting.source == ModelSource::Fallback;
        if outcome.accounting.online.is_none() && same_model {
            counts.compared += 1;
            if tuned.record != outcome.accounting.record || baseline.record != outcome.default {
                counts.mismatches += 1;
            }
        }
        if i < ENGINE_JOBS {
            engine_visits.extend(visits.into_iter().map(|(region, iteration, config)| Visit {
                job: i as u32,
                region,
                iteration,
                config,
            }));
        }
    }

    // The execution engine, one call per region visit of the first jobs.
    let engine = ExecutionEngine::new();
    for visit in &engine_visits {
        let arrival = &setup.trace[visit.job as usize];
        let node = node_of(report.jobs[visit.job as usize].node_id);
        let character = arrival.bench.regions[visit.region].character_at(visit.iteration);
        let run = tracer.span("simnode.run_region", Some(visit.job), |_| {
            engine.run_region(&character, &visit.config, node)
        });
        std::hint::black_box(run);
    }

    // The energy model's frequency sweep, one call per prediction, for
    // the first calibrations' own phase rates.
    let core: Vec<u32> = FreqDomain::haswell_core().iter_mhz().collect();
    let uncore: Vec<u32> = FreqDomain::haswell_uncore().iter_mhz().collect();
    counts.predicts_per_exploration = (core.len() * uncore.len()) as u64;
    for &(i, node_id) in calibrated.iter().take(PREDICT_CALIBRATIONS) {
        let bench = &setup.trace[i].bench;
        let rates = ptf::phase_counter_rates(bench, node_of(node_id), SystemConfig::calibration());
        for &c in &core {
            for &u in &uncore {
                let e = tracer.span("enermodel.predict", Some(i as u32), |_| {
                    setup.model.predict_enorm(&rates, c, u)
                });
                std::hint::black_box(e);
            }
        }
    }

    // Kernel dispatch over as many events as the run dispatched.
    let gap_us = (setup.shape.mean_gap_s * 1e6) as u64;
    let Ok(()) = tracer.span("simkit.dispatch", None, |_| {
        let mut kernel: Kernel<()> = Kernel::new();
        for i in 0..events {
            kernel.schedule_at(i * gap_us / 8, ());
        }
        kernel.run(&mut Idle)
    });

    // Anti-entropy: the run's calibrations published again, each on its
    // node's home replica, with gossip rounds driven until the set
    // settles — the rounds the service loop schedules while it serves.
    if setup.replicated() {
        let net_err = |e: NetError| format!("replay: {e}");
        let mut set = setup.replica_set();
        let replicas = set.len() as u32;
        counts.gossip_rounds += settle(&mut set, tracer, None).map_err(net_err)?;
        for (i, publication) in published {
            let home = report.jobs[i].node_id % replicas;
            set.replica_mut(home).map_err(net_err)?.publish_model(
                &setup.trace[i].bench,
                &publication.model,
                publication.expected,
            );
            counts.gossip_rounds += settle(&mut set, tracer, Some(i as u32)).map_err(net_err)?;
        }
    }

    // Report assembly into text, which every consumer of a run pays.
    let text = tracer.span("rrl.cluster.format_report", None, |_| {
        report.format_report()
    });
    std::hint::black_box(text);
    Ok(counts)
}
