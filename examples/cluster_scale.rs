//! Cluster-scale serving: 1 024 jobs across 32 nodes in one wave.
//!
//! ```text
//! cargo run --release --example cluster_scale
//! ```
//!
//! A 32-node cluster receives a 1 024-job wave mixing three tuned
//! workloads (repository hits), one never-tuned workload (calibration
//! fallback) and one *cold* workload that online-calibrates exactly once
//! — the first submitted job leads, the other 127 same-workload jobs park
//! until it publishes and then hit the published model. The wave runs
//! once through `ClusterScheduler::run` (the discrete-event kernel loop,
//! every job arriving at t = 0); the example prints the throughput and
//! asserts the warm-up shape and that every job was accounted.

use std::time::Instant;

use dvfs_ufs_tuning::kernels::{BenchmarkSpec, ProgrammingModel, RegionSpec, Suite};
use dvfs_ufs_tuning::ptf::{RandomSearch, TuningModel};
use dvfs_ufs_tuning::rrl::{
    ClusterScheduler, ModelSource, OnlineConfig, OnlineTuning, TuningModelRepository,
};
use dvfs_ufs_tuning::simnode::{Cluster, RegionCharacter, SystemConfig};

const JOBS: usize = 1024;
const NODES: u32 = 32;

/// A small synthetic workload: one OpenMP region, `iterations` phase
/// loops — cheap enough that a 1 024-job wave finishes in seconds.
fn workload(name: &str, instr: f64, ratio: f64, iterations: u32) -> BenchmarkSpec {
    BenchmarkSpec::new(
        name,
        Suite::Npb,
        ProgrammingModel::OpenMp,
        iterations,
        vec![RegionSpec::new(
            "omp parallel:1",
            RegionCharacter::builder(instr)
                .dram_bytes(ratio * instr)
                .build(),
        )],
    )
}

fn model_for(bench: &BenchmarkSpec, cfg: SystemConfig) -> TuningModel {
    TuningModel::new(&bench.name, &[("omp parallel:1".into(), cfg)], cfg)
}

/// The submission wave: job `i`'s workload is a pure function of `i`.
fn submit_wave(sched: &mut ClusterScheduler<'_>, queue: &[&BenchmarkSpec]) {
    for i in 0..JOBS {
        let bench = queue[i % queue.len()];
        sched.submit(format!("job-{i:04}-{}", bench.name), bench.clone());
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = Cluster::new(NODES, 0x5CA1E);
    let fallback = SystemConfig::new(24, 2400, 1700);
    let strategy = RandomSearch::new(12, 3);
    let online = OnlineTuning {
        strategy: &strategy,
        energy_model: None,
        config: OnlineConfig::default(),
    };

    // Three tuned workloads, one untuned (fallback), one cold (online).
    let tuned = [
        workload("stream-like", 1.2e10, 2.0, 10),
        workload("compute-like", 2.0e10, 0.3, 8),
        workload("mixed", 1.6e10, 1.0, 12),
    ];
    // Too few phase iterations to fund even a thread sweep: with online
    // tuning attached this workload still degrades cleanly to the
    // calibration fallback instead of calibrating.
    let untuned = workload("untuned", 1.0e10, 0.8, 5);
    let cold = workload("cold", 2.5e10, 1.2, 40);
    let configs = [
        SystemConfig::new(24, 2100, 2300),
        SystemConfig::new(24, 2500, 1500),
        SystemConfig::new(24, 2400, 1900),
    ];
    // job i → workload: 8-slot rotation, 1 slot cold (128 jobs), 1 slot
    // untuned (128 jobs), 6 slots tuned.
    let queue: Vec<&BenchmarkSpec> = vec![
        &tuned[0], &tuned[1], &cold, &tuned[2], &tuned[0], &untuned, &tuned[1], &tuned[2],
    ];

    let mut repo = TuningModelRepository::new().with_fallback(fallback);
    for (bench, cfg) in tuned.iter().zip(configs) {
        repo.insert(bench, &model_for(bench, cfg));
    }
    let mut sched = ClusterScheduler::new(&cluster)?.with_online(online);
    submit_wave(&mut sched, &queue);
    println!("driving {JOBS} jobs across {NODES} nodes through the kernel loop…");
    let start = Instant::now();
    let report = sched.run(&mut repo)?;
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "\nthroughput: {:>8.2} jobs/s  ({elapsed:.3} s)",
        report.jobs.len() as f64 / elapsed,
    );

    // Every submitted job is accounted, in submission order.
    assert_eq!(report.jobs.len(), JOBS);
    for (i, job) in report.jobs.iter().enumerate() {
        assert!(job.job.starts_with(&format!("job-{i:04}-")), "{}", job.job);
        assert!(job.accounting.record.elapsed_s > 0.0, "{}", job.job);
        assert!(job.default.elapsed_s > 0.0, "{}", job.job);
    }

    // The cold workload calibrates exactly once; its other 127 jobs hit
    // the published model from iteration zero.
    let cold_jobs: Vec<_> = report
        .jobs
        .iter()
        .filter(|j| j.benchmark == "cold")
        .collect();
    assert_eq!(cold_jobs.len(), JOBS / queue.len());
    let online_summary = report.online_summary();
    assert_eq!(online_summary.calibrations, 1);
    assert_eq!(cold_jobs[0].published_version, Some(1));
    let warmed = cold_jobs[1..]
        .iter()
        .filter(|j| {
            j.accounting.source == ModelSource::Online
                && j.accounting
                    .online
                    .is_some_and(|o| o.explored_iterations == 0)
        })
        .count();
    assert_eq!(warmed, cold_jobs.len() - 1);
    println!("warm-up: 1 calibration, {warmed} same-workload hits on the published model ✔");

    println!(
        "\naggregate savings: job {:.2}%  cpu {:.2}%  time {:.2}%  over {} nodes",
        report.aggregate.job_energy_pct,
        report.aggregate.cpu_energy_pct,
        report.aggregate.time_pct,
        report.nodes_used,
    );
    println!(
        "repository: {} hits / {} misses ({} fallback) — hit rate {:.1}%",
        report.repository.hits,
        report.repository.misses,
        report.repository.fallbacks,
        100.0 * report.repository.hit_rate(),
    );
    Ok(())
}
