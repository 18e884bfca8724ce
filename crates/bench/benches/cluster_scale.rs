//! The cluster-scale serving benchmark: one full 1 024-job / 32-node
//! submission wave through the `ClusterScheduler`, three ways:
//!
//! * `sequential_1024x32` — the sequential sweep loop (`run`),
//! * `parallel_1024x32_w1` / `_w2` — the parallel event loop
//!   (`run_parallel`) over the lock-striped `SharedRepository` at fixed
//!   worker counts, so the entry names do not depend on the host,
//! * `service_1024x32` — the discrete-event kernel loop (`run_service`)
//!   over the same wave with every arrival at t = 0.
//!
//! All three produce bit-identical per-job accounting (property-tested
//! in `tests/runtime.rs` and by testkit's `event_core` invariant); this
//! bench records their throughput. The `_w2` figure only gains over
//! `_w1` on a host with at least two cores.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use kernels::{BenchmarkSpec, ProgrammingModel, RegionSpec, Suite};
use ptf::TuningModel;
use rrl::{ClusterScheduler, JobArrival, ServiceConfig, SharedRepository, TuningModelRepository};
use simnode::{Cluster, RegionCharacter, SystemConfig};

const JOBS: usize = 1024;
const NODES: u32 = 32;

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

fn wave() -> (Vec<BenchmarkSpec>, Vec<TuningModel>) {
    let benches = vec![
        workload("stream-like", 1.2e10, 2.0, 10),
        workload("compute-like", 2.0e10, 0.3, 8),
        workload("mixed", 1.6e10, 1.0, 12),
    ];
    let configs = [
        SystemConfig::new(24, 2100, 2300),
        SystemConfig::new(24, 2500, 1500),
        SystemConfig::new(24, 2400, 1900),
    ];
    let models = benches
        .iter()
        .zip(configs)
        .map(|(b, cfg)| TuningModel::new(&b.name, &[("omp parallel:1".into(), cfg)], cfg))
        .collect();
    (benches, models)
}

fn submit_wave(sched: &mut ClusterScheduler<'_>, benches: &[BenchmarkSpec]) {
    for i in 0..JOBS {
        let bench = &benches[i % benches.len()];
        sched.submit(format!("job-{i:04}"), bench.clone());
    }
}

/// The same wave as a service trace: every job arrives at t = 0.
fn wave_trace(benches: &[BenchmarkSpec]) -> Vec<JobArrival> {
    (0..JOBS)
        .map(|i| JobArrival {
            name: format!("job-{i:04}"),
            bench: benches[i % benches.len()].clone(),
            arrival_s: 0.0,
        })
        .collect()
}

/// One full submission wave: sequential, parallel and kernel loops.
fn bench_cluster_scale(c: &mut Criterion) {
    let cluster = Cluster::new(NODES, 0x5CA1E);
    let (benches, models) = wave();
    let mut group = c.benchmark_group("rrl/cluster_scale");
    group.sample_size(10);

    let mut repo = TuningModelRepository::new().with_fallback(SystemConfig::new(24, 2400, 1700));
    for (b, m) in benches.iter().zip(&models) {
        repo.insert(b, m);
    }
    group.bench_function(format!("sequential_{JOBS}x{NODES}"), |b| {
        b.iter(|| {
            let mut sched = ClusterScheduler::new(&cluster).unwrap();
            submit_wave(&mut sched, &benches);
            black_box(sched.run(&mut repo).unwrap().aggregate)
        })
    });

    let shared = SharedRepository::new(16).with_fallback(SystemConfig::new(24, 2400, 1700));
    for (b, m) in benches.iter().zip(&models) {
        shared.insert(b, m);
    }
    for workers in [1, 2] {
        group.bench_function(format!("parallel_{JOBS}x{NODES}_w{workers}"), |b| {
            b.iter(|| {
                let mut sched = ClusterScheduler::new(&cluster).unwrap();
                submit_wave(&mut sched, &benches);
                black_box(sched.run_parallel(&shared, workers).unwrap().aggregate)
            })
        });
    }

    group.bench_function(format!("service_{JOBS}x{NODES}"), |b| {
        b.iter(|| {
            let mut sched = ClusterScheduler::new(&cluster).unwrap();
            let trace = wave_trace(&benches);
            black_box(
                sched
                    .run_service(trace, &mut repo, &ServiceConfig::default())
                    .unwrap()
                    .aggregate,
            )
        })
    });
    group.finish();
}

/// The shared-repository serve hot path under thread contention: every
/// worker hammering the same striped map (the per-admission cost of the
/// parallel event loop).
fn bench_shared_repository(c: &mut Criterion) {
    let (benches, models) = wave();
    let shared = SharedRepository::new(16);
    for (b, m) in benches.iter().zip(&models) {
        shared.insert(b, m);
    }
    let mut group = c.benchmark_group("rrl/shared_repository");
    group.bench_function("serve_striped", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            black_box(shared.serve(&benches[i % benches.len()]).unwrap())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_cluster_scale, bench_shared_repository
}
criterion_main!(benches);
