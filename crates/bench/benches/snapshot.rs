//! Shared-repository serving benchmarks.
//!
//! Three shapes of the striped-lock `SharedRepository` read path. The
//! group and entry names are kept from the retired lock-free snapshot
//! backend so the committed baselines stay comparable:
//!
//! * `serve_uncontended` — a single thread: the baseline per-lookup cost
//!   with nobody else in the way.
//! * `serve_contended_16r_locked` — 16 reader threads hammering the same
//!   shards concurrently. Serving takes the shard lock exclusively (a hit
//!   touches LRU recency), so readers serialise per shard; on a 2-core
//!   host the sweep ran no slower than the lock-free snapshot backend
//!   it outlived (see `docs/ARCHITECTURE.md` § "Why a striped lock").
//! * `publish_under_load` — one writer publishing version bumps while 15
//!   readers keep serving: the publish cost including waiting for the
//!   shard's write lock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use kernels::{BenchmarkSpec, ProgrammingModel, RegionSpec, Suite};
use ptf::TuningModel;
use rrl::SharedRepository;
use simnode::{RegionCharacter, SystemConfig};

const READERS: usize = 16;
/// Serves per reader thread per measured sweep — large enough that the
/// serve work dwarfs the 16 thread spawns.
const SERVES_PER_READER: usize = 2_000;

fn workload(name: &str, instr: f64) -> BenchmarkSpec {
    BenchmarkSpec::new(
        name,
        Suite::Npb,
        ProgrammingModel::OpenMp,
        10,
        vec![RegionSpec::new(
            "omp parallel:1",
            RegionCharacter::builder(instr).dram_bytes(instr).build(),
        )],
    )
}

fn model(bench: &BenchmarkSpec, cfg: SystemConfig) -> TuningModel {
    TuningModel::new(&bench.name, &[("omp parallel:1".into(), cfg)], cfg)
}

fn seeded(repo: SharedRepository, benches: &[BenchmarkSpec]) -> SharedRepository {
    for (i, b) in benches.iter().enumerate() {
        repo.insert(
            b,
            &model(b, SystemConfig::new(24, 2100 + i as u32 * 100, 1900)),
        );
    }
    repo
}

/// One contended sweep: `READERS` threads, each serving its slice of the
/// workload mix `SERVES_PER_READER` times.
fn contended_sweep(repo: &SharedRepository, benches: &[BenchmarkSpec]) -> u64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|r| {
                scope.spawn(move || {
                    let mut served = 0u64;
                    for i in 0..SERVES_PER_READER {
                        let bench = &benches[(r + i) % benches.len()];
                        if repo.serve_stored(bench).unwrap().is_some() {
                            served += 1;
                        }
                    }
                    served
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

fn bench_serving(c: &mut Criterion) {
    let benches: Vec<BenchmarkSpec> = (0..4)
        .map(|i| workload(&format!("snap-{i}"), 1.0e10 + i as f64))
        .collect();

    let mut group = c.benchmark_group("rrl/snapshot");

    let repo = seeded(SharedRepository::new(4), &benches);
    group.bench_function("serve_uncontended", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            black_box(repo.serve_stored(&benches[i % benches.len()]).unwrap())
        })
    });

    group.bench_function(format!("serve_contended_{READERS}r_locked"), |b| {
        b.iter(|| black_box(contended_sweep(&repo, &benches)))
    });

    group.finish();
}

fn bench_publish_under_load(c: &mut Criterion) {
    let benches: Vec<BenchmarkSpec> = (0..4)
        .map(|i| workload(&format!("snap-{i}"), 1.0e10 + i as f64))
        .collect();
    let repo = Arc::new(seeded(SharedRepository::new(4), &benches));

    // 15 background readers keep the shard locks busy while the
    // measured thread publishes version bumps over them.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS - 1)
        .map(|r| {
            let repo = Arc::clone(&repo);
            let stop = Arc::clone(&stop);
            let benches = benches.clone();
            std::thread::spawn(move || {
                let mut i = r;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    black_box(repo.serve_stored(&benches[i % benches.len()]).unwrap());
                }
            })
        })
        .collect();

    let mut group = c.benchmark_group("rrl/snapshot");
    group.bench_function("publish_under_load", |b| {
        let target = &benches[0];
        let mut k = 0usize;
        b.iter(|| {
            k += 1;
            let cfg = SystemConfig::new(24, 2000 + (k % 8) as u32 * 100, 1900);
            black_box(repo.publish_online(target, &model(target, cfg), Vec::new()))
        })
    });
    group.finish();

    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().unwrap();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_serving, bench_publish_under_load
}
criterion_main!(benches);
