//! Telemetry overhead on the hot paths: the same workloads as
//! `vtime.rs`'s kernel dispatch and the shared repository's stored-model
//! serve, each run once with the [`obskit::NoopRecorder`] (recording
//! off — the default every existing call site gets) and once with a full
//! [`obskit::Registry`] attached.
//!
//! The pair is the overhead budget the observability layer promises:
//! `dispatch_1m_noop` must stay within 15 % of the unrecorded
//! `vtime/kernel/dispatch_1m_events` baseline (the noop path is one
//! `enabled()` check and then the plain loop), and `dispatch_1m_recorded`
//! documents the cost of block-batched full recording. CI archives the
//! numbers as `BENCH_obs.json` via the harness's `CRITERION_SUMMARY_JSON`
//! hook and diffs them against the committed baseline.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use kernels::toy_benchmark;
use obskit::{NoopRecorder, Recorder, Registry};
use ptf::TuningModel;
use rrl::SharedRepository;
use simkit::{EventSink, Kernel, Process, Time};
use simnode::SystemConfig;

const KERNEL_EVENTS: u64 = 1_000_000;
const SERVES: usize = 100_000;

/// The `vtime.rs` timer-chain process, verbatim: every handled event
/// schedules its successor until the budget is spent, keeping 1 024
/// interleaved chains in the heap so the measurement is dispatch +
/// reschedule.
struct TimerChains {
    remaining: u64,
}

impl Process<u64> for TimerChains {
    type Error = std::convert::Infallible;

    fn handle(
        &mut self,
        _now: Time,
        chain: u64,
        sink: &mut dyn EventSink<u64>,
    ) -> Result<(), Self::Error> {
        if self.remaining > 0 {
            self.remaining -= 1;
            sink.schedule_in(1 + chain % 97, chain);
        }
        Ok(())
    }
}

fn run_chains(recorder: &dyn Recorder) -> u64 {
    let mut kernel = Kernel::new();
    for chain in 0..1024u64 {
        kernel.schedule_at(1 + chain % 97, chain);
    }
    let mut process = TimerChains {
        remaining: KERNEL_EVENTS,
    };
    kernel
        .run_recorded(&mut process, recorder)
        .expect("infallible");
    assert!(kernel.is_quiesced());
    kernel.processed()
}

/// Kernel dispatch with recording off (the everyone-else path) and on.
fn bench_recorded_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/kernel");
    group.bench_function("dispatch_1m_noop", |b| {
        b.iter(|| black_box(run_chains(&NoopRecorder)))
    });
    group.bench_function("dispatch_1m_recorded", |b| {
        b.iter(|| {
            let registry = Registry::new();
            let processed = run_chains(&registry);
            let snapshot = registry.snapshot();
            assert_eq!(snapshot.counter_sum("kernel.events"), processed);
            black_box(processed)
        })
    });
    group.finish();
}

/// Stored-model serving through the lock-striped repository: the
/// per-shard counters are the recorded cost, on top of one lock
/// round-trip per serve either way.
fn bench_recorded_serving(c: &mut Criterion) {
    let bench = toy_benchmark("obs", 1e10, 1);
    let cfg = SystemConfig::new(24, 2400, 1900);
    let model = TuningModel::new(&bench.name, &[("omp parallel:1".into(), cfg)], cfg);

    let mut group = c.benchmark_group("obs/repo");
    group.bench_function("serve_stored_100k_noop", |b| {
        let repo = SharedRepository::new(8);
        repo.insert(&bench, &model);
        b.iter(|| {
            for _ in 0..SERVES {
                black_box(repo.serve_stored(&bench).expect("no error"));
            }
        })
    });
    group.bench_function("serve_stored_100k_recorded", |b| {
        let registry: Arc<Registry> = Arc::new(Registry::new());
        let repo = SharedRepository::new(8).with_recorder(registry.clone());
        repo.insert(&bench, &model);
        b.iter(|| {
            for _ in 0..SERVES {
                black_box(repo.serve_stored(&bench).expect("no error"));
            }
        });
        assert!(registry.snapshot().counter_sum("repo.hits") >= SERVES as u64);
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_recorded_dispatch, bench_recorded_serving
}
criterion_main!(benches);
