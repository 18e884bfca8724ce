//! Smoke runs of every workload at a few dozen jobs, the checks the
//! benchmark relies on, and the generator's purity.

use std::path::PathBuf;

use perfbench::gen::{self, HELD_OUT_SEED, TUNING_SEED};
use perfbench::measure::{execute, Options, Outcome};
use perfbench::workload::{self, Size, Workload};

const END_TO_END: [&str; 7] = [
    "jobs_per_s",
    "setup_s",
    "peak_rss_mb",
    "job_energy_saving_pct",
    "cpu_energy_saving_pct",
    "sim_latency_p99_s",
    "completed_frac",
];

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: TUNING_SEED,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        setups: 1,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    }
}

fn run(workload: Workload, trace: bool) -> Outcome {
    let outcome = execute(&options(workload, trace)).expect("smoke run succeeds");
    assert!(
        outcome.correct,
        "{}: {:?}",
        workload.name(),
        outcome.failures
    );
    assert!(outcome.attempted >= 3 * workload.shape(Size::Smoke).jobs as u64);
    assert_eq!(outcome.failed, 0);
    let json = outcome.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    outcome
}

fn smoke(workload: Workload) -> (Outcome, Outcome) {
    let plain = run(workload, false);
    for name in END_TO_END {
        let value = plain
            .metric(name)
            .unwrap_or_else(|| panic!("{name} reported"));
        assert!(value > 0.0, "{}: {name} = {value}", workload.name());
    }
    let traced = run(workload, true);
    assert_eq!(
        plain.digest, traced.digest,
        "untraced and traced runs agree job by job"
    );
    for name in [
        "rrl.session.baseline_us",
        "rrl.session.tuned_us",
        "simnode.run_region_ns",
        "rrl.repository.serve_ns",
        "simkit.dispatch_ns",
        "rrl.service.host_us_per_job",
        "rrl.cluster.format_report_us_per_job",
        "enermodel.train_s",
    ] {
        let value = traced
            .metric(name)
            .unwrap_or_else(|| panic!("{name} reported"));
        assert!(value > 0.0, "{}: {name} = {value}", workload.name());
    }
    assert!(traced.lines.iter().any(|l| l.contains("remainder")));
    let spans = options(workload, true)
        .out_dir
        .join(format!("spans-{}.json", workload.name()));
    let written = std::fs::read_to_string(spans).expect("spans written");
    assert!(written.contains("\"name\":\"rrl.session.baseline\""));
    (plain, traced)
}

#[test]
fn warm_apps_smoke() {
    let (_, traced) = smoke(Workload::WarmApps);
    assert_eq!(traced.metric("rrl.repository.hit_ratio"), Some(1.0));
    assert_eq!(traced.metric("rrl.online.calibrations"), Some(0.0));
    assert!(traced.metric("ptf.tune_app_ms").unwrap() > 0.0);
}

#[test]
fn small_jobs_smoke() {
    let (_, traced) = smoke(Workload::SmallJobs);
    assert_eq!(traced.metric("rrl.repository.hit_ratio"), Some(1.0));
    assert_eq!(
        traced.metric("rrl.session.region_events_per_job"),
        Some(2.0)
    );
}

#[test]
fn cold_replicated_smoke() {
    let (_, traced) = smoke(Workload::ColdReplicated);
    for name in [
        "rrl.online.calibrations",
        "rrl.online.calibrate_us",
        "ptf.engine_runs",
        "enermodel.predict_ns",
        "rrl.repository.publish_us",
        "rrl.net.frame_roundtrip_ns",
        "rrl.net.gossip_rounds",
        "rrl.net.gossip_round_us",
        "rrl.net.converge_ms",
    ] {
        let value = traced
            .metric(name)
            .unwrap_or_else(|| panic!("{name} reported"));
        assert!(value > 0.0, "{name} = {value}");
    }
    let ratio = traced.metric("rrl.online.publish_ratio").unwrap();
    assert!(
        ratio > 0.0 && ratio < 1.0,
        "some calibrations abandon: {ratio}"
    );
}

#[test]
fn checks_catch_broken_runs() {
    let setup = workload::setup(Workload::SmallJobs, Size::Smoke, TUNING_SEED).unwrap();
    let out = workload::run_once(&setup, None).unwrap();
    let mut failures = Vec::new();
    workload::check_run(&setup, &out, &mut failures);
    assert!(failures.is_empty(), "{failures:?}");
    let digest = workload::digest(&out.report);

    // A job missing from the report.
    let mut missing = workload::run_once(&setup, None).unwrap();
    missing.report.jobs.pop();
    workload::check_run(&setup, &missing, &mut failures);
    assert!(
        failures.iter().any(|f| f.contains("accounted")),
        "{failures:?}"
    );
    assert_eq!(workload::failed_jobs(&setup, &missing.report), 1);

    // Two jobs out of submission order.
    failures.clear();
    let mut swapped = workload::run_once(&setup, None).unwrap();
    swapped.report.jobs.swap(0, 1);
    workload::check_run(&setup, &swapped, &mut failures);
    assert!(failures.iter().any(|f| f.contains("order")), "{failures:?}");
    assert_ne!(workload::digest(&swapped.report), digest);

    // One job's savings changed: the digest must notice.
    let mut altered = workload::run_once(&setup, None).unwrap();
    assert_eq!(workload::digest(&altered.report), digest, "reruns agree");
    altered.report.jobs[3].savings.cpu_energy_pct += 1e-9;
    assert_ne!(workload::digest(&altered.report), digest);

    // An event core that did not quiesce.
    failures.clear();
    let mut stuck = workload::run_once(&setup, None).unwrap();
    stuck.report.service.as_mut().unwrap().quiesced = false;
    workload::check_run(&setup, &stuck, &mut failures);
    assert!(
        failures.iter().any(|f| f.contains("quiesced")),
        "{failures:?}"
    );
}

#[test]
fn generator_is_a_pure_function_of_its_seed() {
    let apps = kernels::all_benchmarks();
    for workload in Workload::ALL {
        let shape = workload.shape(Size::Smoke);
        let key = |seed| {
            gen::trace(workload, seed, &shape, &apps)
                .iter()
                .map(|a| (a.name.clone(), a.arrival_s.to_bits(), a.bench.fingerprint()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(TUNING_SEED), key(TUNING_SEED), "{}", workload.name());
        assert_eq!(key(HELD_OUT_SEED), key(HELD_OUT_SEED));
        assert_ne!(key(TUNING_SEED), key(HELD_OUT_SEED), "the seed matters");
    }
    let churn = |seed| format!("{:?}", gen::replica_churn(seed, 4, 500.0));
    assert_eq!(churn(TUNING_SEED), churn(TUNING_SEED));
    assert_ne!(churn(TUNING_SEED), churn(HELD_OUT_SEED));
}

#[test]
fn cold_mix_keeps_every_application_at_every_scale() {
    let apps = kernels::all_benchmarks();
    let shape = Workload::ColdReplicated.shape(Size::Full);
    let trace = gen::trace(Workload::ColdReplicated, TUNING_SEED, &shape, &apps);
    let mut workloads: Vec<u64> = trace.iter().map(|a| a.bench.fingerprint()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    assert_eq!(workloads.len(), apps.len() * gen::COLD_SCALES.len());
}
