//! The scenario engine's first customers: generated heterogeneous
//! scenarios with injected faults, checked against the full invariant
//! catalog — plus the acceptance properties of the engine itself
//! (bit-identical replays, shrinking to a one-line repro) and the
//! regression locks on the documented eviction-pressure caveat and the
//! capability-gap degrade path.

use dvfs_ufs_tuning::rrl::ModelSource;
use testkit::{GeneratorConfig, Scenario, ScenarioGenerator};

/// Satellite 1 — the PR 4 property loop, beyond uniform fleets: for
/// 3 seeds × {16, 96} jobs, a generated scenario (heterogeneous
/// variability, capability gaps, mixed warm/cold workloads, Poisson
/// arrivals) with faults injected (aborts, refused calibrations, drift
/// shifts) still produces sequential↔parallel bit-identical reports —
/// `testkit::check` verifies every per-job field plus the aggregates,
/// the statistics double-entry and version integrity.
#[test]
fn generated_heterogeneous_scenarios_bit_identical_with_faults() {
    for seed in [0x5EED_u64, 0xBEEF, 0xC0FFEE] {
        for jobs in [16usize, 96] {
            let generator = ScenarioGenerator::new(GeneratorConfig {
                jobs,
                nodes: 4 + (seed % 3) as usize,
                workloads: 4,
                fault_fraction: 0.25,
                ..GeneratorConfig::default()
            });
            let scenario = generator.generate(seed);
            assert!(
                !scenario.faults.is_empty(),
                "seed {seed:#x}: the property must run *with* faults"
            );
            let run = testkit::check(&scenario)
                .unwrap_or_else(|failure| panic!("seed {seed:#x} jobs {jobs}:\n{failure}"));
            // The scenario actually exercised the messy paths it
            // generated: heterogeneous placement and online warm-up.
            assert!(run.parallel.nodes_used >= 2, "seed {seed:#x}");
            assert!(
                run.parallel.online_summary().calibrations >= 1,
                "seed {seed:#x}: at least one cold workload calibrated"
            );
        }
    }
}

/// Acceptance — a seeded scenario with injected faults reproduces
/// bit-identically across two independent runs (generation, fleet and
/// repository construction, fault injection, both event loops: all pure
/// functions of the scenario value).
#[test]
fn seeded_fault_scenario_reproduces_bit_identically() {
    let generator = ScenarioGenerator::new(GeneratorConfig {
        jobs: 20,
        fault_fraction: 0.4,
        ..GeneratorConfig::default()
    });
    let scenario = generator.generate(0xD1CE);
    assert!(!scenario.faults.is_empty());

    let first = testkit::run_scenario(&scenario).expect("first run succeeds");
    let second = testkit::run_scenario(&scenario).expect("second run succeeds");
    for (a, b) in first.parallel.jobs.iter().zip(&second.parallel.jobs) {
        assert_eq!(a.job, b.job);
        assert_eq!(a.accounting.record, b.accounting.record, "{}", a.job);
        assert_eq!(a.accounting.regions, b.accounting.regions);
        assert_eq!(a.savings, b.savings);
        assert_eq!(a.drift, b.drift);
        assert_eq!(a.aborted_at, b.aborted_at);
        assert_eq!(a.rejection, b.rejection);
    }
    assert_eq!(first.parallel.aggregate, second.parallel.aggregate);
    assert_eq!(first.sequential.aggregate, second.sequential.aggregate);
    assert_eq!(first.parallel.repository, second.parallel.repository);
    // The faults visibly fired: at least one job was truncated.
    assert!(
        first.parallel.jobs.iter().any(|j| j.aborted_at.is_some()),
        "an abort fault must have fired"
    );
    // …and the replay line reruns the exact same scenario.
    let replayed = testkit::replay(&scenario.to_replay()).expect("replay passes the catalog");
    assert_eq!(
        replayed.parallel.aggregate, first.parallel.aggregate,
        "replay is bit-identical too"
    );
}

/// Satellite 2 — regression lock on the PR 4 documented caveat: when
/// generated repository pressure (capacity below the publishing-workload
/// count, single stripe) evicts publications *mid-run*, `run_parallel`
/// followers whose leader's model was already evicted re-calibrate like
/// the sequential path would — they must not pin the calibration
/// fallback, and the run must stay live.
#[test]
fn generated_eviction_pressure_recalibrates_evicted_followers() {
    // Deterministic shape (single worker — still the parallel event
    // loop: latch admission, SharedRepository, the evicted-publication
    // branch): two equal-length cold workloads whose leaders publish in
    // the same sweep through a generated capacity bound of 1, so the
    // second publication evicts the first *mid-run*, and the first
    // workload's followers — parked on an already-resolved latch — must
    // re-miss and re-calibrate.
    let generator = ScenarioGenerator::new(GeneratorConfig {
        jobs: 6,
        workloads: 2,
        stored_fraction: 0.0, // all cold: every workload calibrates + publishes
        eviction_pressure: true,
        capability_gap_fraction: 0.0, // isolate the eviction behaviour
        fault_fraction: 0.0,
        workers: 1,
        ..GeneratorConfig::default()
    });
    let mut scenario = generator.generate(2);
    assert!(scenario.eviction_pressure());
    assert_eq!(
        scenario.repository.capacity, 1,
        "generated pressure: capacity = publishing workloads / 2"
    );
    // Make the two workloads event-count-identical (same regions, same
    // iterations — only the name and therefore the fingerprint differ)
    // so their leaders finish in the same sweep, and interleave the
    // trace leaders-first.
    let mut twin = scenario.workloads[0].bench.clone();
    twin.name = format!("{}-twin", twin.name);
    scenario.workloads[1].bench = twin;
    for (i, w) in [0usize, 1, 0, 0, 1, 1].into_iter().enumerate() {
        scenario.jobs[i].workload = w;
    }

    // Under pressure `check` deliberately skips seq↔par bit-identity
    // (the documented caveat) but still verifies double-entry, version
    // integrity and liveness.
    let run = testkit::check(&scenario).unwrap_or_else(|failure| panic!("{failure}"));
    let report = &run.parallel;
    assert!(
        report.repository.evictions > 0,
        "the second leader's publication evicts the first mid-run"
    );
    // The regression lock: every workload is calibratable, so *no* job
    // may end up pinned on the calibration fallback — evicted-publication
    // followers re-calibrate like the sequential path instead.
    for job in &report.jobs {
        assert_ne!(
            job.accounting.source,
            ModelSource::Fallback,
            "job {} pinned the fallback under eviction pressure",
            job.job
        );
    }
    let calibrations = report.online_summary().calibrations;
    assert!(
        calibrations > scenario.workloads.len(),
        "followers of the evicted workload re-calibrated \
         ({calibrations} calibrations for {} workloads)",
        scenario.workloads.len()
    );

    // The same lock under real concurrency: worker timing may change
    // *which* entries survive (the documented caveat) but never pins a
    // fallback, loses an eviction, or breaks double-entry/liveness.
    let mut concurrent = scenario.clone();
    concurrent.workers = 4;
    let run = testkit::check(&concurrent).unwrap_or_else(|failure| panic!("{failure}"));
    assert!(run.parallel.repository.evictions > 0);
    for job in &run.parallel.jobs {
        assert_ne!(job.accounting.source, ModelSource::Fallback, "{}", job.job);
    }
}

/// Satellite 3 — capability-gap fleets at scenario scale: jobs whose
/// full-width stored models land on gapped nodes degrade (with the
/// rejection naming job + node in the outcome and the report) instead of
/// aborting the run, identically in both event loops.
#[test]
fn capability_gap_scenarios_degrade_and_name_the_culprit() {
    let generator = ScenarioGenerator::new(GeneratorConfig {
        jobs: 12,
        nodes: 4,
        workloads: 2,
        online: false,
        stored_fraction: 1.0,         // every workload serves a 24-thread model
        capability_gap_fraction: 0.6, // most nodes are gapped
        fault_fraction: 0.0,
        ..GeneratorConfig::default()
    });
    let mut rejections = 0usize;
    for seed in [11u64, 12, 13] {
        let scenario = generator.generate(seed);
        if !scenario.fleet.nodes.iter().any(|n| n.is_gapped()) {
            continue; // this seed sampled no gaps
        }
        let run =
            testkit::check(&scenario).unwrap_or_else(|failure| panic!("seed {seed}:\n{failure}"));
        for job in &run.parallel.jobs {
            if let Some(rejection) = &job.rejection {
                rejections += 1;
                assert_eq!(rejection.job, job.job, "rejection names its job");
                assert_eq!(rejection.node_id, job.node_id, "…and its node");
                assert_eq!(
                    job.accounting.source,
                    ModelSource::Fallback,
                    "degraded jobs run untuned"
                );
                assert_eq!(job.accounting.switches, 0);
                let text = run.parallel.format_report();
                assert!(
                    text.contains(&format!("{} on node {}", job.job, job.node_id)),
                    "{text}"
                );
            }
        }
    }
    assert!(rejections > 0, "gapped fleets must produce rejections");
}

/// Acceptance — the shrinker reduces a deliberately-failing scenario to
/// ≤ 3 jobs, and the emitted replay line re-triggers the same violation.
#[test]
fn shrinker_reduces_failing_scenario_to_replay_line() {
    // The planted "invariant": no job may be served the calibration
    // fallback. With cold workloads and no online tuning, fallback serves
    // are guaranteed — a deliberately failing scenario.
    let generator = ScenarioGenerator::new(GeneratorConfig {
        jobs: 14,
        nodes: 4,
        workloads: 3,
        online: false,
        stored_fraction: 0.5,
        capability_gap_fraction: 0.0,
        fault_fraction: 0.3,
        ..GeneratorConfig::default()
    });
    let scenario = generator.generate(0xFA11);

    let fails = |s: &Scenario| -> Option<String> {
        let run = testkit::run_scenario(s).ok()?;
        run.parallel
            .jobs
            .iter()
            .any(|j| j.accounting.source == ModelSource::Fallback)
            .then(|| "fallback-served-job".to_string())
    };

    let shrunk = testkit::shrink(&scenario, &fails).expect("the scenario fails the invariant");
    assert_eq!(shrunk.violation, "fallback-served-job");
    assert!(
        shrunk.scenario.jobs.len() <= 3,
        "shrunk to {} jobs after {} attempts",
        shrunk.scenario.jobs.len(),
        shrunk.attempts
    );
    assert_eq!(shrunk.scenario.fleet.nodes.len(), 1);
    assert_eq!(shrunk.scenario.workers, 1);
    assert!(
        shrunk.scenario.workloads.len() < scenario.workloads.len(),
        "unused workloads pruned"
    );

    // The replay line is a complete, parseable repro that re-triggers
    // the same violation.
    let line = shrunk.replay_line();
    let reparsed = Scenario::from_replay(&line).expect("replay line parses");
    assert_eq!(reparsed, shrunk.scenario);
    assert_eq!(
        fails(&reparsed).as_deref(),
        Some("fallback-served-job"),
        "the minimal scenario still fails the same way"
    );
}

/// The drift-shift fault kind end to end: a monitored (drift-armed)
/// workload with an injected mid-run shift fires the detector, scoped
/// re-calibration runs, and the patched model is re-published — all
/// inside the bit-identity contract (testkit::check verified it above;
/// here the *shape* of the adaptation is asserted).
#[test]
fn injected_drift_shift_fires_detection_and_republication() {
    use testkit::{DriftShiftFault, StoredModel};

    let generator = ScenarioGenerator::new(GeneratorConfig {
        jobs: 6,
        nodes: 2,
        workloads: 1,
        stored_fraction: 1.0,
        capability_gap_fraction: 0.0,
        fault_fraction: 0.0,
        ..GeneratorConfig::default()
    });
    let mut scenario = generator.generate(0xD21F7);
    assert_eq!(scenario.workloads[0].stored, StoredModel::Calibrated);
    let bench = &scenario.workloads[0].bench;
    scenario.faults.drift_shifts.push(DriftShiftFault {
        job: scenario.jobs[2].name.clone(),
        region: bench.regions[0].name.clone(),
        from_iteration: bench.phase_iterations / 4,
        factor: 1.6,
    });

    let run = testkit::check(&scenario).unwrap_or_else(|failure| panic!("{failure}"));
    let shifted = &run.parallel.jobs[2];
    assert!(
        !shifted.drift.is_empty(),
        "the injected shift fires the detector: {:?}",
        shifted.drift
    );
    assert_eq!(
        shifted.drift[0].region,
        scenario.faults.drift_shifts[0].region
    );
    assert!(
        shifted.published_version.is_some(),
        "the re-calibrated model re-publishes with a bumped version"
    );
    // Accounting stays truthful: only the detector's view was scaled, so
    // the job's ledger matches its unshifted siblings' order of
    // magnitude (it re-explored, so it differs — but not by 1.6×).
    let sibling = &run.parallel.jobs[3];
    let ratio = shifted.accounting.record.job_energy_j / sibling.accounting.record.job_energy_j;
    assert!(
        (0.5..1.5).contains(&ratio),
        "injected shift must not corrupt the ledger (ratio {ratio})"
    );
}
