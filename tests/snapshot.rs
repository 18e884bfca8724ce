//! Concurrency stress tests for the lock-striped `SharedRepository`.
//!
//! These tests race writers publishing version-bumped models against
//! readers serving by [`MatchPolicy::Application`] and assert:
//!
//! * readers only ever observe *fully published* models — a served
//!   model always equals the exact model some writer published, never a
//!   torn intermediate;
//! * application-lineage versions never regress — per writer on the
//!   publish side, and (under a serialised schedule) per reader on the
//!   serve side;
//! * the statistics count every lookup and publication exactly once
//!   after the dust settles.
//!
//! The seeded test drives the race through [`testkit::SpinPermits`], so
//! the interleaving of guarded steps is a pure function of the seed: a
//! failure names the seed, and re-running the test replays the same
//! schedule.

use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use ptf::TuningModel;
use rrl::{CalibrationLatch, CalibrationOutcome, MatchPolicy, ModelKey, SharedRepository};
use simnode::SystemConfig;
use testkit::{taurus_fallback, toy_benchmark, SpinPermits};

const WRITERS: usize = 3;
const READERS: usize = 4;
const WRITES_PER_WRITER: usize = 12;
const READS_PER_READER: usize = 20;

/// The configuration writer `w` publishes at its `k`-th step — a pure
/// function of `(w, k)`, so readers can rebuild the expected model from
/// the label embedded in a served snapshot.
fn config_for(w: usize, k: usize) -> SystemConfig {
    SystemConfig::new(24, 2000 + (w * 100 + k * 10) as u32, 1500 + (k * 20) as u32)
}

/// The model writer `w` publishes at its `k`-th step. The single region
/// name `w{w}-k{k}` tags the model with its origin; a reader decodes the
/// tag and compares the whole served model against this function's
/// output — any torn or partially visible publish fails the equality.
fn model_for(w: usize, k: usize) -> TuningModel {
    TuningModel::new(
        "stress",
        &[(format!("w{w}-k{k}"), config_for(w, k))],
        config_for(w, k),
    )
}

/// Decode the `w{w}-k{k}` origin tag of a served model.
fn decode_tag(tag: &str) -> Option<(usize, usize)> {
    let rest = tag.strip_prefix('w')?;
    let (w, k) = rest.split_once("-k")?;
    Some((w.parse().ok()?, k.parse().ok()?))
}

/// Assert a served model is exactly what some writer published.
fn assert_fully_published(model: &TuningModel, context: &str) {
    assert_eq!(
        model.scenarios.len(),
        1,
        "{context}: published models hold one scenario, got {model:?}"
    );
    let tag = model.scenarios[0]
        .regions
        .first()
        .unwrap_or_else(|| panic!("{context}: scenario without a region: {model:?}"));
    let (w, k) = decode_tag(tag)
        .unwrap_or_else(|| panic!("{context}: unparseable origin tag {tag:?} in {model:?}"));
    assert_eq!(
        *model,
        model_for(w, k),
        "{context}: torn snapshot — served model does not match what writer {w} published at step {k}"
    );
}

/// Run the writer/reader race once. When `schedule` is `Some(seed)`, all
/// repository steps are serialised through a [`SpinPermits`] schedule
/// derived from the seed (deterministic, replayable interleavings); when
/// `None`, the threads free-run (true parallelism, weaker assertions).
fn race(schedule: Option<u64>) {
    let repo = Arc::new(
        SharedRepository::new(4)
            .with_match_policy(MatchPolicy::Application)
            .with_fallback(taurus_fallback()),
    );
    let permits = schedule.map(|seed| Arc::new(SpinPermits::new(seed, WRITERS + READERS)));
    let context = match schedule {
        Some(seed) => format!("SpinPermits seed {seed:#x}"),
        None => "free-running".to_string(),
    };
    let start = Arc::new(Barrier::new(WRITERS + READERS));
    let published = Arc::new(Mutex::new(Vec::new()));
    let served_hits = Arc::new(Mutex::new((0u64, 0u64)));

    thread::scope(|scope| {
        for w in 0..WRITERS {
            let repo = Arc::clone(&repo);
            let permits = permits.clone();
            let published = Arc::clone(&published);
            let start = Arc::clone(&start);
            let context = context.clone();
            scope.spawn(move || {
                // Same application, distinct per-writer fingerprint: all
                // writers bump one shared lineage.
                let bench = toy_benchmark("stress", 1.0 + w as f64, 4);
                start.wait();
                let mut last = 0u32;
                let mut mine = Vec::with_capacity(WRITES_PER_WRITER);
                for k in 0..WRITES_PER_WRITER {
                    let turn = permits.as_ref().map(|p| p.gate(w));
                    let version = repo.publish_online(&bench, &model_for(w, k), Vec::new());
                    drop(turn);
                    assert!(
                        version > last,
                        "{context}: writer {w} saw its lineage regress: {version} after {last}"
                    );
                    last = version;
                    mine.push(version);
                }
                if let Some(p) = &permits {
                    p.retire(w);
                }
                published.lock().unwrap().extend(mine);
            });
        }
        for r in 0..READERS {
            let me = WRITERS + r;
            let repo = Arc::clone(&repo);
            let permits = permits.clone();
            let served_hits = Arc::clone(&served_hits);
            let start = Arc::clone(&start);
            let context = context.clone();
            scope.spawn(move || {
                // A fingerprint nobody publishes: every successful serve
                // goes through the Application-policy approximate match.
                let probe = toy_benchmark("stress", 900.0 + r as f64, 4);
                start.wait();
                let mut high = 0u32;
                let (mut hits, mut misses) = (0u64, 0u64);
                for _ in 0..READS_PER_READER {
                    let turn = permits.as_ref().map(|p| p.gate(me));
                    let outcome = repo.serve_stored(&probe);
                    drop(turn);
                    match outcome {
                        Ok(Some(served)) => {
                            assert_fully_published(&served.model, &context);
                            let version = served
                                .provenance
                                .as_ref()
                                .unwrap_or_else(|| {
                                    panic!("{context}: stored serve without provenance")
                                })
                                .version;
                            // Only the serialised schedule pins the
                            // reader-side high-water mark: a free-running
                            // reader's serve can land between two
                            // publishes and touch an older entry,
                            // legitimately re-ordering recency.
                            if schedule.is_some() {
                                assert!(
                                    version >= high,
                                    "{context}: reader {r} high-water regressed: \
                                     {version} after {high}"
                                );
                            }
                            let bound = (WRITERS * WRITES_PER_WRITER) as u32;
                            assert!(
                                (1..=bound).contains(&version),
                                "{context}: version {version} outside the published range"
                            );
                            high = high.max(version);
                            hits += 1;
                        }
                        Ok(None) => misses += 1,
                        Err(e) => panic!("{context}: reader {r} serve errored: {e:?}"),
                    }
                }
                if let Some(p) = &permits {
                    p.retire(me);
                }
                let mut totals = served_hits.lock().unwrap();
                totals.0 += hits;
                totals.1 += misses;
            });
        }
    });

    let total_published = (WRITERS * WRITES_PER_WRITER) as u64;
    let mut versions = published.lock().unwrap().clone();
    versions.sort_unstable();
    assert_eq!(
        versions,
        (1..=total_published as u32).collect::<Vec<_>>(),
        "{context}: the shared lineage must hand out every version exactly once"
    );

    let (hits, misses) = *served_hits.lock().unwrap();
    let stats = repo.stats();
    assert_eq!(stats.publications, total_published, "{context}");
    assert_eq!(
        stats.hits + stats.misses,
        (READERS * READS_PER_READER) as u64,
        "{context}: every reader lookup counts exactly once"
    );
    assert_eq!(stats.hits, hits, "{context}");
    assert_eq!(stats.misses, misses, "{context}");
    assert_eq!(
        stats.approx_hits, stats.hits,
        "{context}: probe fingerprints are never stored, so every hit is approximate"
    );
    assert_eq!(stats.errors, 0, "{context}");
    assert_eq!(
        stats.evictions, 0,
        "{context}: no capacity bound configured"
    );

    // After the race the most recent entry is the last one published, so
    // a fresh serve observes the lineage high-water mark.
    let final_serve = repo
        .serve_stored(&toy_benchmark("stress", 999.0, 4))
        .expect("final serve")
        .expect("models were published");
    assert_eq!(
        final_serve.provenance.expect("stored provenance").version,
        total_published as u32,
        "{context}: final serve must observe the lineage high-water mark"
    );
}

/// Deterministic interleavings: the same seed replays the same schedule,
/// so any failure message naming the seed is a complete repro line.
#[test]
fn seeded_schedules_serve_only_fully_published_snapshots() {
    for seed in [0xA11CE, 0x5EED5, 0xF1E1D, 0xCAB1E] {
        race(Some(seed));
    }
}

/// Free-running race: true parallelism, checking the invariants that do
/// not depend on the interleaving (untorn snapshots, unique lineage
/// versions, exact stats accounting).
#[test]
fn free_running_race_serves_only_fully_published_snapshots() {
    for _ in 0..4 {
        race(None);
    }
}

/// Regression test alongside the `run_parallel` release guard: a leader that
/// panics mid-publish must leave no partial entry visible to readers and
/// must release its led claims so followers resolve to the calibration
/// fallback instead of parking forever.
#[test]
fn abandoned_leader_releases_claims_and_leaves_no_torn_snapshot() {
    let repo = Arc::new(SharedRepository::new(2).with_fallback(taurus_fallback()));
    let latch = Arc::new(CalibrationLatch::new(2));
    let bench = toy_benchmark("cold-start", 3.0, 4);
    let key = ModelKey::of(&bench);
    assert!(latch.begin(&key), "first claimant leads");
    assert!(!latch.begin(&key), "the claim is exclusive while in flight");

    let followers: Vec<_> = (0..3)
        .map(|_| {
            let latch = Arc::clone(&latch);
            let key = key.clone();
            thread::spawn(move || latch.wait(&key))
        })
        .collect();

    let leader = {
        let latch = Arc::clone(&latch);
        let key = key.clone();
        thread::spawn(move || {
            // The run_parallel worker's release guard, in miniature:
            // resolve every led claim on the way out of a panicking
            // worker ("fail" is first-writer-wins, so a claim that made
            // it to publication is untouched).
            struct ReleaseOnExit {
                latch: Arc<CalibrationLatch>,
                led: Vec<ModelKey>,
            }
            impl Drop for ReleaseOnExit {
                fn drop(&mut self) {
                    for key in &self.led {
                        self.latch.fail(key);
                    }
                }
            }
            let _release = ReleaseOnExit {
                latch,
                led: vec![key],
            };
            let _model = model_for(0, 0);
            panic!("leader aborted mid-publish");
        })
    };
    assert!(leader.join().is_err(), "the leader really panicked");
    for follower in followers {
        assert_eq!(
            follower.join().expect("followers outlive the leader"),
            CalibrationOutcome::Failed,
            "followers must resolve to the fallback path"
        );
    }

    // No torn entry: the aborted publish left nothing behind, the
    // miss/fallback path still works, and the books still balance.
    assert!(!repo.contains(&bench), "no partial entry may be visible");
    assert!(repo.serve_stored(&bench).expect("serve succeeds").is_none());
    let served = repo.serve(&bench).expect("fallback configured");
    assert_eq!(served.source, rrl::ModelSource::Fallback);
    assert_eq!(repo.stats().misses, 2, "both lookups missed");
    assert_eq!(repo.stats().fallbacks, 1);

    // The latch stays resolved (late followers see the failure
    // immediately) and the repository accepts the retry publish.
    assert!(!latch.begin(&key), "resolved claims are not reclaimable");
    assert_eq!(latch.wait(&key), CalibrationOutcome::Failed);
    let version = repo.publish_online(&bench, &model_for(0, 0), Vec::new());
    assert_eq!(version, 1, "retry publish starts the lineage");
    assert!(repo.contains(&bench));
}
