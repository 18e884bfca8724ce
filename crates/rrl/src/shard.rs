//! Lock-striped concurrent tuning-model repository.
//!
//! [`SharedRepository`] is the `&self` counterpart of
//! [`TuningModelRepository`](crate::TuningModelRepository), partitioned
//! across N shards by a hash of the *application* component of the
//! [`ModelKey`]. Hashing the application (not the full key) keeps
//! everything that must stay transactionally consistent shard-local: the
//! per-application version high-water mark, and the candidate set
//! [`MatchPolicy::Application`] resolves against.
//!
//! Each shard is the same `Shard` state machine the single-threaded
//! repository wraps, behind its own `parking_lot::RwLock`. Serving takes
//! the shard's lock exclusively (a hit touches LRU recency and may fill
//! the parse memo); `contains`, `provenance`, `len` and
//! [`SharedRepository::stats`] take it shared. Every shard keeps its own
//! [`RepositoryStats`], and `stats()` sums them. See
//! `docs/ARCHITECTURE.md` § "Why a striped lock" for the measurement
//! behind this design.
//!
//! The module also hosts the [`CalibrationLatch`]: the shard-level
//! admission gate the parallel
//! [`ClusterScheduler`](crate::ClusterScheduler) event loop uses so that
//! the first job of a cold workload calibrates while same-workload jobs
//! *block on the latch* — not on a global scheduler stall — and resume
//! the moment the leader publishes or fails.

use std::sync::{Arc, Condvar, Mutex};

use kernels::BenchmarkSpec;
use obskit::Recorder;
use parking_lot::RwLock;
use ptf::Advice;
use ptf::TuningModel;
use simnode::SystemConfig;

use crate::error::RuntimeError;
use crate::repository::{
    MatchPolicy, ModelKey, ModelProvenance, ModelSource, RepositoryStats, ServedModel, Shard,
};

/// How a latched calibration resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationOutcome {
    /// The leader converged and published its model: waiters should
    /// re-serve from the repository and expect a hit.
    Published,
    /// The leader could not calibrate (exploration budget or planning
    /// failure, or its worker aborted): waiters should degrade to the
    /// calibration fallback.
    Failed,
}

/// Non-blocking view of one workload's latch state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatchStatus {
    /// No calibration was ever claimed for this workload.
    Unclaimed,
    /// A leader holds the claim and has not resolved it yet.
    InFlight,
    /// The claim resolved.
    Done(CalibrationOutcome),
}

#[derive(Debug, Clone, Copy)]
enum LatchState {
    InFlight,
    Done(CalibrationOutcome),
}

/// One latch segment: the claims whose application hashes here.
#[derive(Debug, Default)]
struct LatchShard {
    claims: Mutex<std::collections::BTreeMap<ModelKey, LatchState>>,
    resolved: Condvar,
}

/// The shard-level calibration admission gate.
///
/// One latch entry exists per cold workload (exact [`ModelKey`]). The
/// first claimer ([`CalibrationLatch::begin`]) becomes the *leader* and
/// calibrates; same-workload followers [`wait`](CalibrationLatch::wait)
/// on the entry — parking only their own worker thread, while unrelated
/// workloads keep being admitted — until the leader
/// [`publish`](CalibrationLatch::publish)es or
/// [`fail`](CalibrationLatch::fail)s. Entries are segmented by the same
/// application hash as the repository shards, so contention on one
/// workload's gate never serializes admission of another's.
///
/// Claims are *per run*, mirroring the sequential scheduler's transient
/// `calibrating`/`failed` bookkeeping: the parallel scheduler constructs
/// a fresh latch for every [`run_parallel`](crate::ClusterScheduler::run_parallel)
/// call (matched to the repository's shard count) rather than keeping
/// claims alive across runs, so a workload whose calibration failed once
/// is retried on the next submission wave.
///
/// Resolution is first-writer-wins: once a claim is `Done` its outcome
/// never changes (a belt-and-braces `fail` after a successful `publish`
/// is a no-op), which lets an aborting worker fail every claim it led
/// without clobbering already-published ones.
#[derive(Debug)]
pub struct CalibrationLatch {
    shards: Vec<LatchShard>,
    /// Count of resolutions across *all* segments, with a condvar for
    /// waiters that care about "any resolution at all" rather than one
    /// key: the parallel event loop's blocked-partition parking (see
    /// [`CalibrationLatch::wait_resolution`]).
    epoch: Mutex<u64>,
    any_resolved: Condvar,
}

impl CalibrationLatch {
    /// A latch with `shards` independent segments (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| LatchShard::default()).collect(),
            epoch: Mutex::new(0),
            any_resolved: Condvar::new(),
        }
    }

    fn shard(&self, key: &ModelKey) -> &LatchShard {
        &self.shards[shard_index(&key.application, self.shards.len())]
    }

    /// Claim the calibration of `key`. Returns `true` when the caller is
    /// now the leader; `false` when the workload is already claimed (in
    /// flight or resolved).
    pub fn begin(&self, key: &ModelKey) -> bool {
        let shard = self.shard(key);
        let mut claims = lock_ignore_poison(&shard.claims);
        if claims.contains_key(key) {
            return false;
        }
        claims.insert(key.clone(), LatchState::InFlight);
        true
    }

    /// Resolve `key` as successfully published and wake its waiters.
    pub fn publish(&self, key: &ModelKey) {
        self.resolve(key, CalibrationOutcome::Published);
    }

    /// Resolve `key` as failed and wake its waiters. A no-op when the
    /// claim already resolved (first writer wins).
    pub fn fail(&self, key: &ModelKey) {
        self.resolve(key, CalibrationOutcome::Failed);
    }

    fn resolve(&self, key: &ModelKey, outcome: CalibrationOutcome) {
        {
            let shard = self.shard(key);
            let mut claims = lock_ignore_poison(&shard.claims);
            match claims.get(key) {
                Some(LatchState::Done(_)) => return, // first resolution wins
                Some(LatchState::InFlight) | None => {
                    claims.insert(key.clone(), LatchState::Done(outcome));
                }
            }
            shard.resolved.notify_all();
        }
        // Advance the global resolution epoch *after* the segment state
        // is published, so a waiter woken by the epoch change always
        // observes the resolution that caused it.
        let mut epoch = lock_ignore_poison(&self.epoch);
        *epoch += 1;
        self.any_resolved.notify_all();
    }

    /// The global resolution counter: bumped once per resolution, on any
    /// segment. Sample it *before* scanning latch states, then park with
    /// [`CalibrationLatch::wait_resolution`] — a resolution that raced
    /// the scan already advanced the epoch, so the wait returns
    /// immediately instead of missing the wakeup.
    pub fn resolution_epoch(&self) -> u64 {
        *lock_ignore_poison(&self.epoch)
    }

    /// Block until the resolution epoch advances past `seen` — i.e.
    /// until at least one claim (on *any* segment) resolves after the
    /// caller sampled [`CalibrationLatch::resolution_epoch`]. Returns
    /// the epoch observed at wakeup. This is the targeted replacement
    /// for timed polling in the parallel event loop's follower parking:
    /// a blocked worker sleeps until a resolution actually happens,
    /// instead of re-sweeping every millisecond.
    pub fn wait_resolution(&self, seen: u64) -> u64 {
        let mut epoch = lock_ignore_poison(&self.epoch);
        while *epoch == seen {
            epoch = match self.any_resolved.wait(epoch) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        *epoch
    }

    /// Claims still in flight across all segments — the
    /// *no-orphaned-claims* invariant says this must be zero once a run's
    /// workers have exited (every claim resolves by publication, failure,
    /// or a worker's drop guard; an in-flight claim here would have been
    /// a future deadlock for its followers).
    pub fn unresolved(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                lock_ignore_poison(&s.claims)
                    .values()
                    .filter(|v| matches!(v, LatchState::InFlight))
                    .count()
            })
            .sum()
    }

    /// Non-blocking peek at `key`'s state.
    pub fn status(&self, key: &ModelKey) -> LatchStatus {
        let shard = self.shard(key);
        let claims = lock_ignore_poison(&shard.claims);
        match claims.get(key) {
            None => LatchStatus::Unclaimed,
            Some(LatchState::InFlight) => LatchStatus::InFlight,
            Some(LatchState::Done(outcome)) => LatchStatus::Done(*outcome),
        }
    }

    /// Block the calling thread until `key` resolves, and return the
    /// outcome. Callers must only wait on keys some leader has already
    /// claimed with [`CalibrationLatch::begin`] (the parallel scheduler
    /// claims every cold workload before its workers start): waiting on
    /// an unclaimed key parks until someone claims *and* resolves it.
    pub fn wait(&self, key: &ModelKey) -> CalibrationOutcome {
        let shard = self.shard(key);
        let mut claims = lock_ignore_poison(&shard.claims);
        loop {
            if let Some(LatchState::Done(outcome)) = claims.get(key) {
                return *outcome;
            }
            claims = match shard.resolved.wait(claims) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// [`CalibrationLatch::wait`] with a bound: returns `None` when the
    /// claim is still unresolved after `timeout`. A per-key wait only
    /// hears its own segment's condvar — for "any resolution anywhere"
    /// parking (what the parallel event loop's blocked-partition sweep
    /// needs) use [`CalibrationLatch::wait_resolution`], which replaced
    /// the timed-slice polling this method once backed.
    pub fn wait_timeout(
        &self,
        key: &ModelKey,
        timeout: std::time::Duration,
    ) -> Option<CalibrationOutcome> {
        let deadline = std::time::Instant::now() + timeout;
        let shard = self.shard(key);
        let mut claims = lock_ignore_poison(&shard.claims);
        loop {
            if let Some(LatchState::Done(outcome)) = claims.get(key) {
                return Some(*outcome);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            claims = match shard.resolved.wait_timeout(claims, deadline - now) {
                Ok((g, _)) => g,
                Err(poisoned) => {
                    let (g, _) = poisoned.into_inner();
                    g
                }
            };
        }
    }
}

/// `Mutex::lock` that shrugs off poisoning (a panicked waiter must not
/// wedge every other worker's admission).
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The shard an application's entries live in: FNV-1a over the
/// application name, modulo the shard count. Shared by the repository
/// shards and the calibration latch so both partition identically.
fn shard_index(application: &str, shards: usize) -> usize {
    (kernels::fnv1a(application.as_bytes()) % shards as u64) as usize
}

/// A sharded, internally synchronized tuning-model repository for
/// concurrent serving.
///
/// Semantics are identical to
/// [`TuningModelRepository`](crate::TuningModelRepository) — every shard
/// is the same [`Shard`](crate::repository) state machine — but every
/// method takes `&self`, so one `SharedRepository` can serve all the
/// worker threads of
/// [`ClusterScheduler::run_parallel`](crate::ClusterScheduler::run_parallel)
/// at once. Differences a single-threaded caller can observe:
///
/// * **Capacity is per shard.** [`SharedRepository::with_capacity`]
///   divides the requested total evenly (rounding up), and each shard
///   LRU-bounds independently; a skewed application-hash distribution can
///   therefore evict before the global total is reached.
/// * **Version lineage and application matching are exact** — entries of
///   one application always share a shard.
pub struct SharedRepository {
    shards: Vec<RwLock<Shard>>,
    /// The requested global capacity (before per-shard division).
    capacity: Option<usize>,
    /// Telemetry sink for per-shard serving counters; `None` costs one
    /// branch per operation.
    recorder: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for SharedRepository {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedRepository")
            .field("shards", &self.shard_count())
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl SharedRepository {
    /// An empty repository striped across `shards` lock segments (clamped
    /// to ≥ 1), with no fallback and unbounded capacity.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| RwLock::new(Shard::default()))
                .collect(),
            capacity: None,
            recorder: None,
        }
    }

    /// Serve `config` as a static single-scenario model whenever no
    /// stored model matches (builder form).
    #[must_use]
    pub fn with_fallback(self, config: SystemConfig) -> Self {
        for shard in &self.shards {
            shard.write().fallback = Some(config);
        }
        self
    }

    /// Bound the repository to roughly `capacity` stored models in total:
    /// each shard is bounded to `capacity.div_ceil(shards)` entries and
    /// evicts its own least-recently-used entry independently (builder
    /// form). Zero is treated as unbounded.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = (capacity > 0).then_some(capacity);
        let per_shard = self.capacity.map(|c| c.div_ceil(self.shard_count()));
        for shard in &self.shards {
            shard.write().capacity = per_shard;
        }
        self
    }

    /// Select the serve-time key matching policy (builder form).
    #[must_use]
    pub fn with_match_policy(self, policy: MatchPolicy) -> Self {
        for shard in &self.shards {
            shard.write().policy = policy;
        }
        self
    }

    /// Attach a telemetry recorder (builder form). Every repository
    /// operation then emits per-shard hit/miss/fallback/eviction/
    /// publication counters (series `repo.hits/<shard>` etc.). `Arc`
    /// rather than a borrow because the repository is shared across the
    /// worker threads of `run_parallel` and outlives any one run.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Number of shard segments.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The requested global capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The configured fallback, if any.
    pub fn fallback(&self) -> Option<SystemConfig> {
        self.shards[0].read().fallback
    }

    /// The serve-time key matching policy.
    pub fn match_policy(&self) -> MatchPolicy {
        self.shards[0].read().policy
    }

    /// Emit the per-shard serving counters for one operation's delta.
    fn record_counters(recorder: &dyn Recorder, idx: usize, delta: &RepositoryStats) {
        let shard = idx as u32;
        for (key, value) in [
            ("repo.hits", delta.hits + delta.approx_hits),
            ("repo.misses", delta.misses),
            ("repo.fallbacks", delta.fallbacks),
            ("repo.evictions", delta.evictions),
            ("repo.publications", delta.publications),
        ] {
            if value > 0 {
                recorder.counter_add_at(key, shard, value);
            }
        }
    }

    /// The shard `application`'s entries live in.
    fn shard_of(&self, application: &str) -> &RwLock<Shard> {
        &self.shards[shard_index(application, self.shards.len())]
    }

    /// Run `op` under the write lock of `application`'s shard. With a
    /// recorder attached, the stat delta `op` caused is emitted as the
    /// shard's serving counters.
    fn with_shard<T>(&self, application: &str, op: impl FnOnce(&mut Shard) -> T) -> T {
        let idx = shard_index(application, self.shards.len());
        let mut shard = self.shards[idx].write();
        let Some(recorder) = self.recorder.as_deref().filter(|r| r.enabled()) else {
            return op(&mut shard);
        };
        let before = shard.stats;
        let out = op(&mut shard);
        let after = shard.stats;
        drop(shard);
        let delta = RepositoryStats {
            hits: after.hits - before.hits,
            approx_hits: after.approx_hits - before.approx_hits,
            misses: after.misses - before.misses,
            fallbacks: after.fallbacks - before.fallbacks,
            errors: after.errors - before.errors,
            evictions: after.evictions - before.evictions,
            publications: after.publications - before.publications,
        };
        Self::record_counters(recorder, idx, &delta);
        out
    }

    /// Store a design-time advice's tuning model (see
    /// [`TuningModelRepository::publish`](crate::TuningModelRepository::publish)).
    /// Returns the assigned application-lineage version.
    pub fn publish(&self, advice: &Advice) -> u32 {
        self.with_shard(&advice.tuning_model.application, |shard| {
            shard.publish(advice)
        })
    }

    /// Store a model the online tuner converged (see
    /// [`TuningModelRepository::publish_online`](crate::TuningModelRepository::publish_online)).
    pub fn publish_online(
        &self,
        bench: &BenchmarkSpec,
        model: &TuningModel,
        expected: Vec<(String, f64)>,
    ) -> u32 {
        self.with_shard(&bench.name, |shard| {
            shard.publish_online(bench, model, expected)
        })
    }

    /// Store an entry whose application-lineage version was assigned by
    /// the replication layer (see [`crate::net::reconcile`]): the entry
    /// is installed at exactly `version` and the application's
    /// high-water mark only ever advances. `source` distinguishes a
    /// locally published model ([`ModelSource::Online`])
    /// from one applied off the wire
    /// ([`ModelSource::Replicated`]).
    pub fn publish_replicated(
        &self,
        application: &str,
        fingerprint: u64,
        json: &str,
        source: ModelSource,
        expected: Vec<(String, f64)>,
        version: u32,
    ) {
        let key = ModelKey {
            application: application.to_string(),
            fingerprint,
        };
        self.with_shard(application, |shard| {
            shard.store_replicated(key, json.to_string(), source, expected, version)
        });
    }

    /// Store a tuning model for a benchmark (replaces any previous entry
    /// for the same workload; no drift expectations are recorded).
    pub fn insert(&self, bench: &BenchmarkSpec, model: &TuningModel) {
        self.with_shard(&bench.name, |shard| {
            shard.store(
                ModelKey::of(bench),
                model.to_json(),
                ModelSource::Repository,
                Vec::new(),
            )
        });
    }

    /// Serve a stored model or the calibration fallback (see
    /// [`TuningModelRepository::serve`](crate::TuningModelRepository::serve)).
    pub fn serve(&self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        self.with_shard(&bench.name, |shard| shard.serve(bench))
    }

    /// Serve a stored model, or record a miss and return `Ok(None)` (see
    /// [`TuningModelRepository::serve_stored`](crate::TuningModelRepository::serve_stored)).
    pub fn serve_stored(&self, bench: &BenchmarkSpec) -> Result<Option<ServedModel>, RuntimeError> {
        self.with_shard(&bench.name, |shard| shard.serve_stored(bench))
    }

    /// Serve the calibration fallback without a storage lookup (see
    /// [`TuningModelRepository::serve_fallback`](crate::TuningModelRepository::serve_fallback)).
    pub fn serve_fallback(&self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        self.with_shard(&bench.name, |shard| shard.serve_fallback(bench))
    }

    /// Whether a stored model matches this benchmark's workload exactly.
    pub fn contains(&self, bench: &BenchmarkSpec) -> bool {
        self.shard_of(&bench.name).read().contains(bench)
    }

    /// Provenance of the stored entry for this benchmark's exact
    /// workload, if any (cloned out of the shard — a lock cannot be held
    /// across the return).
    pub fn provenance(&self, bench: &BenchmarkSpec) -> Option<ModelProvenance> {
        self.shard_of(&bench.name).read().provenance(bench).cloned()
    }

    /// Number of stored models across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().models.len()).sum()
    }

    /// True when no models are stored.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().models.is_empty())
    }

    /// Serving statistics so far: the sum of the shards' own tallies.
    pub fn stats(&self) -> RepositoryStats {
        self.shards
            .iter()
            .fold(RepositoryStats::default(), |acc, s| {
                acc.merged(&s.read().stats)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::ModelSource;

    fn bench_named(name: &str) -> BenchmarkSpec {
        let mut b = kernels::benchmark("miniMD").unwrap();
        b.name = name.to_string();
        b
    }

    fn model(app: &str) -> TuningModel {
        TuningModel::new(
            app,
            &[("compute_force".into(), SystemConfig::new(24, 2500, 1500))],
            SystemConfig::new(24, 2500, 1500),
        )
    }

    #[test]
    fn shared_serve_matches_single_threaded_semantics() {
        let repo = SharedRepository::new(4).with_fallback(SystemConfig::new(24, 2400, 1700));
        let b = bench_named("app");
        repo.insert(&b, &model("app"));
        assert!(repo.contains(&b));
        assert_eq!(repo.len(), 1);

        let served = repo.serve(&b).expect("hit");
        assert_eq!(served.source, ModelSource::Repository);
        assert_eq!(served.model, model("app"));

        let other = bench_named("unknown");
        let served = repo.serve(&other).expect("fallback");
        assert_eq!(served.source, ModelSource::Fallback);

        let s = repo.stats();
        assert_eq!((s.hits, s.misses, s.fallbacks), (1, 1, 1));
    }

    #[test]
    fn versions_are_per_application_across_shards() {
        let repo = SharedRepository::new(8);
        let a = bench_named("alpha");
        let b = bench_named("beta");
        assert_eq!(repo.publish_online(&a, &model("alpha"), vec![]), 1);
        assert_eq!(repo.publish_online(&b, &model("beta"), vec![]), 1);
        assert_eq!(repo.publish_online(&a, &model("alpha"), vec![]), 2);
        assert_eq!(repo.provenance(&a).unwrap().version, 2);
        assert_eq!(repo.provenance(&b).unwrap().version, 1);
    }

    #[test]
    fn concurrent_serving_counts_every_lookup_exactly_once() {
        // The double-count regression, concurrent edition: N threads ×
        // hits + misses + publications under eviction pressure, and at
        // the end the summed shard statistics must equal the exact
        // expected totals.
        let repo = SharedRepository::new(4)
            .with_fallback(SystemConfig::taurus_default())
            .with_capacity(8);
        let stored = bench_named("hot-app");
        repo.insert(&stored, &model("hot-app"));

        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let repo = &repo;
                let stored = &stored;
                s.spawn(move || {
                    let cold = bench_named(&format!("cold-{t}"));
                    for i in 0..PER_THREAD {
                        repo.serve(stored).expect("hit");
                        repo.serve(&cold).expect("fallback");
                        if i % 10 == 0 {
                            let churn = bench_named(&format!("churn-{t}-{i}"));
                            repo.insert(&churn, &model("churn"));
                        }
                    }
                });
            }
        });

        let s = repo.stats();
        let expected_each = (THREADS as u64) * PER_THREAD;
        assert_eq!(s.hits, expected_each, "one hit per stored serve");
        assert_eq!(s.misses, expected_each, "one miss per cold serve");
        assert_eq!(s.fallbacks, expected_each);
        assert_eq!(s.lookups(), 2 * expected_each);
        assert_eq!(s.publications, 1 + THREADS as u64 * 5);
        assert!(s.evictions > 0, "churn must exceed the bound");
        assert!(repo.len() <= 8 * repo.shard_count(), "per-shard bounds");
    }

    #[test]
    fn corrupt_replicated_model_is_a_parse_error_never_a_panic() {
        // The path wire-applied models take into a replica: malformed
        // JSON is stored as shipped and must surface at serve time as a
        // counted `RuntimeError::Parse`, on every serve.
        let repo = SharedRepository::new(4).with_fallback(SystemConfig::taurus_default());
        let b = bench_named("wire-app");
        repo.publish_replicated(
            "wire-app",
            b.fingerprint(),
            "{\"application\": \"wire-app\", \"scen",
            ModelSource::Replicated,
            Vec::new(),
            3,
        );
        assert!(repo.contains(&b));
        for _ in 0..2 {
            assert!(matches!(repo.serve(&b), Err(RuntimeError::Parse(_))));
            assert!(matches!(repo.serve_stored(&b), Err(RuntimeError::Parse(_))));
        }
        let s = repo.stats();
        assert_eq!((s.hits, s.misses, s.fallbacks, s.errors), (0, 0, 0, 4));
        assert_eq!(s.lookups(), 4);

        // A later valid publication of the same key replaces the corrupt
        // entry and serves normally.
        repo.publish_replicated(
            "wire-app",
            b.fingerprint(),
            &model("wire-app").to_json(),
            ModelSource::Replicated,
            Vec::new(),
            4,
        );
        let served = repo.serve(&b).expect("valid entry serves");
        assert_eq!(served.model, model("wire-app"));
        assert_eq!(served.source, ModelSource::Replicated);
        assert_eq!(served.provenance.map(|p| p.version), Some(4));
        let s = repo.stats();
        assert_eq!((s.hits, s.errors), (1, 4));
    }

    #[test]
    fn per_shard_capacity_divides_the_total() {
        let repo = SharedRepository::new(4).with_capacity(8);
        assert_eq!(repo.capacity(), Some(8));
        // 2 per shard: flooding one shard's applications evicts there
        // while other shards stay unaffected.
        for i in 0..32 {
            let b = bench_named(&format!("app-{i}"));
            repo.insert(&b, &model("x"));
        }
        assert!(repo.len() <= 8, "per-shard bound enforced: {}", repo.len());
        assert!(repo.stats().evictions >= 24);
    }

    #[test]
    fn latch_leader_election_and_waiting() {
        let latch = CalibrationLatch::new(4);
        let key = ModelKey {
            application: "app".into(),
            fingerprint: 42,
        };
        assert_eq!(latch.status(&key), LatchStatus::Unclaimed);
        assert_eq!(latch.unresolved(), 0);
        assert!(latch.begin(&key), "first claimer leads");
        assert!(!latch.begin(&key), "second claimer follows");
        assert_eq!(latch.status(&key), LatchStatus::InFlight);
        assert_eq!(
            latch.unresolved(),
            1,
            "the claim is an orphan until resolved"
        );

        // Followers block until the leader resolves.
        let outcome = std::thread::scope(|s| {
            let waiter = s.spawn(|| latch.wait(&key));
            std::thread::sleep(std::time::Duration::from_millis(10));
            latch.publish(&key);
            waiter.join().expect("waiter thread")
        });
        assert_eq!(outcome, CalibrationOutcome::Published);
        assert_eq!(
            latch.status(&key),
            LatchStatus::Done(CalibrationOutcome::Published)
        );
        // First resolution wins: a late belt-and-braces fail is a no-op.
        latch.fail(&key);
        assert_eq!(latch.wait(&key), CalibrationOutcome::Published);
    }

    #[test]
    fn latch_wait_timeout_expires_and_resolves() {
        use std::time::Duration;
        let latch = CalibrationLatch::new(2);
        let key = ModelKey {
            application: "slow".into(),
            fingerprint: 9,
        };
        assert!(latch.begin(&key));
        // Unresolved claim: the bounded wait gives up…
        assert_eq!(latch.wait_timeout(&key, Duration::from_millis(5)), None);
        // …and sees the outcome once resolved, without sleeping.
        latch.publish(&key);
        assert_eq!(
            latch.wait_timeout(&key, Duration::from_secs(5)),
            Some(CalibrationOutcome::Published)
        );
    }

    #[test]
    fn resolution_epoch_advances_once_per_resolution_and_wakes_waiters() {
        let latch = CalibrationLatch::new(4);
        let a = ModelKey {
            application: "a".into(),
            fingerprint: 1,
        };
        let b = ModelKey {
            application: "b".into(),
            fingerprint: 2,
        };
        assert_eq!(latch.resolution_epoch(), 0);
        assert!(latch.begin(&a) && latch.begin(&b));

        // A resolution on *any* segment advances the global epoch.
        latch.publish(&a);
        assert_eq!(latch.resolution_epoch(), 1);
        // First-writer-wins: re-resolving a done claim is epoch-inert.
        latch.fail(&a);
        assert_eq!(latch.resolution_epoch(), 1);

        // A waiter parked on the stale epoch wakes when `b` resolves —
        // even though `b` hashes to a different latch segment.
        let woken = std::thread::scope(|s| {
            let waiter = s.spawn(|| latch.wait_resolution(1));
            std::thread::sleep(std::time::Duration::from_millis(10));
            latch.fail(&b);
            waiter.join().expect("waiter thread")
        });
        assert_eq!(woken, 2);
        // A wait on an already-stale epoch returns without blocking.
        assert_eq!(latch.wait_resolution(0), 2);
    }

    #[test]
    fn latch_failure_unblocks_waiters_with_failed() {
        let latch = CalibrationLatch::new(2);
        let key = ModelKey {
            application: "doomed".into(),
            fingerprint: 7,
        };
        assert!(latch.begin(&key));
        latch.fail(&key);
        assert_eq!(latch.wait(&key), CalibrationOutcome::Failed);
    }
}
