//! # testkit — the deterministic scenario engine
//!
//! The runtime's value proposition is that tuning-model serving keeps
//! paying off across *diverse, messy* cluster conditions — heterogeneous
//! nodes, bursty arrivals, failing jobs, evicting repositories. This
//! crate generates those conditions on demand and proves the runtime's
//! invariants hold under all of them:
//!
//! * [`generator`] — seed → [`Scenario`]: Poisson/bursty job-arrival
//!   traces over mixed workload populations (kernel-catalog specs plus
//!   size-jittered synthetics), heterogeneous fleets with capability
//!   gaps, repository pressure, a [`FaultPlan`] of job aborts, refused
//!   calibrations and mid-run drift shifts; the `replicas` knob adds a
//!   [`NetPlan`] of message drops, duplicates, reorder jitter and
//!   partition windows for the replicated execution, the
//!   `churn_events` knob adds a node join/drain/fail schedule for the
//!   discrete-event service run, and the `inloop_gossip` /
//!   `replica_churn_events` knobs drive replication **in-loop** —
//!   gossip between job events on a drawn cadence, read-repair, and a
//!   replica crash/restart schedule.
//! * [`scenario`] — the [`Scenario`] value itself: pure serialisable
//!   data, from which fleets, repositories and the fault injector are
//!   derived deterministically. [`Scenario::to_replay`] turns any
//!   scenario into a one-line repro.
//! * [`runner`] — [`run_scenario`]: the same trace through the
//!   sequential, parallel *and* discrete-event service loops, with a
//!   liveness [`Watchdog`] over the parallel run — plus, for scenarios
//!   carrying a [`NetPlan`], twice through the replicated
//!   [`rrl::ReplicaSet`] path ([`ReplicatedRun`]) and, when the plan
//!   sets a gossip cadence, twice through the in-loop replicated
//!   service loop ([`InloopRun`]) with a trailing batch-`converge`
//!   oracle.
//! * [`invariants`] — [`check`]: the invariant catalog (seq↔par per-job
//!   bit-identity, version integrity, latch liveness, the `event_core`
//!   guarantees of the service run, telemetry neutrality, replica
//!   convergence/winner/determinism, in-loop convergence against the
//!   batch oracle; invariants 3 and 8 are retired). Failures carry a
//!   `testkit::replay("…")` line.
//! * [`shrink`](mod@shrink) — greedy minimisation of a failing scenario: collapse
//!   churn, drop jobs, drop faults, strip the net plan, shrink the
//!   fleet, collapse the workers — while the failure label stays the
//!   same.
//! * [`helpers`] — the shared test builders (toy workloads, the Lulesh
//!   Table III model, the canonical fallback) deduplicated out of the
//!   integration tests.
//!
//! The zero-to-repro loop:
//!
//! ```no_run
//! use testkit::{GeneratorConfig, ScenarioGenerator};
//!
//! let generator = ScenarioGenerator::new(GeneratorConfig::default());
//! for seed in 0..10 {
//!     let scenario = generator.generate(seed);
//!     if let Err(failure) = testkit::check(&scenario) {
//!         // Prints the violation plus `testkit::replay("…")`.
//!         panic!("{failure}");
//!     }
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod generator;
pub mod helpers;
pub mod invariants;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use generator::{ArrivalModel, GeneratorConfig, ScenarioGenerator};
pub use helpers::{
    lulesh_table3_model, repo_with_lulesh, taurus_fallback, toy_benchmark, SpinPermit, SpinPermits,
};
pub use invariants::{check, Failure, Violation};
pub use runner::{run_scenario, InloopRun, ReplicatedRun, ScenarioRun, Watchdog};
pub use scenario::{
    AbortFault, DriftShiftFault, FaultPlan, FleetSpec, JobSpec, NetPlan, NodeSpec, OnlineSpec,
    PartitionWindow, RepositorySpec, Scenario, StoredModel, WorkloadSpec,
};
pub use shrink::{shrink, Shrunk};

/// Re-run a replay line produced by a [`Failure`] (or
/// [`Scenario::to_replay`]) through the full invariant catalog.
pub fn replay(line: &str) -> Result<ScenarioRun, Box<Failure>> {
    let scenario = Scenario::from_replay(line).map_err(|detail| {
        Box::new(Failure {
            violation: Violation::Malformed { detail },
            replay: line.to_string(),
        })
    })?;
    check(&scenario)
}
