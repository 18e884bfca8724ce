//! Seeded input generation.
//!
//! Every input a run feeds the service — the application mix, the input
//! scales, the arrival times and the replica crash/restart schedule — is
//! drawn here from one `--seed` through splitmix64, so the same seed
//! always gives the same trace and the program under test only ever sees
//! the generated [`JobArrival`]s. Arrivals are an open loop in virtual
//! time: the trace is fixed before the run starts, whatever the service
//! does with it.

use kernels::BenchmarkSpec;
use rrl::{JobArrival, ReplicaChurnEvent, ReplicaChurnKind};

use crate::workload::{Shape, Workload};

/// The seed used while the benchmark was written and tuned.
pub const TUNING_SEED: u64 = 1;

/// A second seed, never used while writing or tuning the benchmark:
/// run a claimed gain on it too before believing the claim.
pub const HELD_OUT_SEED: u64 = 0x0BAD_5EED_2019;

/// Input scales of the cold workloads: each bundled application runs at
/// `k` times its bundled phase-iteration count. Longer runs give the
/// online calibration room to fit; at the short scales some
/// applications cannot fit it and abandon, which the mix keeps.
pub const COLD_SCALES: [u32; 4] = [3, 4, 5, 6];

/// The splitmix64 generator (Steele, Lea & Flood 2014): one 64-bit
/// state word, no dependencies, identical output on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// One independent stream per workload, so a seed does not give two
/// workloads correlated draws.
fn stream(workload: Workload, seed: u64) -> SplitMix64 {
    let tag = workload
        .name()
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
        });
    SplitMix64::new(seed ^ tag)
}

/// `bench` at input scale `k`: the same regions, run for `k` times as
/// many phase iterations. A distinct workload fingerprint per scale.
pub fn scaled(bench: &BenchmarkSpec, k: u32) -> BenchmarkSpec {
    let mut out = bench.clone();
    out.phase_iterations *= k;
    out
}

/// The one-region, one-iteration job of `small_jobs`: the conjugate
/// gradient kernel of the bundled CG, alone. Memory-bound, so its stored
/// model saves energy even over one short iteration.
pub fn small_job() -> BenchmarkSpec {
    let cg = kernels::benchmark("CG").expect("CG is bundled");
    let region = cg.regions[0].clone();
    BenchmarkSpec::new("small", cg.suite, cg.model, 1, vec![region])
}

/// Deals indices `0..n` in rounds, each round a fresh seed-drawn
/// permutation: every entry of the catalogue appears equally often per
/// round, in random order. A trace dealt this way has the same mix on
/// every seed (up to the last, partial round), so seeds differ in order
/// and timing, not in how much of each application they hold.
struct Deck {
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(n: usize) -> Self {
        Self {
            order: (0..n).collect(),
            next: n,
        }
    }

    fn deal(&mut self, rng: &mut SplitMix64) -> usize {
        if self.next == self.order.len() {
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// The job trace of `workload` under `seed`: `shape.jobs` arrivals with
/// exponentially distributed gaps of mean `shape.mean_gap_s` virtual
/// seconds, each running an application dealt from the workload's mix.
/// `apps` is the bundled application catalogue
/// ([`kernels::all_benchmarks`]).
pub fn trace(
    workload: Workload,
    seed: u64,
    shape: &Shape,
    apps: &[BenchmarkSpec],
) -> Vec<JobArrival> {
    let mut rng = stream(workload, seed);
    let catalogue: Vec<BenchmarkSpec> = match workload {
        Workload::WarmApps => apps.to_vec(),
        Workload::SmallJobs => vec![small_job()],
        Workload::ColdReplicated => apps
            .iter()
            .flat_map(|app| COLD_SCALES.iter().map(move |&k| scaled(app, k)))
            .collect(),
    };
    let mut deck = Deck::new(catalogue.len());
    let mut at = 0.0;
    (0..shape.jobs)
        .map(|i| {
            // The seed is part of every job name, and names seed each
            // job's energy-measurement noise.
            let arrival = JobArrival {
                name: format!("{}-{seed}-{i}", workload.name()),
                bench: catalogue[deck.deal(&mut rng)].clone(),
                arrival_s: at,
            };
            at += rng.exp(shape.mean_gap_s);
            arrival
        })
        .collect()
}

/// The replica crash/restart schedule of `cold_replicated` under
/// `seed`: two crashes of distinct replicas, each restarted later, all
/// inside the trace's arrival window (`span_s` virtual seconds). At most
/// one replica is down at a time.
pub fn replica_churn(seed: u64, replicas: u32, span_s: f64) -> Vec<ReplicaChurnEvent> {
    let mut rng = stream(Workload::ColdReplicated, seed ^ 0xC4A5_4C4A_5E00_0001);
    let first = rng.below(replicas as usize) as u32;
    let second = (first + 1 + rng.below(replicas as usize - 1) as u32) % replicas;
    let mut events = Vec::with_capacity(4);
    for (replica, window) in [(first, 0.15), (second, 0.55)] {
        let crash = span_s * (window + 0.1 * rng.unit());
        let down = span_s * (0.05 + 0.1 * rng.unit());
        events.push(ReplicaChurnEvent {
            at_s: crash,
            replica,
            kind: ReplicaChurnKind::Crash,
        });
        events.push(ReplicaChurnEvent {
            at_s: crash + down,
            replica,
            kind: ReplicaChurnKind::Restart,
        });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_values() {
        // First outputs for seed 1234567 from the reference C
        // implementation.
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..10_000 {
            assert!(rng.below(19) < 19);
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(rng.exp(2.0) >= 0.0);
        }
    }

    #[test]
    fn churn_keeps_one_replica_down_at_a_time() {
        for seed in 0..64 {
            let churn = replica_churn(seed, 4, 1000.0);
            assert_eq!(churn.len(), 4);
            assert_ne!(churn[0].replica, churn[2].replica);
            assert!(churn[0].at_s < churn[1].at_s);
            assert!(
                churn[1].at_s < churn[2].at_s,
                "second crash after first restart"
            );
            assert!(churn[2].at_s < churn[3].at_s && churn[3].at_s < 1000.0);
        }
    }
}
