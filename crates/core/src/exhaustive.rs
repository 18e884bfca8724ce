//! The exhaustive-search baseline and the Section V-C tuning-time model.
//!
//! Sourouri et al. (SC'17) select per-region configurations by exhaustive
//! search with manual instrumentation; the paper contrasts its tuning time
//! `n·k·l·m·t` against the model-based `(k + 1 + 9)·t`. This module
//! implements both the actual exhaustive search (used as the ground-truth
//! oracle in the experiments) and the cost model.

use kernels::BenchmarkSpec;
use rayon::prelude::*;
use simnode::{ExecutionEngine, Node, SystemConfig};

use crate::objectives::TuningObjective;
use crate::search::SearchSpace;

/// Exhaustively find each significant region's best configuration over
/// `space`. Returns `(region name, best config, best objective score)`.
pub fn search_all_regions(
    bench: &BenchmarkSpec,
    node: &Node,
    space: &SearchSpace,
    objective: TuningObjective,
    significant: &[String],
) -> Vec<(String, SystemConfig, f64)> {
    let engine = ExecutionEngine::new();
    let configs = space.configs();
    significant
        .par_iter()
        .map(|name| {
            let region = bench.region(name).expect("region exists");
            let mut best_cfg = configs[0];
            let mut best_score = f64::INFINITY;
            for cfg in &configs {
                let run = engine.region_cost(&region.character, cfg, node);
                let s = objective.score(run.node_energy_j, run.duration_s);
                if s < best_score {
                    best_score = s;
                    best_cfg = *cfg;
                }
            }
            (name.clone(), best_cfg, best_score)
        })
        .collect()
}

/// Exhaustively find the best whole-application (static) configuration.
pub fn search_static(
    bench: &BenchmarkSpec,
    node: &Node,
    space: &SearchSpace,
    objective: TuningObjective,
) -> (SystemConfig, f64) {
    let engine = ExecutionEngine::new();
    let phase = bench.phase_character();
    space
        .configs()
        .par_iter()
        .map(|cfg| {
            let run = engine.region_cost(&phase, cfg, node);
            (*cfg, objective.score(run.node_energy_j, run.duration_s))
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("nonempty search space")
}

/// Tuning time of the exhaustive per-region approach: `n · k · l · m · t`
/// (regions × threads × core states × uncore states × seconds per run).
pub fn tuning_time_exhaustive(n_regions: usize, space: &SearchSpace, t_run_s: f64) -> f64 {
    n_regions as f64 * space.len() as f64 * t_run_s
}

/// Tuning time of the model-based approach: `(k + 1 + v) · t` where `k` is
/// the thread-candidate count, 1 the analysis run and `v` the verification
/// neighbourhood size (9 in the paper: 3 × 3).
pub fn tuning_time_model_based(k_threads: usize, verification_configs: usize, t_run_s: f64) -> f64 {
    (k_threads + 1 + verification_configs) as f64 * t_run_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_matches_paper_formulas() {
        let space = SearchSpace::full(vec![12, 16, 20, 24]);
        // n=5, k=4, l=14, m=18, t=10 s.
        let exhaustive = tuning_time_exhaustive(5, &space, 10.0);
        assert_eq!(exhaustive, 5.0 * 4.0 * 14.0 * 18.0 * 10.0);
        let model = tuning_time_model_based(4, 9, 10.0);
        assert_eq!(model, (4.0 + 1.0 + 9.0) * 10.0);
        assert!(exhaustive / model > 300.0, "speedup {}", exhaustive / model);
    }

    #[test]
    fn static_search_finds_calibrated_optimum() {
        let node = Node::exact(0);
        let bench = kernels::benchmark("miniMD").unwrap();
        let space = SearchSpace::full(vec![12, 16, 20, 24]);
        let (best, _) = search_static(&bench, &node, &space, TuningObjective::Energy);
        // From the calibration harness: miniMD statically tunes to
        // 24 threads, 2.5 GHz core, 1.5 GHz uncore (matches Table V).
        assert_eq!(best, SystemConfig::new(24, 2500, 1500));
    }

    #[test]
    fn per_region_search_respects_personalities() {
        let node = Node::exact(0);
        let bench = kernels::benchmark("Lulesh").unwrap();
        let space = SearchSpace::full(vec![24]);
        let significant: Vec<String> = bench
            .regions
            .iter()
            .filter(|r| r.character.instr_per_iter > 1e9)
            .map(|r| r.name.clone())
            .collect();
        let results =
            search_all_regions(&bench, &node, &space, TuningObjective::Energy, &significant);
        assert_eq!(results.len(), 5);
        for (name, cfg, _) in &results {
            // All five regions are compute-leaning: high core frequency
            // (the heaviest-traffic region, CalcKinematicsForElems, dips
            // to ~2.1 GHz in the full-space search), low-mid uncore.
            assert!(cfg.core.mhz() >= 2100, "{name} core {}", cfg.core);
            assert!(cfg.uncore.mhz() <= 2200, "{name} uncore {}", cfg.uncore);
        }
    }
}
