//! The Tuning Plugin Interface.
//!
//! PTF's generic Tuning Plugin Interface drives plugins through a
//! lifecycle: initialisation, tuning steps that create and evaluate
//! scenarios, and final tuning-advice generation. [`TuningPlugin`] models
//! that lifecycle; [`DvfsUfsPlugin`] is the paper's plugin, delegating to
//! the staged [`TuningSession`].

use kernels::BenchmarkSpec;
use simnode::Node;

use crate::freqpred::EnergyModel;
use crate::objectives::TuningObjective;
use crate::session::{DtaReport, TuningError, TuningSession};
use crate::tuning_model::TuningModel;

/// Lifecycle of a PTF tuning plugin.
pub trait TuningPlugin {
    /// Plugin name (as registered with the framework).
    fn name(&self) -> &'static str;

    /// Called once with the application before any tuning step
    /// (`initialize` in the TPI).
    fn initialize(&mut self, app: &BenchmarkSpec);

    /// Execute all tuning steps and produce the tuning advice
    /// (`createScenarios`/`prepareScenarios`/`defineExperiments`/
    /// `getAdvice` — the staged session drives the experiment loop).
    ///
    /// Calling `tune` before [`TuningPlugin::initialize`] is a
    /// [`TuningError::NotInitialized`] error, not a panic.
    fn tune(&mut self, node: &Node) -> Result<DtaReport, TuningError>;

    /// The final tuning model, available after a successful
    /// [`TuningPlugin::tune`].
    fn tuning_model(&self) -> Option<&TuningModel>;
}

/// The paper's model-based DVFS/UFS/OpenMP tuning plugin.
pub struct DvfsUfsPlugin {
    model: EnergyModel,
    objective: TuningObjective,
    app: Option<BenchmarkSpec>,
    result: Option<DtaReport>,
}

impl DvfsUfsPlugin {
    /// Create the plugin with a trained energy model.
    pub fn new(model: EnergyModel) -> Self {
        Self {
            model,
            objective: TuningObjective::Energy,
            app: None,
            result: None,
        }
    }

    /// Use a non-default tuning objective (EDP, ED²P, TCO).
    #[must_use]
    pub fn with_objective(mut self, objective: TuningObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Full DTA report of the last successful [`TuningPlugin::tune`] call.
    pub fn report(&self) -> Option<&DtaReport> {
        self.result.as_ref()
    }
}

impl TuningPlugin for DvfsUfsPlugin {
    fn name(&self) -> &'static str {
        "dvfs-ufs-energy-tuning"
    }

    fn initialize(&mut self, app: &BenchmarkSpec) {
        self.app = Some(app.clone());
        self.result = None;
    }

    fn tune(&mut self, node: &Node) -> Result<DtaReport, TuningError> {
        let app = self.app.as_ref().ok_or(TuningError::NotInitialized {
            plugin: "dvfs-ufs-energy-tuning",
        })?;
        let advice = TuningSession::builder(node)
            .with_model(&self.model)
            .with_objective(self.objective)
            .run(app)?;
        let report = advice.into_report();
        self.result = Some(report.clone());
        Ok(report)
    }

    fn tuning_model(&self) -> Option<&TuningModel> {
        self.result.as_ref().map(|r| &r.tuning_model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modeldata::build_dataset;
    use enermodel::adam::AdamConfig;
    use enermodel::nn::NetConfig;
    use enermodel::train::TrainConfig;

    fn quick_model(node: &Node) -> EnergyModel {
        let benches = vec![
            kernels::benchmark("EP").unwrap(),
            kernels::benchmark("CG").unwrap(),
            kernels::benchmark("BT").unwrap(),
            kernels::benchmark("MG").unwrap(),
        ];
        let core: Vec<u32> = (12..=25).step_by(3).map(|r| r * 100).collect();
        let uncore: Vec<u32> = (13..=30).step_by(3).map(|r| r * 100).collect();
        let data = build_dataset(&benches, node, &[24], &core, &uncore);
        EnergyModel::train(
            &data,
            &TrainConfig {
                net: NetConfig::paper(5),
                adam: AdamConfig::default(),
                epochs: 8,
                shuffle_seed: 2,
                lr_decay: 1.0,
            },
        )
    }

    #[test]
    fn plugin_lifecycle() {
        let node = Node::exact(0);
        let model = quick_model(&node);
        let mut plugin = DvfsUfsPlugin::new(model);
        assert_eq!(plugin.name(), "dvfs-ufs-energy-tuning");
        assert!(plugin.tuning_model().is_none());

        plugin.initialize(&kernels::benchmark("miniMD").unwrap());
        let report = plugin.tune(&node).expect("tune after initialize succeeds");
        assert!(plugin.tuning_model().is_some());
        assert_eq!(plugin.report().unwrap().experiments, report.experiments);
        assert_eq!(report.tuning_model.application, "miniMD");
    }

    #[test]
    fn tune_without_initialize_is_an_error() {
        let node = Node::exact(0);
        let model = quick_model(&node);
        let mut plugin = DvfsUfsPlugin::new(model);
        let err = plugin.tune(&node).unwrap_err();
        assert_eq!(
            err,
            TuningError::NotInitialized {
                plugin: "dvfs-ufs-energy-tuning"
            }
        );
        assert!(err.to_string().contains("initialize() must be called"));
        assert!(plugin.tuning_model().is_none());
    }

    #[test]
    fn initialize_resets_previous_advice() {
        let node = Node::exact(0);
        let model = quick_model(&node);
        let mut plugin = DvfsUfsPlugin::new(model);
        plugin.initialize(&kernels::benchmark("miniMD").unwrap());
        plugin.tune(&node).expect("tune succeeds");
        assert!(plugin.tuning_model().is_some());
        plugin.initialize(&kernels::benchmark("EP").unwrap());
        assert!(
            plugin.tuning_model().is_none(),
            "re-initialising clears stale advice"
        );
    }
}
