//! HDEEM — High Definition Energy Efficiency Monitoring.
//!
//! Taurus nodes carry an FPGA-based power instrumentation system
//! (Hackenberg et al. 2014) that samples blade power at 1 kSa/s without
//! perturbing the host, with roughly 5 ms of measurement latency — both
//! numbers quoted in Section III-B of the paper. The 100 ms significant-
//! region threshold exists precisely because of this delay: shorter regions
//! cannot be attributed reliable energies.

use rand::rngs::StdRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Result of one HDEEM measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HdeemMeasurement {
    /// Integrated energy over the window, joules.
    pub energy_j: f64,
    /// Number of power samples taken.
    pub samples: u64,
    /// Effective measured duration (quantised to the sampling period and
    /// shifted by the start delay), seconds.
    pub measured_duration_s: f64,
}

/// The FPGA power sensor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HdeemSensor {
    /// Sampling rate (1 kSa/s on the real hardware).
    pub sample_rate_hz: f64,
    /// Measurement start delay ("energy measurement using HDEEM has a
    /// delay of 5 ms on average").
    pub start_delay_s: f64,
    /// Relative amplitude noise per sample (FPGA ADC noise, small).
    pub noise_sd: f64,
}

impl HdeemSensor {
    /// The Taurus HDEEM configuration: 1 kSa/s, 5 ms delay.
    pub fn taurus() -> Self {
        Self {
            sample_rate_hz: 1000.0,
            start_delay_s: 5e-3,
            noise_sd: 0.001,
        }
    }

    /// Ideal sensor: instant, continuous, noiseless. Useful for tests.
    pub fn ideal() -> Self {
        Self {
            sample_rate_hz: f64::INFINITY,
            start_delay_s: 0.0,
            noise_sd: 0.0,
        }
    }

    /// Measure a window of constant power.
    ///
    /// The sensor misses the first `start_delay_s` of the window and sees
    /// an integer number of samples; with a 1 kHz clock a 100 ms region
    /// yields ~95 usable samples, a 1 ms region may yield none — the
    /// quantisation that motivates the significant-region threshold.
    pub fn measure(&self, power_w: f64, duration_s: f64, rng: &mut StdRng) -> HdeemMeasurement {
        self.measure_trace(&[(power_w, duration_s)], rng)
    }

    /// Measure a piecewise-constant power trace of `(power_w, dt_s)`
    /// segments: [`Self::integrate`] then [`Self::perturb`].
    pub fn measure_trace(&self, segments: &[(f64, f64)], rng: &mut StdRng) -> HdeemMeasurement {
        let mut m = self.integrate(segments);
        m.energy_j = self.perturb(m.energy_j, rng);
        m
    }

    /// The noise-free part of [`Self::measure_trace`]: the energy the
    /// sensor integrates over its visible, sample-quantised window.
    pub fn integrate(&self, segments: &[(f64, f64)]) -> HdeemMeasurement {
        let total: f64 = segments.iter().map(|(_, dt)| dt).sum();
        let visible = (total - self.start_delay_s).max(0.0);

        if !self.sample_rate_hz.is_finite() {
            // Ideal: continuous integration of the visible window.
            return HdeemMeasurement {
                energy_j: integrate_window(segments, self.start_delay_s, total),
                samples: u64::MAX,
                measured_duration_s: visible,
            };
        }

        let period = 1.0 / self.sample_rate_hz;
        let samples = (visible / period).floor() as u64;
        let measured = samples as f64 * period;
        HdeemMeasurement {
            energy_j: integrate_window(segments, self.start_delay_s, self.start_delay_s + measured),
            samples,
            measured_duration_s: measured,
        }
    }

    /// The random part of [`Self::measure_trace`]: apply one ADC noise
    /// draw from `rng` to an integrated energy. A sampling sensor with
    /// noise draws once per positive energy; an ideal sensor, a
    /// noiseless one or a zero energy draws nothing.
    pub fn perturb(&self, energy_j: f64, rng: &mut StdRng) -> f64 {
        if self.sample_rate_hz.is_finite() && self.noise_sd > 0.0 && energy_j > 0.0 {
            let normal = Normal::new(1.0, self.noise_sd).expect("valid noise");
            energy_j * normal.sample(rng).max(0.0)
        } else {
            energy_j
        }
    }
}

impl Default for HdeemSensor {
    fn default() -> Self {
        Self::taurus()
    }
}

/// Integrate a piecewise-constant power trace between `from` and `to`
/// seconds (clamped to the trace).
fn integrate_window(segments: &[(f64, f64)], from: f64, to: f64) -> f64 {
    let mut t = 0.0;
    let mut energy = 0.0;
    for &(p, dt) in segments {
        let seg_start = t;
        let seg_end = t + dt;
        let a = seg_start.max(from);
        let b = seg_end.min(to);
        if b > a {
            energy += p * (b - a);
        }
        t = seg_end;
    }
    energy
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn ideal_sensor_is_exact() {
        let s = HdeemSensor::ideal();
        let m = s.measure(250.0, 2.0, &mut rng());
        assert!((m.energy_j - 500.0).abs() < 1e-9);
    }

    #[test]
    fn taurus_sensor_misses_start_delay() {
        let mut s = HdeemSensor::taurus();
        s.noise_sd = 0.0;
        let m = s.measure(100.0, 1.0, &mut rng());
        // 5 ms missed, 995 samples of 1 ms each.
        assert_eq!(m.samples, 995);
        assert!((m.energy_j - 99.5).abs() < 1e-9, "energy {}", m.energy_j);
    }

    #[test]
    fn sub_threshold_regions_yield_few_samples() {
        let s = HdeemSensor::taurus();
        let short = s.measure(100.0, 0.006, &mut rng());
        assert!(short.samples <= 1, "samples {}", short.samples);
        let long = s.measure(100.0, 0.150, &mut rng());
        assert!(long.samples >= 100, "samples {}", long.samples);
    }

    #[test]
    fn trace_integration_weights_segments() {
        let s = HdeemSensor::ideal();
        let m = s.measure_trace(&[(100.0, 1.0), (300.0, 0.5)], &mut rng());
        assert!((m.energy_j - 250.0).abs() < 1e-9);
    }

    #[test]
    fn integrate_partial_window() {
        let e = integrate_window(&[(100.0, 1.0), (200.0, 1.0)], 0.5, 1.5);
        assert!((e - (100.0 * 0.5 + 200.0 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn noise_is_small_and_seeded() {
        let s = HdeemSensor::taurus();
        let a = s.measure(200.0, 1.0, &mut rng());
        let b = s.measure(200.0, 1.0, &mut rng());
        assert_eq!(a, b, "same seed must reproduce");
        let exact = 200.0 * 0.995;
        assert!((a.energy_j - exact).abs() / exact < 0.01);
    }

    #[test]
    fn measure_trace_is_integrate_then_perturb() {
        let segments = [(180.0, 0.4), (260.0, 0.7), (90.0, 0.2)];
        for s in [HdeemSensor::taurus(), HdeemSensor::ideal()] {
            let measured = s.measure_trace(&segments, &mut rng());
            let mut split = s.integrate(&segments);
            let mut r = rng();
            split.energy_j = s.perturb(split.energy_j, &mut r);
            assert_eq!(measured.energy_j.to_bits(), split.energy_j.to_bits());
            assert_eq!(measured.samples, split.samples);
            assert_eq!(measured.measured_duration_s, split.measured_duration_s);
        }
        // The noise is the only random part, and a noisy sensor draws it.
        let s = HdeemSensor::taurus();
        assert_ne!(s.perturb(100.0, &mut rng()), 100.0);
        assert_eq!(s.perturb(0.0, &mut rng()), 0.0);
    }

    #[test]
    fn zero_duration_measures_nothing() {
        let s = HdeemSensor::taurus();
        let m = s.measure(500.0, 0.0, &mut rng());
        assert_eq!(m.samples, 0);
        assert_eq!(m.energy_j, 0.0);
    }
}
