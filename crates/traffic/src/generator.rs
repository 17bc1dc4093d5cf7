//! The OD-flow traffic generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use netanom_linalg::Matrix;
use netanom_topology::Network;

use crate::dist;
use crate::diurnal::DiurnalProfile;
use crate::gravity::GravityModel;
use crate::series::OdSeries;

/// Heteroscedastic Gaussian noise: each flow's innovations have standard
/// deviation `coeff · mean^exponent`.
///
/// Measured OD flows show variance growing with the mean (a power law with
/// exponent between 1 and 2 in the variance, i.e. 0.5–1 in the standard
/// deviation); `exponent ≈ 0.85` reproduces the paper's key qualitative
/// fact that **large flows have larger absolute variance**, which is why
/// the normal subspace aligns with them and fixed-size anomalies are
/// harder to detect there (Section 5.4, Figure 9).
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    /// Multiplier on `mean^exponent`.
    pub coeff: f64,
    /// Power applied to the flow mean.
    pub exponent: f64,
}

impl NoiseModel {
    /// Noise standard deviation for a flow with the given mean rate.
    pub fn std_for_mean(&self, mean: f64) -> f64 {
        if mean <= 0.0 {
            0.0
        } else {
            self.coeff * mean.powf(self.exponent)
        }
    }
}

/// Full configuration of a synthetic week of traffic.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Master seed; every derived random stream is a function of it.
    pub seed: u64,
    /// Number of 10-minute bins to generate (1008 = one week).
    pub bins: usize,
    /// Gravity model for mean rates.
    pub gravity: GravityModel,
    /// Traffic classes. Each flow is assigned to one class (sampled by
    /// class weight) and draws its diurnal profile from that class.
    ///
    /// Class heterogeneity is a *structural* parameter, not a nuisance:
    /// distinct peak hours and weekend behaviours (business vs
    /// residential) spread the common temporal variance over several
    /// principal components instead of one, reproducing the flat-headed
    /// scree of the paper's Figure 3 (first component ≈ 60%, components
    /// 2-4 several percent each).
    pub classes: Vec<TrafficClass>,
    /// Innovation (white) noise model.
    pub noise: NoiseModel,
    /// Number of shared *demand factors*: slow AR(1) processes modelling
    /// regional activity levels that modulate every flow multiplicatively.
    ///
    /// Real OD flows drift around their seasonal profile on multi-hour
    /// timescales (the paper's Figure 1 shows elephant flows wandering by
    /// tens of percent), and those drifts are correlated across flows
    /// (common upstream demand). Each flow's seasonal level is multiplied
    /// by `1 + wander_scale · Σₖ w_fk · z_k(t)`, with fixed per-flow
    /// sensitivities `w_fk ~ N(0, 1/K)` and `z_k` a unit-variance AR(1).
    /// In link space the factors form a handful of large, smooth
    /// eigendirections dominated by the biggest flows; PCA pulls them
    /// into the normal subspace, which is exactly why the paper finds
    /// fixed-size anomalies harder to detect in large flows (Section 5.4,
    /// Figure 9). Set to 0 to disable.
    pub wander_factors: usize,
    /// Relative wander magnitude: each flow's factor-driven drift has
    /// standard deviation ≈ `wander_scale · mean` (e.g. `0.18` = 18%).
    pub wander_scale: f64,
    /// AR(1) coefficient of the factor processes (`0 ≤ φ < 1`); `0.99`
    /// gives a ~17-hour correlation time at 10-minute bins.
    pub wander_phi: f64,
}

/// A customer class with a characteristic temporal shape.
#[derive(Debug, Clone)]
pub struct TrafficClass {
    /// Relative probability that a flow belongs to this class.
    pub weight: f64,
    /// Peak hour of the class's 24-hour cycle.
    pub peak_hour: f64,
    /// Std-dev of per-flow Gaussian jitter on the peak hour (timezones,
    /// customer idiosyncrasies).
    pub peak_jitter_hours: f64,
    /// Range of the 24-hour amplitude drawn per flow (uniform).
    pub amp_24h: (f64, f64),
    /// Range of the 12-hour amplitude drawn per flow (uniform).
    pub amp_12h: (f64, f64),
    /// Range of the 8-hour amplitude drawn per flow (uniform).
    pub amp_8h: (f64, f64),
    /// Range of the per-flow weekend damping factor (uniform).
    pub weekend_range: (f64, f64),
}

impl TrafficClass {
    /// Enterprise/business traffic: early-afternoon peak, strong diurnal
    /// swing, pronounced weekend dip.
    pub fn business(weight: f64) -> Self {
        TrafficClass {
            weight,
            peak_hour: 14.0,
            peak_jitter_hours: 1.5,
            amp_24h: (0.30, 0.50),
            amp_12h: (0.04, 0.12),
            amp_8h: (0.00, 0.04),
            weekend_range: (0.40, 0.65),
        }
    }

    /// Residential/eyeball traffic: evening peak, moderate swing, little
    /// weekend effect.
    pub fn residential(weight: f64) -> Self {
        TrafficClass {
            weight,
            peak_hour: 21.0,
            peak_jitter_hours: 1.5,
            amp_24h: (0.15, 0.40),
            amp_12h: (0.02, 0.08),
            amp_8h: (0.00, 0.03),
            weekend_range: (0.85, 1.05),
        }
    }
}

impl GeneratorConfig {
    /// A reasonable default calibration (used by the canned datasets with
    /// per-dataset overrides): one week, a business/residential customer
    /// mix, heavy-tailed flow sizes.
    pub fn default_week(seed: u64, total_bytes_per_bin: f64) -> Self {
        GeneratorConfig {
            seed,
            bins: crate::series::BINS_PER_WEEK,
            gravity: GravityModel {
                total_bytes_per_bin,
                weight_sigma: 0.8,
            },
            classes: vec![TrafficClass::business(0.5), TrafficClass::residential(0.5)],
            noise: NoiseModel {
                coeff: 0.6,
                exponent: 0.85,
            },
            wander_factors: 0,
            wander_scale: 0.0,
            wander_phi: 0.99,
        }
    }
}

/// Generates OD-flow timeseries for a network.
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    config: GeneratorConfig,
}

impl TrafficGenerator {
    /// Create a generator from a configuration.
    pub fn new(config: GeneratorConfig) -> Self {
        TrafficGenerator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generate the anomaly-free base traffic for `network`.
    ///
    /// Per flow `f`: `x_f(t) = m_f · s_f(t) + ε_f(t)`, clamped at zero,
    /// where `m_f` comes from the gravity model, `s_f` is the flow's
    /// diurnal/weekly profile, and `ε_f` is iid Gaussian with the
    /// configured mean-scaled deviation. Deterministic for a given seed.
    pub fn generate(&self, network: &Network) -> OdSeries {
        let cfg = &self.config;
        let n_pops = network.topology.num_pops();
        let n_flows = network.routing_matrix.num_flows();

        let means = cfg
            .gravity
            .mean_rates(n_pops, cfg.seed ^ 0x67617276 /* "grav" */);
        debug_assert_eq!(means.len(), n_flows);

        // Per-flow profile parameters: pick a class, then draw the
        // profile from it.
        assert!(!cfg.classes.is_empty(), "need at least one traffic class");
        let total_weight: f64 = cfg.classes.iter().map(|c| c.weight).sum();
        assert!(total_weight > 0.0, "class weights must sum to > 0");
        let mut prng = StdRng::seed_from_u64(cfg.seed ^ 0x70726F66 /* "prof" */);
        let profiles: Vec<DiurnalProfile> = (0..n_flows)
            .map(|_| {
                let mut pick = prng.random_range(0.0..total_weight);
                let mut class = &cfg.classes[0];
                for c in &cfg.classes {
                    if pick < c.weight {
                        class = c;
                        break;
                    }
                    pick -= c.weight;
                }
                DiurnalProfile {
                    amp_24h: prng.random_range(class.amp_24h.0..=class.amp_24h.1),
                    amp_12h: prng.random_range(class.amp_12h.0..=class.amp_12h.1),
                    amp_8h: prng.random_range(class.amp_8h.0..=class.amp_8h.1),
                    peak_hour: class.peak_hour
                        + class.peak_jitter_hours * dist::standard_normal(&mut prng),
                    weekend_factor: prng
                        .random_range(class.weekend_range.0..=class.weekend_range.1),
                }
            })
            .collect();
        let stds: Vec<f64> = means.iter().map(|&m| cfg.noise.std_for_mean(m)).collect();

        // Shared demand factors: unit-variance AR(1) series plus fixed
        // per-flow sensitivities.
        let phi = cfg.wander_phi.clamp(0.0, 0.999_999);
        let innov_scale = (1.0 - phi * phi).sqrt();
        let k = cfg.wander_factors;
        let mut wrng = StdRng::seed_from_u64(cfg.seed ^ 0x77616E64 /* "wand" */);
        let factors: Vec<Vec<f64>> = (0..k)
            .map(|_| {
                // Stationary start, no initialization transient.
                let mut z = dist::standard_normal(&mut wrng);
                (0..cfg.bins)
                    .map(|_| {
                        let cur = z;
                        z = phi * z + innov_scale * dist::standard_normal(&mut wrng);
                        cur
                    })
                    .collect()
            })
            .collect();
        let norm_k = if k > 0 { (k as f64).sqrt() } else { 1.0 };
        let sensitivities: Vec<Vec<f64>> = (0..n_flows)
            .map(|_| {
                (0..k)
                    .map(|_| dist::standard_normal(&mut wrng) / norm_k)
                    .collect()
            })
            .collect();

        let mut nrng = StdRng::seed_from_u64(cfg.seed ^ 0x6E6F6973 /* "nois" */);
        let mut data = Matrix::zeros(cfg.bins, n_flows);
        for f in 0..n_flows {
            let profile = &profiles[f];
            let m = means[f];
            let sd = stds[f];
            let wamp = m * cfg.wander_scale;
            for t in 0..cfg.bins {
                let mut wander = 0.0;
                for (kk, factor) in factors.iter().enumerate() {
                    wander += sensitivities[f][kk] * factor[t];
                }
                let v = m * profile.factor(t) + wamp * wander + dist::normal(&mut nrng, 0.0, sd);
                data[(t, f)] = v.max(0.0);
            }
        }
        OdSeries::new(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netanom_linalg::stats;
    use netanom_topology::builtin;

    fn small_config(seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            bins: 288, // two days, fast tests
            ..GeneratorConfig::default_week(seed, 1e9)
        }
    }

    #[test]
    fn noise_model_scales_with_mean() {
        let n = NoiseModel {
            coeff: 0.5,
            exponent: 0.85,
        };
        assert_eq!(n.std_for_mean(0.0), 0.0);
        assert_eq!(n.std_for_mean(-1.0), 0.0);
        let s1 = n.std_for_mean(1e6);
        let s2 = n.std_for_mean(1e8);
        assert!(s2 > s1 * 10.0, "noise should grow with the mean");
        assert!(s2 < s1 * 100.0, "sub-linear growth expected");
    }

    #[test]
    fn generated_shape_and_nonnegativity() {
        let net = builtin::line(4);
        let od = TrafficGenerator::new(small_config(1)).generate(&net);
        assert_eq!(od.num_bins(), 288);
        assert_eq!(od.num_flows(), 16);
        for t in 0..od.num_bins() {
            for f in 0..od.num_flows() {
                assert!(od.get(t, f) >= 0.0);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let net = builtin::line(3);
        let a = TrafficGenerator::new(small_config(7)).generate(&net);
        let b = TrafficGenerator::new(small_config(7)).generate(&net);
        assert!(a.matrix().approx_eq(b.matrix(), 0.0));
        let c = TrafficGenerator::new(small_config(8)).generate(&net);
        assert!(!a.matrix().approx_eq(c.matrix(), 0.0));
    }

    #[test]
    fn total_traffic_near_gravity_total() {
        let net = builtin::ring(5);
        let cfg = small_config(2);
        let total = cfg.gravity.total_bytes_per_bin;
        let od = TrafficGenerator::new(cfg).generate(&net);
        // Average per-bin total should be within the diurnal envelope of
        // the configured total.
        let mut bin_totals = Vec::new();
        for t in 0..od.num_bins() {
            bin_totals.push(od.bin(t).iter().sum::<f64>());
        }
        let mean_total = stats::mean(&bin_totals);
        assert!(
            (0.6..=1.4).contains(&(mean_total / total)),
            "mean per-bin total {mean_total} vs configured {total}"
        );
    }

    #[test]
    fn flows_show_diurnal_variation() {
        let net = builtin::line(3);
        let od = TrafficGenerator::new(small_config(3)).generate(&net);
        // The largest flow's day/night ratio should clearly exceed 1.
        let means = od.flow_means();
        let (f, _) = netanom_linalg::vector::argmax(&means).unwrap();
        let series = od.flow_series(f);
        let day1 = &series[..144];
        let peak = day1.iter().cloned().fold(f64::MIN, f64::max);
        let trough = day1.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            peak / trough.max(1.0) > 1.3,
            "no diurnal swing: peak {peak} trough {trough}"
        );
    }

    #[test]
    fn larger_flows_have_larger_absolute_noise() {
        let net = builtin::ring(6);
        let od = TrafficGenerator::new(small_config(4)).generate(&net);
        let means = od.flow_means();
        // Compare residual std (after removing each flow's own daily
        // profile estimate) for the biggest and smallest flows.
        let residual_std = |f: usize| {
            let s = od.flow_series(f);
            // Crude detrend: difference from the same bin on the other day.
            let diffs: Vec<f64> = (0..144).map(|t| s[t] - s[t + 144]).collect();
            stats::std_dev(&diffs)
        };
        let (fmax, _) = netanom_linalg::vector::argmax(&means).unwrap();
        let fmin = (0..means.len())
            .min_by(|&a, &b| means[a].total_cmp(&means[b]))
            .unwrap();
        assert!(
            residual_std(fmax) > residual_std(fmin),
            "noise should scale with flow size"
        );
    }

    #[test]
    fn weekend_reduces_weekday_traffic() {
        let net = builtin::line(3);
        let mut cfg = GeneratorConfig::default_week(5, 1e9);
        cfg.bins = crate::series::BINS_PER_WEEK;
        let od = TrafficGenerator::new(cfg).generate(&net);
        let mut weekday_total = 0.0;
        let mut weekend_total = 0.0;
        for t in 0..od.num_bins() {
            let day = t / 144;
            let s: f64 = od.bin(t).iter().sum();
            if day >= 5 {
                weekend_total += s;
            } else {
                weekday_total += s;
            }
        }
        let weekday_rate = weekday_total / (5.0 * 144.0);
        let weekend_rate = weekend_total / (2.0 * 144.0);
        assert!(
            weekend_rate < weekday_rate * 0.92,
            "weekend ({weekend_rate}) should be quieter than weekdays ({weekday_rate})"
        );
    }
}
