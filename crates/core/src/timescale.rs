//! Multi-timescale subspace analysis (paper Section 7.3).
//!
//! "It is possible to use the subspace method across multiple time scales
//! by applying PCA to the wavelet transform of measured data. In
//! principle, such a method can allow the detection of anomalies at all
//! timescales."
//!
//! This module implements that extension with a Haar block pyramid: level
//! `l` of the pyramid averages the link measurements over blocks of `2^l`
//! bins and runs the full diagnosis pipeline on the averaged matrix.
//! Averaging commutes with routing (`mean(Ax) = A·mean(x)`), so
//! identification and quantification work unchanged at every level.
//!
//! The payoff is sensitivity to *sustained* low-amplitude anomalies: a
//! shift of `a` bytes per bin lasting `2^l` bins contributes its full
//! amplitude to one level-`l` block while the white measurement noise
//! shrinks by `√2^l` — an SNR gain of `2^{l/2}` over single-bin
//! detection, at the price of coarser localization (`2^l` bins).

use netanom_linalg::Matrix;
use netanom_topology::RoutingMatrix;

use crate::diagnose::{Diagnoser, DiagnoserConfig, DiagnosisReport};
use crate::{CoreError, Result};

/// A detection at one pyramid level, mapped back to bin coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiscaleReport {
    /// Pyramid level (0 = raw bins, `l` = blocks of `2^l` bins).
    pub level: usize,
    /// Block index at that level.
    pub block: usize,
    /// Half-open range of raw bins the block covers.
    pub bin_range: (usize, usize),
    /// The per-level diagnosis (times are block indices; the estimated
    /// bytes are *per averaged bin* — multiply by the block length for a
    /// total-volume reading of a sustained anomaly).
    pub report: DiagnosisReport,
}

/// Diagnosers fitted at every pyramid level.
#[derive(Debug, Clone)]
pub struct MultiscaleDiagnoser {
    levels: Vec<Diagnoser>,
}

/// Average a `t × m` matrix over blocks of `2^level` rows, dropping any
/// partial tail block.
fn block_average(links: &Matrix, level: usize) -> Matrix {
    let span = 1usize << level;
    let blocks = links.rows() / span;
    Matrix::from_fn(blocks, links.cols(), |b, j| {
        let mut acc = 0.0;
        for k in 0..span {
            acc += links[(b * span + k, j)];
        }
        acc / span as f64
    })
}

impl MultiscaleDiagnoser {
    /// Fit one diagnoser per level `0..=max_level` on the training
    /// matrix.
    ///
    /// Each level needs enough blocks to fit a model (`blocks ≥ m`);
    /// levels that run out of data are rejected with
    /// [`CoreError::TooFewSamples`] — a
    /// week of 10-minute bins supports
    /// `max_level = 4` (63 blocks of ~2.7 h) on the paper's networks.
    pub fn fit(
        links: &Matrix,
        rm: &RoutingMatrix,
        config: DiagnoserConfig,
        max_level: usize,
    ) -> Result<Self> {
        let mut levels = Vec::with_capacity(max_level + 1);
        for level in 0..=max_level {
            let averaged = block_average(links, level);
            if averaged.rows() < links.cols() {
                return Err(CoreError::TooFewSamples {
                    got: averaged.rows(),
                    need: links.cols(),
                });
            }
            levels.push(Diagnoser::fit(&averaged, rm, config)?);
        }
        Ok(MultiscaleDiagnoser { levels })
    }

    /// Number of fitted levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The per-level diagnoser (level 0 = raw bins).
    ///
    /// # Panics
    /// Panics if `level ≥ num_levels()`.
    pub fn level(&self, level: usize) -> &Diagnoser {
        &self.levels[level]
    }

    /// Diagnose a measurement series at every level, returning only the
    /// blocks whose detection fired, finest levels first.
    pub fn diagnose_series(&self, links: &Matrix) -> Result<Vec<MultiscaleReport>> {
        let mut out = Vec::new();
        for (level, diagnoser) in self.levels.iter().enumerate() {
            let averaged = block_average(links, level);
            for report in diagnoser.diagnose_series(&averaged)? {
                if !report.detected {
                    continue;
                }
                let span = 1usize << level;
                out.push(MultiscaleReport {
                    level,
                    block: report.time,
                    bin_range: (report.time * span, (report.time + 1) * span),
                    report,
                });
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::separation::SeparationPolicy;
    use crate::CoreError;
    use netanom_linalg::vector;
    use netanom_topology::builtin;

    fn training(m: usize, bins: usize) -> Matrix {
        Matrix::from_fn(bins, m, |i, l| {
            let phase = i as f64 * std::f64::consts::TAU / 144.0;
            let smooth = 2e5 * phase.sin() * ((l % 3) as f64 + 1.0);
            let noise = (((i * m + l).wrapping_mul(2654435761)) % 16384) as f64 - 8192.0;
            2e6 + smooth + noise
        })
    }

    fn config() -> DiagnoserConfig {
        DiagnoserConfig {
            separation: SeparationPolicy::FixedCount(2),
            ..DiagnoserConfig::default()
        }
    }

    #[test]
    fn block_average_halves_rows_and_preserves_means() {
        let y = training(4, 64);
        let a1 = block_average(&y, 1);
        assert_eq!(a1.shape(), (32, 4));
        assert!((a1[(0, 2)] - 0.5 * (y[(0, 2)] + y[(1, 2)])).abs() < 1e-9);
        // Level 0 is the identity.
        assert!(block_average(&y, 0).approx_eq(&y, 0.0));
        // Partial tail dropped.
        let odd = training(3, 65);
        assert_eq!(block_average(&odd, 1).rows(), 32);
    }

    #[test]
    fn fits_all_levels_on_enough_data() {
        let net = builtin::line(3);
        let y = training(net.routing_matrix.num_links(), 1008);
        let ms = MultiscaleDiagnoser::fit(&y, &net.routing_matrix, config(), 4).unwrap();
        assert_eq!(ms.num_levels(), 5);
    }

    #[test]
    fn too_deep_pyramid_rejected() {
        let net = builtin::line(3);
        let y = training(net.routing_matrix.num_links(), 64);
        // Level 4 would leave 4 blocks for a 7-link model.
        assert!(matches!(
            MultiscaleDiagnoser::fit(&y, &net.routing_matrix, config(), 4),
            Err(CoreError::TooFewSamples { .. })
        ));
    }

    #[test]
    fn single_bin_spike_caught_at_level_zero() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let mut y = training(rm.num_links(), 512);
        let mut row = y.row(200).to_vec();
        vector::axpy(5e6, &rm.column(4), &mut row);
        y.set_row(200, &row);

        let ms = MultiscaleDiagnoser::fit(&training(rm.num_links(), 512), rm, config(), 3).unwrap();
        let hits = ms.diagnose_series(&y).unwrap();
        let l0_hit = hits
            .iter()
            .find(|h| h.level == 0 && h.bin_range.0 == 200)
            .expect("level-0 detection at the spike bin");
        assert_eq!(l0_hit.report.identification.unwrap().flow, 4);
    }

    #[test]
    fn sustained_low_anomaly_needs_the_coarse_level() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let clean = training(rm.num_links(), 512);
        let ms = MultiscaleDiagnoser::fit(&clean, rm, config(), 3).unwrap();

        // Calibrate the shift: clearly below the level-0 threshold, but
        // 8 sustained bins give the level-3 block the full amplitude
        // while its noise floor is ~8x smaller (σ/√8 each for variance
        // ÷8).
        let delta0 = ms.level(0).detector().threshold().delta_sq;
        let delta3 = ms.level(3).detector().threshold().delta_sq;
        assert!(delta3 < delta0 / 4.0, "coarse threshold should shrink");
        // Anomaly SPE at level 0 ≈ a²·‖C̃A‖²; pick a so that it is ~25%
        // of δ0 but ≥ 4×δ3.
        let a = (0.25 * delta0 / 2.0).sqrt();

        let mut y = clean.clone();
        for t in 240..248 {
            let mut row = y.row(t).to_vec();
            vector::axpy(a, &rm.column(4), &mut row);
            y.set_row(t, &row);
        }

        let hits = ms.diagnose_series(&y).unwrap();
        let fine_hit = hits.iter().any(|h| h.level == 0);
        let coarse_hit = hits
            .iter()
            .any(|h| h.level == 3 && h.bin_range == (240, 248));
        assert!(!fine_hit, "shift should be invisible at single bins");
        assert!(
            coarse_hit,
            "sustained shift must surface at level 3: {hits:?}"
        );
    }

    #[test]
    fn coarse_identification_names_the_right_flow() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let clean = training(rm.num_links(), 512);
        let ms = MultiscaleDiagnoser::fit(&clean, rm, config(), 3).unwrap();
        let mut y = clean.clone();
        for t in 320..328 {
            let mut row = y.row(t).to_vec();
            vector::axpy(2e6, &rm.column(7), &mut row);
            y.set_row(t, &row);
        }
        let hits = ms.diagnose_series(&y).unwrap();
        let hit = hits
            .iter()
            .find(|h| h.level == 3 && h.bin_range == (320, 328))
            .expect("sustained anomaly detected at level 3");
        assert_eq!(hit.report.identification.unwrap().flow, 7);
        // Per-bin estimate ≈ the sustained rate.
        let est = hit.report.estimated_bytes.unwrap();
        assert!((est / 2e6 - 1.0).abs() < 0.3, "estimate {est}");
    }
}
