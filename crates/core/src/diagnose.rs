//! The full three-step diagnosis pipeline.

use netanom_linalg::Matrix;
use netanom_topology::RoutingMatrix;

use crate::identify::{Identification, Identifier};
use crate::pca::PcaMethod;
use crate::separation::SeparationPolicy;
use crate::subspace::{Detector, SubspaceModel};
use crate::Result;

/// Configuration for [`Diagnoser::fit`].
#[derive(Debug, Clone, Copy)]
pub struct DiagnoserConfig {
    /// Detection confidence level `1 − α` (paper: 0.999 for the headline
    /// results, 0.995 shown in Figure 5).
    pub confidence: f64,
    /// Normal/anomalous axis separation policy.
    pub separation: SeparationPolicy,
    /// PCA computation route (one variant; see [`PcaMethod`]).
    pub pca_method: PcaMethod,
}

impl Default for DiagnoserConfig {
    fn default() -> Self {
        DiagnoserConfig {
            confidence: 0.999,
            separation: SeparationPolicy::default(),
            pca_method: PcaMethod::default(),
        }
    }
}

/// The outcome of diagnosing one timestep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagnosisReport {
    /// Timestep index within the diagnosed series.
    pub time: usize,
    /// Squared prediction error at this timestep.
    pub spe: f64,
    /// Detection threshold `δ²_α` in force.
    pub threshold: f64,
    /// Whether the detection step fired.
    pub detected: bool,
    /// Identification (and implicitly quantification input), present only
    /// when `detected` — the paper does "not attempt identification on
    /// anomalies that were not detected".
    pub identification: Option<Identification>,
    /// Estimated anomalous bytes in the identified flow (`Āᵢᵀ y′`),
    /// present only when `detected`. Negative for traffic drops.
    pub estimated_bytes: Option<f64>,
}

/// The three-step diagnoser: detection → identification → quantification.
#[derive(Debug, Clone)]
pub struct Diagnoser {
    detector: Detector,
    identifier: Identifier,
    /// `Āᵢᵀθᵢ` per flow: the factor converting `f̂` to bytes.
    quant_factor: Vec<f64>,
}

impl Diagnoser {
    /// Fit the subspace model on a `t × m` training matrix and prepare all
    /// three steps against the given routing matrix.
    pub fn fit(links: &Matrix, rm: &RoutingMatrix, config: DiagnoserConfig) -> Result<Self> {
        let model = SubspaceModel::fit(links, config.separation, config.pca_method)?;
        Self::from_model(model, rm, config.confidence)
    }

    /// Assemble a diagnoser from an already-fitted model.
    pub fn from_model(model: SubspaceModel, rm: &RoutingMatrix, confidence: f64) -> Result<Self> {
        let identifier = Identifier::new(&model, rm)?;
        let detector = Detector::new(model, confidence)?;
        let quant_factor = (0..rm.num_flows()).map(|i| quant_factor(rm, i)).collect();
        Ok(Diagnoser {
            detector,
            identifier,
            quant_factor,
        })
    }

    /// Swap in a freshly refitted model, rebuilding the detector and
    /// identifier against it while reusing the quantification factors
    /// `Āᵢᵀθᵢ`, which depend only on the routing matrix.
    ///
    /// This is the streaming refit entry point: a periodic model refresh
    /// pays for the identifier's `n` norms `‖θ̃ᵢ‖²` (`O(r·nnz(A))`) and
    /// one threshold evaluation, nothing else. `rm` must be the routing
    /// matrix the diagnoser was built with (checked by flow count).
    pub fn refit_model(
        &mut self,
        model: SubspaceModel,
        rm: &RoutingMatrix,
        confidence: f64,
    ) -> Result<()> {
        if rm.num_flows() != self.quant_factor.len() {
            return Err(crate::CoreError::DimensionMismatch {
                expected: self.quant_factor.len(),
                got: rm.num_flows(),
            });
        }
        let identifier = Identifier::new(&model, rm)?;
        let detector = Detector::new(model, confidence)?;
        self.identifier = identifier;
        self.detector = detector;
        Ok(())
    }

    /// The fitted subspace model.
    pub fn model(&self) -> &SubspaceModel {
        self.detector.model()
    }

    /// The detection component.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// The identification component.
    pub fn identifier(&self) -> &Identifier {
        &self.identifier
    }

    /// One bin's report from its SPE — the one place every subspace
    /// report is built, per vector, per batch and per sharded bin.
    ///
    /// The bin is detected when `spe > threshold`, the rule
    /// [`Detection::anomalous`](crate::Detection::anomalous) documents
    /// (so a NaN SPE is quiet). Only then is `residual` called, and the
    /// residual it yields identified and quantified. The report's `time`
    /// is 0; the caller stamps it.
    pub fn report(
        &self,
        spe: f64,
        residual: impl FnOnce() -> Result<Vec<f64>>,
    ) -> Result<DiagnosisReport> {
        let threshold = self.detector.threshold().delta_sq;
        let mut report = DiagnosisReport {
            time: 0,
            spe,
            threshold,
            detected: spe > threshold,
            identification: None,
            estimated_bytes: None,
        };
        if report.detected {
            let id = self.identifier.identify(&residual()?)?;
            report.estimated_bytes = Some(quantify_with_factor(&id, self.quant_factor[id.flow]));
            report.identification = Some(id);
        }
        Ok(report)
    }

    /// Diagnose a single measurement vector.
    pub fn diagnose_vector(&self, y: &[f64]) -> Result<DiagnosisReport> {
        let spe = self.detector.detect_vector(y)?.spe;
        self.report(spe, || self.detector.model().residual(y))
    }

    /// Diagnose every row of a `t × m` measurement matrix.
    ///
    /// Batched: all SPEs come out of the fused single-pass detection
    /// kernel ([`SubspaceModel::spe_all`]); identification and
    /// quantification then run only on the rows whose detection fired,
    /// each against the exact per-vector residual. Relative to running
    /// [`Diagnoser::diagnose_vector`] per row, every report is bitwise
    /// identical — while the series as a whole runs several times faster
    /// (DESIGN.md, *The batch API*).
    pub fn diagnose_series(&self, links: &Matrix) -> Result<Vec<DiagnosisReport>> {
        let model = self.detector.model();
        let spes = model.spe_all(links)?;
        spes.into_iter()
            .enumerate()
            .map(|(time, spe)| {
                let report = self.report(spe, || model.residual(links.row(time)))?;
                Ok(DiagnosisReport { time, ..report })
            })
            .collect()
    }

    /// Only the reports whose detection step fired.
    pub fn diagnose_anomalies(&self, links: &Matrix) -> Result<Vec<DiagnosisReport>> {
        Ok(self
            .diagnose_series(links)?
            .into_iter()
            .filter(|r| r.detected)
            .collect())
    }
}

/// Quantification (paper Section 5.3): convert an identification into an
/// estimate of the anomalous bytes in the flow.
///
/// The anomalous per-link traffic is `y′ = y − yᵢ* = θᵢ f̂ᵢ`, and the byte
/// estimate is `Āᵢᵀ y′ = (Āᵢᵀθᵢ) f̂ᵢ`. For a 0/1 routing column over `k`
/// links, `Āᵢᵀθᵢ = 1/√k`, so the estimate reduces to `f̂ᵢ/‖Aᵢ‖` — which is
/// exactly the injected byte count when the residual fit is clean.
pub fn quantify(id: &Identification, rm: &RoutingMatrix) -> f64 {
    quantify_with_factor(id, quant_factor(rm, id.flow))
}

/// `Āᵢᵀθᵢ`: the `kᵢ` products `(1/kᵢ)·(1/√kᵢ)` summed over flow `i`'s path
/// in ascending link order — bitwise the dense dot of the two columns,
/// whose off-path products are zeros that add nothing.
fn quant_factor(rm: &RoutingMatrix, i: usize) -> f64 {
    let k = rm.path_len(i);
    let term = (1.0 / k as f64) * (1.0 / (k as f64).sqrt());
    std::iter::repeat_n(term, k).sum()
}

fn quantify_with_factor(id: &Identification, factor: f64) -> f64 {
    factor * id.f_hat
}

#[cfg(test)]
mod tests {
    use super::*;
    use netanom_linalg::vector;
    use netanom_topology::builtin;

    fn training(m: usize) -> Matrix {
        Matrix::from_fn(500, m, |i, l| {
            let phase = i as f64 * std::f64::consts::TAU / 144.0;
            let smooth = 2e5 * phase.sin() * ((l % 4) as f64 + 1.0);
            let noise = (((i * m + l).wrapping_mul(2654435761)) % 8192) as f64 - 4096.0;
            2e6 + smooth + noise
        })
    }

    fn setup() -> (Diagnoser, netanom_topology::Network, Matrix) {
        let net = builtin::ring(5);
        let links = training(net.routing_matrix.num_links());
        let diag = Diagnoser::fit(
            &links,
            &net.routing_matrix,
            DiagnoserConfig {
                separation: SeparationPolicy::FixedCount(2),
                ..DiagnoserConfig::default()
            },
        )
        .unwrap();
        (diag, net, links)
    }

    #[test]
    fn quiet_bin_yields_no_identification() {
        let (diag, _, links) = setup();
        let rep = diag.diagnose_vector(links.row(5)).unwrap();
        assert!(!rep.detected);
        assert!(rep.identification.is_none());
        assert!(rep.estimated_bytes.is_none());
    }

    #[test]
    fn injected_anomaly_fully_diagnosed() {
        let (diag, net, links) = setup();
        let rm = &net.routing_matrix;
        let flow = 7;
        let injected = 5e6;
        let mut y = links.row(123).to_vec();
        vector::axpy(injected, &rm.column(flow), &mut y);

        let rep = diag.diagnose_vector(&y).unwrap();
        assert!(rep.detected, "spe {} vs {}", rep.spe, rep.threshold);
        let id = rep.identification.unwrap();
        assert_eq!(id.flow, flow);
        let est = rep.estimated_bytes.unwrap();
        assert!(
            (est / injected - 1.0).abs() < 0.25,
            "estimated {est} vs injected {injected}"
        );
    }

    #[test]
    fn quantification_equals_f_hat_over_norm_a() {
        let (diag, net, links) = setup();
        let rm = &net.routing_matrix;
        let flow = 11;
        let mut y = links.row(200).to_vec();
        vector::axpy(6e6, &rm.column(flow), &mut y);
        let rep = diag.diagnose_vector(&y).unwrap();
        let id = rep.identification.unwrap();
        let k = rm.path_len(id.flow) as f64;
        let expected = id.f_hat / k.sqrt();
        assert!((rep.estimated_bytes.unwrap() - expected).abs() < 1e-6 * expected.abs().max(1.0));
        // And the free function agrees with the precomputed factor.
        assert!(
            (quantify(&id, rm) - rep.estimated_bytes.unwrap()).abs()
                < 1e-9 * expected.abs().max(1.0)
        );
    }

    #[test]
    fn negative_anomaly_quantified_negative() {
        let (diag, net, links) = setup();
        let rm = &net.routing_matrix;
        let mut y = links.row(300).to_vec();
        vector::axpy(-5e6, &rm.column(3), &mut y);
        let rep = diag.diagnose_vector(&y).unwrap();
        assert!(rep.detected);
        assert!(rep.estimated_bytes.unwrap() < 0.0);
    }

    #[test]
    fn series_indexing_and_filtering() {
        let (diag, net, mut links) = setup();
        let rm = &net.routing_matrix;
        // Implant two anomalies into the series itself.
        for &(t, f) in &[(100usize, 4usize), (250, 9)] {
            let mut row = links.row(t).to_vec();
            vector::axpy(6e6, &rm.column(f), &mut row);
            links.set_row(t, &row);
        }
        let all = diag.diagnose_series(&links).unwrap();
        assert_eq!(all.len(), 500);
        let anomalies = diag.diagnose_anomalies(&links).unwrap();
        let times: Vec<usize> = anomalies.iter().map(|r| r.time).collect();
        assert!(times.contains(&100), "times: {times:?}");
        assert!(times.contains(&250), "times: {times:?}");
        // Spurious alarms should be rare on this clean synthetic data.
        assert!(anomalies.len() <= 4, "{} alarms", anomalies.len());
    }

    #[test]
    fn default_config_matches_paper() {
        let c = DiagnoserConfig::default();
        assert_eq!(c.confidence, 0.999);
        assert_eq!(c.separation, SeparationPolicy::ThreeSigma { sigma: 3.0 });
    }
}
