//! Reproduction-shape assertions: the qualitative results every table and
//! figure of the paper reports must hold on our datasets.
//!
//! These are the repository's headline guarantees.

use netanom::baselines::link_residual::{residual_energy_series, LinkFilter};
use netanom::baselines::{extract_true_anomalies, TruthMethod};
use netanom::core::{Diagnoser, DiagnoserConfig, Pca, SeparationPolicy};
use netanom::eval::injection;
use netanom::eval::metrics::{self, TruthEvent};
use netanom::traffic::datasets;

/// Figure 3's claim: despite 40+ links, a handful of components carry
/// the variance.
#[test]
fn low_effective_dimensionality() {
    for ds in [
        datasets::sprint1(),
        datasets::sprint2(),
        datasets::abilene(),
    ] {
        let pca = Pca::fit(ds.links.matrix()).unwrap();
        let d90 = pca.effective_dimension(0.90);
        assert!(d90 <= 5, "{}: 90% variance needs {d90} PCs", ds.name);
        let r = SeparationPolicy::default().normal_dim(&pca);
        assert!((2..=8).contains(&r), "{}: 3σ rule chose r = {r}", ds.name);
    }
}

/// Table 2's shape: high detection of important anomalies, near-zero
/// false alarms, near-perfect identification, quantification within a
/// few tens of percent — under the paper's own validation protocol
/// (temporal extraction + knee cutoff + strict false-alarm convention).
#[test]
fn table2_shape_fourier_validation() {
    for ds in [
        datasets::sprint1(),
        datasets::sprint2(),
        datasets::abilene(),
    ] {
        let diagnoser = Diagnoser::fit(
            ds.links.matrix(),
            &ds.network.routing_matrix,
            DiagnoserConfig::default(),
        )
        .unwrap();
        let reports = diagnoser.diagnose_series(ds.links.matrix()).unwrap();
        let truth: Vec<TruthEvent> = extract_true_anomalies(&ds.od, TruthMethod::Fourier, 40)
            .into_iter()
            .map(Into::into)
            .collect();
        let v = metrics::validate_strict(&reports, &truth, ds.cutoff_bytes);
        assert!(
            v.detection_rate() >= 0.7,
            "{}: detection {}/{}",
            ds.name,
            v.detected,
            v.truth_total
        );
        assert!(
            v.false_alarm_rate() <= 0.02,
            "{}: false alarm rate {}",
            ds.name,
            v.false_alarm_rate()
        );
        assert!(
            v.identification_rate() >= 0.8,
            "{}: identification {}/{}",
            ds.name,
            v.identified,
            v.detected
        );
        if let Some(q) = v.mean_quant_error() {
            assert!(q <= 0.35, "{}: quantification error {q}", ds.name);
        }
    }
}

/// Table 3's shape: large injections diagnosed at high rates, small
/// (below-knee) injections mostly ignored. Uses a subsample of the
/// injection grid to keep test time reasonable.
#[test]
fn table3_shape_injections() {
    let times: Vec<usize> = (288..432).step_by(6).collect(); // 24 of 144 bins
    for (ds, min_large, max_small) in [
        (datasets::sprint1(), 0.75, 0.35),
        (datasets::abilene(), 0.55, 0.25),
    ] {
        let diagnoser = Diagnoser::fit(
            ds.links.matrix(),
            &ds.network.routing_matrix,
            DiagnoserConfig::default(),
        )
        .unwrap();
        let large = injection::sweep(&ds, &diagnoser, ds.large_injection, &times, 8);
        let small = injection::sweep(&ds, &diagnoser, ds.small_injection, &times, 8);
        assert!(
            large.detection_rate() >= min_large,
            "{}: large detection {}",
            ds.name,
            large.detection_rate()
        );
        assert!(
            small.detection_rate() <= max_small,
            "{}: small detection {}",
            ds.name,
            small.detection_rate()
        );
        // Identification travels with detection for large spikes.
        assert!(
            large.identification_rate() >= 0.85 * large.detection_rate(),
            "{}: identification {} vs detection {}",
            ds.name,
            large.identification_rate(),
            large.detection_rate()
        );
    }
}

/// Figure 9's shape: fixed-size anomalies are harder to detect in larger
/// flows (negative rank trend).
#[test]
fn fig9_shape_size_vs_detectability() {
    let ds = datasets::sprint1();
    let diagnoser = Diagnoser::fit(
        ds.links.matrix(),
        &ds.network.routing_matrix,
        DiagnoserConfig::default(),
    )
    .unwrap();
    let times: Vec<usize> = (288..432).step_by(4).collect();
    let sweep = injection::sweep(&ds, &diagnoser, ds.large_injection, &times, 8);
    let means = ds.od.flow_means();
    let per_flow = sweep.per_flow_detection_rates();
    // Compare the mean detection rate of the top-size decile vs the
    // bottom half.
    let mut by_mean: Vec<(f64, f64)> = per_flow.iter().map(|&(f, r)| (means[f], r)).collect();
    by_mean.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let n = by_mean.len();
    let bottom_half: f64 = by_mean[..n / 2].iter().map(|&(_, r)| r).sum::<f64>() / (n / 2) as f64;
    let top_decile: f64 =
        by_mean[n - n / 10..].iter().map(|&(_, r)| r).sum::<f64>() / (n / 10) as f64;
    assert!(
        top_decile < bottom_half,
        "largest flows ({top_decile:.3}) should be harder than small ones ({bottom_half:.3})"
    );
}

/// Figure 10's shape: the subspace residual separates anomalies from
/// normal traffic far better than per-link temporal filtering.
#[test]
fn fig10_shape_subspace_beats_temporal() {
    let ds = datasets::sprint1();
    let diagnoser = Diagnoser::fit(
        ds.links.matrix(),
        &ds.network.routing_matrix,
        DiagnoserConfig::default(),
    )
    .unwrap();
    let model = diagnoser.model();
    let anomaly_bins: Vec<usize> = ds
        .truth
        .iter()
        .filter(|e| e.size() >= ds.cutoff_bytes)
        .map(|e| e.time)
        .collect();

    let overlap = |energy: &[f64]| -> f64 {
        let min_anom = anomaly_bins
            .iter()
            .map(|&t| energy[t])
            .fold(f64::INFINITY, f64::min);
        let normals: Vec<f64> = energy
            .iter()
            .enumerate()
            .filter(|(t, _)| !anomaly_bins.contains(t))
            .map(|(_, &e)| e)
            .collect();
        normals.iter().filter(|&&e| e >= min_anom).count() as f64 / normals.len() as f64
    };

    let subspace: Vec<f64> = (0..ds.links.num_bins())
        .map(|t| model.spe(ds.links.bin(t)).unwrap())
        .collect();
    let fourier = residual_energy_series(&ds.links, LinkFilter::Fourier);

    let sub_overlap = overlap(&subspace);
    let fourier_overlap = overlap(&fourier);
    assert!(
        sub_overlap < 0.10,
        "subspace residual should separate cleanly (overlap {sub_overlap})"
    );
    assert!(
        fourier_overlap > 2.0 * sub_overlap,
        "temporal filtering ({fourier_overlap}) should be clearly worse than subspace ({sub_overlap})"
    );
}

/// The rank-size knee of Figure 6 exists and sits near the paper's
/// cutoff.
#[test]
fn fig6_knee_exists() {
    use netanom::baselines::knee;
    for ds in [datasets::sprint1(), datasets::abilene()] {
        let extracted = extract_true_anomalies(&ds.od, TruthMethod::Fourier, 40);
        let sizes: Vec<f64> = extracted.iter().map(|e| e.size).collect();
        let idx = knee::knee_index(&sizes).expect("knee should exist");
        assert!((3..=25).contains(&idx), "{}: knee at rank {idx}", ds.name);
        let cutoff = sizes[idx - 1];
        // Within a factor of 3 of the paper's published cutoff.
        assert!(
            cutoff >= ds.cutoff_bytes / 3.0 && cutoff <= ds.cutoff_bytes * 3.0,
            "{}: knee cutoff {cutoff:.2e} vs paper {:.2e}",
            ds.name,
            ds.cutoff_bytes
        );
    }
}
