//! Figure 10: subspace vs Fourier vs EWMA residuals on link data —
//! spatial correlation beats per-link temporal filtering.

use std::path::Path;

use netanom_baselines::link_residual::{residual_energy_series, LinkFilter};

use super::ExperimentOutput;
use crate::lab::Lab;
use crate::report;

/// Separation quality of a residual-energy series: the fraction of normal
/// bins whose energy exceeds the *weakest* important anomaly's energy.
/// Zero means a perfect threshold exists (every anomaly above every
/// normal bin); large values mean no threshold can separate them — the
/// paper's complaint about the temporal filters.
fn overlap_fraction(energy: &[f64], anomaly_bins: &[usize]) -> f64 {
    let min_anomaly = anomaly_bins
        .iter()
        .map(|&t| energy[t])
        .fold(f64::INFINITY, f64::min);
    let normal: Vec<f64> = energy
        .iter()
        .enumerate()
        .filter(|(t, _)| !anomaly_bins.contains(t))
        .map(|(_, &e)| e)
        .collect();
    if normal.is_empty() {
        return 0.0;
    }
    normal.iter().filter(|&&e| e >= min_anomaly).count() as f64 / normal.len() as f64
}

pub fn run(lab: &Lab, out_dir: &Path) -> ExperimentOutput {
    let ds = &lab.sprint1;
    let model = lab.diag_sprint1.model();
    let links = ds.links.matrix();

    // Subspace residual energy = SPE series.
    let subspace: Vec<f64> = (0..links.rows())
        .map(|t| model.spe(links.row(t)).expect("dims match"))
        .collect();
    let fourier = residual_energy_series(&ds.links, LinkFilter::Fourier);
    let ewma = residual_energy_series(&ds.links, LinkFilter::Ewma);

    let anomaly_bins: Vec<usize> = ds.important_truth().iter().map(|e| e.time).collect();

    let mut rendered = format!(
        "Figure 10: squared residual magnitude under three normal-behaviour\n\
         models ({}; {} important true anomaly bins marked by overlap stat).\n\n",
        ds.name,
        anomaly_bins.len()
    );
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for t in 0..links.rows() {
        csv_rows.push(vec![
            t.to_string(),
            format!("{}", subspace[t]),
            format!("{}", fourier[t]),
            format!("{}", ewma[t]),
            (anomaly_bins.contains(&t) as u8).to_string(),
        ]);
    }
    for (name, series) in [
        ("subspace", &subspace),
        ("Fourier", &fourier),
        ("EWMA", &ewma),
    ] {
        let overlap = overlap_fraction(series, &anomaly_bins);
        rendered.push_str(&format!(
            "{name:<9} {}\n          normal bins above the weakest anomaly: {}\n",
            report::sparkline(&report::downsample_max(series, 96)),
            report::fmt_pct(overlap),
        ));
    }
    rendered.push_str(
        "\nReading: a usable threshold exists only when the overlap is ~0 —\n\
         the subspace residual separates cleanly, the per-link temporal\n\
         residuals do not (the paper's Section 7.3 conclusion).\n",
    );

    let csv = report::write_csv(
        &out_dir.join("fig10").join("residual_comparison.csv"),
        &[
            "bin",
            "subspace_spe",
            "fourier_energy",
            "ewma_energy",
            "important_truth",
        ],
        &csv_rows,
    )
    .expect("csv writable");

    ExperimentOutput {
        id: "fig10",
        title: "Figure 10: subspace vs temporal residuals",
        rendered,
        files: vec![csv],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_fraction_basics() {
        // Anomalies at bins 1 and 3 with energy 10; normals at 1.0 and 11.
        let energy = vec![1.0, 10.0, 11.0, 10.0];
        let overlap = overlap_fraction(&energy, &[1, 3]);
        // One of two normal bins (the 11.0) exceeds the weakest anomaly.
        assert!((overlap - 0.5).abs() < 1e-12);
        // Perfect separation.
        let energy2 = vec![1.0, 10.0, 2.0, 10.0];
        assert_eq!(overlap_fraction(&energy2, &[1, 3]), 0.0);
    }
}
