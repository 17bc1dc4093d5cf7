//! Figure 4: temporal projections on normal (u₁, u₂) vs anomalous
//! (u₆, u₈) principal axes.

use std::path::Path;

use netanom_core::Pca;
use netanom_linalg::stats;

use super::ExperimentOutput;
use crate::lab::Lab;
use crate::report;

pub fn run(lab: &Lab, out_dir: &Path) -> ExperimentOutput {
    let ds = &lab.sprint1;
    let pca = Pca::fit(ds.links.matrix()).expect("canned data fits");

    // Paper axes are 1-indexed: u1, u2 (normal) and u6, u8 (anomalous).
    let axes = [(0usize, "u1"), (1, "u2"), (5, "u6"), (7, "u8")];
    let projections: Vec<(usize, &str, Vec<f64>)> = axes
        .iter()
        .map(|&(i, name)| (i, name, pca.temporal_projection(i)))
        .collect();

    let mut rendered = format!(
        "Figure 4: projections onto principal components ({}).\n\
         (paper: u1/u2 show clean diurnal trends; u6/u8 carry spikes)\n\n",
        ds.name
    );
    for (i, name, u) in &projections {
        let mean = stats::mean(u);
        let sd = stats::std_dev(u);
        let maxz = u
            .iter()
            .map(|&x| ((x - mean) / sd).abs())
            .fold(0.0_f64, f64::max);
        rendered.push_str(&format!(
            "{name} (axis {:>2}, max |z| = {maxz:4.1}σ {}):\n  {}\n",
            i + 1,
            if maxz > 3.0 {
                "→ anomalous"
            } else {
                "→ normal"
            },
            report::sparkline(&report::downsample_max(u, 96)),
        ));
    }

    let rows: Vec<Vec<String>> = (0..projections[0].2.len())
        .map(|t| {
            let mut row = vec![t.to_string()];
            for (_, _, u) in &projections {
                row.push(format!("{}", u[t]));
            }
            row
        })
        .collect();
    let csv = report::write_csv(
        &out_dir.join("fig4").join("projections.csv"),
        &["bin", "u1", "u2", "u6", "u8"],
        &rows,
    )
    .expect("csv writable");

    ExperimentOutput {
        id: "fig4",
        title: "Figure 4: normal vs anomalous temporal projections",
        rendered,
        files: vec![csv],
    }
}
