//! Figure 3: fraction of total link-traffic variance captured by each
//! principal component — the scree plot establishing low effective
//! dimensionality.

use std::path::Path;

use netanom_core::{Pca, SeparationPolicy};

use super::ExperimentOutput;
use crate::lab::Lab;
use crate::report;

pub fn run(lab: &Lab, out_dir: &Path) -> ExperimentOutput {
    let mut fractions: Vec<(String, Vec<f64>, usize)> = Vec::new();
    for (ds, _) in lab.all() {
        let pca = Pca::fit(ds.links.matrix()).expect("canned data fits");
        let r = SeparationPolicy::default().normal_dim(&pca);
        fractions.push((ds.name.to_string(), pca.variance_fractions(), r));
    }

    let mut rendered = String::from(
        "Figure 3: fraction of total link traffic variance captured by each PC.\n\
         (paper: the vast majority of variance in 3-4 components despite 40+ links)\n\n",
    );
    for (name, fracs, r) in &fractions {
        rendered.push_str(&format!("{name} (3σ rule ⇒ r = {r}):\n"));
        let items: Vec<(String, f64)> = fracs
            .iter()
            .take(10)
            .enumerate()
            .map(|(i, &f)| (format!("PC {:>2}", i + 1), f))
            .collect();
        rendered.push_str(&report::bar_chart(&items, 40));
        let cum: f64 = fracs.iter().take(4).sum();
        rendered.push_str(&format!(
            "  first 4 components capture {}\n\n",
            report::fmt_pct(cum)
        ));
    }

    // CSV: one row per component, one column per dataset.
    let max_m = fractions.iter().map(|(_, f, _)| f.len()).max().unwrap_or(0);
    let rows: Vec<Vec<String>> = (0..max_m)
        .map(|i| {
            let mut row = vec![(i + 1).to_string()];
            for (_, fracs, _) in &fractions {
                row.push(fracs.get(i).map(|f| format!("{f}")).unwrap_or_default());
            }
            row
        })
        .collect();
    let csv = report::write_csv(
        &out_dir.join("fig3").join("scree.csv"),
        &["component", "sprint-1", "sprint-2", "abilene"],
        &rows,
    )
    .expect("csv writable");

    ExperimentOutput {
        id: "fig3",
        title: "Figure 3: variance captured per principal component",
        rendered,
        files: vec![csv],
    }
}
