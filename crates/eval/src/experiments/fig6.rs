//! Figure 6: rank-ordered true anomalies (Fourier extraction) vs what the
//! subspace method detected, identified, and how it quantified them.

use std::path::{Path, PathBuf};

use netanom_baselines::{extract_true_anomalies, knee, TruthMethod};
use netanom_linalg::stats;

use super::ExperimentOutput;
use crate::lab::Lab;
use crate::report;

pub fn run(lab: &Lab, out_dir: &Path) -> ExperimentOutput {
    let mut rendered = String::from(
        "Figure 6: top-40 anomalies from the Fourier extraction, rank-ordered,\n\
         with subspace detection (D), identification (I) and quantification.\n\n",
    );
    let mut files: Vec<PathBuf> = Vec::new();

    for (ds, diagnoser) in lab.all() {
        let truth = extract_true_anomalies(&ds.od, TruthMethod::Fourier, 40);
        let reports = diagnoser
            .diagnose_series(ds.links.matrix())
            .expect("dims match");

        let sizes: Vec<f64> = truth.iter().map(|e| e.size).collect();
        let knee_at = knee::knee_index(&sizes);

        let mut marks = String::new();
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut detected_above = 0usize;
        let mut identified_above = 0usize;
        let mut above = 0usize;
        // Sizes and estimates of the identified important anomalies.
        let (mut quant_truth, mut quant_est) = (Vec::new(), Vec::new());
        for (rank, e) in truth.iter().enumerate() {
            let rep = &reports[e.time];
            let detected = rep.detected;
            let identified = detected
                && rep
                    .identification
                    .map(|id| id.flow == e.flow)
                    .unwrap_or(false);
            let est = rep.estimated_bytes.map(|b| b.abs());
            let important = e.size >= ds.cutoff_bytes;
            if important {
                above += 1;
                detected_above += detected as usize;
                identified_above += identified as usize;
                if identified {
                    quant_truth.push(e.size);
                    quant_est.push(est.unwrap_or(0.0));
                }
            }
            marks.push(if identified {
                'I'
            } else if detected {
                'D'
            } else {
                '.'
            });
            if Some(rank) == knee_at {
                marks.push('|'); // knee marker
            }
            rows.push(vec![
                (rank + 1).to_string(),
                e.time.to_string(),
                e.flow.to_string(),
                format!("{}", e.size),
                (detected as u8).to_string(),
                (identified as u8).to_string(),
                est.map(|b| format!("{b}")).unwrap_or_default(),
                (important as u8).to_string(),
            ]);
        }

        rendered.push_str(&format!(
            "{} (cutoff {}, knee detected at rank {}):\n  ranks 1-40: {marks}\n  \
             above cutoff: detected {detected_above}/{above}, identified {identified_above}/{above}\n",
            ds.name,
            report::fmt_num(ds.cutoff_bytes),
            knee_at.map(|k| (k + 1).to_string()).unwrap_or("-".into()),
        ));
        if let Some(mare) = stats::mean_abs_relative_error(&quant_est, &quant_truth) {
            rendered.push_str(&format!(
                "  quantification vs Fourier size estimate: mean abs rel err {}\n",
                report::fmt_pct(mare)
            ));
        }
        rendered.push('\n');

        let csv = report::write_csv(
            &out_dir.join("fig6").join(format!("{}_rank.csv", ds.name)),
            &[
                "rank",
                "time",
                "flow",
                "fourier_size",
                "detected",
                "identified",
                "estimated_size",
                "above_cutoff",
            ],
            &rows,
        )
        .expect("csv writable");
        files.push(csv);
    }

    ExperimentOutput {
        id: "fig6",
        title: "Figure 6: diagnosis of Fourier-extracted anomalies",
        rendered,
        files,
    }
}
