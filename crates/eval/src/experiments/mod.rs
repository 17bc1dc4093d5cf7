//! One driver per table/figure of the paper's evaluation.
//!
//! Every driver takes the shared [`Lab`] and an output
//! directory, renders an ASCII version of the table/figure, and writes
//! the underlying data as CSV so external plotting tools can regenerate
//! the graphic exactly.

use std::path::{Path, PathBuf};

use crate::lab::Lab;

mod ablation;
mod fig1;
mod fig10;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod table1;
mod table2;
mod table3;

/// The result of one experiment driver.
pub struct ExperimentOutput {
    /// Stable identifier (`"fig3"`, `"table2"`, …).
    pub id: &'static str,
    /// Human-readable title matching the paper.
    pub title: &'static str,
    /// ASCII rendering of the table/figure.
    pub rendered: String,
    /// CSV files written.
    pub files: Vec<PathBuf>,
}

/// All experiment ids, in the paper's presentation order, followed by
/// this repository's ablations (not figures of the paper, but the design
/// choices DESIGN.md calls out) and the deployment scenarios: streaming,
/// sharded, the pluggable-methods head-to-head, the synthetic
/// large-topology scale sweep, and the multi-tenant serve daemon.
pub const EXPERIMENT_IDS: [&str; 20] = [
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table2",
    "fig7",
    "fig8",
    "fig9",
    "table3",
    "fig10",
    "ablation_confidence",
    "ablation_separation",
    "streaming",
    "sharded",
    "methods",
    "scale",
    "serve",
];

/// Expand and validate a user-supplied id list: `all` expands to the
/// whole registry, and an unknown id errors with every available id
/// listed. `netanom eval` resolves its arguments through it.
pub fn resolve_ids(ids: &[String]) -> Result<Vec<&'static str>, String> {
    if ids.is_empty() {
        return Err(format!(
            "no experiment ids given; available ids: {}",
            EXPERIMENT_IDS.join(" ")
        ));
    }
    if ids.iter().any(|i| i == "all") {
        return Ok(EXPERIMENT_IDS.to_vec());
    }
    ids.iter()
        .map(|id| {
            EXPERIMENT_IDS
                .iter()
                .copied()
                .find(|known| known == id)
                .ok_or_else(|| {
                    format!(
                        "unknown experiment id {id:?}; available ids: {}",
                        EXPERIMENT_IDS.join(" ")
                    )
                })
        })
        .collect()
}

/// Run one experiment by id. Returns `None` for an unknown id.
pub fn run_by_id(id: &str, lab: &Lab, out_dir: &Path) -> Option<ExperimentOutput> {
    let out = match id {
        "table1" => table1::run(lab, out_dir),
        "fig1" => fig1::run(lab, out_dir),
        "fig2" => fig2::run(lab, out_dir),
        "fig3" => fig3::run(lab, out_dir),
        "fig4" => fig4::run(lab, out_dir),
        "fig5" => fig5::run(lab, out_dir),
        "fig6" => fig6::run(lab, out_dir),
        "table2" => table2::run(lab, out_dir),
        "fig7" => fig7::run(lab, out_dir),
        "fig8" => fig8::run(lab, out_dir),
        "fig9" => fig9::run(lab, out_dir),
        "table3" => table3::run(lab, out_dir),
        "fig10" => fig10::run(lab, out_dir),
        "ablation_confidence" => ablation::confidence(lab, out_dir),
        "ablation_separation" => ablation::separation(lab, out_dir),
        "streaming" => crate::streaming::experiment(lab, out_dir),
        "sharded" => crate::sharded::experiment(lab, out_dir),
        "methods" => crate::methods::experiment(lab, out_dir),
        "scale" => crate::scale::experiment(lab, out_dir),
        "serve" => crate::serve::experiment(lab, out_dir),
        _ => return None,
    };
    Some(out)
}

/// Run every experiment in order.
pub fn run_all(lab: &Lab, out_dir: &Path) -> Vec<ExperimentOutput> {
    EXPERIMENT_IDS
        .iter()
        .map(|id| run_by_id(id, lab, out_dir).expect("all ids are known"))
        .collect()
}

/// Number of worker threads for injection sweeps.
pub(crate) fn sweep_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// The injection window used by Figures 7–9 and Table 3: one full day
/// (Tuesday), clear of the generator's time margins and of weekends.
pub(crate) fn injection_day() -> Vec<usize> {
    (288..432).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_dispatch_and_cheap_experiments_produce_output() {
        let lab = Lab::load();
        let dir = std::env::temp_dir().join("netanom-exp-smoke");
        let _ = std::fs::remove_dir_all(&dir);

        assert!(run_by_id("fig99", &lab, &dir).is_none());

        // Shared id resolution: expansion, validation, helpful errors.
        let all = resolve_ids(&["all".to_string()]).unwrap();
        assert_eq!(all, EXPERIMENT_IDS.to_vec());
        let some = resolve_ids(&["sharded".to_string(), "fig3".to_string()]).unwrap();
        assert_eq!(some, vec!["sharded", "fig3"]);
        let err = resolve_ids(&["fig99".to_string()]).unwrap_err();
        assert!(err.contains("fig99") && err.contains("sharded"), "{err}");
        assert!(resolve_ids(&[]).unwrap_err().contains("available ids"));

        // The cheap drivers (no injection sweeps) should render non-empty
        // output and write their CSVs.
        for id in ["table1", "fig2", "fig3", "fig4", "fig5"] {
            let out = run_by_id(id, &lab, &dir).expect("known id");
            assert_eq!(out.id, id);
            assert!(!out.rendered.is_empty(), "{id}: empty rendering");
            for f in &out.files {
                assert!(f.exists(), "{id}: missing {}", f.display());
                let content = std::fs::read_to_string(f).expect("readable");
                assert!(
                    content.lines().count() >= 2,
                    "{id}: empty CSV {}",
                    f.display()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Full regeneration of every artifact; slow, so opt-in:
    /// `cargo test -p netanom-eval --release -- --ignored`
    #[test]
    #[ignore = "runs every experiment (~1 min in release)"]
    fn run_all_produces_all_artifacts() {
        let lab = Lab::load();
        let dir = std::env::temp_dir().join("netanom-exp-all");
        let _ = std::fs::remove_dir_all(&dir);
        let outputs = run_all(&lab, &dir);
        assert_eq!(outputs.len(), EXPERIMENT_IDS.len());
        for out in &outputs {
            assert!(!out.files.is_empty(), "{}: no files", out.id);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
