//! End-to-end behaviour of the subspace method on the canned datasets.
//!
//! These are the paper-shape assertions: high detection of important
//! (above-knee) anomalies, very few false alarms, accurate identification
//! and quantification. They intentionally run on the full 1008-bin
//! datasets — the same data every experiment uses.

use netanom_core::{Diagnoser, DiagnoserConfig, SeparationPolicy};
use netanom_traffic::datasets::{self, Dataset};

struct Outcome {
    detected_important: usize,
    important: usize,
    false_alarms: usize,
    identified: usize,
    quant_rel_errors: Vec<f64>,
}

/// Diagnose a dataset against its exact ground truth.
fn run(ds: &Dataset, config: DiagnoserConfig) -> Outcome {
    let diagnoser = Diagnoser::fit(ds.links.matrix(), &ds.network.routing_matrix, config)
        .expect("fit should succeed on canned data");
    let reports = diagnoser
        .diagnose_series(ds.links.matrix())
        .expect("diagnosis should succeed");

    let truth_by_time: std::collections::HashMap<usize, &netanom_traffic::AnomalyEvent> =
        ds.truth.iter().map(|e| (e.time, e)).collect();
    let important: Vec<&netanom_traffic::AnomalyEvent> = ds
        .truth
        .iter()
        .filter(|e| e.size() >= ds.cutoff_bytes)
        .collect();

    let mut detected_important = 0;
    let mut false_alarms = 0;
    let mut identified = 0;
    let mut quant_rel_errors = Vec::new();
    for rep in &reports {
        if !rep.detected {
            continue;
        }
        match truth_by_time.get(&rep.time) {
            Some(truth) => {
                if truth.size() >= ds.cutoff_bytes {
                    detected_important += 1;
                    let id = rep.identification.unwrap();
                    if id.flow == truth.flow {
                        identified += 1;
                        let est = rep.estimated_bytes.unwrap();
                        quant_rel_errors
                            .push(((est - truth.delta_bytes) / truth.delta_bytes).abs());
                    }
                }
                // Below-cutoff true anomalies detected are not false
                // alarms: they are real events, just unimportant ones.
            }
            None => false_alarms += 1,
        }
    }
    Outcome {
        detected_important,
        important: important.len(),
        false_alarms,
        identified,
        quant_rel_errors,
    }
}

fn assert_paper_shape(name: &str, o: &Outcome) {
    assert!(o.important >= 4, "{name}: degenerate truth set");
    let det_rate = o.detected_important as f64 / o.important as f64;
    assert!(
        det_rate >= 0.70,
        "{name}: detection rate {det_rate} ({}/{})",
        o.detected_important,
        o.important
    );
    assert!(
        o.false_alarms <= 15,
        "{name}: {} false alarms in 1008 bins",
        o.false_alarms
    );
    let id_rate = o.identified as f64 / o.detected_important.max(1) as f64;
    assert!(
        id_rate >= 0.6,
        "{name}: identification rate {id_rate} ({}/{})",
        o.identified,
        o.detected_important
    );
    if !o.quant_rel_errors.is_empty() {
        let mare = o.quant_rel_errors.iter().sum::<f64>() / o.quant_rel_errors.len() as f64;
        assert!(mare <= 0.5, "{name}: quantification error {mare}");
    }
}

#[test]
fn sprint1_paper_shape() {
    let ds = datasets::sprint1();
    let o = run(&ds, DiagnoserConfig::default());
    eprintln!(
        "sprint-1: detected {}/{} important, {} false alarms, {} identified",
        o.detected_important, o.important, o.false_alarms, o.identified
    );
    assert_paper_shape("sprint-1", &o);
}

#[test]
fn sprint2_paper_shape() {
    let ds = datasets::sprint2();
    let o = run(&ds, DiagnoserConfig::default());
    eprintln!(
        "sprint-2: detected {}/{} important, {} false alarms, {} identified",
        o.detected_important, o.important, o.false_alarms, o.identified
    );
    assert_paper_shape("sprint-2", &o);
}

#[test]
fn abilene_paper_shape() {
    let ds = datasets::abilene();
    let o = run(&ds, DiagnoserConfig::default());
    eprintln!(
        "abilene: detected {}/{} important, {} false alarms, {} identified",
        o.detected_important, o.important, o.false_alarms, o.identified
    );
    assert_paper_shape("abilene", &o);
}

#[test]
fn three_sigma_selects_low_dimensional_normal_subspace() {
    // Paper: "this procedure resulted in placing the first four principal
    // components in the normal subspace in each case". Our synthetic
    // traffic should land in the same low-dimensional ballpark.
    for ds in [
        datasets::sprint1(),
        datasets::sprint2(),
        datasets::abilene(),
    ] {
        let pca = netanom_core::Pca::fit(ds.links.matrix()).unwrap();
        let r = SeparationPolicy::default().normal_dim(&pca);
        assert!(
            (1..=8).contains(&r),
            "{}: 3σ rule selected r = {r}",
            ds.name
        );
    }
}

#[test]
fn scree_shows_low_effective_dimensionality() {
    // Paper Figure 3: the vast majority of variance in 3–4 components.
    for ds in [datasets::sprint1(), datasets::abilene()] {
        let pca = netanom_core::Pca::fit(ds.links.matrix()).unwrap();
        let dim90 = pca.effective_dimension(0.90);
        assert!(
            dim90 <= 6,
            "{}: 90% of variance needs {dim90} components",
            ds.name
        );
    }
}
