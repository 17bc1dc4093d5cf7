//! Manual calibration diagnostic (ignored by default).
//!
//! Run with:
//! `cargo test -p netanom-core --test calibration_report -- --ignored --nocapture`
//!
//! Prints, per dataset: the 3σ-selected r, the residual noise floor φ₁,
//! the detection threshold δ², the SPE an injection of each landmark size
//! would add, and detection counts against exact truth.

use netanom_core::{qstat, Diagnoser, DiagnoserConfig, Pca, SeparationPolicy};
use netanom_linalg::vector;
use netanom_traffic::datasets;

#[test]
#[ignore = "manual calibration tool"]
fn calibration_report() {
    for ds in [
        datasets::sprint1(),
        datasets::sprint2(),
        datasets::abilene(),
    ] {
        let pca = Pca::fit(ds.links.matrix()).unwrap();
        let r = SeparationPolicy::default().normal_dim(&pca);
        let q = qstat::q_threshold(pca.eigenvalues(), r, 0.999).unwrap();
        let diagnoser = Diagnoser::fit(
            ds.links.matrix(),
            &ds.network.routing_matrix,
            DiagnoserConfig::default(),
        )
        .unwrap();
        let model = diagnoser.model();

        // Typical ||C~ A_f||^2 across flows.
        let rm = &ds.network.routing_matrix;
        let mut vis: Vec<f64> = (0..rm.num_flows())
            .map(|f| {
                let a = rm.column(f);
                let res = model.residual_direction(&a).unwrap();
                vector::norm_sq(&res)
            })
            .collect();
        vis.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med_vis = vis[vis.len() / 2];

        let reports = diagnoser.diagnose_series(ds.links.matrix()).unwrap();
        let truth: std::collections::HashMap<usize, &netanom_traffic::AnomalyEvent> =
            ds.truth.iter().map(|e| (e.time, e)).collect();
        let mut det_imp = 0;
        let mut fa = 0;
        let imp = ds.important_truth().len();
        for rep in reports.iter().filter(|r| r.detected) {
            match truth.get(&rep.time) {
                Some(e) if e.size() >= ds.cutoff_bytes => det_imp += 1,
                Some(_) => {}
                None => fa += 1,
            }
        }

        println!("=== {} ===", ds.name);
        println!(
            "  r = {r}, phi1 = {:.3e}, delta^2(99.9%) = {:.3e}",
            q.phi1, q.delta_sq
        );
        println!("  median ||C~A_f||^2 = {med_vis:.3}");
        for (label, b) in [
            ("cutoff", ds.cutoff_bytes),
            ("large", ds.large_injection),
            ("small", ds.small_injection),
        ] {
            let dspe = b * b * med_vis;
            println!(
                "  {label} ({b:.1e}): typical added SPE = {dspe:.3e} ({:.2}x delta^2)",
                dspe / q.delta_sq
            );
        }
        println!("  detection: {det_imp}/{imp} important, {fa} false alarms");
    }
}
