//! Manual calibration probe: per-axis variance fraction and max |z|.
//! Run with `cargo test -p netanom-core --test axes_probe -- --ignored --nocapture`.
use netanom_core::Pca;
use netanom_linalg::stats;
use netanom_traffic::datasets;

#[test]
#[ignore = "manual calibration tool"]
fn axes_probe() {
    for ds in [
        datasets::sprint1(),
        datasets::sprint2(),
        datasets::abilene(),
    ] {
        let pca = Pca::fit(ds.links.matrix()).unwrap();
        let fracs = pca.variance_fractions();
        println!("=== {} ===", ds.name);
        for (i, frac) in fracs.iter().enumerate().take(10) {
            let u = pca.temporal_projection(i);
            let mean = stats::mean(&u);
            let sd = stats::std_dev(&u);
            let maxz = u
                .iter()
                .map(|&x| ((x - mean) / sd).abs())
                .fold(0.0f64, f64::max);
            // where is the max?
            let argmax = u
                .iter()
                .enumerate()
                .max_by(|a, b| {
                    ((a.1 - mean).abs())
                        .partial_cmp(&(b.1 - mean).abs())
                        .unwrap()
                })
                .unwrap()
                .0;
            println!("  axis {i}: frac={frac:.4} max|z|={maxz:.2} at t={argmax}");
        }
    }
}
