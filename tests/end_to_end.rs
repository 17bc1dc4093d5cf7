//! Cross-crate integration: the full pipeline through the facade API.

use netanom::core::{
    Diagnoser, DiagnoserConfig, Pca, SeparationPolicy, StreamConfig, StreamingEngine,
};
use netanom::eval::metrics::{self, TruthEvent};
use netanom::linalg::vector;
use netanom::topology::builtin;
use netanom::traffic::{datasets, GeneratorConfig, TrafficGenerator};

#[test]
fn facade_reexports_compose() {
    // The full pipeline expressed only through facade paths.
    let ds = datasets::mini(99);
    let diagnoser = Diagnoser::fit(
        ds.links.matrix(),
        &ds.network.routing_matrix,
        DiagnoserConfig::default(),
    )
    .expect("mini dataset fits");
    let reports = diagnoser
        .diagnose_series(ds.links.matrix())
        .expect("dims match");
    assert_eq!(reports.len(), ds.links.num_bins());

    let truth: Vec<TruthEvent> = ds.truth.iter().copied().map(Into::into).collect();
    let v = metrics::validate(&reports, &truth, ds.cutoff_bytes);
    // The mini dataset exists for mechanics, not calibration — just check
    // the pipeline produces sane aggregate numbers.
    assert!(v.detection_rate() > 0.2, "rate {}", v.detection_rate());
    assert!(v.false_alarm_rate() < 0.05);
}

#[test]
fn custom_network_custom_traffic_pipeline() {
    // A user-built network + generator, not a canned dataset.
    let net = builtin::random(8, 6, 0xBEEF);
    let config = GeneratorConfig {
        bins: 576,
        ..GeneratorConfig::default_week(0xCAFE, 5.0e8)
    };
    let od = TrafficGenerator::new(config).generate(&net);
    let links = od.to_link_series(&net.routing_matrix);

    let diagnoser = Diagnoser::fit(
        links.matrix(),
        &net.routing_matrix,
        DiagnoserConfig::default(),
    )
    .expect("clean traffic fits");

    // Clean traffic: alarm rate should be far below 1%.
    let alarms = diagnoser
        .diagnose_anomalies(links.matrix())
        .expect("dims match")
        .len();
    assert!(alarms <= 6, "{alarms} alarms in 576 clean bins");

    // An injected spike is diagnosed end to end.
    let flow = net.routing_matrix.num_flows() / 2;
    let mut y = links.bin(300).to_vec();
    vector::axpy(1.0e8, &net.routing_matrix.column(flow), &mut y);
    let rep = diagnoser.diagnose_vector(&y).expect("dims match");
    assert!(rep.detected);
    assert_eq!(rep.identification.unwrap().flow, flow);
    let est = rep.estimated_bytes.unwrap();
    assert!((est / 1.0e8 - 1.0).abs() < 0.3, "estimate {est}");
}

#[test]
fn online_and_batch_agree_on_fresh_data() {
    let week = 432;
    let extra = 72;
    let ds = datasets::sprint1_extended(week + extra);
    let training = ds.links.matrix().row_block(0, week).unwrap();
    let rm = &ds.network.routing_matrix;

    let batch = Diagnoser::fit(&training, rm, DiagnoserConfig::default()).unwrap();
    let mut online = StreamingEngine::new(
        &training,
        rm,
        DiagnoserConfig::default(),
        StreamConfig::new(week),
    )
    .unwrap();

    for t in week..week + extra {
        let y = ds.links.bin(t);
        let b = batch.diagnose_vector(y).unwrap();
        let o = online.process(y).unwrap();
        assert_eq!(b.detected, o.detected, "divergence at bin {t}");
        assert!((b.spe - o.spe).abs() <= 1e-9 * b.spe.max(1.0));
    }
}

#[test]
fn separation_policies_are_ordered_sensibly() {
    let ds = datasets::mini(5);
    let pca = Pca::fit(ds.links.matrix()).unwrap();
    let r_sigma = SeparationPolicy::default().normal_dim(&pca);
    let r_frac = SeparationPolicy::VarianceFraction(0.95).normal_dim(&pca);
    let m = ds.links.num_links();
    assert!(r_sigma <= m);
    assert!(r_frac <= m);
    assert!(r_frac >= 1);
}

#[test]
fn quantification_is_linear_in_injection_size() {
    // Doubling the injected bytes should double the estimate: the
    // quantifier is a linear functional of the residual.
    let ds = datasets::sprint1();
    let rm = &ds.network.routing_matrix;
    let diagnoser = Diagnoser::fit(ds.links.matrix(), rm, DiagnoserConfig::default()).unwrap();
    let flow = 100;
    let base = ds.links.bin(500).to_vec();
    // Remove the baseline residual contribution by measuring at 1x and
    // 2x and comparing the difference.
    let mut y1 = base.clone();
    vector::axpy(8.0e7, &rm.column(flow), &mut y1);
    let mut y2 = base.clone();
    vector::axpy(1.6e8, &rm.column(flow), &mut y2);
    let r1 = diagnoser.diagnose_vector(&y1).unwrap();
    let r2 = diagnoser.diagnose_vector(&y2).unwrap();
    assert!(r1.detected && r2.detected, "8e7 bytes must be detectable");
    let slope = (r2.estimated_bytes.unwrap() - r1.estimated_bytes.unwrap()) / 8.0e7;
    assert!(
        (slope - 1.0).abs() < 0.05,
        "slope {slope} should be ~1 byte per injected byte"
    );
}
