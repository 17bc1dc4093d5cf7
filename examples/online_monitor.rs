//! Online monitoring: the paper's envisioned deployment (Section 7.1).
//!
//! ```sh
//! cargo run --release --example online_monitor
//! ```
//!
//! Trains a subspace model on one week of link measurements, then streams
//! a fresh day of traffic bin by bin — the model is *not* refitted per
//! arrival; each measurement is diagnosed in O(m·r). Mid-day we stage a
//! live incident (a 4·10⁷-byte spike in one OD flow) and watch the alarm
//! fire with the correct flow and size.

use netanom::core::{DiagnoserConfig, StreamConfig, StreamingEngine};
use netanom::linalg::vector;
use netanom::traffic::datasets;

fn main() {
    // Eight days of the same network conditions: train on the first week,
    // stream the eighth day live.
    let week = 1008;
    let day = 144;
    let ds = datasets::sprint1_extended(week + day);
    let rm = &ds.network.routing_matrix;
    let training = ds
        .links
        .matrix()
        .row_block(0, week)
        .expect("extended dataset covers the training week");

    let mut monitor = StreamingEngine::new(
        &training,
        rm,
        DiagnoserConfig::default(),
        // Retain one week for refits; refit weekly, as the paper suggests.
        StreamConfig::new(week).refit_every(week),
    )
    .expect("training data fits");

    // Stage an incident at 14:30 in flow b->i (the paper's Figure 1
    // example flow).
    let topo = &ds.network.topology;
    let b = topo.pop_by_name("b").expect("sprint PoP names");
    let i = topo.pop_by_name("i").expect("sprint PoP names");
    let incident_flow = rm.flow_id((b, i)).0;
    let incident_bin = 87; // 14:30
    let incident_bytes = 4.0e7;

    println!("streaming one day of measurements (incident staged at bin {incident_bin})…\n");
    let mut alarms = 0;
    for t in 0..day {
        let mut y = ds.links.bin(week + t).to_vec();
        if t == incident_bin {
            vector::axpy(incident_bytes, &rm.column(incident_flow), &mut y);
        }
        let report = monitor.process(&y).expect("link count matches model");
        if report.detected {
            alarms += 1;
            let id = report.identification.expect("detected implies identified");
            let flow = rm.flow(id.flow);
            println!(
                "ALARM at bin {t:>3} ({:02}:{:02}): flow {}->{} ({}), est {:+.3e} bytes, \
                 SPE/threshold = {:.1}",
                t * 10 / 60,
                t * 10 % 60,
                topo.pop(flow.od.0).name,
                topo.pop(flow.od.1).name,
                if id.flow == incident_flow {
                    "the staged incident"
                } else {
                    "unexpected"
                },
                report.estimated_bytes.unwrap_or(0.0),
                report.spe / report.threshold,
            );
        }
    }
    println!(
        "\nday complete: {alarms} alarm(s) in {day} bins ({} arrivals processed).",
        monitor.arrivals()
    );
}
