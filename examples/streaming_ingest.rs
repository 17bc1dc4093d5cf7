//! Streaming ingestion: CSV → chunked reader → streaming engine.
//!
//! ```sh
//! cargo run --release --example streaming_ingest
//! ```
//!
//! The production-shaped online path: a link-measurement CSV is read in
//! poll-cycle-sized row blocks (never materializing the series), the
//! first six days bootstrap the model, and the remaining day streams
//! through a [`StreamingEngine`] with *incremental* refits — sufficient
//! statistics maintained in `O(m²)` per arrival, each refit one `m × m`
//! eigen-solve instead of another pass over the whole window.
//!
//! [`StreamingEngine`]: netanom::core::stream::StreamingEngine

use netanom::core::stream::{RefitStrategy, StreamConfig, StreamingEngine};
use netanom::core::DiagnoserConfig;
use netanom::traffic::datasets;
use netanom::traffic::io as traffic_io;

fn main() {
    // Export a canned dataset to CSV — the same files an SNMP pipeline
    // would produce.
    let ds = datasets::mini(11);
    let dir = std::env::temp_dir().join("netanom-streaming-ingest");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let csv_path = dir.join("links.csv");
    traffic_io::link_series_to_csv(&ds.links, None, &csv_path).expect("csv written");

    let train_bins = 216; // bootstrap window
    let chunk = 24; // rows per poll cycle
    let rm = &ds.network.routing_matrix;

    // Read exactly the training window; the remainder streams below.
    let mut chunks = traffic_io::link_series_chunks(&csv_path, chunk).expect("csv opens");
    let m = chunks.num_links();
    let training = chunks.take_rows(train_bins).expect("enough training rows");

    let mut engine = StreamingEngine::new(
        &training,
        rm,
        DiagnoserConfig::default(),
        StreamConfig::new(train_bins)
            .refit_every(48)
            .strategy(RefitStrategy::Incremental),
    )
    .expect("training data fits");
    println!(
        "trained on {train_bins} bins x {m} links; r = {}, streaming with incremental refits…\n",
        engine.diagnoser().model().normal_dim()
    );

    // Stream the rest of the file.
    let mut alarms = 0usize;
    while let Some(block) = chunks.next_chunk().expect("csv parses") {
        for report in engine.process_batch(&block).expect("widths match") {
            if report.detected {
                alarms += 1;
                let id = report.identification.expect("detected implies identified");
                println!(
                    "bin {:>4}: flow {:>2} anomalous by {:+.2e} bytes (SPE {:.2e} > {:.2e})",
                    train_bins + report.time,
                    id.flow,
                    report.estimated_bytes.unwrap_or(0.0),
                    report.spe,
                    report.threshold,
                );
            }
        }
    }
    println!(
        "\n{alarms} alarms over {} streamed bins; {} incremental refits, window of {} rows",
        engine.arrivals(),
        engine.refits(),
        engine.window().len(),
    );
    std::fs::remove_dir_all(&dir).ok();
}
