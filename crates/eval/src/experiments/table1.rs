//! Table 1: summary of datasets studied.

use std::path::Path;

use netanom_linalg::stats;

use super::ExperimentOutput;
use crate::lab::Lab;
use crate::report;

pub fn run(lab: &Lab, out_dir: &Path) -> ExperimentOutput {
    let mut rows = Vec::new();
    for (ds, _) in lab.all() {
        let topo = &ds.network.topology;
        let mean_link = stats::mean(&ds.links.link_means());
        rows.push(vec![
            ds.name.to_string(),
            topo.num_pops().to_string(),
            topo.num_links().to_string(),
            ds.od.num_flows().to_string(),
            format!("{} min", netanom_traffic::BIN_SECONDS / 60),
            ds.links.num_bins().to_string(),
            report::fmt_num(mean_link),
            ds.truth.len().to_string(),
        ]);
    }
    let table = report::ascii_table(
        &[
            "dataset",
            "# PoPs",
            "# links",
            "# OD flows",
            "time bin",
            "bins",
            "mean link B/bin",
            "true anomalies",
        ],
        &rows,
    );
    let csv = report::write_csv(
        &out_dir.join("table1").join("datasets.csv"),
        &[
            "dataset",
            "pops",
            "links",
            "od_flows",
            "bin_minutes",
            "bins",
            "mean_link_bytes_per_bin",
            "true_anomalies",
        ],
        &rows
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r[4] = "10".to_string();
                r
            })
            .collect::<Vec<_>>(),
    )
    .expect("csv writable");

    let rendered = format!(
        "Table 1: Summary of datasets studied.\n\
         (paper: Sprint-1 13/49, Sprint-2 13/49, Abilene 11/41, all 1008 bins of 10 min)\n\n{table}"
    );
    ExperimentOutput {
        id: "table1",
        title: "Table 1: Summary of datasets studied",
        rendered,
        files: vec![csv],
    }
}
