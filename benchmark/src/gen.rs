//! Seeded input generator: the program under test only ever sees the
//! files written here.
//!
//! One *series* is a synthetic backbone (`traffic::synth::workload`)
//! whose first `train_bins` rows are clean and whose streamed tail has
//! anomalies staged with the rule `eval::streaming::stage_anomalies`
//! uses (that function is `pub(crate)`, so its dozen lines are
//! repeated here): every [`ANOMALY_EVERY`] bins a spike of
//! [`ANOMALY_BYTES`] rides one OD flow for [`ANOMALY_LEN`] bins.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use netanom_linalg::vector;
use netanom_traffic::io as traffic_io;
use netanom_traffic::synth::{self, ScaleConfig};
use netanom_traffic::LinkSeries;

/// Bins between staged anomaly onsets in the streamed tail.
pub const ANOMALY_EVERY: usize = 48;
/// Lifetime of each staged anomaly in bins.
pub const ANOMALY_LEN: usize = 3;
/// Size of each staged anomaly in bytes.
pub const ANOMALY_BYTES: f64 = 5e7;

/// The shape of one generated series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesSpec {
    /// Directory name under the seed's data directory.
    pub name: &'static str,
    /// Exact link count `m` of the synthetic backbone.
    pub links: usize,
    /// Clean training rows at the head of `links.csv`.
    pub train_bins: usize,
    /// Streamed rows after the training prefix.
    pub stream_bins: usize,
}

/// The files of one generated series, with what the harness needs to
/// know about them without re-reading.
#[derive(Debug, Clone)]
pub struct SeriesFiles {
    /// The shape this series was generated with.
    pub spec: SeriesSpec,
    /// `links.csv`: header plus `train_bins + stream_bins` rows.
    pub links: PathBuf,
    /// `paths.csv`: one OD flow per row.
    pub paths: PathBuf,
    /// `truth.csv`: one row per staged anomalous bin.
    pub truth: PathBuf,
    /// Number of OD flows in `paths.csv`.
    pub flows: usize,
    /// FNV-1a digest over the three files, in the order above.
    pub digest: String,
}

/// 64-bit FNV-1a over the concatenation of `parts`, as 16 hex digits.
fn fnv1a_hex(parts: &[&str]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in parts.iter().flat_map(|p| p.bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The three CSV documents of a series, in memory.
pub struct SeriesText {
    pub links: String,
    pub paths: String,
    pub truth: String,
    pub flows: usize,
}

impl SeriesText {
    pub fn digest(&self) -> String {
        fnv1a_hex(&[&self.links, &self.paths, &self.truth])
    }
}

/// Generate one series as CSV text. The same `(spec, seed)` gives the
/// same bytes.
pub fn series_text(spec: &SeriesSpec, seed: u64) -> Result<SeriesText, String> {
    let bins = spec.train_bins + spec.stream_bins;
    let (network, clean) = synth::workload(&ScaleConfig::new(spec.links, bins, seed))
        .map_err(|e| format!("generating the m={} backbone: {e}", spec.links))?;
    let rm = &network.routing_matrix;
    let mut data = clean.matrix().clone();

    let mut truth = String::from("time,flow,delta_bytes\n");
    let mut k = 0usize;
    loop {
        let onset = spec.train_bins + (k + 1) * ANOMALY_EVERY;
        if onset + ANOMALY_LEN > bins {
            break;
        }
        let flow = (k * 7 + 3) % rm.num_flows();
        let column = rm.column(flow);
        for t in onset..onset + ANOMALY_LEN {
            let mut row = data.row(t).to_vec();
            vector::axpy(ANOMALY_BYTES, &column, &mut row);
            data.set_row(t, &row);
            let _ = writeln!(truth, "{t},{flow},{ANOMALY_BYTES}");
        }
        k += 1;
    }

    let mut paths = String::from("flow,links\n");
    for f in 0..rm.num_flows() {
        let links: Vec<String> = rm.flow(f).path.iter().map(|l| l.0.to_string()).collect();
        let _ = writeln!(paths, "{f},{}", links.join(";"));
    }

    Ok(SeriesText {
        links: traffic_io::link_series_to_csv_string(&LinkSeries::new(data), None),
        paths,
        truth,
        flows: rm.num_flows(),
    })
}

/// Make sure `dir/<spec.name>/` holds the series for `seed`, generating
/// it when the stamp file is missing or names another shape, and return
/// its files. Laps and later runs on the same seed reuse the cache.
pub fn ensure_series(dir: &Path, spec: &SeriesSpec, seed: u64) -> Result<SeriesFiles, String> {
    let sdir = dir.join(spec.name);
    let stamp_path = sdir.join("stamp");
    let want = format!(
        "m={} train={} stream={} seed={seed}",
        spec.links, spec.train_bins, spec.stream_bins
    );
    let files = |flows: usize, digest: String| SeriesFiles {
        spec: *spec,
        links: sdir.join("links.csv"),
        paths: sdir.join("paths.csv"),
        truth: sdir.join("truth.csv"),
        flows,
        digest,
    };
    if let Ok(stamp) = fs::read_to_string(&stamp_path) {
        let mut lines = stamp.lines();
        if lines.next() == Some(want.as_str()) {
            let flows = lines.next().and_then(|s| s.parse().ok());
            let digest = lines.next().map(str::to_string);
            if let (Some(flows), Some(digest)) = (flows, digest) {
                return Ok(files(flows, digest));
            }
        }
    }
    // A stale directory may hold reference outputs of another shape.
    let _ = fs::remove_dir_all(&sdir);
    fs::create_dir_all(&sdir).map_err(|e| format!("creating {}: {e}", sdir.display()))?;
    let text = series_text(spec, seed)?;
    let out = files(text.flows, text.digest());
    for (path, body) in [
        (&out.links, &text.links),
        (&out.paths, &text.paths),
        (&out.truth, &text.truth),
    ] {
        fs::write(path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    // The stamp goes last, so an interrupted write is regenerated.
    fs::write(
        &stamp_path,
        format!("{want}\n{}\n{}\n", out.flows, out.digest),
    )
    .map_err(|e| format!("writing {}: {e}", stamp_path.display()))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: SeriesSpec = SeriesSpec {
        name: "tiny",
        links: 25,
        train_bins: 60,
        stream_bins: 120,
    };

    #[test]
    fn same_seed_gives_identical_bytes_and_another_seed_does_not() {
        let a = series_text(&TINY, 7).unwrap();
        let b = series_text(&TINY, 7).unwrap();
        assert_eq!(a.links, b.links);
        assert_eq!(a.paths, b.paths);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.digest(), b.digest());
        let c = series_text(&TINY, 8).unwrap();
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn anomalies_are_staged_in_the_streamed_tail_only() {
        let text = series_text(&TINY, 7).unwrap();
        let times: Vec<usize> = text
            .truth
            .lines()
            .skip(1)
            .map(|l| l.split(',').next().unwrap().parse().unwrap())
            .collect();
        // Onsets at 48 and 96 of the 120 streamed bins, three bins each.
        assert_eq!(times, [108, 109, 110, 156, 157, 158]);
        assert_eq!(text.links.lines().count(), 1 + 180);
        assert_eq!(text.paths.lines().count(), 1 + text.flows);
    }

    #[test]
    fn cache_is_reused_and_invalidated_by_shape() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-gen-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let first = ensure_series(&dir, &TINY, 7).unwrap();
        let written = fs::metadata(&first.links).unwrap().modified().unwrap();
        let again = ensure_series(&dir, &TINY, 7).unwrap();
        assert_eq!(first.digest, again.digest);
        assert_eq!(
            fs::metadata(&again.links).unwrap().modified().unwrap(),
            written
        );
        let other = ensure_series(&dir, &TINY, 8).unwrap();
        assert_ne!(first.digest, other.digest);
        fs::remove_dir_all(&dir).unwrap();
    }
}
