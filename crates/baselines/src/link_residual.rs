//! Per-link temporal filtering of the measurement matrix (Figure 10).
//!
//! Section 7.3 asks whether the *temporal* filters used to build ground
//! truth could replace the subspace method if applied per link. The
//! comparison separates each link timeseries into modeled + residual with
//! EWMA or Fourier and plots the squared norm of the per-bin residual
//! vector — which turns out to be far worse separated than the subspace
//! residual. These helpers produce those residual series.

use netanom_linalg::Matrix;
use netanom_traffic::LinkSeries;

use crate::ewma::Ewma;
use crate::fourier::FourierModel;

/// Which temporal filter to apply per link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFilter {
    /// EWMA with grid-searched α per link.
    Ewma,
    /// The paper's eight-period Fourier model per link.
    Fourier,
}

/// Apply the filter to every link column, returning the `t × m` residual
/// matrix.
pub fn residual_matrix(links: &LinkSeries, filter: LinkFilter) -> Matrix {
    let t = links.num_bins();
    let m = links.num_links();
    let mut out = Matrix::zeros(t, m);
    for l in 0..m {
        let series = links.link_series(l);
        let resid = match filter {
            LinkFilter::Ewma => Ewma::grid_search(&series).residuals(&series),
            LinkFilter::Fourier => FourierModel::fit_paper_basis(&series).residuals(&series),
        };
        out.set_col(l, &resid);
    }
    out
}

/// The per-bin squared norm of the residual vector — the series plotted
/// in Figure 10 (for the subspace method the same quantity is the SPE).
pub fn residual_energy_series(links: &LinkSeries, filter: LinkFilter) -> Vec<f64> {
    let resid = residual_matrix(links, filter);
    (0..resid.rows())
        .map(|t| netanom_linalg::vector::norm_sq(resid.row(t)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netanom_linalg::Matrix;

    fn links_with_spike() -> LinkSeries {
        let bins = 1008;
        let mut m = Matrix::from_fn(bins, 3, |t, l| {
            1e6 * (l + 1) as f64 + 1e5 * (std::f64::consts::TAU * t as f64 / 144.0).sin()
        });
        for l in 0..3 {
            m[(400, l)] += 5e5;
        }
        LinkSeries::new(m)
    }

    #[test]
    fn all_filters_produce_full_matrices() {
        let links = links_with_spike();
        for filter in [LinkFilter::Ewma, LinkFilter::Fourier] {
            let resid = residual_matrix(&links, filter);
            assert_eq!(resid.shape(), (1008, 3), "{filter:?}");
        }
    }

    #[test]
    fn spike_bin_has_elevated_energy_under_every_filter() {
        let links = links_with_spike();
        for filter in [LinkFilter::Ewma, LinkFilter::Fourier] {
            let energy = residual_energy_series(&links, filter);
            let spike = energy[400];
            let median = {
                let mut v = energy.clone();
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v[v.len() / 2]
            };
            assert!(
                spike > 10.0 * median,
                "{filter:?}: spike energy {spike} vs median {median}"
            );
        }
    }

    #[test]
    fn fourier_residual_is_centered() {
        let links = links_with_spike();
        let resid = residual_matrix(&links, LinkFilter::Fourier);
        // Least squares with a DC column leaves zero-mean residuals.
        for l in 0..3 {
            let mean = netanom_linalg::stats::mean(&resid.col(l));
            assert!(mean.abs() < 1e-6, "link {l} residual mean {mean}");
        }
    }

    #[test]
    fn energy_series_matches_matrix() {
        let links = links_with_spike();
        let resid = residual_matrix(&links, LinkFilter::Ewma);
        let energy = residual_energy_series(&links, LinkFilter::Ewma);
        for t in (0..1008).step_by(101) {
            let direct = netanom_linalg::vector::norm_sq(resid.row(t));
            assert!((energy[t] - direct).abs() < 1e-9 * direct.max(1.0));
        }
    }
}
