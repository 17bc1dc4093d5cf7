//! Timeseries containers for OD-flow and link traffic.

use netanom_linalg::Matrix;
use netanom_topology::RoutingMatrix;

/// Seconds per measurement bin (the paper aggregates to 10 minutes).
pub const BIN_SECONDS: u64 = 600;

/// Bins per day at 10-minute resolution.
pub const BINS_PER_DAY: usize = 144;

/// Bins per week at 10-minute resolution — the paper's `t = 1008`.
pub const BINS_PER_WEEK: usize = 7 * BINS_PER_DAY;

/// Byte counts of every OD flow over time.
///
/// Stored as a `bins × flows` matrix: row `t` is the vector `x(t)` of
/// per-flow bytes in bin `t`. Columns are ordered like the routing matrix's
/// flows.
#[derive(Debug, Clone)]
pub struct OdSeries {
    data: Matrix,
}

impl OdSeries {
    /// Wrap a `bins × flows` matrix.
    pub fn new(data: Matrix) -> Self {
        OdSeries { data }
    }

    /// Number of time bins.
    pub fn num_bins(&self) -> usize {
        self.data.rows()
    }

    /// Number of OD flows.
    pub fn num_flows(&self) -> usize {
        self.data.cols()
    }

    /// The per-flow byte vector `x(t)` for bin `t`.
    ///
    /// # Panics
    /// Panics if `t` is out of range.
    pub fn bin(&self, t: usize) -> &[f64] {
        self.data.row(t)
    }

    /// The timeseries of flow `f` (length `num_bins`).
    ///
    /// # Panics
    /// Panics if `f` is out of range.
    pub fn flow_series(&self, f: usize) -> Vec<f64> {
        self.data.col(f)
    }

    /// Byte count of flow `f` in bin `t`.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn get(&self, t: usize, f: usize) -> f64 {
        self.data[(t, f)]
    }

    /// Set the byte count of flow `f` in bin `t`.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn set(&mut self, t: usize, f: usize, bytes: f64) {
        self.data[(t, f)] = bytes;
    }

    /// Add `delta` bytes to flow `f` in bin `t`, clamping at zero.
    /// Returns the delta actually applied (may be smaller in magnitude for
    /// negative spikes into small flows).
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn add_clamped(&mut self, t: usize, f: usize, delta: f64) -> f64 {
        let old = self.data[(t, f)];
        let new = (old + delta).max(0.0);
        self.data[(t, f)] = new;
        new - old
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.data
    }

    /// Mean bytes per bin of each flow.
    pub fn flow_means(&self) -> Vec<f64> {
        self.data.column_means()
    }

    /// Compute the link-load series `Y` with `y(t) = A x(t)` for all bins.
    ///
    /// This is the measurement matrix the subspace method works on; the
    /// paper constructs it the same way ("we follow the method of \[31\] and
    /// construct link counts from OD flow counts using a routing table").
    /// Each bin is [`RoutingMatrix::link_loads`]: every link adds the
    /// flows crossing it in ascending flow order, the per-entry order of
    /// the dense product `X·Aᵀ`, whose zero entries add nothing.
    ///
    /// # Panics
    /// Panics if the routing matrix's flow count differs from this series'.
    pub fn to_link_series(&self, rm: &RoutingMatrix) -> LinkSeries {
        assert_eq!(
            self.num_flows(),
            rm.num_flows(),
            "routing matrix flow count mismatch"
        );
        // Y = X Aᵀ  (bins × links), one scatter per bin.
        let mut y = Matrix::zeros(self.num_bins(), rm.num_links());
        for t in 0..self.num_bins() {
            y.row_mut(t).copy_from_slice(&rm.link_loads(self.bin(t)));
        }
        LinkSeries { data: y }
    }
}

/// Byte counts of every link over time (`bins × links`) — the matrix `Y`
/// of the paper.
#[derive(Debug, Clone)]
pub struct LinkSeries {
    data: Matrix,
}

impl LinkSeries {
    /// Wrap a `bins × links` matrix.
    pub fn new(data: Matrix) -> Self {
        LinkSeries { data }
    }

    /// Number of time bins.
    pub fn num_bins(&self) -> usize {
        self.data.rows()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.data.cols()
    }

    /// The per-link byte vector `y(t)` for bin `t`.
    ///
    /// # Panics
    /// Panics if `t` is out of range.
    pub fn bin(&self, t: usize) -> &[f64] {
        self.data.row(t)
    }

    /// The timeseries of link `l`.
    ///
    /// # Panics
    /// Panics if `l` is out of range.
    pub fn link_series(&self, l: usize) -> Vec<f64> {
        self.data.col(l)
    }

    /// The underlying `bins × links` measurement matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.data
    }

    /// Mean bytes per bin of each link.
    pub fn link_means(&self) -> Vec<f64> {
        self.data.column_means()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netanom_topology::builtin;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(BINS_PER_DAY * 7, BINS_PER_WEEK);
        assert_eq!(BINS_PER_WEEK, 1008); // the paper's t
        assert_eq!(BIN_SECONDS, 600);
    }

    #[test]
    fn accessors_roundtrip() {
        let mut od = OdSeries::new(Matrix::zeros(4, 3));
        od.set(2, 1, 42.0);
        assert_eq!(od.get(2, 1), 42.0);
        assert_eq!(od.bin(2), &[0.0, 42.0, 0.0]);
        assert_eq!(od.flow_series(1), vec![0.0, 0.0, 42.0, 0.0]);
        assert_eq!(od.num_bins(), 4);
        assert_eq!(od.num_flows(), 3);
    }

    #[test]
    fn add_clamped_reports_applied_delta() {
        let mut od = OdSeries::new(Matrix::zeros(1, 1));
        od.set(0, 0, 10.0);
        assert_eq!(od.add_clamped(0, 0, 5.0), 5.0);
        assert_eq!(od.get(0, 0), 15.0);
        // Negative spike bigger than the flow clamps.
        assert_eq!(od.add_clamped(0, 0, -100.0), -15.0);
        assert_eq!(od.get(0, 0), 0.0);
    }

    #[test]
    fn link_series_matches_per_bin_matvec() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let n = rm.num_flows();
        let od = OdSeries::new(Matrix::from_fn(5, n, |t, f| (t * n + f) as f64));
        let links = od.to_link_series(rm);
        assert_eq!(links.num_bins(), 5);
        assert_eq!(links.num_links(), rm.num_links());
        for t in 0..5 {
            let direct = rm.link_loads(od.bin(t));
            assert_eq!(links.bin(t), &direct[..], "bin {t}");
        }
    }

    #[test]
    #[should_panic(expected = "flow count mismatch")]
    fn link_series_validates_flow_count() {
        let net = builtin::line(3);
        let od = OdSeries::new(Matrix::zeros(2, 4)); // wrong flow count
        let _ = od.to_link_series(&net.routing_matrix);
    }

    #[test]
    fn means_are_columnwise() {
        let od = OdSeries::new(Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]));
        assert_eq!(od.flow_means(), vec![2.0, 20.0]);
        let links = LinkSeries::new(Matrix::from_rows(&[vec![2.0], vec![4.0]]));
        assert_eq!(links.link_means(), vec![3.0]);
    }
}
