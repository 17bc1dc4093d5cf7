//! The routing matrix `A` and per-flow derived vectors.

use std::sync::Arc;

use crate::graph::{LinkId, PopId, Topology};
use crate::routing::Routes;
use crate::{Result, TopologyError};

/// Identifier of an OD flow (column index into the routing matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub usize);

/// An ordered origin–destination PoP pair.
pub type OdPair = (PopId, PopId);

/// Metadata for one OD flow.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Column index in the routing matrix.
    pub id: FlowId,
    /// Origin and destination PoPs.
    pub od: OdPair,
    /// The links this flow traverses.
    pub path: Vec<LinkId>,
}

/// The links of every flow in compressed-column form: flow `i`'s links
/// are `path(i)`, ascending and distinct — the row indices of the ones
/// in column `i` of `A`.
///
/// [`RoutingMatrix`] keeps it behind an [`Arc`] so a consumer that
/// outlives one refit (the identifier) shares it for a refcount bump.
#[derive(Debug)]
pub struct FlowPaths {
    /// `links[offsets[i]..offsets[i + 1]]` is flow `i`'s path.
    offsets: Vec<usize>,
    links: Vec<usize>,
}

impl FlowPaths {
    /// Flow `i`'s links, ascending.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn path(&self, i: usize) -> &[usize] {
        &self.links[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// The routing matrix `A` (`#links × #OD-flows`, entries 0/1) together with
/// the per-flow vectors the subspace method consumes.
///
/// Columns are ordered by `origin * num_pops + destination`, covering every
/// ordered PoP pair including self-pairs (which traverse only their PoP's
/// intra-PoP link). For Abilene this gives the paper's 41 × 121 matrix; for
/// the Sprint-Europe-like topology, 49 × 169.
///
/// `A` is a path-incidence matrix — a few ones per column among hundreds
/// or thousands of links — so it is stored as its paths
/// ([`RoutingMatrix::paths`], `O(nnz(A))`), and every dense view of
/// column `i` is built from flow `i`'s path on request:
///
/// * [`RoutingMatrix::column`] — the raw 0/1 column `Aᵢ`,
/// * [`RoutingMatrix::theta`] — `θᵢ = Aᵢ / ‖Aᵢ‖`, the unit-norm direction in
///   which a one-dimensional anomaly in flow `i` moves the link vector
///   (Section 5.2), and
/// * [`RoutingMatrix::abar`] — `Āᵢ = Aᵢ / ΣAᵢ`, the unit-sum weights used to
///   convert per-link anomalous traffic back to flow bytes (Section 5.3).
#[derive(Debug, Clone)]
pub struct RoutingMatrix {
    num_links: usize,
    flows: Vec<Flow>,
    paths: Arc<FlowPaths>,
}

impl RoutingMatrix {
    /// Build a routing matrix from externally-supplied per-flow link
    /// paths — the entry point for users bringing their own network
    /// (routing tables exported from IGP/BGP state rather than computed
    /// by this crate's Dijkstra).
    ///
    /// `paths[f]` lists the link indices flow `f` traverses. Duplicate
    /// links within a path are collapsed (the matrix is 0/1). Flow
    /// metadata records a placeholder OD pair derived from the flow index
    /// when the flow count is a perfect square (`o = f / √n`,
    /// `d = f mod √n`), or `(0, 0)` otherwise.
    ///
    /// Returns [`TopologyError::EmptyPath`] for a flow with no links and
    /// [`TopologyError::LinkOutOfRange`] for a link `≥ num_links`.
    pub fn try_from_paths(num_links: usize, paths: &[Vec<usize>]) -> Result<Self> {
        let n_flows = paths.len();
        let side = (n_flows as f64).sqrt() as usize;
        let square = side * side == n_flows;

        let mut flows = Vec::with_capacity(n_flows);
        for (f, path) in paths.iter().enumerate() {
            if path.is_empty() {
                return Err(TopologyError::EmptyPath { flow: f });
            }
            let mut link_ids: Vec<LinkId> = Vec::with_capacity(path.len());
            for &l in path {
                if l >= num_links {
                    return Err(TopologyError::LinkOutOfRange {
                        flow: f,
                        link: l,
                        num_links,
                    });
                }
                if !link_ids.contains(&LinkId(l)) {
                    link_ids.push(LinkId(l));
                }
            }
            let od = if square {
                (PopId(f / side), PopId(f % side))
            } else {
                (PopId(0), PopId(0))
            };
            flows.push(Flow {
                id: FlowId(f),
                od,
                path: link_ids,
            });
        }
        Ok(Self::finish(num_links, flows))
    }

    /// [`RoutingMatrix::try_from_paths`] for paths known to be valid.
    ///
    /// # Panics
    /// Panics if any path is empty or references a link `≥ num_links`.
    pub fn from_paths(num_links: usize, paths: &[Vec<usize>]) -> Self {
        Self::try_from_paths(num_links, paths).unwrap_or_else(|e| panic!("{e}"))
    }

    /// One flow per link: flow `l` traverses link `l` alone, so
    /// identification names the most anomalous link. The routing the
    /// deployment verbs fall back to when no paths are supplied.
    pub fn identity(num_links: usize) -> Self {
        let paths: Vec<Vec<usize>> = (0..num_links).map(|l| vec![l]).collect();
        Self::from_paths(num_links, &paths)
    }

    /// Build the routing matrix from a topology and its routes.
    pub fn new(topo: &Topology, routes: &Routes) -> Self {
        let n_pops = topo.num_pops();
        let mut flows = Vec::with_capacity(n_pops * n_pops);
        for o in 0..n_pops {
            for d in 0..n_pops {
                let od = (PopId(o), PopId(d));
                flows.push(Flow {
                    id: FlowId(o * n_pops + d),
                    od,
                    path: routes.path(od).to_vec(),
                });
            }
        }
        Self::finish(topo.num_links(), flows)
    }

    /// Index every flow's distinct links, ascending, and freeze.
    fn finish(num_links: usize, flows: Vec<Flow>) -> Self {
        let mut offsets = Vec::with_capacity(flows.len() + 1);
        let mut links = Vec::new();
        offsets.push(0);
        for flow in &flows {
            let mut path: Vec<usize> = flow.path.iter().map(|l| l.0).collect();
            path.sort_unstable();
            path.dedup();
            links.extend(path);
            offsets.push(links.len());
        }
        RoutingMatrix {
            num_links,
            flows,
            paths: Arc::new(FlowPaths { offsets, links }),
        }
    }

    /// Number of links (rows of `A`).
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Number of OD flows (columns of `A`).
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Metadata for flow `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn flow(&self, i: usize) -> &Flow {
        &self.flows[i]
    }

    /// All flows in column order.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Every flow's links, ascending: `A` in compressed-column form.
    pub fn paths(&self) -> &Arc<FlowPaths> {
        &self.paths
    }

    /// The dense column of flow `i` holding `value` at each of its links.
    fn dense_column(&self, i: usize, value: f64) -> Vec<f64> {
        let mut col = vec![0.0; self.num_links];
        for &l in self.paths.path(i) {
            col[l] = value;
        }
        col
    }

    /// Raw 0/1 column `Aᵢ`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn column(&self, i: usize) -> Vec<f64> {
        self.dense_column(i, 1.0)
    }

    /// Unit-norm anomaly direction `θᵢ = Aᵢ / ‖Aᵢ‖`: `1/√kᵢ` on each of
    /// the flow's `kᵢ` links.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn theta(&self, i: usize) -> Vec<f64> {
        self.dense_column(i, 1.0 / (self.path_len(i) as f64).sqrt())
    }

    /// Unit-sum quantification weights `Āᵢ = Aᵢ / ΣAᵢ`: `1/kᵢ` on each of
    /// the flow's `kᵢ` links.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn abar(&self, i: usize) -> Vec<f64> {
        self.dense_column(i, 1.0 / self.path_len(i) as f64)
    }

    /// Number of links on flow `i`'s path (`ΣAᵢ`, also `‖Aᵢ‖²`).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn path_len(&self, i: usize) -> usize {
        self.paths.path(i).len()
    }

    /// Map an OD pair to its flow id.
    pub fn flow_id(&self, od: OdPair) -> FlowId {
        let n = (self.flows.len() as f64).sqrt() as usize;
        FlowId(od.0 .0 * n + od.1 .0)
    }

    /// Compute link loads `y = A x` for one timestep of OD traffic `x`:
    /// each link sums the flows crossing it in ascending flow order.
    ///
    /// # Panics
    /// Panics if `x.len() != num_flows()`.
    pub fn link_loads(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.num_flows(), "x length must equal num_flows");
        let mut y = vec![0.0; self.num_links];
        for (f, &xf) in x.iter().enumerate() {
            for &l in self.paths.path(f) {
                y[l] += xf;
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Topology;
    use crate::routing::Routes;
    use netanom_linalg::vector;

    fn line3() -> (Topology, Routes, RoutingMatrix) {
        let mut b = Topology::builder("line3");
        let a = b.pop("a").unwrap();
        let bb = b.pop("b").unwrap();
        let c = b.pop("c").unwrap();
        b.edge(a, bb).unwrap();
        b.edge(bb, c).unwrap();
        let topo = b.build().unwrap();
        let routes = Routes::shortest_paths(&topo).unwrap();
        let rm = RoutingMatrix::new(&topo, &routes);
        (topo, routes, rm)
    }

    #[test]
    fn dimensions() {
        let (topo, _, rm) = line3();
        assert_eq!(rm.num_links(), topo.num_links()); // 4 directed + 3 intra = 7
        assert_eq!(rm.num_links(), 7);
        assert_eq!(rm.num_flows(), 9);
    }

    #[test]
    fn columns_are_path_indicators() {
        let (topo, routes, rm) = line3();
        for f in 0..rm.num_flows() {
            let flow = rm.flow(f);
            let col = rm.column(f);
            let expected = routes.path(flow.od);
            let ones: Vec<usize> = col
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(l, _)| l)
                .collect();
            let mut path_ids: Vec<usize> = expected.iter().map(|l| l.0).collect();
            path_ids.sort_unstable();
            assert_eq!(ones, path_ids, "column {f} mismatch");
            let _ = &topo;
        }
    }

    #[test]
    fn theta_has_unit_norm() {
        let (_, _, rm) = line3();
        for f in 0..rm.num_flows() {
            let t = rm.theta(f);
            assert!((vector::norm(&t) - 1.0).abs() < 1e-12, "theta {f} not unit");
        }
    }

    #[test]
    fn abar_has_unit_sum() {
        let (_, _, rm) = line3();
        for f in 0..rm.num_flows() {
            let t = rm.abar(f);
            assert!(
                (vector::sum(&t) - 1.0).abs() < 1e-12,
                "abar {f} not unit-sum"
            );
        }
    }

    #[test]
    fn path_len_consistency() {
        let (_, _, rm) = line3();
        for f in 0..rm.num_flows() {
            let col = rm.column(f);
            assert_eq!(vector::sum(&col) as usize, rm.path_len(f));
            // For a 0/1 column, ||A_i||^2 == sum(A_i).
            assert!((vector::norm_sq(&col) - vector::sum(&col)).abs() < 1e-12);
        }
    }

    #[test]
    fn flow_id_roundtrip() {
        let (_, _, rm) = line3();
        for f in 0..rm.num_flows() {
            let flow = rm.flow(f);
            assert_eq!(rm.flow_id(flow.od).0, f);
        }
    }

    #[test]
    fn link_loads_superpose() {
        let (_, _, rm) = line3();
        // Unit traffic on every flow: each link load equals the number of
        // flows crossing it.
        let x = vec![1.0; rm.num_flows()];
        let y = rm.link_loads(&x);
        for (l, load) in y.iter().enumerate() {
            let crossing = (0..rm.num_flows())
                .filter(|&f| rm.column(f)[l] != 0.0)
                .count();
            assert_eq!(*load as usize, crossing);
        }
    }

    #[test]
    fn from_paths_matches_topology_construction() {
        let (_, _, rm) = line3();
        let paths: Vec<Vec<usize>> = (0..rm.num_flows())
            .map(|f| rm.flow(f).path.iter().map(|l| l.0).collect())
            .collect();
        let rebuilt = RoutingMatrix::from_paths(rm.num_links(), &paths);
        for f in 0..rm.num_flows() {
            assert_eq!(rebuilt.column(f), rm.column(f), "column of flow {f}");
            assert_eq!(rebuilt.flow(f).od, rm.flow(f).od, "OD pair of flow {f}");
            assert!(vector::approx_eq(&rebuilt.theta(f), &rm.theta(f), 1e-12));
            assert!(vector::approx_eq(&rebuilt.abar(f), &rm.abar(f), 1e-12));
        }
    }

    #[test]
    fn from_paths_collapses_duplicate_links() {
        let rm = RoutingMatrix::from_paths(3, &[vec![0, 0, 2]]);
        assert_eq!(rm.path_len(0), 2);
        assert_eq!(rm.column(0), vec![1.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "empty path")]
    fn from_paths_rejects_empty_path() {
        RoutingMatrix::from_paths(3, &[vec![]]);
    }

    #[test]
    #[should_panic(expected = "references link")]
    fn from_paths_rejects_out_of_range_link() {
        RoutingMatrix::from_paths(3, &[vec![7]]);
    }

    #[test]
    fn try_from_paths_types_an_empty_path() {
        let err = RoutingMatrix::try_from_paths(3, &[vec![1], vec![]]).unwrap_err();
        assert_eq!(err, TopologyError::EmptyPath { flow: 1 });
        assert!(err.to_string().contains("empty path"), "{err}");
    }

    #[test]
    fn try_from_paths_types_an_out_of_range_link() {
        let err = RoutingMatrix::try_from_paths(3, &[vec![0, 2], vec![1, 7]]).unwrap_err();
        assert_eq!(
            err,
            TopologyError::LinkOutOfRange {
                flow: 1,
                link: 7,
                num_links: 3
            }
        );
        assert!(err.to_string().contains("references link"), "{err}");
    }

    #[test]
    fn paths_are_sorted_distinct_columns() {
        let rm = RoutingMatrix::from_paths(5, &[vec![4, 1, 4, 0], vec![3]]);
        assert_eq!(rm.paths().path(0), &[0, 1, 4]);
        assert_eq!(rm.paths().path(1), &[3]);
        // Flow metadata keeps the traversal order.
        let path: Vec<usize> = rm.flow(0).path.iter().map(|l| l.0).collect();
        assert_eq!(path, vec![4, 1, 0]);
    }

    #[test]
    fn identity_is_one_flow_per_link() {
        let rm = RoutingMatrix::identity(9);
        assert_eq!((rm.num_links(), rm.num_flows()), (9, 9));
        for l in 0..9 {
            assert_eq!(rm.paths().path(l), &[l]);
        }
    }

    #[test]
    fn self_flows_touch_only_intra_links() {
        let (topo, _, rm) = line3();
        for p in 0..3 {
            let f = rm.flow_id((PopId(p), PopId(p)));
            let flow = rm.flow(f.0);
            assert_eq!(flow.path.len(), 1);
            assert!(topo.link(flow.path[0]).is_intra_pop());
        }
    }
}
