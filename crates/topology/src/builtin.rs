//! Built-in topologies: the two networks studied in the paper, small test
//! fixtures, and a seeded random generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::{PopId, Topology};
use crate::matrix::RoutingMatrix;
use crate::routing::Routes;

/// A topology bundled with its routes and routing matrix — everything a
/// traffic generator or diagnoser needs about the network.
#[derive(Debug, Clone)]
pub struct Network {
    /// The PoP/link graph.
    pub topology: Topology,
    /// Shortest-path routes for all OD pairs.
    pub routes: Routes,
    /// The routing matrix `A` and derived per-flow vectors.
    pub routing_matrix: RoutingMatrix,
}

impl Network {
    /// Assemble a network from a topology (computes routes and `A`).
    ///
    /// # Panics
    /// Panics if the topology is not strongly connected; the built-in
    /// topologies all are, and generated ones are made so by construction.
    pub fn from_topology(topology: Topology) -> Self {
        let routes =
            Routes::shortest_paths(&topology).expect("built-in/generated topologies are connected");
        let routing_matrix = RoutingMatrix::new(&topology, &routes);
        Network {
            topology,
            routes,
            routing_matrix,
        }
    }
}

/// The Abilene (Internet2) backbone: 11 PoPs spanning the continental USA.
///
/// The link set follows the published map closely and is chosen to match
/// the paper's accounting exactly (Table 1): 15 bidirectional inter-PoP
/// edges → 30 directed links, plus 11 intra-PoP links = **41 links**, and
/// 11 × 11 = 121 OD flows.
pub fn abilene() -> Network {
    let mut b = Topology::builder("abilene");
    let names = [
        "nycm", "chin", "ipls", "atla", "wash", "hstn", "kscy", "dnvr", "losa", "snva", "sttl",
    ];
    let ids: Vec<PopId> = names.iter().map(|n| b.pop(*n).expect("unique")).collect();
    let by = |n: &str| ids[names.iter().position(|x| *x == n).unwrap()];

    let edges = [
        ("sttl", "snva"),
        ("sttl", "dnvr"),
        ("snva", "dnvr"),
        ("snva", "losa"),
        ("losa", "hstn"),
        ("dnvr", "kscy"),
        ("kscy", "hstn"),
        ("kscy", "ipls"),
        ("hstn", "atla"),
        ("ipls", "chin"),
        ("ipls", "atla"),
        ("chin", "nycm"),
        ("atla", "wash"),
        ("wash", "nycm"),
        ("nycm", "ipls"),
    ];
    for (x, y) in edges {
        b.edge(by(x), by(y)).expect("valid edge");
    }
    Network::from_topology(b.build().expect("non-empty"))
}

/// A Sprint-Europe-like backbone: 13 PoPs named `a`–`m` as in the paper's
/// Figure 2(b).
///
/// The exact Sprint-Europe link set is proprietary; this graph reproduces
/// the published structural facts: 13 PoPs, 18 bidirectional edges →
/// 36 directed links + 13 intra-PoP = **49 links** (Table 1), and the two
/// illustration paths of Figure 1 (`b-c-d-f-i` for OD flow `b→i` and its
/// reverse for `i→b`) are shortest paths of the graph.
pub fn sprint_europe() -> Network {
    let mut b = Topology::builder("sprint-europe");
    let names = [
        "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m",
    ];
    let ids: Vec<PopId> = names.iter().map(|n| b.pop(*n).expect("unique")).collect();
    let by = |n: &str| ids[names.iter().position(|x| *x == n).unwrap()];

    let edges = [
        ("a", "b"),
        ("a", "c"),
        ("b", "c"),
        ("c", "d"),
        ("c", "e"),
        ("d", "e"),
        ("d", "f"),
        ("e", "g"),
        ("f", "g"),
        ("f", "i"),
        ("g", "h"),
        ("h", "m"),
        ("i", "j"),
        ("j", "k"),
        ("k", "l"),
        ("l", "m"),
        ("i", "k"),
        ("m", "e"),
    ];
    for (x, y) in edges {
        b.edge(by(x), by(y)).expect("valid edge");
    }
    Network::from_topology(b.build().expect("non-empty"))
}

/// A line of `n ≥ 1` PoPs (`p0 - p1 - … - p(n-1)`); the smallest topology
/// with multi-hop paths. Useful in tests and examples.
pub fn line(n: usize) -> Network {
    let mut b = Topology::builder(format!("line{n}"));
    let ids: Vec<PopId> = (0..n)
        .map(|i| b.pop(format!("p{i}")).expect("unique"))
        .collect();
    for w in ids.windows(2) {
        b.edge(w[0], w[1]).expect("valid edge");
    }
    Network::from_topology(b.build().expect("n >= 1"))
}

/// A star: one hub PoP connected to `n − 1` leaves. Every leaf-to-leaf
/// flow crosses the hub, concentrating anomalies on few links.
pub fn star(n: usize) -> Network {
    assert!(n >= 2, "star needs at least a hub and one leaf");
    let mut b = Topology::builder(format!("star{n}"));
    let hub = b.pop("hub").expect("unique");
    for i in 1..n {
        let leaf = b.pop(format!("leaf{i}")).expect("unique");
        b.edge(hub, leaf).expect("valid edge");
    }
    Network::from_topology(b.build().expect("non-empty"))
}

/// A ring of `n ≥ 3` PoPs; every PoP has degree 2 and equal-cost path ties
/// exist for antipodal pairs on even `n`, exercising deterministic
/// tie-breaking.
pub fn ring(n: usize) -> Network {
    assert!(n >= 3, "ring needs at least 3 PoPs");
    let mut b = Topology::builder(format!("ring{n}"));
    let ids: Vec<PopId> = (0..n)
        .map(|i| b.pop(format!("r{i}")).expect("unique"))
        .collect();
    for i in 0..n {
        b.edge(ids[i], ids[(i + 1) % n]).expect("valid edge");
    }
    Network::from_topology(b.build().expect("non-empty"))
}

/// A seeded random connected topology with `n ≥ 2` PoPs.
///
/// Construction: a random spanning tree (guaranteeing connectivity)
/// followed by extra random edges until the requested edge count is
/// reached. `extra_edges` is clamped to the number of available PoP pairs.
/// The same seed always yields the same topology.
pub fn random(n: usize, extra_edges: usize, seed: u64) -> Network {
    assert!(n >= 2, "random topology needs at least 2 PoPs");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Topology::builder(format!("random{n}-{seed}"));
    let ids: Vec<PopId> = (0..n)
        .map(|i| b.pop(format!("n{i}")).expect("unique"))
        .collect();

    // Random spanning tree: attach each new node to a uniformly random
    // existing node.
    let mut present: Vec<(usize, usize)> = Vec::new();
    for i in 1..n {
        let j = rng.random_range(0..i);
        b.edge(ids[i], ids[j]).expect("tree edge");
        present.push((j.min(i), j.max(i)));
    }

    // Candidate extra edges.
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if !present.contains(&(i, j)) {
                candidates.push((i, j));
            }
        }
    }
    // Fisher–Yates shuffle, take the first `extra_edges`.
    for i in (1..candidates.len()).rev() {
        let j = rng.random_range(0..=i);
        candidates.swap(i, j);
    }
    for &(i, j) in candidates.iter().take(extra_edges) {
        b.edge(ids[i], ids[j]).expect("extra edge");
    }
    Network::from_topology(b.build().expect("non-empty"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netanom_linalg::stats;

    #[test]
    fn abilene_matches_table_1() {
        let net = abilene();
        assert_eq!(net.topology.num_pops(), 11);
        assert_eq!(net.topology.num_links(), 41);
        assert_eq!(net.routing_matrix.num_flows(), 121);
    }

    #[test]
    fn sprint_matches_table_1() {
        let net = sprint_europe();
        assert_eq!(net.topology.num_pops(), 13);
        assert_eq!(net.topology.num_links(), 49);
        assert_eq!(net.routing_matrix.num_flows(), 169);
    }

    #[test]
    fn sprint_reproduces_figure_1_paths() {
        // Figure 1 example 1: OD flow b->i traverses links b-c, c-d, d-f, f-i.
        let net = sprint_europe();
        let t = &net.topology;
        let bid = t.pop_by_name("b").unwrap();
        let iid = t.pop_by_name("i").unwrap();
        let path = net.routes.path((bid, iid));
        let labels: Vec<String> = path.iter().map(|&l| t.link_label(l)).collect();
        assert_eq!(labels, vec!["b-c", "c-d", "d-f", "f-i"]);

        // Example 2: the reverse flow i->b uses the mirror links.
        let rev = net.routes.path((iid, bid));
        let rev_labels: Vec<String> = rev.iter().map(|&l| t.link_label(l)).collect();
        assert_eq!(rev_labels, vec!["i-f", "f-d", "d-c", "c-b"]);
    }

    #[test]
    fn abilene_path_sanity() {
        // Coast-to-coast paths exist and are multi-hop.
        let net = abilene();
        let t = &net.topology;
        let sttl = t.pop_by_name("sttl").unwrap();
        let nycm = t.pop_by_name("nycm").unwrap();
        let p = net.routes.path((sttl, nycm));
        assert!(p.len() >= 3, "sttl->nycm should be several hops");
    }

    #[test]
    fn all_flows_have_nonempty_paths() {
        for net in [abilene(), sprint_europe()] {
            for f in 0..net.routing_matrix.num_flows() {
                assert!(!net.routing_matrix.flow(f).path.is_empty());
            }
        }
    }

    #[test]
    fn every_link_carries_some_flow() {
        // If a link carried no flow, its measurement column would be
        // identically zero and tell the method nothing.
        for net in [abilene(), sprint_europe()] {
            let rm = &net.routing_matrix;
            for l in 0..rm.num_links() {
                let carried = (0..rm.num_flows()).any(|f| rm.column(f)[l] != 0.0);
                assert!(
                    carried,
                    "link {l} of {} carries nothing",
                    net.topology.name()
                );
            }
        }
    }

    #[test]
    fn line_star_ring_shapes() {
        assert_eq!(line(4).topology.num_links(), 3 * 2 + 4);
        assert_eq!(star(5).topology.num_links(), 4 * 2 + 5);
        assert_eq!(ring(6).topology.num_links(), 6 * 2 + 6);
    }

    #[test]
    fn star_routes_leaf_to_leaf_via_hub() {
        let net = star(4);
        let t = &net.topology;
        let l1 = t.pop_by_name("leaf1").unwrap();
        let l2 = t.pop_by_name("leaf2").unwrap();
        let p = net.routes.path((l1, l2));
        assert_eq!(p.len(), 2);
        assert_eq!(t.link(p[0]).dst, t.pop_by_name("hub").unwrap());
    }

    #[test]
    fn random_topology_is_deterministic_and_connected() {
        let a = random(10, 5, 42);
        let b = random(10, 5, 42);
        assert_eq!(a.topology.num_links(), b.topology.num_links());
        for f in 0..a.routing_matrix.num_flows() {
            assert_eq!(a.routing_matrix.flow(f).path, b.routing_matrix.flow(f).path);
        }
        // A different seed gives a different graph (overwhelmingly likely).
        let c = random(10, 5, 43);
        let same_paths = (0..a.routing_matrix.num_flows())
            .all(|f| a.routing_matrix.flow(f).path == c.routing_matrix.flow(f).path);
        assert!(!same_paths, "different seeds should differ");
    }

    #[test]
    fn random_extra_edges_clamped() {
        // Asking for far more edges than pairs exist must not panic.
        let net = random(4, 100, 7);
        // Complete graph on 4 nodes: 6 edges -> 12 directed + 4 intra.
        assert_eq!(net.topology.num_links(), 16);
    }

    #[test]
    fn mean_path_length_is_reasonable() {
        // Backbone sanity: average OD path a few hops long.
        for net in [abilene(), sprint_europe()] {
            let rm = &net.routing_matrix;
            let lens: Vec<f64> = (0..rm.num_flows()).map(|f| rm.path_len(f) as f64).collect();
            let mean = stats::mean(&lens);
            assert!(
                (1.0..=5.0).contains(&mean),
                "{}: mean path length {mean}",
                net.topology.name()
            );
        }
    }
}
