//! Link partitioning for sharded, network-wide diagnosis.
//!
//! A PoP-level measurement infrastructure rarely delivers every link's
//! byte counts to one process: each PoP's collector reports its own
//! links. [`LinkPartition`] captures that deployment shape — a split of
//! the link index set `0..m` into disjoint shards — in a validated form
//! the sharded diagnosis engine (`netanom-core`'s `shard` module) can
//! consume. Three constructions cover the practical cases:
//!
//! * [`LinkPartition::per_pop`] — one shard per PoP, owning the PoP's
//!   outgoing inter-PoP links plus its intra-PoP link: the
//!   collector-per-PoP deployment.
//! * [`LinkPartition::round_robin`] — link `l` goes to shard
//!   `l mod K`. Because the sharded sufficient-statistic upkeep for
//!   link `l` costs `O(m − l)` (its row of the upper-triangle
//!   cross-product), interleaving balances the per-shard work almost
//!   perfectly; this is the default when no topology is at hand.
//! * [`LinkPartition::explicit`] — bring your own assignment (e.g. one
//!   shard per collection site), validated to be a true partition.
//!
//! Within each shard the link list is kept strictly ascending so column
//! slices, statistics rows and model slices all index consistently.
//!
//! # Example
//!
//! ```
//! use netanom_topology::{builtin, LinkPartition};
//!
//! let net = builtin::abilene();
//! let per_pop = LinkPartition::per_pop(&net.topology);
//! assert_eq!(per_pop.num_shards(), 11);             // one per PoP
//! assert_eq!(per_pop.num_links(), 41);              // Table 1
//!
//! let rr = LinkPartition::round_robin(41, 4).unwrap();
//! assert_eq!(rr.num_shards(), 4);
//! assert_eq!(rr.group(1)[0], 1);                    // link 1 → shard 1
//! ```

use crate::graph::Topology;
use crate::{Result, TopologyError};

/// A validated split of the link index set `0..num_links` into disjoint,
/// jointly exhaustive shards, each listed in strictly ascending order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkPartition {
    num_links: usize,
    groups: Vec<Vec<usize>>,
}

impl LinkPartition {
    /// Build a partition from an explicit per-shard assignment.
    ///
    /// Every link in `0..num_links` must appear in exactly one group,
    /// every group must be non-empty, and each group must list its links
    /// in strictly ascending order.
    pub fn explicit(num_links: usize, groups: Vec<Vec<usize>>) -> Result<Self> {
        if groups.is_empty() {
            return Err(TopologyError::InvalidPartition {
                reason: "a partition needs at least one shard".to_string(),
            });
        }
        let mut seen = vec![false; num_links];
        for (s, group) in groups.iter().enumerate() {
            if group.is_empty() {
                return Err(TopologyError::InvalidPartition {
                    reason: format!("shard {s} owns no links"),
                });
            }
            let mut prev: Option<usize> = None;
            for &l in group {
                if l >= num_links {
                    return Err(TopologyError::InvalidPartition {
                        reason: format!("shard {s} references link {l} >= {num_links}"),
                    });
                }
                if prev.is_some_and(|p| p >= l) {
                    return Err(TopologyError::InvalidPartition {
                        reason: format!("shard {s} is not strictly ascending at link {l}"),
                    });
                }
                if seen[l] {
                    return Err(TopologyError::InvalidPartition {
                        reason: format!("link {l} assigned to more than one shard"),
                    });
                }
                seen[l] = true;
                prev = Some(l);
            }
        }
        if let Some(l) = seen.iter().position(|covered| !covered) {
            return Err(TopologyError::InvalidPartition {
                reason: format!("link {l} is assigned to no shard"),
            });
        }
        Ok(LinkPartition { num_links, groups })
    }

    /// Interleaved assignment: link `l` belongs to shard `l mod shards`.
    ///
    /// Requires `1 <= shards <= num_links` so every shard owns at least
    /// one link. This layout balances the triangular
    /// sufficient-statistic workload across shards (see the module
    /// docs).
    pub fn round_robin(num_links: usize, shards: usize) -> Result<Self> {
        if shards == 0 || shards > num_links {
            return Err(TopologyError::InvalidPartition {
                reason: format!("{shards} shards cannot partition {num_links} links"),
            });
        }
        let groups = (0..shards)
            .map(|s| (s..num_links).step_by(shards).collect())
            .collect();
        Ok(LinkPartition { num_links, groups })
    }

    /// One shard per PoP: each PoP owns its outgoing inter-PoP links and
    /// its intra-PoP link — the measurement-collector-per-PoP deployment
    /// the paper's SNMP framing implies.
    ///
    /// Every PoP owns at least its intra-PoP link, so the result is
    /// always a valid partition.
    pub fn per_pop(topo: &Topology) -> Self {
        let groups = (0..topo.num_pops())
            .map(|p| {
                let pop = crate::graph::PopId(p);
                let mut links: Vec<usize> = topo.out_links(pop).iter().map(|l| l.0).collect();
                links.push(topo.intra_link(pop).0);
                links.sort_unstable();
                links
            })
            .collect();
        LinkPartition {
            num_links: topo.num_links(),
            groups,
        }
    }

    /// Total number of links being partitioned (`m`).
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Number of shards `K`.
    pub fn num_shards(&self) -> usize {
        self.groups.len()
    }

    /// The ascending link indices owned by shard `s`.
    ///
    /// # Panics
    /// Panics if `s >= num_shards()`.
    pub fn group(&self, s: usize) -> &[usize] {
        &self.groups[s]
    }

    /// All shards' link lists, in shard order.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;

    fn is_partition(p: &LinkPartition) {
        let mut seen = vec![false; p.num_links()];
        for s in 0..p.num_shards() {
            let g = p.group(s);
            assert!(!g.is_empty());
            assert!(g.windows(2).all(|w| w[0] < w[1]), "shard {s} not ascending");
            for &l in g {
                assert!(!seen[l], "link {l} duplicated");
                seen[l] = true;
            }
        }
        assert!(seen.iter().all(|&c| c), "some link unassigned");
    }

    #[test]
    fn round_robin_partitions_and_balances() {
        for (m, k) in [(7usize, 1usize), (7, 3), (41, 4), (41, 8), (5, 5)] {
            let p = LinkPartition::round_robin(m, k).unwrap();
            assert_eq!(p.num_shards(), k);
            assert_eq!(p.num_links(), m);
            is_partition(&p);
            // Sizes differ by at most one.
            let sizes: Vec<usize> = p.groups().iter().map(Vec::len).collect();
            let (lo, hi) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "{sizes:?}");
        }
    }

    #[test]
    fn round_robin_rejects_degenerate_shard_counts() {
        assert!(LinkPartition::round_robin(5, 0).is_err());
        assert!(LinkPartition::round_robin(5, 6).is_err());
    }

    #[test]
    fn per_pop_covers_every_link_once() {
        for net in [builtin::abilene(), builtin::sprint_europe()] {
            let p = LinkPartition::per_pop(&net.topology);
            assert_eq!(p.num_shards(), net.topology.num_pops());
            assert_eq!(p.num_links(), net.topology.num_links());
            is_partition(&p);
            // Each shard owns its PoP's intra link.
            for s in 0..p.num_shards() {
                let intra = net.topology.intra_link(crate::graph::PopId(s)).0;
                assert!(p.group(s).contains(&intra), "shard {s} missing intra link");
            }
        }
    }

    #[test]
    fn explicit_validates_partitions() {
        assert!(LinkPartition::explicit(3, vec![vec![0, 2], vec![1]]).is_ok());
        // Non-partition inputs are rejected with a reason.
        for (m, groups) in [
            (3usize, vec![]),
            (3, vec![vec![0, 1, 2], vec![]]),
            (3, vec![vec![0, 1], vec![1, 2]]),
            (3, vec![vec![0], vec![1]]),
            (3, vec![vec![0, 3], vec![1, 2]]),
            (3, vec![vec![1, 0], vec![2]]),
            (3, vec![vec![0, 0], vec![1, 2]]),
        ] {
            let err = LinkPartition::explicit(m, groups).unwrap_err();
            assert!(
                matches!(err, TopologyError::InvalidPartition { .. }),
                "{err}"
            );
        }
    }
}
