use std::fmt;

/// Errors produced when building or querying topologies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A PoP name was registered twice.
    DuplicatePop {
        /// The offending name.
        name: String,
    },
    /// An edge referenced a PoP index that does not exist.
    UnknownPop {
        /// The offending index.
        index: usize,
        /// Number of PoPs in the topology.
        num_pops: usize,
    },
    /// An edge connected a PoP to itself (intra-PoP links are created
    /// automatically and must not be added as edges).
    SelfEdge {
        /// The PoP index in question.
        pop: usize,
    },
    /// The same inter-PoP edge was added twice.
    DuplicateEdge {
        /// Endpoints of the duplicated edge.
        endpoints: (usize, usize),
    },
    /// An edge weight was non-positive or non-finite.
    InvalidWeight {
        /// The offending weight.
        weight_milli: i64,
    },
    /// The topology is not strongly connected, so some OD pair has no
    /// route. Contains one unreachable pair as a witness.
    Disconnected {
        /// An OD pair with no path between its endpoints.
        witness: (usize, usize),
    },
    /// The topology has no PoPs.
    EmptyTopology,
    /// A proposed link partition did not split the link set into
    /// disjoint, exhaustive, ascending shards.
    InvalidPartition {
        /// Which partition invariant was violated.
        reason: String,
    },
    /// A supplied flow path lists no links.
    EmptyPath {
        /// The flow with the empty path.
        flow: usize,
    },
    /// A supplied flow path names a link the network does not have.
    LinkOutOfRange {
        /// The flow whose path names it.
        flow: usize,
        /// The offending link index.
        link: usize,
        /// Number of links in the network.
        num_links: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicatePop { name } => write!(f, "duplicate PoP name {name:?}"),
            TopologyError::UnknownPop { index, num_pops } => {
                write!(
                    f,
                    "PoP index {index} out of range (topology has {num_pops})"
                )
            }
            TopologyError::SelfEdge { pop } => write!(
                f,
                "self edge at PoP {pop}: intra-PoP links are implicit, do not add them as edges"
            ),
            TopologyError::DuplicateEdge { endpoints } => {
                write!(f, "edge {}-{} added twice", endpoints.0, endpoints.1)
            }
            TopologyError::InvalidWeight { weight_milli } => write!(
                f,
                "edge weight {} must be positive and finite",
                *weight_milli as f64 / 1000.0
            ),
            TopologyError::Disconnected { witness } => write!(
                f,
                "topology is not strongly connected: no path from PoP {} to PoP {}",
                witness.0, witness.1
            ),
            TopologyError::EmptyTopology => write!(f, "topology has no PoPs"),
            TopologyError::InvalidPartition { reason } => {
                write!(f, "invalid link partition: {reason}")
            }
            TopologyError::EmptyPath { flow } => write!(f, "flow {flow} has an empty path"),
            TopologyError::LinkOutOfRange {
                flow,
                link,
                num_links,
            } => write!(
                f,
                "flow {flow} references link {link}, but there are only {num_links} links"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(TopologyError::DuplicatePop {
            name: "nycm".into()
        }
        .to_string()
        .contains("nycm"));
        assert!(TopologyError::UnknownPop {
            index: 7,
            num_pops: 3
        }
        .to_string()
        .contains('7'));
        assert!(TopologyError::SelfEdge { pop: 2 }
            .to_string()
            .contains("intra-PoP"));
        assert!(TopologyError::Disconnected { witness: (0, 5) }
            .to_string()
            .contains("no path"));
        assert!(TopologyError::InvalidWeight {
            weight_milli: -1000
        }
        .to_string()
        .contains("-1"));
    }
}
