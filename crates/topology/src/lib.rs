//! PoP-level network topologies, routing, and routing matrices.
//!
//! A backbone network in Lakhina et al.'s model is a set of PoPs (points of
//! presence) connected by directed links, where the traffic on each link is
//! the superposition of origin-destination (OD) flows routed over it:
//! `y = A x`, with `A` the 0/1 *routing matrix* (`#links × #OD-flows`).
//!
//! This crate supplies everything on the right-hand side of that equation:
//!
//! * [`Topology`] — a builder-style graph of named PoPs, bidirectional
//!   inter-PoP edges (stored as directed link pairs) and one intra-PoP link
//!   per PoP (used by OD flows that enter and exit at the same PoP — the
//!   paper counts these: Abilene has 30 + 11 = 41 links, Sprint-Europe
//!   36 + 13 = 49).
//! * [`routing::Routes`] — shortest-path routes for every ordered PoP pair,
//!   computed by Dijkstra with deterministic tie-breaking.
//! * [`RoutingMatrix`] — the matrix `A`, stored as its flows' paths
//!   ([`FlowPaths`]), plus the derived per-flow vectors the subspace
//!   method consumes: `θᵢ = Aᵢ/‖Aᵢ‖` (unit-norm anomaly direction) and
//!   `Āᵢ = Aᵢ/ΣAᵢ` (quantification weights).
//! * [`builtin`] — the two topologies studied in the paper plus small
//!   fixtures and a seeded random generator.
//! * [`synth`] — parameterized synthetic backbones (PoP count, degree
//!   distribution, jittered IGP weights, exact link-count targeting) for
//!   thousand-link scale workloads.
//! * [`partition`] — [`LinkPartition`]: validated splits of the link set
//!   (per-PoP, round-robin, explicit) for the sharded diagnosis layer.
//!
//! # Example
//!
//! ```
//! use netanom_topology::builtin;
//!
//! let net = builtin::abilene();
//! assert_eq!(net.topology.num_pops(), 11);
//! assert_eq!(net.topology.num_links(), 41);            // Table 1
//! assert_eq!(net.routing_matrix.num_flows(), 11 * 11); // all OD pairs
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod builtin;
mod error;
mod graph;
mod matrix;
pub mod partition;
pub mod routing;
pub mod synth;

pub use builtin::Network;
pub use error::TopologyError;
pub use graph::{Link, LinkId, Pop, PopId, Topology};
pub use matrix::{Flow, FlowId, FlowPaths, OdPair, RoutingMatrix};
pub use partition::LinkPartition;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TopologyError>;
