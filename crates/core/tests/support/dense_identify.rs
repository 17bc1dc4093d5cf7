//! The dense identification route: every `θ̃ᵢ = C̃θᵢ` materialised as the
//! columns of an `m × n` matrix by two GEMMs, `θ̃ᵢᵀỹ` as one transposed
//! matvec, and the literal Equation-1 evaluation beside it. The library's
//! [`Identifier`](netanom_core::Identifier) did this until it moved to
//! the routing matrix's paths; kept as the oracle that path arithmetic
//! is held to.
//!
//! Test-only by construction: `netanom-core`'s unit tests compile it as
//! `identify::dense_identify` and the integration suites (`proptests`,
//! `identify_oracle`) by `#[path]`; no library build contains it.

// Each including suite uses only part of it; the indexed loops are the
// library's as they were, under its crate-wide lint allowance.
#![allow(dead_code, clippy::needless_range_loop)]

use netanom_core::{CoreError, Identification, SubspaceModel};
use netanom_linalg::{vector, Matrix};
use netanom_topology::RoutingMatrix;

type Result<T> = std::result::Result<T, CoreError>;

/// The library's `identify::VISIBILITY_FLOOR` (a unit test pins the two
/// equal).
pub const VISIBILITY_FLOOR: f64 = 1e-12;

/// The library's `identify::COLUMN_NORM_CUTOFF`: below it a flow's
/// `‖θ̃ᵢ‖²` is bitwise this oracle's (a unit test pins the two equal).
pub const COLUMN_NORM_CUTOFF: f64 = 1e-2;

/// Dense single-flow identification over all flows of a routing matrix.
#[derive(Debug, Clone)]
pub struct DenseIdentifier {
    /// `θ̃ᵢ` as columns (`m × n`).
    theta_tilde: Matrix,
    /// `‖θ̃ᵢ‖²` per flow.
    theta_tilde_norm_sq: Vec<f64>,
}

/// All `θᵢ` as the columns of an `m × n` matrix.
fn theta_matrix(rm: &RoutingMatrix) -> Matrix {
    let cols: Vec<Vec<f64>> = (0..rm.num_flows()).map(|i| rm.theta(i)).collect();
    Matrix::from_columns(&cols)
}

impl DenseIdentifier {
    /// Build the identifier for all OD flows of a routing matrix under a
    /// fitted model.
    pub fn new(model: &SubspaceModel, rm: &RoutingMatrix) -> Result<Self> {
        if rm.num_links() != model.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: model.dim(),
                got: rm.num_links(),
            });
        }
        let n = rm.num_flows();
        if n == 0 {
            return Err(CoreError::NoCandidates);
        }
        // All θ̃ᵢ = C̃θᵢ in one batched projection instead of n matvec
        // pairs (identical columns; see SubspaceModel::residual_directions).
        let theta_tilde = model.residual_directions(&theta_matrix(rm))?;
        let norms: Vec<f64> = (0..n)
            .map(|i| vector::norm_sq(&theta_tilde.col(i)))
            .collect();
        Ok(DenseIdentifier {
            theta_tilde,
            theta_tilde_norm_sq: norms,
        })
    }

    /// Number of candidate flows.
    pub fn num_candidates(&self) -> usize {
        self.theta_tilde_norm_sq.len()
    }

    /// `‖θ̃ᵢ‖²` for flow `i`.
    pub fn residual_visibility(&self, i: usize) -> f64 {
        self.theta_tilde_norm_sq[i]
    }

    /// Identify the best single-flow hypothesis for a residual vector
    /// `ỹ` with the dense `θ̃ᵢᵀỹ`.
    pub fn identify(&self, residual: &[f64]) -> Result<Identification> {
        if residual.len() != self.theta_tilde.rows() {
            return Err(CoreError::DimensionMismatch {
                expected: self.theta_tilde.rows(),
                got: residual.len(),
            });
        }
        let energy = vector::norm_sq(residual);
        // inner[i] = θ̃ᵢᵀ ỹ for all flows at once.
        let inner = self
            .theta_tilde
            .matvec_t(residual)
            .expect("dim checked above");
        let mut best: Option<(usize, f64)> = None;
        for i in 0..inner.len() {
            let nsq = self.theta_tilde_norm_sq[i];
            if nsq <= VISIBILITY_FLOOR {
                continue;
            }
            let explained = inner[i] * inner[i] / nsq;
            match best {
                Some((_, b)) if b >= explained => {}
                _ => best = Some((i, explained)),
            }
        }
        let (flow, explained) = best.ok_or(CoreError::NoCandidates)?;
        let f_hat = inner[flow] / self.theta_tilde_norm_sq[flow];
        Ok(Identification {
            flow,
            f_hat,
            residual_energy: energy,
            remaining_energy: (energy - explained).max(0.0),
        })
    }

    /// Literal evaluation of paper Equation (1): for every flow, form
    /// `yᵢ* = y − θᵢ f̂ᵢ` and measure `‖C̃ yᵢ*‖`, choosing the minimum.
    ///
    /// Quadratically slower than the identifier; exists to pin the
    /// algebraic reduction in tests and for didactic value.
    pub fn identify_naive(&self, model: &SubspaceModel, y: &[f64]) -> Result<Identification> {
        let residual = model.residual(y)?;
        let energy = vector::norm_sq(&residual);
        let mut best: Option<(usize, f64, f64)> = None; // (flow, remaining, f_hat)
        for i in 0..self.num_candidates() {
            let nsq = self.theta_tilde_norm_sq[i];
            if nsq <= VISIBILITY_FLOOR {
                continue;
            }
            let tt = self.theta_tilde.col(i);
            let f_hat = vector::dot(&tt, &residual) / nsq;
            // y* = y − θᵢ f̂ᵢ ; C̃y* = ỹ − θ̃ᵢ f̂ᵢ (mean cancels in C̃).
            let removed = vector::sub(&residual, &vector::scaled(&tt, f_hat));
            let remaining = vector::norm_sq(&removed);
            match best {
                Some((_, b, _)) if b <= remaining => {}
                _ => best = Some((i, remaining, f_hat)),
            }
        }
        let (flow, remaining, f_hat) = best.ok_or(CoreError::NoCandidates)?;
        Ok(Identification {
            flow,
            f_hat,
            residual_energy: energy,
            remaining_energy: remaining,
        })
    }
}
