#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # apsp-minplus
//!
//! Dense kernels over the tropical `(min, +)` semiring: the matrix type,
//! the classical Floyd–Warshall block closure and the min-plus matrix
//! product ("semiring GEMM"). The blocked Floyd–Warshall of §3.3 with
//! structural-empty skipping (§4.1) is built from these in
//! `apsp_core::superfw`.
//!
//! All kernels return exact scalar-operation counts (one `min(x, a + b)`
//! relaxation = one op), which the workspace uses to reproduce the paper's
//! computation-reduction claims (SuperFW vs classical FW).

pub mod algebra;
pub mod kernels;
pub mod matrix;
pub mod perf;

pub use algebra::{closure_in, AlgebraMatrix, MaxMin, MinPlus, MostReliable, PathAlgebra};
pub use kernels::{fw_in_place, gemm, relax_row};
pub use matrix::MinPlusMatrix;

/// Scalar weight re-exported from the semiring's point of view.
pub type Weight = f64;

/// The additive identity (`⊕` identity): no path.
pub const INF: Weight = f64::INFINITY;
