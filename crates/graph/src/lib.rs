#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::print_stdout, unsafe_op_in_unsafe_fn))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc))]

//! # apsp-graph
//!
//! Graph substrate for the `sparse-apsp` workspace: compressed sparse row
//! (CSR) weighted undirected graphs, deterministic workload generators,
//! vertex permutations, text I/O, and the sequential shortest-path oracles
//! (Dijkstra, Bellman–Ford, Johnson, Floyd–Warshall) used as ground truth
//! by every distributed experiment in the workspace.
//!
//! The graph model follows §3.2 of the paper: an undirected weighted graph
//! `G = (V, E)` with `|V| = n`, represented by a symmetric `n × n` adjacency
//! matrix over the `(min, +)` semiring where missing edges have weight `∞`
//! and the diagonal is `0`.
//!
//! Weights are `f64`. For *undirected* graphs a negative edge always closes
//! a negative cycle (`u → v → u`), so the undirected pipeline requires
//! non-negative weights; [`oracle::bellman_ford`] and [`oracle::johnson`]
//! still handle negative weights for directed interpretations and for use
//! as independent oracles.

pub mod builder;
pub mod csr;
pub mod dense;
pub mod digraph;
pub mod generators;
pub mod io;
pub mod oracle;
pub mod paths;
pub mod perm;
pub mod stats;
pub mod weight;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use dense::DenseDist;
pub use digraph::{DiCsr, DiGraphBuilder};
pub use perm::Permutation;
pub use weight::{is_inf, w_eq, Weight, INF};
