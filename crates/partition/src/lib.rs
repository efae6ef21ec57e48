#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::print_stdout, unsafe_op_in_unsafe_fn))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc))]

//! # apsp-partition
//!
//! Nested-dissection ordering (§4.1) built from scratch — the workspace's
//! METIS substitute. The pipeline is the classic multilevel scheme:
//!
//! 1. **coarsen** — heavy-edge matching until the graph is small
//!    ([`coarsen`]);
//! 2. **initial bisection** — BFS region growing from a pseudo-peripheral
//!    vertex on the coarsest graph ([`mod@bisect`]);
//! 3. **uncoarsen + refine** — project the sides back up, improving the
//!    edge cut with Fiduccia–Mattheyses passes that queue every vertex
//!    ([`mod@bisect`]). Gains sit in an array and change by `±2w` when a
//!    neighbour moves; the queue is Fiduccia and Mattheyses' gain buckets,
//!    one bitset per gain in `[−D, D]` (`D` the pass graph's largest
//!    weighted degree), popped highest gain first, then highest vertex id.
//!    A pass holds `(2D + 1) · (⌈n/64⌉ + ⌈n/4096⌉)` words: at most 546 on
//!    the benchmark's four graphs, 287 952 on a 3 000-vertex star, and on a
//!    unit-weight graph under about `n²/32`, a 32nd of the distance matrix
//!    the solve builds;
//! 4. **vertex separator** — minimum vertex cover of the cut edges via
//!    Kőnig's theorem on a maximum bipartite matching found with Kuhn's
//!    augmenting paths ([`separator`]);
//! 5. **recurse** — [`nested_dissection`] applies 1–4 recursively to
//!    exactly `h` levels, producing the supernodal elimination order whose
//!    shape the scheduling tree ([`apsp_etree::SchedTree`]) expects.
//!
//! [`grid_nd`] provides an *exact* geometric dissection for 2-D meshes,
//! used for validation and for experiments that want clean `|S| = Θ(√n)`
//! scaling. [`NdOrdering::validate`] checks the structural guarantee the
//! paper relies on: cousin supernodes share no edges.
//!
//! The partitioner reads only the graph *structure* (edge weights model
//! distances, not affinities, so they are deliberately ignored when
//! minimizing cut sizes).

pub mod bisect;
pub mod coarsen;
pub mod grid;
pub mod nd;
pub mod separator;
pub mod work;

pub use bisect::{bisect, BisectOptions, Bisection};
pub use grid::grid_nd;
pub use nd::{nested_dissection, NdOptions, NdOrdering};
pub use separator::vertex_separator;
