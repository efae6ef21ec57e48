#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::print_stdout, unsafe_op_in_unsafe_fn))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc))]

//! # apsp-bench
//!
//! The paper-report generator: one runner per experiment of the DESIGN.md
//! index (E1–E17), shared by the `paper_report` binary (which regenerates
//! every table/figure artifact of the paper) and by the crate's tests.
//!
//! Every runner **verifies distances against the Dijkstra oracle before
//! reporting costs** — a cost table from a wrong answer is worthless.
//!
//! [`jsonio`] is the repository's JSON reader; the `benchmark/` package
//! and the CLI tests parse with it. Nothing in this crate times anything:
//! wall-clock evidence comes from `benchmark/` alone
//! (`docs/PERFORMANCE.md`).

pub mod experiments;
pub mod figures;
pub mod jsonio;
pub mod table;
pub mod workloads;

pub use experiments::*;
pub use table::Table;
