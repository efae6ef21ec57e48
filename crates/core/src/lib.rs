#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # apsp-core
//!
//! The paper's algorithms and baselines:
//!
//! * [`supernodal`] — the supernodal block matrix: the nested-dissection
//!   ordering applied to a graph, cut into the `N × N` block grid the
//!   scheduling tree describes (Fig. 1d / Fig. 3);
//! * [`superfw`] — shared-memory supernodal Floyd–Warshall (SuperFW \[22\],
//!   §4) with exact operation counts;
//! * [`sparse2d`] — **2D-SPARSE-APSP (Algorithm 1)**: the communication-
//!   avoiding distributed algorithm, phases `R¹…R⁴` per level, with the
//!   Corollary 5.5 one-to-one unit placement (plus the §5.2.2 "sequential
//!   units" strategy as an ablation);
//! * [`fw2d`] — dense distributed blocked Floyd–Warshall on a block layout
//!   (Jenq–Sahni style, §2), a dense baseline;
//! * [`dcapsp`] — divide-and-conquer APSP over a block-cyclic layout with
//!   SUMMA min-plus multiplies (2D-DC-APSP \[24\] shape), the paper's
//!   comparator;
//! * [`driver`] — the end-to-end public API: partition → distribute → run →
//!   gather → verify, returning distances plus the measured cost report;
//! * [`bounds`] — closed-form §5.4 predictions and §6 lower bounds for
//!   overlaying measured numbers.

pub mod bounds;
pub mod dcapsp;
pub mod djohnson;
pub mod dnd;
pub mod driver;
pub mod fw2d;
pub mod launch;
pub mod solved;
pub mod sparse2d;
pub mod superfw;
pub mod supernodal;
pub mod update;

pub use driver::{ApspRun, Backend, SparseApsp, SparseApspConfig};
pub use solved::SolvedApsp;
pub use sparse2d::R4Strategy;
pub use supernodal::SupernodalLayout;
