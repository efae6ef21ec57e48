#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::print_stdout, unsafe_op_in_unsafe_fn))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc))]

//! # apsp-etree
//!
//! The elimination-tree scheduling mathematics of the paper (§4.2, §5.2):
//!
//! * [`SchedTree`]: a complete binary elimination tree with `N = 2^h − 1`
//!   supernodes labeled **1..=N in bottom-up level order** (paper Fig. 3a),
//!   with O(1) level / parent / ancestor / descendant arithmetic;
//! * [`regions`]: the per-level update regions `R¹_l … R⁴_l` of §5.2 and
//!   their single-`k` update triples;
//! * [`mapping`]: the Lemma 5.4 / Corollary 5.5 one-to-one placement of
//!   `R⁴` computing units onto the `√p × √p` processor grid, plus its
//!   inverse (what does processor `(f, g)` compute at level `l`?).
//!
//! Everything here is pure combinatorics on labels — no matrices, no
//! communication — so the paper's counting lemmas (5.2–5.4) are verified
//! mechanically by the tests of this crate.

pub mod mapping;
pub mod regions;
pub mod tree;

pub use mapping::{decode_row, unit_processor, units_for_processor, UnitAssignment};
pub use regions::{r1, r2, r3, r4_mirror, r4_upper, unit_count, R3Update, R4Block};
pub use tree::SchedTree;
