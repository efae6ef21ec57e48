#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::print_stdout, unsafe_op_in_unsafe_fn))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc))]

//! # sparse-apsp
//!
//! A Rust reproduction of *"Communication Avoiding All-Pairs Shortest
//! Paths Algorithm for Sparse Graphs"* (Zhu, Hua, Jin — ICPP 2021):
//! the **2D-SPARSE-APSP** distributed algorithm, every substrate it needs
//! (nested-dissection partitioner, elimination-tree scheduler, min-plus
//! kernels, a simulated distributed-memory machine with exact
//! bandwidth/latency accounting), its baselines (SuperFW, dense blocked FW,
//! 2D-DC-APSP), and the benchmark harness regenerating the paper's cost
//! table and counting lemmas.
//!
//! ## Quick start
//!
//! ```
//! use sparse_apsp::prelude::*;
//!
//! // a 6×6 mesh — the separator-friendly case the paper targets
//! let g = grid2d(6, 6, WeightKind::Unit, 0);
//!
//! // solve on a simulated 9-rank machine (elimination tree height 2)
//! let run = SparseApsp::with_height(2).run(&g);
//!
//! assert_eq!(run.dist.get(0, 35), 10.0); // corner-to-corner Manhattan
//! println!(
//!     "critical-path: {} messages, {} words",
//!     run.report.critical_latency(),
//!     run.report.critical_bandwidth()
//! );
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | CSR graphs, generators, Dijkstra/Johnson/FW oracles, I/O |
//! | [`minplus`] | tropical-semiring dense kernels |
//! | [`etree`] | elimination-tree scheduling math (§4.2, §5.2), unit placement (Cor. 5.5) |
//! | [`partition`] | multilevel nested dissection, Kőnig separators (§4.1) |
//! | [`simnet`] | the simulated distributed machine (§3.1 cost model) |
//! | [`transport`] | the [`transport::Transport`] trait and the native threads backend |
//! | [`core`] | 2D-SPARSE-APSP, SuperFW, dense baselines, cost bounds |
//! | [`metrics`] | host-side metrics registry (counters, histograms, phase timers) |
//! | [`bench`] | experiment runners behind `paper_report`, the JSON reader |

pub mod audit;

pub use apsp_bench as bench;
pub use apsp_core as core;
pub use apsp_etree as etree;
pub use apsp_graph as graph;
pub use apsp_metrics as metrics;
pub use apsp_minplus as minplus;
pub use apsp_partition as partition;
pub use apsp_simnet as simnet;
pub use apsp_transport as transport;
pub use apsp_verify as verify;

/// The most common imports, re-exported flat.
///
/// Running a distributed solver is always the same two values: a
/// [`Solver`](apsp_core::launch::Solver) (`Sparse2d`, `Fw2d`, `DcApsp`,
/// `DJohnson`, `Decreases`, `DistNd`) and a
/// [`LaunchSpec`](apsp_core::launch::LaunchSpec) `{ backend, faults,
/// recovery, profile, record }` handed to
/// [`launch`](apsp_core::launch::launch); `sparse2d`, `fw2d`, `dc_apsp`, …
/// are sugar for the default spec and
/// [`verify`](apsp_core::launch::verify) checks a solver's schedule.
/// `docs/BACKENDS.md` tabulates what each backend does with each option.
pub mod prelude {
    pub use apsp_core::bounds;
    pub use apsp_core::dcapsp::{cyclic_fw, dc_apsp, DcApsp};
    pub use apsp_core::djohnson::{distributed_johnson, DJohnson};
    pub use apsp_core::dnd::{dist_nested_dissection, DistNd};
    pub use apsp_core::driver::{Input, Ordering};
    pub use apsp_core::fw2d::{fw2d, Fw2d};
    pub use apsp_core::launch::{
        launch, ranks_of_height, verify, DenseResult, LaunchSpec, Launched, Solver,
    };
    pub use apsp_core::sparse2d::{sparse2d, Sparse2d};
    pub use apsp_core::superfw::{superfw_apsp, superfw_opcount_comparison};
    pub use apsp_core::update::{apply_decreases, DecreasedEdge, Decreases};
    pub use apsp_core::{
        ApspError, ApspRun, Backend, R4Strategy, SolvedApsp, SparseApsp, SparseApspConfig,
        SupernodalLayout, MAX_RANKS,
    };
    pub use apsp_etree::SchedTree;
    pub use apsp_graph::generators::{
        balanced_tree, barabasi_albert, caterpillar, complete, connected_gnp, cycle, gnp, grid2d,
        grid3d, paper_fig1, path, random_geometric, rmat, star, tri_mesh, watts_strogatz,
        WeightKind,
    };
    pub use apsp_graph::paths::{path_weight, reconstruct_path};
    pub use apsp_graph::{
        oracle, Csr, DenseDist, DiCsr, DiGraphBuilder, GraphBuilder, Permutation, INF,
    };
    pub use apsp_partition::{grid_nd, nested_dissection, BisectOptions, NdOptions, NdOrdering};
    pub use apsp_simnet::{
        Clocks, Comm, FaultError, FaultPlan, FaultStats, FaultSummary, Machine, MachineError,
        MachineRun, MachineSpec, PhaseBreakdown, Profile, RecoveryPolicy, RecoveryReport,
        RunReport, TimeModel, Unrecoverable,
    };
    pub use apsp_transport::{NativeComm, NativeMachine, Transport};
    pub use apsp_verify::{VerifyReport, Violation};
}
