//! The experiment runners (DESIGN.md index E1–E17).
//!
//! Each function measures on the simulated machine, verifies correctness
//! against the Dijkstra oracle, and renders a [`Table`] whose rows are
//! recorded in `EXPERIMENTS.md`.

use crate::table::{fnum, Table};
use crate::workloads::{self, Workload};
use apsp_core::bounds;
use apsp_core::dcapsp::{cyclic_fw, dc_apsp};
use apsp_core::driver::Ordering;
use apsp_core::fw2d::fw2d;
use apsp_core::sparse2d::{sparse2d, R4Strategy};
use apsp_core::superfw::superfw_opcount_comparison;
use apsp_core::{SparseApsp, SparseApspConfig, SupernodalLayout};
use apsp_etree::{mapping, regions, SchedTree};
use apsp_graph::generators::{self, WeightKind};
use apsp_graph::{oracle, Csr, DenseDist};
use apsp_partition::{grid_nd, nested_dissection, NdOptions};
use apsp_simnet::RunReport;

fn verify(dist: &DenseDist, g: &Csr, context: &str) {
    let reference = oracle::apsp_dijkstra_parallel(g);
    if let Some((i, j, a, b)) = dist.first_mismatch(&reference, 1e-9) {
        panic!("{context}: wrong distance at ({i},{j}): got {a}, expected {b}");
    }
}

/// One row of the Table 2 sweep: all three algorithms on the same machine.
pub struct SweepPoint {
    /// Elimination-tree height.
    pub h: u32,
    /// Rank count `p = (2^h − 1)²`.
    pub p: usize,
    /// Vertex count.
    pub n: usize,
    /// Largest separator of the ordering.
    pub sep: usize,
    /// 2D-SPARSE-APSP report.
    pub sparse: RunReport,
    /// Dense blocked-FW (block layout) report.
    pub dense_fw: RunReport,
    /// 2D-DC-APSP (block cyclic, depth 1) report.
    pub dc: RunReport,
}

/// Runs the three algorithms on a `side × side` mesh for every height —
/// the data behind the Table 2 rows (E1–E3, E10).
pub fn table2_sweep(side: usize, heights: &[u32]) -> Vec<SweepPoint> {
    let g = generators::grid2d(side, side, WeightKind::Unit, 0);
    heights
        .iter()
        .map(|&h| {
            let n_grid = (1usize << h) - 1;
            let solver = SparseApsp::new(SparseApspConfig {
                height: h,
                ordering: Ordering::Grid { rows: side, cols: side },
                ..Default::default()
            });
            let run = solver.run(&g);
            verify(&run.dist, &g, "sparse2d");
            let dense = fw2d(&g, n_grid);
            verify(&dense.dist, &g, "fw2d");
            let dc = dc_apsp(&g, n_grid, 1);
            verify(&dc.dist, &g, "dc_apsp");
            SweepPoint {
                h,
                p: n_grid * n_grid,
                n: g.n(),
                sep: run.ordering.max_separator(),
                sparse: run.report,
                dense_fw: dense.report,
                dc: dc.report,
            }
        })
        .collect()
}

/// E1 — Table 2, memory row: measured per-rank peak vs `n²/p + |S|²`.
pub fn table2_memory(points: &[SweepPoint]) -> Table {
    let mut t = Table::new(vec![
        "sqrt_p",
        "p",
        "|S|",
        "M sparse",
        "n^2/p+|S|^2",
        "M dense-fw",
        "M dc",
        "LB n^2/p",
    ]);
    for pt in points {
        t.row(vec![
            format!("{}", (1usize << pt.h) - 1),
            format!("{}", pt.p),
            format!("{}", pt.sep),
            format!("{}", pt.sparse.max_peak_words()),
            fnum(bounds::sparse_memory(pt.n, pt.p, pt.sep)),
            format!("{}", pt.dense_fw.max_peak_words()),
            format!("{}", pt.dc.max_peak_words()),
            fnum(bounds::lower_bound_memory(pt.n, pt.p)),
        ]);
    }
    t
}

/// E2 — Table 2, bandwidth row: measured critical-path words.
pub fn table2_bandwidth(points: &[SweepPoint]) -> Table {
    let mut t =
        Table::new(vec!["sqrt_p", "p", "B sparse", "predicted", "B dense-fw", "B dc", "LB"]);
    for pt in points {
        t.row(vec![
            format!("{}", (1usize << pt.h) - 1),
            format!("{}", pt.p),
            format!("{}", pt.sparse.critical_bandwidth()),
            fnum(bounds::sparse_bandwidth(pt.n, pt.p, pt.sep)),
            format!("{}", pt.dense_fw.critical_bandwidth()),
            format!("{}", pt.dc.critical_bandwidth()),
            fnum(bounds::lower_bound_bandwidth(pt.n, pt.p, pt.sep)),
        ]);
    }
    t
}

/// E3 — Table 2, latency row: measured critical-path messages.
pub fn table2_latency(points: &[SweepPoint]) -> Table {
    let mut t = Table::new(vec![
        "sqrt_p",
        "p",
        "L sparse",
        "log^2 p",
        "L dense-fw",
        "L dc",
        "dc pred sqrt_p*log^2 p",
    ]);
    for pt in points {
        t.row(vec![
            format!("{}", (1usize << pt.h) - 1),
            format!("{}", pt.p),
            format!("{}", pt.sparse.critical_latency()),
            fnum(bounds::sparse_latency(pt.p)),
            format!("{}", pt.dense_fw.critical_latency()),
            format!("{}", pt.dc.critical_latency()),
            fnum(bounds::dc_latency(pt.p)),
        ]);
    }
    t
}

/// E10 — Theorem 6.5 near-optimality: measured / lower-bound ratios.
pub fn optimality(points: &[SweepPoint]) -> Table {
    let mut t = Table::new(vec!["p", "B/LB_B", "log^2 p", "L/LB_L", "optimal?"]);
    for pt in points {
        let b_ratio = pt.sparse.critical_bandwidth() as f64
            / bounds::lower_bound_bandwidth(pt.n, pt.p, pt.sep);
        let l_ratio = pt.sparse.critical_latency() as f64 / bounds::lower_bound_latency(pt.p);
        let l2 = bounds::log2p(pt.p).powi(2);
        t.row(vec![
            format!("{}", pt.p),
            fnum(b_ratio),
            fnum(l2),
            fnum(l_ratio),
            format!("B within {}x of log^2 p gap; L within constant", fnum(b_ratio / l2)),
        ]);
    }
    t
}

/// E4 — Fig. 1: empty-block census, natural order vs ND order.
pub fn fig1_ordering(side: usize, h: u32) -> Table {
    let mut t =
        Table::new(vec!["graph", "order", "blocks", "empty", "cousin blocks", "cousin violations"]);
    let mut push = |name: &str, g: &Csr, nd: &apsp_partition::NdOrdering, label: &str| {
        let layout = SupernodalLayout::from_ordering(nd);
        let gp = g.permuted(&nd.perm);
        let census = layout.empty_block_census(&gp);
        t.row(vec![
            name.to_string(),
            label.to_string(),
            format!("{}", census.total),
            format!("{}", census.empty),
            format!("{}", census.cousin_blocks),
            format!("{}", census.nonempty_cousin_blocks),
        ]);
    };

    // the paper's own 7-vertex example
    let fig1 = generators::paper_fig1();
    let nd = nested_dissection(&fig1, 2, &NdOptions::default());
    // "natural order": same block sizes, identity permutation
    let natural = apsp_partition::NdOrdering {
        tree: nd.tree,
        perm: apsp_graph::Permutation::identity(fig1.n()),
        supernode_sizes: nd.supernode_sizes.clone(),
    };
    push("paper fig1", &fig1, &natural, "natural");
    push("paper fig1", &fig1, &nd, "nested dissection");

    // a mesh at the requested size
    let g = generators::grid2d(side, side, WeightKind::Unit, 0);
    let ndg = grid_nd(side, side, h);
    let naturalg = apsp_partition::NdOrdering {
        tree: ndg.tree,
        perm: apsp_graph::Permutation::identity(g.n()),
        supernode_sizes: ndg.supernode_sizes.clone(),
    };
    push(&format!("mesh {side}x{side}"), &g, &naturalg, "natural");
    push(&format!("mesh {side}x{side}"), &g, &ndg, "nested dissection");
    t
}

/// E5 — Fig. 2/3: region sizes per level of an `h`-level tree.
pub fn fig3_regions(h: u32) -> Table {
    let t_tree = SchedTree::new(h);
    let mut t =
        Table::new(vec!["level", "|Q_l|", "|R1|", "|R2|", "|R3|", "|R4 upper|", "R4 units"]);
    for l in 1..=h {
        t.row(vec![
            format!("{l}"),
            format!("{}", t_tree.level_count(l)),
            format!("{}", regions::r1(&t_tree, l).len()),
            format!("{}", regions::r2(&t_tree, l).len()),
            format!("{}", regions::r3(&t_tree, l).len()),
            format!("{}", regions::r4_upper(&t_tree, l).len()),
            format!("{}", regions::unit_count(&t_tree, l)),
        ]);
    }
    t
}

/// E6 — Lemmas 5.2/5.3: unit counts vs the `p` bound, per height/level.
pub fn lemma52_units(max_h: u32) -> Table {
    let mut t =
        Table::new(vec!["h", "sqrt_p", "p", "level", "units", "<= p", "per-subset", "<= sqrt_p"]);
    for h in 2..=max_h {
        let tree = SchedTree::new(h);
        let n = tree.num_supernodes();
        for l in 1..h {
            let units = regions::unit_count(&tree, l);
            let per_subset = 1usize << (h - l);
            t.row(vec![
                format!("{h}"),
                format!("{n}"),
                format!("{}", n * n),
                format!("{l}"),
                format!("{units}"),
                format!("{}", units <= n * n),
                format!("{per_subset}"),
                format!("{}", per_subset <= n),
            ]);
            assert!(units <= n * n, "Lemma 5.2 violated");
            assert!(per_subset <= n, "Lemma 5.3 violated");
            // the placement is injective (Lemma 5.4 / Corollary 5.5)
            let placements: std::collections::BTreeSet<(usize, usize)> =
                mapping::level_units(&tree, l).iter().map(|u| (u.f, u.g)).collect();
            assert_eq!(placements.len(), units, "placement not one-to-one");
        }
    }
    t
}

/// E7 — SuperFW vs classical FW operation counts (`Θ(n/|S|)` reduction),
/// with the exact §6 3NL operation count `F = Σ|S_ij|` alongside.
pub fn superfw_ops(sides: &[usize], h: u32) -> Table {
    let mut t = Table::new(vec![
        "mesh",
        "n",
        "|S|",
        "classical ops",
        "superfw ops",
        "3NL F",
        "reduction",
        "n/|S|",
    ]);
    for &side in sides {
        let g = generators::grid2d(side, side, WeightKind::Unit, 0);
        let nd = grid_nd(side, side, h);
        let cmp = superfw_opcount_comparison(&g, &nd);
        let layout = SupernodalLayout::from_ordering(&nd);
        let f = bounds::three_nl_operations(&layout);
        assert!((cmp.superfw_ops as u128) <= f, "measured ops exceed the 3NL count");
        t.row(vec![
            format!("{side}x{side}"),
            format!("{}", cmp.n),
            format!("{}", cmp.top_separator),
            format!("{}", cmp.classical_ops),
            format!("{}", cmp.superfw_ops),
            format!("{f}"),
            format!("{:.2}x", cmp.reduction()),
            fnum(cmp.predicted_reduction()),
        ]);
    }
    t
}

/// E8 — §5.2.2 ablation: one-to-one unit placement vs sequential units.
pub fn r4_ablation(side: usize, heights: &[u32]) -> Table {
    let g = generators::grid2d(side, side, WeightKind::Unit, 0);
    let mut t = Table::new(vec![
        "sqrt_p",
        "p",
        "L one-to-one",
        "L sequential",
        "B one-to-one",
        "B sequential",
    ]);
    for &h in heights {
        let nd = grid_nd(side, side, h);
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let fast = sparse2d(&layout, &gp, R4Strategy::OneToOne);
        verify(&SupernodalLayout::unpermute(&fast.dist_eliminated, &nd.perm), &g, "one-to-one");
        let slow = sparse2d(&layout, &gp, R4Strategy::SequentialUnits);
        verify(&SupernodalLayout::unpermute(&slow.dist_eliminated, &nd.perm), &g, "sequential");
        t.row(vec![
            format!("{}", (1usize << h) - 1),
            format!("{}", ((1usize << h) - 1) * ((1usize << h) - 1)),
            format!("{}", fast.report.critical_latency()),
            format!("{}", slow.report.critical_latency()),
            format!("{}", fast.report.critical_bandwidth()),
            format!("{}", slow.report.critical_bandwidth()),
        ]);
    }
    t
}

/// E9 — §5.1 layout ablation: block-cyclic oversubscription serializes the
/// diagonal pivots of FW-shaped algorithms.
pub fn layout_ablation(side: usize, n_grid: usize, max_oversub: u32) -> Table {
    let g = generators::grid2d(side, side, WeightKind::Unit, 0);
    let mut t = Table::new(vec!["layout", "tiles/proc", "L", "B", "total msgs"]);
    for oversub in 0..=max_oversub {
        let result = cyclic_fw(&g, n_grid, oversub);
        verify(&result.dist, &g, "cyclic_fw");
        let label = if oversub == 0 { "block".to_string() } else { format!("cyclic 2^{oversub}") };
        t.row(vec![
            label,
            format!("{}", 1usize << (2 * oversub)),
            format!("{}", result.report.critical_latency()),
            format!("{}", result.report.critical_bandwidth()),
            format!("{}", result.report.total_messages()),
        ]);
    }
    t
}

/// E11 — §5.4.4: the separator pipeline measured on the machine — the
/// fully distributed ND (`apsp-core::dnd`), the ordering broadcast, and the
/// cited per-level cost of \[18\] for comparison. The APSP cost column shows
/// the §5.4.4 claim: the pipeline is subsumed by the solve.
pub fn separator_cost(side: usize, heights: &[u32]) -> Table {
    let g = generators::grid2d(side, side, WeightKind::Unit, 0);
    let mut t = Table::new(vec![
        "sqrt_p",
        "p",
        "dist-ND L",
        "dist-ND B",
        "dist-ND |S|",
        "bcast L",
        "bcast B",
        "cited [18] L/level",
        "cited [18] B/level",
        "APSP L",
        "APSP B",
    ]);
    for &h in heights {
        let n_grid = (1usize << h) - 1;
        let p = n_grid * n_grid;
        // the fully distributed pipeline
        let dnd = apsp_core::dnd::dist_nested_dissection(&g, h, p, 0, false);
        dnd.ordering.validate(&g).expect("distributed ordering is valid");
        // the replicated-ordering broadcast variant
        let base = SparseApsp::new(SparseApspConfig {
            height: h,
            ordering: Ordering::Grid { rows: side, cols: side },
            ..Default::default()
        })
        .run(&g);
        let charged = SparseApsp::new(SparseApspConfig {
            height: h,
            ordering: Ordering::Grid { rows: side, cols: side },
            charge_ordering_distribution: true,
            ..Default::default()
        })
        .run(&g);
        verify(&charged.dist, &g, "charged run");
        t.row(vec![
            format!("{n_grid}"),
            format!("{p}"),
            format!("{}", dnd.report.critical_latency()),
            format!("{}", dnd.report.critical_bandwidth()),
            format!("{}", dnd.ordering.max_separator()),
            format!("{}", charged.report.critical_latency() - base.report.critical_latency()),
            format!("{}", charged.report.total_words() - base.report.total_words()),
            fnum(bounds::separator_latency(p)),
            fnum(bounds::separator_bandwidth(g.n(), p)),
            format!("{}", base.report.critical_latency()),
            format!("{}", base.report.critical_bandwidth()),
        ]);
    }
    t
}

/// E15 — the full algorithm-regime comparison at one machine size: every
/// distributed algorithm in the workspace on the same workload, including
/// the source-parallel Johnson baseline the paper's §2 dismisses for
/// scalability (it wins on volume for one-shot sparse APSP; the paper's
/// contribution is the latency-optimal semiring-structured computation).
pub fn algorithm_regimes(side: usize, h: u32) -> Table {
    let g = generators::grid2d(side, side, WeightKind::Unit, 0);
    let reference = oracle::apsp_dijkstra_parallel(&g);
    let n_grid = (1usize << h) - 1;
    let p = n_grid * n_grid;
    let mut t = Table::new(vec!["algorithm", "L", "B", "total volume", "compute (critical)"]);
    let mut push = |name: &str, dist: &apsp_graph::DenseDist, report: &RunReport| {
        assert!(dist.first_mismatch(&reference, 1e-9).is_none(), "{name} wrong");
        t.row(vec![
            name.to_string(),
            format!("{}", report.critical_latency()),
            format!("{}", report.critical_bandwidth()),
            format!("{}", report.total_words()),
            format!("{}", report.critical_compute()),
        ]);
    };
    let sparse = SparseApsp::new(SparseApspConfig {
        height: h,
        ordering: Ordering::Grid { rows: side, cols: side },
        ..Default::default()
    })
    .run(&g);
    push("2D-SPARSE-APSP", &sparse.dist, &sparse.report);
    let dense = fw2d(&g, n_grid);
    push("dense FW-2D", &dense.dist, &dense.report);
    let dc = dc_apsp(&g, n_grid, 1);
    push("2D-DC-APSP (d=1)", &dc.dist, &dc.report);
    let dj = apsp_core::djohnson::distributed_johnson(&g, p);
    push("dist. Johnson", &dj.dist, &dj.report);
    t
}

/// E17 — directed-mode overhead (extension): the `R⁴` dual-orientation
/// schedule vs the undirected transpose mirror, on the same workload with
/// symmetric weights (so both compute the same answer).
pub fn directed_overhead(side: usize, heights: &[u32]) -> Table {
    use apsp_core::sparse2d::sparse2d_directed;
    let g = generators::grid2d(side, side, WeightKind::Integer { max: 7 }, 5);
    let mut t = Table::new(vec![
        "sqrt_p",
        "p",
        "L undirected",
        "L directed",
        "B undirected",
        "B directed",
        "B ratio",
    ]);
    for &h in heights {
        let nd = grid_nd(side, side, h);
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let und = sparse2d(&layout, &gp, R4Strategy::OneToOne);
        let dgp = apsp_graph::DiCsr::from_undirected(&g).permuted(&nd.perm);
        let dir = sparse2d_directed(&layout, &dgp, R4Strategy::OneToOne);
        assert!(
            und.dist_eliminated.first_mismatch(&dir.dist_eliminated, 1e-9).is_none(),
            "directed and undirected must agree on symmetric weights"
        );
        let n_grid = (1usize << h) - 1;
        t.row(vec![
            format!("{n_grid}"),
            format!("{}", n_grid * n_grid),
            format!("{}", und.report.critical_latency()),
            format!("{}", dir.report.critical_latency()),
            format!("{}", und.report.critical_bandwidth()),
            format!("{}", dir.report.critical_bandwidth()),
            format!(
                "{:.2}x",
                dir.report.critical_bandwidth() as f64
                    / und.report.critical_bandwidth().max(1) as f64
            ),
        ]);
    }
    t
}

/// E16 — batched decrease updates (extension): cost of updating a solved
/// distance matrix through `k` decreased edges vs re-solving, the
/// incremental regime that motivates FW-structured APSP (E15 discussion).
pub fn update_costs(side: usize, h: u32, batch_sizes: &[usize]) -> Table {
    use apsp_core::update::{apply_decreases, DecreasedEdge};
    let g = generators::grid2d(side, side, WeightKind::Integer { max: 9 }, 3);
    let nd = grid_nd(side, side, h);
    let layout = SupernodalLayout::from_ordering(&nd);
    let gp = g.permuted(&nd.perm);
    let solved = sparse2d(&layout, &gp, R4Strategy::OneToOne);
    let blocks = layout.split_dense(&solved.dist_eliminated);

    let mut t = Table::new(vec![
        "batch k",
        "update L",
        "update B",
        "update volume",
        "re-solve L",
        "re-solve B",
    ]);
    let n = g.n();
    for &k in batch_sizes {
        // deterministic pseudo-random shortcut batch
        let batch: Vec<DecreasedEdge> = (0..k)
            .map(|i| {
                let u = (i * 37 + 1) % n;
                let v = (i * 53 + n / 2) % n;
                let (u, v) = if u == v { (u, (v + 1) % n) } else { (u, v) };
                DecreasedEdge {
                    u: nd.perm.to_new(u),
                    v: nd.perm.to_new(v),
                    new_weight: 1.0 + (i % 3) as f64,
                }
            })
            .collect();
        let updated = apply_decreases(&layout, &blocks, &batch);
        // verify against a re-solved modified graph
        let mut b = apsp_graph::GraphBuilder::new(n);
        for (u, v, w) in g.edges() {
            b.add_edge(u, v, w);
        }
        for e in &batch {
            b.add_edge(nd.perm.to_old(e.u), nd.perm.to_old(e.v), e.new_weight);
        }
        let modified = b.build();
        let dist = SupernodalLayout::unpermute(&layout.assemble_dense(&updated.blocks), &nd.perm);
        verify(&dist, &modified, "batched update");
        t.row(vec![
            format!("{k}"),
            format!("{}", updated.report.critical_latency()),
            format!("{}", updated.report.critical_bandwidth()),
            format!("{}", updated.report.total_words()),
            format!("{}", solved.report.critical_latency()),
            format!("{}", solved.report.critical_bandwidth()),
        ]);
    }
    t
}

/// E13 — Lemmas 5.6/5.8/5.9: per-elimination-level critical-path costs.
/// `L_l` must stay `O(log p)` at every level; `B_1` carries the `n²/p`
/// term while higher levels only move separator-sized panels.
pub fn per_level_costs(side: usize, h: u32) -> Table {
    let g = generators::grid2d(side, side, WeightKind::Unit, 0);
    let solver = SparseApsp::new(SparseApspConfig {
        height: h,
        ordering: Ordering::Grid { rows: side, cols: side },
        ..Default::default()
    });
    let run = solver.run(&g);
    verify(&run.dist, &g, "per-level run");
    let p = ((1usize << h) - 1) * ((1usize << h) - 1);
    let log_p = bounds::log2p(p);
    let mut t = Table::new(vec!["level", "L_l", "4*log p", "B_l", "lemma"]);
    for (idx, &(lat, bw)) in run.level_costs.iter().enumerate() {
        let l = idx + 1;
        let lemma = if l == 1 { "5.8: n^2 log p/p term" } else { "5.9: separator terms only" };
        t.row(vec![
            format!("{l}"),
            format!("{lat}"),
            fnum(4.0 * log_p),
            format!("{bw}"),
            lemma.to_string(),
        ]);
        assert!((lat as f64) <= 4.0 * log_p, "Lemma 5.6 violated at level {l}");
    }
    t
}

/// E12 — §5.5: how the costs respond to the separator size at fixed `p`.
pub fn separator_sweep(h: u32) -> Table {
    let workloads: Vec<Workload> = vec![
        workloads::mesh(14),
        workloads::triangulated(14),
        workloads::geometric(196),
        workloads::small_world(196, 0.05),
        workloads::mesh3d(6),
        workloads::scale_free(196),
        workloads::erdos_renyi(196, 0.03),
        workloads::erdos_renyi(196, 0.08),
        workloads::power_law(8),
    ];
    let mut t = Table::new(vec!["workload", "n", "m", "|S|", "L", "B", "M", "predicted B"]);
    for w in workloads {
        let solver = SparseApsp::new(SparseApspConfig { height: h, ..Default::default() });
        let run = solver.run(&w.graph);
        verify(&run.dist, &w.graph, &w.name);
        let p = ((1usize << h) - 1) * ((1usize << h) - 1);
        let s = run.ordering.max_separator();
        t.row(vec![
            w.name.clone(),
            format!("{}", w.graph.n()),
            format!("{}", w.graph.m()),
            format!("{s}"),
            format!("{}", run.report.critical_latency()),
            format!("{}", run.report.critical_bandwidth()),
            format!("{}", run.report.max_peak_words()),
            fnum(bounds::sparse_bandwidth(w.graph.n(), p, s)),
        ]);
    }
    t
}

/// E18 — phase-scoped critical-path attribution (observability extension):
/// the span-ledger breakdown of a profiled 2D-SPARSE-APSP run. `depth = 0`
/// attributes per elimination level (the rows of Lemma 5.6's telescoping
/// sum), `depth = 1` per `R¹`–`R⁴` unit within each level. The breakdown is
/// exact: its rows sum to the critical-path clocks, asserted here.
pub fn phase_attribution(side: usize, h: u32, depth: u32) -> Table {
    let g = generators::grid2d(side, side, WeightKind::Unit, 0);
    let solver = SparseApsp::new(SparseApspConfig {
        height: h,
        ordering: Ordering::Grid { rows: side, cols: side },
        profile: true,
        ..Default::default()
    });
    let run = solver.run(&g);
    verify(&run.dist, &g, "phase-attribution run");
    let bd = run.report.phase_breakdown(depth).expect("profiled run");
    assert!(bd.exact, "uniform SPMD schedule must attribute exactly");
    let total = bd.total();
    assert_eq!(total.latency, run.report.critical_latency());
    assert_eq!(total.bandwidth, run.report.critical_bandwidth());
    assert_eq!(total.compute, run.report.critical_compute());

    let model = apsp_simnet::TimeModel::default();
    let total_us = model.micros(&total).max(f64::MIN_POSITIVE);
    let mut t =
        Table::new(vec!["phase", "latency", "bandwidth", "compute", "msgs", "words", "time %"]);
    for row in &bd.rows {
        t.row(vec![
            row.label(),
            format!("{}", row.clocks.latency),
            format!("{}", row.clocks.bandwidth),
            format!("{}", row.clocks.compute),
            format!("{}", row.messages),
            format!("{}", row.words),
            fnum(100.0 * model.micros(&row.clocks) / total_us),
        ]);
    }
    t.row(vec![
        "total".to_string(),
        format!("{}", total.latency),
        format!("{}", total.bandwidth),
        format!("{}", total.compute),
        String::new(),
        String::new(),
        fnum(100.0),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_produces_consistent_rows() {
        let points = table2_sweep(8, &[2]);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].p, 9);
        let mem = table2_memory(&points);
        let bw = table2_bandwidth(&points);
        let lat = table2_latency(&points);
        assert_eq!(mem.len(), 1);
        assert_eq!(bw.len(), 1);
        assert_eq!(lat.len(), 1);
        assert!(optimality(&points).len() == 1);
    }

    #[test]
    fn fig1_census_shows_nd_wins() {
        let t = fig1_ordering(8, 2);
        assert_eq!(t.len(), 4);
        // nested dissection never leaves finite entries in cousin blocks;
        // the natural order on the mesh does
        let violations: Vec<usize> = t.rows().iter().map(|r| r[5].parse().unwrap()).collect();
        assert_eq!(violations[1], 0, "{violations:?}");
        assert_eq!(violations[3], 0, "{violations:?}");
        assert!(violations[2] > 0, "natural mesh order should violate: {violations:?}");
    }

    #[test]
    fn lemma_tables_render() {
        assert!(fig3_regions(4).len() == 4);
        assert!(lemma52_units(5).len() > 4);
    }

    #[test]
    fn superfw_table_shows_reduction() {
        let t = superfw_ops(&[12], 3);
        assert_eq!(t.len(), 1);
        let classical: u64 = t.rows()[0][3].parse().unwrap();
        let sfw: u64 = t.rows()[0][4].parse().unwrap();
        assert!(sfw < classical);
    }

    #[test]
    fn layout_ablation_latency_grows() {
        let t = layout_ablation(8, 3, 1);
        let l0: u64 = t.rows()[0][2].parse().unwrap();
        let l1: u64 = t.rows()[1][2].parse().unwrap();
        assert!(l1 > l0);
    }
}
