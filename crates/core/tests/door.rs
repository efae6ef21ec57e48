//! The one door, [`SparseApsp::solve`]: hostile input comes back as the
//! matching [`ApspError`] variant, never a panic, and the sugar over the
//! door runs the very same pipeline.

use apsp_core::driver::{Input, Ordering};
use apsp_core::launch::{launch, LaunchSpec, Solver};
use apsp_core::{ApspError, Backend, SolvedApsp, SparseApsp, SparseApspConfig, MAX_RANKS};
use apsp_graph::generators::{connected_gnp, grid2d, WeightKind};
use apsp_graph::{Csr, DiCsr, DiGraphBuilder};
use apsp_simnet::RunReport;
use apsp_transport::Transport;
use proptest::prelude::*;

/// A small mesh (`Some((rows, cols))`) or a connected G(n, p) graph.
fn graph(mesh: bool, size: usize, seed: u64) -> (Csr, Option<(usize, usize)>) {
    let weights = WeightKind::Integer { max: 9 };
    if mesh {
        let (rows, cols) = (2 + size % 5, 3 + size % 4);
        (grid2d(rows, cols, weights, seed), Some((rows, cols)))
    } else {
        (connected_gnp(8 + size, 0.2, weights, seed), None)
    }
}

/// Asymmetric arcs over `g`'s pattern: forward keeps the weight, backward
/// adds one; `arc` is added last (the builder keeps the lighter arc).
fn directed(g: &Csr, arc: Option<(usize, usize, f64)>) -> DiCsr {
    let mut b = DiGraphBuilder::new(g.n());
    for (u, v, w) in g.edges() {
        b.add_arc(u, v, w);
        b.add_arc(v, u, w + 1.0);
    }
    if let Some((u, v, w)) = arc {
        b.add_arc(u, v, w);
    }
    b.build()
}

/// `g` with both directions of its `pick`-th adjacency entry set to `bad`
/// (the builders refuse a NaN, the raw arrays do not).
fn with_bad_weight(g: &Csr, pick: usize, bad: f64) -> Csr {
    let mut xadj = vec![0];
    let (mut adj, mut weights) = (Vec::new(), Vec::new());
    for u in 0..g.n() {
        adj.extend_from_slice(g.neighbors(u));
        weights.extend_from_slice(g.weights_of(u));
        xadj.push(adj.len());
    }
    let at = pick % adj.len();
    let u = xadj.partition_point(|&start| start <= at) - 1;
    let v = adj[at] as usize;
    for (from, to) in [(u, v), (v, u)] {
        let row = xadj[from]..xadj[from + 1];
        let k = row.clone().find(|&k| adj[k] as usize == to).expect("symmetric CSR");
        weights[k] = bad;
    }
    Csr::from_raw(xadj, adj, weights)
}

fn refused<'a>(config: SparseApspConfig, input: impl Into<Input<'a>>) -> ApspError {
    match SparseApsp::new(config).solve(input, None) {
        Ok(_) => panic!("the door accepted hostile input"),
        Err(e) => e,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hostile_input_gets_the_matching_error(
        (mesh, size, seed) in (0u32..2, 0usize..6, 0u64..1_000),
        (kind, pick, dir, native) in (0u32..6, 0usize..10_000, 0u32..2, 0u32..2),
        height in 6u32..70,
    ) {
        let (g, shape) = graph(mesh == 1, size, seed);
        let backend = if native == 1 { Backend::Native } else { Backend::Sim };
        let base = SparseApspConfig { backend, ..Default::default() };
        let bad = [-1.0 - (pick % 7) as f64, f64::NAN, f64::NEG_INFINITY][kind as usize % 3];
        // the input as it is, undirected or directed
        let refuse = |config| {
            if dir == 1 { refused(config, &directed(&g, None)) } else { refused(config, &g) }
        };
        let (err, matched) = match kind {
            // one weight negative, NaN or −∞, undirected or directed (a
            // directed NaN never gets past `DiGraphBuilder::add_arc`)
            0..=2 => {
                let err = if dir == 1 && !bad.is_nan() {
                    let (u, v, _) = g.edges().nth(pick % g.m()).expect("an edge");
                    refused(base, &directed(&g, Some((v, u, bad))))
                } else {
                    refused(base, &with_bad_weight(&g, pick, bad))
                };
                let bits = bad.to_bits();
                let matched =
                    matches!(err, ApspError::Weight(u, v, w) if w.to_bits() == bits && u != v);
                (err, matched)
            }
            // a grid shape off by one
            3 => {
                let (rows, cols) = shape.unwrap_or((g.n(), 1));
                let rows = if pick % 2 == 0 { rows + 1 } else { rows - 1 };
                let config = SparseApspConfig { ordering: Ordering::Grid { rows, cols }, ..base };
                let err = refused(config, &g);
                let want = (rows, cols, g.n());
                let matched = matches!(err, ApspError::GridShape(r, c, n) if (r, c, n) == want);
                (err, matched)
            }
            // a simulator-only option on the native backend
            4 => {
                let native = SparseApspConfig { backend: Backend::Native, ..base };
                let (config, option) = if pick % 2 == 0 {
                    (SparseApspConfig { profile: true, ..native }, "profile")
                } else {
                    let config = SparseApspConfig { charge_ordering_distribution: true, ..native };
                    (config, "charge_ordering_distribution")
                };
                let err = refuse(config);
                let matched = matches!(err, ApspError::SimOnly(o) if o == option);
                (err, matched)
            }
            // a height past the bound (a valid input otherwise)
            _ => {
                let err = refuse(SparseApspConfig { height, ..base });
                let matched = matches!(err, ApspError::Ranks(p) if p > MAX_RANKS as u128);
                (err, matched)
            }
        };
        prop_assert!(matched, "case {kind}: got {err}");
        // the same graph, unmutated, goes through the door
        prop_assert!(SparseApsp::new(SparseApspConfig::default()).solve(&g, None).is_ok());
    }
}

#[test]
fn an_ordering_that_separates_nothing_is_refused() {
    // a 6 × 4 mesh read as 4 × 6: the shape fits n, the separators do not
    let g = grid2d(6, 4, WeightKind::Unit, 0);
    let config =
        SparseApspConfig { ordering: Ordering::Grid { rows: 4, cols: 6 }, ..Default::default() };
    let err = refused(config, &g);
    assert!(matches!(err, ApspError::Ordering(_)), "{err}");
}

/// A solver whose ranks must never start.
struct Unlaunchable(usize);

impl Solver for Unlaunchable {
    type Out = ();
    type Result = ();
    const PHASE: &'static str = "unlaunchable";

    fn p(&self) -> usize {
        self.0
    }

    fn rank_program<C: Transport>(&self, _: &mut C) {
        panic!("a rank started past the bound");
    }

    fn assemble(&self, _: Vec<()>, _: RunReport) {}
}

#[test]
fn rank_counts_past_the_bound_start_no_thread_on_either_backend() {
    let g = grid2d(4, 4, WeightKind::Unit, 0);
    for backend in [Backend::Sim, Backend::Native] {
        for p in [0, MAX_RANKS + 1, usize::MAX] {
            let err = launch(&Unlaunchable(p), &LaunchSpec { backend, ..Default::default() })
                .err()
                .expect("refused");
            assert!(matches!(err, ApspError::Ranks(q) if q == p as u128), "{backend} p={p}: {err}");
        }
        // the door refuses from the height, before the ordering allocates
        // 2^h supernodes
        for (height, p) in [(6, 3_969u128), (32, (u32::MAX as u128).pow(2)), (0, 0)] {
            let config = SparseApspConfig { height, backend, ..Default::default() };
            let err = refused(config, &g);
            assert!(matches!(err, ApspError::Ranks(q) if q == p), "{backend} h={height}: {err}");
            assert!(err.to_string().contains(&p.to_string()), "{err}");
        }
    }
}

#[test]
fn solved_apsp_solve_and_run_are_one_pipeline() {
    for (g, h) in [
        (grid2d(8, 8, WeightKind::Integer { max: 9 }, 1), 3),
        (connected_gnp(30, 0.1, WeightKind::Uniform { lo: 0.5, hi: 3.0 }, 2), 2),
    ] {
        let handle = SolvedApsp::solve(&g, h);
        let run = SparseApsp::with_height(h).run(&g);
        assert_eq!(handle.report().per_rank, run.report.per_rank);
        assert_eq!(handle.level_costs(), &run.level_costs[..]);
        let bits = |d: &apsp_graph::DenseDist| d.as_slice().iter().map(|w| w.to_bits()).collect();
        let (a, b): (Vec<u64>, Vec<u64>) = (bits(&handle.dense()), bits(&run.dist));
        assert_eq!(a, b);
    }
}

#[test]
fn a_directed_handle_answers_distances() {
    let g = grid2d(6, 6, WeightKind::Integer { max: 5 }, 3);
    let dg = directed(&g, None);
    let solved = SparseApsp::with_height(2).solve(&dg, None).unwrap();
    let reference = apsp_graph::digraph::apsp_dijkstra_directed(&dg);
    assert!(solved.dense().first_mismatch(&reference, 0.0).is_none());
    for (u, v) in [(0, 35), (35, 0), (7, 29)] {
        assert_eq!(solved.distance(u, v).to_bits(), reference.get(u, v).to_bits());
    }
    assert_ne!(solved.distance(0, 35), solved.distance(35, 0));
    assert!(solved.report().critical_latency() > 0);
}
