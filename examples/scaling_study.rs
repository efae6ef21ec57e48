//! A miniature Table 2: measured memory, bandwidth and latency of
//! 2D-SPARSE-APSP vs the dense baselines, swept over the machine size.
//!
//! ```text
//! cargo run --release --example scaling_study [grid_side] [--json]
//! ```
//!
//! With `--json`, each sweep point is emitted as one JSON object per
//! line (machine-readable; same numbers as the table) instead of prose.

use sparse_apsp::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let side: usize =
        args.iter().find(|a| !a.starts_with("--")).and_then(|s| s.parse().ok()).unwrap_or(16);
    let g = grid2d(side, side, WeightKind::Unit, 0);
    let n = g.n();
    let reference = oracle::apsp_dijkstra(&g);

    if !json {
        println!("workload: {side}×{side} mesh (n = {n})\n");
        println!(
            "{:>4} {:>4}  {:>26}  {:>26}  {:>20}",
            "√p", "p", "2D-SPARSE-APSP (L/B/M)", "dense FW-2D (L/B/M)", "lower bounds (L/B)"
        );
    }

    for h in 2..=4u32 {
        let n_grid = (1usize << h) - 1;
        let p = n_grid * n_grid;

        let solver = SparseApsp::new(SparseApspConfig {
            height: h,
            ordering: Ordering::Grid { rows: side, cols: side },
            ..Default::default()
        });
        let sparse = solver.solve(&g, None).expect("a unit mesh solves");
        assert!(sparse.dense().first_mismatch(&reference, 1e-9).is_none());
        let s = sparse.ordering().max_separator();

        let dense = fw2d(&g, n_grid);
        assert!(dense.dist.first_mismatch(&reference, 1e-9).is_none());

        let (rs, rd) = (sparse.report(), &dense.report);
        if json {
            println!(
                "{{\"workload\": \"mesh {side}x{side}\", \"n\": {n}, \"height\": {h}, \
                 \"n_grid\": {n_grid}, \"p\": {p}, \"separator\": {s}, \
                 \"sparse\": {{\"latency\": {}, \"bandwidth\": {}, \"peak_words\": {}}}, \
                 \"dense_fw2d\": {{\"latency\": {}, \"bandwidth\": {}, \"peak_words\": {}}}, \
                 \"lower_bounds\": {{\"latency\": {:.0}, \"bandwidth\": {:.0}}}}}",
                rs.critical_latency(),
                rs.critical_bandwidth(),
                rs.max_peak_words(),
                rd.critical_latency(),
                rd.critical_bandwidth(),
                rd.max_peak_words(),
                bounds::lower_bound_latency(p),
                bounds::lower_bound_bandwidth(n, p, s),
            );
        } else {
            println!(
                "{:>4} {:>4}  {:>8}/{:>8}/{:>7}  {:>8}/{:>8}/{:>7}  {:>8.0}/{:>9.0}",
                n_grid,
                p,
                rs.critical_latency(),
                rs.critical_bandwidth(),
                rs.max_peak_words(),
                rd.critical_latency(),
                rd.critical_bandwidth(),
                rd.max_peak_words(),
                bounds::lower_bound_latency(p),
                bounds::lower_bound_bandwidth(n, p, s),
            );
        }
    }

    if !json {
        println!(
            "\nshapes to look for (paper Table 2): sparse L grows ~log²p while \
             dense L grows ~√p·log p;\nsparse B decays ~1/p (plus the |S|² term) \
             while dense B decays only ~1/√p."
        );
    }
}
