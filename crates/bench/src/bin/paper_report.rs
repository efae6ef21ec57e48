//! `paper_report` — regenerates every reproduction artifact of the paper.
//!
//! ```text
//! cargo run --release -p apsp-bench --bin paper_report -- <command> [--side N]
//!
//! commands:
//!   table2-memory      E1   Table 2, memory row
//!   table2-bandwidth   E2   Table 2, bandwidth row
//!   table2-latency     E3   Table 2, latency row
//!   fig1-ordering      E4   Fig. 1 empty-block census
//!   fig3-regions       E5   Fig. 2/3 region sizes per level
//!   lemma52-units      E6   Lemma 5.2/5.3 unit counts
//!   superfw-ops        E7   SuperFW vs classical FW operations
//!   r4-ablation        E8   §5.2.2 one-to-one vs sequential units
//!   layout-ablation    E9   §5.1 block vs block-cyclic layout
//!   optimality         E10  Theorem 6.5 measured/lower-bound ratios
//!   separator-cost     E11  §5.4.4 ordering distribution cost
//!   separator-sweep    E12  §5.5 cost vs separator size
//!   per-level          E13  Lemmas 5.6/5.8/5.9 per-level costs
//!   figures                 render the measured Table 2 curves as SVG
//!   regimes            E15  all distributed algorithms incl. Johnson
//!   updates            E16  batched decrease updates vs re-solve
//!   directed           E17  directed-mode overhead vs the mirror schedule
//!   phases             E18  span-ledger phase attribution (observability)
//!   all                     everything above (EXPERIMENTS.md source)
//! ```

use apsp_bench::experiments as ex;

fn flag(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// When `--csv DIR` is given, also write each printed table there.
fn csv_dir(args: &[String]) -> Option<std::path::PathBuf> {
    args.iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
}

fn emit(name: &str, table: &apsp_bench::Table, csv: &Option<std::path::PathBuf>) {
    print!("{table}");
    if let Some(dir) = csv {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, table.to_csv()).expect("write csv");
        eprintln!("(csv written to {})", path.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let side = flag(&args, "--side", 16);
    let csv = csv_dir(&args);
    let heights: Vec<u32> = vec![2, 3, 4];

    let sweep = |side: usize| {
        eprintln!("(running Table 2 sweep on a {side}x{side} mesh; all runs oracle-verified)");
        ex::table2_sweep(side, &heights)
    };

    match cmd {
        "table2-memory" => emit("table2-memory", &ex::table2_memory(&sweep(side)), &csv),
        "table2-bandwidth" => emit("table2-bandwidth", &ex::table2_bandwidth(&sweep(side)), &csv),
        "table2-latency" => emit("table2-latency", &ex::table2_latency(&sweep(side)), &csv),
        "optimality" => emit("optimality", &ex::optimality(&sweep(side)), &csv),
        "fig1-ordering" => print!("{}", ex::fig1_ordering(side, 3)),
        "fig3-regions" => print!("{}", ex::fig3_regions(4)),
        "lemma52-units" => print!("{}", ex::lemma52_units(6)),
        "superfw-ops" => print!("{}", ex::superfw_ops(&[8, 12, 16, 24, 32], 4)),
        "r4-ablation" => print!("{}", ex::r4_ablation(side, &[3, 4, 5])),
        "layout-ablation" => print!("{}", ex::layout_ablation(side, 7, 2)),
        "separator-cost" => print!("{}", ex::separator_cost(side, &heights)),
        "separator-sweep" => print!("{}", ex::separator_sweep(3)),
        "per-level" => print!("{}", ex::per_level_costs(side, 4)),
        "figures" => {
            let dir = std::path::Path::new("target/figures");
            let written =
                apsp_bench::figures::write_figures(dir, &sweep(side)).expect("write figures");
            for p in written {
                println!("wrote {}", p.display());
            }
            // communication-matrix heatmap of a 49-rank sparse solve
            use apsp_core::launch::{launch, LaunchSpec};
            use apsp_core::sparse2d::{R4Strategy, Sparse2d};
            use apsp_core::SupernodalLayout;
            let g = apsp_graph::generators::grid2d(
                side,
                side,
                apsp_graph::generators::WeightKind::Unit,
                0,
            );
            let nd = apsp_partition::grid_nd(side, side, 3);
            let layout = SupernodalLayout::from_ordering(&nd);
            let gp = g.permuted(&nd.perm);
            let profile = launch(
                &Sparse2d::new(&layout, &gp, R4Strategy::OneToOne),
                &LaunchSpec { profile: true, ..Default::default() },
            )
            .expect("fault-free launch cannot fail")
            .result
            .report
            .profile
            .expect("a profiled run carries its profile");
            let svg = apsp_bench::figures::comm_matrix_svg(
                &profile.comm_matrix,
                "2D-SPARSE-APSP communication matrix (p = 49, words sent)",
            );
            let path = dir.join("comm_matrix.svg");
            std::fs::write(&path, svg).expect("write comm matrix");
            println!("wrote {}", path.display());
        }
        "regimes" => print!("{}", ex::algorithm_regimes(side, 3)),
        "updates" => print!("{}", ex::update_costs(side, 3, &[1, 4, 16])),
        "directed" => print!("{}", ex::directed_overhead(side, &[2, 3])),
        "phases" => {
            println!("== per elimination level (depth 0) ==");
            print!("{}", ex::phase_attribution(side, 3, 0));
            println!("== per R-unit (depth 1) ==");
            print!("{}", ex::phase_attribution(side, 3, 1));
        }
        "all" => {
            let points = sweep(side);
            println!("== E1: Table 2 — memory (words/rank) ==");
            println!("{}", ex::table2_memory(&points));
            println!("== E2: Table 2 — bandwidth (critical-path words) ==");
            println!("{}", ex::table2_bandwidth(&points));
            println!("== E3: Table 2 — latency (critical-path messages) ==");
            println!("{}", ex::table2_latency(&points));
            println!("== E10: Theorem 6.5 — near-optimality ratios ==");
            println!("{}", ex::optimality(&points));
            println!("== E4: Fig. 1 — empty-block census ==");
            println!("{}", ex::fig1_ordering(side, 3));
            println!("== E5: Fig. 2/3 — regions per level (h = 4) ==");
            println!("{}", ex::fig3_regions(4));
            println!("== E6: Lemmas 5.2/5.3 — computing-unit counts ==");
            println!("{}", ex::lemma52_units(6));
            println!("== E7: SuperFW vs classical FW operations ==");
            println!("{}", ex::superfw_ops(&[8, 12, 16, 24, 32], 4));
            println!("== E8: §5.2.2 — R4 scheduling ablation ==");
            println!("{}", ex::r4_ablation(side, &[3, 4, 5]));
            println!("== E9: §5.1 — layout ablation ==");
            println!("{}", ex::layout_ablation(side, 7, 2));
            println!("== E11: §5.4.4 — separator pipeline cost ==");
            println!("{}", ex::separator_cost(side, &heights));
            println!("== E12: §5.5 — separator sweep at p = 49 ==");
            println!("{}", ex::separator_sweep(3));
            println!("== E13: Lemmas 5.6/5.8/5.9 — per-level costs (p = 225) ==");
            println!("{}", ex::per_level_costs(side, 4));
            println!("== E15: algorithm regimes (p = 49) ==");
            println!("{}", ex::algorithm_regimes(side, 3));
            println!("== E16: batched decrease updates (extension; p = 49) ==");
            println!("{}", ex::update_costs(side, 3, &[1, 4, 16]));
            println!("== E17: directed-mode overhead (extension) ==");
            println!("{}", ex::directed_overhead(side, &[2, 3]));
            println!("== E18: phase attribution (observability extension; p = 49) ==");
            println!("{}", ex::phase_attribution(side, 3, 0));
            println!("{}", ex::phase_attribution(side, 3, 1));
        }
        other => {
            eprintln!("unknown command {other:?}; see the module docs for the list");
            std::process::exit(2);
        }
    }
}
