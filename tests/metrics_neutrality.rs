//! Golden test: metrics are provably neutral to the §3.1 cost ledgers.
//!
//! The observability layer (kernel counters, machine counters, phase
//! wall-clock timers) must never touch a `Comm` or a `Clocks` — enabling
//! it cannot change a single byte of a solve's distances, its cost
//! report, or a `paper_report` table. This test pins that: everything is
//! rendered to text with metrics off, then again with the global registry
//! enabled, and the two renderings must be identical.
//!
//! One process-global registry means the "off" and "on" runs must happen
//! in a fixed order inside one test (Rust runs tests in one process).

use sparse_apsp::bench::{table2_bandwidth, table2_latency, table2_memory, table2_sweep};
use sparse_apsp::prelude::*;

/// Renders the parts of an [`ApspRun`] the cost model owns.
fn render_run(run: &ApspRun) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let r = &run.report;
    let _ = writeln!(
        s,
        "L={} B={} C={} msgs={} words={} peak={}",
        r.critical_latency(),
        r.critical_bandwidth(),
        r.critical_compute(),
        r.total_messages(),
        r.total_words(),
        r.max_peak_words()
    );
    for (i, stats) in r.per_rank.iter().enumerate() {
        let _ = writeln!(
            s,
            "rank {i}: {} {} {} {} {}",
            stats.clocks.latency,
            stats.clocks.bandwidth,
            stats.clocks.compute,
            stats.sent_messages,
            stats.sent_words
        );
    }
    let _ = writeln!(s, "levels={:?}", run.level_costs);
    for i in 0..run.dist.n() {
        for j in 0..run.dist.n() {
            let _ = write!(s, "{};", run.dist.get(i, j).to_bits());
        }
    }
    s
}

fn solve_and_render(g: &Csr) -> String {
    render_run(&SparseApsp::with_height(2).run(g))
}

fn fw2d_render(g: &Csr) -> String {
    let out = fw2d(g, 3);
    format!(
        "L={} B={} C={}",
        out.report.critical_latency(),
        out.report.critical_bandwidth(),
        out.report.critical_compute()
    )
}

fn paper_tables() -> String {
    let points = table2_sweep(8, &[2]);
    format!(
        "{}\n{}\n{}",
        table2_memory(&points).to_csv(),
        table2_bandwidth(&points).to_csv(),
        table2_latency(&points).to_csv()
    )
}

#[test]
fn enabling_metrics_leaves_every_ledger_byte_identical() {
    let g = grid2d(8, 8, WeightKind::Unit, 0);

    // pass 1: metrics off (counters still count — the enabled flag only
    // gates the wall-clock timers, which is exactly what could perturb
    // scheduling if it were done wrong)
    assert!(
        !sparse_apsp::metrics::is_enabled(),
        "test must run before anything enables the global registry"
    );
    let off_sparse = solve_and_render(&g);
    let off_fw2d = fw2d_render(&g);
    let off_tables = paper_tables();

    // pass 2: metrics on
    sparse_apsp::metrics::enable();
    let on_sparse = solve_and_render(&g);
    let on_fw2d = fw2d_render(&g);
    let on_tables = paper_tables();

    assert_eq!(off_sparse, on_sparse, "sparse2d ledgers changed under metrics");
    assert_eq!(off_fw2d, on_fw2d, "fw2d ledgers changed under metrics");
    assert_eq!(off_tables, on_tables, "paper_report tables changed under metrics");

    // and the runs actually hit the observability layer: phase timers
    // recorded wall samples, kernel counters advanced
    let snap = sparse_apsp::metrics::global().snapshot();
    assert!(snap.counter_value("apsp_simnet_runs_total") > 0);
    assert!(
        snap.counter_value("apsp_minplus_gemm_ops_total")
            + snap.counter_value("apsp_minplus_fw_ops_total")
            > 0
    );
    let prom = sparse_apsp::metrics::prometheus_text(&snap);
    assert!(
        prom.contains("apsp_phase_wall_ns_count{phase=\"solve-sparse2d\"}"),
        "enabled pass must record the solve phase timer"
    );
}

// ---------------------------------------------------------------------------
// Transport-neutrality golden: routing the solvers through the `Transport`
// trait must leave every byte of the simulator's output unchanged — comm
// scripts, span ledgers, trace events, per-rank clocks, and distance bits.
// The golden file was generated against the pre-refactor direct-`Comm`
// code; regenerate (deliberately!) with `UPDATE_GOLDEN=1 cargo test`.
// ---------------------------------------------------------------------------

use sparse_apsp::simnet::CommEvent;
use std::fmt::Write as _;

fn render_report(s: &mut String, r: &RunReport) {
    let _ = writeln!(
        s,
        "L={} B={} C={} msgs={} words={} peak={}",
        r.critical_latency(),
        r.critical_bandwidth(),
        r.critical_compute(),
        r.total_messages(),
        r.total_words(),
        r.max_peak_words()
    );
    for (i, stats) in r.per_rank.iter().enumerate() {
        let _ = writeln!(
            s,
            "rank {i}: {} {} {} {} {}",
            stats.clocks.latency,
            stats.clocks.bandwidth,
            stats.clocks.compute,
            stats.sent_messages,
            stats.sent_words
        );
    }
    if let Some(profile) = &r.profile {
        for (i, rp) in profile.per_rank.iter().enumerate() {
            let _ = writeln!(s, "profile[{i}].final={:?}", rp.final_clocks);
            for span in &rp.ledger.spans {
                let _ = writeln!(s, "  span {:?}", span);
            }
            for send in &rp.sends {
                let _ = writeln!(s, "  send {:?}", send);
            }
            for ev in &rp.events {
                let _ = writeln!(s, "  event {:?}", ev);
            }
        }
        let _ = writeln!(s, "comm_matrix={:?}", profile.comm_matrix);
    }
}

fn render_dist(s: &mut String, d: &DenseDist) {
    for i in 0..d.n() {
        for j in 0..d.n() {
            let _ = write!(s, "{};", d.get(i, j).to_bits());
        }
        let _ = writeln!(s);
    }
}

fn render_scripts(s: &mut String, scripts: &[Vec<CommEvent>]) {
    for (rank, script) in scripts.iter().enumerate() {
        let _ = writeln!(s, "script[{rank}]:");
        for ev in script {
            let _ = writeln!(s, "  {ev:?}");
        }
    }
}

fn recorded<S: Solver>(solver: &S) -> Launched<S::Result> {
    launch(solver, &LaunchSpec { record: true, ..Default::default() })
        .expect("fault-free launch cannot fail")
}

fn profiled<S: Solver>(solver: &S) -> S::Result {
    launch(solver, &LaunchSpec { profile: true, ..Default::default() })
        .expect("fault-free launch cannot fail")
        .result
}

/// Renders every simulator-owned artifact of a fixed solve matrix: all
/// four distributed solvers, recorded (comm scripts) and profiled (span
/// ledgers + trace events) where the entry points exist.
fn transport_digest() -> String {
    let g = grid2d(5, 5, WeightKind::Integer { max: 9 }, 3);
    let mut s = String::new();

    let _ = writeln!(s, "== sparse2d recorded ==");
    let (run, scripts) = SparseApsp::with_height(2).run_recorded(&g);
    render_report(&mut s, &run.report);
    let _ = writeln!(s, "levels={:?}", run.level_costs);
    render_scripts(&mut s, &scripts);
    render_dist(&mut s, &run.dist);

    let _ = writeln!(s, "== sparse2d profiled ==");
    let run = SparseApsp::new(SparseApspConfig { height: 2, profile: true, ..Default::default() })
        .run(&g);
    render_report(&mut s, &run.report);
    render_dist(&mut s, &run.dist);

    let _ = writeln!(s, "== fw2d recorded ==");
    let Launched { result: out, scripts, .. } = recorded(&Fw2d::new(&g, 3));
    render_report(&mut s, &out.report);
    render_scripts(&mut s, &scripts);
    render_dist(&mut s, &out.dist);

    let _ = writeln!(s, "== fw2d profiled ==");
    let out = profiled(&Fw2d::new(&g, 3));
    render_report(&mut s, &out.report);

    let _ = writeln!(s, "== dcapsp recorded ==");
    let Launched { result: out, scripts, .. } = recorded(&DcApsp::new(&g, 3, 1));
    render_report(&mut s, &out.report);
    render_scripts(&mut s, &scripts);
    render_dist(&mut s, &out.dist);

    let _ = writeln!(s, "== dcapsp profiled ==");
    let out = profiled(&DcApsp::new(&g, 3, 1));
    render_report(&mut s, &out.report);

    let _ = writeln!(s, "== djohnson recorded ==");
    let Launched { result: out, scripts, .. } = recorded(&DJohnson::new(&g, 4));
    render_report(&mut s, &out.report);
    render_scripts(&mut s, &scripts);
    render_dist(&mut s, &out.dist);

    // the rest of the sparse2d schedule matrix: both R⁴ strategies, both
    // orientations
    let nd = grid_nd(5, 5, 2);
    let layout = SupernodalLayout::from_ordering(&nd);
    let gp = g.permuted(&nd.perm);
    let dgp = asymmetric(&g).permuted(&nd.perm);
    let seq = R4Strategy::SequentialUnits;
    for (name, input, r4) in [
        ("sequential-units", Input::from(&gp), seq),
        ("directed one-to-one", Input::from(&dgp), R4Strategy::OneToOne),
        ("directed sequential-units", Input::from(&dgp), seq),
    ] {
        let _ = writeln!(s, "== sparse2d {name} recorded ==");
        let Launched { result, scripts, .. } = recorded(&Sparse2d::new(&layout, input, r4));
        render_report(&mut s, &result.report);
        let _ = writeln!(s, "levels={:?}", result.level_costs());
        render_scripts(&mut s, &scripts);
        render_dist(&mut s, &result.dist_eliminated);
    }

    // h = 3 is the smallest tree with off-diagonal R⁴ units and a transpose
    // mirror: one summary line plus a digest of the full rendering per run.
    // The path leaves most blocks all-∞.
    let _ = writeln!(s, "== sparse2d h=3 digests ==");
    let grid = grid2d(8, 8, WeightKind::Integer { max: 9 }, 5);
    let path = path(40, WeightKind::Integer { max: 5 }, 3);
    for (label, g, nd) in [
        ("grid8x8", &grid, grid_nd(8, 8, 3)),
        ("path40", &path, nested_dissection(&path, 3, &NdOptions::default())),
    ] {
        let layout = SupernodalLayout::from_ordering(&nd);
        let gp = g.permuted(&nd.perm);
        let dgp = asymmetric(g).permuted(&nd.perm);
        for r4 in [R4Strategy::OneToOne, R4Strategy::SequentialUnits] {
            for (orientation, input) in
                [("undirected", Input::from(&gp)), ("directed", Input::from(&dgp))]
            {
                let spec = LaunchSpec { record: true, profile: true, ..Default::default() };
                let Launched { result, scripts, .. } =
                    launch(&Sparse2d::new(&layout, input, r4), &spec)
                        .expect("fault-free launch cannot fail");
                let mut full = String::new();
                render_report(&mut full, &result.report);
                let _ = writeln!(full, "level_clocks={:?}", result.level_clocks);
                render_scripts(&mut full, &scripts);
                render_dist(&mut full, &result.dist_eliminated);
                let summary = full.lines().next().unwrap_or_default();
                let _ = writeln!(
                    s,
                    "{label} {r4:?} {orientation}: {summary} digest={:016x}",
                    fnv1a(full.as_bytes())
                );
            }
        }
    }

    s
}

/// The directed twin of an undirected graph: every edge keeps its weight
/// one way and gets a deterministic, different weight the other way.
fn asymmetric(g: &Csr) -> DiCsr {
    let mut b = DiGraphBuilder::new(g.n());
    for (u, v, w) in g.edges() {
        b.add_arc(u, v, w);
        b.add_arc(v, u, w + ((3 * u + 7 * v) % 5) as f64);
    }
    b.build()
}

/// 64-bit FNV-1a: a stable digest for renderings too long to pin in full.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn transport_trait_path_is_byte_identical_to_pre_refactor_golden() {
    let digest = transport_digest();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/transport_digest.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &digest).expect("failed to write the golden digest file");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("tests/golden/transport_digest.txt missing — regenerate with UPDATE_GOLDEN=1");
    if digest != golden {
        for (i, (got, want)) in digest.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "simulator output drifted from the pre-refactor golden at line {}",
                i + 1
            );
        }
        panic!(
            "simulator output drifted from the pre-refactor golden: \
             lengths differ ({} vs {} bytes)",
            digest.len(),
            golden.len()
        );
    }
}
