//! Protocol-verifier acceptance matrix: every real solver's communication
//! schedule verifies clean at every grid size up to p = 16, the seeded-bad
//! fixture fails with both of its bugs named, and verification recording
//! is zero-cost to the §3.1 ledgers (byte-identical reports).
//!
//! Two tests here end in a hang and shorten the watchdog window with
//! `APSP_WATCHDOG_MS`. Both set the same value, so whichever runs first,
//! no test in this binary ever sees another window.

use sparse_apsp::prelude::*;
use sparse_apsp::verify::VerifyReport;

/// The watchdog window the hanging tests below run under.
fn short_watchdog() {
    std::env::set_var("APSP_WATCHDOG_MS", "300");
}

fn assert_clean(report: &VerifyReport, what: &str) {
    assert!(report.is_clean(), "{what} failed verification:\n{}", report.render());
    assert!(report.report.is_some(), "{what}: clean baseline must carry a cost report");
}

/// A clean native verdict: no violations, no cost report (the native
/// machine has no §3.1 clocks), and a recorded comm script.
fn assert_native_clean(report: &VerifyReport, what: &str) {
    assert!(report.is_clean(), "{what} failed native verification:\n{}", report.render());
    assert!(report.report.is_none(), "{what}: the native machine has no cost report");
    assert!(report.events > 0, "{what}: a native run records its comm script");
}

/// fw2d on every grid up to p = 16: p = 1, 4, 9, 16.
#[test]
fn fw2d_verifies_clean_at_every_grid_size() {
    let g = grid2d(6, 6, WeightKind::Integer { max: 5 }, 1);
    for n_grid in 1..=4 {
        let report = verify(&Fw2d::new(&g, n_grid), Backend::Sim);
        assert_clean(&report, &format!("fw2d n_grid={n_grid}"));
    }
}

/// 2D-DC-APSP on every grid up to p = 16, at two recursion depths.
#[test]
fn dcapsp_verifies_clean_at_every_grid_size() {
    let g = grid2d(6, 6, WeightKind::Integer { max: 5 }, 2);
    for n_grid in 1..=4 {
        for depth in [0, 1] {
            let solver = DcApsp::new(&g, n_grid, depth);
            let report = verify(&solver, Backend::Sim);
            assert_clean(&report, &format!("dcapsp n_grid={n_grid} depth={depth}"));
        }
    }
}

/// Distributed Johnson on every rank count p = 1, 4, 9, 16.
#[test]
fn djohnson_verifies_clean_at_every_grid_size() {
    let g = grid2d(6, 6, WeightKind::Integer { max: 5 }, 3);
    for n_grid in 1usize..=4 {
        let p = n_grid * n_grid;
        let report = verify(&DJohnson::new(&g, p), Backend::Sim);
        assert_clean(&report, &format!("djohnson p={p}"));
    }
}

/// 2D-SPARSE-APSP at h = 1 (p = 1) and h = 2 (p = 9).
#[test]
fn sparse2d_verifies_clean_at_every_explorable_height() {
    let g = grid2d(6, 6, WeightKind::Integer { max: 5 }, 4);
    for height in [1u32, 2] {
        let report = SparseApsp::with_height(height).verify(&g);
        assert_clean(&report, &format!("sparse2d height={height}"));
    }
}

/// Solver options change the schedule; the verifier must accept them all.
#[test]
fn sparse2d_option_variants_verify_clean() {
    let g = grid2d(6, 6, WeightKind::Integer { max: 5 }, 5);
    for r4 in [R4Strategy::OneToOne, R4Strategy::SequentialUnits] {
        let config = SparseApspConfig { height: 2, r4, ..Default::default() };
        let report = SparseApsp::new(config).verify(&g);
        assert_clean(&report, &format!("sparse2d r4={r4:?}"));
    }
}

/// Every solver's *native* recording passes the same lint the
/// simulator's scripts pass: FIFO send/recv pairing, tag freshness,
/// collective order, checkpoint quiescence and span balance hold over
/// real OS threads too.
#[test]
fn native_recordings_lint_clean_for_every_solver() {
    let g = grid2d(6, 6, WeightKind::Integer { max: 5 }, 7);
    let native = Backend::Native;
    assert_native_clean(&verify(&Fw2d::new(&g, 3), native), "fw2d native n_grid=3");
    let report = verify(&DcApsp::new(&g, 3, 1), native);
    assert_native_clean(&report, "dcapsp native n_grid=3 depth=1");
    assert_native_clean(&verify(&DJohnson::new(&g, 4), native), "djohnson native p=4");
    let config = SparseApspConfig { height: 2, backend: Backend::Native, ..Default::default() };
    let report = SparseApsp::new(config).verify(&g);
    assert_native_clean(&report, "sparse2d native height=2");
}

/// The native and simulated recordings of one solver agree on the event
/// count: the backends record the same logical schedule.
#[test]
fn native_and_sim_recordings_have_matching_event_counts() {
    let g = grid2d(6, 6, WeightKind::Integer { max: 5 }, 8);
    let sim = verify(&Fw2d::new(&g, 3), Backend::Sim);
    let native = verify(&Fw2d::new(&g, 3), Backend::Native);
    assert_clean(&sim, "fw2d sim n_grid=3");
    assert_native_clean(&native, "fw2d native n_grid=3");
    assert_eq!(sim.events, native.events, "the two backends record different schedules");
    assert_eq!(sim.p, native.p);
}

/// A native run that dies (here: a genuine mutual-wait hang, converted
/// by the watchdog into the typed HangError) surfaces as a typed
/// `execution` violation — never a process hang or a silent pass.
#[test]
fn native_lint_reports_a_typed_execution_violation_on_failure() {
    short_watchdog();
    let outcome =
        NativeMachine::launch(2, &MachineSpec { record: true, ..Default::default() }, |comm| {
            let peer = comm.rank() ^ 1;
            comm.recv(peer, 42) // both wait: protocol deadlock
        });
    let report = sparse_apsp::verify::lint_recorded_outcome(2, outcome.map(|run| run.scripts));
    assert!(!report.is_clean(), "a hung run must not verify clean");
    let kinds: Vec<&str> = report.violations.iter().map(|v| v.kind()).collect();
    assert!(kinds.contains(&"execution"), "expected a typed execution violation: {kinds:?}");
}

/// The seeded-bad fixture fails with both of its bugs: the lint's tag
/// reuse, read from the scripts the dead run left behind, and the
/// watchdog's typed hang on the 2 ⇄ 3 cross receive — the verifier's own
/// canary.
#[test]
fn bad_fixture_is_caught_by_both_layers() {
    short_watchdog();
    let report = sparse_apsp::verify::verify_program(4, sparse_apsp::verify::bad_fixture);
    let kinds: Vec<&str> = report.violations.iter().map(|v| v.kind()).collect();
    assert!(kinds.contains(&"tag-reuse-across-phases"), "lint miss: {kinds:?}");
    assert!(kinds.contains(&"execution"), "hang miss: {kinds:?}");
    let text = report.render();
    for needle in ["machine hung", "2⇐3", "3⇐2"] {
        assert!(text.contains(needle), "`{needle}` missing from {text}");
    }
}

/// Zero-cost pin: a solve after verification is byte-identical to one
/// never verified — recording must not touch the §3.1 cost ledgers.
#[test]
fn verification_is_zero_cost_to_the_ledgers() {
    let g = grid2d(6, 6, WeightKind::Integer { max: 5 }, 6);
    let config = SparseApspConfig { profile: true, ..Default::default() };
    let plain = SparseApsp::new(config).run(&g);
    let verified_then = {
        let report = SparseApsp::new(config).verify(&g);
        assert_clean(&report, "sparse2d pre-solve verify");
        SparseApsp::new(config).run(&g)
    };
    assert!(plain.dist.first_mismatch(&verified_then.dist, 0.0).is_none());
    assert_eq!(plain.report.per_rank, verified_then.report.per_rank);
    assert_eq!(plain.report.profile, verified_then.report.profile);
    // and the verifier's own run sees the same clocks as a plain solve:
    // recording is invisible to the cost model itself
    let vreport = SparseApsp::new(config).verify(&g);
    let recorded = vreport.report.expect("clean");
    assert_eq!(recorded.per_rank, plain.report.per_rank);
}
