//! Golden tests for the static audit layer: the cost-model auditor
//! (Theorems 5.7/5.10 and Table 2 as executable exponent assertions)
//! and the repo-invariant source linter, plus the two seeded regression
//! fixtures that prove each check can actually fire.

use std::path::Path;

use sparse_apsp::audit::{audit_cost_model, audit_flood_fixture, AuditOptions};
use sparse_apsp::verify::{lint_bad_fixture, lint_bad_sync_fixture, lint_sources};

#[test]
fn every_solver_conforms_on_the_default_grid() {
    let report = audit_cost_model(&AuditOptions::default());
    assert!(report.is_clean(), "cost audit regressed:\n{}", report.render());
    for solver in ["sparse2d", "fw2d", "dcapsp", "djohnson"] {
        let n = report.checks.iter().filter(|c| c.solver == solver).count();
        assert!(n >= 6, "expected >= 6 conformance checks for {solver}, got {n}");
    }
    // phase attribution reached into every solver: the sparse rounds, the
    // dense pivot/SUMMA/base-case spans, and johnson's bare "main" all
    // earned their own per-phase fits
    for phase in ["r2", "r3", "r4", "pivot", "summa", "base-fw", "main"] {
        assert!(
            report.checks.iter().any(|c| c.phase == phase),
            "no conformance fit for phase {phase}:\n{}",
            report.render()
        );
    }
}

#[test]
fn solvers_conform_at_sixteen_ranks_and_below() {
    // the acceptance grid: every machine capped at p <= 16, where the
    // dense sweeps still have three points; the sparse p-sweep collapses
    // to its single p = 9 machine and is skipped rather than fitted
    let report = audit_cost_model(&AuditOptions { max_p: 16, ..AuditOptions::default() });
    assert!(report.is_clean(), "p <= 16 audit regressed:\n{}", report.render());
    assert!(
        !report.checks.iter().any(|c| c.solver == "sparse2d" && c.sweep == "p"),
        "a one-point sweep must be skipped, not fitted"
    );
    assert!(report.checks.iter().any(|c| c.solver == "sparse2d" && c.sweep == "n"));
}

#[test]
fn flood_fixture_is_rejected_with_a_per_phase_report() {
    let report = audit_flood_fixture(AuditOptions::DEFAULT_TOLERANCE);
    assert!(!report.is_clean(), "the over-communicating fixture must fail the audit");
    let failures = report.failures();
    // total and the "flood" span both overshoot on latency and bandwidth,
    // and the replicated blocks blow the memory bound
    assert!(failures.len() >= 4, "expected broad overshoot, got:\n{}", report.render());
    assert!(failures.iter().any(|c| c.phase == "flood"), "per-phase attribution missing");
    // failures are ranked worst-first so the report leads with the story
    assert!(failures.windows(2).all(|w| w[0].excess() >= w[1].excess()));
    let text = report.render();
    for needle in ["VIOLATION", "flood-fixture", "Thm 5.7", "Thm 5.10", "exceeds bound"] {
        assert!(text.contains(needle), "report lacks {needle:?}:\n{text}");
    }
}

#[test]
fn the_source_tree_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_sources(root).expect("workspace sources are readable");
    assert!(report.is_clean(), "source lint regressed:\n{}", report.render());
    assert!(
        report.files_scanned >= 60,
        "only {} files scanned — walker broke?",
        report.files_scanned
    );
    assert!(report.allowed >= 3, "the sanctioned audit:allow sites disappeared");
}

#[test]
fn bad_source_fixture_fires_every_rule() {
    let violations = lint_bad_fixture();
    for rule in ["wall-clock", "ledger-mutation", "raw-thread", "unwrap", "stdout-print"] {
        assert!(
            violations.iter().any(|v| v.rule == rule),
            "rule {rule} stayed silent on the seeded fixture: {violations:?}"
        );
    }
    // every violation carries an exact position and a printable excerpt
    for v in &violations {
        assert!(v.line > 0 && !v.excerpt.is_empty());
    }
}

#[test]
fn bad_sync_fixture_fires_the_concurrency_rules() {
    let violations = lint_bad_sync_fixture();
    for rule in ["unsafe-safety", "raw-sync"] {
        assert!(
            violations.iter().any(|v| v.rule == rule),
            "rule {rule} stayed silent on the seeded fixture: {violations:?}"
        );
    }
    // and nothing else fires: the fixture is concurrency-bad, not
    // kitchen-sink-bad — a stray hit here means a rule's scope leaked
    assert!(
        violations.iter().all(|v| v.rule == "unsafe-safety" || v.rule == "raw-sync"),
        "unexpected rules fired: {violations:?}"
    );
    for v in &violations {
        assert_eq!(v.file, "crates/transport/src/badsync.rs");
        assert!(v.line > 0 && !v.excerpt.is_empty());
    }
}
