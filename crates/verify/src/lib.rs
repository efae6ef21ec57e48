#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # apsp-verify
//!
//! Protocol verifier for simnet programs — the workspace's answer to
//! "how do I know this solver's communication schedule is well-formed
//! before a chaos run finds out?" (see `docs/VERIFICATION.md`).
//!
//! A recorded run collects each rank's logical communication events
//! (sends, receives, collective entries, phase commits, spans), and the
//! static linter ([`lint::lint_scripts`]) checks global invariants
//! *without executing delivery*: every send matched by a receive with the
//! same tag and word count, no tag reused across phase boundaries, every
//! group entering collectives in the same order with consistent roots,
//! every phase quiescent at its `commit_phase` cut, and all trace spans
//! balanced. A run that dies — a tag mismatch, a rank down, a hang the
//! watchdog turned into a typed error — adds that error as an
//! `execution` violation, and its partial scripts are linted all the
//! same. Both machines give this verdict.
//!
//! Recording never touches the §3.1 cost clocks: a verified program's
//! subsequent plain run is byte-identical to one that was never
//! verified.
//!
//! A second, fully static layer — the **cost-model auditor** — lives in
//! [`costcheck`] (growth-exponent fits of recorded ledgers against the
//! paper's Table 2 closed forms) and [`srclint`] (a repo-invariant source
//! linter); both back the `apsp audit` CLI subcommand.

pub mod costcheck;
pub mod fixture;
pub mod lint;
pub mod srclint;
pub mod violation;

pub use costcheck::{fit_conformance, fit_loglog, Conformance, CostReport, LogLogFit, Observation};
pub use fixture::{bad_fixture, flood_exchange};
pub use lint::lint_scripts;
pub use srclint::{lint_bad_fixture, lint_bad_sync_fixture, lint_sources, SrcReport, SrcViolation};
pub use violation::Violation;

use apsp_simnet::sync::Arc;
use apsp_simnet::{run_epoch, Comm, CommEvent, MachineError, RunReport, ScriptBoard, SimMeter};

/// The outcome of [`verify_program`].
#[derive(Debug)]
pub struct VerifyReport {
    /// Rank count verified.
    pub p: usize,
    /// Total events recorded across all ranks.
    pub events: usize,
    /// Everything the lint found, then the error the run died of.
    pub violations: Vec<Violation>,
    /// The run's §3.1 cost report (`None` when it died, or on a machine
    /// without a cost model).
    pub report: Option<RunReport>,
}

impl VerifyReport {
    /// `true` when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable multi-line report (what `apsp verify` prints).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.is_clean() {
            let _ = write!(out, "verify: CLEAN — {} rank(s), {} event(s)", self.p, self.events);
        } else {
            let _ = write!(
                out,
                "verify: FAILED — {} violation(s) on {} rank(s) ({} event(s))",
                self.violations.len(),
                self.p,
                self.events
            );
            for (i, v) in self.violations.iter().enumerate() {
                let rendered = v.to_string().replace('\n', "\n      ");
                let _ = write!(out, "\n  [{}] {} — {}", i + 1, v.kind(), rendered);
            }
        }
        out
    }
}

/// Verifies `f` on `p` simulated ranks: records every rank's comm script
/// and lints it. The scripts survive a run that dies, so the lint sees
/// what was recorded up to the failure, and the typed error becomes an
/// `execution` violation — a hang after `APSP_WATCHDOG_MS` of machine-wide
/// inactivity included.
pub fn verify_program<T, F>(p: usize, f: F) -> VerifyReport
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    let board = Arc::new(ScriptBoard::new(p));
    let meter = |rank| SimMeter::new(rank, false);
    let (report, died) = match run_epoch(p, &f, None, None, Some(&board), meter) {
        Ok((run, _)) => (Some(run.report), None),
        Err(e) => (None, Some(e)),
    };
    VerifyReport { report, ..verdict(p, &board.take(), died) }
}

/// Builds a [`VerifyReport`] from the outcome of a recorded launch on any
/// machine — the scripts of a run that completed, or the typed error it
/// died with (hang, rank down, protocol mismatch) as an `execution`
/// violation. The native backend records the same logical events
/// ([`apsp_simnet::CommEvent`]) over real channel traffic, so the lint's
/// invariants transfer verbatim.
pub fn lint_recorded_outcome(
    p: usize,
    outcome: Result<Vec<Vec<CommEvent>>, MachineError>,
) -> VerifyReport {
    match outcome {
        Ok(scripts) => verdict(p, &scripts, None),
        Err(e) => verdict(p, &[], Some(e)),
    }
}

/// The lint of `scripts`, then the error the run `died` of, if any.
fn verdict(p: usize, scripts: &[Vec<CommEvent>], died: Option<MachineError>) -> VerifyReport {
    let _wall = apsp_metrics::time_phase("verify");
    let events = scripts.iter().map(Vec::len).sum();
    let mut violations = lint_scripts(scripts);
    violations.extend(died.map(|e| Violation::Execution { error: e.to_string() }));
    let reg = apsp_metrics::global();
    reg.counter("apsp_verify_reports_total", "Verification passes completed.").inc();
    reg.counter("apsp_verify_violations_total", "Protocol violations found by the verifier.")
        .add(violations.len() as u64);
    VerifyReport { p, events, violations, report: None }
}
