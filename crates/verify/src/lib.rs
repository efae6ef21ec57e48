#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::print_stdout, unsafe_op_in_unsafe_fn))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc))]

//! # apsp-verify
//!
//! Protocol verifier for simnet programs — the workspace's answer to
//! "how do I know this solver's communication schedule is well-formed
//! before a chaos run finds out?" (see `docs/VERIFICATION.md`).
//!
//! A recorded run collects each rank's logical communication events
//! (sends, receives, collective entries, phase commits, spans) — the
//! event log the §3.1 bill is folded from, whose cost-only events
//! ([`CommEvent::is_cost_only`]) the verifier skips — and the
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
//! Recording never changes the §3.1 bill: a verified program's
//! subsequent plain run is byte-identical to one that was never
//! verified.
//!
//! A second, fully static layer — the **cost-model auditor** — lives in
//! [`costcheck`] (growth-exponent fits of recorded ledgers against the
//! paper's Table 2 closed forms) and backs the `apsp audit` CLI
//! subcommand. The repo's source rules (no wall clocks, ledger writes,
//! raw threads or unjustified `unsafe` where they would bypass the cost
//! model or the loom shim) are compiler and clippy checks, not code here:
//! `docs/VERIFICATION.md` lists where each one lives.

pub mod costcheck;
pub mod fixture;
pub mod lint;
pub mod violation;

pub use costcheck::{fit_conformance, fit_loglog, Conformance, CostReport, LogLogFit, Observation};
pub use fixture::{bad_fixture, flood_exchange};
pub use lint::lint_scripts;
pub use violation::Violation;

use apsp_simnet::{fold, run_epoch, Comm, CommEvent, Log, MachineError, RunReport};

/// The outcome of [`verify_program`].
#[derive(Debug)]
pub struct VerifyReport {
    /// Rank count verified.
    pub p: usize,
    /// Total logical events recorded across all ranks.
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
    let (outcome, logs) = run_epoch(p, &f, None, None, Log::All);
    let died = outcome.err();
    let report = died.is_none().then(|| fold(&logs, false).expect("a machine's own log folds"));
    VerifyReport { report, ..verdict(p, &logs, died) }
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
    let events = scripts.iter().flatten().filter(|ev| !ev.is_cost_only()).count();
    let mut violations = lint_scripts(scripts);
    violations.extend(died.map(|e| Violation::Execution { error: e.to_string() }));
    let reg = apsp_metrics::global();
    reg.counter("apsp_verify_reports_total", "Verification passes completed.").inc();
    reg.counter("apsp_verify_violations_total", "Protocol violations found by the verifier.")
        .add(violations.len() as u64);
    VerifyReport { p, events, violations, report: None }
}
