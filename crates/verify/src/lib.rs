#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # apsp-verify
//!
//! Protocol verifier for simnet programs — the workspace's answer to
//! "how do I know this solver's communication schedule is well-formed
//! before a chaos run finds out?". Two layers (see `docs/VERIFICATION.md`):
//!
//! * **Layer 1 — static comm-script lint** ([`lint::lint_scripts`]): a
//!   recorded run collects each rank's logical communication events
//!   (sends, receives, collective entries, phase commits, spans), and the
//!   linter checks global invariants *without executing delivery*: every
//!   send matched by a receive with the same tag and word count, no tag
//!   reused across phase boundaries, every group entering collectives in
//!   the same order with consistent roots, every phase quiescent at its
//!   `commit_phase` cut, and all trace spans balanced.
//! * **Layer 2 — deterministic schedule explorer** ([`explore`]): for
//!   programs with wildcard receives, a bounded DPOR-style walk over
//!   delivery schedules that detects deadlocks (wait-for-graph cycles,
//!   found structurally by the governed machine) and order-sensitive
//!   nondeterminism (two schedules, two different outputs), shrinking any
//!   witness to a minimal schedule that replays bit-identically.
//!
//! Recording and governing never touch the §3.1 cost clocks: a verified
//! program's subsequent plain run is byte-identical to one that was never
//! verified.
//!
//! A third, fully static layer — the **cost-model auditor** — lives in
//! [`costcheck`] (growth-exponent fits of recorded ledgers against the
//! paper's Table 2 closed forms) and [`srclint`] (a repo-invariant source
//! linter); both back the `apsp audit` CLI subcommand.

pub mod costcheck;
pub mod explore;
pub mod fixture;
pub mod lint;
pub mod srclint;
pub mod violation;

pub use costcheck::{fit_conformance, fit_loglog, Conformance, CostReport, LogLogFit, Observation};
pub use explore::MAX_EXPLORE_P;
pub use fixture::{bad_fixture, flood_exchange, racy_fixture};
pub use lint::lint_scripts;
pub use srclint::{lint_bad_fixture, lint_bad_sync_fixture, lint_sources, SrcReport, SrcViolation};
pub use violation::Violation;

use apsp_simnet::{Comm, Machine, MachineError, RunReport};

/// Knobs for one verification pass.
#[derive(Clone, Debug)]
pub struct VerifyOptions {
    /// Run the layer-2 schedule explorer (layer 1 always runs). Only
    /// effective for `p <=` [`MAX_EXPLORE_P`]; programs without wildcard
    /// receives finish after the baseline schedule either way.
    pub explore: bool,
    /// Total governed-run budget for the explorer (baseline, tree walk,
    /// and counterexample shrinking all count against it).
    pub max_schedules: usize,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions { explore: true, max_schedules: 64 }
    }
}

/// The outcome of [`verify_program`].
#[derive(Debug)]
pub struct VerifyReport {
    /// Rank count verified.
    pub p: usize,
    /// Total events recorded across all ranks (baseline schedule).
    pub events: usize,
    /// Governed runs executed (1 = baseline only: no wildcard choices).
    pub schedules_run: usize,
    /// Wildcard choice points the baseline run hit.
    pub choice_points: usize,
    /// Everything both layers found, linter first.
    pub violations: Vec<Violation>,
    /// The baseline run's §3.1 cost report (`None` when it died).
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
            let _ = write!(
                out,
                "verify: CLEAN — {} rank(s), {} event(s), {} schedule(s) explored, \
                 {} choice point(s)",
                self.p, self.events, self.schedules_run, self.choice_points
            );
        } else {
            let _ = write!(
                out,
                "verify: FAILED — {} violation(s) on {} rank(s) \
                 ({} event(s), {} schedule(s) explored)",
                self.violations.len(),
                self.p,
                self.events,
                self.schedules_run
            );
            for (i, v) in self.violations.iter().enumerate() {
                let rendered = v.to_string().replace('\n', "\n      ");
                let _ = write!(out, "\n  [{}] {} — {}", i + 1, v.kind(), rendered);
            }
        }
        out
    }
}

/// Verifies `f` on `p` ranks: records and lints the baseline schedule
/// (layer 1), then — when enabled and `p <=` [`MAX_EXPLORE_P`] — explores
/// alternative wildcard delivery schedules (layer 2). `digest` reduces a
/// run's rank outputs to the value compared across schedules (use a hash
/// of the distance matrix; cost clocks are *not* compared — they may
/// legitimately differ across delivery orders).
pub fn verify_program<T, F, D>(p: usize, opts: &VerifyOptions, f: F, digest: D) -> VerifyReport
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
    D: Fn(&[T]) -> u64,
{
    let _wall = apsp_metrics::time_phase("verify");
    let base = Machine::run_governed(p, &[], &f);
    let events = base.scripts.iter().map(Vec::len).sum();
    let choice_points = base.choices.len();
    let mut violations = lint_scripts(&base.scripts);
    let mut schedules_run = 1usize;
    let mut report = None;
    let mut baseline_digest = None;
    match base.outcome {
        Ok((outs, rep)) => {
            baseline_digest = Some(digest(&outs));
            report = Some(rep);
        }
        Err(MachineError::Deadlock(info)) => {
            // the baseline (all-defaults) schedule already deadlocks: the
            // empty schedule is the minimal counterexample by definition
            violations.push(Violation::Deadlock { info, schedule: Vec::new() });
        }
        Err(e) => violations.push(Violation::Execution { error: e.to_string() }),
    }
    if let Some(baseline_digest) = baseline_digest {
        if opts.explore && p <= MAX_EXPLORE_P && !base.choices.is_empty() {
            let exploration = explore::explore(
                p,
                &f,
                &digest,
                baseline_digest,
                &base.choices,
                opts.max_schedules.saturating_sub(schedules_run),
            );
            schedules_run += exploration.schedules_run;
            violations.extend(exploration.violations);
        }
    }
    let reg = apsp_metrics::global();
    reg.counter("apsp_verify_reports_total", "Verification passes completed.").inc();
    reg.counter("apsp_verify_schedules_total", "Governed schedules executed while verifying.")
        .add(schedules_run as u64);
    reg.counter("apsp_verify_violations_total", "Protocol violations found by the verifier.")
        .add(violations.len() as u64);
    VerifyReport { p, events, schedules_run, choice_points, violations, report }
}

/// Builds a [`VerifyReport`] from comm scripts recorded *outside* the
/// simulated machine — layer 1 only. The native backend records the same
/// logical events ([`apsp_simnet::CommEvent`]) over real channel traffic,
/// so the static linter's invariants (send/recv pairing, tag freshness,
/// collective order, checkpoint quiescence, span balance) transfer
/// verbatim; the layer-2 schedule explorer needs the governed simulator
/// and is reported as not run (`schedules_run = 0`).
pub fn lint_only_report(p: usize, scripts: &[Vec<apsp_simnet::CommEvent>]) -> VerifyReport {
    let _wall = apsp_metrics::time_phase("verify");
    let events = scripts.iter().map(Vec::len).sum();
    let violations = lint_scripts(scripts);
    let reg = apsp_metrics::global();
    reg.counter("apsp_verify_reports_total", "Verification passes completed.").inc();
    reg.counter("apsp_verify_violations_total", "Protocol violations found by the verifier.")
        .add(violations.len() as u64);
    VerifyReport { p, events, schedules_run: 0, choice_points: 0, violations, report: None }
}

/// Builds a [`VerifyReport`] from the outcome of a recorded launch outside
/// the governed simulator — the scripts of a run that completed, or the
/// typed error it died with: scripts go through [`lint_only_report`]; a
/// machine failure (hang, rank down, protocol mismatch) becomes an
/// `Execution` violation, so the verdict stays typed on either path.
pub fn lint_recorded_outcome(
    p: usize,
    outcome: Result<Vec<Vec<apsp_simnet::CommEvent>>, MachineError>,
) -> VerifyReport {
    match outcome {
        Ok(scripts) => lint_only_report(p, &scripts),
        Err(e) => {
            let mut report = lint_only_report(p, &[]);
            report.violations.push(Violation::Execution { error: e.to_string() });
            report
        }
    }
}

/// A deterministic digest for `Vec<f64>` rank outputs (SplitMix64 over
/// the raw bits) — the `digest` most solver `*_verify` entry points use.
pub fn digest_rows(rows: &[Vec<f64>]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for row in rows {
        h = mix(h, row.len() as u64);
        for &x in row {
            h = mix(h, x.to_bits());
        }
    }
    h
}

/// One SplitMix64 round folding `x` into `h`.
pub fn mix(h: u64, x: u64) -> u64 {
    let mut z = h ^ x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
