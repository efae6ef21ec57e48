//! Seeded forbidden-pattern fixture for the source rules. Compiled by
//! `tests/audit_golden.rs` as a scratch crate that stands in for
//! `apsp-core`: it carries that crate's `clippy.toml` and lint line, read
//! at test time, so every rule that holds in the solver crates is in
//! scope.
//!
//! The file reads like a plausible "optimized" solver variant that
//! commits every sanctioned-layer bypass at once: it times itself with
//! wall clocks, spins up raw threads behind `Comm`'s back, edits its own
//! cost bill, and panics casually. Each line marked `// rule: …` must be
//! rejected by the compiler or clippy under that rule; if one compiles
//! clean, a lint level or a `clippy.toml` entry was lost, not the fixture.

use apsp_simnet::Comm;
use std::time::{Instant, SystemTime};

/// A "fast path" that measures itself with wall time instead of the
/// §3.1 model.
pub fn timed_exchange(comm: &mut Comm, block: &[f64]) -> f64 {
    let t0 = Instant::now(); // rule: wall-clock
    let _epoch = SystemTime::now(); // rule: wall-clock
    let peers: Vec<usize> = (0..comm.p()).collect();
    let (tx, rx) = std::sync::mpsc::channel(); // rule: raw-thread
    for peer in peers {
        let tx = tx.clone();
        let chunk = block.to_vec();
        std::thread::spawn(move || tx.send((peer, chunk))); // rule: raw-thread
    }
    let (_, first) = rx.recv().unwrap(); // rule: unwrap
    let best = first.first().copied().expect("nonempty"); // unchecked: no lint for message length
    println!("exchange finished in {:?}", t0.elapsed()); // rule: stdout-print
    best
}

// ledger-mutation: rustc rejects these lines (E0616, a private field)
// before clippy runs, so the test builds them as a crate of their own.

use apsp_simnet::RunReport;

/// "Corrects" the bill after the fact so the envelope tests pass.
pub fn discount_bill(report: &mut RunReport) {
    for rank in &mut report.per_rank {
        rank.clocks.latency = 0; // rule: ledger-mutation
        rank.clocks.bandwidth = rank.clocks.bandwidth / 2; // rule: ledger-mutation
    }
}
