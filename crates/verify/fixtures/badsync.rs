//! Seeded-bad concurrency fixture: a hand-rolled "fast path" for the
//! native transport that bypasses the `sync` shim (so `--cfg loom`
//! builds cannot model it) and opens unsafe windows with no stated
//! invariant. Compiled by `tests/audit_golden.rs` under `--cfg loom` as a
//! scratch crate that stands in for `apsp-transport`: it carries that
//! crate's `clippy.toml` and lint lines, read at test time. Each line
//! marked `// rule: …` must be rejected by clippy under that rule.

use std::sync::{Arc, Mutex}; // rule: raw-sync

pub struct FastLane {
    cell: std::cell::UnsafeCell<Vec<f64>>,
    gate: Mutex<()>, // rule: raw-sync
}

unsafe impl Sync for FastLane {} // rule: unsafe-safety

pub fn exchange(lane: Arc<FastLane>, payload: Vec<f64>) {
    let peer = Arc::clone(&lane);
    let worker = std::thread::spawn(move || { // rule: raw-sync
        let _held = peer.gate.lock().expect("fast-lane gate is never poisoned");
        unsafe { (*peer.cell.get()).extend(payload) }; // rule: unsafe-safety
    });
    worker.join().expect("fast-lane worker does not panic");
}
