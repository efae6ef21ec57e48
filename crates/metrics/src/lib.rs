#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::print_stdout, unsafe_op_in_unsafe_fn))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc))]

//! # apsp-metrics
//!
//! Wall-clock performance observability for the workspace — the *other*
//! half of the measurement story. The §3.1 cost ledgers in `apsp-simnet`
//! count the paper's machine-independent quantities (messages, words,
//! scalar ops on the critical path); this crate counts what actually
//! happens on the host: kernel perf counters, retransmission/recovery
//! totals, and phase-scoped wall-clock timers.
//!
//! Design constraints, in order:
//!
//! 1. **Neutral to the cost ledgers.** Nothing in this crate ever touches
//!    a `Clocks` value or a `Comm` — enabling metrics
//!    cannot change a single word of a `RunReport` or a `paper_report`
//!    table. A golden test in the workspace pins this byte-for-byte.
//! 2. **Cheap when off, cheap when on.** Counters are lock-free relaxed
//!    atomics recorded once per kernel call (never inside an inner loop).
//!    Wall-clock timers call `Instant::now()` only while the registry is
//!    [enabled](Registry::enable); disabled they are two relaxed loads.
//! 3. **Deterministic exposition.** Snapshots iterate a `BTreeMap`, so
//!    exporters emit families and series in a stable order.
//!
//! ```
//! use apsp_metrics::{global, export};
//!
//! global().counter("demo_events_total", "Demo events.").add(3);
//! let snap = global().snapshot();
//! let text = export::prometheus_text(&snap);
//! assert!(text.contains("demo_events_total 3"));
//! ```

pub mod export;
pub mod histogram;
pub mod registry;
pub mod timer;

pub use export::{jsonl, parse_prometheus, prometheus_text, summary_table};
pub use histogram::{bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::{global, Counter, Family, MetricKind, Registry, Sample, SampleValue, Snapshot};
pub use timer::{time_phase, time_phase_in, PhaseGuard};

/// Convenience: `global().counter(name, help)`.
pub fn counter(name: &str, help: &str) -> std::sync::Arc<Counter> {
    global().counter(name, help)
}

/// Convenience: `global().enable()` — turns wall-clock timing on.
pub fn enable() {
    global().enable();
}

/// Convenience: is the global registry's wall-clock timing on?
pub fn is_enabled() -> bool {
    global().is_enabled()
}
