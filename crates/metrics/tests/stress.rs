//! Concurrency stress for the metrics registry: writer threads hammer a
//! shared counter and histogram while a reader snapshots continuously.
//! The registry's contract under contention is (a) nothing is lost —
//! joined totals are exact — and (b) every snapshot is a coherent
//! point-in-time view whose counters only ever move forward.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use apsp_metrics::registry::Registry;

const WRITERS: usize = 8;
const ITERS: u64 = 20_000;

#[test]
fn totals_are_exact_under_contention() {
    let reg = Registry::new();
    let shared = reg.counter("stress_shared_total", "One counter, all writers.");
    let hist = reg.histogram("stress_hist", "All writers record here.");
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let shared = Arc::clone(&shared);
            let hist = Arc::clone(&hist);
            let reg = &reg;
            scope.spawn(move || {
                // a labeled series per thread exercises the registry's
                // interior map under concurrent registration
                let own = reg.counter_with(
                    "stress_per_writer_total",
                    "One series per writer.",
                    &[("writer", &w.to_string())],
                );
                for i in 0..ITERS {
                    shared.inc();
                    own.add(2);
                    hist.record(i % 1024);
                }
            });
        }
    });
    assert_eq!(shared.get(), WRITERS as u64 * ITERS);
    assert_eq!(hist.count(), WRITERS as u64 * ITERS);
    let per_iter_sum: u64 = (0..ITERS).map(|i| i % 1024).sum();
    assert_eq!(hist.sum(), WRITERS as u64 * per_iter_sum);
    // the snapshot agrees with the live handles once writers are done
    let snap = reg.snapshot();
    assert_eq!(snap.counter_value("stress_shared_total"), WRITERS as u64 * ITERS);
    let family = snap
        .families
        .iter()
        .find(|f| f.name == "stress_per_writer_total")
        .expect("labeled family registered by the writer threads");
    assert_eq!(family.samples.len(), WRITERS);
}

#[test]
fn snapshots_are_monotone_while_writers_run() {
    let reg = Registry::new();
    let counter = reg.counter("stress_monotone_total", "Watched by the reader.");
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            let counter = Arc::clone(&counter);
            scope.spawn(move || {
                for _ in 0..ITERS {
                    counter.inc();
                }
            });
        }
        let reader = scope.spawn(|| {
            let mut last = 0u64;
            let mut observations = 0u64;
            // observe first, test `done` after: on a busy machine the
            // writers can finish before this thread is first scheduled,
            // and the final total is an observation like any other
            loop {
                let finished = done.load(Ordering::Acquire);
                let now = reg.snapshot().counter_value("stress_monotone_total");
                assert!(now >= last, "counter went backwards: {last} -> {now}");
                assert!(now <= WRITERS as u64 * ITERS, "counter overshot: {now}");
                last = now;
                observations += 1;
                if finished {
                    break observations;
                }
            }
        });
        // writers are the non-reader spawns; wait for them by observing
        // the exact total, then release the reader
        loop {
            if counter.get() == WRITERS as u64 * ITERS {
                break;
            }
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
        let observations = reader.join().expect("reader thread panicked");
        assert!(observations > 0, "reader never got to snapshot");
    });
    assert_eq!(reg.snapshot().counter_value("stress_monotone_total"), WRITERS as u64 * ITERS);
}
