//! Offline stand-in for [loom](https://docs.rs/loom): exhaustive
//! model-checking of concurrent code, with the API subset this workspace
//! uses (`model`, `thread::{spawn, scope, yield_now, sleep}`,
//! `sync::{Arc, Mutex, mpsc, atomic}`).
//!
//! # How it checks
//!
//! [`model`] reruns the closure under a cooperative *token-passing*
//! scheduler: every synchronization operation (channel send/recv, mutex
//! lock, atomic access, yield) is a **scheduling point** at which exactly
//! one runnable model thread holds the token. Whenever more than one
//! thread is runnable at a scheduling point, the choice is a
//! branch; the checker explores the branch tree depth-first by replaying
//! a recorded choice prefix and bumping the deepest unexhausted decision,
//! until no unexplored schedule remains. A test body that panics under
//! *any* schedule fails the whole model, with the schedule count printed
//! so the failure is replayable by rerunning the (deterministic) search.
//!
//! # What it models
//!
//! * **mpsc channels** with the std API. `recv_timeout` models deadlines
//!   as *stall escapes*: a timed receive only returns `Timeout` when no
//!   thread in the whole model can make progress (everything blocked),
//!   which is exactly the regime a real deadline fires in without making
//!   every healthy receive a timeout branch. When several timed waiters
//!   exist at a stall, which deadline fires first is itself explored.
//! * **Mutexes** with real blocking and wake-ordering exploration.
//! * **Atomics** under sequential consistency (every access is a
//!   scheduling point; weak-memory reorderings are *not* modeled).
//! * **Deadlocks**: a state where every live thread is blocked and no
//!   timed waiter exists fails the model with a thread-state dump.
//!
//! # Divergences from real loom
//!
//! * `sync::Arc` is std's `Arc` (drop-count schedules are not explored).
//! * The default preemption bound is 2 (override with
//!   `LOOM_MAX_PREEMPTIONS`, `none` for unbounded); voluntary reschedules
//!   (`yield_now`, `sleep`) never count against the bound.
//! * The closure runs on the calling thread; spawned model threads are
//!   real OS threads parked until the token reaches them, so `std`-only
//!   code (allocation, `env::var`, panics) behaves exactly as in
//!   production.

mod rt;

pub mod sync;
pub mod thread;

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Exploration limits for one [`model`] run.
#[derive(Clone, Debug)]
pub struct Builder {
    /// Involuntary context switches allowed per schedule (`None` =
    /// unbounded, exhaustive). Bounding keeps the schedule tree tractable
    /// while still covering every bug reachable with that many
    /// preemptions — the standard model-checking trade-off.
    pub max_preemptions: Option<usize>,
    /// Hard cap on explored schedules; exceeding it fails the model
    /// (a state-space blowup is a test bug, not a pass).
    pub max_iterations: usize,
}

impl Default for Builder {
    fn default() -> Self {
        let max_preemptions = match std::env::var("LOOM_MAX_PREEMPTIONS") {
            Ok(v) if v.eq_ignore_ascii_case("none") => None,
            Ok(v) => v.parse().ok().or(Some(2)),
            Err(_) => Some(2),
        };
        let max_iterations = std::env::var("LOOM_MAX_ITERATIONS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200_000);
        Builder { max_preemptions, max_iterations }
    }
}

impl Builder {
    /// A fresh builder with the environment-derived defaults.
    pub fn new() -> Self {
        Builder::default()
    }

    /// Explores every schedule of `f` within the configured bounds,
    /// panicking on the first failing schedule. Returns the number of
    /// schedules explored.
    pub fn check<F: Fn()>(&self, f: F) -> usize {
        let mut prefix: Vec<usize> = Vec::new();
        let mut explored = 0usize;
        loop {
            explored += 1;
            assert!(
                explored <= self.max_iterations,
                "loom: exceeded {} schedules; bound preemptions or shrink the test",
                self.max_iterations
            );
            let rt = Arc::new(rt::Rt::new(std::mem::take(&mut prefix), self.max_preemptions));
            rt::set_ctx(Some(rt::Ctx { rt: Arc::clone(&rt), id: 0 }));
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(&f));
            rt.finish_and_drain(0);
            rt::set_ctx(None);
            let path = rt.take_path();
            if let Err(payload) = outcome {
                eprintln!(
                    "loom: schedule {} of the search failed (choices {:?})",
                    explored,
                    path.iter().map(|d| d.chosen).collect::<Vec<_>>()
                );
                std::panic::resume_unwind(payload);
            }
            if let Some(msg) = rt.take_fail() {
                panic!("{msg} (schedule {explored})");
            }
            match path.iter().rposition(|d| d.chosen + 1 < d.options) {
                Some(i) => {
                    prefix = path[..i].iter().map(|d| d.chosen).collect();
                    prefix.push(path[i].chosen + 1);
                }
                None => return explored,
            }
        }
    }
}

/// Model-checks `f` under every thread interleaving within the default
/// [`Builder`] bounds. See the crate docs for exactly what is explored.
pub fn model<F: Fn()>(f: F) {
    Builder::default().check(f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as StdOrdering};

    #[test]
    fn single_thread_runs_once() {
        let runs = Builder::default().check(|| {
            let (tx, rx) = sync::mpsc::channel();
            tx.send(7u64).expect("receiver is live");
            assert_eq!(rx.try_recv(), Ok(7));
        });
        assert_eq!(runs, 1, "no concurrency, no branches");
    }

    #[test]
    fn two_writers_explore_both_orders() {
        // A shared counter written by two threads: both final orders must
        // be explored, so the model must run more than one schedule.
        let orders = std::sync::Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
        let seen = std::sync::Arc::clone(&orders);
        Builder { max_preemptions: None, max_iterations: 10_000 }.check(move || {
            let a = std::sync::Arc::new(sync::atomic::AtomicU64::new(0));
            let b = std::sync::Arc::clone(&a);
            let h = thread::spawn(move || {
                b.store(1, sync::atomic::Ordering::SeqCst);
            });
            let observed = a.load(sync::atomic::Ordering::SeqCst);
            h.join().expect("writer thread completes");
            seen.lock().expect("order log").insert(observed);
        });
        let seen = orders.lock().expect("order log");
        assert!(seen.contains(&0) && seen.contains(&1), "both orders explored: {seen:?}");
    }

    #[test]
    fn channel_is_fifo_under_every_schedule() {
        model(|| {
            let (tx, rx) = sync::mpsc::channel();
            let h = thread::spawn(move || {
                for i in 0..3u64 {
                    tx.send(i).expect("receiver is live");
                }
            });
            for i in 0..3u64 {
                assert_eq!(rx.recv(), Ok(i), "per-channel FIFO");
            }
            h.join().expect("sender completes");
        });
    }

    #[test]
    fn dropped_sender_disconnects() {
        model(|| {
            let (tx, rx) = sync::mpsc::channel::<u64>();
            let h = thread::spawn(move || {
                tx.send(1).expect("receiver is live");
                // tx drops here
            });
            assert_eq!(rx.recv(), Ok(1));
            assert!(rx.recv().is_err(), "closed channel reports disconnect");
            h.join().expect("sender completes");
        });
    }

    #[test]
    fn timeout_fires_only_at_a_genuine_stall() {
        model(|| {
            let (tx, rx) = sync::mpsc::channel::<u64>();
            let h = thread::spawn(move || {
                tx.send(9).expect("receiver is live");
                // keep tx alive past the send so disconnect can't race in
                thread::yield_now();
            });
            // a sender always able to run means the deadline never fires
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_millis(1)),
                Ok(9),
                "timed recv with a live sender must deliver, not time out"
            );
            h.join().expect("sender completes");
        });
    }

    #[test]
    fn stalled_timed_recv_times_out_instead_of_deadlocking() {
        model(|| {
            let (_tx, rx) = sync::mpsc::channel::<u64>();
            let got = rx.recv_timeout(std::time::Duration::from_millis(1));
            assert_eq!(got, Err(sync::mpsc::RecvTimeoutError::Timeout));
        });
    }

    #[test]
    fn deadlock_is_detected_and_fails_the_model() {
        let hit = std::panic::catch_unwind(|| {
            model(|| {
                let (_tx, rx) = sync::mpsc::channel::<u64>();
                // untimed recv with a live-but-unused sender: unblockable
                let _ = rx.recv();
            });
        });
        let msg = match hit {
            Err(p) => p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default(),
            Ok(()) => panic!("an unblockable recv must fail the model"),
        };
        assert!(msg.contains("deadlock"), "diagnostic names the deadlock: {msg}");
    }

    #[test]
    fn mutex_excludes_and_both_acquisition_orders_run() {
        model(|| {
            let m = std::sync::Arc::new(sync::Mutex::new(0u64));
            let m2 = std::sync::Arc::clone(&m);
            let h = thread::spawn(move || {
                let mut g = m2.lock().expect("model mutex");
                *g += 1;
            });
            {
                let mut g = m.lock().expect("model mutex");
                *g += 10;
            }
            h.join().expect("locker completes");
            assert_eq!(*m.lock().expect("model mutex"), 11);
        });
    }

    #[test]
    fn scoped_threads_join_and_return_values() {
        model(|| {
            let mut data = [0u64; 2];
            let (a, b) = data.split_at_mut(1);
            thread::scope(|s| {
                let ha = s.spawn(|| {
                    a[0] = 1;
                    10u64
                });
                let hb = s.spawn(|| {
                    b[0] = 2;
                    20u64
                });
                assert_eq!(ha.join().expect("a completes"), 10);
                assert_eq!(hb.join().expect("b completes"), 20);
            });
            assert_eq!(data, [1, 2]);
        });
    }

    #[test]
    fn scoped_panic_payload_reaches_join() {
        model(|| {
            thread::scope(|s| {
                let h = s.spawn(|| std::panic::panic_any(42u64));
                let payload = h.join().expect_err("the child panicked");
                assert_eq!(payload.downcast_ref::<u64>(), Some(&42));
            });
        });
    }

    #[test]
    fn preemption_bound_caps_the_search() {
        // An N-step racy loop explodes unbounded but stays tiny at bound 0.
        let runs_bounded =
            Builder { max_preemptions: Some(0), max_iterations: 10_000 }.check(|| {
                let a = std::sync::Arc::new(sync::atomic::AtomicU64::new(0));
                let b = std::sync::Arc::clone(&a);
                let h = thread::spawn(move || {
                    for _ in 0..4 {
                        b.fetch_add(1, sync::atomic::Ordering::SeqCst);
                    }
                });
                for _ in 0..4 {
                    a.fetch_add(1, sync::atomic::Ordering::SeqCst);
                }
                h.join().expect("adder completes");
                assert_eq!(a.load(sync::atomic::Ordering::SeqCst), 8);
            });
        assert!(runs_bounded < 100, "bound 0 keeps the tree near-linear: {runs_bounded}");
    }

    #[test]
    fn model_threads_do_not_leak_between_runs() {
        // `model` drains every spawned thread before returning; the OS
        // thread count must come back down (checked coarsely).
        let probe = || {
            std::fs::read_to_string("/proc/self/status").ok().and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("Threads:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|v| v.parse::<usize>().ok())
            })
        };
        let before = probe();
        model(|| {
            thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| thread::yield_now());
                }
            });
        });
        if let (Some(b), Some(a)) = (before, probe()) {
            assert!(a <= b + 3, "model leaked threads: {b} -> {a}");
        }
        let _ = AtomicUsize::new(0).load(StdOrdering::Relaxed);
    }
}
