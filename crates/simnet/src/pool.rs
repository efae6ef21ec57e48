//! The rank-thread pool behind [`crate::endpoint::run_epoch`]: parked
//! worker threads, named `apsp-rank`, that every launch of either machine
//! reuses instead of spawning and joining `p` threads of its own.
//!
//! * [`run`] takes one idle worker per job and spawns more only when
//!   fewer are idle, so the pool never holds more threads than the peak
//!   number of ranks in flight at once, and nested or concurrent launches
//!   never wait on each other.
//! * A worker runs one job under `catch_unwind` and hands back its result
//!   or its panic payload. [`run`] returns only after every worker it
//!   dispatched to has handed back — the guarantee `thread::scope` gives,
//!   and what lets a job borrow from the launcher's stack.
//! * A worker runs its job on the launching thread's CPU set (Linux): a
//!   launch from a pinned thread stays on its CPUs and one from an
//!   unpinned thread spreads, whatever the worker ran before.
//! * Under `--cfg loom` a worker exits after its job (a model thread
//!   cannot outlive the model run that spawned it); nothing else differs.

use crate::sync::mpsc::{channel, Receiver, Sender};
use crate::sync::thread;
use affinity::CpuSet;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a job that panicked hands back.
pub type Payload = Box<dyn Any + Send + 'static>;

/// One dispatched job: the closure with its borrows erased, the CPU set
/// to run it on, and the launch's hand-back signal.
struct Task {
    job: Box<dyn FnOnce() + Send + 'static>,
    cpus: CpuSet,
    done: Sender<()>,
}

impl Task {
    /// Runs the job on its CPU set, `on` being the set the calling worker
    /// is on now. Returns the hand-back signal, not yet sent.
    fn run(self, on: &mut CpuSet) -> Sender<()> {
        if self.cpus != *on && self.cpus.apply() {
            *on = self.cpus;
        }
        (self.job)();
        self.done
    }
}

/// Aborts the process when dropped. Armed while dispatched jobs may still
/// hold borrows of [`run`]'s frame, so that frame never unwinds under them.
struct AbortOnUnwind;

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        std::process::abort();
    }
}

/// Runs every job on a worker of its own, all at once, and returns their
/// results in job order; `Err` carries the payload of a job that panicked.
pub fn run<J, R>(jobs: Vec<J>) -> Vec<Result<R, Payload>>
where
    J: FnOnce() -> R + Send,
    R: Send,
{
    let p = jobs.len();
    let cpus = CpuSet::current();
    let workers = workers(p, cpus);
    let mut slots: Vec<Option<Result<R, Payload>>> = (0..p).map(|_| None).collect();
    let (done, handed_back) = channel();
    let armed = AbortOnUnwind;
    let mut hand_backs = Vec::with_capacity(p);
    for ((job, slot), worker) in jobs.into_iter().zip(slots.iter_mut()).zip(workers) {
        let job: Box<dyn FnOnce() + Send + '_> =
            Box::new(move || *slot = Some(catch_unwind(AssertUnwindSafe(job))));
        // SAFETY: only the lifetime bound changes, never the data. The job
        // borrows the caller's captures and `slots`, and this function does
        // not return before every dispatched worker has handed back, which
        // a worker does only after the job — and every borrow it captured —
        // has been consumed. Nothing between the first dispatch and the
        // last hand-back can unwind past `slots`: `armed` turns any panic
        // there (a lost worker, a failed model) into an abort.
        let job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send + 'static>>(
                job,
            )
        };
        hand_backs.push(dispatch(worker, Task { job, cpus, done: done.clone() }));
    }
    drop(done);
    for hand_back in hand_backs {
        wait(&handed_back, hand_back);
    }
    std::mem::forget(armed);
    slots.into_iter().map(|slot| slot.expect("a worker handed back its result")).collect()
}

/// A parked worker: the sending end of its task queue.
#[cfg(not(loom))]
type Worker = Sender<Task>;

/// The parked workers nobody is using, most recently parked last.
#[cfg(not(loom))]
static IDLE: crate::sync::Mutex<Vec<Worker>> = crate::sync::Mutex::new(Vec::new());

/// `p` workers for one launch from a thread on `cpus`: idle ones first,
/// freshly spawned ones for the rest.
#[cfg(not(loom))]
fn workers(p: usize, cpus: CpuSet) -> Vec<Worker> {
    let mut taken = {
        let mut idle = IDLE.lock().expect("idle-worker list");
        let keep = idle.len().saturating_sub(p);
        idle.split_off(keep)
    };
    taken.resize_with(p, || spawn(cpus));
    taken
}

/// Starts a worker on `cpus` — the launcher's set, which a new thread
/// inherits — and parks it on its task queue.
#[cfg(not(loom))]
fn spawn(cpus: CpuSet) -> Worker {
    let (worker, tasks) = channel::<Task>();
    let me = worker.clone();
    thread::Builder::new()
        .name("apsp-rank".into())
        .spawn(move || {
            let mut on = cpus;
            // `me` keeps the queue open, so the loop never ends: the
            // worker parks here between jobs for the life of the process
            for task in tasks {
                let done = task.run(&mut on);
                // back on the idle list before handing back, so the
                // launcher's next launch finds this worker there
                IDLE.lock().expect("idle-worker list").push(me.clone());
                // the launcher holds the receiver until all hand back
                let _ = done.send(());
            }
        })
        .expect("spawn a rank worker thread");
    worker
}

/// What [`wait`] needs to see one worker hand back: natively, nothing
/// but the launch's signal.
#[cfg(not(loom))]
struct HandBack;

#[cfg(not(loom))]
fn dispatch(worker: Worker, task: Task) -> HandBack {
    // a parked worker never leaves its loop, so its queue never closes
    if worker.send(task).is_err() {
        unreachable!("a parked rank worker exited");
    }
    HandBack
}

/// Waits for one worker's hand-back on the launch's signal.
#[cfg(not(loom))]
fn wait(handed_back: &Receiver<()>, _: HandBack) {
    handed_back.recv().expect("every dispatched worker hands back");
}

/// Under the model every job gets a model thread of its own, and the
/// thread's exit is its hand-back.
#[cfg(loom)]
type Worker = ();

#[cfg(loom)]
fn workers(p: usize, _cpus: CpuSet) -> Vec<Worker> {
    vec![(); p]
}

#[cfg(loom)]
type HandBack = thread::JoinHandle<()>;

#[cfg(loom)]
fn dispatch((): Worker, task: Task) -> HandBack {
    let mut on = task.cpus;
    thread::spawn(move || drop(task.run(&mut on)))
}

#[cfg(loom)]
fn wait(_: &Receiver<()>, worker: HandBack) {
    worker.join().expect("a worker's job never unwinds out of it");
}

#[cfg(all(target_os = "linux", not(miri)))]
mod affinity {
    /// A `cpu_set_t`: one bit per CPU, 1024 of them.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct CpuSet([u64; 16]);

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    impl CpuSet {
        /// The CPUs the calling thread may run on.
        pub fn current() -> CpuSet {
            let mut set = CpuSet([0; 16]);
            let size = std::mem::size_of_val(&set.0);
            // SAFETY: the pointer is to 16 writable u64s and the size
            // passed is their size in bytes; pid 0 names the calling thread.
            let status = unsafe { sched_getaffinity(0, size, set.0.as_mut_ptr()) };
            assert_eq!(status, 0, "sched_getaffinity: {}", std::io::Error::last_os_error());
            set
        }

        /// Moves the calling thread onto this set; `false` when the
        /// kernel refused it and the thread stayed where it was.
        pub fn apply(&self) -> bool {
            // SAFETY: the pointer is to 16 readable u64s and the size
            // passed is their size in bytes; pid 0 names the calling thread.
            unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
        }
    }
}

/// Elsewhere (and under miri, which cannot call the kernel) every thread
/// shares one placeholder set.
#[cfg(not(all(target_os = "linux", not(miri))))]
mod affinity {
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct CpuSet;

    impl CpuSet {
        pub fn current() -> CpuSet {
            CpuSet
        }

        pub fn apply(&self) -> bool {
            true
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order_with_panics_as_payloads() {
        let jobs: Vec<_> = (0..5u64)
            .map(|i| {
                move || {
                    if i == 3 {
                        std::panic::panic_any(i);
                    }
                    i * 10
                }
            })
            .collect();
        let results = run(jobs);
        assert_eq!(results.len(), 5);
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Ok(v) => assert_eq!(v, i as u64 * 10),
                Err(payload) => {
                    assert_eq!(i, 3);
                    assert_eq!(payload.downcast_ref::<u64>(), Some(&3));
                }
            }
        }
    }

    #[test]
    fn jobs_borrow_the_launchers_stack_and_run_concurrently() {
        // every job writes its own cell and meets the others on a channel
        // ring, so the run only completes when all of them are live at once
        let mut cells = vec![0u64; 4];
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..4).map(|_| channel::<u64>()).unzip();
        let jobs: Vec<_> = cells
            .iter_mut()
            .zip(rxs)
            .enumerate()
            .map(|(i, (cell, rx))| {
                let right = txs[(i + 1) % 4].clone();
                move || {
                    right.send(i as u64).expect("ring neighbour is live");
                    *cell = rx.recv().expect("ring neighbour sends") + 100;
                    thread::current().name().map(str::to_owned)
                }
            })
            .collect();
        let names = run(jobs);
        assert_eq!(cells, vec![103, 100, 101, 102]);
        for name in names {
            assert_eq!(name.expect("no job panicked").as_deref(), Some("apsp-rank"));
        }
    }

    #[test]
    fn a_job_may_launch_its_own_jobs() {
        let outer: Vec<_> =
            (0..2u64).map(|i| move || run((1..=2u64).map(|k| move || i + k).collect())).collect();
        let sums: Vec<u64> = run(outer)
            .into_iter()
            .map(|inner| inner.expect("outer job").into_iter().map(|r| r.expect("inner")).sum())
            .collect();
        assert_eq!(sums, vec![3, 5]);
    }
}
