//! The rank-thread pool runs every rank on its launcher's CPU set, on both
//! machines: a launch from a thread pinned to set A runs every rank on A,
//! and after the launcher re-pins to B the next launch — on the same
//! parked workers — runs every rank on B. One test function in its own
//! binary, so its launches reuse the same workers and no other test
//! launches in between. Linux only; skipped where fewer than two CPUs are
//! allowed.

#![cfg(all(target_os = "linux", not(loom)))]

use apsp_simnet::MachineSpec;
use apsp_transport::{Machine, NativeMachine, Transport};
use std::collections::HashSet;
use std::thread::ThreadId;

/// A `cpu_set_t`: one bit per CPU, 1024 of them.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on.
fn current() -> CpuSet {
    let mut set = [0; 16];
    // SAFETY: the pointer is to 16 writable u64s and the size passed is
    // their size in bytes; pid 0 names the calling thread.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
    assert_eq!(status, 0, "sched_getaffinity: {}", std::io::Error::last_os_error());
    set
}

/// Restricts the calling thread to `set`.
fn pin(set: &CpuSet) {
    // SAFETY: the pointer is to 16 readable u64s and the size passed is
    // their size in bytes; pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(set), set.as_ptr()) };
    assert_eq!(status, 0, "sched_setaffinity: {}", std::io::Error::last_os_error());
}

/// The set holding only `cpu`.
fn only(cpu: usize) -> CpuSet {
    let mut set = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    set
}

/// Every rank's CPU set and thread, from one three-rank launch on `M`.
#[expect(clippy::disallowed_methods, reason = "the test reads which OS thread each rank ran on")]
fn ranks_on<M: Machine>() -> Vec<(CpuSet, ThreadId)> {
    M::launch(3, &MachineSpec::default(), |comm| {
        // a barrier keeps all three ranks live at once, on three workers
        let group: Vec<usize> = (0..comm.p()).collect();
        comm.barrier(&group, 1);
        (current(), std::thread::current().id())
    })
    .expect("plain run")
    .outs
}

/// Launches from a thread pinned to `a`, then re-pinned to `b`.
#[expect(
    clippy::disallowed_methods,
    reason = "the launcher under test runs on a thread the test pins"
)]
fn follows_the_launcher<M: Machine>(a: CpuSet, b: CpuSet) {
    let (on_a, on_b) = std::thread::scope(|s| {
        s.spawn(|| {
            pin(&a);
            let on_a = ranks_on::<M>();
            pin(&b);
            (on_a, ranks_on::<M>())
        })
        .join()
        .expect("launcher thread")
    });
    assert!(on_a.iter().all(|(set, _)| *set == a), "every rank runs on the launcher's first set");
    assert!(on_b.iter().all(|(set, _)| *set == b), "every rank follows the launcher's new set");
    let workers = |ranks: &[(CpuSet, ThreadId)]| ranks.iter().map(|r| r.1).collect::<HashSet<_>>();
    assert_eq!(workers(&on_a), workers(&on_b), "the second launch reused the same workers");
}

#[test]
fn ranks_run_on_the_launchers_cpu_set() {
    let allowed = current();
    let cpus: Vec<usize> = (0..1024).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1).collect();
    if cpus.len() < 2 {
        eprintln!("SKIPPED: one CPU allowed, so there is no second set to re-pin to");
        return;
    }
    let (a, b) = (only(cpus[0]), only(cpus[cpus.len() - 1]));
    follows_the_launcher::<apsp_simnet::Machine>(a, b);
    follows_the_launcher::<NativeMachine>(a, b);
}
