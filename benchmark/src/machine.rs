//! The process's dealings with the machine: which CPUs it may run on, what
//! malloc does with freed memory, and the kernel's accounting of its CPU
//! time and memory (Linux: `sched_setaffinity`, glibc `mallopt`, `/proc`).

/// A `cpu_set_t`: one bit per CPU, 1024 of them.
#[derive(Clone, Copy)]
pub struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    /// The CPUs the calling thread may run on.
    pub fn current() -> CpuSet {
        let mut set = CpuSet([0; 16]);
        // SAFETY: the pointer is to 16 writable u64s and the size passed is
        // their size in bytes; pid 0 names the calling thread.
        let status =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        assert_eq!(status, 0, "sched_getaffinity: {}", std::io::Error::last_os_error());
        set
    }

    /// Restricts the calling thread, and every thread it starts from now
    /// on, to this set.
    pub fn apply(&self) {
        // SAFETY: the pointer is to 16 readable u64s and the size passed is
        // their size in bytes; pid 0 names the calling thread.
        let status =
            unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        assert_eq!(status, 0, "sched_setaffinity: {}", std::io::Error::last_os_error());
    }

    pub fn count(&self) -> usize {
        self.0.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// The set holding only this set's highest-numbered CPU (interrupts
    /// tend to land on the lowest).
    pub fn last_only(&self) -> CpuSet {
        let word = self.0.iter().rposition(|&w| w != 0).expect("a thread may run somewhere");
        let mut one = [0; 16];
        one[word] = 1 << (63 - self.0[word].leading_zeros());
        CpuSet(one)
    }
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Tells glibc's malloc to keep what the program frees: no trimming of
/// the heap top and no `mmap` per large block. Left alone, malloc adapts
/// both thresholds to the first large block it sees free, and whether a
/// later `route` (two n² matrices a call) then pays an `mmap`, 300 page
/// faults and an `munmap` per matrix or reuses the heap depends on what
/// else sits at the heap's top in that process: the same binary ran
/// `route` at 1000–3200 calls/s from process to process on a 320-vertex
/// input, and at 5100–5300 with the thresholds pinned. The benchmark
/// measures the program, not that coin.
pub fn keep_freed_memory() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    if cfg!(target_env = "gnu") {
        for (param, value) in [(M_TRIM_THRESHOLD, i32::MAX), (M_MMAP_THRESHOLD, 1 << 30)] {
            // SAFETY: `mallopt` only stores an allocator parameter, under
            // the allocator's own lock; any value is allowed.
            let accepted = unsafe { mallopt(param, value) };
            assert_eq!(accepted, 1, "mallopt({param}, {value}) was refused");
        }
    }
}

fn proc_self(file: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{file}"))
        .unwrap_or_else(|e| panic!("the benchmark needs Linux /proc/self/{file}: {e}"))
}

/// User plus system CPU seconds of this process, every thread it ever ran
/// included (`/proc/self/stat` fields 14 and 15, in 100 Hz ticks).
pub fn cpu_seconds() -> f64 {
    let stat = proc_self("stat");
    let after_comm = stat.rsplit_once(") ").expect("stat has a command field").1;
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("tick counts are integers"))
        .sum();
    ticks as f64 / 100.0
}

/// High-water mark of this process's resident set, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = proc_self("status");
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:")).expect("VmHWM line");
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().expect("VmHWM in kB");
    kb / 1024.0
}
