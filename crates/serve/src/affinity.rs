//! Pinning the worker pool to CPUs.
//!
//! With one worker per CPU the process may use (the default pool size),
//! each worker is restricted to its own CPU. The reply cache keeps the
//! connection readers and their clients busy between cold maps, and
//! without pinning the scheduler at times stacks both cold maps of a
//! two-CPU host on one CPU — each at half speed — while the other serves
//! hits, for up to about a second before it migrates one. A pool larger or
//! smaller than the CPU set is left to the scheduler: it cannot give every
//! worker a CPU of its own, or it has spare CPUs to spread onto.
//!
//! Linux only (`sched_setaffinity` on the calling thread); elsewhere the
//! CPU set is unknown and nothing is pinned.

/// The CPU worker `index` of a `workers`-strong pool is pinned to, given
/// the CPUs the process may run on: `allowed[index]` when the pool has
/// exactly one worker per allowed CPU and more than one worker, otherwise
/// none.
pub(crate) fn worker_cpu(index: usize, workers: usize, allowed: &[usize]) -> Option<usize> {
    (workers > 1 && workers == allowed.len())
        .then(|| allowed.get(index).copied())
        .flatten()
}

#[cfg(target_os = "linux")]
pub(crate) use linux::{allowed_cpus, pin_current_thread};

#[cfg(not(target_os = "linux"))]
/// The CPUs the calling thread may run on: unknown on this platform.
pub(crate) fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
/// Pins nothing on this platform.
pub(crate) fn pin_current_thread(_cpu: usize) -> bool {
    false
}

#[cfg(target_os = "linux")]
mod linux {
    use std::ffi::{c_int, c_ulong};

    /// Bits per word of a CPU mask.
    const BITS: usize = c_ulong::BITS as usize;
    /// Words of glibc's and musl's `cpu_set_t`: 1024 CPUs.
    const WORDS: usize = 1024 / BITS;

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
    }

    /// The CPUs the calling thread may run on, lowest first; empty when
    /// the kernel does not say.
    pub(crate) fn allowed_cpus() -> Vec<usize> {
        let mut mask: [c_ulong; WORDS] = [0; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the byte size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * BITS)
            .filter(|&cpu| mask[cpu / BITS] >> (cpu % BITS) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread to `cpu`; whether the kernel took it.
    pub(crate) fn pin_current_thread(cpu: usize) -> bool {
        if cpu >= WORDS * BITS {
            return false;
        }
        let mut mask: [c_ulong; WORDS] = [0; WORDS];
        mask[cpu / BITS] = 1 << (cpu % BITS);
        // SAFETY: `mask` is a readable buffer of exactly the byte size
        // passed; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_pool_of_one_worker_per_cpu_is_pinned() {
        let allowed = [2, 5, 7];
        assert_eq!(worker_cpu(0, 3, &allowed), Some(2));
        assert_eq!(worker_cpu(2, 3, &allowed), Some(7));
        // More or fewer workers than CPUs, or a single worker: unpinned.
        assert_eq!(worker_cpu(0, 4, &allowed), None);
        assert_eq!(worker_cpu(0, 2, &allowed), None);
        assert_eq!(worker_cpu(0, 1, &[3]), None);
        // An unknown CPU set pins nothing.
        assert_eq!(worker_cpu(0, 2, &[]), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_pinned_thread_runs_on_its_cpu_only() {
        let allowed = allowed_cpus();
        assert!(!allowed.is_empty(), "the kernel reports an affinity mask");
        let cpu = *allowed.last().expect("non-empty");
        // Pin a thread of the test's own, so the harness thread stays free.
        let seen = std::thread::spawn(move || {
            assert!(pin_current_thread(cpu));
            allowed_cpus()
        })
        .join()
        .expect("pinned thread");
        assert_eq!(seen, vec![cpu]);
        assert!(!pin_current_thread(usize::MAX));
    }
}
