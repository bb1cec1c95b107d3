//! Pins the benchmark to one CPU.
//!
//! On a virtual machine with a few vCPUs of a shared host, a request that
//! hops between threads on two vCPUs waits each time for the hypervisor to
//! run the idle one again, and that wait varies with the host's load. The
//! gated latencies and rates come from paths with one request in flight at
//! a time, so one CPU loses no parallelism there; pinned, the hand-offs
//! between the load generator, the reactor and the planner shards are plain
//! context switches. The mask is set before any thread or the daemon
//! starts, and both inherit it.

#![allow(unsafe_code)]

/// 64-bit words in a `cpu_set_t` (1024 CPUs).
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread and process it starts
/// afterwards, to the highest-numbered CPU it may run on; returns that CPU.
#[cfg(target_os = "linux")]
pub fn to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the affinity mask names no CPU")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Elsewhere the benchmark runs unpinned.
#[cfg(not(target_os = "linux"))]
pub fn to_one_cpu() -> Result<usize, String> {
    Err("CPU pinning needs Linux".into())
}
