//! Host-side measurements of the benchmark's own process.
//!
//! CPU time is read from the process CPU clock, which counts every
//! thread (exited pool workers included) at nanosecond resolution and
//! leaves out time the hypervisor gave to other guests. On a shared
//! virtual machine that steal time moves wall-clock figures by tens of
//! percent between runs; process CPU time does not carry it.

use std::os::raw::{c_int, c_long};

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU seconds this process has used so far, all threads.
///
/// # Panics
///
/// Panics if the C library rejects the process CPU clock (not Linux).
#[must_use]
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `long`s on
    // Linux, where `time_t` is `long`), and the clock id is a constant
    // the kernel defines; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is unavailable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
///
/// # Errors
///
/// Returns an error when `/proc/self/status` cannot be read or has no
/// `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_rss_is_positive() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() > before, "{x}");
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
