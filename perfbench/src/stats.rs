//! Order statistics, clocks and `/proc` readings.

use std::time::{Duration, Instant};

/// The `q`-quantile (0 ≤ q ≤ 1), interpolated linearly between the
/// two nearest order statistics; 0 for no samples. With few samples
/// this reads steadier than a nearest-rank percentile, which is the
/// maximum for any q above 1 − 1/n.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with its wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

/// Runs `f` `reps` times and returns the median wall seconds.
pub fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (r, s) = timed(&mut f);
            drop(r);
            s
        })
        .collect();
    median(&samples)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// resident set; returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and both clock ids are defined by POSIX.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU seconds used by every thread of the process, ended ones
/// included, at nanosecond resolution.
pub fn process_cpu_secs() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used by the calling thread.
fn thread_cpu_secs() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Length of one quiet check in [`settled`].
const QUIET_WINDOW: Duration = Duration::from_millis(1);
/// CPU seconds other threads may use in a window that still counts as
/// quiet.
const QUIET_FOREIGN_S: f64 = 20e-6;
/// [`settled`] gives up waiting after this long.
const MAX_SETTLE_S: f64 = 30.0;

/// Waits until no thread of the process but the caller uses CPU, and
/// returns the seconds from `t` to the start of the first quiet
/// window. An operation timed from `t` to `settled(t)` therefore
/// includes any work the program left running on other threads when
/// it returned, such as a teardown deferred to a background thread;
/// for a program that leaves nothing running it adds only the cost of
/// two clock reads.
pub fn settled(t: Instant) -> f64 {
    loop {
        let start = Instant::now();
        let (process, own) = (process_cpu_secs(), thread_cpu_secs());
        std::thread::sleep(QUIET_WINDOW);
        let foreign = (process_cpu_secs() - process) - (thread_cpu_secs() - own);
        let waited = start.duration_since(t).as_secs_f64();
        if foreign < QUIET_FOREIGN_S || waited > MAX_SETTLE_S {
            return waited;
        }
    }
}
