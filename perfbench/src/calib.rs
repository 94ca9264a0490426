//! Host-speed calibration.
//!
//! On a shared host the speed of memory-bound code drifts by up to
//! ~2.5x within minutes while a CPU-bound loop stays steady: other
//! tenants contend for caches and memory bandwidth. A fixed,
//! memory-bound kernel that uses only the standard library, timed
//! in-process between the workload's operations, tracks that drift
//! (a kernel in a child process tracked it worse: page faults of a
//! fresh process drift more than the workloads do). Timed metrics are
//! reported at the reference speed: each raw time is
//! multiplied by `REFERENCE_S / k`, where `k` is the mean kernel time
//! of the two samples taken before it and the two taken after it, on
//! as many threads as the timed work uses. (On the 2-thread workload,
//! single-threaded set-ups slowed far less than a 2-thread kernel
//! when the host slowed, so each sample times the kernel on one thread
//! and, there, on two.)
//!
//! Each sample starts only once the process is quiet (see
//! [`settled`]), so work the program leaves running on other threads
//! never slows the kernel; the timed operations wait for the same
//! quiet and count that wait, so such work cannot read as a gain.

use std::time::Instant;

use crate::stats::{median, secs, settled};

/// Kernel seconds that define the reference speed: about the kernel's
/// median time on one thread of the 2-core host the benchmark was
/// written on.
pub const REFERENCE_S: f64 = 0.18;

/// Slots of each of the kernel's open-addressing tables: 16 MiB, eight
/// times the per-core L2 cache, so the kernel's speed follows the
/// shared last-level cache and memory as the workloads' relations and
/// indexes do. The tables (one per worker thread) are allocated once,
/// before set-up, so they add a constant 16 MiB per thread to the
/// workload's resident set.
const SLOTS: usize = 1 << 21;
/// Fill and probe passes per kernel run.
const PASSES: usize = 4;
/// Bytes of fresh memory each kernel thread faults in per run: the
/// workloads' evaluations fault in fresh pages too (about 35k minor
/// faults per `reach` evaluation). It is above the allocator's largest
/// mmap threshold (32 MiB), so each run maps, faults in and unmaps
/// them anew.
const FAULT_BYTES: usize = 64 << 20;

/// One kernel run on one thread: `PASSES` times, clears `table`,
/// inserts `SLOTS / 2` pseudo-random keys with linear probing and finds
/// each again; then faults in `FAULT_BYTES` of fresh memory.
fn pass(table: &mut [u64]) {
    let mask = SLOTS - 1;
    let home = |key: u64| {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOTS.trailing_zeros())) as usize
    };
    for _ in 0..PASSES {
        table.fill(0);
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..SLOTS / 2 {
            let key = xorshift(&mut x);
            let mut i = home(key);
            while table[i] != 0 && table[i] != key {
                i = (i + 1) & mask;
            }
            table[i] = key;
        }
        let mut y: u64 = 0x2545_F491_4F6C_DD1D;
        let mut found = 0usize;
        for _ in 0..SLOTS / 2 {
            let key = xorshift(&mut y);
            let mut i = home(key);
            while table[i] != key {
                i = (i + 1) & mask;
            }
            found += 1;
        }
        std::hint::black_box(found);
    }
    // A zeroed allocation this large is freshly mapped; one write per
    // page faults each page in.
    let mut fresh = vec![0u8; FAULT_BYTES];
    for byte in fresh.iter_mut().step_by(4096) {
        *byte = 1;
    }
    std::hint::black_box(&fresh);
}

/// Kernel samples on each side of a timing that scale it: the drift
/// moves over tens of seconds, slower than the spacing of the samples.
const WINDOW: usize = 2;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Kernel timings taken during one run, with the kernel's tables.
pub struct Calibration {
    tables: Vec<Vec<u64>>,
    /// Kernel times on one thread, which scale single-threaded work.
    one: Vec<f64>,
    /// Kernel times on every table's thread at once, taken right after
    /// each entry of `one` when there is more than one table.
    all: Vec<f64>,
}

impl Calibration {
    /// Allocates one table per worker thread of the workload and runs
    /// the kernel once untimed, so every page is resident before the
    /// first sample.
    pub fn new(threads: usize) -> Calibration {
        let mut c = Calibration {
            tables: vec![vec![0; SLOTS]; threads.max(1)],
            one: Vec::new(),
            all: Vec::new(),
        };
        c.kernel(c.tables.len());
        c
    }

    /// One kernel run: a pass over each of the first `threads` tables,
    /// each on its own thread, so both cores' contention shows when the
    /// workload runs on both. Returns the wall seconds.
    fn kernel(&mut self, threads: usize) -> f64 {
        let t = Instant::now();
        match &mut self.tables[..threads] {
            [table] => pass(table),
            tables => std::thread::scope(|s| {
                for table in tables.iter_mut() {
                    s.spawn(|| pass(table));
                }
            }),
        }
        secs(t)
    }

    /// Times the kernel once more, on one thread and, if the workload
    /// has more, on all of them, once the process is quiet.
    pub fn sample(&mut self) {
        settled(Instant::now());
        let s = self.kernel(1);
        self.one.push(s);
        if self.tables.len() > 1 {
            let s = self.kernel(self.tables.len());
            self.all.push(s);
        }
    }

    /// Kernel samples taken.
    pub fn len(&self) -> usize {
        self.one.len()
    }

    /// The samples that scale work running on `threads` threads.
    fn series(&self, threads: usize) -> &[f64] {
        if threads > 1 && !self.all.is_empty() {
            &self.all
        } else {
            &self.one
        }
    }

    /// The median kernel time on `threads` threads.
    pub fn median_s(&self, threads: usize) -> f64 {
        median(self.series(threads))
    }

    /// Scales a wall time of work on `threads` threads, taken after the
    /// first `mark` samples, to the reference speed: by the mean of the
    /// `WINDOW` samples on as many threads just before it and the
    /// `WINDOW` just after it (fewer at the ends of the run).
    pub fn scale(&self, wall: f64, mark: usize, threads: usize) -> f64 {
        let series = self.series(threads);
        let lo = mark.saturating_sub(WINDOW);
        let hi = (mark + WINDOW).min(series.len());
        let around = &series[lo..hi];
        let local = around.iter().sum::<f64>() / around.len() as f64;
        wall * REFERENCE_S / local
    }
}
