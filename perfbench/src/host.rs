//! Host-side measurements that need no repository crate: process CPU
//! time and peak RSS from `/proc`, and the fixed calibration loop each
//! rep is timed against.

use std::hint::black_box;
use std::time::Instant;

/// CPU time (user + system) this process has consumed, in seconds.
///
/// Prefers the scheduler's nanosecond runtime of the calling thread
/// (the workload is single-threaded), and falls back to the
/// clock-tick `utime + stime` of `/proc/self/stat` where the kernel
/// reports no schedstat runtime. 0 where neither is readable.
pub fn cpu_s() -> f64 {
    if let Some(ns) = std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .filter(|&ns| ns > 0)
    {
        return ns as f64 / 1e9;
    }
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
            Some(ticks as f64 / CLOCK_TICKS_PER_S)
        })
        .unwrap_or(0.0)
}

/// `USER_HZ`, the unit of `/proc/<pid>/stat` times on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where
/// unavailable. Each rep runs in a fresh process, so this is the rep's
/// own peak rather than a delta against an earlier workload.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Calibration samples taken around and, for long reps, inside a rep.
pub struct Calibrator {
    samples: Vec<f64>,
    last: Instant,
    cpu_s: f64,
}

impl Calibrator {
    /// Host time between samples inside a rep.
    const EVERY_S: f64 = 2.0;

    /// Start with one sample.
    pub fn start() -> Self {
        let mut c = Calibrator {
            samples: Vec::new(),
            last: Instant::now(),
            cpu_s: 0.0,
        };
        c.sample();
        c
    }

    /// Take a sample now.
    pub fn sample(&mut self) {
        let cpu0 = cpu_s();
        self.samples.push(calibration_s());
        self.cpu_s += cpu_s() - cpu0;
        self.last = Instant::now();
    }

    /// Take a sample if [`Calibrator::EVERY_S`] passed since the last.
    pub fn sample_if_due(&mut self) {
        if self.last.elapsed().as_secs_f64() >= Self::EVERY_S {
            self.sample();
        }
    }

    /// Mean calibration time, s.
    pub fn mean_s(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// CPU time the samples consumed, s (to subtract from a rep's).
    pub fn cpu_s(&self) -> f64 {
        self.cpu_s
    }
}

/// Nominal duration of [`calibration_s`]: roughly what it takes on an
/// uncontended core of a 2-core x86-64 cloud VM. `setup_s` is reported
/// in these reference seconds (raw set-up time × `CAL_REF_S` ÷ the
/// rep's calibration time), so it reads as seconds yet does not swing
/// with the host's load.
pub const CAL_REF_S: f64 = 0.1;

/// Pending events in the calibration loop's priority queue.
const CAL_PENDING: u64 = 256;
/// Per-node state slots (64 B each, 1 MiB in total).
const CAL_NODES: usize = 1 << 14;
/// Events the calibration loop processes.
const CAL_STEPS: usize = 1_500_000;

/// Time a fixed, std-only workload in seconds: a miniature event loop
/// (binary-heap hold model, random per-node state updates, small packet
/// buffers through a FIFO). It calls no repository code, so no change
/// to the repository can make it faster, yet it leans on the same host
/// resources the simulator does — allocator, branch predictor, caches —
/// so a rep's wall time divided by it cancels most of a shared host's
/// speed drift. (A plain random walk over a table tracked the
/// simulator half as well.)
pub fn calibration_s() -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, VecDeque};
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut nodes = vec![[0u64; 8]; CAL_NODES];
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = (0..CAL_PENDING)
        .map(|i| Reverse((next() % 100_000, i)))
        .collect();
    let mut fifo: VecDeque<Vec<u8>> = VecDeque::new();
    for _ in 0..CAL_STEPS {
        let Reverse((t, id)) = heap.pop().expect("the hold model keeps the heap full");
        let r = next();
        let node = &mut nodes[(id as usize * 61 + (r as usize & 63)) & (CAL_NODES - 1)];
        match r % 5 {
            0 | 1 => node[(r >> 8) as usize & 7] = node[0].wrapping_add(t) ^ r,
            2 => fifo.push_back(vec![r as u8; 32 + (r >> 16) as usize % 96]),
            3 => {
                if let Some(p) = fifo.pop_front() {
                    node[1] = node[1].wrapping_add(p.iter().map(|&b| b as u64).sum::<u64>());
                }
            }
            _ => node[2] = node[2].rotate_left(7) ^ node[3],
        }
        heap.push(Reverse((t + 1 + (r >> 24) % 100_000, id)));
    }
    black_box(&nodes);
    black_box(&fifo);
    start.elapsed().as_secs_f64()
}
