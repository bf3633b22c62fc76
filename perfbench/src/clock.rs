//! Host-speed calibration of timed work.
//!
//! On a shared host the simulator's speed swings by up to a third for
//! minutes at a time while a pure ALU loop and DRAM or LLC pointer chases
//! stay steady: the interference hits the branchy, cache-resident code a
//! simulator runs. A small set-associative cache model of the benchmark's
//! own — none of the program's code, so a change to the program cannot
//! move it — slows down with the simulator. [`HostClock`] times that
//! kernel between timed units and scales each unit's host time to a host
//! on which the kernel takes [`HostClock::REFERENCE_MS`]. Raw times are
//! kept alongside and printed.

use std::time::Instant;

/// A two-level LRU cache model: the calibration kernel's data.
struct CacheModel {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    ages: Vec<u32>,
    clock: u32,
}

impl CacheModel {
    fn new(bytes: usize, ways: usize) -> Self {
        let sets = bytes / 64 / ways;
        CacheModel {
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            ages: vec![0; sets * ways],
            clock: 0,
        }
    }

    /// True on a hit; a miss replaces the least recently used way.
    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> 6;
        let base = (line as usize % self.sets) * self.ways;
        self.clock = self.clock.wrapping_add(1);
        let (mut victim, mut oldest) = (base, u32::MAX);
        for w in base..base + self.ways {
            if self.tags[w] == line {
                self.ages[w] = self.clock;
                return true;
            }
            if self.ages[w] < oldest {
                (victim, oldest) = (w, self.ages[w]);
            }
        }
        self.tags[victim] = line;
        self.ages[victim] = self.clock;
        false
    }
}

/// Milliseconds of one fixed kernel pass: a 32 KiB and a 1 MiB cache model
/// fed a fixed mix of streaming and xorshift-random addresses.
fn kernel_pass() -> f64 {
    let t0 = Instant::now();
    let mut l1 = CacheModel::new(32 << 10, 4);
    let mut l2 = CacheModel::new(1 << 20, 8);
    let (mut x, mut stream, mut hits) = (0x9e37_79b9_7f4a_7c15_u64, 0u64, 0u64);
    for i in 0..60_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = if i % 3 == 0 {
            stream += 64;
            stream % (8 << 20)
        } else {
            x % (4 << 20)
        };
        if l1.access(addr) {
            hits += 1;
        } else if l2.access(addr) {
            hits += 2;
        }
    }
    std::hint::black_box(hits);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Times units of work and scales them to the reference host speed.
pub struct HostClock {
    threads: usize,
    last_ms: f64,
    /// Every kernel time measured, in milliseconds.
    pub samples: Vec<f64>,
}

/// One timed unit of work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Host milliseconds scaled to the reference host speed.
    pub ms: f64,
    /// Unscaled host milliseconds.
    pub raw_ms: f64,
}

impl std::ops::AddAssign for Timing {
    fn add_assign(&mut self, other: Timing) {
        self.ms += other.ms;
        self.raw_ms += other.raw_ms;
    }
}

impl HostClock {
    /// Kernel time that defines the reference host speed (about its
    /// undisturbed time on the 2-vCPU Xeon host the benchmark was built on).
    pub const REFERENCE_MS: f64 = 1.6;

    /// A clock whose kernel runs on `threads` threads at once, matching
    /// the threads the timed work keeps busy.
    pub fn new(threads: usize) -> Self {
        let mut clock = HostClock {
            threads: threads.max(1),
            last_ms: 0.0,
            samples: Vec::new(),
        };
        clock.last_ms = clock.kernel_ms();
        clock
    }

    /// Mean kernel milliseconds per thread, all threads at once.
    fn kernel_ms(&mut self) -> f64 {
        let ms = if self.threads == 1 {
            kernel_pass()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..self.threads).map(|_| s.spawn(kernel_pass)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("calibration thread"))
                    .sum::<f64>()
                    / self.threads as f64
            })
        };
        self.samples.push(ms);
        ms
    }

    /// Runs `f` and times it. The scale uses the mean of the kernel times
    /// just before and just after `f`.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let before = self.last_ms;
        let t0 = Instant::now();
        let value = f();
        let raw_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.last_ms = self.kernel_ms();
        let scale = Self::REFERENCE_MS / ((before + self.last_ms) / 2.0).max(1e-9);
        (
            value,
            Timing {
                ms: raw_ms * scale,
                raw_ms,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_model_hits_after_a_fill_and_evicts_lru() {
        // One set of two ways: 64-byte lines that map to set 0.
        let mut c = CacheModel::new(128, 2);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(!c.access(64));
        assert!(c.access(0));
        // 128 evicts 64, the least recently used line.
        assert!(!c.access(128));
        assert!(c.access(0));
        assert!(!c.access(64));
    }

    #[test]
    fn timing_scales_by_the_kernel() {
        let mut clock = HostClock::new(1);
        let ((), t) = clock.time(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(t.raw_ms >= 5.0);
        let mean_kernel = (clock.samples[0] + clock.samples[1]) / 2.0;
        let expected = t.raw_ms * HostClock::REFERENCE_MS / mean_kernel;
        assert!((t.ms - expected).abs() < 1e-9 * expected.max(1.0));
    }
}
