//! Calibrated time: wall time divided by how slowly the machine ran at
//! the moment it was measured.
//!
//! The machine this benchmark was built on is shared, and its speed
//! drifts by half and more over tens of seconds: cores, caches and memory
//! are contended by other tenants, and how much varies (README.md has the
//! probe data). The drift is common to the program and to any code with
//! a similar mix of work, so between measured parts the benchmark runs a
//! fixed reference of its own — four small kernels that stress what the
//! program stresses: random access to a map larger than a core's L2
//! cache, dense floating-point arithmetic, allocation churn and sorting —
//! and divides each part by how much slower than on a quiet machine the
//! reference ran around it. The reference is benchmark code, so a change
//! to the program leaves it alone.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::hint::black_box;
use std::time::Instant;

/// Each kernel of the reference with its time on the machine README.md
/// describes in a quiet spell (the minimum over 300 runs).
const KERNELS: [(fn(), f64); 4] = [
    (hash_map, 0.0378),
    (matmul, 0.0107),
    (alloc_churn, 0.0127),
    (sort, 0.0129),
];

/// Slots of the reference map, each a key and a value: 16 MiB.
const SLOTS: usize = 1 << 20;
/// Words allocated for the map. Above glibc's 32 MiB ceiling for its
/// adaptive mmap threshold, the allocation is always a fresh mapping that
/// is unmapped when dropped, so the map leaves neither resident memory
/// nor a changed malloc threshold behind to distort the program's peak
/// RSS; only the slots' pages are ever touched.
const WORDS: usize = 5 << 20;
/// Keys inserted into the map, drawn from `1..=KEY_SPACE`, and lookups
/// after the inserts (about a seventh of them hits).
const INSERTS: u64 = 300_000;
const KEY_SPACE: u64 = 2 * SLOTS as u64;
const LOOKUPS: u64 = 300_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Inserts and lookups in an open-addressing hash map with SipHash
/// (fixed keys) and linear probing.
fn hash_map() {
    let mut table = vec![0u64; WORDS];
    let slots = &mut table[..2 * SLOTS];
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = || 1 + xorshift(&mut x) % KEY_SPACE;
    let home = |key: u64| {
        let mut h = DefaultHasher::new();
        h.write_u64(key);
        h.finish() as usize % SLOTS
    };
    for value in 0..INSERTS {
        let key = next();
        let mut slot = home(key);
        while slots[2 * slot] != 0 && slots[2 * slot] != key {
            slot = (slot + 1) % SLOTS;
        }
        slots[2 * slot] = key;
        slots[2 * slot + 1] = value;
    }
    let mut sum = 0u64;
    for _ in 0..LOOKUPS {
        let key = next();
        let mut slot = home(key);
        while slots[2 * slot] != 0 {
            if slots[2 * slot] == key {
                sum = sum.wrapping_add(slots[2 * slot + 1]);
                break;
            }
            slot = (slot + 1) % SLOTS;
        }
    }
    black_box(sum);
}

/// Products of 64×64 single-precision matrices, the size of the
/// language model's layers.
fn matmul() {
    const N: usize = 64;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.1).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 5) as f32 * 0.1).collect();
    let mut c = vec![0f32; N * N];
    for _ in 0..60 {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        black_box(&mut c);
    }
}

/// Allocations of 16 B to 2 KiB, each freed 64 allocations later, so
/// that at most 128 KiB are live.
fn alloc_churn() {
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut ring: Vec<Vec<u8>> = (0..64).map(|_| Vec::new()).collect();
    for i in 0..200_000 {
        let mut v = Vec::with_capacity(16 + (xorshift(&mut x) % 2048) as usize);
        v.push(i as u8);
        ring[i % 64] = v;
    }
    black_box(&ring);
}

/// An unstable sort of 600,000 random 32-bit keys, in a buffer as large
/// as the map's so that it too is a mapping of its own.
fn sort() {
    let mut x = 0x0123_4567_89ab_cdef_u64;
    let mut keys: Vec<u32> = Vec::with_capacity(2 * WORDS);
    keys.extend((0..600_000).map(|_| xorshift(&mut x) as u32));
    keys.sort_unstable();
    black_box(&keys);
}

/// Runs every kernel of the reference once and returns each one's wall
/// time in seconds.
pub fn kernel_times() -> [f64; KERNELS.len()] {
    KERNELS.map(|(kernel, _)| {
        let started = Instant::now();
        kernel();
        started.elapsed().as_secs_f64()
    })
}

/// One run of the reference: how many times slower than on a quiet
/// machine its kernels ran, as the mean over the kernels.
pub fn slowness() -> f64 {
    let _s = obskit::span("bench.reference");
    let times = kernel_times();
    let ratios = times.iter().zip(KERNELS).map(|(t, (_, quiet))| t / quiet);
    ratios.sum::<f64>() / KERNELS.len() as f64
}

/// Calibrates consecutive measured parts of a run. A reference run
/// opens the clock and each [`Clock::tick`] adds one; the parts measured
/// between two ticks are divided by the mean slowness of the two. A
/// disabled clock runs no reference and leaves times as measured (a
/// traced run, whose times only serve as shares and whose heap peak the
/// reference map would distort).
#[derive(Debug, Default)]
pub struct Clock {
    last: Option<f64>,
    /// Every reference run's slowness, in order.
    pub slowness: Vec<f64>,
}

impl Clock {
    /// A clock that calibrates when `enabled`.
    pub fn new(enabled: bool) -> Self {
        let mut clock = Clock::default();
        if enabled {
            clock.last = Some(clock.run());
        }
        clock
    }

    fn run(&mut self) -> f64 {
        let slowness = slowness();
        self.slowness.push(slowness);
        slowness
    }

    /// Runs the reference and returns the factor that turns wall seconds
    /// measured since the previous tick into calibrated seconds (1 for a
    /// disabled clock).
    pub fn tick(&mut self) -> f64 {
        match self.last {
            None => 1.0,
            Some(before) => {
                let after = self.run();
                self.last = Some(after);
                2.0 / (before + after)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_clock_leaves_times_alone_and_runs_nothing() {
        let mut clock = Clock::new(false);
        assert_eq!(clock.tick(), 1.0);
        assert!(clock.slowness.is_empty());
    }

    #[test]
    fn ticks_divide_by_the_mean_slowness_around_them() {
        let mut clock = Clock::new(true);
        let scale = clock.tick();
        let [before, after] = clock.slowness[..] else {
            panic!("two reference runs: {:?}", clock.slowness);
        };
        assert!(before > 0.0 && after > 0.0);
        assert_eq!(scale, 2.0 / (before + after));
    }
}
