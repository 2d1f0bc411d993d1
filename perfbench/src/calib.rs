//! The host-speed reference: a fixed cache-simulation kernel timed between
//! passes of the timed phase.
//!
//! The benchmark's host is shared, and its speed for this kind of work
//! drifts by up to 2.5x over minutes. The kernel is the benchmark's own
//! code, so no change to the simulator moves it; `run.py` divides every
//! timing by the kernel's slowdown against its time on a reference host
//! (`REFERENCE_MS` there).

use std::time::Instant;

const SETS: usize = 1 << 16;
const WAYS: usize = 4;
const MEMORY_WORDS: usize = 1 << 23;
const ACCESSES: u32 = 2_000_000;

/// The kernel's buffers and its timed samples. The buffers are allocated
/// once and freed with it, so sampling never frees a large block and the
/// allocator settings the simulator runs under stay as they were.
pub struct HostSpeed {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    memory: Vec<u32>,
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    /// Reserves the buffers; no page of them is touched before the first
    /// sample.
    pub fn new() -> HostSpeed {
        HostSpeed {
            tags: vec![0; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
            memory: vec![0; MEMORY_WORDS],
            samples_ms: Vec::new(),
        }
    }

    /// Times one run of the kernel: a 4-way LRU cache of 64-byte blocks
    /// over a mostly sequential address stream with random jumps, writing
    /// to a 32 MiB backing array on every miss.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        self.tags.fill(0);
        self.stamps.fill(0);
        let (mut x, mut addr, mut hits) = (0x9E37_79B9_7F4A_7C15u64, 0u64, 0u64);
        for t in 0..ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            addr = if x & 3 == 0 {
                x >> 20
            } else {
                addr.wrapping_add(64)
            };
            let block = addr >> 6;
            let base = (block as usize & (SETS - 1)) * WAYS;
            let tag = block >> 16;
            let ways = &mut self.tags[base..base + WAYS];
            match ways.iter().position(|&w| w == tag) {
                Some(i) => {
                    hits += 1;
                    self.stamps[base + i] = t;
                }
                None => {
                    let stamps = &self.stamps[base..base + WAYS];
                    let victim = (0..WAYS).min_by_key(|&i| stamps[i]).unwrap_or(0);
                    ways[victim] = tag;
                    self.stamps[base + victim] = t;
                    let m = (block as usize).wrapping_mul(2_654_435_761) & (MEMORY_WORDS - 1);
                    self.memory[m] = self.memory[m].wrapping_add(t);
                }
            }
        }
        std::hint::black_box(hits);
        self.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    /// Median kernel time in ms (one sample is taken if none was).
    pub fn median_ms(&mut self) -> f64 {
        if self.samples_ms.is_empty() {
            self.sample();
        }
        crate::timed::median(&self.samples_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sample_does_the_same_work() {
        let mut host = HostSpeed::new();
        host.sample();
        let first = (host.tags.clone(), host.stamps.clone());
        host.sample();
        assert_eq!((host.tags.clone(), host.stamps.clone()), first);
        assert_eq!(host.samples_ms.len(), 2);
        assert!(host.median_ms() > 0.0);
    }
}
