//! Shared helpers for the Criterion benchmarks.
//!
//! Each bench in `benches/` regenerates one of the paper's tables or
//! figures through the `vcoma-experiments` entry points, prints the
//! rendered artifact once (so `cargo bench` output doubles as a miniature
//! reproduction report), and then measures the regeneration time at a
//! reduced scale.

use vcoma_experiments::ExperimentConfig;

/// The configuration used by the benches: the paper machine at a very
/// small workload scale, so a full `cargo bench --workspace` stays within
/// minutes.
pub fn bench_config() -> ExperimentConfig {
    ExperimentConfig::smoke().with_scale(0.004)
}

/// A slightly larger configuration for the one-shot artifact print.
pub fn print_config() -> ExperimentConfig {
    ExperimentConfig::smoke()
}

/// Minimal wall-clock harness used when the `criterion-benches` feature is
/// off: one warmup run, then `samples` timed runs, printing mean/min/max
/// milliseconds in the same spirit as the Criterion output.
pub fn plain_bench<F: FnMut()>(label: &str, samples: u32, mut f: F) {
    f();
    let mut times = Vec::with_capacity(samples as usize);
    for _ in 0..samples.max(1) {
        let t0 = std::time::Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!("bench {label}: mean {mean:.3} ms, min {min:.3} ms, max {max:.3} ms ({} samples)", times.len());
}

/// Micro-benchmark kernels for the per-access hot path.
///
/// Each kernel is a deterministic closed loop over one layer of the
/// simulator — TLB lookup, FLC/SLC probe, and the full
/// `Machine::access` path — returning a checksum so the optimizer
/// cannot discard the work and so the smoke test can pin the result.
/// The `hotpath_micro` bench target times them; `cargo test` runs them
/// once at a small iteration count.
pub mod micro {
    use vcoma::cachesim::{Flc, Slc};
    use vcoma::{
        AccessKind, DetRng, Machine, MachineConfig, Op, Scheme, SimConfig, Tlb, TlbOrg, VAddr,
        VPage,
    };

    /// Lookups per TLB kernel run in the `hotpath_micro` bench.
    pub const TLB_ITERS: u64 = 200_000;

    /// Random lookups against a 64-entry fully-associative TLB (see
    /// [`fa_lookup`]).
    pub fn tlb_lookup(iters: u64) -> u64 {
        fa_lookup(64, iters)
    }

    /// Random lookups against a 512-entry fully-associative TLB, the
    /// largest size of the Figure-8 sweep (see [`fa_lookup`]).
    pub fn tlb_lookup_fa512(iters: u64) -> u64 {
        fa_lookup(512, iters)
    }

    /// Random lookups against an `entries`-entry fully-associative TLB
    /// over a working set 1.5x its capacity, so the stream mixes hits,
    /// capacity misses and refills; every 64th lookup also shoots its page
    /// down. Returns the TLB's miss count: it depends on every victim the
    /// random replacement draws and on the slot order shootdowns leave,
    /// so it pins both (and the loop cannot be elided).
    fn fa_lookup(entries: u64, iters: u64) -> u64 {
        let mut tlb = Tlb::new(entries, TlbOrg::FullyAssociative, 7);
        let mut rng = DetRng::new(42);
        let working_set = (entries + entries / 2) as usize;
        for i in 0..iters {
            let page = VPage::new(rng.gen_index(working_set) as u64);
            tlb.translate(page);
            if i % 64 == 63 {
                tlb.shootdown(page);
            }
        }
        tlb.stats().misses
    }

    /// Mixed read/write probes against the tiny machine's FLC + SLC pair,
    /// over twice the SLC's block capacity so both levels keep evicting.
    pub fn cache_probe(iters: u64) -> u64 {
        let m = MachineConfig::tiny();
        let mut flc = Flc::new(m.flc);
        let mut slc = Slc::new(m.slc);
        let working_set = 2 * (m.slc.size_bytes / m.slc.block_size) as usize;
        let mut rng = DetRng::new(9);
        let mut hits = 0u64;
        for i in 0..iters {
            let block = rng.gen_index(working_set) as u64;
            let flc_hit = if i % 4 == 0 {
                flc.write(block).is_hit()
            } else {
                flc.read(block).is_hit()
            };
            hits += u64::from(flc_hit);
            if !flc_hit {
                let kind = if i % 4 == 0 { AccessKind::Write } else { AccessKind::Read };
                hits += u64::from(slc.access(block, kind).hit);
            }
        }
        hits
    }

    /// The full `Machine::access` path on the tiny 4-node machine: every
    /// node replays a trace mixing a hot shared region with a private
    /// strided region. Returns simulated exec time plus total refs.
    pub fn end_to_end(refs_per_node: u64, scheme: Scheme) -> u64 {
        let m = MachineConfig::tiny();
        let page = m.page_size;
        let nodes = m.nodes;
        let cfg = SimConfig::new(m, scheme).with_seed(11);
        let mut traces = Vec::with_capacity(nodes as usize);
        for n in 0..nodes {
            let mut rng = DetRng::new(0xB0B + n);
            let ops = (0..refs_per_node)
                .map(|i| {
                    let addr = if i % 7 == 0 {
                        // Hot region shared by all nodes: drives coherence.
                        VAddr::new(rng.gen_index(64) as u64 * 32)
                    } else {
                        // Private strided region, two pages per node.
                        VAddr::new(page * (n + 4) * 2 + (i * 32) % (page * 2))
                    };
                    if i % 5 == 0 {
                        Op::Write(addr)
                    } else {
                        Op::Read(addr)
                    }
                })
                .collect();
            traces.push(ops);
        }
        let report = Machine::new(cfg).run(traces).expect("micro-bench trace replays");
        report.exec_time() + report.total_refs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma::Scheme;

    #[test]
    fn configs_are_small() {
        assert!(bench_config().scale < print_config().scale);
        assert_eq!(bench_config().machine.nodes, 32);
    }

    #[test]
    fn micro_kernels_run_and_are_deterministic() {
        // Smoke for the plain-timer fallback path: every kernel the
        // hotpath_micro bench target times must run and give the same
        // checksum twice (the harness relies on run-to-run determinism).
        let tlb = micro::tlb_lookup(20_000);
        assert!(tlb > 0 && tlb < 20_000, "a mix of hits and misses");
        assert_eq!(tlb, micro::tlb_lookup(20_000));
        assert_eq!(micro::tlb_lookup_fa512(20_000), micro::tlb_lookup_fa512(20_000));

        let cache = micro::cache_probe(20_000);
        assert!(cache > 0);
        assert_eq!(cache, micro::cache_probe(20_000));

        let e2e = micro::end_to_end(1_000, Scheme::V_COMA);
        assert!(e2e > 4_000, "exec time plus 4 nodes x 1000 refs");
        assert_eq!(e2e, micro::end_to_end(1_000, Scheme::V_COMA));
        assert!(micro::end_to_end(1_000, Scheme::L0_TLB) > 4_000);
    }

    #[test]
    fn tlb_checksums_are_pinned() {
        // Values of the pre-index one-set random-replacement array: the
        // indexed buffer must draw the same victims and keep the same
        // slot order.
        assert_eq!(micro::tlb_lookup(micro::TLB_ITERS), 67_034);
        assert_eq!(micro::tlb_lookup_fa512(micro::TLB_ITERS), 66_992);
    }

    #[test]
    fn plain_bench_runs_the_closure() {
        let mut calls = 0u32;
        plain_bench("test-label", 3, || calls += 1);
        assert_eq!(calls, 4, "one warmup plus three samples");
    }
}
