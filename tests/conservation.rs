//! Conservation and accounting invariants that must hold across the whole
//! stack, whatever the scheme or workload.

use vcoma::workloads::all_benchmarks;
use vcoma::{all_schemes, Simulator};
use vcoma_types::Op;

#[test]
fn reference_counts_match_the_traces() {
    let machine = vcoma::MachineConfig::paper_baseline();
    for w in all_benchmarks(0.003) {
        let traces = w.generate(&machine);
        let trace_reads = traces
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Read(_)))
            .count() as u64;
        let trace_writes = traces
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Write(_)))
            .count() as u64;
        for scheme in all_schemes() {
            let report = Simulator::new(scheme).run_traces(traces.clone());
            assert_eq!(report.total_refs(), trace_reads + trace_writes, "{scheme}");
            assert_eq!(report.total_writes(), trace_writes, "{scheme}");
        }
    }
}

#[test]
fn time_accounting_is_consistent() {
    for w in all_benchmarks(0.003) {
        for scheme in all_schemes() {
            let report = Simulator::new(scheme).run(w.as_ref());
            for (i, n) in report.nodes().iter().enumerate() {
                // A node's final clock equals the sum of its breakdown
                // categories: every elapsed cycle is attributed exactly
                // once.
                assert_eq!(
                    n.time,
                    n.breakdown.total(),
                    "{} {scheme} node {i}: clock {} != breakdown {}",
                    w.name(),
                    n.time,
                    n.breakdown.total()
                );
                // Busy time includes at least the one issue cycle per ref.
                assert!(n.breakdown.busy >= n.refs, "{} {scheme} node {i}", w.name());
            }
        }
    }
}

#[test]
fn fine_breakdown_conserves_every_cycle() {
    // The fine latency attribution behind `--breakdown` must account for
    // every simulated cycle, per node and machine-wide, in all five
    // schemes — and refine the coarse Figure-10 categories exactly.
    for w in all_benchmarks(0.003) {
        for scheme in all_schemes() {
            let report = Simulator::new(scheme).run(w.as_ref());
            for (i, n) in report.nodes().iter().enumerate() {
                let ctx = || format!("{} {scheme} node {i}", w.name());
                assert_eq!(n.time, n.fine.total(), "{}: fine breakdown leaks cycles", ctx());
                // Category-by-category refinement of the coarse breakdown.
                assert_eq!(n.fine.busy, n.breakdown.busy, "{}", ctx());
                assert_eq!(n.fine.sync, n.breakdown.sync, "{}", ctx());
                assert_eq!(n.fine.local_stall, n.breakdown.local_stall, "{}", ctx());
                assert_eq!(
                    n.fine.translation(),
                    n.breakdown.translation,
                    "{}: tlb_walk + dlb_lookup must equal coarse translation",
                    ctx()
                );
                assert_eq!(
                    n.fine.coherence + n.fine.network + n.fine.queue + n.fine.fault,
                    n.breakdown.remote_stall,
                    "{}: coherence + network + queue + fault must equal coarse remote stall",
                    ctx()
                );
            }
            let fine = report.aggregate_fine();
            assert_eq!(
                fine.total(),
                report.simulated_cycles(),
                "{} {scheme}: machine-wide fine total != simulated cycles",
                w.name()
            );
            // Scheme-specific attribution: node TLB walks belong to the
            // TLB schemes, home DLB lookups to V-COMA.
            if scheme == vcoma::Scheme::V_COMA {
                assert_eq!(fine.tlb_walk, 0, "{}: V-COMA has no node TLBs", w.name());
            } else {
                assert_eq!(fine.dlb_lookup, 0, "{} {scheme}: only V-COMA has DLBs", w.name());
            }
            // The contention-free paper model never queues at ports.
            assert_eq!(fine.queue, 0, "{} {scheme}: queueing without contention", w.name());
        }
    }
}

#[test]
fn nonzero_flc_hit_time_is_conserved_in_both_breakdowns() {
    // The paper charges zero for an FLC hit, so every shipped config
    // leaves the time unexercised. A nonzero charge must land in coarse
    // `local_stall` as well as in the fine account: both breakdowns still
    // sum to the node's clock.
    use vcoma::workloads::UniformRandom;
    use vcoma::{MachineConfig, Timing};
    let mut machine = MachineConfig::tiny();
    machine.timing = Timing { flc_hit: 2, ..Timing::paper() };
    let w = UniformRandom { pages: 32, refs_per_node: 300, write_fraction: 0.3 };
    for scheme in all_schemes() {
        let report = Simulator::new(scheme).machine(machine.clone()).run(&w);
        for (i, n) in report.nodes().iter().enumerate() {
            assert_eq!(n.time, n.breakdown.total(), "{scheme} node {i}: coarse breakdown");
            assert_eq!(n.time, n.fine.total(), "{scheme} node {i}: fine breakdown");
            assert!(n.breakdown.local_stall >= 2 * n.refs, "{scheme} node {i}");
        }
    }
}

#[test]
fn metrics_reconcile_with_report_counters() {
    // The observation-only metrics layer must agree with the first-class
    // statistics it mirrors.
    for w in all_benchmarks(0.003) {
        for scheme in all_schemes() {
            let report = Simulator::new(scheme).run(w.as_ref());
            let m = report.metrics();
            let reads: u64 = report.nodes().iter().map(|n| n.reads).sum();
            let writes = report.total_writes();
            let h_read = m.histogram("latency.read");
            let h_write = m.histogram("latency.write");
            assert_eq!(
                h_read.map_or(0, |h| h.count),
                reads,
                "{} {scheme}: read-latency histogram must have one sample per load",
                w.name()
            );
            assert_eq!(
                h_write.map_or(0, |h| h.count),
                writes,
                "{} {scheme}: write-latency histogram must have one sample per store",
                w.name()
            );
            assert_eq!(
                m.counter("transition.invalidated"),
                report.protocol().invalidations,
                "{} {scheme}: transition counter disagrees with ProtocolStats",
                w.name()
            );
            assert_eq!(
                m.counter("transition.spilled"),
                report.protocol().spills,
                "{} {scheme}",
                w.name()
            );
        }
    }
    // With a warm-up pass, the typed latency histograms must be reset with
    // every other counter: they count the measured pass's references only.
    let w = &all_benchmarks(0.003)[0];
    for scheme in all_schemes() {
        let report = Simulator::new(scheme).warmup().run(w.as_ref());
        let m = report.metrics();
        let reads: u64 = report.nodes().iter().map(|n| n.reads).sum();
        let h_read = m.histogram("latency.read").map_or(0, |h| h.count);
        let h_write = m.histogram("latency.write").map_or(0, |h| h.count);
        assert_eq!(h_read, reads, "{} {scheme}: warm-up loads leaked into the histogram", w.name());
        assert_eq!(
            h_write,
            report.total_writes(),
            "{} {scheme}: warm-up stores leaked into the histogram",
            w.name()
        );
        assert_eq!(
            m.counter("transition.invalidated"),
            report.protocol().invalidations,
            "{} {scheme}: warm-up transitions leaked into the snapshot",
            w.name()
        );
        assert_eq!(
            m.counter("transition.uncached_to_master_shared")
                + m.counter("transition.uncached_to_exclusive"),
            report.protocol().cold_fills,
            "{} {scheme}: warm-up cold fills leaked into the snapshot",
            w.name()
        );
    }
}

#[test]
fn translation_misses_never_exceed_accesses() {
    for w in all_benchmarks(0.003) {
        for scheme in all_schemes() {
            let report = Simulator::new(scheme).run(w.as_ref());
            assert!(
                report.translation_misses_total(0) <= report.translation_accesses_total(0),
                "{} {scheme}",
                w.name()
            );
        }
    }
}

#[test]
fn protocol_hits_plus_transactions_cover_probes() {
    // Every memory reference that reaches the AM level either hits locally
    // or produces exactly one protocol transaction; the sum is bounded by
    // the reference count.
    for w in all_benchmarks(0.003) {
        for scheme in all_schemes() {
            let report = Simulator::new(scheme).run(w.as_ref());
            let p = report.protocol();
            let am_level = p.local_read_hits + p.local_write_hits + p.remote_transactions();
            assert!(
                am_level <= report.total_refs(),
                "{} {scheme}: AM-level events {} exceed refs {}",
                w.name(),
                am_level,
                report.total_refs()
            );
        }
    }
}

#[test]
fn over_capacity_workload_swaps_and_conserves_refs() {
    // 400 distinct pages on the 256-page tiny machine: the page daemon
    // must swap, and accounting must stay exact, in every scheme.
    use vcoma::{MachineConfig, VAddr};
    for scheme in all_schemes() {
        let machine = MachineConfig::tiny();
        let mut traces = vec![Vec::new(); machine.nodes as usize];
        for (i, tr) in traces.iter_mut().enumerate() {
            for p in 0..400u64 {
                let page = (p * 3 + i as u64 * 17) % 400;
                tr.push(Op::Read(VAddr::new(page * machine.page_size)));
            }
        }
        let report =
            Simulator::new(scheme).machine(machine).run_traces(traces);
        assert_eq!(report.total_refs(), 1600, "{scheme}");
        assert!(report.swap_outs() > 0, "{scheme}: must swap");
        for n in report.nodes() {
            assert_eq!(n.time, n.breakdown.total(), "{scheme}");
        }
    }
}

#[test]
fn protection_changes_are_accounted_and_deterministic() {
    use vcoma::{Protection, Scheme, VAddr};
    let mk = || {
        let mut traces = vec![Vec::new(); 32];
        for (i, tr) in traces.iter_mut().enumerate() {
            for k in 0..50u64 {
                tr.push(Op::Read(VAddr::new((k % 8) * 4096)));
                if i == 0 && k % 10 == 9 {
                    let prot = if k % 20 == 9 {
                        Protection::read_only()
                    } else {
                        Protection::read_write()
                    };
                    tr.push(Op::Protect(VAddr::new((k % 8) * 4096), prot));
                }
            }
        }
        traces
    };
    for scheme in [Scheme::L0_TLB, Scheme::L3_TLB, Scheme::V_COMA] {
        let a = Simulator::new(scheme).seed(4).run_traces(mk());
        let b = Simulator::new(scheme).seed(4).run_traces(mk());
        assert_eq!(a.exec_time(), b.exec_time(), "{scheme}");
        assert_eq!(a.total_refs(), 32 * 50, "{scheme}: protects are not refs");
        let shootdowns: u64 =
            a.nodes().iter().map(|n| n.translation[0].shootdowns).sum();
        assert!(shootdowns > 0, "{scheme}: protection changes must shoot down");
    }
}

#[test]
fn fixed_seed_grid_conserves_refs_and_messages() {
    // A plain (non-proptest) grid over all five schemes and two master
    // seeds, so the accounting invariants are exercised even when the
    // `proptest-tests` feature is off: every reference is a read or a
    // write, every translation/cache access is a hit or a miss, and the
    // protocol's remote transactions are carried by crossbar messages.
    for &seed in &[1u64, 0x5EED] {
        for w in all_benchmarks(0.003) {
            for scheme in all_schemes() {
                let report = Simulator::new(scheme).seed(seed).run(w.as_ref());
                for (i, n) in report.nodes().iter().enumerate() {
                    let ctx = || format!("{} {scheme} seed {seed} node {i}", w.name());
                    assert_eq!(n.refs, n.reads + n.writes, "{}", ctx());
                    for t in &n.translation {
                        assert_eq!(t.hits() + t.misses, t.accesses, "{}", ctx());
                    }
                    assert_eq!(n.flc.hits() + n.flc.misses(), n.flc.accesses(), "{}", ctx());
                    assert_eq!(n.slc.hits() + n.slc.misses(), n.slc.accesses(), "{}", ctx());
                }
                let p = report.protocol();
                assert!(
                    p.remote_transactions() <= report.net_msgs(),
                    "{} {scheme} seed {seed}: {} remote transactions but only {} messages",
                    w.name(),
                    p.remote_transactions(),
                    report.net_msgs()
                );
                assert!(
                    p.injections_forwarded <= p.injection_hops,
                    "{} {scheme} seed {seed}: forwarded acceptances without hops",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn no_spills_on_paper_workloads() {
    // The paper's working sets fit (§5.1): the injection protocol must
    // never be forced to spill a master copy to backing store.
    for w in all_benchmarks(0.01) {
        for scheme in all_schemes() {
            let report = Simulator::new(scheme).run(w.as_ref());
            assert_eq!(
                report.protocol().spills,
                0,
                "{} {scheme}: memory pressure forced {} spills",
                w.name(),
                report.protocol().spills
            );
        }
    }
}
