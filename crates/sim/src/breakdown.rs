//! Execution-time breakdowns: the paper's coarse Figure-10 categories and
//! the finer per-request latency attribution behind `--breakdown`.

use serde::{Deserialize, Serialize};
use vcoma_metrics::Mergeable;

/// Cycles spent by one node (or summed over nodes), split into the paper's
/// execution-time categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Instruction execution (`Compute` ops plus one issue cycle per memory
    /// reference).
    pub busy: u64,
    /// Waiting at barriers and locks.
    pub sync: u64,
    /// Local cache stalls: SLC hits and local attraction-memory hits.
    pub local_stall: u64,
    /// Remote stalls: coherence transactions (attraction-memory misses).
    pub remote_stall: u64,
    /// Address-translation overhead: TLB/DLB miss service time.
    pub translation: u64,
}

impl TimeBreakdown {
    /// Total cycles across all categories.
    pub const fn total(&self) -> u64 {
        self.busy + self.sync + self.local_stall + self.remote_stall + self.translation
    }

    /// Total processor stall time on memory accesses (local + remote), the
    /// denominator of Table 4.
    pub const fn stall(&self) -> u64 {
        self.local_stall + self.remote_stall
    }

    /// Translation overhead as a fraction of memory stall time (Table 4's
    /// metric), `0` when there was no stall time.
    pub fn translation_over_stall(&self) -> f64 {
        if self.stall() == 0 {
            0.0
        } else {
            self.translation as f64 / self.stall() as f64
        }
    }

}

impl Mergeable for TimeBreakdown {
    fn merge(&mut self, o: &Self) {
        self.busy += o.busy;
        self.sync += o.sync;
        self.local_stall += o.local_stall;
        self.remote_stall += o.remote_stall;
        self.translation += o.translation;
    }
}

/// Fine-grained latency attribution for one node (or summed over nodes).
///
/// Every elapsed cycle of a node's simulated time lands in exactly one of
/// these categories, so for any run `total() == node.time` — enforced by
/// the conservation integration test. This is the simulator's only
/// latency account; [`LatencyBreakdown::coarse`] projects it onto the
/// paper's [`TimeBreakdown`]: `busy`, `sync` and `local_stall` carry over,
/// `tlb_walk + dlb_lookup` refines `translation`, and
/// `coherence + network + queue + fault` refines `remote_stall`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Instruction execution (`Compute` ops plus one issue cycle per
    /// memory reference).
    pub busy: u64,
    /// Waiting at barriers and locks.
    pub sync: u64,
    /// Page-table walks on node TLB misses (including writeback and
    /// protection-change translations under the TLB schemes).
    pub tlb_walk: u64,
    /// Home-node DLB lookups and walks (V-COMA's in-memory translation).
    pub dlb_lookup: u64,
    /// Local hierarchy stalls: FLC hits, SLC hits and local
    /// attraction-memory hits.
    pub local_stall: u64,
    /// Remote memory service time: directory lookups and
    /// attraction-memory access at the home or owner.
    pub coherence: u64,
    /// Wire latency of coherence messages.
    pub network: u64,
    /// Waiting for contended crossbar output ports (zero in the paper's
    /// contention-free model).
    pub queue: u64,
    /// Fault-recovery time: retry backoff, timeout detection, NACK round
    /// trips and fault-added wire delay (zero unless fault injection is
    /// enabled).
    pub fault: u64,
}

/// Category names of [`LatencyBreakdown`], in field order (matches
/// [`LatencyBreakdown::as_array`]).
pub const LATENCY_CATEGORIES: [&str; 9] = [
    "busy",
    "sync",
    "tlb_walk",
    "dlb_lookup",
    "local_stall",
    "coherence",
    "network",
    "queue",
    "fault",
];

impl LatencyBreakdown {
    /// Total cycles across all categories.
    pub const fn total(&self) -> u64 {
        self.busy
            + self.sync
            + self.tlb_walk
            + self.dlb_lookup
            + self.local_stall
            + self.coherence
            + self.network
            + self.queue
            + self.fault
    }

    /// Translation overhead (node TLB walks plus home DLB lookups).
    pub const fn translation(&self) -> u64 {
        self.tlb_walk + self.dlb_lookup
    }

    /// Projects the fine attribution onto the paper's coarse Figure-10
    /// categories. Exact: `coarse().total() == total()`.
    pub const fn coarse(&self) -> TimeBreakdown {
        TimeBreakdown {
            busy: self.busy,
            sync: self.sync,
            local_stall: self.local_stall,
            remote_stall: self.coherence + self.network + self.queue + self.fault,
            translation: self.translation(),
        }
    }

    /// The category values in [`LATENCY_CATEGORIES`] order.
    pub const fn as_array(&self) -> [u64; 9] {
        [
            self.busy,
            self.sync,
            self.tlb_walk,
            self.dlb_lookup,
            self.local_stall,
            self.coherence,
            self.network,
            self.queue,
            self.fault,
        ]
    }
}

impl Mergeable for LatencyBreakdown {
    fn merge(&mut self, o: &Self) {
        self.busy += o.busy;
        self.sync += o.sync;
        self.tlb_walk += o.tlb_walk;
        self.dlb_lookup += o.dlb_lookup;
        self.local_stall += o.local_stall;
        self.coherence += o.coherence;
        self.network += o.network;
        self.queue += o.queue;
        self.fault += o.fault;
    }
}

impl std::fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let vals = self.as_array();
        for (name, v) in LATENCY_CATEGORIES.iter().zip(vals.iter()) {
            write!(f, "{name}={v} ")?;
        }
        write!(f, "(total {})", self.total())
    }
}

impl std::fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "busy={} sync={} loc-stall={} rem-stall={} xlat={} (total {})",
            self.busy,
            self.sync,
            self.local_stall,
            self.remote_stall,
            self.translation,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_ratios() {
        let b = TimeBreakdown {
            busy: 100,
            sync: 50,
            local_stall: 30,
            remote_stall: 70,
            translation: 10,
        };
        assert_eq!(b.total(), 260);
        assert_eq!(b.stall(), 100);
        assert!((b.translation_over_stall() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn idle_breakdown_has_zero_ratio() {
        assert_eq!(TimeBreakdown::default().translation_over_stall(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TimeBreakdown { busy: 1, ..TimeBreakdown::default() };
        a.merge(&TimeBreakdown { busy: 2, sync: 3, ..TimeBreakdown::default() });
        assert_eq!(a.busy, 3);
        assert_eq!(a.sync, 3);
    }

    #[test]
    fn display_mentions_every_category() {
        let s = TimeBreakdown::default().to_string();
        for key in ["busy", "sync", "loc-stall", "rem-stall", "xlat"] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn latency_breakdown_total_covers_every_category() {
        let fine = LatencyBreakdown {
            busy: 1,
            sync: 2,
            tlb_walk: 4,
            dlb_lookup: 8,
            local_stall: 16,
            coherence: 32,
            network: 64,
            queue: 128,
            fault: 256,
        };
        assert_eq!(fine.total(), 511);
        assert_eq!(fine.translation(), 12);
        assert_eq!(
            fine.coarse(),
            TimeBreakdown {
                busy: 1,
                sync: 2,
                local_stall: 16,
                remote_stall: 480,
                translation: 12,
            }
        );
        assert_eq!(fine.coarse().total(), fine.total());
        assert_eq!(fine.as_array().iter().sum::<u64>(), fine.total());
        assert_eq!(fine.as_array().len(), LATENCY_CATEGORIES.len());
    }

    #[test]
    fn latency_breakdown_merge_accumulates() {
        let mut a = LatencyBreakdown { network: 10, ..LatencyBreakdown::default() };
        a.merge(&LatencyBreakdown { network: 5, queue: 7, ..LatencyBreakdown::default() });
        assert_eq!(a.network, 15);
        assert_eq!(a.queue, 7);
    }

    #[test]
    fn latency_display_mentions_every_category() {
        let s = LatencyBreakdown::default().to_string();
        for key in LATENCY_CATEGORIES {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
