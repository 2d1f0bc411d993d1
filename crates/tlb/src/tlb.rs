//! The TLB/DLB structure.

use serde::{Deserialize, Serialize};
use vcoma_cachesim::{Replacement, SetAssocArray};
use vcoma_metrics::Mergeable;
use vcoma_types::{DetRng, VPage};

/// Organisation of a TLB or DLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlbOrg {
    /// One set of `entries` ways with random replacement — the paper's
    /// default organisation (§5.1).
    FullyAssociative,
    /// `entries` sets of one way — the `/DM` variants of Figure 9.
    DirectMapped,
}

impl std::fmt::Display for TlbOrg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlbOrg::FullyAssociative => f.write_str("FA"),
            TlbOrg::DirectMapped => f.write_str("DM"),
        }
    }
}

/// Hit/miss counters for a TLB or DLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TlbStats {
    /// Translations requested.
    pub accesses: u64,
    /// Translations that missed (and were then refilled).
    pub misses: u64,
    /// Entries displaced by refills.
    pub evictions: u64,
    /// Entries removed by shootdown / mapping change.
    pub shootdowns: u64,
}

impl TlbStats {
    /// Hits (`accesses - misses`).
    pub const fn hits(&self) -> u64 {
        self.accesses - self.misses
    }

    /// Miss ratio in `[0, 1]`; `0` when idle.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

}

impl Mergeable for TlbStats {
    fn merge(&mut self, other: &Self) {
        self.accesses += other.accesses;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.shootdowns += other.shootdowns;
    }
}

impl std::fmt::Display for TlbStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "accesses={} misses={} (miss ratio {:.5})",
            self.accesses,
            self.misses,
            self.miss_ratio()
        )
    }
}

/// Marks a free [`FaBuffer`] index cell; a used cell holds `slot + 1`.
/// Zero, so a new index is zeroed memory whose pages the allocator need
/// not touch until a fill reaches them (an index filled with a nonzero
/// sentinel raised the Figure-8 sweep's peak RSS by 1.6 MB).
const FREE: u32 = 0;

/// The fully-associative, random-replacement buffer: resident tags in fill
/// order, plus an open-addressed tag→slot index so a lookup costs O(1)
/// whatever the size.
///
/// It keeps the semantics of a one-set `SetAssocArray` under
/// `Replacement::Random` exactly, so every RNG draw and every victim is
/// the same: a fill appends, a refill of a full buffer replaces slot
/// `rng.gen_index(len)` in place, and a removal is a `swap_remove`.
/// Random replacement never reads recency, so there are no LRU stamps;
/// the index (two `u32` cells per entry at power-of-two sizes) takes
/// their place.
#[derive(Debug, Clone)]
struct FaBuffer {
    /// Resident tags in fill order (the victim draw indexes this).
    tags: Vec<u64>,
    capacity: usize,
    /// Linear-probing table of `tags` indices plus one, [`FREE`] when
    /// free; a power of two at least twice `capacity`, so probes stay
    /// short.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the home cell is the top bits of a
    /// multiplicative hash.
    shift: u32,
    rng: DetRng,
}

impl FaBuffer {
    fn new(capacity: usize, seed: u64) -> Self {
        let cells = (2 * capacity).next_power_of_two().max(2);
        assert!(capacity < u32::MAX as usize, "TLB too large for a u32 index");
        FaBuffer {
            tags: Vec::with_capacity(capacity),
            capacity,
            index: vec![FREE; cells],
            shift: 64 - cells.trailing_zeros(),
            rng: DetRng::new(seed),
        }
    }

    #[inline]
    fn home(&self, tag: u64) -> usize {
        (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Index cell holding `tag`, if resident.
    #[inline]
    fn cell_of(&self, tag: u64) -> Option<usize> {
        let mask = self.index.len() - 1;
        let mut i = self.home(tag);
        loop {
            let cell = self.index[i];
            if cell == FREE {
                return None;
            }
            if self.tags[cell as usize - 1] == tag {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn contains(&self, tag: u64) -> bool {
        self.cell_of(tag).is_some()
    }

    /// Points a free cell on `tag`'s probe chain at `slot`.
    fn link(&mut self, tag: u64, slot: usize) {
        let mask = self.index.len() - 1;
        let mut i = self.home(tag);
        while self.index[i] != FREE {
            i = (i + 1) & mask;
        }
        self.index[i] = slot as u32 + 1;
    }

    /// Frees index cell `hole`, shifting later members of its probe run
    /// back so every chain stays unbroken (no tombstones).
    fn unlink(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let cell = self.index[j];
            if cell == FREE {
                break;
            }
            let home = self.home(self.tags[cell as usize - 1]);
            // The entry at `j` may fill the hole unless its home lies
            // cyclically in `(hole, j]`.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.index[hole] = cell;
                hole = j;
            }
        }
        self.index[hole] = FREE;
    }

    /// Fills a missing `tag`, returning the tag it displaced, if any.
    fn fill(&mut self, tag: u64) -> Option<u64> {
        let len = self.tags.len();
        if len < self.capacity {
            self.tags.push(tag);
            self.link(tag, len);
            return None;
        }
        let v = self.rng.gen_index(len);
        let victim = self.tags[v];
        let cell = self.cell_of(victim).expect("resident tags are indexed");
        self.unlink(cell);
        self.tags[v] = tag;
        self.link(tag, v);
        Some(victim)
    }

    /// Removes `tag`; the last tag in fill order moves into its slot.
    fn remove(&mut self, tag: u64) -> bool {
        let Some(cell) = self.cell_of(tag) else {
            return false;
        };
        let slot = self.index[cell] as usize - 1;
        self.unlink(cell);
        let last = self.tags.len() - 1;
        if slot != last {
            let moved = self.cell_of(self.tags[last]).expect("resident tags are indexed");
            self.index[moved] = slot as u32 + 1;
        }
        self.tags.swap_remove(slot);
        true
    }

    fn clear(&mut self) {
        self.tags.clear();
        self.index.fill(FREE);
    }
}

/// A TLB's storage: the indexed buffer for the fully-associative
/// organisation, a one-way-per-set array for the direct-mapped one.
#[derive(Debug, Clone)]
enum Buffer {
    Fa(FaBuffer),
    Dm(SetAssocArray<()>),
}

/// A translation lookaside buffer over virtual page numbers.
///
/// The same structure serves as a node's TLB (`L0`–`L3`) and as a home
/// node's DLB (V-COMA): both cache page-granularity mappings whose actual
/// target (physical frame or directory page) is stored in the page table,
/// so the buffer only needs to model *presence*. Misses are assumed to be
/// refilled from the page table by hardware or the protocol engine — the
/// simulator charges the paper's 40-cycle service time per miss.
///
/// A capacity of `0` models the software-managed scheme: every access
/// misses.
#[derive(Debug, Clone)]
pub struct Tlb {
    buffer: Option<Buffer>,
    entries: u64,
    org: TlbOrg,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with the given number of entries and organisation.
    /// `seed` feeds the random-replacement policy (fully-associative
    /// organisation only), keeping runs deterministic.
    pub fn new(entries: u64, org: TlbOrg, seed: u64) -> Self {
        let buffer = if entries == 0 {
            None
        } else {
            Some(match org {
                TlbOrg::FullyAssociative => Buffer::Fa(FaBuffer::new(entries as usize, seed)),
                TlbOrg::DirectMapped => {
                    Buffer::Dm(SetAssocArray::new(entries, 1, Replacement::Lru))
                }
            })
        };
        Tlb { buffer, entries, org, stats: TlbStats::default() }
    }

    /// Number of entries.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Organisation.
    pub fn org(&self) -> TlbOrg {
        self.org
    }

    /// Translation reach in bytes for the given page size.
    pub fn reach(&self, page_size: u64) -> u64 {
        self.entries * page_size
    }

    /// Translates a page: returns `true` on a hit. On a miss the mapping is
    /// refilled into the buffer (counting an eviction if a victim was
    /// displaced) and `false` is returned.
    pub fn translate(&mut self, page: VPage) -> bool {
        self.translate_track(page).0
    }

    /// Like [`Tlb::translate`], additionally returning the page whose
    /// mapping the refill displaced (only ever `Some` on a miss that
    /// evicted a victim). Counters are updated exactly as by `translate`.
    pub fn translate_track(&mut self, page: VPage) -> (bool, Option<VPage>) {
        self.stats.accesses += 1;
        let tag = page.raw();
        let victim = match &mut self.buffer {
            None => None,
            Some(Buffer::Fa(fa)) => {
                if fa.contains(tag) {
                    return (true, None);
                }
                fa.fill(tag)
            }
            Some(Buffer::Dm(dm)) => {
                if dm.lookup(tag).is_some() {
                    return (true, None);
                }
                dm.insert(tag, ()).map(|(victim, ())| victim)
            }
        };
        self.stats.misses += 1;
        let victim = victim.map(VPage::new);
        if victim.is_some() {
            self.stats.evictions += 1;
        }
        (false, victim)
    }

    /// Probes for a page without refilling or counting an access.
    pub fn contains(&self, page: VPage) -> bool {
        match &self.buffer {
            None => false,
            Some(Buffer::Fa(fa)) => fa.contains(page.raw()),
            Some(Buffer::Dm(dm)) => dm.contains(page.raw()),
        }
    }

    /// Removes a page mapping (TLB shootdown on mapping/protection change).
    /// Returns whether it was present.
    pub fn shootdown(&mut self, page: VPage) -> bool {
        let present = match &mut self.buffer {
            None => false,
            Some(Buffer::Fa(fa)) => fa.remove(page.raw()),
            Some(Buffer::Dm(dm)) => dm.invalidate(page.raw()).is_some(),
        };
        if present {
            self.stats.shootdowns += 1;
        }
        present
    }

    /// Removes all mappings (full flush).
    pub fn flush(&mut self) {
        match &mut self.buffer {
            None => {}
            Some(Buffer::Fa(fa)) => fa.clear(),
            Some(Buffer::Dm(dm)) => dm.clear(),
        }
    }

    /// Number of resident mappings.
    pub fn len(&self) -> usize {
        match &self.buffer {
            None => 0,
            Some(Buffer::Fa(fa)) => fa.tags.len(),
            Some(Buffer::Dm(dm)) => dm.len(),
        }
    }

    /// Returns `true` if no mapping is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Zeroes the statistics counters, keeping the resident mappings (used
    /// between a warm-up pass and the measured pass).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut t = Tlb::new(4, TlbOrg::FullyAssociative, 0);
        assert!(!t.translate(VPage::new(1)));
        assert!(t.translate(VPage::new(1)));
        assert_eq!(t.stats().accesses, 2);
        assert_eq!(t.stats().misses, 1);
        assert_eq!(t.stats().hits(), 1);
    }

    #[test]
    fn zero_entry_always_misses() {
        let mut t = Tlb::new(0, TlbOrg::FullyAssociative, 0);
        for i in 0..10 {
            assert!(!t.translate(VPage::new(i)));
        }
        assert_eq!(t.stats().misses, 10);
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert!(!t.shootdown(VPage::new(0)));
        t.flush(); // no-op, must not panic
    }

    #[test]
    fn capacity_bounds_resident_mappings() {
        let mut t = Tlb::new(4, TlbOrg::FullyAssociative, 0);
        for i in 0..100 {
            t.translate(VPage::new(i));
        }
        assert_eq!(t.len(), 4);
        assert!(t.stats().evictions >= 96);
    }

    #[test]
    fn direct_mapped_conflicts_on_page_modulo() {
        let mut t = Tlb::new(4, TlbOrg::DirectMapped, 0);
        t.translate(VPage::new(0));
        t.translate(VPage::new(4)); // same slot
        assert!(!t.contains(VPage::new(0)));
        assert!(t.contains(VPage::new(4)));
        // distinct slots coexist
        t.translate(VPage::new(1));
        assert!(t.contains(VPage::new(4)));
        assert!(t.contains(VPage::new(1)));
    }

    #[test]
    fn fully_associative_holds_conflicting_pages() {
        let mut t = Tlb::new(4, TlbOrg::FullyAssociative, 0);
        t.translate(VPage::new(0));
        t.translate(VPage::new(4));
        t.translate(VPage::new(8));
        assert!(t.contains(VPage::new(0)));
        assert!(t.contains(VPage::new(4)));
        assert!(t.contains(VPage::new(8)));
    }

    #[test]
    fn translate_track_reports_the_displaced_victim() {
        let mut t = Tlb::new(1, TlbOrg::FullyAssociative, 0);
        assert_eq!(t.translate_track(VPage::new(1)), (false, None), "cold fill, no victim");
        assert_eq!(t.translate_track(VPage::new(1)), (true, None));
        assert_eq!(t.translate_track(VPage::new(2)), (false, Some(VPage::new(1))));
        assert_eq!(t.stats().evictions, 1);
        let mut zero = Tlb::new(0, TlbOrg::FullyAssociative, 0);
        assert_eq!(zero.translate_track(VPage::new(5)), (false, None));
    }

    #[test]
    fn shootdown_removes_mapping() {
        let mut t = Tlb::new(4, TlbOrg::FullyAssociative, 0);
        t.translate(VPage::new(7));
        assert!(t.shootdown(VPage::new(7)));
        assert!(!t.contains(VPage::new(7)));
        assert_eq!(t.stats().shootdowns, 1);
        assert!(!t.shootdown(VPage::new(7)));
    }

    #[test]
    fn flush_empties() {
        let mut t = Tlb::new(4, TlbOrg::FullyAssociative, 0);
        t.translate(VPage::new(1));
        t.translate(VPage::new(2));
        t.flush();
        assert!(t.is_empty());
    }

    #[test]
    fn reach_scales_with_entries() {
        let t = Tlb::new(64, TlbOrg::FullyAssociative, 0);
        assert_eq!(t.reach(4096), 64 * 4096);
    }

    #[test]
    fn random_replacement_is_seed_deterministic() {
        let run = |seed| {
            let mut t = Tlb::new(8, TlbOrg::FullyAssociative, seed);
            for i in 0..1000u64 {
                t.translate(VPage::new(i % 23));
            }
            t.stats().misses
        };
        assert_eq!(run(42), run(42));
    }

    /// Drives the indexed fully-associative buffer and the one-set
    /// random-replacement `SetAssocArray` it replaced side by side over a
    /// random stream of translations, shootdowns and flushes: every hit,
    /// miss and victim must agree, so does every RNG draw.
    #[test]
    fn indexed_fa_matches_the_one_set_random_array() {
        for entries in [1u64, 8, 16, 64, 512] {
            for seed in [0u64, 1, 0xC0FFEE, u64::MAX] {
                let mut tlb = Tlb::new(entries, TlbOrg::FullyAssociative, seed);
                let mut reference: SetAssocArray<()> =
                    SetAssocArray::new(1, entries, Replacement::Random(DetRng::new(seed)));
                let mut want = TlbStats::default();
                let mut stream = DetRng::new(seed ^ entries);
                let pages = entries + entries / 2 + 4;
                for step in 0..20_000u64 {
                    let page = VPage::new(stream.gen_range(pages));
                    match stream.gen_range(64) {
                        0..=3 => {
                            let present = reference.invalidate(page.raw()).is_some();
                            want.shootdowns += u64::from(present);
                            let got = tlb.shootdown(page);
                            assert_eq!(got, present, "{entries}/{seed} step {step}");
                        }
                        4 if step % 7 == 0 => {
                            reference.clear();
                            tlb.flush();
                        }
                        _ => {
                            want.accesses += 1;
                            let expect = if reference.lookup(page.raw()).is_some() {
                                (true, None)
                            } else {
                                want.misses += 1;
                                let victim = reference.insert(page.raw(), ()).map(|(v, ())| v);
                                want.evictions += u64::from(victim.is_some());
                                (false, victim.map(VPage::new))
                            };
                            let got = tlb.translate_track(page);
                            assert_eq!(got, expect, "{entries}/{seed} step {step}");
                        }
                    }
                }
                assert_eq!(*tlb.stats(), want, "{entries}/{seed}");
                assert_eq!(tlb.len(), reference.len(), "{entries}/{seed}");
                assert!(reference.iter().all(|(p, ())| tlb.contains(VPage::new(p))));
            }
        }
    }

    /// Random lookups against an `entries`-entry fully-associative TLB
    /// over a working set 1.5x its capacity, so the stream mixes hits,
    /// capacity misses and refills; every 64th lookup also shoots its page
    /// down. The miss count depends on every victim the random
    /// replacement draws and on the slot order shootdowns leave.
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

    #[test]
    fn tlb_checksums_are_pinned() {
        // Values of the pre-index one-set random-replacement array: the
        // indexed buffer must draw the same victims and keep the same
        // slot order.
        assert_eq!(fa_lookup(64, 200_000), 67_034);
        assert_eq!(fa_lookup(512, 200_000), 66_992);
    }

    #[test]
    fn stats_merge() {
        let mut a = TlbStats { accesses: 10, misses: 2, ..TlbStats::default() };
        let b = TlbStats { accesses: 5, misses: 1, evictions: 1, shootdowns: 2 };
        a.merge(&b);
        assert_eq!(a.accesses, 15);
        assert_eq!(a.misses, 3);
        assert_eq!(a.evictions, 1);
        assert_eq!(a.shootdowns, 2);
    }

    #[test]
    fn miss_ratio_idle_is_zero() {
        assert_eq!(TlbStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn org_display() {
        assert_eq!(TlbOrg::FullyAssociative.to_string(), "FA");
        assert_eq!(TlbOrg::DirectMapped.to_string(), "DM");
    }

    #[cfg(feature = "proptest-tests")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn len_never_exceeds_entries(
                entries in 1u64..32,
                pages in proptest::collection::vec(0u64..1000, 0..200),
                dm in prop::bool::ANY,
            ) {
                let org = if dm { TlbOrg::DirectMapped } else { TlbOrg::FullyAssociative };
                let mut t = Tlb::new(entries, org, 1);
                for p in pages {
                    t.translate(VPage::new(p));
                    prop_assert!(t.len() as u64 <= entries);
                }
            }

            #[test]
            fn translate_twice_in_a_row_hits(page in 0u64..1000) {
                let mut t = Tlb::new(8, TlbOrg::DirectMapped, 0);
                t.translate(VPage::new(page));
                prop_assert!(t.translate(VPage::new(page)));
            }

            #[test]
            fn misses_bounded_by_accesses(pages in proptest::collection::vec(0u64..100, 0..200)) {
                let mut t = Tlb::new(4, TlbOrg::FullyAssociative, 3);
                for p in pages {
                    t.translate(VPage::new(p));
                }
                prop_assert!(t.stats().misses <= t.stats().accesses);
                prop_assert!(t.stats().miss_ratio() <= 1.0);
            }
        }
    }
}
