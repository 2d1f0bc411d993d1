//! Attraction-memory block states and directory entries.

use vcoma_types::NodeId;

/// State of a resident attraction-memory block (paper §4.2). Absence from
/// the AM array is the fourth state, *Invalid*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AmState {
    /// A read-only copy; other copies exist, one of them is the master.
    /// The default only fills vacant slots in the AM array's flat payload
    /// slab — it carries no protocol meaning.
    #[default]
    Shared,
    /// The read-only *master* copy — the one responsible for injection on
    /// replacement and for supplying data to readers.
    MasterShared,
    /// The only copy, writable.
    Exclusive,
}

impl AmState {
    /// Returns `true` for the states that carry ownership (Master-shared or
    /// Exclusive) and therefore must be injected rather than dropped on
    /// replacement.
    pub const fn is_owner(self) -> bool {
        matches!(self, AmState::MasterShared | AmState::Exclusive)
    }

    /// Returns `true` if a local write can proceed without a coherence
    /// transaction.
    pub const fn satisfies_write(self) -> bool {
        matches!(self, AmState::Exclusive)
    }
}

impl std::fmt::Display for AmState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AmState::Shared => f.write_str("S"),
            AmState::MasterShared => f.write_str("MS"),
            AmState::Exclusive => f.write_str("E"),
        }
    }
}

/// The largest machine the directory can describe. One bit per node in
/// [`CopySet`]; 1024 covers every node count the scale-up experiments
/// sweep (the paper machine is 32).
pub const MAX_NODES: usize = 1024;

const COPYSET_WORDS: usize = MAX_NODES / 64;

/// The set of nodes holding a copy of one block: a fixed multi-word bit
/// mask over node indices. The single-`u64` predecessor capped machines
/// at 64 nodes; this lifts the ceiling to [`MAX_NODES`] while staying
/// `Copy` (directory entries are copied around the protocol freely).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CopySet {
    words: [u64; COPYSET_WORDS],
}

impl CopySet {
    /// The empty set.
    pub const EMPTY: CopySet = CopySet { words: [0; COPYSET_WORDS] };

    /// The singleton set `{node}`.
    pub fn only(node: NodeId) -> Self {
        let mut s = CopySet::EMPTY;
        s.insert(node);
        s
    }

    /// Adds `node` to the set.
    pub fn insert(&mut self, node: NodeId) {
        let i = node.index();
        debug_assert!(i < MAX_NODES, "node {i} beyond the {MAX_NODES}-node directory limit");
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `node` from the set (a no-op if absent).
    pub fn remove(&mut self, node: NodeId) {
        let i = node.index();
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Returns `true` if `node` is in the set.
    pub const fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of nodes in the set.
    pub const fn count(&self) -> u32 {
        let mut total = 0;
        let mut w = 0;
        while w < COPYSET_WORDS {
            total += self.words[w].count_ones();
            w += 1;
        }
        total
    }

    /// Returns `true` if the set is empty.
    pub const fn is_empty(&self) -> bool {
        let mut w = 0;
        while w < COPYSET_WORDS {
            if self.words[w] != 0 {
                return false;
            }
            w += 1;
        }
        true
    }

    /// Iterates over the members in ascending node order, in time
    /// proportional to the words plus the members (set bits are peeled
    /// off lowest first, not tested one position at a time).
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(NodeId::new((w * 64 + b) as u16))
            })
        })
    }
}

impl std::fmt::Debug for CopySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter().map(|n| n.raw())).finish()
    }
}

/// Directory entry for one block, held at the block's home node.
///
/// Tracks which nodes hold copies (as a [`CopySet`] bit mask over node
/// indices, machines up to [`MAX_NODES`] nodes) and which node holds the
/// master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirEntry {
    /// Membership ⇔ the node holds a non-Invalid copy.
    pub copyset: CopySet,
    /// The node holding the Master-shared or Exclusive copy, if any copy
    /// exists.
    pub master: Option<NodeId>,
    /// The home node this entry lives at (for invariant checking).
    pub home: NodeId,
}

impl DirEntry {
    /// An entry with no copies anywhere.
    pub const fn empty(home: NodeId) -> Self {
        DirEntry { copyset: CopySet::EMPTY, master: None, home }
    }

    /// Returns `true` if `node` holds a copy.
    pub const fn holds(&self, node: NodeId) -> bool {
        self.copyset.contains(node)
    }

    /// Records that `node` holds a copy.
    pub fn add(&mut self, node: NodeId) {
        self.copyset.insert(node);
    }

    /// Records that `node` no longer holds a copy.
    pub fn remove(&mut self, node: NodeId) {
        self.copyset.remove(node);
        if self.master == Some(node) {
            self.master = None;
        }
    }

    /// Number of copies.
    pub const fn copies(&self) -> u32 {
        self.copyset.count()
    }

    /// Returns `true` if no node holds a copy.
    pub const fn is_uncached(&self) -> bool {
        self.copyset.is_empty()
    }

    /// Iterates over the holders other than `except`.
    pub fn holders_except(&self, except: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.copyset.iter().filter(move |n| *n != except)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn am_state_predicates() {
        assert!(!AmState::Shared.is_owner());
        assert!(AmState::MasterShared.is_owner());
        assert!(AmState::Exclusive.is_owner());
        assert!(AmState::Exclusive.satisfies_write());
        assert!(!AmState::MasterShared.satisfies_write());
        assert!(!AmState::Shared.satisfies_write());
    }

    #[test]
    fn am_state_display() {
        assert_eq!(AmState::Shared.to_string(), "S");
        assert_eq!(AmState::MasterShared.to_string(), "MS");
        assert_eq!(AmState::Exclusive.to_string(), "E");
    }

    #[test]
    fn dir_entry_add_remove() {
        let mut e = DirEntry::empty(NodeId::new(0));
        assert!(e.is_uncached());
        e.add(NodeId::new(3));
        e.add(NodeId::new(5));
        e.master = Some(NodeId::new(3));
        assert!(e.holds(NodeId::new(3)));
        assert!(e.holds(NodeId::new(5)));
        assert!(!e.holds(NodeId::new(4)));
        assert_eq!(e.copies(), 2);
        e.remove(NodeId::new(3));
        assert!(!e.holds(NodeId::new(3)));
        assert_eq!(e.master, None, "removing the master clears the master field");
        assert_eq!(e.copies(), 1);
    }

    #[test]
    fn holders_except_skips_the_exception() {
        let mut e = DirEntry::empty(NodeId::new(0));
        for i in [1u16, 2, 7] {
            e.add(NodeId::new(i));
        }
        let others: Vec<u16> = e.holders_except(NodeId::new(2)).map(|n| n.raw()).collect();
        assert_eq!(others, vec![1, 7]);
    }

    #[test]
    fn copyset_scales_past_64_nodes() {
        // Regression: the single-u64 predecessor overflowed its shift at
        // node 64 and capped the directory at 64-node machines.
        let mut e = DirEntry::empty(NodeId::new(0));
        for i in [0u16, 63, 64, 255, 1023] {
            e.add(NodeId::new(i));
            assert!(e.holds(NodeId::new(i)), "node {i}");
        }
        assert_eq!(e.copies(), 5);
        let all: Vec<u16> = e.copyset.iter().map(|n| n.raw()).collect();
        assert_eq!(all, vec![0, 63, 64, 255, 1023], "ascending node order");
        let others: Vec<u16> = e.holders_except(NodeId::new(255)).map(|n| n.raw()).collect();
        assert_eq!(others, vec![0, 63, 64, 1023]);
        e.remove(NodeId::new(64));
        assert!(!e.holds(NodeId::new(64)));
        assert_eq!(e.copies(), 4);
        assert_eq!(format!("{:?}", CopySet::only(NodeId::new(100))), "{100}");
    }

    #[test]
    fn remove_nonholder_is_noop() {
        let mut e = DirEntry::empty(NodeId::new(0));
        e.add(NodeId::new(1));
        e.remove(NodeId::new(9));
        assert!(e.holds(NodeId::new(1)));
        assert_eq!(e.copies(), 1);
    }
}
