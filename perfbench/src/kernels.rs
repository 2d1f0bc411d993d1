//! Layer kernels: one benchmark's own op streams replayed through each
//! layer's public functions, timed from outside the layer.
//!
//! Each kernel returns its work count and host seconds. The streams are
//! per node (`(address << 1) | is_write` per reference), so the per-node
//! structures (TLB, FLC, SLC) see exactly the sequence the simulator's
//! nodes see; the shared ones (protocol, crossbar) get a deterministic
//! round-robin interleaving.

use std::time::Instant;

use vcoma::cachesim::{Flc, Slc};
use vcoma::coherence::{NullTranslation, Protocol};
use vcoma::net::{Crossbar, MsgKind};
use vcoma::workloads::Workload;
use vcoma::{AccessKind, DetRng, MachineConfig, NodeId, Op, Tlb, TlbBank, TlbOrg, VPage};

use crate::grid;

/// Work done and host seconds spent by one kernel batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Batch {
    pub ops: u64,
    pub secs: f64,
}

impl Batch {
    fn timed(start: Instant, ops: u64) -> Batch {
        Batch {
            ops,
            secs: start.elapsed().as_secs_f64(),
        }
    }

    pub fn add(&mut self, other: Batch) {
        self.ops += other.ops;
        self.secs += other.secs;
    }

    /// Host nanoseconds per operation (0 when the batch did no work).
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.secs * 1e9 / self.ops as f64
        }
    }
}

/// `workloads`: pulls every op of the benchmark through
/// `OpSource::next_op`.
pub fn generate(w: &dyn Workload, m: &MachineConfig) -> Batch {
    let t0 = Instant::now();
    let ops = grid::drain(w, m, |_, op| {
        std::hint::black_box(op);
    });
    Batch::timed(t0, ops)
}

/// The benchmark's per-node reference streams (untimed).
pub fn streams(w: &dyn Workload, m: &MachineConfig) -> Vec<Vec<u64>> {
    let mut nodes = vec![Vec::new(); m.nodes as usize];
    grid::drain(w, m, |n, op| match op {
        Op::Read(a) => nodes[n].push(a.raw() << 1),
        Op::Write(a) => nodes[n].push(a.raw() << 1 | 1),
        _ => {}
    });
    nodes
}

/// `tlb`: every node's page stream through its own `TlbBank` carrying
/// `specs`. Returns the batch and the primary member's hits.
pub fn tlb_bank(
    streams: &[Vec<u64>],
    m: &MachineConfig,
    specs: &[(u64, TlbOrg)],
    seed: u64,
) -> (Batch, u64) {
    let shift = m.page_size.trailing_zeros() + 1;
    let mut hits = 0u64;
    let mut lookups = 0u64;
    let t0 = Instant::now();
    for (n, refs) in streams.iter().enumerate() {
        let mut bank = TlbBank::new(specs, seed ^ n as u64);
        for &r in refs {
            hits += u64::from(bank.access(VPage::new(r >> shift)));
        }
        lookups += refs.len() as u64;
    }
    (Batch::timed(t0, lookups), hits)
}

/// `tlb`: the same page streams through one fully-associative `Tlb` of
/// `entries` entries per node.
pub fn tlb_single(streams: &[Vec<u64>], m: &MachineConfig, entries: u64, seed: u64) -> Batch {
    let shift = m.page_size.trailing_zeros() + 1;
    let mut lookups = 0u64;
    let t0 = Instant::now();
    for (n, refs) in streams.iter().enumerate() {
        let mut tlb = Tlb::new(entries, TlbOrg::FullyAssociative, seed ^ n as u64);
        for &r in refs {
            std::hint::black_box(tlb.translate(VPage::new(r >> shift)));
        }
        lookups += refs.len() as u64;
    }
    Batch::timed(t0, lookups)
}

/// What the cache kernel saw, plus the SLC-miss stream it left for the
/// protocol kernel.
pub struct CacheRun {
    pub batch: Batch,
    pub flc_accesses: u64,
    pub flc_hits: u64,
    pub slc_accesses: u64,
    pub slc_hits: u64,
    /// Per node: the references that missed both caches.
    pub misses: Vec<Vec<u64>>,
}

/// `cachesim`: `Flc::read`/`Flc::write` on every reference, then
/// `Slc::access` where the reference goes on below the FLC (read misses
/// and every write, as in the simulator's write-through FLC).
pub fn caches(streams: &[Vec<u64>], m: &MachineConfig) -> CacheRun {
    let flc_shift = m.flc.block_size.trailing_zeros() + 1;
    let slc_shift = m.slc.block_size.trailing_zeros() + 1;
    let (mut flc_hits, mut slc_accesses, mut slc_hits, mut refs) = (0u64, 0u64, 0u64, 0u64);
    let mut misses = Vec::with_capacity(streams.len());
    let t0 = Instant::now();
    for node in streams {
        let mut flc = Flc::new(m.flc);
        let mut slc = Slc::new(m.slc);
        let mut missed = Vec::new();
        for &r in node {
            let write = r & 1 == 1;
            let hit = if write {
                flc.write(r >> flc_shift)
            } else {
                flc.read(r >> flc_shift)
            }
            .is_hit();
            flc_hits += u64::from(hit);
            if write || !hit {
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                slc_accesses += 1;
                if slc.access(r >> slc_shift, kind).hit {
                    slc_hits += 1;
                } else {
                    missed.push(r);
                }
            }
        }
        refs += node.len() as u64;
        misses.push(missed);
    }
    let batch = Batch::timed(t0, refs + slc_accesses);
    CacheRun {
        batch,
        flc_accesses: refs,
        flc_hits,
        slc_accesses,
        slc_hits,
        misses,
    }
}

/// `coherence`: the SLC-miss streams, interleaved round-robin across
/// nodes, through `Protocol::read`/`Protocol::write` with
/// `NullTranslation` and the machine's crossbar. Returns the batch and
/// how many transactions needed remote traffic.
pub fn protocol(misses: &[Vec<u64>], m: &MachineConfig, seed: u64) -> (Batch, u64) {
    let am_shift = m.am.block_size.trailing_zeros() + 1;
    let page_shift = m.page_size.trailing_zeros() + 1;
    let mut proto = Protocol::new(m, seed);
    let mut net = Crossbar::new(m.nodes, m.timing).with_block_size(m.am.block_size);
    let mut xl = NullTranslation;
    let mut now = vec![0u64; misses.len()];
    let mut cursor = vec![0usize; misses.len()];
    let (mut txns, mut remote) = (0u64, 0u64);
    let t0 = Instant::now();
    let mut live = true;
    while live {
        live = false;
        for (n, stream) in misses.iter().enumerate() {
            let Some(&r) = stream.get(cursor[n]) else {
                continue;
            };
            cursor[n] += 1;
            live = true;
            let node = NodeId::new(n as u16);
            let home = m.home_of_vpage(VPage::new(r >> page_shift));
            let block = r >> am_shift;
            let a = if r & 1 == 1 {
                proto.write(node, block, home, &mut net, &mut xl, now[n])
            } else {
                proto.read(node, block, home, &mut net, &mut xl, now[n])
            };
            now[n] += 1 + a.latency;
            txns += 1;
            remote += u64::from(!a.local_hit);
        }
    }
    (Batch::timed(t0, txns), remote)
}

/// `net`: `Crossbar::send` over a message mix (`(kind, count)` pairs, as
/// a simulated run's `NetStats` records it), shuffled deterministically
/// between random node pairs.
pub fn crossbar(mix: &[(MsgKind, u64)], m: &MachineConfig, seed: u64) -> Batch {
    let mut rng = DetRng::new(seed ^ 0x4E37);
    let mut msgs: Vec<(NodeId, NodeId, MsgKind)> = mix
        .iter()
        .flat_map(|&(kind, count)| (0..count).map(move |_| kind))
        .map(|kind| {
            let src = NodeId::new(rng.gen_index(m.nodes as usize) as u16);
            let dst = NodeId::new(rng.gen_index(m.nodes as usize) as u16);
            (src, dst, kind)
        })
        .collect();
    rng.shuffle(&mut msgs);
    let mut net = Crossbar::new(m.nodes, m.timing).with_block_size(m.am.block_size);
    let t0 = Instant::now();
    for (i, &(src, dst, kind)) in msgs.iter().enumerate() {
        std::hint::black_box(net.send(src, dst, kind, i as u64));
    }
    Batch::timed(t0, msgs.len() as u64)
}
