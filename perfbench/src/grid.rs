//! The pinned workloads: which artifact grids each one resolves, at which
//! scale, on which machine.

use vcoma::workloads::Workload;
use vcoma::{all_schemes, paper_schemes, MachineConfig, Op, Scheme, Simulator, TlbOrg};
use vcoma_experiments::{ExperimentConfig, SIZE_AXIS};

/// Workload scale of the simulation workload.
pub const SIM_SCALE: f64 = 0.1;
/// Workload scale of the grids `store_resume` fills and resolves.
pub const STORE_SCALE: f64 = 0.005;

/// One benchmark workload (a `--workload` name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// `fig8_shadow_tlb`: the Figure-8 grid with the 8..512 shadow bank.
    Fig8,
    /// `store_resume`: both grids served from a warm on-disk store.
    StoreResume,
}

impl Bench {
    pub fn parse(name: &str) -> Option<Bench> {
        match name {
            "fig8_shadow_tlb" => Some(Bench::Fig8),
            "store_resume" => Some(Bench::StoreResume),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Bench::Fig8 => "fig8_shadow_tlb",
            Bench::StoreResume => "store_resume",
        }
    }

    pub fn scale(self) -> f64 {
        match self {
            Bench::Fig8 => SIM_SCALE,
            Bench::StoreResume => STORE_SCALE,
        }
    }

    /// The artifact sweeps one pass of this workload resolves, in order.
    pub fn artifacts(self) -> &'static [Artifact] {
        match self {
            Bench::Fig8 => &[Artifact::Fig8],
            Bench::StoreResume => &[Artifact::Fig8, Artifact::Table5],
        }
    }

    /// The experiment configuration: the paper's 32-node machine, this
    /// workload's scale, the given master seed and sweep workers.
    pub fn config(self, seed: u64, jobs: usize) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new()
            .with_scale(self.scale())
            .with_jobs(jobs);
        cfg.seed = seed;
        cfg
    }
}

/// One artifact grid (an `artifacts::run_standard` name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    Fig8,
    Table5,
}

impl Artifact {
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Fig8 => "fig8",
            Artifact::Table5 => "table5",
        }
    }

    /// The scheme roster, in the artifact's own order.
    pub fn schemes(self) -> Vec<Scheme> {
        match self {
            Artifact::Fig8 => paper_schemes(),
            Artifact::Table5 => all_schemes(),
        }
    }

    /// The TLB/DLB bank each point carries.
    pub fn specs(self) -> Vec<(u64, TlbOrg)> {
        match self {
            Artifact::Fig8 => SIZE_AXIS
                .iter()
                .map(|&s| (s, TlbOrg::FullyAssociative))
                .collect(),
            Artifact::Table5 => vec![(8, TlbOrg::FullyAssociative)],
        }
    }

    /// The simulator the artifact builds for one point.
    pub fn simulator(self, cfg: &ExperimentConfig, scheme: Scheme) -> Simulator {
        match self {
            Artifact::Fig8 => cfg.simulator(scheme).specs(self.specs()),
            Artifact::Table5 => cfg.simulator(scheme),
        }
    }

    /// The artifact's points, benchmark-major as its sweep orders them:
    /// `(benchmark index, scheme, label)`.
    pub fn points(self, benches: &[Box<dyn Workload>]) -> Vec<(usize, Scheme, String)> {
        let schemes = self.schemes();
        benches
            .iter()
            .enumerate()
            .flat_map(|(b, w)| {
                schemes
                    .iter()
                    .map(move |&s| (b, s, format!("{}/{}", w.name(), s.label())))
            })
            .collect()
    }
}

/// Drains every node's op source round-robin (one op per node per turn,
/// so the shared generator buffers at most one phase), calling `f` with
/// the node index and each op. Returns the op count.
pub fn drain(w: &dyn Workload, machine: &MachineConfig, mut f: impl FnMut(usize, Op)) -> u64 {
    let mut sources = w.sources(machine);
    let mut live: Vec<usize> = (0..sources.len()).collect();
    let mut ops = 0u64;
    while !live.is_empty() {
        live.retain(|&n| match sources[n].next_op() {
            Some(op) => {
                ops += 1;
                f(n, op);
                true
            }
            None => false,
        });
    }
    ops
}

/// Memory references (reads plus writes) each benchmark replays: the same
/// for every scheme, since each read or write op is one reference.
pub fn refs_per_benchmark(benches: &[Box<dyn Workload>], machine: &MachineConfig) -> Vec<u64> {
    benches
        .iter()
        .map(|w| {
            let mut refs = 0u64;
            drain(w.as_ref(), machine, |_, op| {
                refs += u64::from(matches!(op, Op::Read(_) | Op::Write(_)));
            });
            refs
        })
        .collect()
}
