//! The untraced run: set-up, then whole artifact passes at `--jobs 1`
//! until `--seconds` have passed, then the end-to-end metrics.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use vcoma::workloads::Workload;
use vcoma_experiments::{artifacts, sweep};

use crate::calib::HostSpeed;
use crate::gate;
use crate::grid::{self, Artifact, Bench};
use crate::probe::{Clock, Load, Probe};
use crate::Outcome;

/// Where the benchmark keeps its scratch files: the cargo target
/// directory it was built into, so nothing lands outside the checkout.
pub fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench")
}

/// A filled temporary store: the fresh report digest of every key it
/// holds. Removed from disk on drop.
pub struct Filled {
    pub root: PathBuf,
    pub fresh: HashMap<String, String>,
    /// The fill's store writes: key digest and host seconds.
    pub writes: Vec<(String, f64)>,
}

impl Drop for Filled {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Everything built before the first timed point.
pub struct Setup {
    pub bench: Bench,
    pub seed: u64,
    pub benches: Vec<Box<dyn Workload>>,
    /// The warm store (`store_resume` only).
    pub filled: Option<Filled>,
    /// When the set-up `setup_s` measures was done (Unix ns): before the
    /// benchmark digests the fill's reports for its gate.
    pub ready_ns: u128,
}

impl Setup {
    /// Config, `code_fingerprint()`, workload construction and, for
    /// `store_resume`, the store fill.
    pub fn build(bench: Bench, seed: u64) -> Setup {
        let _ = vcoma_experiments::cache::code_fingerprint();
        let benches = bench.config(seed, 1).benchmarks();
        let (filled, ready_ns) = match bench {
            Bench::StoreResume => {
                let (filled, ready_ns) = fill(bench, seed);
                (Some(filled), ready_ns)
            }
            _ => (None, crate::unix_ns()),
        };
        Setup {
            bench,
            seed,
            benches,
            filled,
            ready_ns,
        }
    }

    /// Memory references per benchmark (see `grid::refs_per_benchmark`).
    pub fn refs_per_benchmark(&self) -> Vec<u64> {
        let machine = &self.bench.config(self.seed, 1).machine;
        grid::refs_per_benchmark(&self.benches, machine)
    }

    fn names(&self) -> Vec<&'static str> {
        self.benches.iter().map(|w| w.name()).collect()
    }
}

/// Name of the file a fill leaves in its store root: the Unix ns at which
/// the fill ended, then `key digest write-seconds` per stored report.
const FILL_LOG: &str = "perfbench-fill.txt";

/// Fills a fresh store by resolving every grid of `bench` cold, in a
/// child process: the process measured afterwards resolves from a store
/// it never simulated into, as a restarted daemon does. Returns the store
/// and the Unix ns at which the fill ended.
fn fill(bench: Bench, seed: u64) -> (Filled, u128) {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let root = work_dir().join(format!("store-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let filled = Filled {
        root,
        fresh: HashMap::new(),
        writes: Vec::new(),
    };
    let exe = std::env::current_exe().expect("the benchmark binary's path");
    let status = Command::new(exe)
        .args(["--workload", bench.name(), "--seed", &seed.to_string()])
        .arg("--fill-store")
        .arg(&filled.root)
        .status()
        .expect("the fill process starts");
    assert!(status.success(), "the fill process failed: {status}");
    read_fill_log(filled)
}

fn read_fill_log(mut filled: Filled) -> (Filled, u128) {
    let log = std::fs::read_to_string(filled.root.join(FILL_LOG)).expect("the fill log");
    let mut lines = log.lines();
    let ready_ns = lines
        .next()
        .and_then(|l| l.parse().ok())
        .expect("fill end time");
    for line in lines {
        let f: Vec<&str> = line.split(' ').collect();
        let [key, digest, secs] = f[..] else {
            panic!("malformed fill log line: {line}");
        };
        filled.fresh.insert(key.to_string(), digest.to_string());
        let secs = secs.parse().expect("fill write seconds");
        filled.writes.push((key.to_string(), secs));
    }
    (filled, ready_ns)
}

/// The child side of [`fill`] (`--fill-store <root>`): resolves every
/// grid of `bench` cold into a new store at `root`, then writes the fill
/// log there.
pub fn fill_store(bench: Bench, seed: u64, root: &Path) {
    let probe = Probe::open(root);
    let cfg = bench.config(seed, 1).with_cache(probe.clone());
    for a in bench.artifacts() {
        artifacts::run_standard(a.name(), &cfg).expect("standard artifact");
    }
    let _ = sweep::take_stats();
    let mut log = format!("{}\n", crate::unix_ns());
    for s in probe.take_stores() {
        let digest = gate::report_digest(&s.report);
        log.push_str(&format!("{} {digest} {:?}\n", s.key.digest, s.secs));
    }
    std::fs::write(root.join(FILL_LOG), log).expect("the fill log is writable");
}

/// One artifact sweep of a pass, as observed from outside.
pub struct ArtifactRun {
    pub artifact: Artifact,
    pub start: Instant,
    pub secs: f64,
    /// `(table stem, CSV digest)`; `None` if the sweep panicked.
    pub tables: Option<Vec<(String, String)>>,
    /// Store loads in point order (`store_resume` only).
    pub loads: Vec<Load>,
    /// References simulated because the store missed (`store_resume`).
    pub simulated_refs: u64,
}

/// Runs every artifact of one pass at `jobs` workers, timing each sweep
/// call and leaving all checking for later.
pub fn pass(setup: &Setup, jobs: usize, clock: &Arc<Clock>) -> Vec<ArtifactRun> {
    let base = setup
        .bench
        .config(setup.seed, jobs)
        .with_progress(clock.clone());
    setup
        .bench
        .artifacts()
        .iter()
        .map(|&artifact| {
            let probe = setup.filled.as_ref().map(|f| Probe::open(&f.root));
            let cfg = match &probe {
                Some(p) => base.clone().with_cache(p.clone()),
                None => base.clone(),
            };
            let t0 = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| {
                artifacts::run_standard(artifact.name(), &cfg)
            }));
            let secs = t0.elapsed().as_secs_f64();
            let _ = sweep::take_stats();
            let tables = out.ok().flatten().map(|o| {
                o.tables
                    .iter()
                    .map(|(stem, t)| (stem.clone(), gate::text_digest(&t.to_csv())))
                    .collect()
            });
            let (loads, simulated_refs) = probe
                .map(|p| {
                    (
                        p.take_loads(),
                        p.take_stores().iter().map(|s| s.report.total_refs()).sum(),
                    )
                })
                .unwrap_or_default();
            ArtifactRun {
                artifact,
                start: t0,
                secs,
                tables,
                loads,
                simulated_refs,
            }
        })
        .collect()
}

/// References resolved by some sweeps. A simulated sweep replays every
/// benchmark once per scheme, and a benchmark's reference count is a
/// constant of the workload, so it is counted once, after the timed phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Refs {
    /// References of the reports a store served.
    pub served: u64,
    /// Benchmark-set replays: one per scheme of each completed sweep.
    pub replays: u64,
}

impl Refs {
    /// The reference count, given the references of each benchmark.
    pub fn total(self, per_benchmark: &[u64]) -> u64 {
        self.served + self.replays * per_benchmark.iter().sum::<u64>()
    }

    fn add(&mut self, other: Refs) {
        self.served += other.served;
        self.replays += other.replays;
    }

    fn since(self, earlier: Refs) -> Refs {
        Refs {
            served: self.served - earlier.served,
            replays: self.replays - earlier.replays,
        }
    }
}

/// The gate's verdict on one artifact sweep: which points failed and how
/// many references the sweep resolved.
pub fn check(
    setup: &Setup,
    run: &ArtifactRun,
    reference: Option<&[(String, String)]>,
    pinned: &dyn Fn(&str) -> Option<String>,
) -> (Vec<bool>, Refs) {
    let names = setup.names();
    let schemes = run.artifact.schemes().len();
    let n = names.len() * schemes;
    let Some(tables) = &run.tables else {
        return (vec![true; n], Refs::default());
    };
    let mut failed = vec![false; n];
    let mut mark = |f: Vec<bool>| failed.iter_mut().zip(f).for_each(|(a, b)| *a |= b);
    if let Some(reference) = reference {
        mark(gate::csv_failures(tables, reference, &names, schemes));
    }
    if is_pinned(setup.seed) {
        let pins: Option<Vec<(String, String)>> = tables
            .iter()
            .map(|(stem, _)| pinned(stem).map(|d| (stem.clone(), d)))
            .collect();
        mark(match pins {
            Some(p) => gate::csv_failures(tables, &p, &names, schemes),
            None => vec![true; n],
        });
    }
    let refs = match &setup.filled {
        None => Refs {
            served: 0,
            replays: schemes as u64,
        },
        Some(filled) => {
            // Every point must be served, and served exactly what the
            // fill simulated.
            for (i, f) in failed.iter_mut().enumerate() {
                let ok = run.loads.get(i).is_some_and(|l| match &l.report {
                    Some(r) => filled.fresh.get(&l.key) == Some(&gate::report_digest(r)),
                    None => false,
                });
                *f |= !ok || run.loads.len() != n;
            }
            Refs {
                served: run
                    .loads
                    .iter()
                    .filter_map(|l| l.report.as_ref())
                    .map(|r| r.total_refs())
                    .sum(),
                replays: 0,
            }
        }
    };
    (failed, refs)
}

/// Whether `seed` has digests in `pins.txt`.
pub fn is_pinned(seed: u64) -> bool {
    seed == crate::DEFAULT_SEED || seed == crate::HELD_OUT_SEED
}

/// Linear-interpolated quantile of `sorted` (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Harrell-Davis estimate of the `q` quantile of `sorted`: the mean of
/// every order statistic weighted by the Beta((n+1)q, (n+1)(1-q))
/// density. Points of a grid differ widely in cost, so a single order
/// statistic jumps whenever two points trade places across a gap; this
/// estimate moves smoothly instead.
pub fn hd_quantile(sorted: &[f64], q: f64) -> f64 {
    const STEPS: usize = 10_000;
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
    let log_density: Vec<f64> = (0..STEPS)
        .map(|k| {
            let x = (k as f64 + 0.5) / STEPS as f64;
            (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
        })
        .collect();
    let peak = log_density
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let (mut sum, mut total) = (0.0, 0.0);
    for (k, ld) in log_density.iter().enumerate() {
        let w = (ld - peak).exp();
        sum += w * sorted[k * n / STEPS];
        total += w;
    }
    sum / total
}

/// Median of `v` (0 when empty: a layer that did no work).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        quantile(&v, 0.5)
    }
}

/// Tallies gate failures and references across passes, comparing every
/// pass with the first and (for pinned seeds) with `pins.txt`.
pub struct Tally<'a> {
    setup: &'a Setup,
    pinned: &'a dyn Fn(Artifact, &str) -> Option<String>,
    first: HashMap<&'static str, Vec<(String, String)>>,
    pub attempted: u64,
    pub failed: u64,
    pub refs: Refs,
    pub secs: f64,
}

impl<'a> Tally<'a> {
    pub fn new(setup: &'a Setup, pinned: &'a dyn Fn(Artifact, &str) -> Option<String>) -> Self {
        Tally {
            setup,
            pinned,
            first: HashMap::new(),
            attempted: 0,
            failed: 0,
            refs: Refs::default(),
            secs: 0.0,
        }
    }

    pub fn add(&mut self, runs: &[ArtifactRun]) {
        for run in runs {
            let reference = self.first.get(run.artifact.name()).map(Vec::as_slice);
            let first = reference.is_none();
            let pinned = |stem: &str| (self.pinned)(run.artifact, stem);
            let (failed, refs) = check(self.setup, run, reference, &pinned);
            if let (true, Some(t)) = (first, &run.tables) {
                self.first.insert(run.artifact.name(), t.clone());
            }
            self.attempted += failed.len() as u64;
            self.failed += failed.iter().filter(|&&f| f).count() as u64;
            self.refs.add(refs);
            self.secs += run.secs;
        }
    }
}

/// The pinned CSV digest lookup for a workload and seed.
pub fn csv_pins(bench: Bench, seed: u64) -> impl Fn(Artifact, &str) -> Option<String> {
    move |_, stem| gate::pinned(bench.name(), seed, "csv", stem).map(str::to_string)
}

pub fn run(
    bench: Bench,
    seed: u64,
    seconds: f64,
    spawn_ns: Option<u128>,
    setup_only: bool,
) -> Outcome {
    let started = spawn_ns.unwrap_or_else(crate::unix_ns);
    let setup = Setup::build(bench, seed);
    let setup_s = setup.ready_ns.saturating_sub(started) as f64 / 1e9;
    let mut out = Outcome::default();
    if setup_only {
        out.attempted = 1;
        out.put("setup_s", setup_s);
        return out;
    }
    let pins = csv_pins(bench, seed);
    let mut tally = Tally::new(&setup, &pins);
    let clock = Clock::new();
    // Per pass: the references it resolved and its host seconds.
    let mut passes: Vec<(Refs, f64)> = Vec::new();
    // Per point (by position in the pass): its host ms in every pass.
    let mut point_ms: Vec<Vec<f64>> = Vec::new();
    // Peak RSS after set-up and one pass, which is what one CLI run of
    // the artifact holds. Later passes start new sweep worker threads, and
    // whether glibc hands each one a fresh arena or reuses a freed one
    // varies from process to process.
    let mut peak_rss_kb = 0;
    // One host-speed sample per second of the timed phase, taken between
    // passes and after peak RSS is read.
    let mut host = HostSpeed::new();
    let mut sampled = Instant::now();
    // The deadline is wall time, gate checks and host samples included: on
    // store_resume digesting the served reports takes as long as serving
    // them.
    let began = Instant::now();
    while began.elapsed().as_secs_f64() < seconds || tally.attempted == 0 {
        let runs = pass(&setup, 1, &clock);
        let (refs, secs) = (tally.refs, tally.secs);
        tally.add(&runs);
        passes.push((tally.refs.since(refs), tally.secs - secs));
        for (i, p) in clock.take_points().iter().enumerate() {
            if i == point_ms.len() {
                point_ms.push(Vec::new());
            }
            point_ms[i].push(p.secs() * 1e3);
        }
        if passes.len() == 1 {
            peak_rss_kb = sweep::peak_rss_kb();
            for (stem, digest) in runs.iter().flat_map(|r| r.tables.iter().flatten()) {
                out.pins
                    .push(gate::pin_line(bench.name(), seed, "csv", stem, digest));
            }
        }
        let due = sampled.elapsed().as_secs();
        for _ in 0..due {
            host.sample();
        }
        if due > 0 {
            sampled = Instant::now();
        }
    }
    let per_benchmark = setup.refs_per_benchmark();
    let pass_rates: Vec<f64> = passes
        .iter()
        .map(|(refs, secs)| refs.total(&per_benchmark) as f64 / secs)
        .collect();
    let mut ms: Vec<f64> = point_ms.iter().map(|v| median(v)).collect();
    ms.sort_by(f64::total_cmp);
    out.points = point_ms.iter().map(|v| v.len() as u64).sum();
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.put("refs_per_s", median(&pass_rates));
    out.put("point_ms_p50", hd_quantile(&ms, 0.5));
    out.put("point_ms_p70", hd_quantile(&ms, 0.7));
    out.put("peak_rss_mb", peak_rss_kb as f64 / 1024.0);
    out.put("setup_s", setup_s);
    out.host_ms = host.median_ms();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A setup over the six benchmarks without building anything heavy.
    fn setup(bench: Bench) -> Setup {
        Setup {
            bench,
            seed: crate::DEFAULT_SEED,
            benches: bench.config(crate::DEFAULT_SEED, 1).benchmarks(),
            filled: None,
            ready_ns: 0,
        }
    }

    fn fig8_run(digest_of: impl Fn(&str) -> String) -> ArtifactRun {
        let tables = ["radix", "fft", "fmm", "ocean", "raytrace", "barnes"]
            .iter()
            .map(|b| (format!("fig8_{b}"), digest_of(b)))
            .collect();
        ArtifactRun {
            artifact: Artifact::Fig8,
            start: Instant::now(),
            secs: 1.0,
            tables: Some(tables),
            loads: Vec::new(),
            simulated_refs: 0,
        }
    }

    #[test]
    fn a_wrong_pinned_digest_is_reported_as_failed_points() {
        let s = setup(Bench::Fig8);
        let good = |b: &str| gate::text_digest(b);
        let pins = move |_: Artifact, stem: &str| Some(good(stem.trim_start_matches("fig8_")));
        let mut tally = Tally::new(&s, &pins);
        tally.add(&[fig8_run(good)]);
        assert_eq!((tally.attempted, tally.failed), (36, 0));
        assert_eq!(tally.refs.total(&[100; 6]), 6 * 100 * 6);

        let wrong = |_: Artifact, stem: &str| {
            Some(if stem == "fig8_ocean" {
                gate::text_digest("tampered")
            } else {
                good(&stem[5..])
            })
        };
        let mut tally = Tally::new(&s, &wrong);
        tally.add(&[fig8_run(good)]);
        assert_eq!(
            (tally.attempted, tally.failed),
            (36, 6),
            "OCEAN's six points fail"
        );
    }

    #[test]
    fn a_pass_that_disagrees_with_the_first_fails_even_unpinned() {
        let mut s = setup(Bench::Fig8);
        s.seed = 12345;
        let none = |_: Artifact, _: &str| None;
        let mut tally = Tally::new(&s, &none);
        tally.add(&[fig8_run(gate::text_digest)]);
        tally.add(&[fig8_run(|b| {
            gate::text_digest(if b == "fft" { "drift" } else { b })
        })]);
        assert_eq!((tally.attempted, tally.failed), (72, 6));
    }

    #[test]
    fn a_panicked_sweep_fails_every_point_and_counts_no_refs() {
        let s = setup(Bench::Fig8);
        let none = |_: Artifact, _: &str| None;
        let mut tally = Tally::new(&s, &none);
        let run = ArtifactRun {
            artifact: Artifact::Fig8,
            start: Instant::now(),
            secs: 1.0,
            tables: None,
            loads: Vec::new(),
            simulated_refs: 0,
        };
        tally.add(&[run]);
        let points = 6 * vcoma::paper_schemes().len() as u64;
        assert_eq!(
            (tally.attempted, tally.failed, tally.refs.total(&[100; 6])),
            (points, points, 0)
        );
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert!((quantile(&v, 0.7) - 3.8).abs() < 1e-12);
    }

    #[test]
    fn harrell_davis_is_symmetric_and_smooth_across_a_gap() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((hd_quantile(&v, 0.5) - 3.0).abs() < 1e-6);
        assert!(hd_quantile(&v, 0.7) > 3.0 && hd_quantile(&v, 0.7) < 4.5);
        assert!((hd_quantile(&[7.0], 0.7) - 7.0).abs() < 1e-9);
        // 18 cheap and 18 dear points: moving one point across the gap
        // moves the median a fraction of the gap, not all of it.
        let split = |cheap: usize| {
            let mut v = vec![70.0; cheap];
            v.resize(36, 88.0);
            hd_quantile(&v, 0.5)
        };
        let (a, b) = (split(18), split(19));
        assert!((a - 79.0).abs() < 0.01);
        assert!(a - b > 0.0 && a - b < 4.0, "{a} -> {b}");
    }
}
