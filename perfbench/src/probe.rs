//! Observers the benchmark installs through the harness's public hooks:
//! a [`ProgressSink`] that times sweep points from outside, and a
//! [`ReportCache`] wrapper that times and records every store operation.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use vcoma::{SimConfig, SimReport};
use vcoma_experiments::cache::{PointKey, ReportCache};
use vcoma_experiments::progress::ProgressSink;
use vcoma_server::store::DiskStore;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One sweep point as the [`Clock`] saw it.
#[derive(Debug, Clone)]
pub struct PointSpan {
    pub label: String,
    pub start: Instant,
    pub end: Instant,
}

impl PointSpan {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

#[derive(Default)]
struct ClockState {
    last: Option<Instant>,
    points: Vec<PointSpan>,
    simulated_cycles: u64,
}

/// Times sweep points from outside: a point spans from the previous
/// `point_done` (or `sweep_started`) to its own `point_done`, which is
/// exact for the single-worker sweeps the timed phase runs.
#[derive(Default)]
pub struct Clock {
    state: Mutex<ClockState>,
}

impl Clock {
    pub fn new() -> Arc<Clock> {
        Arc::new(Clock::default())
    }

    /// Drains the points seen so far.
    pub fn take_points(&self) -> Vec<PointSpan> {
        std::mem::take(&mut lock(&self.state).points)
    }

    /// Simulated cycles of the resolutions that were simulated rather
    /// than served from a store.
    pub fn simulated_cycles(&self) -> u64 {
        lock(&self.state).simulated_cycles
    }
}

impl ProgressSink for Clock {
    fn sweep_started(&self, _artifact: &str, _points: u64) {
        lock(&self.state).last = Some(Instant::now());
    }

    fn point_done(&self, label: &str) {
        let end = Instant::now();
        let mut s = lock(&self.state);
        let start = s.last.replace(end).unwrap_or(end);
        s.points.push(PointSpan {
            label: label.to_string(),
            start,
            end,
        });
    }

    fn point_resolved(&self, simulated_cycles: u64, from_cache: bool) {
        if !from_cache {
            lock(&self.state).simulated_cycles += simulated_cycles;
        }
    }
}

/// One `load` through a [`Probe`]: the key, the served report (`None` on
/// a miss) and the host time the store took.
pub struct Load {
    pub key: String,
    pub report: Option<SimReport>,
    pub secs: f64,
}

/// One `store` through a [`Probe`].
pub struct Store {
    pub key: PointKey,
    pub report: SimReport,
    pub secs: f64,
}

/// A [`DiskStore`] handle whose every load and store is timed and
/// recorded (reports are copied out, so checks run after the timed
/// phase instead of inside it).
pub struct Probe {
    store: DiskStore,
    loads: Mutex<Vec<Load>>,
    stores: Mutex<Vec<Store>>,
}

impl Probe {
    /// Opens a fresh handle on the store at `root`.
    pub fn open(root: &std::path::Path) -> Arc<Probe> {
        let store = DiskStore::open(root).expect("benchmark store directory is writable");
        Arc::new(Probe {
            store,
            loads: Mutex::new(Vec::new()),
            stores: Mutex::new(Vec::new()),
        })
    }

    pub fn take_loads(&self) -> Vec<Load> {
        std::mem::take(&mut lock(&self.loads))
    }

    pub fn take_stores(&self) -> Vec<Store> {
        std::mem::take(&mut lock(&self.stores))
    }
}

impl ReportCache for Probe {
    fn load(&self, key: &PointKey, cfg: &SimConfig) -> Option<SimReport> {
        let t0 = Instant::now();
        let report = self.store.load(key, cfg);
        let secs = t0.elapsed().as_secs_f64();
        lock(&self.loads).push(Load {
            key: key.digest.clone(),
            report: report.clone(),
            secs,
        });
        report
    }

    fn store(&self, key: &PointKey, report: &SimReport) {
        let t0 = Instant::now();
        self.store.store(key, report);
        let secs = t0.elapsed().as_secs_f64();
        lock(&self.stores).push(Store {
            key: key.clone(),
            report: report.clone(),
            secs,
        });
    }
}
