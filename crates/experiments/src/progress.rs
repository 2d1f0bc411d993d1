//! Per-point progress callbacks.
//!
//! A [`ProgressSink`] observes a run from two vantage points:
//!
//! * the **sweep pool** reports grid-level progress — each artifact's
//!   sweep announces its point count up front via
//!   [`sweep_started`](ProgressSink::sweep_started) and ticks
//!   [`point_done`](ProgressSink::point_done) as workers finish points;
//! * [`crate::ExperimentConfig::run_cached`] reports resolution-level
//!   progress — every simulator invocation routed through it calls
//!   [`point_resolved`](ProgressSink::point_resolved) with the report's
//!   simulated cycles and whether the result came from the store.
//!
//! The two views are deliberately distinct: most artifacts run exactly
//! one simulation per grid point (so the counts line up), but some run
//! several (or none — `ccnuma` drives the simulator directly), so the
//! daemon surfaces both rather than conflating them.
//!
//! Every method has a no-op default and implementors must be
//! `Send + Sync`: callbacks arrive concurrently from sweep workers.
//! Sinks must never write to stdout or touch artifact outputs — the
//! byte-identity of every table, CSV and golden fixture with and without
//! a sink installed is a tested invariant.

use std::sync::Mutex;
use std::time::Instant;

/// Observer for sweep and simulation progress. All methods default to
/// no-ops so sinks implement only the events they care about.
pub trait ProgressSink: Send + Sync {
    /// A sweep named `artifact` is starting with `points` grid points.
    /// Called once per artifact sweep, before any point is evaluated;
    /// totals accumulate across the artifacts of one job.
    fn sweep_started(&self, artifact: &str, points: u64) {
        let _ = (artifact, points);
    }

    /// One grid point (labelled `label`) finished evaluating. Called from
    /// sweep worker threads, in completion (not input) order.
    fn point_done(&self, label: &str) {
        let _ = label;
    }

    /// One simulation routed through `run_cached` resolved, costing
    /// `simulated_cycles` (as reported by the run), `from_cache` when the
    /// result was served from the configured store instead of simulated.
    fn point_resolved(&self, simulated_cycles: u64, from_cache: bool) {
        let _ = (simulated_cycles, from_cache);
    }
}

/// The CLI's `--progress` sink: paints one live status line per sweep on
/// stderr (artifact, completed points, simulated cycles/s, peak RSS) and
/// clears it when the sweep's last point finishes. Cycles are those of
/// the simulations resolved so far, so an artifact that drives the
/// simulator directly (`ccnuma`) shows 0 cycles/s.
#[derive(Debug, Default)]
pub struct StderrProgress {
    line: Mutex<LineState>,
}

#[derive(Debug, Default)]
struct LineState {
    artifact: String,
    points: u64,
    done: u64,
    cycles: u64,
    started: Option<Instant>,
}

impl StderrProgress {
    fn line(&self) -> std::sync::MutexGuard<'_, LineState> {
        self.line.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl ProgressSink for StderrProgress {
    fn sweep_started(&self, artifact: &str, points: u64) {
        *self.line() = LineState {
            artifact: artifact.to_string(),
            points,
            started: Some(Instant::now()),
            ..LineState::default()
        };
    }

    fn point_done(&self, _label: &str) {
        let mut line = self.line();
        line.done += 1;
        let secs = line.started.map_or(0.0, |t| t.elapsed().as_secs_f64());
        let rate = if secs > 0.0 { line.cycles as f64 / secs } else { 0.0 };
        eprint!(
            "\r[{}] {}/{} points, {rate:.3e} cycles/s, peak RSS {} KB ",
            line.artifact,
            line.done,
            line.points,
            crate::sweep::peak_rss_kb()
        );
        if line.done == line.points {
            eprint!("\r{:79}\r", "");
        }
    }

    fn point_resolved(&self, simulated_cycles: u64, _from_cache: bool) {
        self.line().cycles += simulated_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Counting {
        started: AtomicU64,
        done: AtomicU64,
        resolved: AtomicU64,
    }

    impl ProgressSink for Counting {
        fn sweep_started(&self, _artifact: &str, points: u64) {
            self.started.fetch_add(points, Ordering::Relaxed);
        }
        fn point_done(&self, _label: &str) {
            self.done.fetch_add(1, Ordering::Relaxed);
        }
        fn point_resolved(&self, simulated_cycles: u64, _from_cache: bool) {
            self.resolved.fetch_add(simulated_cycles, Ordering::Relaxed);
        }
    }

    struct Silent;
    impl ProgressSink for Silent {}

    #[test]
    fn default_methods_are_noops() {
        let s = Silent;
        s.sweep_started("fig8", 42);
        s.point_done("RADIX/V-COMA");
        s.point_resolved(1_000, true);
    }

    #[test]
    fn sinks_are_object_safe_and_shareable() {
        let sink = Counting::default();
        let dyn_sink: &dyn ProgressSink = &sink;
        dyn_sink.sweep_started("table2", 30);
        dyn_sink.point_done("p0");
        dyn_sink.point_done("p1");
        dyn_sink.point_resolved(500, false);
        assert_eq!(sink.started.load(Ordering::Relaxed), 30);
        assert_eq!(sink.done.load(Ordering::Relaxed), 2);
        assert_eq!(sink.resolved.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn stderr_sink_tracks_the_current_sweep() {
        let sink = StderrProgress::default();
        sink.sweep_started("table2", 2);
        sink.point_resolved(300, false);
        sink.point_done("p0");
        sink.point_resolved(200, true);
        sink.point_done("p1");
        let line = sink.line();
        assert_eq!((line.artifact.as_str(), line.points, line.done), ("table2", 2, 2));
        assert_eq!(line.cycles, 500);
        drop(line);
        sink.sweep_started("fig8", 36);
        let line = sink.line();
        assert_eq!(
            (line.artifact.as_str(), line.points, line.done, line.cycles),
            ("fig8", 36, 0, 0)
        );
    }
}
