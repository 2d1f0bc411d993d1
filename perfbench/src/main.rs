//! `vcoma-perfbench`: the pinned benchmark of the vcoma simulator.
//!
//! One process measures one workload. With `--trace 0` it runs the timed
//! phase and reports the end-to-end metrics; with `--trace 1` it replays
//! the same workload once more through each layer's public functions and
//! reports the per-layer metrics. `--setup-only` stops at the first timed
//! point, so `run.py` can sample set-up time from several processes.
//! `--fill-store <dir>` is the child process `store_resume`'s set-up
//! starts to fill its store.
//! `run.py` next to this crate builds it and drives those processes; see
//! `README.md` for the metrics and what each one should move.
//!
//! The last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed`, `points`, `metrics` (name -> number) and `provenance`.

mod calib;
mod gate;
mod grid;
mod kernels;
mod probe;
mod spans;
mod timed;
mod traced;

use std::time::{SystemTime, UNIX_EPOCH};

use grid::Bench;

/// Version of the benchmark suite: bump it whenever a workload, metric or
/// pinned scale changes, so figures from different suites are never
/// compared.
pub const SUITE: &str = "vcoma-perfbench-1";

/// The CLI default master seed (`ExperimentConfig::new`); its digests are
/// pinned in `pins.txt`.
pub const DEFAULT_SEED: u64 = 0x5EED;
/// The held-out seed whose digests are pinned as well.
pub const HELD_OUT_SEED: u64 = 1;

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    emit_pins: bool,
    spawn_ns: Option<u128>,
    fill_store: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bench: Bench::Fig8,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        emit_pins: false,
        spawn_ns: None,
        fill_store: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--spawn-ns" => {
                args.spawn_ns = Some(value()?.parse().map_err(|e| format!("--spawn-ns: {e}"))?);
            }
            "--fill-store" => args.fill_store = Some(value()?.into()),
            "--setup-only" => args.setup_only = true,
            "--emit-pins" => args.emit_pins = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    args.bench = Bench::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(args)
}

/// Nanoseconds since the Unix epoch, the clock `--spawn-ns` is read on.
pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0)
}

/// What a run measured: the pass/fail tally and named metric values.
#[derive(Default)]
pub struct Outcome {
    /// Sweep points timed (the sample count behind the percentiles).
    pub points: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Median time of the host-speed kernel in ms (timed runs only).
    pub host_ms: f64,
    /// `name seed kind label digest` lines for `pins.txt` (`--emit-pins`).
    pub pins: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(root) = &args.fill_store {
        timed::fill_store(args.bench, args.seed, root);
        return;
    }
    let out = if args.trace {
        traced::run(args.bench, args.seed)
    } else {
        timed::run(
            args.bench,
            args.seed,
            args.seconds,
            args.spawn_ns,
            args.setup_only,
        )
    };
    if args.emit_pins {
        for line in &out.pins {
            println!("pin {line}");
        }
    }
    let jobs = if args.trace { "1,2" } else { "1" };
    let provenance = [
        ("suite", json_str(SUITE)),
        (
            "fingerprint",
            json_str(vcoma_experiments::cache::code_fingerprint()),
        ),
        (
            "host_cores",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .to_string(),
        ),
        ("cpu_model", json_str(&cpu_model())),
        ("workload", json_str(args.bench.name())),
        ("scale", json_num(args.bench.scale())),
        (
            "nodes",
            vcoma::MachineConfig::paper_baseline().nodes.to_string(),
        ),
        ("jobs", json_str(jobs)),
        ("seed", args.seed.to_string()),
        ("traced", args.trace.to_string()),
    ];
    let provenance = provenance
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect::<Vec<_>>()
        .join(", ");
    let metrics = out
        .metrics
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"points\": {}, \
         \"host_ms\": {}, \"metrics\": {{{metrics}}}, \"provenance\": {{{provenance}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        out.points,
        json_num(out.host_ms),
    );
}
