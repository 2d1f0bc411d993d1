//! The traced run: per-layer metrics for one workload.
//!
//! It times one untraced pass (the reference for the tracing overhead),
//! one traced pass with spans around every sweep and point, the layer
//! kernels on the workload's own op streams, and one pass at `--jobs 2`
//! for the scaling-efficiency figure. Nothing inside the simulator is
//! instrumented: every span wraps a call into a crate's public API.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use vcoma::net::ALL_MSG_KINDS;
use vcoma::{codec, Machine, Scheme, SimReport};
use vcoma_experiments::cache::{code_fingerprint, point_key};
use vcoma_experiments::sweep::{self, SweepPoint, SweepResult};

use crate::grid::{Artifact, Bench};
use crate::kernels::{self, Batch};
use crate::probe::Clock;
use crate::spans::Spans;
use crate::timed::{self, Setup, Tally};
use crate::{gate, Outcome};

/// Every per-layer metric; the traced run reports all of them on every
/// workload (a layer a workload does not exercise reads 0).
#[derive(Default)]
struct PerLayer {
    workloads: Batch,
    tlb_bank: Batch,
    tlb_fa: [Batch; 3],
    tlb_hits: u64,
    tlb_share_pct: f64,
    caches: Batch,
    flc: (u64, u64),
    slc: (u64, u64),
    coherence: Batch,
    remote: u64,
    net: Batch,
    build_ms: Vec<f64>,
    sim_secs: f64,
    sim_refs: u64,
    sim_cycles: u64,
    sim_self_ns_per_ref: f64,
    fingerprint_ms: f64,
    point_key_us: Vec<f64>,
    sweep_overhead_ms: Vec<f64>,
    points: u64,
    scaling_eff_j2: f64,
    store_load_ms: Vec<f64>,
    store_write_ms: Vec<f64>,
    store_hits: u64,
    decode_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    envelope_kb: Vec<f64>,
    untraced_refs_per_s: f64,
    traced_refs_per_s: f64,
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

impl PerLayer {
    fn emit(&self, out: &mut Outcome) {
        let [fa8, fa64, fa512] = self.tlb_fa;
        out.put("workloads.ns_per_op", self.workloads.ns_per_op());
        out.put("workloads.ops", self.workloads.ops as f64);
        out.put("tlb.ns_per_lookup.bank", self.tlb_bank.ns_per_op());
        out.put("tlb.ns_per_lookup.fa8", fa8.ns_per_op());
        out.put("tlb.ns_per_lookup.fa64", fa64.ns_per_op());
        out.put("tlb.ns_per_lookup.fa512", fa512.ns_per_op());
        out.put("tlb.lookups", self.tlb_bank.ops as f64);
        out.put("tlb.hit_ratio", ratio(self.tlb_hits, self.tlb_bank.ops));
        out.put("tlb.share_pct", self.tlb_share_pct);
        out.put("cachesim.ns_per_probe", self.caches.ns_per_op());
        out.put("cachesim.flc_hit_ratio", ratio(self.flc.1, self.flc.0));
        out.put("cachesim.slc_hit_ratio", ratio(self.slc.1, self.slc.0));
        out.put("coherence.ns_per_txn", self.coherence.ns_per_op());
        out.put("coherence.txns", self.coherence.ops as f64);
        out.put(
            "coherence.remote_frac",
            ratio(self.remote, self.coherence.ops),
        );
        out.put("net.ns_per_send", self.net.ns_per_op());
        out.put("net.msgs", self.net.ops as f64);
        out.put("sim.build_ms", timed::median(&self.build_ms));
        let per_ref = |secs: f64| {
            if self.sim_refs == 0 {
                0.0
            } else {
                secs * 1e9 / self.sim_refs as f64
            }
        };
        out.put("sim.ns_per_ref", per_ref(self.sim_secs));
        out.put("sim.self_ns_per_ref", self.sim_self_ns_per_ref);
        out.put(
            "sim.cycles_per_s",
            if self.sim_secs > 0.0 {
                self.sim_cycles as f64 / self.sim_secs
            } else {
                0.0
            },
        );
        out.put("sim.refs", self.sim_refs as f64);
        out.put("sim.cycles", self.sim_cycles as f64);
        out.put("experiments.fingerprint_ms", self.fingerprint_ms);
        out.put(
            "experiments.point_key_us",
            timed::median(&self.point_key_us),
        );
        out.put(
            "experiments.sweep_overhead_ms",
            mean(&self.sweep_overhead_ms),
        );
        out.put("experiments.points", self.points as f64);
        out.put("experiments.scaling_eff_j2", self.scaling_eff_j2);
        out.put("store.load_ms", mean(&self.store_load_ms));
        out.put("store.write_ms", mean(&self.store_write_ms));
        out.put(
            "store.hit_ratio",
            ratio(self.store_hits, self.store_load_ms.len() as u64),
        );
        out.put("codec.decode_ms", mean(&self.decode_ms));
        out.put("codec.encode_ms", mean(&self.encode_ms));
        out.put("codec.envelope_kb", mean(&self.envelope_kb));
        out.put("trace.untraced_refs_per_s", self.untraced_refs_per_s);
        out.put("trace.traced_refs_per_s", self.traced_refs_per_s);
        let overhead = if self.traced_refs_per_s > 0.0 {
            (self.untraced_refs_per_s / self.traced_refs_per_s - 1.0) * 100.0
        } else {
            0.0
        };
        out.put("trace.overhead_pct", overhead);
    }
}

/// Host microseconds per `point_key` call for every point of `artifact`.
fn time_point_keys(setup: &Setup, artifact: Artifact, into: &mut Vec<f64>) {
    const REPS: u32 = 20;
    let cfg = setup.bench.config(setup.seed, 1);
    for (b, scheme, _) in artifact.points(&setup.benches) {
        let sim = artifact.simulator(&cfg, scheme);
        let w = setup.benches[b].as_ref();
        let t0 = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(point_key(sim.config(), w, cfg.scale, code_fingerprint()));
        }
        into.push(t0.elapsed().as_secs_f64() * 1e6 / f64::from(REPS));
    }
}

pub fn run(bench: Bench, seed: u64) -> Outcome {
    let mut layer = PerLayer::default();
    let t0 = Instant::now();
    let _ = code_fingerprint();
    layer.fingerprint_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut spans = Spans::new();
    let root = spans.open(bench.name(), None);
    let setup = spans.time("setup", root, || Setup::build(bench, seed));
    let refs = setup.refs_per_benchmark();
    let pins = timed::csv_pins(bench, seed);
    let mut out = Outcome::default();

    // The untraced reference pass, exactly as the timed run makes it.
    let mut untraced = Tally::new(&setup, &pins);
    untraced.add(&timed::pass(&setup, 1, &Clock::new()));
    layer.untraced_refs_per_s = untraced.refs.total(&refs) as f64 / untraced.secs;
    layer.points = untraced.attempted;

    let (attempted, failed) = match bench {
        Bench::StoreResume => traced_store(&setup, &mut spans, root, &mut layer, &mut out),
        Bench::Fig8 => traced_sim(&setup, &refs, &mut spans, root, &mut layer, &mut out),
    };

    // Scaling efficiency: the same pass on two sweep workers.
    let mut j2 = Tally::new(&setup, &pins);
    let id = spans.open("sweeps --jobs 2", Some(root));
    j2.add(&timed::pass(&setup, 2, &Clock::new()));
    spans.close(id);
    layer.scaling_eff_j2 =
        (j2.refs.total(&refs) as f64 / j2.secs) / (2.0 * layer.untraced_refs_per_s);

    spans.close(root);
    out.points = untraced.attempted;
    out.attempted = untraced.attempted + attempted + j2.attempted;
    out.failed = untraced.failed + failed + j2.failed;
    layer.emit(&mut out);
    let path = timed::work_dir().join(format!("spans-{}-seed{seed}.json", bench.name()));
    if let Err(e) = spans.write(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    out
}

/// One simulated point of the traced pass.
struct SimPoint {
    bench: usize,
    scheme: Scheme,
    label: String,
    report: Result<SimReport, String>,
    start: Instant,
    end: Instant,
}

/// The traced pass of a simulation workload: every point simulated
/// through `Simulator::try_run` on the harness's sweep pool, then the
/// layer kernels per benchmark. Returns `(attempted, failed)` points.
fn traced_sim(
    setup: &Setup,
    refs: &[u64],
    spans: &mut Spans,
    root: usize,
    layer: &mut PerLayer,
    out: &mut Outcome,
) -> (u64, u64) {
    let cfg = setup.bench.config(setup.seed, 1);
    let clock = Clock::new();
    let mut points: Vec<SimPoint> = Vec::new();
    let mut sweep_secs = 0.0;
    for &artifact in setup.bench.artifacts() {
        let grid: Vec<SweepPoint<(usize, Scheme)>> = artifact
            .points(&setup.benches)
            .into_iter()
            .map(|(b, s, label)| SweepPoint::new(label, (b, s)))
            .collect();
        let sweep_id = spans.open(artifact.name(), Some(root));
        let runs = sweep::run_progress(artifact.name(), 1, Some(&*clock), grid, |&(b, scheme)| {
            let sim = artifact.simulator(&cfg, scheme);
            let start = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| sim.try_run(setup.benches[b].as_ref())));
            let end = Instant::now();
            let report = match r {
                Ok(Ok(report)) => Ok(report),
                Ok(Err(e)) => Err(format!("simulation error: {e}")),
                Err(_) => Err("simulation panicked".to_string()),
            };
            let cycles = report.as_ref().map_or(0, SimReport::simulated_cycles);
            SweepResult::new((b, scheme, report, start, end), cycles)
        });
        spans.close(sweep_id);
        let _ = sweep::take_stats();
        sweep_secs += spans.secs(sweep_id);
        for (span, (b, scheme, report, start, end)) in clock.take_points().into_iter().zip(runs) {
            let id = spans.record(span.label.clone(), sweep_id, span.start, span.end);
            spans.record("sim.run", id, start, end);
            points.push(SimPoint {
                bench: b,
                scheme,
                label: span.label,
                report,
                start,
                end,
            });
        }
        layer
            .sweep_overhead_ms
            .push(spans.self_secs(sweep_id) * 1e3);
        time_point_keys(setup, artifact, &mut layer.point_key_us);
    }

    let m = &cfg.machine;
    let specs = setup.bench.artifacts()[0].specs();
    let mut bank_lookups = vec![0u64; setup.benches.len()];
    let mut ops_per_bench = vec![0u64; setup.benches.len()];
    for (b, w) in setup.benches.iter().enumerate() {
        let w = w.as_ref();
        let kid = spans.open(format!("kernels {}", w.name()), Some(root));
        let generated = spans.time("workloads", kid, || kernels::generate(w, m));
        ops_per_bench[b] = generated.ops;
        layer.workloads.add(generated);
        let streams = spans.time("collect streams", kid, || kernels::streams(w, m));
        let (bank, hits) = spans.time("tlb bank", kid, || {
            kernels::tlb_bank(&streams, m, &specs, setup.seed)
        });
        bank_lookups[b] = bank.ops;
        layer.tlb_bank.add(bank);
        layer.tlb_hits += hits;
        for (slot, entries) in layer.tlb_fa.iter_mut().zip([8, 64, 512]) {
            let name = format!("tlb fa{entries}");
            slot.add(spans.time(name, kid, || {
                kernels::tlb_single(&streams, m, entries, setup.seed)
            }));
        }
        let caches = spans.time("cachesim", kid, || kernels::caches(&streams, m));
        drop(streams);
        layer.caches.add(caches.batch);
        layer.flc.0 += caches.flc_accesses;
        layer.flc.1 += caches.flc_hits;
        layer.slc.0 += caches.slc_accesses;
        layer.slc.1 += caches.slc_hits;
        let (txns, remote) = spans.time("coherence", kid, || {
            kernels::protocol(&caches.misses, m, setup.seed)
        });
        layer.coherence.add(txns);
        layer.remote += remote;
        // The crossbar replays the message mix of the benchmark's first
        // simulated point.
        if let Some(Ok(report)) = points.iter().find(|p| p.bench == b).map(|p| &p.report) {
            let mix: Vec<_> = ALL_MSG_KINDS
                .iter()
                .map(|&k| (k, report.net().msgs_of(k)))
                .collect();
            layer
                .net
                .add(spans.time("net", kid, || kernels::crossbar(&mix, m, setup.seed)));
        }
        for p in points.iter().filter(|p| p.bench == b) {
            let sim_cfg = setup.bench.artifacts()[0]
                .simulator(&cfg, p.scheme)
                .config()
                .clone();
            let t = Instant::now();
            drop(std::hint::black_box(Machine::new(sim_cfg)));
            layer.build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        spans.close(kid);
    }

    // Gate every point: it ran, it replayed the stream the kernels
    // replayed, and (pinned seeds) its report is the pinned one.
    let (mut failed, mut tlb_w, mut probe_w, mut txn_w, mut msg_w, mut op_w) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for p in &points {
        let mut why = Vec::new();
        match &p.report {
            Err(e) => why.push(e.clone()),
            Ok(r) => {
                layer.sim_secs += (p.end - p.start).as_secs_f64();
                layer.sim_refs += r.total_refs();
                layer.sim_cycles += r.simulated_cycles();
                tlb_w += r.translation_accesses_total(0);
                probe_w += r.flc_total().accesses() + r.slc_total().accesses();
                let ps = r.protocol();
                txn_w += ps.local_read_hits + ps.local_write_hits + ps.remote_transactions();
                msg_w += r.net_msgs();
                op_w += ops_per_bench[p.bench];
                if r.total_refs() != refs[p.bench] {
                    why.push(format!(
                        "total_refs {} != drained refs {}",
                        r.total_refs(),
                        refs[p.bench]
                    ));
                }
                if p.scheme == Scheme::L0_TLB
                    && r.translation_accesses_total(0) != bank_lookups[p.bench]
                {
                    why.push(format!(
                        "L0 translation accesses {} != tlb kernel lookups {}",
                        r.translation_accesses_total(0),
                        bank_lookups[p.bench]
                    ));
                }
                let digest = gate::report_digest(r);
                out.pins.push(gate::pin_line(
                    setup.bench.name(),
                    setup.seed,
                    "point",
                    &p.label,
                    &digest,
                ));
                if timed::is_pinned(setup.seed)
                    && gate::pinned(setup.bench.name(), setup.seed, "point", &p.label)
                        != Some(digest.as_str())
                {
                    why.push("report digest differs from pins.txt".to_string());
                }
            }
        }
        if !why.is_empty() {
            eprintln!("perfbench: point {} failed: {}", p.label, why.join("; "));
            failed += 1;
        }
    }
    let kernel_ns = op_w as f64 * layer.workloads.ns_per_op()
        + tlb_w as f64 * layer.tlb_bank.ns_per_op()
        + probe_w as f64 * layer.caches.ns_per_op()
        + txn_w as f64 * layer.coherence.ns_per_op()
        + msg_w as f64 * layer.net.ns_per_op();
    if layer.sim_refs > 0 {
        layer.sim_self_ns_per_ref = (layer.sim_secs * 1e9 - kernel_ns) / layer.sim_refs as f64;
        layer.tlb_share_pct =
            tlb_w as f64 * layer.tlb_bank.ns_per_op() / (layer.sim_secs * 1e9) * 100.0;
    }
    layer.traced_refs_per_s = layer.sim_refs as f64 / sweep_secs;
    (points.len() as u64, failed)
}

/// The traced pass of `store_resume`: both grids resolved through fresh
/// store handles with every load timed, then the codec timed on its own
/// over the fill's envelopes. Returns `(attempted, failed)` points.
fn traced_store(
    setup: &Setup,
    spans: &mut Spans,
    root: usize,
    layer: &mut PerLayer,
    out: &mut Outcome,
) -> (u64, u64) {
    let filled = setup.filled.as_ref().expect("store_resume fills a store");
    let pins = timed::csv_pins(setup.bench, setup.seed);
    let clock = Clock::new();
    let runs = timed::pass(setup, 1, &clock);
    let mut tally = Tally::new(setup, &pins);
    tally.add(&runs);
    layer.traced_refs_per_s = tally.refs.served as f64 / tally.secs;
    let mut point_spans = clock.take_points().into_iter();
    let mut failed = 0u64;
    for run in &runs {
        let end = run.start + std::time::Duration::from_secs_f64(run.secs);
        let sweep_id = spans.record(run.artifact.name(), root, run.start, end);
        let labels = run.artifact.points(&setup.benches);
        for ((_, _, label), load) in labels.iter().zip(&run.loads) {
            if let Some(span) = point_spans.next() {
                spans.record(span.label, sweep_id, span.start, span.end);
            }
            layer.store_load_ms.push(load.secs * 1e3);
            layer.store_hits += u64::from(load.report.is_some());
            if let Some(r) = &load.report {
                // Both grids hold a `BARNES/L0-TLB`; the artifact tells
                // them apart.
                let label = &format!("{}:{label}", run.artifact.name());
                let digest = gate::report_digest(r);
                out.pins.push(gate::pin_line(
                    setup.bench.name(),
                    setup.seed,
                    "point",
                    label,
                    &digest,
                ));
                if timed::is_pinned(setup.seed)
                    && gate::pinned(setup.bench.name(), setup.seed, "point", label)
                        != Some(digest.as_str())
                {
                    eprintln!(
                        "perfbench: point {label} failed: served digest differs from pins.txt"
                    );
                    failed += 1;
                }
            }
        }
        layer
            .sweep_overhead_ms
            .push(spans.self_secs(sweep_id) * 1e3);
        layer.sim_refs += run.simulated_refs;
        time_point_keys(setup, run.artifact, &mut layer.point_key_us);
    }
    layer.sim_cycles = clock.simulated_cycles();

    layer.store_write_ms = filled.writes.iter().map(|(_, secs)| secs * 1e3).collect();
    let kid = spans.open("kernels codec", Some(root));
    let served = runs.iter().flat_map(|r| &r.loads);
    for (key, report) in served.filter_map(|l| Some((&l.key, l.report.as_ref()?))) {
        let t = Instant::now();
        let text = codec::encode(report, code_fingerprint(), key);
        layer.encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        layer.envelope_kb.push(text.len() as f64 / 1024.0);
        let t = Instant::now();
        let decoded = codec::decode(&text, report.config().clone());
        layer.decode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if decoded
            .map(|d| gate::report_digest(&d.report))
            .ok()
            .as_ref()
            != filled.fresh.get(key)
        {
            eprintln!("perfbench: envelope {key} does not decode to the report it encodes");
            failed += 1;
        }
    }
    spans.close(kid);
    (
        tally.attempted,
        (tally.failed + failed).min(tally.attempted),
    )
}
