#!/usr/bin/env python3
"""Build and run the vcoma benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig8_shadow_tlb --seed 1 --seconds 10 --trace 0

Builds the `vcoma-perfbench` crate next to this file (release, offline,
into `$CARGO_TARGET_DIR`, default `.bench_build`), then:

* `--trace 0`: samples set-up time in several processes (the last
  one also runs the timed phase) and prints the end-to-end metrics,
  scaled to the reference host speed (see `host_scaled`);
* `--trace 1`: runs one traced process and prints the per-layer metrics.

The last stdout line is the result object: `correct`, `attempted`,
`failed` and `metrics` (each `{"value", "unit"}`). The line before it is
the provenance row. `--workload all` measures both workloads in
turn, a row and a result each. Exits non-zero without a result if the
build or a run fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["fig8_shadow_tlb", "store_resume"]
# Set-up is sampled in separate processes: at least SETUP_MIN_SAMPLES,
# then more while the samples so far took under SETUP_BUDGET_S, up to
# SETUP_MAX_SAMPLES. fig8_shadow_tlb sets up in milliseconds, so it gets
# many samples; store_resume fills a store and gets the minimum.
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 25
SETUP_BUDGET_S = 1.0
RUN_TIMEOUT_S = 170
# The host-speed kernel's (`src/calib.rs`) time on the reference host.
REFERENCE_MS = 100.0

def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def declared(kind):
    """The metric names and units BENCHMARK.json declares under `kind`."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {m["name"]: m["unit"] for m in spec[kind]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the {kind} metrics from BENCHMARK.json: {e}")


def build(env):
    manifest = HERE / "Cargo.toml"
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed ({done.returncode})")
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "vcoma-perfbench"


def run_binary(binary, env, args):
    """Runs one measuring process; returns its parsed result line."""
    cmd = [str(binary), *args, "--spawn-ns", str(time.time_ns())]
    # Its own process group, so a timeout also stops the store-fill child
    # the process may have started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{' '.join(args)} timed out")
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def host_scaled(metrics, units, host_ms):
    """Scales timings to the reference host speed, in place.

    The timed process times a fixed kernel of the benchmark's own once a
    second between passes; `host_ms` is its median. On a host where that
    kernel takes twice `REFERENCE_MS`, every time is halved and every rate
    doubled. Memory and counts are left as measured.
    """
    slowdown = host_ms / REFERENCE_MS
    for name, unit in units.items():
        if unit == "1/s":
            metrics[name] *= slowdown
        elif unit in ("ms", "s"):
            metrics[name] /= slowdown


def measure(binary, env, workload, a):
    """Measures one workload; returns its provenance row and result."""
    args = ["--workload", workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    if a.trace:
        result = run_binary(binary, env, args + ["--trace", "1"])
        units = declared("per_layer")
    else:
        setups, began = [], time.monotonic()
        while len(setups) < SETUP_MIN_SAMPLES - 1 or (
            len(setups) < SETUP_MAX_SAMPLES - 1 and time.monotonic() - began < SETUP_BUDGET_S
        ):
            setup_only = run_binary(binary, env, args + ["--trace", "0", "--setup-only"])
            setups.append(setup_only["metrics"]["setup_s"])
        result = run_binary(binary, env, args + ["--trace", "0"])
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
        units = declared("end_to_end")

    got = result["metrics"]
    missing = [k for k in units if got.get(k) is None]
    if missing:
        fail(f"metrics missing from the run: {', '.join(missing)}")
    extra = [k for k in got if k not in units]
    if extra:
        fail(f"metrics not declared in BENCHMARK.json: {', '.join(extra)}")
    row = dict(result["provenance"], points=result["points"], attempted=result["attempted"],
               failed=result["failed"])
    if not a.trace:
        if not result["host_ms"] or result["host_ms"] <= 0:
            fail("the timed run reported no host-speed sample")
        row.update(host_ms=result["host_ms"], unscaled=dict(got))
        host_scaled(got, units, result["host_ms"])
    return row, {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": got[k], "unit": u} for k, u in units.items()},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    workloads = WORKLOADS if a.workload == "all" else [a.workload]

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = str(target if target.is_absolute() else ROOT / target)
    binary = build(env)
    for workload in workloads:
        row, result = measure(binary, env, workload, a)
        print(json.dumps({"row": row}))
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
