#!/usr/bin/env python3
"""amrio repo benchmark: build the library from source, run one workload for
the measured time and print its metrics (see perfbench/README.md).

    python3 perfbench/run.py --workload dump_scale --seed 1 --seconds 28 --trace 0

Run from the repository root. Each pass of the workload runs in its own
process (`amrio_perfbench`), back to back: a closed loop with one client.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of the traced pass, the tracing
overhead and the scaling slopes, and the benchmark-side spans are written as
a Chrome trace into the build directory.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dump_scale", "restart_agg", "analyze_dag", "paper_pipeline")
# Workloads rerun at half their rank count in the traced pass.
SCALED = ("dump_scale", "restart_agg", "analyze_dag")
DEFAULT_SEED = 1
PASS_TIMEOUT_S = 150.0
# Stop starting passes after this much of the run; the whole run must end
# well inside three minutes.
RUN_BUDGET_S = 120.0
# Times are reported at the speed where the benchmark's reference kernel
# (ReferenceKernel in perfbench.cpp) takes this long. On a shared cloud VM,
# other tenants slow every workload by up to 1.7x for minutes at a time;
# scaling by the kernel's median time in the same run cancels most of that.
REF_NOMINAL_S = 0.03

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("vranks_per_s", "1/s"),
)

# Per-layer metrics: name -> unit. Times are the summed self time of the
# benchmark's spans around that layer's public calls; counts come from the
# program's own statistics. A layer the workload does not exercise reads 0.
LAYER_TIMES = [
    "exec.make_engine_s", "exec.barrier_s",
    "macsio.dump_s", "macsio.restart_s",
    "staging.topology_s", "staging.restage_plan_s",
    "pfs.replay_dump_s", "pfs.replay_restart_s",
    "amr.run_s", "plotfile.write_s", "plotfile.scan_s", "iostats.aggregate_s",
    "model.calibrate_s",
    "campaign.cold_s", "campaign.cache_save_s", "campaign.cache_load_s",
    "campaign.warm_s", "campaign.predict_s",
]
for _half in ("mif", "agg"):
    LAYER_TIMES += [f"obs.{m}_s.{_half}" for m in
                    ("collect", "critical_path", "slack", "ledger_report",
                     "explain")]
LAYER_COUNTS = [
    ("macsio.dump_bytes", "bytes"), ("macsio.files", "count"),
    ("macsio.requests", "count"),
    ("staging.restage_share", "ratio"),
    ("codec.raw_bytes", "bytes"), ("codec.encoded_bytes", "bytes"),
    ("codec.ratio", "ratio"), ("codec.encode_cpu_vs", "vs"),
    ("pfs.requests", "count"), ("pfs.makespan_vs", "vs"),
    ("obs.spans.mif", "count"), ("obs.edges.mif", "count"),
    ("obs.spans.agg", "count"), ("obs.edges.agg", "count"),
    ("model.mean_rel_err", "ratio"),
    ("campaign.executed", "count"), ("campaign.warm_hit_ratio", "ratio"),
]
SLOPES = ["macsio.dump_s", "macsio.restart_s", "obs.critical_path_s.mif",
          "obs.explain_s.mif", "pfs.replay_dump_s", "exec.barrier_s"]
PER_LAYER = ([(n, "s") for n in LAYER_TIMES] + LAYER_COUNTS +
             [("trace.overhead_s", "s")] +
             [(f"{n}.slope", "log2") for n in SLOPES])


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    """Configure and build the benchmark (a no-op when up to date);
    returns the binary path."""
    bdir = os.path.join(build_root, "perfbench")
    subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "amrio_perfbench")


def run_pass(binary, args, build_root, traced=False, half=False, chrome=None):
    """One pass in its own process; None when it crashed or timed out."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--work_dir", build_root]
    if traced:
        cmd.append("--traced")
    if half:
        cmd.append("--half")
    if chrome:
        cmd += ["--chrome_trace", chrome]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"pass timed out after {PASS_TIMEOUT_S:.0f}s: {' '.join(cmd)}")
        return None
    if proc.returncode != 0:
        log(f"pass exited with {proc.returncode}: {' '.join(cmd)}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"pass printed no result: {' '.join(cmd)}")
        return None


class Ledger:
    """Output checks across passes; a crashed pass fails every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.crashes = 0
        self.per_pass = 1

    def add(self, result):
        if result is None:
            self.crashes += 1
            return
        self.per_pass = max(self.per_pass, result["checks"])
        self.attempted += result["checks"]
        self.failed += result["failed"]

    def totals(self):
        crashed = self.crashes * self.per_pass
        return self.attempted + crashed, self.failed + crashed


def median(values):
    return statistics.median(values) if values else 0.0


def fits(start, seconds, durations):
    """Start another pass only when it should end within the measured time."""
    elapsed = time.monotonic() - start
    return elapsed + median(durations) <= min(seconds, RUN_BUDGET_S)


def timed_run(binary, args, build_root, ledger):
    passes, durations = [], []
    start = time.monotonic()
    while not durations or fits(start, args.seconds, durations):
        t0 = time.monotonic()
        r = run_pass(binary, args, build_root)
        durations.append(time.monotonic() - t0)
        ledger.add(r)
        if r is not None:
            passes.append(r)
    if not passes:
        return None, 0
    ref_s = median([p["ref_s"] for p in passes])
    speed = REF_NOMINAL_S / ref_s
    wall = median([p["wall_s"] for p in passes])
    log("host wall_s per pass: " + " ".join(f"{p['wall_s']:.4f}" for p in passes))
    log(f"host wall_s median {wall:.6g}, reference kernel {ref_s:.6g}s "
        f"(nominal {REF_NOMINAL_S}s): times scaled by {speed:.4f}")
    metrics = {
        "wall_s": wall * speed,
        "setup_s": median([p["setup_s"] for p in passes]) * speed,
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "vranks_per_s": median([p["vrank_ops"] / p["wall_s"] for p in passes]) / speed,
    }
    return {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END}, len(passes)


def layer_medians(passes):
    names = {n for p in passes for n in p["layers"]}
    return {n: median([p["layers"].get(n, 0.0) for p in passes]) for n in names}


def traced_run(binary, args, build_root, ledger):
    """Rotate untraced, traced and (for scaled workloads) traced half-rank
    passes; per-layer metrics are medians over the traced full-rank ones."""
    kinds = ["untraced", "traced"] + (["half"] if args.workload in SCALED else [])
    results = {k: [] for k in kinds}
    durations = {k: [] for k in kinds}
    chrome = os.path.join(
        build_root, f"perfbench-trace-{args.workload}-seed{args.seed}.json")
    start = time.monotonic()
    progressed = True
    while progressed:
        progressed = False
        for kind in kinds:
            if durations[kind] and not fits(start, args.seconds, durations[kind]):
                continue
            t0 = time.monotonic()
            first_traced = kind == "traced" and not durations[kind]
            r = run_pass(binary, args, build_root, traced=kind != "untraced",
                         half=kind == "half", chrome=chrome if first_traced else None)
            durations[kind].append(time.monotonic() - t0)
            progressed = True
            ledger.add(r)
            if r is not None:
                results[kind].append(r)
    untraced, traced, halved = results["untraced"], results["traced"], results.get("half", [])
    if not traced or not untraced:
        return None, 0
    layers = layer_medians(traced)
    raw, enc = layers.get("codec.raw_bytes", 0.0), layers.get("codec.encoded_bytes", 0.0)
    layers["codec.ratio"] = raw / enc if enc > 0 else 0.0
    layers["trace.overhead_s"] = (median([p["wall_s"] for p in traced]) -
                                  median([p["wall_s"] for p in untraced]))
    half_layers = layer_medians(halved) if halved else {}
    for n in SLOPES:
        full, half = layers.get(n, 0.0), half_layers.get(n, 0.0)
        layers[f"{n}.slope"] = math.log2(full / half) if full > 0 and half > 0 else 0.0
    log(f"chrome trace with per-layer self time: {chrome}")
    return ({n: {"value": layers.get(n, 0.0), "unit": u} for n, u in PER_LAYER},
            len(traced))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED})")
    ap.add_argument("--seconds", type=float, default=28.0,
                    help="measure passes back to back for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_root, exist_ok=True)
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    ledger = Ledger()
    run = traced_run if args.trace else timed_run
    metrics, samples = run(binary, args, build_root, ledger)
    attempted, failed = ledger.totals()
    if metrics is None:
        log(f"no pass of {args.workload} completed ({failed}/{attempted} checks failed)")
        return 1
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={samples} fail_frac={failed / attempted:.6g} "
          f"({failed}/{attempted} checks failed)")
    for name, m in sorted(metrics.items()):
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
