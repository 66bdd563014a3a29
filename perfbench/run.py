#!/usr/bin/env python3
"""cyclevc benchmark: one closed-loop workload per run, one caller.

    python3 perfbench/run.py --workload extract|train|convert|all \\
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout that holds `src/cyclevc`; it imports
the library from that source tree and from nowhere else. The inputs are made
from --seed (the default is the ROADMAP's fixed corpus seed). The workload
sets up several times (setup_s is the median), then runs ops back to back for
--seconds and checks every output. It prints a report, then as its last line
one JSON object: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (see tracing.py). `--workload all` runs the
three workloads one after another, each in its own process. OpenBLAS runs one
thread unless OPENBLAS_NUM_THREADS says otherwise.
"""

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Before NumPy is imported: one caller on one thread. On a 2-vCPU machine a
# second OpenBLAS thread made convert and train no faster (1,930 and 1,930
# frames/s on convert, 953 and 978 on train), but with one busy thread beside
# it, convert fell to 1,250 frames/s with two threads and held 2,000 with one.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from calibrate import REFERENCE_S, kernel_s
from kernels import forward_flops_per_frame, train_step_flops_per_frame
from tracing import OP, Tracer, aggregate, nesting_failures

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 20240917  # cyclevc.fixture.DEFAULT_SEED, the ROADMAP's fixed corpus
P90_MIN_OPS = 100  # p90 is reported only with at least ten ops beyond it
WORKLOAD_NAMES = ("extract", "train", "convert")

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("frames_per_s", "frames/s"),
    ("peak_rss_mb", "MB"),
    ("quality_mcd_db", "dB"),
)

# (span name, quantity, unit) of the per-layer metrics, in BENCHMARK.json order
PER_LAYER = (
    ("acoustics.analyze", "calls", "count"),
    ("acoustics.analyze", "frames", "frames"),
    ("acoustics.analyze", "self_ms", "ms"),
    ("acoustics.analyze", "voiced_ratio", "ratio"),
    ("scipy.czt", "calls", "count"),
    ("scipy.czt", "ms", "ms"),
    ("sigproc.yin_period", "calls", "count"),
    ("sigproc.yin_period", "ms", "ms"),
    ("sigproc.codec.cepstrum", "calls", "count"),
    ("sigproc.codec.cepstrum", "ms", "ms"),
    ("degrade.simulate_tts", "ms", "ms"),
    ("wavio.read_wav", "ms", "ms"),
    ("model.loss_gradients", "calls", "count"),
    ("model.loss_gradients", "frames", "frames"),
    ("model.loss_gradients", "ms_per_frame", "ms/frame"),
    ("model.loss_gradients", "gflops_per_s", "GFLOP/s"),
    ("training.adam_step", "calls", "count"),
    ("training.adam_step", "ms", "ms"),
    ("training.train", "self_ms", "ms"),
    ("pipeline.enhance", "self_ms", "ms"),
    ("pipeline.generate_pseudo", "self_ms", "ms"),
    ("model.stot_forward", "ms_per_frame", "ms/frame"),
    ("model.stot_forward", "gflops_per_s", "GFLOP/s"),
    ("model.cycle_path", "ms_per_frame", "ms/frame"),
    ("model.cycle_path", "gflops_per_s", "GFLOP/s"),
    ("features.read_features", "ms", "ms"),
    ("features.write_features", "ms", "ms"),
    ("features.write_features", "bytes", "B"),
    ("bench.op", "self_ms", "ms"),
    ("trace", "wall_ms", "ms"),
    ("trace", "self_ms_sum", "ms"),
    ("trace", "overhead_ratio", "ratio"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def openblas_threads():
    """Thread count the OpenBLAS bundled with NumPy will use, or None."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed):
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "seed": seed,
    }


def model_record():
    """Parameter count and computed FLOPs per frame of the default architecture."""
    from cyclevc.model import ModelArch, param_shapes

    arch = ModelArch()
    params = sum(math.prod(shape) for shape in param_shapes(arch).values())
    return {
        "params": params,
        "param_bytes": 4 * params,
        "forward_flops_per_frame": forward_flops_per_frame(arch),
        "train_step_flops_per_frame": train_step_flops_per_frame(arch),
        "flops": "computed from ModelArch, see perfbench/kernels.py",
    }


class Phase:
    """Outcome of one closed-loop pass of ops."""

    def __init__(self):
        self.op_s = []  # wall seconds of each op
        self.op_kernel_s = []  # reference-kernel seconds around each op (calibrate.py)
        self.op_frames = []  # frames each op finished; 0 for a failed op
        self.digests = []
        self.failures = []


def run_ops(wl, seconds=None, count=None, tracer=None):
    """Run ops 0, 1, ... back to back: for `seconds`, or exactly `count` ops."""
    phase = Phase()
    busy = 0.0
    i = 0
    before = kernel_s()
    while (i < count) if count is not None else (i == 0 or busy < seconds):
        t0 = time.perf_counter()
        digest = None
        frames = 0
        try:
            if tracer is None:
                frames, digest = wl.op(i)
            else:
                tracer.op_id = i
                with tracer.span(OP):
                    frames, digest = wl.op(i)
        except Exception as exc:  # an op that raises is a failed op; keep going
            phase.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        phase.op_s.append(time.perf_counter() - t0)
        busy += phase.op_s[-1]
        after = kernel_s()
        phase.op_kernel_s.append((before + after) / 2)
        before = after
        phase.op_frames.append(frames)
        phase.digests.append(digest)
        i += 1
    return phase


def repeat_failures(wl, phase):
    """Ops on the same input must write the same bytes."""
    seen = {}
    failures = []
    for i, digest in enumerate(phase.digests):
        if digest is None:
            continue
        first = seen.setdefault(wl.key(i), (i, digest))
        if first[1] != digest:
            failures.append(f"op {i} wrote other bytes than op {first[0]} on the same input")
    return failures


def layer_metrics(totals, overhead_ratio, wall_ms):
    """The PER_LAYER metrics from span totals; a site never called reads 0."""
    self_sum = sum(t["self_ms"] for t in totals.values())
    derived = {
        "voiced_ratio": lambda t: t["voiced"] / t["frames"] if t.get("frames") else 0.0,
        "ms_per_frame": lambda t: t["ms"] / t["frames"] if t.get("frames") else 0.0,
        "gflops_per_s": lambda t: t["flops"] / (t["ms"] * 1e6) if t.get("flops") else 0.0,
    }
    special = {
        ("trace", "wall_ms"): wall_ms,
        ("trace", "self_ms_sum"): self_sum,
        ("trace", "overhead_ratio"): overhead_ratio,
    }
    metrics = {}
    for site, quantity, unit in PER_LAYER:
        t = totals.get(site, {})
        if (site, quantity) in special:
            value = special[(site, quantity)]
        elif quantity in derived:
            value = derived[quantity](t) if t else 0.0
        else:
            value = t.get(quantity, 0)
        metrics[f"{site}.{quantity}"] = {"value": value, "unit": unit}
    return metrics


def run_workload(args, lines):
    import workloads  # imports cyclevc, so only after main() found the source tree

    wl = workloads.WORKLOADS[args.workload](args.seed)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_s, setup_wall_s = [], []
        for r in range(wl.setup_repeats):
            before = kernel_s()
            t0 = time.perf_counter()
            wl.setup(run_dir / f"setup{r}")
            setup_wall_s.append(time.perf_counter() - t0)
            setup_s.append(setup_wall_s[-1] * REFERENCE_S / ((before + kernel_s()) / 2))
            if r:
                shutil.rmtree(run_dir / f"setup{r - 1}")
        gc.collect()

        if not args.trace:
            phases = [run_ops(wl, seconds=args.seconds)]
        else:
            untraced = run_ops(wl, seconds=args.seconds / 2)
            tracer = Tracer()
            missing = tracer.install()
            try:
                traced = run_ops(wl, count=len(untraced.digests), tracer=tracer)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]

        failures = [f for phase in phases for f in phase.failures]
        for phase in phases:
            failures += repeat_failures(wl, phase)
        try:
            quality = wl.finish()
        except Exception as exc:  # a failed check after the timed phase
            failures.append(f"finish: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            quality = {}
        if args.trace and untraced.digests != traced.digests:
            failures.append("the traced run wrote other bytes than the untraced run")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    phase = phases[0]
    op_s = phase.op_s
    frame_counts = wl.frame_counts
    lines.append(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    lines.append("env " + json.dumps(environment(args.seed)))
    lines.append(
        "corpus "
        + json.dumps(
            {
                "utterances": len(frame_counts),
                "frames": sum(frame_counts),
                "min_frames": min(frame_counts),
                "max_frames": max(frame_counts),
                "frame_counts": frame_counts,
            }
        )
    )
    lines.append("model " + json.dumps(model_record()))
    ops = sum(len(p.op_s) for p in phases)
    # failed ops finish no frames
    wall_rates = [n / t for t, n in zip(op_s, phase.op_frames) if n] or [0.0]
    rates = [n / t * k / REFERENCE_S for t, n, k in zip(op_s, phase.op_frames, phase.op_kernel_s) if n] or [0.0]
    report = {
        # gated times are seconds at the reference speed (calibrate.py); the
        # wall-clock figures and the kernel's time follow them, not gated
        "setup_s": (statistics.median(setup_s), "s"),
        "setup_wall_s": (statistics.median(setup_wall_s), "s"),
        # the median op's rate: an op slowed by a neighbour's burst of load
        # does not move it, as it would move the total over the total time
        "frames_per_s": (statistics.median(rates), "frames/s"),
        "frames_per_wall_s": (statistics.median(wall_rates), "frames/s"),
        "reference_kernel_ms": (1000.0 * statistics.median(phase.op_kernel_s), "ms"),
        "op_ms_p50": (1000.0 * statistics.median(op_s), "ms"),
    }
    if len(op_s) >= P90_MIN_OPS:
        report["op_ms_p90"] = (1000.0 * statistics.quantiles(op_s, n=10)[-1], "ms")
    report["peak_rss_mb"] = (peak_rss_mb, "MB")
    for name, value in quality.items():
        report[name] = (value, "dB")
    if quality:
        report["quality_mcd_db"] = (next(iter(quality.values())), "dB")
    report["ops"] = (ops, "count")

    if args.trace:
        totals = aggregate(tracer.spans)
        wall_ms = 1000.0 * sum(traced.op_s)  # clocked by run_ops, outside the spans
        overhead = sum(traced.op_s) / sum(op_s)
        metrics = layer_metrics(totals, overhead, wall_ms)
        failures += nesting_failures(tracer.spans)
        self_sum = metrics["trace.self_ms_sum"]["value"]
        if not 0.99 * wall_ms <= self_sum <= wall_ms:
            failures.append(f"self times add up to {self_sum} ms, traced op time is {wall_ms} ms")
        if missing:
            lines.append("trace sites not found (0 calls): " + ", ".join(missing))
        WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {"workload": args.workload, "env": environment(args.seed)})
        lines.append(f"spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": report[name][0], "unit": unit} for name, unit in END_TO_END if name in report}

    report["ops_failed"] = (len(failures), "count")
    for name, (value, unit) in report.items():
        lines.append(f"{name:<28} {value:>14.6g} {unit}")
    if args.trace:
        for name, m in metrics.items():
            lines.append(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    for failure in failures:
        lines.append("FAILED " + failure)
    return {
        "correct": not failures,
        "attempted": ops,
        "failed": len(failures),
        "metrics": metrics,
    }


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(out[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cyclevc" / "__init__.py").is_file():
        print(f"perfbench: no cyclevc source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cyclevc

    if Path(cyclevc.__file__).resolve().parent != SRC / "cyclevc":
        print(f"perfbench: imported cyclevc from {cyclevc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    lines = []
    result = run_workload(args, lines)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
