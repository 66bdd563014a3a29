"""Outside-in tracing of the cyclevc layers for the benchmark's traced run.

The library has no spans of its own yet, so the tracer wraps the public call
sites that each layer's callers go through: module attributes looked up at
call time (``cyclevc.acoustics.czt``, ``cyclevc.training.loss_gradients``,
...) and methods on classes (``WarpedCepstrumCodec.cepstrum``,
``AdamOptimizer.step``). Each call becomes a span with its name, start, end,
parent span and op id. Spans stay in memory and are written out at the end.
A site that no longer exists is skipped and reports zero calls.
"""

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager

from kernels import forward_flops_per_frame, train_step_flops_per_frame

OP = "bench.op"  # one op of the workload, the root of its spans


def _model_frames(flops_per_frame):
    """Frames of the sequence argument and FLOPs computed from the model's arch."""

    def measure(args, kwargs, result):
        frames = len(args[1])
        return {"frames": frames, "flops": frames * flops_per_frame(args[0].arch)}

    return measure


def _analysis(args, kwargs, result):
    return {"frames": result.n_frames, "voiced": float(result.uv.sum())}


def _file_bytes(index):
    """Size of the file whose path is argument `index`, after the call wrote it."""

    def measure(args, kwargs, result):
        return {"bytes": os.path.getsize(args[index])}

    return measure


# span name -> (module, attribute path, what to record beyond the time)
SITES = {
    "wavio.read_wav": ("cyclevc.wavio", "read_wav", None),
    "acoustics.analyze": ("cyclevc.acoustics", "analyze", _analysis),
    "scipy.czt": ("cyclevc.acoustics", "czt", None),
    "sigproc.yin_period": ("cyclevc.acoustics", "yin_period", None),
    "sigproc.codec.cepstrum": ("cyclevc.sigproc", "WarpedCepstrumCodec.cepstrum", None),
    "degrade.simulate_tts": ("cyclevc.degrade", "simulate_tts", None),
    "features.read_features": ("cyclevc.features", "read_features", None),
    "features.write_features": ("cyclevc.features", "write_features", _file_bytes(1)),
    "training.train": ("cyclevc.training", "train", None),
    "model.loss_gradients": (
        "cyclevc.training",
        "loss_gradients",
        _model_frames(train_step_flops_per_frame),
    ),
    "training.adam_step": ("cyclevc.training", "AdamOptimizer.step", None),
    "pipeline.enhance": ("cyclevc.pipeline", "enhance", None),
    "pipeline.generate_pseudo": ("cyclevc.pipeline", "generate_pseudo", None),
    "model.stot_forward": ("cyclevc.pipeline", "stot_forward", _model_frames(forward_flops_per_frame)),
    "model.cycle_path": (
        "cyclevc.pipeline",
        "cycle_path",
        _model_frames(lambda arch: 2 * forward_flops_per_frame(arch)),
    ),
}


def _resolve(module_name, path):
    """(owner object, attribute name) of a call site, or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Collects spans as [name, start, end, parent, op_id, extra] records."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None
        self._patched = []

    def _open(self, name):
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Record the enclosed block as a span."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name, fn, measure):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if measure is not None:
                rec[5] = measure(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every call site that exists; returns the names left unwrapped."""
        missing = []
        for name, (module_name, path, measure) in SITES.items():
            site = _resolve(module_name, path)
            if site is None:
                missing.append(name)
                continue
            owner, attr = site
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, measure))
        return missing

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path, header):
        """Header line, then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, op_id, extra) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op_id}
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec) + "\n")


def nesting_failures(spans):
    """Spans that do not nest: each span must lie inside its parent's interval
    and start after the previous span with the same parent ended, so that no
    self time is negative and no time is counted twice."""
    failures = []
    last_end = {}
    for i, (name, start, end, parent, op_id, _) in enumerate(spans):
        lo, hi = (spans[parent][1], spans[parent][2]) if parent >= 0 else (float("-inf"), float("inf"))
        if not lo <= last_end.get(parent, lo) <= start <= end <= hi:
            failures.append(f"span {i} ({name}, op {op_id}) does not nest in its parent {parent}")
        last_end[parent] = end
    return failures


def aggregate(spans):
    """Per span name: calls, inclusive ms, self ms and summed extras.

    Self time is a span's duration minus the durations of its direct
    children; the calls are single-threaded, so children nest and never
    overlap.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    totals = {}
    for i, (name, start, end, _, _, extra) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        t["calls"] += 1
        t["ms"] += 1000.0 * (end - start)
        t["self_ms"] += 1000.0 * (end - start - child_s[i])
        for key, value in (extra or {}).items():
            t[key] = t.get(key, 0) + value
    return totals
