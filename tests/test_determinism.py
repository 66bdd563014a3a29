"""Byte-identical outputs: analysis at any worker count, training gradients
with or without their helper thread and at any BLAS thread count, and the
fixture corpus.

`analyze` runs an utterance's blocks of frames on a thread pool, and
`loss_gradients` runs weight-gradient sums on a one-worker pool. Each block
and each sum does the same arithmetic wherever it runs, so the pooled
result must equal, byte for byte, the same work run serially on the
calling thread.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cyclevc import acoustics
from cyclevc import model as core
from cyclevc.acoustics import BLOCK_FRAMES, FS, HOP, analyze
from cyclevc.features import N_DIMS, NormStats
from cyclevc.fixture import make_corpus
from cyclevc.wavio import read_wav

# sha256 over the bytes of utt000.wav .. utt023.wav, in order, of
# make_corpus(n_utterances=24, seed=20240917)
CORPUS_SHA256 = "3f2b0ae1a03bce7229fce361607899968a65ed2d5fffd5537689f4e11d37272c"


class _CallingThread:
    """Stands in for ThreadPoolExecutor: runs the tasks in order on the calling thread."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _analyze_traced(monkeypatch, x, executor=None, cpus=None):
    """analyze(x) and, per block, (start frame, thread id, returned (f0, voiced, frames))."""
    calls = []
    block = acoustics._analyze_block

    def traced(padded, n, lo):
        rows = block(padded, n, lo)
        calls.append((lo, threading.get_ident(), rows))
        return rows

    with monkeypatch.context() as m:
        m.setattr(acoustics, "_analyze_block", traced)
        if executor is not None:
            m.setattr(acoustics, "ThreadPoolExecutor", executor)
        if cpus is not None:
            m.setattr(acoustics, "_usable_cpus", lambda: cpus)
        feat = analyze(x, FS)
    return feat, calls


def _track_bytes(calls):
    """Bytes of the f0, voiced and frames tracks joined from the blocks in start order."""
    blocks = [rows for _, _, rows in sorted(calls, key=lambda call: call[0])]
    return [np.concatenate(track).tobytes() for track in zip(*blocks)]


@pytest.fixture(scope="module")
def corpus_waves(tmp_path_factory):
    paths = make_corpus(tmp_path_factory.mktemp("wav"), n_utterances=3, seed=20240917)
    return [read_wav(p)[0] for p in paths]


def _one_block_wave():
    t = np.arange((BLOCK_FRAMES - 4) * HOP) / FS
    return 0.3 * (2.0 * ((t * 140.0) % 1.0) - 1.0)


@pytest.mark.parametrize("cpus", [None, 1, 4])
def test_pooled_analysis_equals_serial_blocks_on_the_calling_thread(monkeypatch, corpus_waves, cpus):
    # cpus=None takes the machine's usable CPUs; 4 runs several workers
    # even where only one CPU is usable
    for x in [*corpus_waves, _one_block_wave()]:
        serial, serial_calls = _analyze_traced(monkeypatch, x, executor=_CallingThread)
        pooled, pooled_calls = _analyze_traced(monkeypatch, x, cpus=cpus)
        main = threading.get_ident()
        n_blocks = -(-serial.n_frames // BLOCK_FRAMES)
        assert [lo for lo, _, _ in serial_calls] == list(range(0, serial.n_frames, BLOCK_FRAMES))
        assert all(thread == main for _, thread, _ in serial_calls)
        assert sorted(lo for lo, _, _ in pooled_calls) == [lo for lo, _, _ in serial_calls]
        assert all(thread != main for _, thread, _ in pooled_calls)
        if cpus == 1 or n_blocks == 1:
            assert len({thread for _, thread, _ in pooled_calls}) == 1
        assert _track_bytes(pooled_calls) == _track_bytes(serial_calls)
        for name in ("mcep", "lf0", "uv", "cap"):
            assert getattr(pooled, name).tobytes() == getattr(serial, name).tobytes(), name


def test_more_workers_than_cpus_switching_often_give_the_same_bytes(monkeypatch, corpus_waves):
    # a block joined out of order, or computed otherwise on a worker, shows as a byte difference
    x = np.concatenate(corpus_waves)
    serial, serial_calls = _analyze_traced(monkeypatch, x, executor=_CallingThread)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled, pooled_calls = _analyze_traced(monkeypatch, x, cpus=16)
    finally:
        sys.setswitchinterval(interval)
    assert len({thread for _, thread, _ in pooled_calls}) > 1
    assert _track_bytes(pooled_calls) == _track_bytes(serial_calls)
    assert pooled.mcep.tobytes() == serial.mcep.tobytes()


def test_worker_count_is_usable_cpus_capped_at_the_block_count(monkeypatch, corpus_waves):
    seen = []

    class Spy(acoustics.ThreadPoolExecutor):
        def __init__(self, max_workers):
            seen.append(max_workers)
            super().__init__(max_workers)

    x = corpus_waves[0]
    n_blocks = -(-(x.size // HOP + 1) // BLOCK_FRAMES)
    assert n_blocks > 2
    for cpus in (1, 2, n_blocks + 5):
        _analyze_traced(monkeypatch, x, executor=Spy, cpus=cpus)
    _analyze_traced(monkeypatch, _one_block_wave(), executor=Spy, cpus=4)  # one block
    assert seen == [1, 2, n_blocks, 1]


@pytest.mark.parametrize("cpu_count, usable", [(3, 3), (None, 1)])
def test_usable_cpus_is_the_cpu_count_where_affinity_is_unknown(monkeypatch, cpu_count, usable):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert acoustics._usable_cpus() == usable


@pytest.fixture(scope="module")
def default_model():
    norm = NormStats(mean=np.zeros(N_DIMS), std=np.ones(N_DIMS))
    return core.CycleVCModel.init(core.ModelArch(), norm, norm, seed=3)


def _gradients_traced(monkeypatch, model, n, rho, teacher_forcing, cpus):
    """loss_gradients of a random n-frame pair with `cpus` usable CPUs, and
    the thread of each weight-gradient sum."""
    threads = []
    weight_grad = core._weight_grad

    def traced(d, u):
        threads.append(threading.get_ident())
        return weight_grad(d, u)

    x, y = np.random.default_rng(n).normal(size=(2, n, N_DIMS))
    with monkeypatch.context() as m:
        m.setattr(core, "_weight_grad", traced)
        m.setattr(core, "_usable_cpus", lambda: cpus)
        _, grads = core.loss_gradients(model, x, y, rho=rho, teacher_forcing=teacher_forcing)
    return grads, threads


@pytest.mark.parametrize("switch_interval", [None, 1e-6])
def test_helper_thread_sums_equal_the_sums_on_the_calling_thread(monkeypatch, default_model, switch_interval):
    # at 63, 64 and 65 frames the first 64-row block of a sum ends just past,
    # at and just short of the end of column 0's rows; teacher forcing and
    # rho change which columns carry gradient
    main = threading.get_ident()
    for n in (63, 64, 65, 519):
        for teacher_forcing in (False, True):
            for rho in (0.0, 1e-8):
                # one usable CPU runs every sum on the calling thread
                serial, serial_threads = _gradients_traced(
                    monkeypatch, default_model, n, rho, teacher_forcing, cpus=1
                )
                interval = sys.getswitchinterval()
                if switch_interval is not None:
                    sys.setswitchinterval(switch_interval)
                try:
                    pooled, pooled_threads = _gradients_traced(
                        monkeypatch, default_model, n, rho, teacher_forcing, cpus=2
                    )
                finally:
                    sys.setswitchinterval(interval)
                assert set(serial_threads) == {main}
                assert len(pooled_threads) == len(serial_threads)
                assert main in pooled_threads and len(set(pooled_threads)) == 2
                assert list(pooled) == list(serial)
                for name, grad in serial.items():
                    assert pooled[name].tobytes() == grad.tobytes(), (n, teacher_forcing, rho, name)


class _SumFailed(Exception):
    pass


@pytest.mark.parametrize("on_helper", [True, False])
def test_a_failing_sum_reaches_the_caller_and_leaves_no_thread(monkeypatch, default_model, on_helper):
    main = threading.get_ident()
    weight_grad = core._weight_grad

    def failing(d, u):
        if (threading.get_ident() != main) == on_helper:
            raise _SumFailed
        return weight_grad(d, u)

    monkeypatch.setattr(core, "_weight_grad", failing)
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    x, y = np.random.default_rng(0).normal(size=(2, 65, N_DIMS))
    before = threading.active_count()
    with pytest.raises(_SumFailed):
        core.loss_gradients(default_model, x, y)
    assert threading.active_count() == before


# sha256 of every loss_gradients tensor of one fixed 519-frame pair at the
# default architecture
_GRADIENT_DIGESTS = """
import hashlib, json
import numpy as np
from cyclevc.features import N_DIMS, NormStats
from cyclevc.model import CycleVCModel, ModelArch, loss_gradients

norm = NormStats(mean=np.zeros(N_DIMS), std=np.ones(N_DIMS))
model = CycleVCModel.init(ModelArch(), norm, norm, seed=3)
rng = np.random.default_rng(519)
x, y = rng.normal(size=(2, 519, N_DIMS))
_, grads = loss_gradients(model, x, y)
print(json.dumps({name: hashlib.sha256(g.tobytes()).hexdigest() for name, g in grads.items()}))
"""


def test_training_gradients_are_the_same_bytes_at_any_blas_thread_count():
    # a GEMM that reduces a whole sequence lets OpenBLAS choose the order of
    # its sums by thread count; at 318 frames the orders happened to agree,
    # so the pair is longer than that
    src = Path(__file__).resolve().parent.parent / "src"
    digests = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", _GRADIENT_DIGESTS],
                env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=str(threads)),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        )
        for threads in (1, 2, 4)
    ]
    assert len(digests[0]) == 24
    for other in digests[1:]:
        assert other == digests[0]


def test_fixture_corpus_bytes_are_pinned(tmp_path):
    digest = hashlib.sha256()
    for path in make_corpus(tmp_path, n_utterances=24, seed=20240917):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == CORPUS_SHA256
