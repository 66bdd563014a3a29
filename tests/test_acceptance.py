"""Acceptance suite: eight end-to-end guarantees the package must uphold.

Unlike the per-module suites, which pin implementation details, every test
here checks a user-visible contract, most of them at full scale:

1.  Training on a degraded copy of the bundled corpus makes enhanced
    features land measurably closer to natural speech than the degraded
    input does, within a modest time budget, and the headline numbers stay
    at their pinned values.
2.  Pseudo conversion never disturbs timing: frame counts, voicing, and
    log-F0 stay bit-identical to the natural target utterance.
3.  Analytic gradients agree with central finite differences across 100+
    random model instances, for both converters, including the
    autoregressive feedback path.
4.  The loss obeys its contract (rho=0 is plain L1; the total always equals
    stot + rho * cycle) and a single pair is easy to overfit.
5.  The spectral-distortion measure has the documented unit, excludes the
    energy dimension, and behaves as a pseudometric.
6.  The planar distance embedding is exact on planar inputs and degrades
    gracefully (positive stress) on non-planar ones.
7.  Identical corpus, config, and seed reproduce every artifact byte for
    byte, in two processes with different string-hash seeds, and
    persistence round trips are bit-exact.
8.  The analysis/synthesis backend round-trips speech with low voiced-frame
    distortion.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_features, unit_norms

from cyclevc import acoustics
from cyclevc.degrade import DegradeConfig
from cyclevc.evaluation import MCD_COEF, _mcd_rows, embed_distances
from cyclevc.features import MCEP_DIM, read_features, write_features
from cyclevc.fixture import make_corpus
from cyclevc.model import (
    CycleVCModel,
    ModelArch,
    load_checkpoint,
    loss_gradients,
    save_checkpoint,
    stot_forward,
)
from cyclevc.pipeline import run_end_to_end
from cyclevc.training import TrainConfig, pair_features, train
from cyclevc.wavio import read_wav

@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("acceptance-corpus")
    make_corpus(d, n_utterances=24, seed=20240917)
    return d


# run_b's whole job in a fresh interpreter: argv is the corpus and the work
# dir; the last stdout line is the run's wall time in seconds
RUN_B_SCRIPT = """
import sys, time
from pathlib import Path
from cyclevc.degrade import DegradeConfig
from cyclevc.pipeline import run_end_to_end
from cyclevc.training import TrainConfig

start = time.perf_counter()
run_end_to_end(
    Path(sys.argv[1]), Path(sys.argv[2]), train_config=TrainConfig(), degrade_config=DegradeConfig()
)
print(time.perf_counter() - start)
"""


@pytest.fixture(scope="module")
def runs(corpus_dir, tmp_path_factory):
    """Two identical full-default pipeline runs, each with its wall time.

    run_b runs in a fresh interpreter on this checkout's src/, with a fixed
    string-hash seed other than this process's, while run_a runs here. So
    the two runs share no hash seed, allocator state or module cache, as a
    rerun on another day would not. run_b's summary holds its work_dir only.
    """
    base = tmp_path_factory.mktemp("acceptance-runs")
    src = str(Path(__file__).resolve().parents[1] / "src")
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    )
    # the bytes are the same at any BLAS thread count; with none set, both
    # runs would start one spinning BLAS thread per CPU and take turns on
    # them, several times slower than the two runs one after the other
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    with open(base / "run_b.stderr", "w+") as err:
        child = subprocess.Popen(
            [sys.executable, "-c", RUN_B_SCRIPT, str(corpus_dir), str(base / "run_b")],
            env=env,
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )
        try:
            start = time.perf_counter()
            summary = run_end_to_end(
                corpus_dir,
                base / "run_a",
                train_config=TrainConfig(),
                degrade_config=DegradeConfig(),
            )
            elapsed = time.perf_counter() - start
        except BaseException:
            child.kill()
            raise
        finally:
            out, _ = child.communicate()
        if child.returncode != 0:
            err.seek(0)
            pytest.fail(f"run_b exited with {child.returncode}:\n{err.read()}")
    return {
        "run_a": (summary, elapsed),
        "run_b": ({"work_dir": base / "run_b"}, float(out.split()[-1])),
    }


# 1. end-to-end ordering ----------------------------------------------------


def test_corpus_size_split_and_defaults(corpus_dir, runs):
    assert len(sorted(corpus_dir.glob("*.wav"))) >= 20
    summary, _ = runs["run_a"]
    n_train, n_test = len(summary["train_ids"]), len(summary["test_ids"])
    assert (n_train, n_test) == (19, 5)  # 80/20 split of 24
    config = TrainConfig()
    assert config.epochs == 15
    assert config.rho == 1e-8


def test_enhanced_features_beat_synthetic_by_a_margin(runs):
    summary, _ = runs["run_a"]
    baseline = summary["mcd_synthetic_natural"]
    # strict improvement with at least 0.1 dB to spare, on both axes
    assert summary["mcd_enhanced_natural"] <= baseline - 0.1
    assert summary["mcd_enhanced_pseudo"] <= baseline - 0.1


# Headline MCDs of the default run on the fixed corpus, pinned so that an
# unintended numeric change shows. The run is the same bytes at any OpenBLAS
# thread count; 5e-3 dB covers other CPUs' BLAS kernels, which may round
# differently. A change that moves the numerics on purpose updates these
# values and records the shift.
PINNED_HEADLINE_DB = {"mcd_enhanced_natural": 1.612582, "mcd_enhanced_pseudo": 0.804121}
PINNED_TOLERANCE_DB = 5e-3


def test_headline_numbers_match_the_pinned_values(runs):
    summary, _ = runs["run_a"]
    for key, pinned in PINNED_HEADLINE_DB.items():
        assert summary[key] == pytest.approx(pinned, abs=PINNED_TOLERANCE_DB), key


def test_full_pipeline_fits_the_time_budget(runs):
    for summary, elapsed in runs.values():
        assert elapsed < 1800.0


# 2. temporal-match invariant ------------------------------------------------


def test_pseudo_conversion_is_temporally_bit_exact(runs):
    summary, _ = runs["run_a"]
    dirs = summary["feature_dirs"]
    assert summary["test_ids"]
    for u in summary["test_ids"]:
        natural = read_features(dirs["natural"] / f"{u}.cvf")
        pseudo = read_features(dirs["pseudo"] / f"{u}.cvf")
        assert pseudo.n_frames == natural.n_frames
        assert pseudo.uv.tobytes() == natural.uv.tobytes()
        assert pseudo.lf0.tobytes() == natural.lf0.tobytes()


# 3. gradient suite ----------------------------------------------------------


def _random_gradient_instance(seed):
    rng = np.random.default_rng(seed)
    arch = ModelArch(
        in_conv_layers=int(rng.integers(1, 3)),
        conv_channels=int(rng.integers(3, 7)),
        kernel=int(rng.integers(1, 4)),
        gru_hidden=int(rng.integers(3, 7)),
        out_conv_layers=int(rng.integers(1, 3)),
    )
    norm_src, norm_tgt = unit_norms()
    model = CycleVCModel.init(
        arch, norm_src, norm_tgt, seed=int(rng.integers(2**31)), dtype=np.float64
    )
    n = int(rng.integers(2, 6))
    x = rng.normal(size=(n, arch.in_dim))
    y = rng.normal(size=(n, arch.in_dim))
    rho = float(rng.choice([1.0, 0.3, 1e-3]))
    teacher = bool(rng.random() < 0.25)
    return model, x, y, rho, teacher, rng


def _central_fd(loss_fn, flat, idx, eps):
    orig = flat[idx]
    flat[idx] = orig + eps
    up = loss_fn()
    flat[idx] = orig - eps
    down = loss_fn()
    flat[idx] = orig
    return (up - down) / (2.0 * eps)


def test_gradients_match_finite_differences_on_100_random_instances():
    checked = 0
    for i in range(110):
        model, x, y, rho, teacher, rng = _random_gradient_instance(1000 + i)
        loss, grads = loss_gradients(model, x, y, rho=rho, teacher_forcing=teacher)
        assert np.isfinite(loss.total)

        def total():
            return loss_gradients(model, x, y, rho=rho, teacher_forcing=teacher)[
                0
            ].total

        names = sorted(model.params)
        f_names = [n for n in names if n.startswith("f.")]
        g_names = [n for n in names if n.startswith("g.")]
        # six probes per instance: two per converter, one aimed at the
        # autoregressive feedback columns of f's recurrent input weights,
        # and one anywhere
        slots = [f_names, f_names, g_names, g_names, ["f.gru.Wg"], names]
        for slot_index, slot in enumerate(slots):
            for _attempt in range(25):
                name = slot[int(rng.integers(len(slot)))]
                tensor = model.params[name]
                flat = tensor.reshape(-1)
                if slot_index == 4:
                    # columns past the conv channels receive y_{t-1}
                    row = int(rng.integers(tensor.shape[0]))
                    col = model.arch.conv_channels + int(rng.integers(MCEP_DIM))
                    idx = row * tensor.shape[1] + col
                else:
                    idx = int(rng.integers(flat.size))
                fd = _central_fd(total, flat, idx, 1e-6)
                fd_wide = _central_fd(total, flat, idx, 2e-6)
                if abs(fd - fd_wide) > max(1e-4 * max(abs(fd), abs(fd_wide)), 1e-8):
                    continue  # sitting near an L1/ReLU kink; probe elsewhere
                analytic = grads[name].reshape(-1)[idx]
                assert abs(analytic - fd) <= max(
                    1e-3 * max(abs(analytic), abs(fd)), 1e-6
                ), f"instance {i}, {name}[{idx}]: analytic {analytic} vs fd {fd}"
                break
            else:
                pytest.fail(f"instance {i}: no kink-free probe found for slot {slot_index}")
        checked += 1
    assert checked >= 100


# 4. loss contract -----------------------------------------------------------


def test_rho_zero_reduces_to_plain_l1(rng):
    norm_src, norm_tgt = unit_norms()
    arch = ModelArch(conv_channels=8, gru_hidden=8)
    model = CycleVCModel.init(arch, norm_src, norm_tgt, seed=3, dtype=np.float64)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        x = rng.normal(size=(n, arch.in_dim))
        y = rng.normal(size=(n, arch.in_dim))
        loss = loss_gradients(model, x, y, rho=0.0)[0]
        plain_l1 = float(
            np.mean(np.abs(stot_forward(model, x) - y[:, :MCEP_DIM]))
        )
        assert loss.total == loss.stot_l1
        assert loss.stot_l1 == plain_l1


def test_total_equals_stot_plus_rho_cycle_on_1000_random_inputs(rng):
    norm_src, norm_tgt = unit_norms()
    models = [
        CycleVCModel.init(
            ModelArch(conv_channels=4, gru_hidden=4),
            norm_src,
            norm_tgt,
            seed=seed,
            dtype=dtype,
        )
        for seed, dtype in ((0, np.float32), (1, np.float64))
    ]
    rhos = (0.0, 1e-8, 1e-3, 0.5, 1.0, 3.0)
    for i in range(1000):
        model = models[i % 2]
        rho = rhos[i % len(rhos)]
        x = rng.normal(size=(2, 50))
        y = rng.normal(size=(2, 50))
        loss = loss_gradients(model, x, y, rho=rho)[0]
        assert loss.rho == rho
        assert loss.total == loss.stot_l1 + rho * loss.cycle_l1


def test_single_pair_overfit_reaches_a_tenth_within_200_steps():
    arch = ModelArch(
        in_conv_layers=1, conv_channels=32, kernel=3, gru_hidden=64, out_conv_layers=1
    )
    pair = pair_features("solo", make_features("syn", 120), make_features("nat", 120))
    config = TrainConfig(epochs=200, learning_rate=3e-3, rho=1e-8, seed=11, arch=arch)
    _, curve = train([pair], config)
    assert len(curve) == 200  # one utterance per step, one step per epoch
    stot = [entry.stot_l1 for entry in curve]
    assert all(np.isfinite(stot))
    assert stot[-1] < 0.1 * stot[0]


# 5. spectral-distortion unit ------------------------------------------------


def test_mcd_identity_unit_and_energy_exclusion(rng):
    frame = rng.normal(size=(1, MCEP_DIM))
    assert _mcd_rows(frame, frame)[0] == 0.0

    zero = np.zeros((3, MCEP_DIM))
    unit = zero.copy()
    unit[range(3), (1, 17, 44)] = 1.0
    d = _mcd_rows(zero, unit)
    assert np.all(np.abs(d - 6.1419) < 1e-4)
    assert np.all(d == MCD_COEF)

    bumped = frame.copy()
    bumped[0, 31] += 1.0  # float noise of (a + 1) - a stays far below 1e-4 dB
    assert abs(_mcd_rows(frame, bumped)[0] - 6.1419) < 1e-4

    energy_only = frame.copy()
    energy_only[0, 0] += 100.0
    assert _mcd_rows(frame, energy_only)[0] == 0.0


def test_mcd_is_a_pseudometric_on_random_triples(rng):
    a, b, c = rng.normal(scale=2.0, size=(1000, 3, MCEP_DIM)).transpose(1, 0, 2)
    d_ab = _mcd_rows(a, b)
    d_bc = _mcd_rows(b, c)
    d_ac = _mcd_rows(a, c)
    assert np.all(d_ab >= 0.0)
    assert np.array_equal(d_ab, _mcd_rows(b, a))
    assert np.all(_mcd_rows(a, a) == 0.0)
    assert np.all(d_ac <= d_ab + d_bc + 1e-9)


# 6. planar embedding --------------------------------------------------------


def _pairwise_distances(coords):
    coords = np.asarray(coords, dtype=np.float64)
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


@pytest.mark.parametrize(
    "points",
    [
        [(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)],
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
    ],
    ids=["right-triangle", "unit-square"],
)
def test_embedding_recovers_planar_configurations(points):
    dist = _pairwise_distances(points)
    coords, stress = embed_distances(dist)
    assert coords.shape == (len(points), 2)
    assert np.max(np.abs(_pairwise_distances(coords) - dist)) < 1e-6
    assert stress < 1e-6


def test_embedding_reports_stress_for_nonplanar_input():
    # four points pairwise equidistant form a tetrahedron, not a plane
    dist = 2.0 * (np.ones((4, 4)) - np.eye(4))
    coords, stress = embed_distances(dist)
    assert np.isfinite(coords).all()
    assert stress > 0.0


# 7. determinism and persistence ----------------------------------------------


def test_identical_runs_reproduce_every_artifact_byte_for_byte(runs):
    root_a = Path(runs["run_a"][0]["work_dir"])
    root_b = Path(runs["run_b"][0]["work_dir"])
    files_a = sorted(p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file())
    assert files_a == files_b
    names = {p.name for p in files_a}
    assert {
        "model.ckpt",
        "loss.tsv",
        "plane.tsv",
        "plane.svg",
        "report.txt",
        "train_manifest.tsv",
    } <= names
    for rel in files_a:
        assert (root_a / rel).read_bytes() == (root_b / rel).read_bytes(), str(rel)


def test_checkpoint_round_trip_is_bit_exact(runs, tmp_path):
    model_path = Path(runs["run_a"][0]["model_path"])
    model = load_checkpoint(model_path)
    copy = tmp_path / "copy.ckpt"
    save_checkpoint(model, copy)
    assert copy.read_bytes() == model_path.read_bytes()


def test_feature_file_round_trip_is_bit_exact(runs, tmp_path):
    dirs = runs["run_a"][0]["feature_dirs"]
    paths = [sorted(dirs[role].glob("*.cvf"))[0] for role in sorted(dirs)]
    for path in paths:
        feat = read_features(path)
        copy = tmp_path / f"{path.parent.name}-{path.name}"
        write_features(feat, copy)
        assert copy.read_bytes() == path.read_bytes()


# 8. resynthesis sanity --------------------------------------------------------


def test_vocoder_round_trip_keeps_voiced_distortion_low(corpus_dir):
    per_frame = []
    for path in sorted(corpus_dir.glob("*.wav"))[:3]:
        samples, fs = read_wav(path)
        first = acoustics.analyze(samples, fs, utt_id=path.stem)
        rebuilt = acoustics.synthesize(first, fs)
        second = acoustics.analyze(rebuilt, fs, utt_id=path.stem)
        n = min(first.n_frames, second.n_frames)
        both_voiced = (first.uv[:n] > 0.5) & (second.uv[:n] > 0.5)
        assert both_voiced.sum() >= 20
        per_frame.extend(_mcd_rows(first.mcep[:n][both_voiced], second.mcep[:n][both_voiced]))
    assert np.mean(per_frame) < 1.5
