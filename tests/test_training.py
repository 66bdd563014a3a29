"""Pairing, optimizer, and training-loop oracles."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_features, tiny_arch
from cyclevc.errors import ConfigError, InputError, PairingError, TrainingError
from cyclevc.features import write_features, write_manifest
from cyclevc.model import CycleVCModel, LossBreakdown, load_checkpoint, save_checkpoint, stot_forward
from cyclevc.training import (
    AdamOptimizer,
    TrainConfig,
    pair_dataset,
    pair_features,
    pairing_report,
    train,
    write_loss_curve,
)


def _pairs(n_utts, n_frames=30):
    return [
        pair_features(
            f"utt{i}",
            make_features(f"utt{i}-syn", n_frames),
            make_features(f"utt{i}-nat", n_frames),
        )
        for i in range(n_utts)
    ]


# ----- pairing --------------------------------------------------------------------


def test_equal_length_pair_is_untrimmed():
    pair = pair_features("u", make_features("s", 40), make_features("t", 40))
    assert pair.trimmed_frames == 0
    assert pair.source.n_frames == pair.target.n_frames == 40


def test_small_mismatch_is_trimmed_to_the_shorter_side():
    source = make_features("s", 801)
    target = make_features("t", 800)
    pair = pair_features("u", source, target)
    assert pair.trimmed_frames == 1
    assert pair.source.n_frames == pair.target.n_frames == 800
    assert pair.source.mcep.tobytes() == source.mcep[:800].copy().tobytes()
    assert pair.target.mcep.tobytes() == target.mcep.tobytes()

    two_off = pair_features("v", make_features("s2", 803), make_features("t2", 801))
    assert two_off.trimmed_frames == 2
    assert two_off.source.n_frames == 801


def test_large_mismatch_is_a_temporal_mismatch_error():
    with pytest.raises(PairingError, match="temporal mismatch") as err:
        pair_features("u7", make_features("s", 801), make_features("t", 700))
    message = str(err.value)
    assert "u7" in message
    assert "101" in message
    assert "at most 2" in message


def test_pairing_report_lists_only_trimmed_pairs():
    pairs = [
        pair_features("even", make_features("a", 50), make_features("b", 50)),
        pair_features("odd", make_features("c", 52), make_features("d", 50)),
    ]
    report = pairing_report(pairs)
    assert len(report) == 1
    assert report[0] == "odd: trimmed 2 frame(s) to align at 50 frames"


def test_pair_dataset_reads_a_manifest(tmp_path):
    records = []
    for utt in ("alpha", "beta"):
        nat = make_features(utt + "-n", 25)
        syn = make_features(utt + "-s", 26)
        nat_path = tmp_path / f"{utt}.nat.cvf"
        syn_path = tmp_path / f"{utt}.syn.cvf"
        write_features(nat, nat_path)
        write_features(syn, syn_path)
        records.append((utt, nat_path, syn_path))
    manifest = tmp_path / "pairs.tsv"
    write_manifest(records, manifest)
    pairs = pair_dataset(manifest)
    assert [p.utt_id for p in pairs] == ["alpha", "beta"]
    assert all(p.trimmed_frames == 1 for p in pairs)
    assert all(p.source.utt_id == p.target.utt_id == p.utt_id for p in pairs)


def test_pair_dataset_rejects_an_empty_manifest(tmp_path):
    manifest = tmp_path / "pairs.tsv"
    manifest.write_text("")
    with pytest.raises(InputError, match="lists no utterances"):
        pair_dataset(manifest)


# ----- config ---------------------------------------------------------------------


def test_train_config_defaults_and_validation():
    config = TrainConfig()
    assert config.epochs == 15
    assert config.rho == 1e-8
    with pytest.raises(ConfigError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError, match="rho"):
        TrainConfig(rho=-1e-9)
    with pytest.raises(ConfigError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)


@pytest.mark.parametrize(
    "name, value",
    [("epochs", 1.5), ("epochs", True), ("seed", 1.5), ("seed", False), ("seed", "7"),
     ("teacher_forcing", "no"), ("teacher_forcing", 1)],
)
def test_train_config_rejects_a_field_of_the_wrong_type(name, value):
    with pytest.raises(ConfigError, match=name):
        TrainConfig(**{name: value})


# ----- optimizer ------------------------------------------------------------------


def test_adam_constant_gradient_steps_by_learning_rate_sign():
    # with a constant gradient, bias-corrected m_hat = g and v_hat = g^2,
    # so every step moves each entry by exactly lr * sign(g)
    params = {"w": np.array([1.0, -2.0, 0.5], dtype=np.float64)}
    grads = {"w": np.array([0.3, -0.7, 2.0], dtype=np.float64)}
    opt = AdamOptimizer(params, learning_rate=0.1)
    start = params["w"].copy()
    for step in range(1, 4):
        opt.step(params, grads)
        assert opt.step_count == step
        expected = start - 0.1 * step * np.sign(grads["w"])
        assert np.allclose(params["w"], expected, atol=1e-9)


def test_adam_updates_in_place_and_tracks_state_per_parameter():
    params = {"a": np.zeros(2, dtype=np.float32), "b": np.ones(3, dtype=np.float32)}
    handles = {k: v for k, v in params.items()}
    opt = AdamOptimizer(params, learning_rate=0.01)
    opt.step(params, {"a": np.ones(2, dtype=np.float32), "b": np.zeros(3, dtype=np.float32)})
    assert params["a"] is handles["a"]
    assert np.allclose(params["a"], -0.01, atol=1e-6)
    # zero gradient: m = v = 0, so the parameter must not move
    assert np.array_equal(params["b"], np.ones(3, dtype=np.float32))


# ----- training loop --------------------------------------------------------------


def _fast_config(**overrides):
    kwargs = dict(epochs=2, learning_rate=1e-3, seed=7, arch=tiny_arch())
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


def test_training_is_deterministic(tmp_path):
    pairs = _pairs(3)
    model_a, curve_a = train(pairs, _fast_config())
    model_b, curve_b = train(pairs, _fast_config())
    path_a = tmp_path / "a.ckpt"
    path_b = tmp_path / "b.ckpt"
    save_checkpoint(model_a, path_a)
    save_checkpoint(model_b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert [(c.stot_l1, c.cycle_l1, c.total) for c in curve_a] == [
        (c.stot_l1, c.cycle_l1, c.total) for c in curve_b
    ]


def test_training_seed_changes_the_result(tmp_path):
    pairs = _pairs(2)
    model_a, _ = train(pairs, _fast_config(seed=7))
    model_b, _ = train(pairs, _fast_config(seed=8))
    assert any(
        not np.array_equal(model_a.params[k], model_b.params[k]) for k in model_a.params
    )


def test_training_at_rho_zero_leaves_the_backward_converter_bit_unchanged():
    # g learns only through the cycle term: at rho = 0 its gradients are
    # zeros at every step, and Adam does not move a parameter whose
    # gradients were all zeros
    config = _fast_config(rho=0.0)
    model, _ = train(_pairs(2), config)
    init_ss = np.random.SeedSequence(config.seed).spawn(2)[0]
    init = CycleVCModel.init(config.arch, model.norm_src, model.norm_tgt, seed=init_ss)
    moved = {name for name in model.params if model.params[name].tobytes() != init.params[name].tobytes()}
    assert moved == {name for name in model.params if name.startswith("f.")}


def test_curve_has_one_entry_per_epoch_and_the_loss_decreases():
    pairs = _pairs(1, n_frames=60)
    config = _fast_config(epochs=10, learning_rate=3e-3)
    model, curve = train(pairs, config)
    assert len(curve) == 10
    assert all(np.isfinite(c.total) for c in curve)
    assert curve[-1].stot_l1 < curve[0].stot_l1


def test_duplicate_utterances_are_rejected():
    pair = _pairs(1)[0]
    with pytest.raises(PairingError, match="duplicate"):
        train([pair, pair], _fast_config())


def test_empty_training_set_is_rejected():
    with pytest.raises(InputError, match="empty"):
        train([], _fast_config())


@pytest.mark.parametrize(
    "loss, grad, message",
    [
        (float("nan"), 0.0, "non-finite loss at epoch 1, utterance"),
        (0.5, float("nan"), "non-finite values in parameter '.+' after epoch 1"),
    ],
    ids=["nan-loss", "nan-gradients"],
)
def test_non_finite_training_aborts_with_context(monkeypatch, loss, grad, message):
    def fake_loss_gradients(model, x, y, rho, teacher_forcing):
        breakdown = LossBreakdown(stot_l1=loss, cycle_l1=0.0, rho=rho)
        return breakdown, {k: np.full_like(v, grad) for k, v in model.params.items()}

    monkeypatch.setattr("cyclevc.training.loss_gradients", fake_loss_gradients)
    with pytest.raises(TrainingError, match=message):
        train(_pairs(1), _fast_config())


def test_saved_model_reproduces_the_forward_pass(tmp_path, rng):
    pairs = _pairs(2)
    model, _ = train(pairs, _fast_config())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    x = rng.normal(size=(12, 50))
    assert np.array_equal(stot_forward(model, x), stot_forward(loaded, x))


# minor page faults per training step, in a fresh process: a five-epoch job
# on one 519-frame pair less a one-epoch job, over the four steps between
# them, so what every job faults in once (its model and Adam state) cancels
_FAULTS_PER_STEP = """
import resource
import numpy as np
# freeing one 3 MB block before anything else sets glibc's trim threshold to
# 6 MB, so without train()'s 30 MiB block a step's freed heap is trimmed on
# every run, not only under some allocation orders
np.empty(3 << 20, dtype=np.uint8)
from cyclevc.features import UtteranceFeatures
from cyclevc.training import TrainConfig, pair_features, train

rng = np.random.default_rng(0)
def feat(n):
    mcep, lf0 = rng.normal(0.0, 0.5, (n, 45)), rng.uniform(4.6, 5.5, n)
    cap = rng.uniform(-60.0, 0.0, (n, 3))
    return UtteranceFeatures("u", np.column_stack([mcep, lf0, np.ones(n), cap]))
pairs = [pair_features("u", feat(519), feat(519))]
def faults(epochs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(pairs, TrainConfig(epochs=epochs))
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
faults(1)
print((faults(5) - faults(1)) / 4)
"""


@pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="counts glibc's heap trims as page faults",
)
def test_training_steps_keep_their_freed_heap_mapped():
    # a step that gives its freed pages back faults thousands of them in
    # again: 7,648-9,847 per step in three processes with the 30 MiB block
    # left out of train(), -48-190 with it. Without the 3 MB block at the
    # top of the script, whether a process trims followed its allocation
    # order, and a train() that held each step's gradients through the next
    # step (they can pin the heap top) took 205-2,578, sometimes passing.
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_STEP],
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert float(out) < 1000


# ----- loss curve file ------------------------------------------------------------


def test_loss_curve_file_format(tmp_path):
    curve = [
        LossBreakdown(stot_l1=0.5, cycle_l1=0.25, rho=0.5),
        LossBreakdown(stot_l1=0.125, cycle_l1=0.5, rho=0.5),
    ]
    path = tmp_path / "loss.tsv"
    write_loss_curve(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch\tstot_l1\tcycle_l1\ttotal"
    assert lines[1] == "1\t0.5\t0.25\t0.625"
    assert lines[2] == "2\t0.125\t0.5\t0.375"
    assert len(lines) == 3
