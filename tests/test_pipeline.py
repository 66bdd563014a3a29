"""Post-filter paths, rendering, and the end-to-end pipeline."""

import dataclasses
import os
import shutil

import numpy as np
import pytest

from conftest import make_features, make_model, tiny_arch
from cyclevc import acoustics, cli, pipeline
from cyclevc.degrade import DegradeConfig
from cyclevc.errors import ConfigError, InputError
from cyclevc.evaluation import ROLES
from cyclevc.features import N_DIMS, NormStats, read_features, write_features
from cyclevc.model import CycleVCModel, save_checkpoint
from cyclevc.pipeline import (
    END_TO_END_STAGES,
    SCENARIOS,
    enhance,
    generate_pseudo,
    render,
    run_end_to_end,
    split_train_test,
    write_report,
)
from cyclevc.training import TrainConfig
from cyclevc.wavio import write_wav


# ----- feature post-filtering ------------------------------------------------------


@pytest.mark.parametrize("n_frames", [1, 7, 80])
def test_pseudo_features_keep_prosody_bit_exactly(n_frames):
    model = make_model(seed=1)
    feat = make_features("p", n_frames)
    out = generate_pseudo(model, feat)
    assert out.utt_id == feat.utt_id
    assert out.n_frames == feat.n_frames
    assert out.lf0.tobytes() == feat.lf0.tobytes()
    assert out.uv.tobytes() == feat.uv.tobytes()
    assert out.cap.tobytes() == feat.cap.tobytes()
    assert out.mcep.shape == feat.mcep.shape
    assert not np.array_equal(out.mcep, feat.mcep)


@pytest.mark.parametrize("n_frames", [1, 7, 80])
def test_enhanced_features_keep_prosody_bit_exactly(n_frames):
    model = make_model(seed=2)
    feat = make_features("e", n_frames)
    out = enhance(model, feat)
    assert out.n_frames == feat.n_frames
    assert out.lf0.tobytes() == feat.lf0.tobytes()
    assert out.uv.tobytes() == feat.uv.tobytes()
    assert out.cap.tobytes() == feat.cap.tobytes()
    assert not np.array_equal(out.mcep, feat.mcep)


# 3e38 is a finite float32 that normalizes to 6e38 against a std of 0.5, and
# 1e9 against a mean of 1e308 and a std of 1e-6 normalizes past even the
# float64 range
@pytest.mark.parametrize("value, mean, std", [(3e38, 0.0, 0.5), (1e9, 1e308, 1e-6)])
def test_features_past_float32_once_normalized_are_an_input_error(tmp_path, capsys, value, mean, std):
    norm = NormStats(mean=np.full(N_DIMS, mean), std=np.full(N_DIMS, std))
    model = CycleVCModel.init(tiny_arch(), norm, norm, seed=0)
    feat = make_features("loud", 5)
    feat.mcep[2, 0] = value
    for convert in (enhance, generate_pseudo):
        with pytest.raises(InputError, match="loud: normalized features leave the float32 range"):
            convert(model, feat)
    save_checkpoint(model, tmp_path / "m.ckpt")
    write_features(feat, tmp_path / "feats" / "loud.cvf")
    args = ["--model", str(tmp_path / "m.ckpt"), "--features-dir", str(tmp_path / "feats")]
    assert cli.main(["enhance", *args, "--out-dir", str(tmp_path / "out")]) == 1
    assert "loud: normalized features leave the float32 range" in capsys.readouterr().err


def test_a_model_whose_output_overflows_is_an_input_error(tmp_path, capsys):
    # every weight stays finite in float32, but products of them do not
    model = make_model(seed=2)
    for param in model.params.values():
        param *= np.float32(1e30)
    feat = make_features("loud", 5)
    for convert in (enhance, generate_pseudo):
        with pytest.raises(InputError, match="loud: model output is non-finite"):
            convert(model, feat)
    save_checkpoint(model, tmp_path / "m.ckpt")
    write_features(feat, tmp_path / "feats" / "loud.cvf")
    args = ["--model", str(tmp_path / "m.ckpt"), "--features-dir", str(tmp_path / "feats")]
    assert cli.main(["enhance", *args, "--out-dir", str(tmp_path / "out")]) == 1
    assert "loud: model output is non-finite" in capsys.readouterr().err


def test_identity_converters_make_both_paths_no_ops(monkeypatch):
    def fake_forward(model, net, x, teachers=None):
        return np.asarray(x, dtype=np.float32)[:, :45].copy(), None

    monkeypatch.setattr("cyclevc.model._net_forward", fake_forward)
    model = make_model()
    feat = make_features("noop", 9)
    assert np.allclose(generate_pseudo(model, feat).mcep, feat.mcep, atol=1e-6)
    assert np.allclose(enhance(model, feat).mcep, feat.mcep, atol=1e-6)


# ----- scenarios --------------------------------------------------------------------


def test_scenario_table_covers_the_four_training_test_pairings():
    assert SCENARIOS == {
        "natural": ("natural", "natural"),
        "acoustic-mismatch": ("natural", "synthetic"),
        "temporal-mismatch": ("synthetic", "synthetic"),
        "post-filter": ("pseudo", "enhanced"),
    }


def test_render_is_plain_resynthesis(tmp_path):
    feat = make_features("solo", 24)
    out_dir = tmp_path / "out"
    assert render([feat], out_dir) == [out_dir / "solo.wav"]
    ref_path = tmp_path / "ref.wav"
    ref = acoustics.synthesize(feat, acoustics.FS)
    write_wav(ref_path, np.clip(ref, -1.0, 1.0), acoustics.FS)
    assert (out_dir / "solo.wav").read_bytes() == ref_path.read_bytes()


# ----- train/test split ---------------------------------------------------------------


def test_split_holds_out_the_tail_of_the_sorted_ids():
    ids = [f"utt{i:03d}" for i in range(24)]
    train_ids, test_ids = split_train_test(ids)
    assert len(train_ids) == 19 and len(test_ids) == 5
    assert test_ids == ids[-5:]
    assert train_ids + test_ids == ids

    train_ids, test_ids = split_train_test(["b", "a", "c", "d", "e"])
    assert train_ids == ["a", "b", "c", "d"]
    assert test_ids == ["e"]

    train_ids, test_ids = split_train_test(["b", "a"])
    assert (train_ids, test_ids) == (["a"], ["b"])


def test_split_rejects_degenerate_inputs():
    with pytest.raises(InputError, match="at least two"):
        split_train_test(["only"])


# ----- report -------------------------------------------------------------------------


def _summary(**mcds):
    values = dict(
        mcd_synthetic_natural=3.0,
        mcd_enhanced_natural=1.5,
        mcd_pseudo_natural=2.0,
        mcd_enhanced_pseudo=0.8,
    )
    values.update(mcds)
    return {
        "train_ids": ["utt000", "utt001"],
        "test_ids": ["utt002"],
        "stress": 0.0123,
        **values,
    }


def test_report_lists_metrics_and_passing_orderings(tmp_path):
    path = tmp_path / "report.txt"
    write_report(_summary(), TrainConfig(), DegradeConfig(), path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "cycle-vc end-to-end report"
    assert "epochs=15" in lines[1] and "rho=1e-08" in lines[1]
    assert "smooth_window=9" in lines[2] and "variance_scale=0.6" in lines[2]
    assert "train_utterances: utt000 utt001" in text
    assert "test_utterances: utt002" in text
    assert "mcd_synthetic_natural_db: 3.000000" in text
    assert "mcd_enhanced_natural_db: 1.500000" in text
    assert "mcd_pseudo_natural_db: 2.000000" in text
    assert "mcd_enhanced_pseudo_db: 0.800000" in text
    assert "plane_stress: 0.012300" in text
    assert (
        "ordering mcd_enhanced_natural < mcd_synthetic_natural: PASS (margin 1.500000 dB)"
        in text
    )
    assert (
        "ordering mcd_enhanced_pseudo < mcd_synthetic_natural: PASS (margin 2.200000 dB)"
        in text
    )
    # location-independent by construction
    assert "/" not in text and "\\" not in text


def test_report_marks_failed_orderings(tmp_path):
    path = tmp_path / "report.txt"
    write_report(_summary(mcd_enhanced_natural=3.4), TrainConfig(), DegradeConfig(), path)
    text = path.read_text()
    assert (
        "ordering mcd_enhanced_natural < mcd_synthetic_natural: FAIL (margin -0.400000 dB)"
        in text
    )


def test_failed_wav_and_report_writes_keep_the_old_files(tmp_path, monkeypatch):
    wav, report = tmp_path / "u.wav", tmp_path / "report.txt"
    write_wav(wav, np.zeros(240), acoustics.FS)
    write_report(_summary(), TrainConfig(), DegradeConfig(), report)
    before = wav.read_bytes(), report.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        write_wav(wav, np.full(480, 0.5), acoustics.FS)
    with pytest.raises(OSError, match="disk full"):
        write_report(_summary(), TrainConfig(epochs=3), DegradeConfig(), report)
    assert (wav.read_bytes(), report.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt", "u.wav"]


# ----- end to end ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def mini_runs(tmp_path_factory):
    from cyclevc.fixture import make_corpus

    base = tmp_path_factory.mktemp("mini")
    wav_dir = base / "wavs"
    make_corpus(wav_dir, n_utterances=3, seed=20240917)
    config = TrainConfig(epochs=2, learning_rate=1e-3, arch=tiny_arch())
    summaries = []
    for name in ("run_a", "run_b"):
        summaries.append(run_end_to_end(wav_dir, base / name, train_config=config))
    return base, summaries


def test_end_to_end_writes_every_artifact(mini_runs):
    base, (summary, _) = mini_runs
    work = summary["work_dir"]
    assert summary["train_ids"] == ["utt000", "utt001"]
    assert summary["test_ids"] == ["utt002"]
    for name in ("model.ckpt", "loss.tsv", "plane.tsv", "plane.svg", "report.txt", "train_manifest.tsv"):
        assert (work / name).is_file(), name
    for role in ("natural", "synthetic", "pseudo", "enhanced"):
        expected = {"utt000", "utt001", "utt002"} if role in ("natural", "synthetic") else {"utt002"}
        found = {p.stem for p in (work / "features" / role).glob("*.cvf")}
        assert found == expected, role
    assert (work / "scenarios.tsv").is_file()
    for role in ("natural", "synthetic", "enhanced"):
        assert (work / "wavs" / role / "utt002.wav").is_file(), role
    assert len((work / "loss.tsv").read_text().splitlines()) == 3  # header + 2 epochs
    report = (work / "report.txt").read_text()
    assert "ordering mcd_enhanced_natural < mcd_synthetic_natural:" in report
    for key in ("mcd_synthetic_natural", "mcd_enhanced_natural", "mcd_pseudo_natural", "mcd_enhanced_pseudo"):
        assert summary[key] > 0.0
        assert f"{key}_db: {summary[key]:.6f}" in report


def test_end_to_end_pseudo_features_stay_temporally_matched(mini_runs):
    _, (summary, _) = mini_runs
    work = summary["work_dir"]
    natural = read_features(work / "features" / "natural" / "utt002.cvf")
    pseudo = read_features(work / "features" / "pseudo" / "utt002.cvf")
    assert pseudo.n_frames == natural.n_frames
    assert pseudo.uv.tobytes() == natural.uv.tobytes()
    assert pseudo.lf0.tobytes() == natural.lf0.tobytes()


def test_end_to_end_reruns_are_byte_identical(mini_runs):
    base, (summary_a, summary_b) = mini_runs
    work_a, work_b = summary_a["work_dir"], summary_b["work_dir"]
    compare = [
        "model.ckpt",
        "loss.tsv",
        "plane.tsv",
        "plane.svg",
        "report.txt",
        "train_manifest.tsv",
        "features/pseudo/utt002.cvf",
        "features/enhanced/utt002.cvf",
        "scenarios.tsv",
        "wavs/natural/utt002.wav",
        "wavs/synthetic/utt002.wav",
        "wavs/enhanced/utt002.wav",
    ]
    for rel in compare:
        assert (work_a / rel).read_bytes() == (work_b / rel).read_bytes(), rel


def test_scenario_table_points_each_scenario_at_its_test_waveforms(mini_runs):
    _, (summary, _) = mini_runs
    work = summary["work_dir"]
    lines = (work / "scenarios.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "scenario\ttrain_on\ttest_on\twaveforms"
    rows = [line.split("\t") for line in lines[1:]]
    assert [(name, (train_on, test_on)) for name, train_on, test_on, _ in rows] == list(
        SCENARIOS.items()
    )
    for _, _, test_on, waveforms in rows:
        assert waveforms == f"wavs/{test_on}"
        wavs = sorted(p.stem for p in (work / waveforms).glob("*.wav"))
        assert wavs == summary["test_ids"]
    # each distinct test role is rendered once, and nothing else is
    assert sorted(p.name for p in (work / "wavs").iterdir()) == [
        "enhanced",
        "natural",
        "synthetic",
    ]
    assert not (work / "scenarios").exists()


def test_end_to_end_runs_the_planned_stages_in_order(tmp_path, monkeypatch):
    from cyclevc.fixture import make_corpus

    seen = []
    real_stage = pipeline._stage

    def recording_stage(name):
        seen.append(name)
        return real_stage(name)

    monkeypatch.setattr(pipeline, "_stage", recording_stage)
    make_corpus(tmp_path / "wavs", n_utterances=3, seed=20240917)
    config = TrainConfig(epochs=1, arch=tiny_arch())
    run_end_to_end(tmp_path / "wavs", tmp_path / "work", train_config=config)
    assert tuple(seen) == END_TO_END_STAGES


def test_end_to_end_needs_at_least_two_utterances(tmp_path):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    write_wav(wav_dir / "one.wav", np.zeros(24000), acoustics.FS)
    with pytest.raises(InputError, match="fewer than two"):
        run_end_to_end(wav_dir, tmp_path / "work")


def test_end_to_end_errors_name_the_failing_stage(tmp_path):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    write_wav(wav_dir / "good.wav", 0.1 * np.sin(np.arange(24000) / 20.0), acoustics.FS)
    write_wav(wav_dir / "wrong.wav", np.zeros(16000), 16000)
    with pytest.raises(ConfigError, match="stage 'extract' failed"):
        run_end_to_end(wav_dir, tmp_path / "work")


def test_report_config_lines_list_every_config_field(tmp_path):
    path = tmp_path / "report.txt"
    train_config = TrainConfig(epochs=3, learning_rate=5e-4, teacher_forcing=True)
    degrade_config = DegradeConfig(noise_std=0.0, seed=11)
    write_report(_summary(), train_config, degrade_config, path)
    lines = path.read_text().splitlines()
    for line, head, config in (
        (lines[1], "config", train_config),
        (lines[2], "degrade", degrade_config),
    ):
        expected = [
            f"{f.name}={getattr(config, f.name)}"
            for f in dataclasses.fields(config)
            if f.name != "arch"
        ]
        assert line == f"{head}: " + " ".join(expected)


def test_step_by_step_cli_reproduces_the_end_to_end_artifacts(mini_runs, tmp_path):
    base, (summary, _) = mini_runs
    work = summary["work_dir"]
    feats, model = work / "features", str(work / "model.ckpt")

    def run(command, *argv, out):
        assert cli.main([command, *map(str, argv), "--out-dir", str(tmp_path / out)]) == 0

    run("extract", "--wav-dir", base / "wavs", out="natural")
    run("simulate", "--features-dir", tmp_path / "natural", out="synthetic")
    run("enhance", "--model", model, "--features-dir", feats / "synthetic", out="enhanced")
    run("pseudo", "--model", model, "--features-dir", feats / "natural", out="pseudo")
    run("synth", "--features-dir", feats / "enhanced", out="wav")
    written = {
        "natural": ("utt000", "utt001", "utt002"),
        "synthetic": ("utt000", "utt001", "utt002"),
        "pseudo": ("utt002",),
        "enhanced": ("utt002",),
    }
    for role, ids in written.items():
        for u in ids:
            rel = f"{role}/{u}.cvf"
            assert (tmp_path / rel).read_bytes() == (feats / rel).read_bytes(), rel
    rendered = (work / "wavs" / "enhanced" / "utt002.wav").read_bytes()
    assert (tmp_path / "wav" / "utt002.wav").read_bytes() == rendered

    def copy(ids, roles, dest):
        for role in roles:
            (dest / role).mkdir(parents=True)
            for u in ids:
                shutil.copyfile(feats / role / f"{u}.cvf", dest / role / f"{u}.cvf")

    # the training utterances, laid out as in the work dir
    layout = tmp_path / "layout"
    copy(summary["train_ids"], ("natural", "synthetic"), layout / "features")
    manifest = layout / "train_manifest.tsv"
    rc = cli.main([
        "manifest", "--natural-dir", str(layout / "features" / "natural"),
        "--synthetic-dir", str(layout / "features" / "synthetic"), "--out", str(manifest),
    ])
    assert rc == 0
    assert manifest.read_bytes() == (work / "train_manifest.tsv").read_bytes()

    held_out = tmp_path / "held_out"
    copy(summary["test_ids"], ROLES, held_out)
    run("plane", *[arg for role in ROLES for arg in (f"--{role}-dir", held_out / role)], out="maps")
    for name in ("plane.tsv", "plane.svg"):
        assert (tmp_path / "maps" / name).read_bytes() == (work / name).read_bytes(), name
