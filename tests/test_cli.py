"""Command-line behaviour: exit codes, config files, and the full tool chain."""

import dataclasses

import numpy as np
import pytest

from conftest import write_non_finite_checkpoint
from cyclevc import cli
from cyclevc.degrade import DegradeConfig
from cyclevc.errors import TrainingError
from cyclevc.features import read_features
from cyclevc.training import TrainConfig
from cyclevc.wavio import write_wav


@pytest.fixture(scope="module")
def corpus3(tmp_path_factory):
    from cyclevc.fixture import make_corpus

    wav_dir = tmp_path_factory.mktemp("corpus")
    make_corpus(wav_dir, n_utterances=3, seed=20240917)
    return wav_dir


# ----- exit codes -------------------------------------------------------------------


def test_success_returns_zero_and_echoes_config(tmp_path, capsys):
    rc = cli.main(["fixture", "--out-dir", str(tmp_path / "w"), "--count", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[config] count=1" in out
    assert "[config] out_dir=" in out
    assert "wrote 1 utterances" in out


def test_unknown_flag_is_exit_one_and_names_the_token(tmp_path, capsys):
    rc = cli.main(["fixture", "--out-dir", str(tmp_path), "--bogus"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "--bogus" in err
    assert err.startswith("error:")


def test_missing_command_is_exit_one(capsys):
    assert cli.main([]) == 1
    assert "error:" in capsys.readouterr().err


def test_help_returns_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_bad_input_is_exit_one(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = cli.main(["extract", "--wav-dir", str(empty), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "no WAV files" in capsys.readouterr().err


def test_malformed_wav_is_exit_one(tmp_path, capsys):
    wav_dir = tmp_path / "wav"
    wav_dir.mkdir()
    (wav_dir / "junk.wav").write_bytes(b"RIFF\x10\x00\x00\x00WAVEjunk")
    rc = cli.main(["extract", "--wav-dir", str(wav_dir), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "not a valid WAV" in capsys.readouterr().err


def test_missing_file_is_exit_one(tmp_path, capsys):
    rc = cli.main(
        ["train", "--manifest", str(tmp_path / "nope.tsv"), "--out-dir", str(tmp_path)]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_wrong_sample_rate_is_exit_one(tmp_path, capsys):
    write_wav(tmp_path / "narrow.wav", np.zeros(16000), 16000)
    rc = cli.main(["extract", "--wav-dir", str(tmp_path), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "sampled at 16000 Hz" in capsys.readouterr().err


def test_enhance_with_a_non_finite_checkpoint_is_exit_one(tmp_path, capsys):
    model = tmp_path / "m.ckpt"
    write_non_finite_checkpoint(model)
    (tmp_path / "feats").mkdir()
    rc = cli.main(
        [
            "enhance",
            "--model",
            str(model),
            "--features-dir",
            str(tmp_path / "feats"),
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err


def test_internal_failures_are_exit_two(tmp_path, capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("kaput")

    monkeypatch.setitem(cli._HANDLERS, "fixture", boom)
    rc = cli.main(["fixture", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "internal error" in capsys.readouterr().err

    def training_boom(args):
        raise TrainingError("diverged")

    monkeypatch.setitem(cli._HANDLERS, "fixture", training_boom)
    rc = cli.main(["fixture", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "internal error: diverged" in capsys.readouterr().err


# ----- config files -------------------------------------------------------------------


def _feature_dir(tmp_path):
    from conftest import make_features
    from cyclevc.features import write_features

    d = tmp_path / "feats"
    d.mkdir(exist_ok=True)
    write_features(make_features("u0", 12), d / "u0.cvf")
    return d


def test_config_file_sets_defaults_but_flags_win(tmp_path, capsys):
    feats = _feature_dir(tmp_path)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("# comment\nnoise-std=0.9\nsmooth_window=3\n")
    rc = cli.main(
        [
            "simulate",
            "--config",
            str(cfg),
            "--features-dir",
            str(feats),
            "--out",
            str(tmp_path / "syn"),
            "--noise-std",
            "0.1",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "[config] noise_std=0.1" in out  # explicit flag beats the config file
    assert "[config] smooth_window=3" in out  # config beats the built-in default
    assert (tmp_path / "syn" / "u0.cvf").is_file()


def test_unknown_config_key_is_exit_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key=1\n")
    rc = cli.main(
        ["simulate", "--config", str(cfg), "--features-dir", "x", "--out", "y"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown config keys for 'simulate': bogus_key" in err


def test_non_boolean_config_value_for_a_flag_is_exit_one(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("teacher_forcing=maybe\n")
    rc = cli.main(
        ["train", "--config", str(cfg), "--manifest", "m.tsv", "--out-dir", "o"]
    )
    assert rc == 1
    assert "expected a boolean" in capsys.readouterr().err


def test_untypable_config_value_is_exit_one(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("smooth_window=abc\n")
    rc = cli.main(
        ["simulate", "--config", str(cfg), "--features-dir", "x", "--out", "y"]
    )
    assert rc == 1
    assert "config key smooth_window" in capsys.readouterr().err


def test_malformed_config_line_is_exit_one(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("this is not a pair\n")
    rc = cli.main(
        ["simulate", "--config", str(cfg), "--features-dir", "x", "--out", "y"]
    )
    assert rc == 1
    assert "expected key=value" in capsys.readouterr().err


def test_non_utf8_config_file_is_exit_one(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_bytes(b"noise-std = 0.01 # \xff\xfe\n")
    rc = cli.main(
        ["simulate", "--config", str(cfg), "--features-dir", "x", "--out", "y"]
    )
    assert rc == 1
    assert "cannot read config file" in capsys.readouterr().err


# ----- command-specific validation ------------------------------------------------------


def test_non_utf8_manifest_is_exit_one(tmp_path, capsys):
    manifest = tmp_path / "m.tsv"
    manifest.write_bytes(b"u\t\xffnat.cvf\tsyn.cvf\n")
    rc = cli.main(["train", "--manifest", str(manifest), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mcd", "synth"])
def test_zero_frame_feature_file_is_exit_one(tmp_path, capsys, command):
    import struct

    feats = tmp_path / "feats"
    feats.mkdir()
    (feats / "u.cvf").write_bytes(struct.pack("<4sIIIII", b"CVF1", 1, 0, 50, 5000, 0))
    if command == "mcd":
        argv = ["mcd", "--set-a", str(feats), "--set-b", str(feats)]
    else:
        argv = ["synth", "--features-dir", str(feats), "--out-dir", str(tmp_path / "wav")]
    rc = cli.main(argv)
    assert rc == 1
    assert "declares 0 frames" in capsys.readouterr().err


@pytest.mark.parametrize(
    "column, value, message",
    [("cap", 3.0, "cap values must lie in"), ("mcep0", 1000.0, "log envelope peak")],
)
def test_synth_of_unrenderable_features_is_exit_one(tmp_path, capsys, column, value, message):
    import struct

    from conftest import make_features
    from cyclevc.features import CAP_SLICE

    frames = make_features("u", 40).full_frames()
    frames[:, CAP_SLICE if column == "cap" else 0] = value
    feats = tmp_path / "feats"
    feats.mkdir()
    header = struct.pack("<4sIIIII", b"CVF1", 1, len(frames), 50, 5000, 0)
    (feats / "u.cvf").write_bytes(header + frames.astype("<f4").tobytes())
    out = tmp_path / "wav"
    rc = cli.main(["synth", "--features-dir", str(feats), "--out-dir", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_train_requires_an_output_destination(tmp_path, capsys):
    manifest = tmp_path / "m.tsv"
    manifest.write_text("")
    rc = cli.main(["train", "--manifest", str(manifest)])
    assert rc == 1
    assert "needs --model-out or --out-dir" in capsys.readouterr().err


def test_manifest_command_rejects_one_sided_utterances(tmp_path, capsys):
    from conftest import make_features
    from cyclevc.features import write_features

    nat = tmp_path / "nat"
    syn = tmp_path / "syn"
    nat.mkdir()
    syn.mkdir()
    write_features(make_features("a", 5), nat / "a.cvf")
    write_features(make_features("a", 5), syn / "a.cvf")
    write_features(make_features("b", 5), nat / "b.cvf")
    rc = cli.main(
        [
            "manifest",
            "--natural-dir",
            str(nat),
            "--synthetic-dir",
            str(syn),
            "--out",
            str(tmp_path / "m.tsv"),
        ]
    )
    assert rc == 1
    assert "one side only: b" in capsys.readouterr().err


def test_plane_needs_two_sets(tmp_path, capsys):
    feats = _feature_dir(tmp_path)
    rc = cli.main(["plane", "--natural-dir", str(feats)])
    assert rc == 1
    assert "at least two" in capsys.readouterr().err


# ----- the full tool chain ---------------------------------------------------------------


def test_cli_tool_chain(tmp_path, corpus3, capsys):
    natural = tmp_path / "feats" / "natural"
    synthetic = tmp_path / "feats" / "synthetic"
    pseudo = tmp_path / "feats" / "pseudo"
    enhanced = tmp_path / "feats" / "enhanced"
    run_dir = tmp_path / "run"

    assert cli.main(["extract", "--wav-dir", str(corpus3), "--out-dir", str(natural)]) == 0
    assert len(list(natural.glob("*.cvf"))) == 3

    assert cli.main(
        ["simulate", "--features-dir", str(natural), "--out", str(synthetic)]
    ) == 0
    assert len(list(synthetic.glob("*.cvf"))) == 3

    manifest = tmp_path / "pairs.tsv"
    assert cli.main(
        [
            "manifest",
            "--natural-dir",
            str(natural),
            "--synthetic-dir",
            str(synthetic),
            "--out",
            str(manifest),
        ]
    ) == 0

    assert cli.main(
        [
            "train",
            "--manifest",
            str(manifest),
            "--out-dir",
            str(run_dir),
            "--epochs",
            "1",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "trained on 3 utterances" in out
    model = run_dir / "model.ckpt"
    assert model.is_file()
    assert (run_dir / "loss.tsv").is_file()

    assert cli.main(
        [
            "pseudo",
            "--model",
            str(model),
            "--features-dir",
            str(natural),
            "--out-dir",
            str(pseudo),
        ]
    ) == 0
    assert cli.main(
        [
            "enhance",
            "--model",
            str(model),
            "--features-dir",
            str(synthetic),
            "--out-dir",
            str(enhanced),
        ]
    ) == 0
    # pseudo output is frame-aligned with its natural origin
    nat0 = read_features(natural / "utt000.cvf")
    pse0 = read_features(pseudo / "utt000.cvf")
    assert pse0.n_frames == nat0.n_frames
    assert pse0.uv.tobytes() == nat0.uv.tobytes()

    assert cli.main(["mcd", "--set-a", str(enhanced), "--set-b", str(natural)]) == 0
    assert "mcd_db=" in capsys.readouterr().out

    plane_dir = tmp_path / "plane"
    assert cli.main(
        [
            "plane",
            "--natural-dir",
            str(natural),
            "--synthetic-dir",
            str(synthetic),
            "--enhanced-dir",
            str(enhanced),
            "--out-dir",
            str(plane_dir),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "mcd[natural,synthetic]=" in out
    assert "stress=" in out
    assert (plane_dir / "plane.tsv").is_file()
    assert (plane_dir / "plane.svg").is_file()

    wav_out = tmp_path / "wav_out"
    assert cli.main(
        ["synth", "--features-dir", str(pseudo), "--out-dir", str(wav_out)]
    ) == 0
    assert len(list(wav_out.glob("*.wav"))) == 3


def test_end_to_end_dry_run_plans_without_touching_anything(tmp_path, capsys):
    work = tmp_path / "work"
    rc = cli.main(
        [
            "end-to-end",
            "--wav-dir",
            str(tmp_path / "missing"),
            "--work-dir",
            str(work),
            "--dry-run",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "[plan] 1. extract" in out
    assert "[plan] 9. report" in out
    assert not work.exists()


def test_end_to_end_cli_prints_the_report(tmp_path, corpus3, capsys):
    work = tmp_path / "work"
    rc = cli.main(
        [
            "end-to-end",
            "--wav-dir",
            str(corpus3),
            "--work-dir",
            str(work),
            "--epochs",
            "1",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "[report] cycle-vc end-to-end report" in out
    assert "[report] written to" in out
    assert "ordering mcd_enhanced_natural < mcd_synthetic_natural:" in out
    assert (work / "report.txt").is_file()
    assert (work / "plane.svg").is_file()


# ----- options come from the config dataclasses ----------------------------------------


def _options(command):
    _, parsers = cli._build_parser()
    return {a.dest: a for a in parsers[command]._actions}


def _assert_field_options(actions, config_cls, skip=()):
    for f in dataclasses.fields(config_cls):
        if f.name in skip:
            continue
        action = actions[f.name]
        assert action.option_strings == ["--" + f.name.replace("_", "-")]
        assert action.default == f.default
        assert type(action.default) is f.type


@pytest.mark.parametrize("command", ["train", "end-to-end"])
def test_every_train_config_field_is_an_option_with_its_default(command):
    _assert_field_options(_options(command), TrainConfig, skip=("arch",))


def test_every_degrade_config_field_is_a_simulate_option_with_its_default():
    _assert_field_options(_options("simulate"), DegradeConfig)


def test_end_to_end_offers_only_the_degradation_seed():
    actions = _options("end-to-end")
    assert actions["sim_seed"].option_strings == ["--sim-seed"]
    assert actions["sim_seed"].default == DegradeConfig.seed
    degrade_only = {f.name for f in dataclasses.fields(DegradeConfig)} - {"seed"}
    assert not degrade_only & set(actions)


def test_end_to_end_options_reach_the_report(tmp_path, corpus3, capsys):
    work = tmp_path / "work"
    argv = ["end-to-end", "--wav-dir", str(corpus3), "--work-dir", str(work)]
    argv += ["--epochs", "1", "--learning-rate", "0.0005", "--sim-seed", "5"]
    assert cli.main(argv) == 0
    assert "[config] learning_rate=0.0005" in capsys.readouterr().out
    lines = (work / "report.txt").read_text().splitlines()
    assert "learning_rate=0.0005" in lines[1].split()
    assert "seed=5" in lines[2].split()
