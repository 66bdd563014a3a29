"""Feature post-filtering paths and the waveform-generation scenarios.

Two uses of the trained converter pair:

* pseudo features — run natural target features through the self-conversion
  cycle (target-to-source, then source-to-target). The output is temporally
  identical to the natural input but carries the converter's acoustic
  fingerprint, which makes it matched training material for a vocoder.
* enhanced features — run synthetic source features through the
  source-to-target converter, pulling them toward the natural domain at
  test time.

Both replace only the mel-cepstra; prosody (lf0, voicing, aperiodicity)
passes through untouched.

A scenario names which features a vocoder would train on and which it
renders at test time: natural/natural, natural/synthetic (acoustic
mismatch), synthetic/synthetic (temporal mismatch), pseudo/enhanced (the
post-filter pairing). The waveforms come from the deterministic
source-filter resynthesizer, which needs no training, so each distinct test
set is rendered once, to `wavs/<role>/`; `scenarios.tsv` records each
scenario's training role (for the learned vocoder the pairing is meant for)
and the waveform directory of its test role.
"""

import dataclasses
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import acoustics
from .degrade import DegradeConfig, simulate_tts
from .errors import ConfigError, CycleVCError, InputError
from .evaluation import ROLES, mcd_plane, write_plane_svg, write_plane_tsv
from .features import denormalize_mcep, normalize, write_atomic, write_features, write_manifest
from .model import cycle_path, save_checkpoint, stot_forward
from .training import TrainConfig, pair_dataset, train, write_loss_curve
from .wavio import read_wav, write_wav


def generate_pseudo(model, target_feat):
    """Temporally matched vocoder-training features from natural features."""
    return _with_converted_mcep(target_feat, cycle_path, model, model.norm_tgt)


def enhance(model, source_feat):
    """Pull synthetic features toward the natural domain (test-time path)."""
    return _with_converted_mcep(source_feat, stot_forward, model, model.norm_src)


def _with_converted_mcep(feat, convert, model, norm):
    """`feat` with the mel-cepstra that `convert` makes of it, normalized by `norm`."""
    x_norm = normalize(feat, norm)
    # finite weights can still overflow float32 in the products; the inf or
    # nan that results is rejected below, naming the utterance
    with np.errstate(over="ignore", invalid="ignore"):
        mcep = denormalize_mcep(convert(model, x_norm), model.norm_tgt)
    if not np.all(np.isfinite(mcep)):
        raise InputError(f"{feat.utt_id}: model output is non-finite")
    return feat.with_mcep(mcep)


# ----- stages: each subcommand and run_end_to_end call these ---------------------


def extract(wav_paths, out_dir):
    """Analyze 24 kHz WAVs into `<out_dir>/<stem>.cvf`; returns the features."""
    out_dir = Path(out_dir)
    feats = []
    for path in map(Path, wav_paths):
        samples, fs = read_wav(path)
        if fs != acoustics.FS:
            raise ConfigError(f"{path} is sampled at {fs} Hz, expected {acoustics.FS}")
        feat = acoustics.analyze(samples, fs, utt_id=path.stem)
        write_features(feat, out_dir / f"{feat.utt_id}.cvf")
        feats.append(feat)
    return feats


def convert_all(convert, feats, out_dir):
    """Write `convert(feat)` to `<out_dir>/<utt_id>.cvf` for each feature in
    turn (simulate, pseudo, enhance); returns the converted features."""
    out_dir = Path(out_dir)
    converted = []
    for feat in feats:
        result = convert(feat)
        write_features(result, out_dir / f"{feat.utt_id}.cvf")
        converted.append(result)
    return converted


def fit(pairs, config, out_dir):
    """Train the converter pair on `pairs` and write `<out_dir>/model.ckpt`
    and `<out_dir>/loss.tsv`; returns (model, loss curve)."""
    out_dir = Path(out_dir)
    model, curve = train(pairs, config)
    save_checkpoint(model, out_dir / "model.ckpt")
    write_loss_curve(curve, out_dir / "loss.tsv")
    return model, curve


def pair_manifest(utt_ids, natural_dir, synthetic_dir, path):
    """Write the manifest at `path` pairing `<natural_dir>/<u>.cvf` with
    `<synthetic_dir>/<u>.cvf` for each u of `utt_ids`, in that order. Its
    paths are relative to the manifest's own directory, which read_manifest
    resolves them against, so the bytes do not depend on the working
    directory."""
    base = os.path.dirname(os.path.abspath(path))

    def rel(directory, u):
        return os.path.relpath(os.path.join(directory, f"{u}.cvf"), base)

    write_manifest([(u, rel(natural_dir, u), rel(synthetic_dir, u)) for u in utt_ids], path)


def distance_map(sets, out_dir):
    """MCD plane of the role -> features mapping `sets`, written to
    `<out_dir>/plane.tsv` and `<out_dir>/plane.svg`; returns the plane."""
    out_dir = Path(out_dir)
    plane = mcd_plane(**sets)
    write_plane_tsv(plane, out_dir / "plane.tsv")
    write_plane_svg(plane, out_dir / "plane.svg")
    return plane


def render(feats, out_dir):
    """Resynthesize each feature set to `<out_dir>/<utt_id>.wav`, clipped to
    [-1, 1]; returns the WAV paths."""
    out_dir = Path(out_dir)
    wav_paths = []
    for feat in feats:
        wav = acoustics.synthesize(feat, acoustics.FS)
        wav_path = out_dir / f"{feat.utt_id}.wav"
        write_wav(wav_path, np.clip(wav, -1.0, 1.0), acoustics.FS)
        wav_paths.append(wav_path)
    return wav_paths


# scenario -> (training role, test role)
SCENARIOS = {
    "natural": ("natural", "natural"),
    "acoustic-mismatch": ("natural", "synthetic"),
    "temporal-mismatch": ("synthetic", "synthetic"),
    "post-filter": ("pseudo", "enhanced"),
}


def split_train_test(utt_ids):
    """Deterministic split: sorted ids, the last ~20% (at least one) held out."""
    ids = sorted(utt_ids)
    if len(ids) < 2:
        raise InputError("need at least two utterances to split train/test")
    n_test = max(1, int(round(0.2 * len(ids))))
    return ids[:-n_test], ids[-n_test:]


END_TO_END_STAGES = (
    "extract",
    "simulate",
    "split",
    "train",
    "pseudo",
    "enhance",
    "plane",
    "scenarios",
    "report",
)

# headline set MCDs, (a, b) -> summary["mcd_a_b"]
HEADLINE = (
    ("synthetic", "natural"),
    ("enhanced", "natural"),
    ("pseudo", "natural"),
    ("enhanced", "pseudo"),
)

ORDERINGS = (
    ("enhanced_natural", "synthetic_natural"),
    ("enhanced_pseudo", "synthetic_natural"),
)


@contextmanager
def _stage(name):
    """Prefix any pipeline error with the stage that raised it."""
    try:
        yield
    except CycleVCError as exc:
        raise type(exc)(f"stage {name!r} failed: {exc}") from exc


def config_fields(config):
    """The scalar fields of a config dataclass (class or instance): the CLI
    options it offers and the settings the report echoes."""
    return [f for f in dataclasses.fields(config) if f.type in (int, float, bool)]


def _config_line(name, config):
    values = " ".join(f"{f.name}={getattr(config, f.name)}" for f in config_fields(config))
    return f"{name}: {values}"


def write_report(summary, train_config, degrade_config, path):
    """Plain-text run report: config echo, headline MCDs, ordering verdicts.

    Contains no filesystem paths, so identical (corpus, config, seed) runs
    produce byte-identical reports regardless of where they were written.
    """
    lines = [
        "cycle-vc end-to-end report",
        _config_line("config", train_config),
        _config_line("degrade", degrade_config),
        "train_utterances: " + " ".join(summary["train_ids"]),
        "test_utterances: " + " ".join(summary["test_ids"]),
    ]
    for a, b in HEADLINE:
        lines.append(f"mcd_{a}_{b}_db: {summary[f'mcd_{a}_{b}']:.6f}")
    lines.append(f"plane_stress: {summary['stress']:.6f}")
    for small, big in ORDERINGS:
        margin = summary[f"mcd_{big}"] - summary[f"mcd_{small}"]
        verdict = "PASS" if margin > 0 else "FAIL"
        lines.append(
            f"ordering mcd_{small} < mcd_{big}: {verdict} (margin {margin:.6f} dB)"
        )
    write_atomic(path, "\n".join(lines) + "\n")


def run_end_to_end(wav_dir, work_dir, train_config=None, degrade_config=None):
    """Full demonstration pipeline on a directory of WAV files.

    Extracts natural features, simulates degraded synthetic counterparts,
    trains the converter pair on an 80/20 split, produces pseudo and
    enhanced features for the held-out utterances, renders each distinct
    scenario test set once, and writes the scenario table and the
    distance-map reports. Returns a summary dict with the headline MCD
    numbers and the paths of everything written. Errors name the stage that
    failed.
    """
    train_config = train_config or TrainConfig()
    degrade_config = degrade_config or DegradeConfig()
    wav_paths = sorted(Path(wav_dir).glob("*.wav"))
    if len(wav_paths) < 2:
        raise InputError(f"{wav_dir} holds fewer than two WAV files")
    work = Path(work_dir)
    dirs = {role: work / "features" / role for role in ROLES}

    with _stage("extract"):
        natural = {f.utt_id: f for f in extract(wav_paths, dirs["natural"])}
    with _stage("simulate"):
        degraded = convert_all(
            lambda f: simulate_tts(f, degrade_config), natural.values(), dirs["synthetic"]
        )
        synthetic = {f.utt_id: f for f in degraded}

    with _stage("split"):
        train_ids, test_ids = split_train_test(natural)
        manifest_path = work / "train_manifest.tsv"
        pair_manifest(train_ids, dirs["natural"], dirs["synthetic"], manifest_path)

    with _stage("train"):
        model, _ = fit(pair_dataset(manifest_path), train_config, work)

    test_sets = {
        "natural": [natural[u] for u in test_ids],
        "synthetic": [synthetic[u] for u in test_ids],
    }
    with _stage("pseudo"):
        test_sets["pseudo"] = convert_all(
            lambda f: generate_pseudo(model, f), test_sets["natural"], dirs["pseudo"]
        )
    with _stage("enhance"):
        test_sets["enhanced"] = convert_all(
            lambda f: enhance(model, f), test_sets["synthetic"], dirs["enhanced"]
        )

    with _stage("plane"):
        plane = distance_map(test_sets, work)

    with _stage("scenarios"):
        for role in dict.fromkeys(test_on for _, test_on in SCENARIOS.values()):
            render(test_sets[role], work / "wavs" / role)
        rows = ["scenario\ttrain_on\ttest_on\twaveforms"]
        for name, (train_on, test_on) in SCENARIOS.items():
            rows.append(f"{name}\t{train_on}\t{test_on}\twavs/{test_on}")
        write_atomic(work / "scenarios.tsv", "\n".join(rows) + "\n")

    summary = {
        "work_dir": work,
        "model_path": work / "model.ckpt",
        "report_path": work / "report.txt",
        "train_ids": train_ids,
        "test_ids": test_ids,
        "feature_dirs": dirs,
        **{
            f"mcd_{a}_{b}": float(plane.distances[plane.labels.index(a), plane.labels.index(b)])
            for a, b in HEADLINE
        },
        "stress": plane.stress,
    }
    with _stage("report"):
        write_report(summary, train_config, degrade_config, summary["report_path"])
    return summary
