"""Command-line interface.

Every subcommand accepts --config pointing at a flat key=value file whose
keys are the subcommand's option names (underscored), required ones
included; explicit flags win over config values, and unknown keys are an
error. The effective settings are echoed line-by-line before the run so
logs capture exactly what ran.

Exit codes: 0 success, 1 bad input or configuration, 2 internal failure.
"""

import argparse
import sys
from pathlib import Path

from . import fixture
from .degrade import DegradeConfig, simulate_tts
from .errors import ConfigError, CycleVCError, InputError
from .evaluation import ROLES, mcd_set
from .features import read_features
from .model import load_checkpoint
from .pipeline import (
    END_TO_END_STAGES,
    config_fields,
    convert_all,
    distance_map,
    enhance,
    extract,
    fit,
    generate_pseudo,
    pair_manifest,
    render,
    run_end_to_end,
)
from .training import TrainConfig, pair_dataset, pairing_report


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _config(config_cls, args):
    return config_cls(**{f.name: getattr(args, f.name) for f in config_fields(config_cls)})


def _build_parser():
    parser = _Parser(prog="cyclevc", description="Cycle-VC post-filter toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    parsers = {}

    def command(name, help_text, handler, *required, config=None):
        """A subcommand with --config, the `required` options, and one
        option per scalar field of the `config` dataclass, with its default."""
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", help="key=value file with defaults for this command")
        for flag in required:
            p.add_argument(flag, required=True)
        for f in config_fields(config) if config else ():
            flag = "--" + f.name.replace("_", "-")
            if f.type is bool:
                p.add_argument(flag, action="store_true", default=f.default)
            else:
                p.add_argument(flag, type=f.type, default=f.default)
        p.set_defaults(handler=handler)
        parsers[name] = p
        return p

    command("extract", "analyze WAV files into feature files", _cmd_extract,
            "--wav-dir", "--out-dir")
    command("simulate", "degrade natural features into synthetic-like ones", _cmd_simulate,
            "--features-dir", "--out-dir", config=DegradeConfig)
    command("manifest", "pair natural and synthetic feature dirs by stem", _cmd_manifest,
            "--natural-dir", "--synthetic-dir", "--out")
    command("train", "train the converter pair on a paired manifest", _cmd_train,
            "--manifest", "--out-dir", config=TrainConfig)
    command("pseudo", "self-convert natural features for vocoder training", _cmd_pseudo,
            "--model", "--features-dir", "--out-dir")
    command("enhance", "convert synthetic features toward the natural domain", _cmd_enhance,
            "--model", "--features-dir", "--out-dir")
    command("synth", "render feature files to WAV with the resynthesizer", _cmd_synth,
            "--features-dir", "--out-dir")
    command("mcd", "mean mel-cepstral distortion between two feature sets", _cmd_mcd,
            "--set-a", "--set-b")

    # the role dirs come before --out-dir in plane's usage line
    p = command("plane", "embed pairwise set MCDs into a labeled 2-D map", _cmd_plane)
    for role in ROLES:
        p.add_argument(f"--{role}-dir")
    p.add_argument("--out-dir", required=True)

    p = command("fixture", "generate the deterministic demo corpus", _cmd_fixture, "--out-dir")
    p.add_argument("--count", type=int, default=fixture.DEFAULT_UTTERANCES)
    p.add_argument("--seed", type=int, default=fixture.DEFAULT_SEED)

    p = command("end-to-end", "full demo: extract, degrade, train, render, report",
                _cmd_end_to_end, "--wav-dir", "--work-dir", config=TrainConfig)
    p.add_argument("--sim-seed", type=int, default=DegradeConfig.seed)
    p.add_argument("--dry-run", action="store_true")

    return parser, parsers


def _read_config_file(path):
    values, first_line = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key in first_line:
            raise ConfigError(
                f"{path}:{lineno}: repeats key {key!r} (first set on line {first_line[key]})"
            )
        first_line[key] = lineno
        values[key] = value.strip()
    return values


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _apply_config(command, sub, path):
    """Make each value of the config file at `path` the default of its option
    in the subcommand parser `sub`; an option the file sets is not required."""
    values = _read_config_file(path)
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(values) - set(actions))
    if unknown:
        raise ConfigError(f"unknown config keys for {command!r}: {', '.join(unknown)}")
    for key, raw in values.items():
        action = actions[key]
        if isinstance(action, argparse._StoreTrueAction):
            if raw.lower() not in _TRUE | _FALSE:
                raise ConfigError(f"config key {key}: expected a boolean, got {raw!r}")
            value = raw.lower() in _TRUE
        elif action.type is not None:
            try:
                value = action.type(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc
        else:
            value = raw
        action.default = value
        action.required = False


def _parse_args(argv):
    """Parse the command line once, after a --config file, found by a
    pre-parser, has set the defaults of its subcommand's options."""
    parser, parsers = _build_parser()
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path and argv[0] in parsers:
        _apply_config(argv[0], parsers[argv[0]], path)
    return parser.parse_args(argv)


def _echo(args):
    for key in sorted(vars(args).keys() - {"config", "handler"}):
        print(f"[config] {key}={getattr(args, key)}")


def _feature_files(directory, what):
    paths = sorted(Path(directory).glob("*.cvf"))
    if not paths:
        raise InputError(f"no feature files (*.cvf) in {what} directory {directory}")
    return paths


def _load_set(directory, what):
    return [read_features(p) for p in _feature_files(directory, what)]


def _cmd_extract(args):
    wavs = sorted(Path(args.wav_dir).glob("*.wav"))
    if not wavs:
        raise InputError(f"no WAV files in {args.wav_dir}")
    extract(wavs, args.out_dir)
    print(f"extracted {len(wavs)} utterances -> {args.out_dir}")


def _cmd_simulate(args):
    config = _config(DegradeConfig, args)
    feats = _load_set(args.features_dir, "features")
    convert_all(lambda f: simulate_tts(f, config), feats, args.out_dir)
    print(f"simulated {len(feats)} utterances -> {args.out_dir}")


def _cmd_manifest(args):
    nat = {p.stem for p in _feature_files(args.natural_dir, "natural")}
    syn = {p.stem for p in _feature_files(args.synthetic_dir, "synthetic")}
    missing = sorted(nat ^ syn)
    if missing:
        raise InputError(f"utterances present on one side only: {', '.join(missing)}")
    pair_manifest(sorted(nat), args.natural_dir, args.synthetic_dir, args.out)
    print(f"wrote {len(nat)} pairs -> {args.out}")


def _cmd_train(args):
    config = _config(TrainConfig, args)
    pairs = pair_dataset(args.manifest)
    for line in pairing_report(pairs):
        print(f"[pairing] {line}")
    _, curve = fit(pairs, config, args.out_dir)
    last = curve[-1]
    print(
        f"trained on {len(pairs)} utterances; "
        f"final stot_l1={last.stot_l1:.6f} cycle_l1={last.cycle_l1:.6f}"
    )
    print(f"model and loss curve -> {args.out_dir}")


def _convert_dir(args, convert):
    model = load_checkpoint(args.model)
    feats = _load_set(args.features_dir, "features")
    convert_all(lambda f: convert(model, f), feats, args.out_dir)
    return len(feats)


def _cmd_pseudo(args):
    count = _convert_dir(args, generate_pseudo)
    print(f"pseudo features for {count} utterances -> {args.out_dir}")


def _cmd_enhance(args):
    count = _convert_dir(args, enhance)
    print(f"enhanced features for {count} utterances -> {args.out_dir}")


def _cmd_synth(args):
    feats = _load_set(args.features_dir, "features")
    render(feats, args.out_dir)
    print(f"synthesized {len(feats)} utterances -> {args.out_dir}")


def _cmd_mcd(args):
    value = mcd_set(_load_set(args.set_a, "set-a"), _load_set(args.set_b, "set-b"))
    print(f"mcd_db={value:.6f}")


def _cmd_plane(args):
    dirs = {role: getattr(args, f"{role}_dir") for role in ROLES}
    sets = {role: _load_set(d, role) for role, d in dirs.items() if d}
    result = distance_map(sets, args.out_dir)
    for i in range(len(result.labels)):
        for j in range(i + 1, len(result.labels)):
            print(
                f"mcd[{result.labels[i]},{result.labels[j]}]="
                f"{result.distances[i, j]:.3f}"
            )
    print(f"stress={result.stress:.6f}")


def _cmd_fixture(args):
    paths = fixture.make_corpus(args.out_dir, n_utterances=args.count, seed=args.seed)
    print(f"wrote {len(paths)} utterances to {args.out_dir}")


def _cmd_end_to_end(args):
    train_config = _config(TrainConfig, args)
    degrade_config = DegradeConfig(seed=args.sim_seed)
    if args.dry_run:
        for step, stage in enumerate(END_TO_END_STAGES, 1):
            print(f"[plan] {step}. {stage}")
        return
    summary = run_end_to_end(
        args.wav_dir, args.work_dir, train_config=train_config, degrade_config=degrade_config
    )
    report = Path(summary["report_path"]).read_text(encoding="utf-8")
    for line in report.rstrip("\n").splitlines():
        print(f"[report] {line}")
    print(f"[report] written to {summary['report_path']}")


def _run(argv):
    args = _parse_args(argv)
    _echo(args)
    args.handler(args)
    return 0


def main(argv=None):
    try:
        return _run(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return 0 if code is None else int(code)
    except (InputError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CycleVCError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
