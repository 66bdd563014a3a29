"""The benchmark's three workloads, each a closed loop of ops with one caller.

Every workload builds its inputs from the seed in `setup`, through the
library's public API, and then runs `op(i)` for i = 0, 1, ... until time is
up. An op returns (feature frames finished, digest of what it wrote) and
raises `CheckFailed` when an output is wrong. Ops cycle over the inputs, so
an op repeated on the same input must write the same bytes. `finish` runs
outside the timed phase: it makes the deterministic quality guard (an MCD in
dB) and the checks that need more than one op.

Why these three:
- extract: WAV -> analyze -> simulate_tts -> .cvf, the cost of bringing in a
  new corpus; almost all of it is analysis, and the model is never touched.
- train: short seeded train() jobs on the 80 % split; the model's forward and
  backward passes plus Adam, and no acoustics.
- convert: .cvf -> enhance f(X) and generate_pseudo f(g(Y)) -> .cvf; the same
  model layer as train, read-only (forward passes only).
"""

import hashlib
import wave
from pathlib import Path

import numpy as np

from cyclevc import (
    acoustics,
    degrade,
    evaluation,
    features,
    fixture,
    model,
    pipeline,
    training,
    wavio,
)

# extract runs on the seed's whole 24-utterance corpus. train and convert
# analyse their corpus during set-up, three times per run, so they take the
# utterances of that corpus, in order, that fit in MODEL_FRAMES frames (about
# 6): set-up stays a few seconds, and its size hardly varies by seed.
MODEL_FRAMES = 2700
PAIRS_PER_JOB = 2
EXTRACT_EVAL_UTTERANCES = 8  # quality guard of extract: the first 8 utterances


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def file_digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def wav_frame_counts(wav_paths):
    """Feature frames analysis will give each WAV: samples // HOP + 1."""
    counts = []
    for path in wav_paths:
        with wave.open(str(path), "rb") as w:
            counts.append(w.getnframes() // acoustics.HOP + 1)
    return counts


def check_finite(feat, what):
    check(np.all(np.isfinite(feat.full_frames())), f"{feat.utt_id}: non-finite {what} features")


def check_prosody(out, ref, what, kept=("lf0", "uv", "cap")):
    """`out` is finite and keeps the frame count and the `kept` bits of `ref`."""
    check(out.n_frames == ref.n_frames, f"{ref.utt_id}: {what} has {out.n_frames} frames, input {ref.n_frames}")
    for name in kept:
        a, b = getattr(out, name), getattr(ref, name)
        check(a.tobytes() == b.tobytes(), f"{ref.utt_id}: {what} {name} differs from its input")
    check_finite(out, what)


def extract_one(wav_path, out_dir):
    """WAV -> natural and simulated-synthetic features, both written as .cvf."""
    samples, fs = wavio.read_wav(wav_path)
    natural = acoustics.analyze(samples, fs, utt_id=wav_path.stem)
    synthetic = degrade.simulate_tts(natural)
    paths = (out_dir / "natural" / f"{natural.utt_id}.cvf", out_dir / "synthetic" / f"{natural.utt_id}.cvf")
    features.write_features(natural, paths[0])
    features.write_features(synthetic, paths[1])
    expected = len(samples) // acoustics.HOP + 1
    check(natural.n_frames == expected, f"{natural.utt_id}: {natural.n_frames} frames, expected {expected}")
    check_finite(natural, "natural")
    check_prosody(synthetic, natural, "synthetic", kept=("uv", "cap"))  # simulate_tts smooths lf0
    return natural, synthetic, paths


class Workload:
    frame_budget = MODEL_FRAMES  # None: the whole corpus
    setup_repeats = 3

    def __init__(self, seed):
        self.seed = seed
        self.frame_counts = []

    def make_corpus(self, d):
        """The seed's corpus as WAVs: all of it, or the utterances that fit the frame budget."""
        wavs = fixture.make_corpus(d / "wav", seed=self.seed)
        counts = wav_frame_counts(wavs)
        if self.frame_budget is not None:
            kept, total = [], 0
            for wav, n in zip(wavs, counts):
                if total + n <= self.frame_budget:
                    kept.append((wav, n))
                    total += n
            wavs, counts = (list(x) for x in zip(*kept))
        self.frame_counts = counts
        for sub in ("natural", "synthetic", "pseudo", "enhanced"):
            (d / sub).mkdir(parents=True, exist_ok=True)
        return wavs

    def extract_corpus(self, d):
        """Make the corpus and analyse it into self.natural and self.synthetic
        ({utt_id: features}) and self.ids (sorted)."""
        self.natural, self.synthetic = {}, {}
        for wav in self.make_corpus(d):
            nat, syn, _ = extract_one(wav, d)
            self.natural[nat.utt_id], self.synthetic[nat.utt_id] = nat, syn
        self.ids = sorted(self.natural)

    def make_model(self, d):
        """A checkpoint from one short job on the first training pairs, loaded back."""
        train_ids, _ = pipeline.split_train_test(self.natural)
        pairs = [training.pair_features(u, self.synthetic[u], self.natural[u]) for u in train_ids[:PAIRS_PER_JOB]]
        trained, _ = training.train(pairs, training.TrainConfig(epochs=1, seed=self.seed))
        path = d / "model.ckpt"
        model.save_checkpoint(trained, path)
        return model.load_checkpoint(path)

    def key(self, i):
        """Ops with the same key run on the same input and must write the same bytes."""
        return i % len(self.frame_counts)


class Extract(Workload):
    frame_budget = None
    setup_repeats = 15  # one set-up is WAV generation only, a fifth of a second

    def setup(self, d):
        self.dir = d
        self.wavs = self.make_corpus(d)
        self.results = {}

    def op(self, i):
        natural, synthetic, paths = extract_one(self.wavs[i % len(self.wavs)], self.dir)
        self.results.setdefault(natural.utt_id, (natural, synthetic))
        return natural.n_frames, file_digest(*paths)

    def finish(self):
        natural, synthetic = [], []
        for wav in self.wavs[:EXTRACT_EVAL_UTTERANCES]:
            nat, syn = self.results.get(wav.stem) or extract_one(wav, self.dir)[:2]
            natural.append(nat)
            synthetic.append(syn)
        return {"mcd_synthetic_natural_db": evaluation.mcd_set(synthetic, natural)}


class Train(Workload):
    def setup(self, d):
        self.dir = d
        self.extract_corpus(d)
        train_ids, _ = pipeline.split_train_test(self.natural)
        manifest = d / "train_manifest.tsv"
        features.write_manifest(
            [(u, f"natural/{u}.cvf", f"synthetic/{u}.cvf") for u in train_ids], manifest
        )
        self.pairs = training.pair_dataset(manifest)
        self.job0_digest = None

    def key(self, i):
        return i  # every job has its own seed

    def job(self, j):
        """Job j: one epoch over PAIRS_PER_JOB consecutive pairs, seed derived from j."""
        n = len(self.pairs)
        pairs = [self.pairs[(PAIRS_PER_JOB * j + k) % n] for k in range(PAIRS_PER_JOB)]
        config = training.TrainConfig(epochs=1, seed=self.seed + j)
        trained, curve = training.train(pairs, config)
        check(all(np.isfinite(b.total) for b in curve), f"job {j}: non-finite loss")
        path = self.dir / "job.ckpt"
        model.save_checkpoint(trained, path)
        frames = sum(p.source.n_frames for p in pairs) * config.epochs
        return trained, frames, file_digest(path)

    def op(self, i):
        _, frames, digest = self.job(i)
        if i == 0:
            self.job0_digest = digest
        return frames, digest

    def finish(self):
        trained, _, digest = self.job(0)
        check(digest == self.job0_digest, "two train jobs with the same seed wrote different checkpoints")
        enhanced = [pipeline.enhance(trained, self.synthetic[u]) for u in self.ids]
        return {"mcd_enhanced_natural_db": evaluation.mcd_set(enhanced, [self.natural[u] for u in self.ids])}


class Convert(Workload):
    def setup(self, d):
        self.dir = d
        self.extract_corpus(d)
        self.model = self.make_model(d)
        self.results = {}

    def convert(self, utt_id):
        d = self.dir
        natural = features.read_features(d / "natural" / f"{utt_id}.cvf")
        synthetic = features.read_features(d / "synthetic" / f"{utt_id}.cvf")
        pseudo = pipeline.generate_pseudo(self.model, natural)
        enhanced = pipeline.enhance(self.model, synthetic)
        paths = (d / "pseudo" / f"{utt_id}.cvf", d / "enhanced" / f"{utt_id}.cvf")
        features.write_features(pseudo, paths[0])
        features.write_features(enhanced, paths[1])
        check_prosody(pseudo, natural, "pseudo")
        check_prosody(enhanced, synthetic, "enhanced")
        self.results.setdefault(utt_id, (natural, pseudo, enhanced))
        return natural.n_frames, file_digest(*paths)

    def op(self, i):
        return self.convert(self.ids[i % len(self.ids)])

    def finish(self):
        for u in self.ids:
            if u not in self.results:
                self.convert(u)
        natural, pseudo, enhanced = zip(*(self.results[u] for u in self.ids))
        return {  # the first entry is the workload's quality guard
            "mcd_enhanced_natural_db": evaluation.mcd_set(enhanced, natural),
            "mcd_pseudo_natural_db": evaluation.mcd_set(pseudo, natural),
        }


WORKLOADS = {"extract": Extract, "train": Train, "convert": Convert}
