"""Joint training of the two converters on paired utterances.

Pairing enforces the frame-alignment contract (natural and synthetic
renditions of the same utterance may differ by at most two frames and are
trimmed to the shorter), normalization statistics are computed per domain
over the training material, and optimization is Adam with one utterance
per step. The cycle term's tiny weight would starve the target-to-source
converter under plain gradient descent; Adam's per-parameter step
normalization is what lets both converters learn from it.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, PairingError, TrainingError
from .features import (
    MAX_FRAME_MISMATCH,
    UtteranceFeatures,
    atomic_open,
    compute_norm_stats,
    normalize,
    read_features,
    read_manifest,
)
from .model import (
    RHO_DEFAULT,
    CycleVCModel,
    LossBreakdown,
    ModelArch,
    loss_gradients,
)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 15
    rho: float = RHO_DEFAULT
    learning_rate: float = 1e-4
    seed: int = 7
    teacher_forcing: bool = False
    arch: ModelArch = field(default_factory=ModelArch)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.rho < 0:
            raise ConfigError("rho must be non-negative")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")


@dataclass(frozen=True)
class PairedUtterance:
    """Frame-aligned natural (target) and synthetic (source) features."""

    utt_id: str
    source: UtteranceFeatures
    target: UtteranceFeatures
    trimmed_frames: int = 0


def _trim(feat, n):
    if feat.n_frames == n:
        return feat
    return UtteranceFeatures(
        utt_id=feat.utt_id,
        mcep=feat.mcep[:n],
        lf0=feat.lf0[:n],
        uv=feat.uv[:n],
        cap=feat.cap[:n],
    )


def pair_features(utt_id, source, target):
    """Align one pair, trimming a mismatch of at most MAX_FRAME_MISMATCH."""
    diff = abs(source.n_frames - target.n_frames)
    if diff > MAX_FRAME_MISMATCH:
        raise PairingError(
            f"{utt_id}: temporal mismatch, frame counts differ by {diff} "
            f"(source {source.n_frames}, target {target.n_frames}); "
            f"at most {MAX_FRAME_MISMATCH} can be trimmed"
        )
    n = min(source.n_frames, target.n_frames)
    return PairedUtterance(
        utt_id=utt_id,
        source=_trim(source, n),
        target=_trim(target, n),
        trimmed_frames=diff,
    )


def pair_dataset(manifest_path):
    """Load a manifest of (utt_id, natural, synthetic) feature files.

    Natural features are the conversion target, synthetic ones the source.
    """
    records = read_manifest(manifest_path)
    if not records:
        raise InputError(f"manifest {manifest_path} lists no utterances")
    pairs = []
    for utt_id, natural_path, synthetic_path in records:
        target = read_features(natural_path, utt_id=utt_id)
        source = read_features(synthetic_path, utt_id=utt_id)
        pairs.append(pair_features(utt_id, source, target))
    return pairs


def pairing_report(pairs):
    """One line per trimmed pair, naming the utterance and the trim size."""
    return [
        f"{p.utt_id}: trimmed {p.trimmed_frames} frame(s) to align "
        f"at {p.source.n_frames} frames"
        for p in pairs
        if p.trimmed_frames
    ]


class AdamOptimizer:
    """Adam with per-parameter state.

    EPS sits far below the usual 1e-8: the reverse converter's gradients are
    scaled by the tiny cycle weight, and an eps at or above their RMS would
    cancel the step normalization that makes that term trainable at all.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-16

    def __init__(self, params, learning_rate):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.step_count += 1
        correction1 = 1.0 - self.BETA1**self.step_count
        correction2 = 1.0 - self.BETA2**self.step_count
        for name, p in params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - self.BETA1) * (g - m)
            v += (1.0 - self.BETA2) * (g * g - v)
            m_hat = m / correction1
            v_hat = v / correction2
            p -= (self.learning_rate * m_hat / (np.sqrt(v_hat) + self.EPS)).astype(p.dtype)


def train(pairs, config=None):
    """Train both converters jointly; returns (model, per-epoch loss curve).

    Deterministic given pairs and config: parameter init and the per-epoch
    shuffle derive from config.seed, and utterances start in sorted order.
    """
    config = config or TrainConfig()
    if not pairs:
        raise InputError("training set is empty")
    ids = [p.utt_id for p in pairs]
    if len(set(ids)) != len(ids):
        raise PairingError("duplicate utt_ids in training set")

    norm_src = compute_norm_stats([p.source for p in pairs])
    norm_tgt = compute_norm_stats([p.target for p in pairs])

    init_ss, shuffle_ss = np.random.SeedSequence(config.seed).spawn(2)
    model = CycleVCModel.init(config.arch, norm_src, norm_tgt, seed=init_ss)
    shuffle_rng = np.random.Generator(np.random.PCG64(shuffle_ss))

    by_id = {p.utt_id: p for p in pairs}
    order = sorted(by_id)
    x_norm = {u: normalize(by_id[u].source, norm_src) for u in order}
    y_norm = {u: normalize(by_id[u].target, norm_tgt) for u in order}

    optimizer = AdamOptimizer(model.params, config.learning_rate)
    curve = []
    for epoch in range(1, config.epochs + 1):
        perm = shuffle_rng.permutation(len(order))
        stot_sum = 0.0
        cycle_sum = 0.0
        for idx in perm:
            utt = order[idx]
            breakdown, grads = loss_gradients(
                model,
                x_norm[utt],
                y_norm[utt],
                rho=config.rho,
                teacher_forcing=config.teacher_forcing,
            )
            if not np.isfinite(breakdown.total):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, utterance {utt!r}"
                )
            optimizer.step(model.params, grads)
            stot_sum += breakdown.stot_l1
            cycle_sum += breakdown.cycle_l1
        for name, p in model.params.items():
            if not np.all(np.isfinite(p)):
                raise TrainingError(
                    f"non-finite values in parameter {name!r} after epoch {epoch}"
                )
        curve.append(
            LossBreakdown(
                stot_l1=stot_sum / len(order),
                cycle_l1=cycle_sum / len(order),
                rho=config.rho,
            )
        )
    return model, curve


def write_loss_curve(curve, path):
    """Per-epoch loss terms as TSV (epoch, stot_l1, cycle_l1, total)."""
    lines = ["epoch\tstot_l1\tcycle_l1\ttotal"]
    for epoch, breakdown in enumerate(curve, 1):
        lines.append(
            f"{epoch}\t{breakdown.stot_l1:.9g}\t{breakdown.cycle_l1:.9g}\t{breakdown.total:.9g}"
        )
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
